//! Every workload and metric the benchmark reports, with the end-to-end
//! metric and workload each per-layer metric should move. `BENCHMARK.json`
//! at the repository root is rendered from these tables
//! (`perfbench --benchmark-json`), and a test keeps the two identical.
//!
//! `BENCH_kernels.json` at the repository root holds hand-run
//! micro-benchmark rows of `cargo bench --bench kernels`. It is outside this
//! benchmark and gates nothing.

/// The seed whose observables are committed in `reference/default_seed.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// How far a metric repeats across passes of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exactness {
    /// A deterministic count: identical across passes and thread counts
    /// (the benchmark fails the run if it is not).
    Exact,
    /// A host-time measurement.
    Timed,
    /// A count that depends on wall-clock calibration (runner batching).
    Calibrated,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Repeatability.
    pub exact: Exactness,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

/// One workload.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "coin_bound",
        why: "EXP-CROSS large-k selective cells (n=1024, k up to n-1, worst ids, 3-run ensembles, three cell sets a pass): PRF coins and the dense and word evaluators do nearly all the work",
    },
    Workload {
        name: "sparse_events",
        why: "full resolution at n=2^16, a faulty cell and class-population block wakes at n=2^20 and 2^22: the sparse heap, hint requery and class loop do the work",
    },
    Workload {
        name: "short_runs",
        why: "300k tiny WakeupWithK runs (n=256, k=4) through run_ensemble_stream: construction, patterns, runner batching and reduction dominate",
    },
    Workload {
        name: "registry_quick",
        why: "all 17 registry experiments at quick scale into JSON sinks, diffed against ci/golden-quick: the command users run",
    },
];

const T: Exactness = Exactness::Timed;
const E: Exactness = Exactness::Exact;
const C: Exactness = Exactness::Calibrated;

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    exact: Exactness,
    moves: &'static [(&'static str, &'static str)],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact,
        moves,
    }
}

/// Bound (share of the parent's median) of each end-to-end metric.
pub const BOUNDS: &[(&str, f64)] = &[
    ("wall_s", 0.25),
    ("runs_per_s", 0.25),
    ("setup_s", 0.25),
    ("peak_rss_mb", 0.15),
];

/// End-to-end metrics: host time with span recording off.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", "lower", T, &[]),
    m("runs_per_s", "1/s", "higher", T, &[]),
    m("setup_s", "s", "lower", T, &[]),
    m("peak_rss_mb", "MB", "lower", T, &[]),
];

const REG: &[(&str, &str)] = &[("wall_s", "registry_quick")];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m(
        "selectors.member_ns",
        "ns",
        "lower",
        T,
        &[("wall_s", "coin_bound")],
    ),
    m(
        "selectors.build_us",
        "us",
        "lower",
        T,
        &[("setup_s", "sparse_events"), ("wall_s", "registry_quick")],
    ),
    m("selectors.verify_us", "us", "lower", T, REG),
    m(
        "core.protocol_new_us",
        "us",
        "lower",
        T,
        &[("runs_per_s", "short_runs")],
    ),
    m(
        "core.station_us",
        "us",
        "lower",
        T,
        &[("wall_s", "coin_bound"), ("runs_per_s", "short_runs")],
    ),
    m(
        "pattern.gen_us",
        "us",
        "lower",
        T,
        &[("runs_per_s", "short_runs")],
    ),
    m(
        "engine.run_us.p50",
        "us",
        "lower",
        T,
        &[
            ("wall_s", "coin_bound"),
            ("wall_s", "sparse_events"),
            ("wall_s", "short_runs"),
        ],
    ),
    m(
        "engine.run_us.p99",
        "us",
        "lower",
        T,
        &[
            ("wall_s", "coin_bound"),
            ("wall_s", "sparse_events"),
            ("wall_s", "short_runs"),
        ],
    ),
    m(
        "engine.ns_per_station_slot",
        "ns",
        "lower",
        T,
        &[("wall_s", "coin_bound")],
    ),
    m(
        "engine.classes.run_us",
        "us",
        "lower",
        T,
        &[
            ("wall_s", "sparse_events"),
            ("peak_rss_mb", "sparse_events"),
        ],
    ),
    m(
        "engine.faulty.run_us",
        "us",
        "lower",
        T,
        &[
            ("wall_s", "sparse_events"),
            ("peak_rss_mb", "sparse_events"),
        ],
    ),
    m(
        "engine.slots",
        "count",
        "lower",
        E,
        &[("wall_s", "coin_bound")],
    ),
    m(
        "engine.polls",
        "count",
        "lower",
        E,
        &[("wall_s", "sparse_events")],
    ),
    m(
        "engine.skipped_slots",
        "count",
        "higher",
        E,
        &[("wall_s", "sparse_events")],
    ),
    m(
        "engine.dense_steps",
        "count",
        "lower",
        E,
        &[("wall_s", "coin_bound")],
    ),
    m(
        "engine.word_slots",
        "count",
        "higher",
        E,
        &[("wall_s", "coin_bound")],
    ),
    m(
        "engine.mode_switches",
        "count",
        "lower",
        E,
        &[("wall_s", "sparse_events")],
    ),
    m(
        "engine.peak_units",
        "count",
        "lower",
        E,
        &[("peak_rss_mb", "sparse_events")],
    ),
    m(
        "engine.skip_frac",
        "ratio",
        "higher",
        E,
        &[("wall_s", "sparse_events")],
    ),
    m(
        "engine.polls_per_slot",
        "ratio",
        "lower",
        E,
        &[("wall_s", "sparse_events")],
    ),
    m(
        "runner.calibration_frac",
        "ratio",
        "lower",
        E,
        &[("wall_s", "coin_bound")],
    ),
    m(
        "runner.busy_frac",
        "ratio",
        "higher",
        T,
        &[("runs_per_s", "short_runs")],
    ),
    m(
        "runner.batches",
        "count",
        "lower",
        C,
        &[("runs_per_s", "short_runs")],
    ),
    m(
        "runner.steals",
        "count",
        "lower",
        C,
        &[("runs_per_s", "short_runs")],
    ),
    m(
        "runner.reorder_peak",
        "count",
        "lower",
        C,
        &[("runs_per_s", "short_runs")],
    ),
    m(
        "ensemble.reduce_us",
        "us",
        "lower",
        T,
        &[("runs_per_s", "short_runs")],
    ),
    m(
        "ensemble.overhead_us",
        "us",
        "lower",
        T,
        &[("runs_per_s", "short_runs")],
    ),
    m("registry.exp_lower_bound.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_scenario_a.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_scenario_b.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_scenario_c.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_vs_chlebus.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_randomized.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_figures.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_balance.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_selective.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_crossover.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_summary.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_ablations.wall_ms", "ms", "lower", T, REG),
    m(
        "registry.exp_full_resolution.wall_ms",
        "ms",
        "lower",
        T,
        REG,
    ),
    m("registry.exp_certify.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_mega.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_noise.wall_ms", "ms", "lower", T, REG),
    m("registry.exp_churn.wall_ms", "ms", "lower", T, REG),
    m("sink.bytes", "bytes", "lower", E, REG),
    m("sink.write_us", "us", "lower", T, REG),
    m(
        "tracer.overhead_frac",
        "ratio",
        "lower",
        T,
        &[("wall_s", "sparse_events")],
    ),
    m(
        "unattributed_frac",
        "ratio",
        "lower",
        T,
        &[
            ("wall_s", "coin_bound"),
            ("wall_s", "sparse_events"),
            ("wall_s", "short_runs"),
            ("wall_s", "registry_quick"),
        ],
    ),
    m(
        "span_overhead_frac",
        "ratio",
        "lower",
        T,
        &[
            ("wall_s", "coin_bound"),
            ("wall_s", "sparse_events"),
            ("wall_s", "short_runs"),
            ("wall_s", "registry_quick"),
        ],
    ),
];

/// The metric named `name`, per-layer or end-to-end.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn metric_json(m: &Metric, bound: Option<f64>) -> String {
    let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name, m.unit, m.better
    )
}

/// `BENCHMARK.json`, rendered.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let bound = BOUNDS.iter().find(|(n, _)| *n == m.name).map(|b| b.1);
            metric_json(m, bound)
        })
        .collect();
    let layer: Vec<String> = PER_LAYER.iter().map(|m| metric_json(m, None)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_layer_metric_maps_to_an_end_to_end_metric_and_workload() {
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{} moves nothing", m.name);
            for (e2e, workload) in m.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *e2e),
                    "{}: {e2e}",
                    m.name
                );
                assert!(
                    WORKLOADS.iter().any(|w| w.name == *workload),
                    "{}: {workload}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_limits() {
        for m in END_TO_END {
            let b = BOUNDS.iter().find(|(n, _)| *n == m.name).expect(m.name).1;
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = BOUNDS.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        assert!(BOUNDS.iter().all(|(_, b)| *b <= setup));
    }

    #[test]
    fn every_registry_experiment_has_a_wall_metric() {
        for e in wakeup_bench::experiments::registry() {
            let name = format!("registry.{}.wall_ms", e.name);
            assert!(find(&name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn benchmark_json_is_rendered_from_this_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --benchmark-json"
        );
    }
}
