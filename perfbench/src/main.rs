//! `perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <coin_bound|sparse_events|short_runs|registry_quick|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run sets its workload up five times (reporting the
//! median as `setup_s`), then repeats whole passes over the workload for
//! `--seconds` seconds (at least three) with span recording off, and
//! reports `wall_s` (median pass), `runs_per_s`, `setup_s` and
//! `peak_rss_mb` (median over passes of the resident high-water mark, reset
//! before each pass). With `--trace 1` it alternates two untraced and two
//! traced passes (spans are kept from the first traced one), repeats a
//! pass on one thread to check that engine counts do not depend on the
//! thread count, replays samples of the workload's runs to time the layers
//! the pass cannot see, and reports the per-layer metrics of
//! [`manifest::PER_LAYER`]. Either way every pass's outputs are checked,
//! and the last stdout line is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The exit
//! code is non-zero when any output check failed.
//!
//! `--emit-reference` prints the reference digests of the simulated
//! workloads for the default seed (`reference/default_seed.txt`), and
//! `--benchmark-json` prints `BENCHMARK.json`.

mod manifest;
mod obs;
mod registry;
mod sim;
mod spans;

use manifest::{Exactness, DEFAULT_SEED, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wakeup_analysis::ensemble::WorkStats;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest passes an untraced run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <coin_bound|sparse_events|short_runs|registry_quick|all> \
     [--seed N] [--seconds S] [--trace 0|1] | --emit-reference | --benchmark-json"
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not a u64")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.iter().any(|w| w.name == a.workload) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

/// The repository root this benchmark was built in.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Hand the memory an earlier workload of this process freed back to the
/// kernel, so that a later workload's resident high-water mark does not
/// include pages the allocator merely kept.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, may be called
        // from any thread at any time, and only returns free heap pages to
        // the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset the kernel's resident high-water mark of this process, so the
/// next [`peak_rss_mb`] covers only what runs after this call.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Resident high-water mark of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Attempted and failed output checks.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn merge(&mut self, other: Tally) {
        self.add(other.attempted, other.failed);
    }
}

/// A workload after set-up.
enum State {
    Sim {
        name: &'static str,
        plan: sim::Plan,
        refs: obs::References,
    },
    Registry(registry::Registry),
}

/// What a pass produced.
enum Pass {
    Sim(sim::PassResult),
    Registry(registry::RegistryPass),
}

impl Pass {
    fn work(&self) -> WorkStats {
        match self {
            Pass::Sim(p) => p.work,
            Pass::Registry(p) => p.work,
        }
    }

    fn runs(&self) -> u64 {
        match self {
            Pass::Sim(p) => p.runs,
            Pass::Registry(p) => p.runs,
        }
    }
}

/// Build the workload, load what its checks compare against, and warm it
/// up.
fn setup(name: &'static str, seed: u64) -> std::io::Result<State> {
    if name == "registry_quick" {
        let r = registry::setup(&root())?;
        spans::paused(|| r.warm_up(sim::threads()));
        return Ok(State::Registry(r));
    }
    let text = std::fs::read_to_string(root().join("perfbench/reference/default_seed.txt"))?;
    let refs = obs::parse_references(&text);
    let plan = match name {
        "coin_bound" => sim::coin_bound(seed),
        "sparse_events" => sim::sparse_events(seed),
        "short_runs" => sim::short_runs(seed),
        other => unreachable!("validated workload {other}"),
    };
    spans::paused(|| sim::warm_up(&plan, sim::threads()));
    Ok(State::Sim { name, plan, refs })
}

impl State {
    fn pass(&self, threads: usize) -> std::io::Result<Pass> {
        Ok(match self {
            State::Sim { plan, .. } => Pass::Sim(sim::pass(plan, threads)),
            State::Registry(r) => Pass::Registry(r.pass(threads)?),
        })
    }

    /// Check `pass` against the references (default seed) and against
    /// `first`, the first pass of this run: outputs and engine counts must
    /// repeat exactly.
    fn check(&self, seed: u64, pass: &mut Pass, first: Option<&Pass>) -> std::io::Result<Tally> {
        let mut t = Tally::default();
        match (self, &mut *pass) {
            (State::Sim { name, plan, refs }, Pass::Sim(p)) => {
                for (c, cell) in plan.cells.iter().enumerate() {
                    let mut bad = false;
                    if seed == DEFAULT_SEED {
                        let want = refs.get(&(name.to_string(), cell.label.clone()));
                        if want != Some(&obs::render(&p.digests[c])) {
                            eprintln!(
                                "perfbench: {name} {} disagrees with its reference",
                                cell.label
                            );
                            bad = true;
                        }
                    }
                    if let Some(Pass::Sim(f)) = first {
                        if f.digests[c] != p.digests[c] {
                            eprintln!("perfbench: {name} {} changed between passes", cell.label);
                            bad = true;
                        }
                    }
                    t.add(cell.runs, if bad { cell.runs } else { 0 });
                }
            }
            (State::Registry(r), Pass::Registry(p)) => {
                r.check(p)?;
                let bad = p.failed_checks + p.regressions + u64::from(p.io_failed);
                t.add(p.checks + p.rows, bad);
            }
            _ => unreachable!("pass kind matches state kind"),
        }
        if let Some(f) = first {
            if f.work() != pass.work() {
                eprintln!("perfbench: engine counts changed between passes");
                t.add(1, 1);
            }
        }
        Ok(t)
    }

    /// Re-run a sample on the dense engine (any seed but the default one).
    fn dense_check(&self, seed: u64, first: &Pass) -> Tally {
        let mut t = Tally::default();
        if let (State::Sim { name, plan, .. }, Pass::Sim(p)) = (self, first) {
            if seed != DEFAULT_SEED {
                let (compared, failed) = sim::dense_check(plan, p, seed);
                if failed > 0 {
                    eprintln!(
                        "perfbench: {name}: {failed} of {compared} runs differ on the dense engine"
                    );
                }
                t.add(compared, failed);
            }
        }
        t
    }
}

/// A workload's printed result.
struct Report {
    tally: Tally,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

fn workload_name(name: &str) -> &'static str {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("validated workload")
        .name
}

/// The untraced run: end-to-end metrics.
fn run_end_to_end(name: &'static str, seed: u64, seconds: f64) -> std::io::Result<Report> {
    release_free_memory();
    let threads = sim::threads();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(name, seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");
    let mut peak_reset = true;
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut tally = Tally::default();
    let mut first: Option<Pass> = None;
    let mut measured = Duration::ZERO;
    while walls.len() < MIN_PASSES || measured.as_secs_f64() < seconds {
        peak_reset &= reset_peak_rss();
        let t = Instant::now();
        let mut pass = state.pass(threads)?;
        let wall = t.elapsed();
        peaks.push(peak_rss_mb());
        measured += wall;
        walls.push(wall.as_secs_f64());
        tally.merge(state.check(seed, &mut pass, first.as_ref())?);
        if first.is_none() {
            first = Some(pass);
        }
    }
    let first = first.expect("at least one pass");
    tally.merge(state.dense_check(seed, &first));
    let wall = median(&walls);
    let mut notes = vec![
        format!(
            "wall_s: median of {} passes {:.4?}, threads {threads}",
            walls.len(),
            walls
        ),
        format!("setup_s: median of {SETUP_REPS} set-ups {setups:.4?}"),
        format!("peak_rss_mb: median over passes {peaks:.2?}"),
        format!(
            "failed_frac = {} ratio ({} of {} checked)",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        ),
    ];
    if !peak_reset {
        notes.push(
            "peak_rss_mb: high-water mark could not be reset; includes set-up and earlier passes"
                .into(),
        );
    }
    if name == "registry_quick" {
        notes.push("runs_per_s: ensemble runs counted by the experiments' work events".into());
    }
    Ok(Report {
        tally,
        metrics: vec![
            ("wall_s".into(), wall),
            ("runs_per_s".into(), first.runs() as f64 / wall),
            ("setup_s".into(), median(&setups)),
            ("peak_rss_mb".into(), median(&peaks)),
        ],
        notes,
    })
}

/// Replay sample per cell of each simulated workload.
fn replay_sample(name: &str) -> u64 {
    match name {
        "coin_bound" => 1,
        "short_runs" => 200,
        _ => 2,
    }
}

/// The traced run: per-layer metrics.
fn run_traced(name: &'static str, seed: u64) -> std::io::Result<Report> {
    let threads = sim::threads();
    let mut tally = Tally::default();
    spans::enable();
    let state = spans::span("bench.setup", || setup(name, seed))?;
    spans::disable();

    let mut kept = spans::drain();

    // Untraced and traced passes alternate; the first traced pass's spans
    // are kept, the second only evens out drift in the overhead estimate.
    let mut walls = [Vec::new(), Vec::new()];
    let mut first: Option<Pass> = None;
    let mut traced: Option<Pass> = None;
    for round in 0..2 {
        for trace in [false, true] {
            if trace {
                spans::enable();
            }
            let t = Instant::now();
            let mut pass = spans::span("bench.pass", || state.pass(threads))?;
            walls[usize::from(trace)].push(t.elapsed().as_secs_f64());
            spans::disable();
            let spans = spans::drain();
            if trace && round == 0 {
                kept.extend(spans);
            }
            tally.merge(state.check(seed, &mut pass, first.as_ref())?);
            match (&first, trace && round == 0) {
                (None, _) => first = Some(pass),
                (Some(_), true) => traced = Some(pass),
                _ => {}
            }
        }
    }
    let (wall_untraced, wall_traced) = (median(&walls[0]), median(&walls[1]));
    let traced = traced.expect("a traced pass");
    tally.merge(state.dense_check(seed, &traced));

    // Engine counts must not depend on the thread count.
    let mut serial = state.pass(1)?;
    tally.merge(state.check(seed, &mut serial, Some(&traced))?);

    spans::enable();
    let mut replay = sim::Replay::default();
    spans::span("bench.replay", || match &state {
        State::Sim { plan, .. } => replay = sim::replay(plan, replay_sample(name)),
        State::Registry(_) => {
            let (runs, failed) = registry::selectors_replay();
            tally.add(runs, failed);
        }
    });
    spans::disable();
    kept.extend(spans::drain());

    let tree = spans::Tree::new(kept);
    let misnested = tree.misnested();
    if !misnested.is_empty() {
        eprintln!(
            "perfbench: {} spans end outside their parent",
            misnested.len()
        );
    }
    tally.add(1, u64::from(!misnested.is_empty()));
    let dir = root().join("perfbench/out");
    std::fs::create_dir_all(&dir)?;
    let mut csv = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{name}.spans.csv")),
    )?);
    tree.write_csv(&mut csv)?;
    csv.flush()?;

    let metrics = layer_metrics(&tree, &state, &traced, &replay, wall_untraced, wall_traced);
    Ok(Report {
        tally,
        metrics,
        notes: vec![
            format!(
                "{} spans written to perfbench/out/{name}.spans.csv",
                tree.spans().len()
            ),
            format!("traced pass {wall_traced:.4} s vs untraced {wall_untraced:.4} s"),
        ],
    })
}

fn layer_metrics(
    tree: &spans::Tree,
    state: &State,
    pass: &Pass,
    replay: &sim::Replay,
    wall_untraced: f64,
    wall_traced: f64,
) -> Vec<(String, f64)> {
    let us = |name: &str| tree.total(name).0 as f64 / 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    put(
        "selectors.member_ns",
        ratio(tree.total("selectors.member").0 as f64, replay.coins as f64),
    );
    put("selectors.build_us", us("selectors.build"));
    put("selectors.verify_us", us("selectors.verify"));
    put("core.protocol_new_us", us("core.protocol_new"));
    put("core.station_us", us("core.station"));
    put("pattern.gen_us", us("pattern.gen"));

    let mut engine: Vec<f64> = sim::ENGINE_SPANS
        .iter()
        .flat_map(|n| tree.durations(n))
        .map(|d| d as f64 / 1e3)
        .collect();
    let engine_ns: f64 = engine.iter().sum::<f64>() * 1e3;
    put("engine.run_us.p50", quantile(&mut engine, 0.5));
    put("engine.run_us.p99", quantile(&mut engine, 0.99));
    let station_slots = match pass {
        Pass::Sim(p) => p.station_slots + replay.station_slots,
        Pass::Registry(_) => 0,
    };
    put(
        "engine.ns_per_station_slot",
        ratio(engine_ns, station_slots as f64),
    );
    put("engine.classes.run_us", us("engine.run_classes"));
    put("engine.faulty.run_us", us("engine.run_faulty"));
    let w = pass.work();
    put("engine.slots", w.slots as f64);
    put("engine.polls", w.polls as f64);
    put("engine.skipped_slots", w.skipped as f64);
    put("engine.dense_steps", w.dense_steps as f64);
    put("engine.word_slots", w.word_slots as f64);
    put("engine.mode_switches", w.mode_switches as f64);
    put("engine.peak_units", w.peak_units as f64);
    put("engine.skip_frac", ratio(w.skipped as f64, w.slots as f64));
    put(
        "engine.polls_per_slot",
        ratio(w.polls as f64, w.slots as f64),
    );

    // Per-run closure time: the whole job on runner-driven cells, the
    // protocol and pattern closures on ensemble-driven ones.
    let stats: &[wakeup_runner::RunStats] = match pass {
        Pass::Sim(p) => &p.stats,
        Pass::Registry(_) => &[],
    };
    let closure_ns = match state {
        State::Sim { plan, .. } if plan.via == sim::Via::Runner => tree.total("bench.run").0 as f64,
        State::Sim { .. } => {
            (tree.total("core.protocol_new").0 + tree.total("pattern.gen").0) as f64
        }
        State::Registry(_) => 0.0,
    };
    let runs: u64 = stats.iter().map(|s| s.runs).sum();
    let calibration: u64 = stats.iter().map(|s| s.calibration_runs).sum();
    let capacity_ns = stats.iter().fold(0.0, |a, s| {
        a + s.threads as f64 * s.elapsed.as_nanos() as f64
    });
    let elapsed_ns = stats
        .iter()
        .fold(0.0, |a, s| a + s.elapsed.as_nanos() as f64);
    let threads = stats.iter().map(|s| s.threads).max().unwrap_or(1) as f64;
    put(
        "runner.calibration_frac",
        ratio(calibration as f64, runs as f64),
    );
    put("runner.busy_frac", ratio(closure_ns, capacity_ns));
    put(
        "runner.batches",
        stats.iter().map(|s| s.batches).sum::<u64>() as f64,
    );
    put(
        "runner.steals",
        stats.iter().map(|s| s.steals).sum::<u64>() as f64,
    );
    put(
        "runner.reorder_peak",
        stats.iter().map(|s| s.reorder_peak).max().unwrap_or(0) as f64,
    );
    let reduce_ns = stats
        .iter()
        .fold(0.0, |a, s| a + s.phases.reduction.as_nanos() as f64);
    put("ensemble.reduce_us", reduce_ns / 1e3);
    put(
        "ensemble.overhead_us",
        if stats.is_empty() {
            0.0
        } else {
            (elapsed_ns - closure_ns / threads).max(0.0) / 1e3
        },
    );

    for m in PER_LAYER.iter().filter(|m| m.name.starts_with("registry.")) {
        let span_name = m.name.trim_end_matches(".wall_ms");
        put(m.name, tree.total(span_name).0 as f64 / 1e6);
    }
    let (bytes, write_us) = match pass {
        Pass::Registry(p) => (p.bytes as f64, p.write_time.as_nanos() as f64 / 1e3),
        Pass::Sim(_) => (0.0, 0.0),
    };
    put("sink.bytes", bytes);
    put("sink.write_us", write_us);
    put(
        "tracer.overhead_frac",
        if replay.untraced.is_zero() {
            0.0
        } else {
            replay.traced.as_secs_f64() / replay.untraced.as_secs_f64() - 1.0
        },
    );

    let root = tree.spans().iter().find(|s| s.name == "bench.pass");
    let unattributed = root.map_or(0.0, |r| {
        let bench: f64 = tree
            .attribute(r.id)
            .iter()
            .filter(|(layer, _)| *layer == "bench")
            .map(|(_, ns)| ns)
            .sum();
        ratio(bench, r.dur() as f64)
    });
    put("unattributed_frac", unattributed);
    put(
        "span_overhead_frac",
        ratio(wall_traced, wall_untraced) - 1.0,
    );
    out
}

fn unit_of(name: &str) -> &'static str {
    manifest::find(name).map_or("", |m| m.unit)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn print_report(name: &str, trace: bool, r: &Report) {
    println!(
        "== {name} ({}) ==",
        if trace { "traced" } else { "untraced" }
    );
    for (metric, v) in &r.metrics {
        let base = metric.rsplit('/').next().unwrap_or(metric);
        let m = manifest::find(base);
        let tag = match m.map(|m| m.exact) {
            Some(Exactness::Exact) => " [exact]",
            Some(Exactness::Calibrated) => " [not exact: wall-clock calibrated]",
            _ => "",
        };
        let moves: Vec<String> = m
            .map_or(&[][..], |m| m.moves)
            .iter()
            .map(|(e2e, w)| format!("{e2e}@{w}"))
            .collect();
        let moves = if moves.is_empty() {
            String::new()
        } else {
            format!("  -> {}", moves.join(" "))
        };
        println!("{name}  {metric} = {v} {}{tag}{moves}", unit_of(base));
    }
    for note in &r.notes {
        println!("{name}  # {note}");
    }
}

fn result_json(tally: Tally, metrics: &[(String, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            let base = n.rsplit('/').next().unwrap_or(n);
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                unit_of(base)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    )
}

/// Print the reference digests of the simulated workloads for the default
/// seed, after checking each run-driven cell's sample on the dense engine.
fn emit_reference() -> std::io::Result<bool> {
    let mut ok = true;
    println!("# perfbench reference digests, seed {DEFAULT_SEED}: <workload> <cell> <digest>");
    for name in ["coin_bound", "sparse_events", "short_runs"] {
        let state = setup(workload_name(name), DEFAULT_SEED)?;
        let State::Sim { plan, .. } = &state else {
            unreachable!("simulated workload")
        };
        let pass = sim::pass(plan, sim::threads());
        let (compared, failed) = sim::dense_check(plan, &pass, DEFAULT_SEED);
        if failed > 0 {
            eprintln!("perfbench: {name}: {failed} of {compared} runs differ on the dense engine");
            ok = false;
        }
        for (cell, digest) in plan.cells.iter().zip(&pass.digests) {
            println!("{name} {} {}", cell.label, obs::render(digest));
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--benchmark-json") {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // The goldens were made with both assertion knobs set; without them the
    // experiments emit fewer checks. Knobs that change scale, threads or
    // progress output must not leak in from the caller's environment.
    std::env::set_var("WAKEUP_ASSERT_SPARSE", "1");
    std::env::set_var("WAKEUP_ASSERT_CLASSES", "1");
    for var in [
        "WAKEUP_SCALE",
        "WAKEUP_THREADS",
        "WAKEUP_PROGRESS",
        "WAKEUP_NOISE_PPM",
        "WAKEUP_CHURN_PPM",
    ] {
        std::env::remove_var(var);
    }
    if args.first().map(String::as_str) == Some("--emit-reference") {
        return match emit_reference() {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![workload_name(&args.workload)]
    };
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    for &name in &names {
        let report = if args.trace {
            run_traced(name, args.seed)
        } else {
            run_end_to_end(name, args.seed, args.seconds)
        };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_report(name, args.trace, &report);
        tally.merge(report.tally);
        for (m, v) in report.metrics {
            let key = if names.len() > 1 {
                format!("{name}/{m}")
            } else {
                m
            };
            metrics.push((key, v));
        }
    }
    println!("{}", result_json(tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
