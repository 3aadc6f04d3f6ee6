//! The three simulated workloads: `coin_bound`, `sparse_events` and
//! `short_runs`.
//!
//! A workload is a list of [`Cell`]s. `coin_bound` and `sparse_events`
//! drive each cell through [`Runner::run_folded`] with a per-run job that
//! calls the protocol constructor, the pattern generator and
//! [`Simulator::run`] itself, so every one of those calls is timed and its
//! [`Outcome`] checked. `short_runs` drives its cells through
//! [`run_ensemble_stream`] the way the registry experiments do; there only
//! the protocol and pattern closures are visible, and the check compares
//! the ensemble's seed-ordered aggregates.

use crate::obs::{self, Digest, Obs};
use crate::spans::{fan_out, span};
use mac_sim::rng::derive_seed;
use mac_sim::tracer::RecordingTracer;
use mac_sim::{
    ChannelModel, ChurnScript, EngineMode, Outcome, Protocol, RandomChurn, SimConfig, Simulator,
    StationId, WakePattern,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wakeup_analysis::ensemble::{run_ensemble_stream, EnsembleSpec, WorkStats};
use wakeup_core::prelude::*;
use wakeup_runner::{collect::from_fn, RunStats, Runner};

type ProtocolFn = Arc<dyn Fn(u64) -> Box<dyn Protocol> + Send + Sync>;
type PatternFn = Arc<dyn Fn(u64) -> WakePattern + Send + Sync>;

/// How a cell's engine time is labelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Concrete stations, ideal channel.
    Plain,
    /// `PopulationMode::Classes`.
    Classes,
    /// Channel faults and churn.
    Faulty,
}

impl Kind {
    const fn engine_span(self) -> &'static str {
        match self {
            Kind::Plain => "engine.run",
            Kind::Classes => "engine.run_classes",
            Kind::Faulty => "engine.run_faulty",
        }
    }
}

/// Names of every engine span.
pub const ENGINE_SPANS: [&str; 3] = [
    Kind::Plain.engine_span(),
    Kind::Classes.engine_span(),
    Kind::Faulty.engine_span(),
];

/// Which ensemble path runs a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// `Runner::run_folded` with a benchmark-side job.
    Runner,
    /// `run_ensemble_stream`.
    Ensemble,
}

/// One sweep cell: `runs` runs of a protocol against a pattern family.
#[derive(Clone)]
pub struct Cell {
    /// Reference-file label.
    pub label: String,
    /// Runs in the cell.
    pub runs: u64,
    /// Seed of run 0; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Engine-time label.
    pub kind: Kind,
    /// Simulator configuration (engine `Auto`).
    pub cfg: SimConfig,
    /// Protocol factory, per run seed.
    pub protocol: ProtocolFn,
    /// Pattern factory, per run seed.
    pub pattern: PatternFn,
    /// Family whose coins the cell's protocol flips, per run seed.
    pub coins: Option<Arc<dyn Fn(u64) -> DynFamily + Send + Sync>>,
}

impl Cell {
    fn seed_of(&self, i: u64) -> u64 {
        self.base_seed.wrapping_add(i)
    }
}

/// A simulated workload, built by its set-up.
pub struct Plan {
    /// The cells, in pass order.
    pub cells: Vec<Cell>,
    /// Which path runs them.
    pub via: Via,
}

/// What one pass measured and produced.
#[derive(Default)]
pub struct PassResult {
    /// Per-cell digests, in cell order.
    pub digests: Vec<Digest>,
    /// Per-cell, per-run observables (runner-driven cells only).
    pub obs: Vec<Vec<Obs>>,
    /// Summed engine work counters.
    pub work: WorkStats,
    /// Runner statistics of every cell.
    pub stats: Vec<RunStats>,
    /// Σ k × slots over the runs (runner-driven cells only).
    pub station_slots: u64,
    /// Simulated runs.
    pub runs: u64,
}

/// Per-run payload of a runner-driven job.
struct RunOut {
    obs: Obs,
    outcome: Outcome,
    k: u64,
}

/// Worker-side pre-fold of one batch.
#[derive(Default)]
struct Partial {
    obs: Vec<Obs>,
    work: WorkStats,
    station_slots: u64,
}

/// Worker threads: two, or fewer on a smaller machine.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(2)
}

fn run_cell_runner(cell: &Cell, threads: usize, out: &mut PassResult) {
    let sim = Simulator::new(cell.cfg.clone());
    let mut obs = Vec::with_capacity(cell.runs as usize);
    let mut work = WorkStats::default();
    let mut station_slots = 0;
    let stats = fan_out("runner.run_folded", || {
        Runner::new().with_threads(threads).run_folded(
            cell.runs,
            |i| {
                span("bench.run", || {
                    let seed = cell.seed_of(i);
                    let protocol = span("core.protocol_new", || (cell.protocol)(seed));
                    let pattern = span("pattern.gen", || (cell.pattern)(seed));
                    let outcome = span(cell.kind.engine_span(), || {
                        sim.run(protocol.as_ref(), &pattern, seed)
                    })
                    .expect("benchmark patterns are valid");
                    RunOut {
                        obs: Obs::of(&outcome),
                        outcome,
                        k: pattern.k() as u64,
                    }
                })
            },
            Partial::default,
            |p, _i, r: RunOut| {
                p.obs.push(r.obs);
                p.work.absorb(&r.outcome);
                p.station_slots += r.k * r.outcome.slots_simulated;
            },
            from_fn(|_start, p: Partial| {
                obs.extend(p.obs);
                work.merge(&p.work);
                station_slots += p.station_slots;
            }),
        )
    });
    out.digests.push(obs::digest_runs(&obs));
    out.obs.push(obs);
    out.work.merge(&work);
    out.station_slots += station_slots;
    out.runs += cell.runs;
    out.stats.push(stats);
}

fn ensemble_spec(cell: &Cell, threads: usize, engine: EngineMode) -> EnsembleSpec {
    let mut spec = EnsembleSpec::new(cell.cfg.n, cell.runs)
        .with_base_seed(cell.base_seed)
        .with_threads(threads)
        .with_engine(engine)
        .with_max_slots(cell.cfg.max_slots);
    if !cell.cfg.per_station_detail {
        spec = spec.without_per_station_detail();
    }
    spec
}

fn run_cell_ensemble(cell: &Cell, threads: usize, out: &mut PassResult) {
    let spec = ensemble_spec(cell, threads, EngineMode::Auto);
    let summary = fan_out("ensemble.run_stream", || {
        run_ensemble_stream(
            &spec,
            |seed| span("core.protocol_new", || (cell.protocol)(seed)),
            |seed| span("pattern.gen", || (cell.pattern)(seed)),
        )
    });
    out.digests.push(obs::digest_summary(&summary));
    out.obs.push(Vec::new());
    out.work.merge(&summary.work);
    out.runs += summary.runs;
    out.stats.push(summary.exec);
}

/// Run the first cell of `plan` once, so lazy set-up and allocator growth
/// finish before the first timed pass.
pub fn warm_up(plan: &Plan, threads: usize) {
    let first = Plan {
        cells: plan.cells.iter().take(1).cloned().collect(),
        via: plan.via,
    };
    std::hint::black_box(pass(&first, threads).runs);
}

/// One pass over every cell of `plan`.
pub fn pass(plan: &Plan, threads: usize) -> PassResult {
    let mut out = PassResult::default();
    for cell in &plan.cells {
        match plan.via {
            Via::Runner => run_cell_runner(cell, threads, &mut out),
            Via::Ensemble => run_cell_ensemble(cell, threads, &mut out),
        }
    }
    out
}

/// Re-run a sample of `plan`'s runs on `EngineMode::Dense` and count the
/// runs whose observables differ from `result`'s: one run per
/// runner-driven cell (its index drawn from `seed`), or two whole cells of
/// an ensemble-driven plan. Returns `(runs compared, runs differing)`.
pub fn dense_check(plan: &Plan, result: &PassResult, seed: u64) -> (u64, u64) {
    let mut compared = 0;
    let mut failed = 0;
    match plan.via {
        Via::Runner => {
            for (c, cell) in plan.cells.iter().enumerate() {
                let i = derive_seed(seed, c as u64) % cell.runs;
                let s = cell.seed_of(i);
                let sim = Simulator::new(cell.cfg.clone().with_engine(EngineMode::Dense));
                let dense = sim
                    .run((cell.protocol)(s).as_ref(), &(cell.pattern)(s), s)
                    .map(|o| Obs::of(&o));
                compared += 1;
                if dense.ok() != result.obs[c].get(i as usize).copied() {
                    failed += 1;
                }
            }
        }
        Via::Ensemble => {
            let n = plan.cells.len() as u64;
            let picks = [seed % n, (seed / n + seed + 1) % n];
            for &c in picks.iter().take(if picks[0] == picks[1] { 1 } else { 2 }) {
                let cell = &plan.cells[c as usize];
                let spec = ensemble_spec(cell, threads(), EngineMode::Dense);
                let dense =
                    run_ensemble_stream(&spec, |s| (cell.protocol)(s), |s| (cell.pattern)(s));
                compared += cell.runs;
                if obs::digest_summary(&dense) != result.digests[c as usize] {
                    failed += cell.runs;
                }
            }
        }
    }
    (compared, failed)
}

/// Per-layer measurements replayed outside the pass on a sample of each
/// cell's runs.
#[derive(Default)]
pub struct Replay {
    /// PRF coins evaluated by the `DynFamily::member` replay.
    pub coins: u64,
    /// Σ k × slots of the runs replayed through the engine.
    pub station_slots: u64,
    /// Time in `Simulator::run` on the tracer sample.
    pub untraced: Duration,
    /// Time in `Simulator::run_traced` with a `RecordingTracer`, same runs.
    pub traced: Duration,
}

/// Replay up to `sample` runs of every cell: `Protocol::station` over the
/// pattern's ids (concrete cells), `DynFamily::member` over the run's
/// (station, set) pairs, the tracer overhead, and — for ensemble-driven
/// plans, whose pass hides the engine — `Simulator::run` itself.
pub fn replay(plan: &Plan, sample: u64) -> Replay {
    let mut r = Replay::default();
    for cell in &plan.cells {
        let sim = Simulator::new(cell.cfg.clone());
        for i in 0..cell.runs.min(sample) {
            let seed = cell.seed_of(i);
            let pattern = (cell.pattern)(seed);
            // Each measurement gets its own protocol instance: schedules
            // memoize per-station indices, so a reused instance would run
            // warm the second time.
            if cell.kind != Kind::Classes {
                let protocol = (cell.protocol)(seed);
                span("core.station", || {
                    for &(id, _) in pattern.wakes() {
                        std::hint::black_box(
                            protocol.station(id, derive_seed(seed, u64::from(id.0))),
                        );
                    }
                });
            }
            let protocol = (cell.protocol)(seed);
            let t0 = Instant::now();
            let outcome = if plan.via == Via::Ensemble {
                span(cell.kind.engine_span(), || {
                    sim.run(protocol.as_ref(), &pattern, seed)
                })
            } else {
                sim.run(protocol.as_ref(), &pattern, seed)
            }
            .expect("benchmark patterns are valid");
            r.untraced += t0.elapsed();
            if plan.via == Via::Ensemble {
                r.station_slots += pattern.k() as u64 * outcome.slots_simulated;
            }
            let protocol = (cell.protocol)(seed);
            let t1 = Instant::now();
            let mut tracer = RecordingTracer::new();
            let traced = span("tracer.run_traced", || {
                sim.run_traced(protocol.as_ref(), &pattern, seed, &mut tracer)
            })
            .expect("benchmark patterns are valid");
            r.traced += t1.elapsed();
            std::hint::black_box(tracer.events().len());
            assert_eq!(Obs::of(&traced), Obs::of(&outcome), "tracing changed a run");
            if let Some(coins) = &cell.coins {
                r.coins += replay_coins(&coins(seed), &pattern, &outcome);
            }
        }
    }
    r
}

/// Flip the coins of `family` for the run's woken stations over as many
/// sets as the run simulated slots (capped at the family's length).
fn replay_coins(family: &DynFamily, pattern: &WakePattern, outcome: &Outcome) -> u64 {
    let sets = outcome.slots_simulated.min(family.len());
    let ids: Vec<u32> = pattern.wakes().iter().map(|&(id, _)| id.0).collect();
    span("selectors.member", || {
        let mut hits = 0u64;
        for j in 0..sets {
            for &u in &ids {
                hits += u64::from(family.member(u, j));
            }
        }
        std::hint::black_box(hits);
    });
    sets * ids.len() as u64
}

/// The adversarial block: the `k` stations owning the last round-robin
/// turns, waking together at slot 0 (EXP-CROSS's worst ids).
fn worst_block(n: u32, k: u32) -> WakePattern {
    let ids: Vec<StationId> = (n - k..n).map(StationId).collect();
    WakePattern::simultaneous(&ids, 0).expect("valid block")
}

/// `k` uniformly random stations waking together at a seed-derived slot.
fn random_burst(n: u32, k: u32, seed: u64) -> WakePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids = mac_sim::pattern::IdChoice::Random.pick(n, k as usize, &mut rng);
    WakePattern::simultaneous(&ids, seed % 1024).expect("valid burst")
}

/// EXP-B's staggered pattern: random ids, seed-derived start and gap.
fn staggered(n: u32, k: u32, seed: u64) -> WakePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids = mac_sim::pattern::IdChoice::Random.pick(n, k as usize, &mut rng);
    WakePattern::staggered(&ids, seed % 53, 1 + seed % 11).expect("valid staggered pattern")
}

/// Cell sets per `coin_bound` pass: each repeats EXP-CROSS's cells with
/// fresh family seeds, so a pass averages over more family draws.
const COIN_SWEEPS: u64 = 3;

/// `coin_bound`: EXP-CROSS's large-k selective cells at n = 1024 with its
/// own ensemble size (3 runs), a fresh family seed per run.
pub fn coin_bound(seed: u64) -> Plan {
    let n = 1024u32;
    let cap = 4 * u64::from(n) + 64;
    let mut cells = Vec::new();
    for sweep in 0..COIN_SWEEPS {
        for k in [n / 2, 3 * n / 4, n - 16, n - 1] {
            for proto in ["wag", "wwk"] {
                let protocol: ProtocolFn = match proto {
                    "wag" => Arc::new(move |s| -> Box<dyn Protocol> {
                        Box::new(WaitAndGo::new(n, k, FamilyProvider::random_with_seed(s)))
                    }),
                    _ => Arc::new(move |s| -> Box<dyn Protocol> {
                        Box::new(WakeupWithK::new(n, k, FamilyProvider::random_with_seed(s)))
                    }),
                };
                // The largest family of the doubling sequence the run walks.
                let top = k.next_power_of_two().min(n);
                cells.push(Cell {
                    label: format!("{proto}_n{n}_k{k}_s{sweep}"),
                    runs: 3,
                    base_seed: derive_seed(seed, cells.len() as u64),
                    kind: Kind::Plain,
                    cfg: SimConfig::new(n).with_max_slots(cap),
                    protocol,
                    pattern: Arc::new(move |_| worst_block(n, k)),
                    coins: Some(Arc::new(move |s| {
                        FamilyProvider::random_with_seed(s).family(n, top)
                    })),
                });
            }
        }
    }
    Plan {
        cells,
        via: Via::Runner,
    }
}

/// `sparse_events`: full resolution at n = 2^16 (selective and retiring
/// round-robin, random bursts), one faulty cell, and `WakeupWithS` block
/// wakes at n = 2^20 and 2^22 under class populations. Schedules come out
/// of one `ConstructionCache`, filled here.
pub fn sparse_events(seed: u64) -> Plan {
    let cache = ConstructionCache::new();
    let provider = FamilyProvider::default();
    let mut cells = Vec::new();
    let n = 1u32 << 16;
    let cap = 64 * u64::from(n);
    let base = |cells: &Vec<Cell>| derive_seed(seed, cells.len() as u64);
    for k in [64u32, 512] {
        let c = cache.clone();
        span("selectors.build", || {
            FullResolution::cached(n, k, &provider, &c)
        });
        cells.push(Cell {
            label: format!("fullres_n{n}_k{k}"),
            runs: if k == 64 { 24 } else { 6 },
            base_seed: base(&cells),
            kind: Kind::Plain,
            cfg: SimConfig::new(n).with_max_slots(cap).until_all_resolved(),
            protocol: Arc::new(move |_| -> Box<dyn Protocol> {
                Box::new(FullResolution::cached(n, k, &provider, &c))
            }),
            pattern: Arc::new(move |s| random_burst(n, k, s)),
            coins: None,
        });
        cells.push(Cell {
            label: format!("retiring_rr_n{n}_k{k}"),
            runs: if k == 64 { 24 } else { 6 },
            base_seed: base(&cells),
            kind: Kind::Plain,
            cfg: SimConfig::new(n).with_max_slots(cap).until_all_resolved(),
            protocol: Arc::new(move |_| -> Box<dyn Protocol> {
                Box::new(RetiringRoundRobin::new(n))
            }),
            pattern: Arc::new(move |s| random_burst(n, k, s)),
            coins: None,
        });
    }
    let churn = ChurnScript::random(RandomChurn {
        crash_ppm: 100_000,
        lifetime: u64::from(n) / 2 + 1,
        rewake_after: Some(u64::from(n) / 4 + 1),
    })
    .expect("valid churn");
    let c = cache.clone();
    cells.push(Cell {
        label: format!("fullres_faulty_n{n}_k64"),
        runs: 24,
        base_seed: base(&cells),
        kind: Kind::Faulty,
        cfg: SimConfig::new(n)
            .with_max_slots(cap)
            .until_all_resolved()
            .with_channel(ChannelModel::ideal().with_erasure_ppm(100_000))
            .with_churn(churn),
        protocol: Arc::new(move |_| -> Box<dyn Protocol> {
            Box::new(FullResolution::cached(n, 64, &provider, &c))
        }),
        pattern: Arc::new(move |s| random_burst(n, 64, s)),
        coins: None,
    });
    for n in [1u32 << 20, 1 << 22] {
        let c = cache.clone();
        span("selectors.build", || {
            WakeupWithS::cached(n, 0, &provider, &c)
        });
        let k = n / 2;
        cells.push(Cell {
            label: format!("wws_classes_n{n}"),
            runs: 10,
            base_seed: base(&cells),
            kind: Kind::Classes,
            cfg: SimConfig::new(n)
                .with_max_slots(4 * u64::from(n))
                .with_classes()
                .without_per_station_detail(),
            protocol: Arc::new(move |s| -> Box<dyn Protocol> {
                Box::new(WakeupWithS::cached(n, (s % 97) * 13, &provider, &c))
            }),
            pattern: Arc::new(move |s| {
                WakePattern::range(1, k + 1, (s % 97) * 13).expect("valid block")
            }),
            coins: None,
        });
    }
    Plan {
        cells,
        via: Via::Runner,
    }
}

/// `short_runs`: ten ensembles of tiny `WakeupWithK` runs (n = 256, k = 4,
/// EXP-B's staggered random ids), a fresh protocol and pattern per run.
pub fn short_runs(seed: u64) -> Plan {
    let (n, k) = (256u32, 4u32);
    let cells = (0..10u64)
        .map(|c| {
            let cache = ConstructionCache::new();
            Cell {
                label: format!("wwk_n{n}_k{k}_e{c}"),
                runs: 30_000,
                base_seed: derive_seed(seed, c),
                kind: Kind::Plain,
                cfg: SimConfig::new(n).with_max_slots(1 << 20),
                protocol: Arc::new(move |s| -> Box<dyn Protocol> {
                    Box::new(WakeupWithK::cached(
                        n,
                        k,
                        &FamilyProvider::Random {
                            seed: s,
                            delta: 1e-4,
                        },
                        &cache,
                    ))
                }),
                pattern: Arc::new(move |s| staggered(n, k, s)),
                coins: Some(Arc::new(move |s| {
                    FamilyProvider::Random {
                        seed: s,
                        delta: 1e-4,
                    }
                    .family(n, k)
                })),
            }
        })
        .collect();
    Plan {
        cells,
        via: Via::Ensemble,
    }
}
