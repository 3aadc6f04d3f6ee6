//! Multi-seed, multi-threaded experiment ensembles.
//!
//! An ensemble pairs a *protocol factory* with a *pattern generator*, both
//! keyed by a run seed, and executes `runs` independent simulations.
//! [`run_ensembles`] is the one entry point: it runs a batch of ensembles
//! ([`EnsembleCell`]s) as one job space, so a sweep of small ensembles
//! keeps every worker busy; [`run_ensemble_stream`] is its one-cell case.
//! Since the sparse engine made single runs cheap, scheduling is the
//! bottleneck, so execution rides on [`wakeup_runner`]'s work-stealing
//! pool: short runs are batched per worker (batch size auto-calibrated),
//! idle workers steal, and per-run results are folded **in seed order** on
//! the caller's thread — so every aggregate is bit-identical across thread
//! counts.
//!
//! Aggregation is streaming only ([`EnsembleSummary`]: Welford stats, P²
//! quantile sketches, energy and work counters), so million-run sweeps
//! never hold per-run results — transient memory is the reorder buffer,
//! O(threads·batch) digests.
//!
//! Factories are indexed rather than shared so that deterministic protocols
//! can vary their combinatorial seed per run (a fixed deterministic protocol
//! on a fixed pattern would measure the same run `R` times). A factory that
//! wants seed-independent structure shared across runs captures a
//! [`ConstructionCache`](wakeup_core::ConstructionCache) by reference and
//! calls the protocols' `cached` constructors.

use mac_sim::metrics::{EnergyStats, OutcomeDigest};
use mac_sim::tracer::{RecordingTracer, TraceFilter};
use mac_sim::{
    ChannelModel, ChurnScript, EngineMode, FaultCounts, FeedbackModel, Outcome, PopulationMode,
    Protocol, SimConfig, Simulator, WakePattern,
};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};
use wakeup_runner::collect::from_fn;
use wakeup_runner::{OnlineStats, P2Quantile, Progress, RunStats, Runner};

/// Structured-trace capture for an ensemble: which events to keep and
/// where the JSONL lines go.
///
/// Each run records its admitted events into a private in-memory buffer on
/// the worker that executes it; the serialized lines (each prefixed with
/// the run index, `{"run":3,"ev":…}` — the same schema as
/// [`StreamTracer`](mac_sim::tracer::StreamTracer)) are then written to
/// `sink` by the seed-ordered reducer on the calling thread. The resulting
/// byte stream is therefore **bit-identical across thread counts**:
/// scheduling decides only who records, never the order lines land.
///
/// Per-kind sampling (see [`TraceFilter::sample_every`]) restarts at every
/// run, so the stream is the concatenation of the runs' individual
/// streams regardless of batching.
#[derive(Clone)]
pub struct TraceSpec {
    /// Event admission mask and per-kind sampling stride.
    pub filter: TraceFilter,
    /// Shared line sink (a file, a `Vec<u8>`, …). Written only through
    /// [`append`](Self::append), on the calling thread: once per batch by
    /// the ensemble reducer.
    pub sink: Arc<Mutex<dyn Write + Send>>,
    /// Optional sidecar for **non-deterministic** execution records (one
    /// `{"record":"ensemble",…}` line per runner call — one ensemble, or
    /// a [`run_ensembles`] batch — plus one `{"record":"worker",…}` line
    /// per worker: wall-clock phase timers,
    /// steals, queue high-waters). Segregated from `sink` so the trace
    /// stream itself stays diffable across machines and thread counts.
    pub exec: Option<Arc<Mutex<dyn Write + Send>>>,
    /// Ensemble ordinal shared across clones — tags exec records when one
    /// sidecar collects several ensembles (a whole experiment sweep).
    seq: Arc<std::sync::atomic::AtomicU64>,
}

impl TraceSpec {
    /// Trace into an existing shared sink.
    pub fn new(filter: TraceFilter, sink: Arc<Mutex<dyn Write + Send>>) -> Self {
        TraceSpec {
            filter,
            sink,
            exec: None,
            seq: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Trace into a newly-wrapped writer.
    pub fn to_writer<W: Write + Send + 'static>(filter: TraceFilter, out: W) -> Self {
        Self::new(filter, Arc::new(Mutex::new(out)))
    }

    /// Also write per-ensemble execution records (wall-clock tier) to a
    /// separate sidecar sink.
    pub fn with_exec_sink(mut self, exec: Arc<Mutex<dyn Write + Send>>) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Append serialized trace lines (see [`run_tagged`]) to the sink.
    /// Callers append runs in run order, so the stream does not depend on
    /// which thread ran what.
    pub fn append(&self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.sink
            .lock()
            .expect("trace sink poisoned")
            .write_all(bytes)
            .expect("trace sink write failed");
    }
}

impl fmt::Debug for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSpec")
            .field("filter", &self.filter)
            .field("sink", &"<dyn Write>")
            .field("exec", &self.exec.as_ref().map(|_| "<dyn Write>"))
            .finish()
    }
}

/// Parameters of an ensemble run.
#[derive(Clone, Debug)]
pub struct EnsembleSpec {
    /// The simulator configuration every run uses: universe size, slot cap,
    /// feedback, channel faults, churn, engine path, population mode and
    /// per-station detail.
    pub sim: SimConfig,
    /// Number of independent runs.
    pub runs: u64,
    /// Base seed; run `i` uses seed `base_seed.wrapping_add(i)` (wrapping,
    /// so a base seed near `u64::MAX` is valid and cannot overflow).
    pub base_seed: u64,
    /// Worker threads (default: available parallelism). Zero is treated as
    /// one — the run path clamps, not just [`with_threads`](Self::with_threads).
    pub threads: usize,
    /// Live progress reporting for long sweeps (`None`: silent).
    pub progress: Option<Progress>,
    /// Structured-trace capture (`None`: untraced — the zero-cost
    /// [`NoopTracer`](mac_sim::tracer::NoopTracer) path).
    pub trace: Option<TraceSpec>,
}

impl EnsembleSpec {
    /// A spec with `runs` runs on `n` stations and the [`SimConfig::new`]
    /// defaults.
    pub fn new(n: u32, runs: u64) -> Self {
        EnsembleSpec {
            sim: SimConfig::new(n),
            runs,
            base_seed: 0,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            progress: None,
            trace: None,
        }
    }

    /// Override the per-run slot cap.
    pub fn with_max_slots(mut self, cap: u64) -> Self {
        self.sim = self.sim.with_max_slots(cap);
        self
    }

    /// Override the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Override the feedback model.
    pub fn with_feedback(mut self, fb: FeedbackModel) -> Self {
        self.sim = self.sim.with_feedback(fb);
        self
    }

    /// Inject channel faults (erasure / false collision / capture).
    pub fn with_channel(mut self, channel: ChannelModel) -> Self {
        self.sim = self.sim.with_channel(channel);
        self
    }

    /// Inject station churn (crashes and re-wakes).
    pub fn with_churn(mut self, churn: ChurnScript) -> Self {
        self.sim = self.sim.with_churn(churn);
        self
    }

    /// Override the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the engine path ([`EngineMode::Auto`] skips silent slots
    /// when the protocol allows; [`EngineMode::Dense`] forces per-slot
    /// polling, e.g. for speedup measurements).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.sim = self.sim.with_engine(engine);
        self
    }

    /// Override the station representation.
    pub fn with_population(mut self, population: PopulationMode) -> Self {
        self.sim = self.sim.with_population(population);
        self
    }

    /// Aggregate wake batches into equivalence classes
    /// ([`PopulationMode::Classes`]).
    pub fn with_classes(mut self) -> Self {
        self.sim = self.sim.with_classes();
        self
    }

    /// Skip per-station transmission counts — required for mega-n class
    /// sweeps to keep per-run memory O(classes).
    pub fn without_per_station_detail(mut self) -> Self {
        self.sim = self.sim.without_per_station_detail();
        self
    }

    /// Report progress (runs/s, steals) through a fully-built [`Progress`]
    /// spec and its [`ProgressSink`](wakeup_runner::ProgressSink) routing.
    pub fn with_progress_spec(mut self, progress: Progress) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Capture structured trace events into `trace.sink` (see
    /// [`TraceSpec`] for the determinism contract).
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The seed of run `i` (wrapping — see [`base_seed`](Self::base_seed)).
    pub fn seed_of(&self, i: u64) -> u64 {
        self.base_seed.wrapping_add(i)
    }

    fn runner(&self) -> Runner {
        let mut runner = Runner::new().with_threads(self.threads.max(1));
        if let Some(p) = &self.progress {
            runner = runner.with_progress(p.clone());
        }
        runner
    }
}

/// Aggregated engine-work counters over an ensemble — the measurement
/// behind the dense-vs-sparse speedup claims. Slots tell how much simulated
/// time was covered; polls tell how much work the engine actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Total slots covered (`Outcome::slots_simulated` summed over runs).
    pub slots: u64,
    /// Total `Station::act` calls (`Outcome::polls` summed over runs).
    pub polls: u64,
    /// Total slots skipped in bulk by the sparse engine
    /// (`Outcome::skipped_slots` summed over runs).
    pub skipped: u64,
    /// Total slots stepped densely — every awake station polled —
    /// (`Outcome::dense_steps` summed over runs): the adaptive engine's
    /// burst windows plus any dense-locked stretches.
    pub dense_steps: u64,
    /// Total slots resolved by the bit-parallel word kernel
    /// (`Outcome::word_slots` summed over runs): dense/burst tiles of up to
    /// 64 slots settled by popcount instead of per-station polling.
    pub word_slots: u64,
    /// Total sparse↔dense transitions of the adaptive engine policy
    /// (`Outcome::mode_switches` summed over runs).
    pub mode_switches: u64,
    /// Maximum simultaneous simulation units of any single run
    /// (`Outcome::peak_units` maxed over runs) — the memory proxy of the
    /// class-aggregated engine: `k` under concrete populations, the class
    /// count under [`PopulationMode::Classes`].
    pub peak_units: u64,
}

impl WorkStats {
    /// Fold one outcome into the counters.
    pub fn absorb(&mut self, out: &mac_sim::Outcome) {
        self.slots += out.slots_simulated;
        self.polls += out.polls;
        self.skipped += out.skipped_slots;
        self.dense_steps += out.dense_steps;
        self.word_slots += out.word_slots;
        self.mode_switches += out.mode_switches;
        self.peak_units = self.peak_units.max(out.peak_units);
    }

    /// Fold one outcome digest into the counters.
    pub fn absorb_digest(&mut self, d: &OutcomeDigest) {
        self.slots += d.slots;
        self.polls += d.polls;
        self.skipped += d.skipped;
        self.dense_steps += d.dense_steps;
        self.word_slots += d.word_slots;
        self.mode_switches += d.mode_switches;
        self.peak_units = self.peak_units.max(d.peak_units);
    }

    /// Merge another accumulator (e.g. per-ensemble stats into a per-table
    /// total). All fields are associative (sums and a max), so partial
    /// accumulators merge in any grouping without changing the result.
    pub fn merge(&mut self, other: &WorkStats) {
        self.slots += other.slots;
        self.polls += other.polls;
        self.skipped += other.skipped;
        self.dense_steps += other.dense_steps;
        self.word_slots += other.word_slots;
        self.mode_switches += other.mode_switches;
        self.peak_units = self.peak_units.max(other.peak_units);
    }

    /// Polls per covered slot — `≈ k` on the dense path, `≪ 1` when the
    /// sparse engine is skipping well.
    pub fn polls_per_slot(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.polls as f64 / self.slots as f64
        }
    }

    /// Fraction of covered slots that were skipped in bulk.
    pub fn skip_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.skipped as f64 / self.slots as f64
        }
    }

    /// Compact one-line rendering for per-table footers.
    pub fn render(&self) -> String {
        format!(
            "slots {} | polls {} ({:.4} polls/slot) | skipped {} ({:.1}% skip) | dense-stepped {} | word-kernel {} ({} switches)",
            self.slots,
            self.polls,
            self.polls_per_slot(),
            self.skipped,
            100.0 * self.skip_fraction(),
            self.dense_steps,
            self.word_slots,
            self.mode_switches,
        )
    }

    /// The counters as a machine-readable [`Record`](crate::serial::Record)
    /// with stable field names (`slots`, `polls`, `skipped`, `dense_steps`,
    /// `word_slots`, `mode_switches`, `peak_units`). Deterministic: all fold
    /// in seed order.
    pub fn record(&self) -> crate::serial::Record {
        crate::serial::Record::new()
            .with("slots", self.slots)
            .with("polls", self.polls)
            .with("skipped", self.skipped)
            .with("dense_steps", self.dense_steps)
            .with("word_slots", self.word_slots)
            .with("mode_switches", self.mode_switches)
            .with("peak_units", self.peak_units)
    }
}

/// Streaming aggregate of an ensemble: everything the experiment tables
/// report, with no per-run sample vector — the only per-ensemble memory
/// is the runner's O(threads·batch) reorder buffer.
///
/// Latency statistics cover **solved** runs; [`worst`](Self::worst)
/// additionally counts censored runs pessimistically. Median/p90/p99 come from P² sketches:
/// exact below five solved runs, a tightly-tracking estimate above.
#[derive(Clone, Debug)]
pub struct EnsembleSummary {
    /// Number of runs executed.
    pub runs: u64,
    /// Number of runs that solved wake-up within the cap.
    pub solved: u64,
    /// Streaming statistics (mean/sd/min/max/CI) of the solved latencies.
    pub latency: OnlineStats,
    /// P² sketch of the solved-latency median.
    pub sketch_p50: P2Quantile,
    /// P² sketch of the solved-latency 90th percentile.
    pub sketch_p90: P2Quantile,
    /// P² sketch of the solved-latency 99th percentile.
    pub sketch_p99: P2Quantile,
    /// Worst latency including censored runs (their censoring bound).
    pub worst: u64,
    /// Energy (transmission) statistics over all runs.
    pub energy: EnergyStats,
    /// Engine-work counters over all runs.
    pub work: WorkStats,
    /// Channel-fault and churn event totals over all runs (all zero for
    /// an ideal channel without churn).
    pub faults: FaultCounts,
    /// Execution statistics of the runner (throughput, steals, batches).
    /// Cells submitted together to [`run_ensembles`] share one runner
    /// call: the first cell carries its statistics and the others carry
    /// [`RunStats::default`], so sums over cells count the call once.
    pub exec: RunStats,
}

impl EnsembleSummary {
    fn empty() -> Self {
        EnsembleSummary {
            runs: 0,
            solved: 0,
            latency: OnlineStats::new(),
            sketch_p50: P2Quantile::new(0.5),
            sketch_p90: P2Quantile::new(0.9),
            sketch_p99: P2Quantile::new(0.99),
            worst: 0,
            energy: EnergyStats::new(),
            work: WorkStats::default(),
            faults: FaultCounts::default(),
            exec: RunStats::default(),
        }
    }

    /// Fold one worker pre-folded batch partial, in seed order. Integer
    /// aggregates merge associatively; the solved latencies replay here one
    /// by one, so the floating-point accumulators see exactly the sequence
    /// a sequential run would feed them — bit-identical across thread
    /// counts and batch boundaries.
    fn absorb_partial(&mut self, p: StreamPartial) {
        self.runs += p.runs;
        self.solved += p.solved;
        self.worst = self.worst.max(p.worst);
        self.energy.merge(&p.energy);
        self.work.merge(&p.work);
        self.faults.merge(&p.faults);
        for l in p.solved_latencies {
            let l = l as f64;
            self.latency.push(l);
            self.sketch_p50.push(l);
            self.sketch_p90.push(l);
            self.sketch_p99.push(l);
        }
    }

    /// Number of censored (cap-hit) runs.
    pub fn censored(&self) -> u64 {
        self.runs - self.solved
    }

    /// Mean solved latency (0 when nothing solved).
    pub fn mean(&self) -> f64 {
        self.latency.mean()
    }

    /// Maximum solved latency (0 when nothing solved).
    pub fn max(&self) -> f64 {
        self.latency.max()
    }

    /// Half-width of the 95% CI of the mean.
    pub fn ci95(&self) -> f64 {
        self.latency.ci95()
    }

    /// Median solved latency (P² estimate; 0 when nothing solved).
    pub fn median(&self) -> f64 {
        self.sketch_p50.value().unwrap_or(0.0)
    }

    /// 90th-percentile solved latency (P² estimate; 0 when nothing solved).
    pub fn p90(&self) -> f64 {
        self.sketch_p90.value().unwrap_or(0.0)
    }

    /// 99th-percentile solved latency (P² estimate; 0 when nothing solved).
    pub fn p99(&self) -> f64 {
        self.sketch_p99.value().unwrap_or(0.0)
    }

    /// The summary as a machine-readable
    /// [`Record`](crate::serial::Record) with stable field names — the
    /// per-point payload of the experiment sinks' sweep rows.
    ///
    /// Only **deterministic** aggregates are included (everything folds in
    /// seed order, so each field is bit-identical across thread counts); the
    /// wall-clock execution stats in [`exec`](Self::exec) are deliberately
    /// left out so machine output can be diffed across runs and machines.
    ///
    /// When **no** run solved, the solved-latency statistics are emitted as
    /// `NaN` (JSON `null`, CSV `NaN`) rather than their 0.0 accessor
    /// defaults — a fully-censored cell must not read as zero latency.
    /// `worst` stays numeric: it counts censored runs pessimistically.
    pub fn record(&self) -> crate::serial::Record {
        let lat = |v: f64| if self.solved > 0 { v } else { f64::NAN };
        crate::serial::Record::new()
            .with("runs", self.runs)
            .with("solved", self.solved)
            .with("censored", self.censored())
            .with("mean", lat(self.mean()))
            .with("ci95", lat(self.ci95()))
            .with("median", lat(self.median()))
            .with("p90", lat(self.p90()))
            .with("p99", lat(self.p99()))
            .with("max", lat(self.max()))
            .with("worst", self.worst)
            .with("mean_transmissions", self.energy.mean_transmissions())
            .with("mean_collisions", self.energy.mean_collisions())
            .with("max_per_station_tx", self.energy.max_per_station)
            .with("slots", self.work.slots)
            .with("polls", self.work.polls)
            .with("skipped", self.work.skipped)
            .with("dense_steps", self.work.dense_steps)
            .with("word_slots", self.work.word_slots)
            .with("mode_switches", self.work.mode_switches)
            .with("peak_units", self.work.peak_units)
    }
}

/// Simulate run `run` (seed `seed`), recording its trace when `trace` is
/// set. Returns the outcome and the run's trace serialized as run-tagged
/// JSONL bytes (`{"run":<run>,…}`, the ensemble schema; empty when
/// untraced). Serialization happens on the calling thread — a worker, in
/// an ensemble — so only the ordered [`TraceSpec::append`] is left to the
/// reducer.
///
/// Panics if the run fails validation (a bug in the generator, not a
/// measurement outcome).
pub fn run_tagged(
    sim: &Simulator,
    trace: Option<&TraceSpec>,
    run: u64,
    seed: u64,
    protocol: &dyn Protocol,
    pattern: &WakePattern,
) -> (Outcome, Vec<u8>) {
    let Some(ts) = trace else {
        let outcome = sim
            .run(protocol, pattern, seed)
            .expect("ensemble run failed validation");
        return (outcome, Vec::new());
    };
    let mut rec = RecordingTracer::with_filter(ts.filter);
    let outcome = sim
        .run_traced(protocol, pattern, seed, &mut rec)
        .expect("ensemble run failed validation");
    let mut buf = Vec::new();
    for ev in rec.events() {
        writeln!(buf, "{{\"run\":{run},{}}}", ev.json_fields())
            .expect("writing to a Vec cannot fail");
    }
    (outcome, buf)
}

/// Write one runner call's execution records (the non-deterministic tier:
/// wall-clock phase timers, per-worker counters) to the trace sidecar of
/// the first cell that has one. One flat JSON object per line, parseable
/// by [`parse_json_object`](crate::serial::parse_json_object); the
/// `ensemble` record is labelled by the first cell and counts the call's
/// `cells`.
fn flush_exec(cells: &[EnsembleCell<'_>], stats: &RunStats) {
    let Some((spec, ts, exec)) = cells.iter().find_map(|c| {
        let ts = c.spec.trace.as_ref()?;
        Some((c.spec, ts, ts.exec.as_ref()?))
    }) else {
        return;
    };
    let seq = ts.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let label = spec
        .progress
        .as_ref()
        .map(|p| p.label.as_str())
        .unwrap_or("");
    let mut buf = Vec::new();
    let head = crate::serial::Record::new()
        .with("record", "ensemble")
        .with("ensemble", seq)
        .with("label", label)
        .with("n", spec.sim.n)
        .with("cells", cells.len() as u64)
        .with("runs", stats.runs)
        .with("threads", stats.threads as u64)
        .with("batch", stats.batch)
        .with("batches", stats.batches)
        .with("steals", stats.steals)
        .with("calibration_runs", stats.calibration_runs)
        .with("reorder_peak", stats.reorder_peak)
        .with("elapsed_us", stats.elapsed.as_micros() as u64)
        .with(
            "construction_us",
            stats.phases.construction.as_micros() as u64,
        )
        .with("simulation_us", stats.phases.simulation.as_micros() as u64)
        .with("reduction_us", stats.phases.reduction.as_micros() as u64);
    writeln!(buf, "{}", head.to_json()).expect("writing to a Vec cannot fail");
    for (i, w) in stats.workers.iter().enumerate() {
        let row = crate::serial::Record::new()
            .with("record", "worker")
            .with("ensemble", seq)
            .with("worker", i as u64)
            .with("runs", w.runs)
            .with("steals", w.steals)
            .with("fail_scans", w.fail_scans)
            .with("queue_depth_hw", w.queue_depth_hw);
        writeln!(buf, "{}", row.to_json()).expect("writing to a Vec cannot fail");
    }
    exec.lock()
        .expect("exec sidecar poisoned")
        .write_all(&buf)
        .expect("exec sidecar write failed");
}

/// Worker-side pre-fold of one batch of digests (the payload of
/// [`Runner::run_folded`]): everything that merges associatively — integer
/// sums, counts, maxima — is reduced on the worker, and only the solved
/// latencies (needed verbatim by the order-sensitive floating-point
/// accumulators) ride along, in seed order. A shipped batch therefore
/// weighs O(1) + one `u64` per solved run instead of one full
/// [`OutcomeDigest`] per run.
#[derive(Debug, Default)]
struct StreamPartial {
    runs: u64,
    solved: u64,
    worst: u64,
    energy: EnergyStats,
    work: WorkStats,
    faults: FaultCounts,
    solved_latencies: Vec<u64>,
    /// Run-tagged trace lines of this batch, in seed order (empty when the
    /// ensemble is untraced).
    trace: Vec<u8>,
}

impl StreamPartial {
    fn absorb(&mut self, d: &OutcomeDigest, trace: &[u8]) {
        self.runs += 1;
        if let Some(l) = d.sample.solved() {
            self.solved += 1;
            self.solved_latencies.push(l);
        }
        self.worst = self.worst.max(d.sample.pessimistic());
        self.energy.absorb_digest(d);
        self.work.absorb_digest(d);
        self.faults.merge(&d.faults);
        self.trace.extend_from_slice(trace);
    }
}

/// One batch partial of [`run_ensembles`]: a batch covers consecutive
/// global run indices, so it holds one [`StreamPartial`] per cell it
/// touches, in cell order — almost always exactly one.
#[derive(Default)]
struct BatchPartial {
    parts: Vec<(usize, StreamPartial)>,
}

impl BatchPartial {
    /// The cell owning global run `i` and its partial. `ends[c]` is the
    /// exclusive global end of cell `c`'s runs. The open partial serves
    /// while `i` stays inside its cell, so the cell lookup happens once per
    /// batch and once per cell boundary, not once per run.
    fn part_for(&mut self, i: u64, ends: &[u64]) -> (usize, &mut StreamPartial) {
        let open = matches!(self.parts.last(), Some(&(c, _)) if i < ends[c]);
        if !open {
            let c = ends.partition_point(|&end| end <= i);
            self.parts.push((c, StreamPartial::default()));
        }
        let (c, part) = self.parts.last_mut().expect("a partial is open");
        (*c, part)
    }
}

/// One ensemble of a [`run_ensembles`] batch: run `i ∈ [0, spec.runs)`
/// simulates `protocol_for(seed)` against `pattern_for(seed)` where
/// `seed = spec.seed_of(i)`.
#[derive(Clone, Copy)]
pub struct EnsembleCell<'a> {
    /// Run count, seeds, simulator configuration and trace capture.
    pub spec: &'a EnsembleSpec,
    /// Protocol factory, keyed by run seed.
    pub protocol_for: &'a (dyn Fn(u64) -> Box<dyn Protocol> + Sync),
    /// Wake-pattern generator, keyed by run seed.
    pub pattern_for: &'a (dyn Fn(u64) -> WakePattern + Sync),
}

/// Run a batch of ensembles as one job space and return one summary per
/// cell, in cell order. Every (cell, run) pair is one job of a single
/// [`Runner::run_folded`] call, so a sweep of small ensembles of expensive
/// runs spreads over every worker instead of finishing each ensemble
/// inline. No per-run results are materialized, so million-run sweeps stay
/// O(threads·batch) in memory.
///
/// Reduction is **pipelined**: each worker pre-folds its batch into one
/// partial per cell it touches, and this thread merges the partials in
/// global run order — associatively for the integer counters, by in-order
/// replay for the floating-point latency statistics — and appends each
/// cell's trace lines to its own sink. Every summary and every trace byte
/// stream equals what running the cells one after another would produce,
/// bit for bit, across thread counts and batch boundaries.
///
/// The runner takes its thread count and progress reporting from the
/// first cell; the call writes one record set to the exec sidecar (see
/// [`TraceSpec::exec`]) and its statistics land in the first summary's
/// [`exec`](EnsembleSummary::exec).
///
/// Panics if any run fails validation (a bug in the generator, not a
/// measurement outcome).
pub fn run_ensembles(cells: &[EnsembleCell<'_>]) -> Vec<EnsembleSummary> {
    let mut summaries: Vec<EnsembleSummary> =
        cells.iter().map(|_| EnsembleSummary::empty()).collect();
    let Some(first) = cells.first() else {
        return summaries;
    };
    // Cell c owns the global run indices [ends[c] − runs_c, ends[c]).
    let ends: Vec<u64> = cells
        .iter()
        .scan(0u64, |end, c| {
            *end += c.spec.runs;
            Some(*end)
        })
        .collect();
    let total = ends.last().copied().unwrap_or(0);
    let sims: Vec<Simulator> = cells
        .iter()
        .map(|c| Simulator::new(c.spec.sim.clone()))
        .collect();
    // The work happens in the fold, where the batch partial keeps the
    // cell cursor; the job itself carries nothing.
    let exec = first.spec.runner().run_folded(
        total,
        |_| (),
        BatchPartial::default,
        |b, i, ()| {
            let (c, part) = b.part_for(i, &ends);
            let cell = &cells[c];
            let run = i - (ends[c] - cell.spec.runs);
            let seed = cell.spec.seed_of(run);
            let protocol = (cell.protocol_for)(seed);
            let pattern = (cell.pattern_for)(seed);
            let trace = cell.spec.trace.as_ref();
            let (outcome, bytes) =
                run_tagged(&sims[c], trace, run, seed, protocol.as_ref(), &pattern);
            part.absorb(&OutcomeDigest::of(&outcome), &bytes);
        },
        from_fn(|_start, b: BatchPartial| {
            for (c, part) in b.parts {
                if let Some(ts) = &cells[c].spec.trace {
                    ts.append(&part.trace);
                }
                summaries[c].absorb_partial(part);
            }
        }),
    );
    flush_exec(cells, &exec);
    summaries[0].exec = exec;
    summaries
}

/// Run one ensemble: the one-cell case of [`run_ensembles`]. Run
/// `i ∈ [0, spec.runs)` simulates `protocol_for(seed)` against
/// `pattern_for(seed)` where `seed = spec.base_seed.wrapping_add(i)`.
///
/// Panics if any run fails validation (a bug in the generator, not a
/// measurement outcome).
pub fn run_ensemble_stream<P, G>(
    spec: &EnsembleSpec,
    protocol_for: P,
    pattern_for: G,
) -> EnsembleSummary
where
    P: Fn(u64) -> Box<dyn Protocol> + Sync,
    G: Fn(u64) -> WakePattern + Sync,
{
    let cell = EnsembleCell {
        spec,
        protocol_for: &protocol_for,
        pattern_for: &pattern_for,
    };
    run_ensembles(&[cell]).pop().expect("one summary per cell")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::metrics::LatencySample;
    use mac_sim::pattern::IdChoice;
    use mac_sim::StationId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wakeup_core::prelude::*;

    fn k_pattern(n: u32, k: usize, seed: u64) -> WakePattern {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ids = IdChoice::Random.pick(n, k, &mut rng);
        WakePattern::uniform_window(&ids, 0, 16, &mut rng).unwrap()
    }

    /// The deterministic fields of a summary, for whole-summary equality.
    fn fingerprint(s: &EnsembleSummary) -> String {
        s.record().to_json()
    }

    /// The latency statistics of a summary, bit for bit.
    fn latencies(s: &EnsembleSummary) -> (u64, u64, u64, [u64; 6]) {
        let stats = [s.mean(), s.ci95(), s.median(), s.p90(), s.p99(), s.max()];
        (s.runs, s.solved, s.worst, stats.map(f64::to_bits))
    }

    /// Independent sequential reference: one `Simulator::run` per seed, in
    /// seed order, on the calling thread.
    fn sequential<P, G>(
        spec: &EnsembleSpec,
        protocol_for: P,
        pattern_for: G,
    ) -> (Vec<LatencySample>, EnergyStats, WorkStats)
    where
        P: Fn(u64) -> Box<dyn Protocol>,
        G: Fn(u64) -> WakePattern,
    {
        let sim = Simulator::new(spec.sim.clone());
        let (mut samples, mut energy, mut work) =
            (Vec::new(), EnergyStats::new(), WorkStats::default());
        for i in 0..spec.runs {
            let seed = spec.seed_of(i);
            let out = sim
                .run(protocol_for(seed).as_ref(), &pattern_for(seed), seed)
                .unwrap();
            samples.push(LatencySample::from_outcome(&out));
            energy.absorb(&out);
            work.absorb(&out);
        }
        (samples, energy, work)
    }

    #[test]
    fn runner_matches_chunked_reference_bit_for_bit() {
        // The work-stealing stream must fold exactly what a plain in-order
        // loop folds — runs, worst case, energy and work counters — for any
        // thread count, and its trace bytes must not depend on the thread
        // count either.
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let protocol = |seed| -> Box<dyn Protocol> {
            Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed)))
        };
        let pattern = |seed| k_pattern(n, 4, seed);
        let spec = EnsembleSpec::new(n, 24).with_base_seed(42);
        let (samples, energy, work) = sequential(&spec, protocol, pattern);
        let solved = samples.iter().filter(|s| s.solved().is_some()).count();
        let worst = samples.iter().map(|s| s.pessimistic()).max().unwrap();
        let mut first = None;
        for threads in [1usize, 2, 8] {
            let (trace, buf) = vec_trace(TraceFilter::all());
            let spec = spec.clone().with_threads(threads).with_trace(trace);
            let s = run_ensemble_stream(&spec, protocol, pattern);
            assert_eq!(s.runs, samples.len() as u64, "threads={threads}");
            assert_eq!(s.solved, solved as u64, "threads={threads}");
            assert_eq!(s.worst, worst, "threads={threads}");
            assert_eq!(s.energy, energy, "threads={threads}");
            assert_eq!(s.work, work, "threads={threads}");
            let bytes = buf.lock().unwrap().clone();
            let (lat, trace) = first.get_or_insert_with(|| (latencies(&s), bytes.clone()));
            assert_eq!(*lat, latencies(&s), "threads={threads}");
            assert_eq!(*trace, bytes, "threads={threads}");
        }
    }

    /// A cell's protocol and pattern factories.
    type Factories<'a> = (
        &'a (dyn Fn(u64) -> Box<dyn Protocol> + Sync),
        &'a (dyn Fn(u64) -> WakePattern + Sync),
    );

    #[test]
    fn batched_cells_match_per_cell_streams_bit_for_bit() {
        // Mixed cells — different n, protocols, engines and run counts
        // (including 0, 1 and 3), one of them traced — submitted as one
        // batch must each fold exactly what a per-cell stream folds, and the
        // traced cell's bytes must not depend on the thread count. The two
        // 40-run cells make the batch large enough for multi-run batches,
        // so batches straddle the small cells' boundaries.
        use mac_sim::tracer::TraceFilter;
        let wakeup_n = |n: u32| {
            move |seed| -> Box<dyn Protocol> {
                Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed)))
            }
        };
        let with_k = |seed| -> Box<dyn Protocol> {
            Box::new(WakeupWithK::new(
                128,
                4,
                FamilyProvider::random_with_seed(seed),
            ))
        };
        let round_robin = |_| -> Box<dyn Protocol> { Box::new(RoundRobin::new(64)) };
        let (p64, p32, p16) = (wakeup_n(64), wakeup_n(32), wakeup_n(16));
        let pattern = |n: u32, k: usize| move |seed| k_pattern(n, k, seed);
        let (g64, g64b, g32, g128, g16) = (
            pattern(64, 4),
            pattern(64, 5),
            pattern(32, 3),
            pattern(128, 4),
            pattern(16, 2),
        );
        let specs = [
            EnsembleSpec::new(64, 40)
                .with_base_seed(77)
                .with_engine(EngineMode::Dense),
            EnsembleSpec::new(64, 3).with_base_seed(5),
            EnsembleSpec::new(32, 0),
            EnsembleSpec::new(128, 1).with_base_seed(9),
            EnsembleSpec::new(16, 3).with_base_seed(u64::MAX - 1),
            EnsembleSpec::new(64, 40).with_base_seed(1000),
        ];
        let factories: [Factories<'_>; 6] = [
            (&round_robin, &g64),
            (&p64, &g64),
            (&p32, &g32),
            (&with_k, &g128),
            (&p16, &g16),
            (&round_robin, &g64b),
        ];
        const TRACED: usize = 4;
        // Per-cell references, one stream after another on one thread.
        let (trace, buf) = vec_trace(TraceFilter::all());
        let reference: Vec<EnsembleSummary> = specs
            .iter()
            .zip(factories)
            .enumerate()
            .map(|(c, (spec, (p, g)))| {
                let mut spec = spec.clone().with_threads(1);
                if c == TRACED {
                    spec = spec.with_trace(trace.clone());
                }
                let s = run_ensemble_stream(&spec, p, g);
                let (samples, energy, work) = sequential(&spec, p, g);
                assert_eq!(s.runs, samples.len() as u64, "cell {c}");
                assert_eq!(s.energy, energy, "cell {c}");
                assert_eq!(s.work, work, "cell {c}");
                s
            })
            .collect();
        let reference_trace = buf.lock().unwrap().clone();
        assert!(!reference_trace.is_empty());
        for threads in [1usize, 2, 3] {
            let (trace, buf) = vec_trace(TraceFilter::all());
            let specs: Vec<EnsembleSpec> = specs
                .iter()
                .enumerate()
                .map(|(c, spec)| {
                    let spec = spec.clone().with_threads(threads);
                    if c == TRACED {
                        spec.with_trace(trace.clone())
                    } else {
                        spec
                    }
                })
                .collect();
            let cells: Vec<EnsembleCell<'_>> = specs
                .iter()
                .zip(factories)
                .map(|(spec, (protocol_for, pattern_for))| EnsembleCell {
                    spec,
                    protocol_for,
                    pattern_for,
                })
                .collect();
            let batched = run_ensembles(&cells);
            assert_eq!(batched.len(), reference.len());
            for (c, (b, r)) in batched.iter().zip(&reference).enumerate() {
                let at = format!("threads={threads} cell {c}");
                assert_eq!(fingerprint(b), fingerprint(r), "{at}");
                assert_eq!(latencies(b), latencies(r), "{at}");
                assert_eq!(b.energy, r.energy, "{at}");
                assert_eq!(b.work, r.work, "{at}");
                assert_eq!(b.faults, r.faults, "{at}");
            }
            // The first summary carries the one runner call's statistics.
            assert_eq!(batched[0].exec.runs, 87, "threads={threads}");
            assert!(batched[0].exec.batch > 1, "threads={threads}");
            assert!(batched[1..].iter().all(|s| s.exec.runs == 0));
            assert_eq!(*buf.lock().unwrap(), reference_trace, "threads={threads}");
        }
        assert!(run_ensembles(&[]).is_empty());
    }

    #[test]
    fn stream_summary_matches_materialized_summary() {
        // The streaming summary against the exact two-pass Summary of the
        // samples a sequential loop materializes.
        let n = 64u32;
        let protocol = |_| -> Box<dyn Protocol> { Box::new(RoundRobin::new(n)) };
        let pattern = |seed| k_pattern(n, 5, seed);
        let spec = EnsembleSpec::new(n, 32).with_base_seed(7).with_threads(4);
        let (samples, energy, work) = sequential(&spec, protocol, pattern);
        let stream = run_ensemble_stream(&spec, protocol, pattern);
        let solved: Vec<u64> = samples.iter().filter_map(|s| s.solved()).collect();
        let summary = crate::stats::Summary::of_u64(&solved).unwrap();
        assert_eq!(stream.runs, 32);
        assert_eq!(stream.solved as usize, summary.count);
        // Welford and the two-pass sum agree up to rounding.
        assert!((stream.mean() - summary.mean).abs() < 1e-9);
        assert_eq!(stream.max(), summary.max);
        assert!((stream.ci95() - summary.ci95()).abs() < 1e-9);
        let worst = samples.iter().map(|s| s.pessimistic()).max().unwrap();
        assert_eq!(stream.worst, worst);
        assert_eq!(stream.energy, energy);
        assert_eq!(stream.work, work);
        // P² percentiles track the exact ones on a 32-run ensemble.
        let spread = (summary.max - summary.min).max(1.0);
        assert!((stream.median() - summary.median).abs() <= 0.1 * spread);
        assert!((stream.p90() - summary.p90).abs() <= 0.15 * spread);
    }

    #[test]
    fn ensemble_runs_and_aggregates() {
        let n = 64u32;
        let spec = EnsembleSpec::new(n, 16).with_threads(4);
        let res = run_ensemble_stream(
            &spec,
            |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
            |seed| k_pattern(n, 4, seed),
        );
        assert_eq!(res.runs, 16);
        assert_eq!(res.censored(), 0, "wakeup(n) should solve all runs");
        assert_eq!(res.solved, 16);
        assert!(res.max() >= res.median());
        assert!(res.energy.runs == 16);
        assert!(res.energy.total_transmissions > 0);
    }

    #[test]
    fn class_population_ensemble_matches_concrete() {
        // Ensemble plumbing for the class engine: same latencies/energy, and
        // peak_units drops to the class count (one unit per wake batch here)
        // while the concrete path carries one unit per station.
        let n = 128u32;
        let spec = EnsembleSpec::new(n, 12).with_threads(3);
        let pattern = |seed: u64| WakePattern::range(0, n / 2, seed % 8).unwrap();
        let run = |spec: &EnsembleSpec| {
            run_ensemble_stream(spec, |_| Box::new(RoundRobin::new(n)), pattern)
        };
        let concrete = run(&spec);
        let classed = run(&spec.clone().with_classes());
        assert_eq!(latencies(&concrete), latencies(&classed));
        assert_eq!(concrete.energy, classed.energy);
        assert_eq!(concrete.work.slots, classed.work.slots);
        assert_eq!(concrete.work.peak_units, u64::from(n) / 2);
        assert_eq!(classed.work.peak_units, 1);
        // And without per-station detail the aggregates still match, except
        // the per-station maximum that detail-off deliberately drops.
        let lean = run(&spec.clone().with_classes().without_per_station_detail());
        assert_eq!(latencies(&lean), latencies(&classed));
        assert_eq!(
            lean.energy.total_transmissions,
            classed.energy.total_transmissions
        );
        assert_eq!(lean.energy.max_per_station, 0);
    }

    #[test]
    fn work_stats_track_sparse_savings() {
        // Round-robin gives O(1) hints, so the sparse engine polls far less
        // than once per slot, while a dense run polls k times per slot.
        let n = 256u32;
        let spec = EnsembleSpec::new(n, 8).with_threads(2);
        let run = |spec: &EnsembleSpec| {
            run_ensemble_stream(
                spec,
                |_| Box::new(RoundRobin::new(n)),
                |seed| k_pattern(n, 6, seed),
            )
        };
        let sparse = run(&spec);
        let dense = run(&spec.clone().with_engine(EngineMode::Dense));
        assert_eq!(
            latencies(&sparse),
            latencies(&dense),
            "outcomes must be identical"
        );
        assert_eq!(sparse.energy, dense.energy);
        assert_eq!(
            sparse.work.slots, dense.work.slots,
            "paths must cover the same slots"
        );
        assert!(sparse.work.skipped > 0);
        assert_eq!(dense.work.skipped, 0);
        assert!(
            sparse.work.polls * 10 < dense.work.polls,
            "sparse polls {} not ≪ dense polls {}",
            sparse.work.polls,
            dense.work.polls
        );
        assert!(sparse.work.polls_per_slot() < 1.0);
        assert!(sparse.work.skip_fraction() > 0.5);
    }

    #[test]
    fn ensemble_is_deterministic_given_base_seed() {
        let n = 32u32;
        let spec = EnsembleSpec::new(n, 8).with_base_seed(99).with_threads(2);
        let run = || {
            run_ensemble_stream(
                &spec,
                |seed| {
                    Box::new(WakeupWithK::new(
                        n,
                        4,
                        FamilyProvider::random_with_seed(seed),
                    ))
                },
                |seed| k_pattern(n, 4, seed),
            )
        };
        assert_eq!(fingerprint(&run()), fingerprint(&run()));
    }

    #[test]
    fn different_base_seeds_differ() {
        let n = 32u32;
        let mk = |base: u64| {
            run_ensemble_stream(
                &EnsembleSpec::new(n, 8).with_base_seed(base),
                |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
                |seed| k_pattern(n, 3, seed),
            )
        };
        // Extremely likely to differ somewhere.
        assert_ne!(fingerprint(&mk(0)), fingerprint(&mk(1_000_000)));
    }

    #[test]
    fn censored_runs_are_counted() {
        // A protocol that never transmits gets censored on every run.
        struct Silent;
        struct SilentStation;
        impl mac_sim::Station for SilentStation {
            fn wake(&mut self, _s: mac_sim::Slot) {}
            fn act(&mut self, _t: mac_sim::Slot) -> mac_sim::Action {
                mac_sim::Action::Listen
            }
        }
        impl mac_sim::Protocol for Silent {
            fn station(&self, _id: StationId, _seed: u64) -> Box<dyn mac_sim::Station> {
                Box::new(SilentStation)
            }
            fn name(&self) -> String {
                "silent".into()
            }
        }
        let spec = EnsembleSpec::new(8, 4).with_max_slots(50);
        let s = run_ensemble_stream(&spec, |_| Box::new(Silent), |seed| k_pattern(8, 2, seed));
        assert_eq!(s.censored(), 4);
        assert_eq!(s.solved, 0);
        assert_eq!(s.worst, 50);
        assert_eq!(s.mean(), 0.0);
        // Machine rows must not read the censored-everything case as zero
        // latency: the record renders the solved-latency stats as null.
        let json = s.record().to_json();
        assert!(json.contains("\"mean\":null"), "{json}");
        assert!(json.contains("\"p90\":null"), "{json}");
        assert!(json.contains("\"worst\":50"), "{json}");
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let n = 32u32;
        let mk = |threads: usize| {
            run_ensemble_stream(
                &EnsembleSpec::new(n, 10).with_threads(threads),
                |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
                |seed| k_pattern(n, 3, seed),
            )
        };
        assert_eq!(fingerprint(&mk(1)), fingerprint(&mk(8)));
    }

    #[test]
    fn stream_is_bit_identical_across_thread_counts() {
        let n = 64u32;
        let mk = |threads: usize| {
            run_ensemble_stream(
                &EnsembleSpec::new(n, 20).with_threads(threads),
                |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
                |seed| k_pattern(n, 4, seed),
            )
        };
        let a = mk(1);
        for threads in [2usize, 8] {
            let b = mk(threads);
            assert_eq!(a.mean().to_bits(), b.mean().to_bits());
            assert_eq!(a.ci95().to_bits(), b.ci95().to_bits());
            assert_eq!(a.median().to_bits(), b.median().to_bits());
            assert_eq!(a.p90().to_bits(), b.p90().to_bits());
            assert_eq!(a.work, b.work);
        }
    }

    #[test]
    fn zero_threads_spec_runs_instead_of_panicking() {
        // Regression: a directly-constructed spec with threads: 0 used to
        // divide by zero in the chunk computation.
        let n = 16u32;
        let spec = EnsembleSpec {
            threads: 0,
            ..EnsembleSpec::new(n, 4)
        };
        let run = |spec: &EnsembleSpec| {
            run_ensemble_stream(
                spec,
                |_| Box::new(RoundRobin::new(n)),
                |seed| k_pattern(n, 2, seed),
            )
        };
        let res = run(&spec);
        assert_eq!(res.runs, 4);
        assert_eq!(
            fingerprint(&res),
            fingerprint(&run(&spec.clone().with_threads(1)))
        );
    }

    #[test]
    fn base_seed_near_max_wraps_instead_of_overflowing() {
        // Regression: `base_seed + i` overflowed (panic in debug) for base
        // seeds near u64::MAX; seeds now wrap.
        let n = 16u32;
        let spec = EnsembleSpec::new(n, 8).with_base_seed(u64::MAX - 2);
        assert_eq!(spec.seed_of(2), u64::MAX);
        assert_eq!(spec.seed_of(3), 0);
        assert_eq!(spec.seed_of(5), 2);
        let res = run_ensemble_stream(
            &spec,
            |seed| Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed))),
            |seed| k_pattern(n, 3, seed),
        );
        assert_eq!(res.runs, 8);
    }

    #[test]
    fn cached_ensemble_matches_uncached_bit_for_bit() {
        // The construction cache may only change *where* structure is
        // built, never what the runs observe: latencies, energy and work
        // counters must be identical, across thread counts.
        let n = 64u32;
        let provider = FamilyProvider::random_with_seed(5);
        let mk_spec = |threads| {
            EnsembleSpec::new(n, 16)
                .with_base_seed(3)
                .with_threads(threads)
        };
        let plain = run_ensemble_stream(
            &mk_spec(1),
            |_| Box::new(WakeupWithK::new(n, 6, provider)),
            |seed| k_pattern(n, 6, seed),
        );
        for threads in [1usize, 4] {
            let cache = wakeup_core::ConstructionCache::new();
            let cached = run_ensemble_stream(
                &mk_spec(threads),
                |_| Box::new(WakeupWithK::cached(n, 6, &provider, &cache)),
                |seed| k_pattern(n, 6, seed),
            );
            assert_eq!(
                fingerprint(&plain),
                fingerprint(&cached),
                "threads={threads}"
            );
            assert_eq!(plain.energy, cached.energy, "threads={threads}");
            assert_eq!(plain.work, cached.work, "threads={threads}");
            assert!(!cache.is_empty(), "cache was never populated");
        }
    }

    /// A trace spec writing into a shared byte buffer, plus the handle to
    /// read the bytes back after the ensemble completes.
    fn vec_trace(filter: mac_sim::tracer::TraceFilter) -> (TraceSpec, Arc<Mutex<Vec<u8>>>) {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sink: Arc<Mutex<dyn Write + Send>> = buf.clone();
        (TraceSpec::new(filter, sink), buf)
    }

    #[test]
    fn ensemble_trace_bytes_bit_identical_across_thread_counts() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let mk = |threads: usize| {
            let (trace, buf) = vec_trace(TraceFilter::all());
            let spec = EnsembleSpec::new(n, 24)
                .with_base_seed(11)
                .with_threads(threads)
                .with_trace(trace);
            run_ensemble_stream(
                &spec,
                |_| Box::new(RoundRobin::new(n)),
                |seed| k_pattern(n, 4, seed),
            );
            let bytes = buf.lock().unwrap().clone();
            bytes
        };
        let reference = mk(1);
        assert!(!reference.is_empty(), "traced ensemble produced no lines");
        let text = String::from_utf8(reference.clone()).unwrap();
        assert!(text.lines().count() > 24, "expected events for every run");
        assert!(text.lines().all(|l| l.starts_with("{\"run\":")), "{text}");
        assert!(text.contains("\"run\":23,"), "last run missing from trace");
        for threads in [2usize, 4] {
            assert_eq!(mk(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn ensemble_trace_deterministic_tier_identical_across_engines() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let mk = |engine: EngineMode, population: PopulationMode| {
            let (trace, buf) = vec_trace(TraceFilter::deterministic());
            let spec = EnsembleSpec::new(n, 12)
                .with_threads(3)
                .with_engine(engine)
                .with_population(population)
                .with_trace(trace);
            run_ensemble_stream(
                &spec,
                |_| Box::new(RoundRobin::new(n)),
                |seed| k_pattern(n, 5, seed),
            );
            let bytes = buf.lock().unwrap().clone();
            bytes
        };
        let dense = mk(EngineMode::Dense, PopulationMode::Concrete);
        assert!(!dense.is_empty());
        assert_eq!(mk(EngineMode::Auto, PopulationMode::Concrete), dense);
        assert_eq!(mk(EngineMode::Auto, PopulationMode::Classes), dense);
    }

    #[test]
    fn exec_sidecar_records_ensemble_and_worker_lines() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let (trace, _events) = vec_trace(TraceFilter::deterministic());
        let exec_buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let exec_sink: Arc<Mutex<dyn Write + Send>> = exec_buf.clone();
        let trace = trace.with_exec_sink(exec_sink);
        let spec = EnsembleSpec::new(n, 64)
            .with_threads(3)
            .with_trace(trace.clone());
        run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        // Second ensemble on the same sidecar gets the next ordinal.
        run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        let text = String::from_utf8(exec_buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let heads: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains("\"record\":\"ensemble\""))
            .collect();
        assert_eq!(heads.len(), 2, "{text}");
        assert!(heads[0].contains("\"ensemble\":0,"));
        assert!(heads[1].contains("\"ensemble\":1,"));
        assert!(heads[0].contains("\"threads\":3"));
        let workers = lines
            .iter()
            .filter(|l| l.contains("\"record\":\"worker\""))
            .count();
        assert_eq!(workers, 6, "3 workers per ensemble: {text}");
        // Every line parses back as a flat record.
        for l in &lines {
            crate::serial::parse_json_object(l).unwrap();
        }
    }

    #[test]
    fn tracing_does_not_perturb_ensemble_aggregates() {
        use mac_sim::tracer::TraceFilter;
        let n = 64u32;
        let spec = EnsembleSpec::new(n, 16).with_base_seed(5).with_threads(4);
        let plain = run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        let (trace, _buf) = vec_trace(TraceFilter::all());
        let traced = run_ensemble_stream(
            &spec.clone().with_trace(trace),
            |_| Box::new(RoundRobin::new(n)),
            |seed| k_pattern(n, 4, seed),
        );
        assert_eq!(plain.runs, traced.runs);
        assert_eq!(plain.solved, traced.solved);
        assert_eq!(plain.mean().to_bits(), traced.mean().to_bits());
        assert_eq!(plain.work, traced.work);
        assert_eq!(plain.energy, traced.energy);
    }

    #[test]
    fn runs_zero_yields_empty_result() {
        let spec = EnsembleSpec::new(16, 0);
        let s = run_ensemble_stream(
            &spec,
            |_| Box::new(RoundRobin::new(16)),
            |seed| k_pattern(16, 2, seed),
        );
        assert_eq!(s.runs, 0);
        // Empty-summary accessors must not divide by zero.
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.p90(), 0.0);
        assert_eq!(s.censored(), 0);
    }
}
