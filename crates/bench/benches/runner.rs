//! Ensemble-scheduling benchmark: `run_ensemble_stream` on one worker vs
//! on every available worker, on the workload class that motivated the
//! work-stealing runner — many *short sparse runs* (round-robin at
//! n = 4096) whose cost varies strongly with the seed.
//!
//! The skew is monotone in the run index (cost ~ k⁴-shaped ramp): the last
//! runs concentrate most of the total work, so a static split by run index
//! would leave one thread with nearly all of it; stealing redistributes
//! it. On a single core both rows degenerate to the same sequential sweep.
//! The benchmark also asserts both thread counts produce identical
//! summary records — the determinism contract the runner is built around.

use criterion::{criterion_group, criterion_main, Criterion};
use mac_sim::Protocol;
use std::hint::black_box;
use wakeup_analysis::prelude::*;
use wakeup_core::prelude::*;

const N: u32 = 4096;
const RUNS: u64 = 256;

/// Contention ramp: cheap runs early, expensive runs late (k up to ~n/2).
fn k_of(seed: u64) -> usize {
    let x = seed as f64 / RUNS as f64;
    4 + (2040.0 * x * x * x * x) as usize
}

fn run(threads: usize) -> EnsembleSummary {
    run_ensemble_stream(
        &EnsembleSpec::new(N, RUNS).with_threads(threads),
        protocol_for,
        pattern_for,
    )
}

fn protocol_for(_seed: u64) -> Box<dyn Protocol> {
    Box::new(RoundRobin::new(N))
}

fn pattern_for(seed: u64) -> mac_sim::WakePattern {
    wakeup_bench::worst_rr_pattern(N, k_of(seed), 0)
}

fn ensemble_scheduling(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("ensemble_scheduling");

    // Correctness pin before timing: one worker and every worker fold the
    // same record.
    assert_eq!(
        run(1).record(),
        run(threads).record(),
        "thread counts must produce identical ensembles"
    );

    group.bench_function("stream_t1_rr_n4096", |b| b.iter(|| black_box(run(1)).runs));
    group.bench_function(format!("stream_t{threads}_rr_n4096"), |b| {
        b.iter(|| black_box(run(threads)).runs)
    });
    group.finish();

    // A one-shot wall-clock comparison with the ratio spelled out (the
    // criterion lines above measure each thread count in isolation).
    use std::time::Instant;
    let t0 = Instant::now();
    let a = run(1);
    let single = t0.elapsed();
    let t0 = Instant::now();
    let b = run(threads);
    let multi = t0.elapsed();
    assert_eq!(a.record(), b.record());
    println!(
        "ensemble_scheduling summary: 1 thread {single:?} | {threads} threads {multi:?} | \
         speedup {:.2}x",
        single.as_secs_f64() / multi.as_secs_f64().max(1e-9)
    );
}

criterion_group!(benches, ensemble_scheduling);
criterion_main!(benches);
