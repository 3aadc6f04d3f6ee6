//! EXP-CROSS — Corollary 2.1 / the §3–§4 interleaving rationale:
//! round-robin wins for `k > n/c`, the selective component wins for small
//! `k`, and the interleaved algorithm tracks the minimum of the two.
//!
//! Fixed `n`, sweeping `k` to `n`, measuring worst-case-flavoured latency
//! (the adversarial last-block pattern for round-robin, bursts for the
//! others). Each cell is a small ensemble over family seeds, and the whole
//! sweep runs as one batch of cells on the work-stealing runner; at full
//! scale the sweep runs at `n = 2^20` — all three protocols ride the sparse
//! engine, so per-run cost scales with events and `k`, not with the
//! million-slot cycle length. The footer reports the per-table `WorkStats`.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, Scale, TableMeter};
use mac_sim::Protocol;
use wakeup_analysis::prelude::*;
use wakeup_analysis::Record;
use wakeup_core::prelude::*;

/// The three protocol columns of the sweep.
#[derive(Clone, Copy)]
enum Column {
    RoundRobin,
    WaitAndGo,
    Interleaved,
}

impl Column {
    /// Progress-label tag.
    fn tag(self) -> &'static str {
        match self {
            Column::RoundRobin => "rr",
            Column::WaitAndGo => "wag",
            Column::Interleaved => "wwk",
        }
    }

    /// The column's protocol for one run (`seed` picks the family).
    fn protocol(self, n: u32, k: u32, seed: u64) -> Box<dyn Protocol> {
        let provider = FamilyProvider::random_with_seed(seed);
        match self {
            Column::RoundRobin => Box::new(RoundRobin::new(n)),
            Column::WaitAndGo => Box::new(WaitAndGo::new(n, k, provider)),
            Column::Interleaved => Box::new(WakeupWithK::new(n, k, provider)),
        }
    }
}

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_crossover",
    id: "EXP-CROSS",
    title: "EXP-CROSS — round-robin vs selective component vs interleaving",
    claim: "interleaving = Θ(min{n−k+1, k·log(n/k)+k}) = Θ(k·log(n/k)+1)",
    grid: Grid::Sparse,
    full_budget_secs: 600,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let scale = ctx.scale();
    let n: u32 = match scale {
        Scale::Quick => 1024,
        Scale::Full => 1 << 20,
    };
    // Selective-component cells beyond this k print "—": past the
    // structural crossover (k ≈ n/log n) the selective schedule is
    // dominated by round-robin anyway, and its run cost grows like
    // k·polylog(k) while the round-robin cell stays O(k) events.
    let sel_cap: u32 = match scale {
        Scale::Quick => n,
        Scale::Full => 65_536,
    };
    let cap = 4 * u64::from(n) + 64;

    let mut table = Table::new([
        "k",
        "round-robin (worst ids)",
        "wait-and-go alone",
        "wakeup_with_k (interleaved)",
        "n-k+1",
    ]);
    let mut meter = TableMeter::new();

    let mut ks: Vec<u32> = vec![2, 4, 16, 64];
    if scale == Scale::Full {
        ks.extend([512, 4096, 16384, 65536]);
    }
    ks.extend([n / 8, n / 4, n / 2, 3 * n / 4, n - 16, n - 1]);
    ks.retain(|k| (1..=n).contains(k));

    // Every cell of the sweep goes into one batch, so the few expensive
    // large-k cells share the workers with the many cheap ones. Cells are
    // listed in emission order: per k, round-robin, then (up to `sel_cap`)
    // wait-and-go and the interleaved algorithm. Patterns are the
    // deterministic worst case — the k stations owning the last turns of
    // the round-robin cycle — and the ensemble varies family seeds.
    // Expensive large-k selective cells drop to one run. Round-robin is
    // deterministic, but the ensemble still exercises it per seed to fold
    // its work into the table stats.
    let mut plan = Vec::new();
    for &k in &ks {
        let runs = if k <= 4096 { 3u64 } else { 1 };
        let columns: &[Column] = if k <= sel_cap {
            &[Column::RoundRobin, Column::WaitAndGo, Column::Interleaved]
        } else {
            &[Column::RoundRobin]
        };
        for &column in columns {
            let label = format!("EXP-CROSS {} k={k}", column.tag());
            let spec = ctx.spec(n, runs, 10_000, &label).with_max_slots(cap);
            let protocol = move |seed| column.protocol(n, k, seed);
            let pattern = move |_| crate::worst_rr_pattern(n, k as usize, 0);
            plan.push((spec, protocol, pattern));
        }
    }
    let cells: Vec<EnsembleCell<'_>> = plan
        .iter()
        .map(|(spec, protocol, pattern)| EnsembleCell {
            spec,
            protocol_for: protocol,
            pattern_for: pattern,
        })
        .collect();
    let mut summaries = run_ensembles(&cells).into_iter();
    let mut next = || summaries.next().expect("one summary per cell");

    for &k in &ks {
        let rr = next();
        ctx.check(
            format!("round-robin always solves at k={k}"),
            Check::NoCensored(&rr),
        );
        meter.absorb(&rr);
        let mut rec = Record::new()
            .with("n", n)
            .with("k", k)
            .with("round_robin_mean", rr.mean())
            .with("envelope", u64::from(n - k + 1));

        let (wag_str, full_str) = if k <= sel_cap {
            // The selective component and the interleaved algorithm face the
            // same adversarial block, so the interleaved column reads as
            // min(round-robin column, wait-and-go column) · O(1).
            let wag = next();
            meter.absorb(&wag);
            let wag_str = if wag.solved == 0 {
                "censored".into()
            } else if wag.censored() > 0 {
                format!(
                    "{:.0} ({}/{} censored)",
                    wag.mean(),
                    wag.censored(),
                    wag.runs
                )
            } else {
                format!("{:.0}", wag.mean())
            };

            let full = next();
            ctx.check(
                format!("interleaved algorithm solves at k={k}"),
                Check::NoCensored(&full),
            );
            meter.absorb(&full);
            rec.push("wait_and_go_mean", crate::mean_or_nan(&wag));
            rec.push("wait_and_go_censored", wag.censored());
            rec.push("interleaved_mean", full.mean());
            (wag_str, format!("{:.0}", full.mean()))
        } else {
            ("—".into(), "—".into())
        };
        ctx.row("sweep", rec);

        table.push_row([
            k.to_string(),
            format!("{:.0}", rr.mean()),
            wag_str,
            full_str,
            (n - k + 1).to_string(),
        ]);
    }
    ctx.table("main", &table);
    ctx.work("EXP-CROSS", &meter);
    ctx.note(
        "\n(for small k the selective column ≪ round-robin; near k = n the \
         round-robin column ≈ n−k+1 wins; the interleaved column stays within \
         2× the better of the two — the factor-2 interleaving cost; — marks \
         selective cells beyond the crossover that are skipped at full scale)",
    );
}
