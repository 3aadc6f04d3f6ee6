//! EXP-SEL — §3's combinatorial tool: `(n, 2^i)`-selective families of
//! length `O(2^i + 2^i·log(n/2^i))` exist (Komlós–Greenberg) and our
//! realizations are selective.
//!
//! Tables: family length vs the `k·log(n/k)+k` model for the randomized
//! construction; the explicit Kautz–Singleton sizes (`O(k² log² n)`) for
//! contrast; exhaustive verification on small universes and Monte-Carlo
//! falsification on large ones.

use crate::experiment::{Check, Ctx, Experiment};
use crate::{Grid, Scale};
use selectors::prelude::*;
use wakeup_analysis::{fit_model, Model, Record, Table};
use wakeup_core::FamilyProvider;

/// Registry entry.
pub const EXP: Experiment = Experiment {
    name: "exp_selective",
    id: "EXP-SEL",
    title: "EXP-SEL — selective family sizes and verification",
    claim: "random families: O(k + k·log(n/k)); Kautz–Singleton: O(k²·log² n)",
    grid: Grid::Dense,
    full_budget_secs: 180,
    run,
};

fn run(ctx: &mut Ctx<'_>) {
    let scale = ctx.scale();

    // --- size scaling ----------------------------------------------------
    let mut table = Table::new(["n", "k", "random len", "k·log2(n/k)+k", "KS len (q²)"]);
    let mut points = Vec::new();
    for &n in &ctx.ns() {
        for &k in &[2u32, 4, 8, 16, 32, 64] {
            if k > n {
                continue;
            }
            let rand_len = RandomFamilyBuilder::new(n, k).prescribed_length() as u64;
            let ks = KautzSingleton::new(n, k);
            let model = f64::from(k) * (f64::from(n) / f64::from(k)).log2() + f64::from(k);
            points.push((f64::from(n), f64::from(k), rand_len as f64));
            ctx.row(
                "sizes",
                Record::new()
                    .with("n", n)
                    .with("k", k)
                    .with("random_len", rand_len)
                    .with("model_len", model)
                    .with("kautz_singleton_len", ks.len() as u64),
            );
            table.push_row([
                n.to_string(),
                k.to_string(),
                rand_len.to_string(),
                format!("{model:.0}"),
                ks.len().to_string(),
            ]);
        }
    }
    ctx.table("sizes", &table);
    let fit = fit_model(Model::KLogNOverK, &points).expect("fit");
    ctx.note(format!("\nrandom-family length fit: {}", fit.render()));

    // --- verification: exhaustive on small n, Monte-Carlo at scale -------
    // The six units are independent, so they fan out on the runner. Jobs
    // run in reverse table order, so the most expensive unit — the
    // (16384, 64) family build — starts first and never waits behind the
    // others; results are emitted in table order.
    let trials = if scale == Scale::Full { 20_000 } else { 3_000 };
    let units = [
        Unit::Exhaustive(12, 2),
        Unit::Exhaustive(14, 3),
        Unit::Exhaustive(16, 4),
        Unit::MonteCarlo(1024, 16),
        Unit::MonteCarlo(4096, 32),
        Unit::MonteCarlo(16384, 64),
    ];
    let last = units.len() - 1;
    let (mut verdicts, _stats) = ctx
        .runner("EXP-SEL verification")
        .map(units.len() as u64, |j| units[last - j as usize].run(trials));
    verdicts.reverse();

    ctx.note("\nexhaustive verification on small universes:");
    let mut vtab = Table::new(["n", "k", "construction", "targets checked", "verdict"]);
    let mut mtab = Table::new(["n", "k", "trials", "verdict"]);
    let mut monte_carlo = Vec::new();
    for verdict in verdicts {
        match verdict {
            Verdict::Exhaustive {
                n,
                k,
                random: res,
                kautz_singleton: ks_res,
                greedy_len,
            } => {
                ctx.check(
                    format!("random family selective at n={n}, k={k}"),
                    Check::Holds(res.is_ok(), format!("{res:?}")),
                );
                vtab.push_row([
                    n.to_string(),
                    k.to_string(),
                    "random".into(),
                    targets_checked(&res),
                    if res.is_ok() {
                        "selective ✓".into()
                    } else {
                        format!("FAILS: {res:?}")
                    },
                ]);
                ctx.check(
                    format!("kautz-singleton strongly selective at n={n}, k={k}"),
                    Check::Holds(ks_res.is_ok(), format!("{ks_res:?}")),
                );
                vtab.push_row([
                    n.to_string(),
                    k.to_string(),
                    "kautz-singleton".into(),
                    targets_checked(&ks_res),
                    if ks_res.is_ok() {
                        "STRONGLY selective ✓".into()
                    } else {
                        format!("FAILS: {ks_res:?}")
                    },
                ]);
                vtab.push_row([
                    n.to_string(),
                    k.to_string(),
                    format!("greedy (len {greedy_len})"),
                    "-".into(),
                    "selective by construction ✓".into(),
                ]);
            }
            Verdict::MonteCarlo { n, k, res } => monte_carlo.push((n, k, res)),
        }
    }
    ctx.table("verification", &vtab);

    ctx.note("\nMonte-Carlo falsification at scale:");
    for (n, k, res) in monte_carlo {
        ctx.check(
            format!("no Monte-Carlo counterexample at n={n}, k={k}"),
            Check::Holds(res.is_ok(), format!("{res:?}")),
        );
        ctx.row(
            "monte_carlo",
            Record::new()
                .with("n", n)
                .with("k", k)
                .with("trials", trials)
                .with("selective", res.is_ok()),
        );
        mtab.push_row([
            n.to_string(),
            k.to_string(),
            trials.to_string(),
            if res.is_ok() {
                "no counterexample".into()
            } else {
                format!("FAILS: {res:?}")
            },
        ]);
    }
    ctx.table("monte_carlo", &mtab);
}

/// One independent unit of EXP-SEL's verification work at `(n, k)`.
#[derive(Clone, Copy)]
enum Unit {
    /// Exhaustive checks of the random and Kautz–Singleton families, plus
    /// a greedy build.
    Exhaustive(u32, u32),
    /// Monte-Carlo falsification of an explicit random family.
    MonteCarlo(u32, u32),
}

/// The results of one [`Unit`].
enum Verdict {
    Exhaustive {
        n: u32,
        k: u32,
        random: verify::VerifyResult,
        kautz_singleton: verify::VerifyResult,
        greedy_len: usize,
    },
    MonteCarlo {
        n: u32,
        k: u32,
        res: verify::VerifyResult,
    },
}

impl Unit {
    fn run(self, trials: u64) -> Verdict {
        match self {
            Unit::Exhaustive(n, k) => {
                let fam = FamilyProvider::default().family(n, k).materialize();
                let ksf = KautzSingleton::new(n, k).materialize();
                Verdict::Exhaustive {
                    n,
                    k,
                    random: verify::selective_exhaustive(&fam),
                    kautz_singleton: verify::strongly_selective_exhaustive(&ksf),
                    greedy_len: GreedyBuilder::new(n, k).build().expect("greedy").len(),
                }
            }
            Unit::MonteCarlo(n, k) => {
                let fam = RandomFamilyBuilder::new(n, k).seed(9).build_explicit();
                let res = verify::selective_monte_carlo(&fam, trials, 13);
                Verdict::MonteCarlo { n, k, res }
            }
        }
    }
}

/// The "targets checked" cell of a verification row.
fn targets_checked(res: &verify::VerifyResult) -> String {
    res.as_ref()
        .map(|r| r.targets_checked.to_string())
        .unwrap_or_default()
}
