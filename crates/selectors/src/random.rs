//! The Komlós–Greenberg probabilistic construction of `(n,k)`-selective
//! families of size `O(k + k·log(n/k))`.
//!
//! ## Construction and constants
//!
//! Each transmission set includes each station independently with
//! probability `p = 1/k`. For a target set `X` with `k/2 ≤ |X| = x ≤ k`, one
//! random set `F` hits `X` exactly once with probability
//!
//! ```text
//! q(x) = x·p·(1-p)^{x-1} ≥ (1/2)·(1 - 1/k)^{k-1} ≥ 1/(2e)
//! ```
//!
//! so a family of `m` sets fails on `X` with probability at most
//! `(1 - 1/(2e))^m ≤ exp(-m/(2e))`. The number of target sets is at most
//! `Σ_{x=⌈k/2⌉}^{k} C(n,x)`, whose logarithm we compute exactly with
//! [`ln_choose`](crate::math::ln_choose()). Solving the union bound for failure
//! probability `δ` gives
//!
//! ```text
//! m = ⌈2e·(ln Σ C(n,x) + ln(1/δ))⌉ = O(k·log(n/k) + k + log(1/δ)),
//! ```
//!
//! matching the Komlós–Greenberg `O(k + k log(n/k))` bound with explicit
//! constants. This is the same existence argument as the paper's §3 citation
//! of \[25\].
//!
//! ## Evaluating the sum from its non-vanishing terms
//!
//! `ln Σ` is taken as `max_ln + ln Σ_x exp(l(x) − max_ln)` with
//! `l(x) = ln C(n,x)` and the terms added in ascending `x`. Only a window
//! around the peak is evaluated; the result has the bits of the sum over
//! the whole range. `l` is unimodal with its maximum at `⌊n/2⌋`, so on
//! `[⌈k/2⌉, k]` it peaks at `x* = clamp(⌊n/2⌋, ⌈k/2⌉, k)` and falls
//! monotonically on either side. The scan goes outward from `x*` and stops
//! at the first `x` with `l(x) < l(x*) − 800`; every `x` beyond it has a true
//! `l` lower still. `ln_choose` is accurate to ~1e-12 relative, an absolute
//! error below 1e-4 even at `n = 2^24`, so every computed term outside the
//! window is also below `l(x*) − 799`. Hence
//!
//! * the maximum `max_ln ≥ l(x*)` is attained inside the window, and
//! * each outside term has `l − max_ln < −799`, below the ≈ −745.13 where
//!   f64 `exp` underflows, so it contributes exactly `+0.0`. Adding `+0.0`
//!   to a non-negative accumulator leaves its bits unchanged.
//!
//! The window spans `O(√n)` terms around `n/2` (≤ ~41k per side at
//! `n = 2^22`), and at most about `800/ln((n−k)/k)` terms below a peak at
//! `k < n/2`, against the `k/2` terms of the full range.
//!
//! The paper needs such a family only to *exist*. The union bound says more:
//! all but a `δ` fraction of the ensemble of random `m`-set families is
//! selective. A family drawn under a fixed PRF seed is one concrete member of
//! that ensemble, so it is selective unless the seed falls in a set of
//! measure `δ` — and, unlike a bare existence proof, it can be run. The seed
//! also makes every station agree on the same family without communication,
//! and the checkers in [`verify`](crate::verify) can confirm the sample at
//! small `n`.
//!
//! Two representations are built from the same coins:
//!
//! * [`RandomFamilyBuilder::build_explicit`] materializes the sets as
//!   bitsets (`O(m·n)` bits) — verifiable, cache-friendly for small `n`;
//! * [`RandomFamilyBuilder::build_oracle`] returns an [`OracleFamily`] that
//!   evaluates membership on demand via the PRF (`O(1)` memory) — identical
//!   membership answers, usable at any scale.

use crate::bitset::BitSet;
use crate::family::SelectiveFamily;
use crate::math::LnChooseRow;
use crate::prf::{coin_threshold, RowPrefix, SeedPrefix};
use crate::verify::selective_size_range;

/// Builder for randomized `(n,k)`-selective families.
#[derive(Clone, Debug)]
pub struct RandomFamilyBuilder {
    n: u32,
    k: u32,
    seed: u64,
    delta: f64,
    length_override: Option<usize>,
}

impl RandomFamilyBuilder {
    /// A builder for an `(n,k)`-selective family (`1 ≤ k ≤ n`).
    pub fn new(n: u32, k: u32) -> Self {
        assert!(n >= 1, "n must be ≥ 1");
        assert!((1..=n).contains(&k), "k={k} outside 1..={n}");
        RandomFamilyBuilder {
            n,
            k,
            seed: 0,
            delta: 1e-9,
            length_override: None,
        }
    }

    /// Set the PRF seed (default 0). Different seeds give independent
    /// samples of the ensemble.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the union-bound failure probability `δ` (default `1e-9`).
    pub fn failure_probability(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        self.delta = delta;
        self
    }

    /// Override the computed family length (used by ablation experiments to
    /// probe the size/selectivity trade-off).
    pub fn length(mut self, m: usize) -> Self {
        self.length_override = Some(m);
        self
    }

    /// The length `m` the union bound prescribes for this `(n, k, δ)`.
    ///
    /// `ln Σ_{x=⌈k/2⌉}^{k} C(n,x)` is evaluated over the window of `x`
    /// whose terms do not underflow (see the [module docs](self)): the same
    /// bits as the sum over the whole range, at a cost of `O(√n)` term
    /// evaluations instead of `O(k)`.
    pub fn prescribed_length(&self) -> usize {
        if let Some(m) = self.length_override {
            return m;
        }
        if self.k == 1 {
            // The trivial (n,1)-selective family is the single full set.
            return 1;
        }
        let two_e = 2.0 * std::f64::consts::E;
        let m = two_e * (ln_target_count(self.n, self.k) + (1.0 / self.delta).ln());
        (m.ceil() as usize).max(1)
    }

    /// Membership probability `p = 1/k` of the construction.
    #[inline]
    pub fn density(&self) -> f64 {
        1.0 / f64::from(self.k)
    }

    /// Build the explicit (materialized) family: the sets of
    /// [`build_oracle`](Self::build_oracle), evaluated once.
    pub fn build_explicit(&self) -> SelectiveFamily {
        if self.k == 1 {
            return SelectiveFamily::new(self.n, 1, vec![BitSet::full(self.n)]);
        }
        self.build_oracle().materialize()
    }

    /// Build the oracle (on-demand) family. Membership answers are
    /// bit-identical to [`build_explicit`](Self::build_explicit).
    pub fn build_oracle(&self) -> OracleFamily {
        OracleFamily {
            n: self.n,
            k: self.k,
            len: self.prescribed_length(),
            prefix: SeedPrefix::new(self.seed),
            threshold: coin_threshold(self.density()),
        }
    }
}

/// How far below the peak term `ln C(n, x*)` the window scan stops: every
/// term further out underflows `exp` to `+0.0` (module docs).
const UNDERFLOW_MARGIN: f64 = 800.0;

/// `ln Σ_{x=⌈k/2⌉}^{k} C(n,x)`, the log of the number of target sets, by a
/// log-sum-exp over the window of `x` around the peak whose terms do not
/// underflow (module docs).
fn ln_target_count(n: u32, k: u32) -> f64 {
    let range = selective_size_range(n, k);
    let (lo, hi) = (u64::from(*range.start()), u64::from(*range.end()));
    let n = u64::from(n);
    let mut row = LnChooseRow::new(n);
    let peak = (n / 2).clamp(lo, hi);
    let floor = row.ln_choose(peak) - UNDERFLOW_MARGIN;
    // The terms in ascending x: the left flank is scanned outward from the
    // peak, then reversed. The up-front reservation is capped, since the
    // range can be millions of sizes wide while the window is not.
    let mut lns = Vec::with_capacity(((hi - lo + 1) as usize).min(1 << 12));
    lns.extend(
        (lo..peak)
            .rev()
            .map(|x| row.ln_choose(x))
            .take_while(|&l| l >= floor),
    );
    lns.reverse();
    lns.extend(
        (peak..=hi)
            .map(|x| row.ln_choose(x))
            .take_while(|&l| l >= floor),
    );
    let max_ln = lns.iter().fold(f64::NEG_INFINITY, |m, &l| m.max(l));
    let acc = lns.iter().fold(0.0f64, |acc, &l| acc + (l - max_ln).exp());
    max_ln + acc.ln()
}

/// An `(n,k)`-selective family represented as a PRF oracle: membership is
/// computed on demand, nothing is materialized.
///
/// Station `u` belongs to set `j` iff
/// [`coin`](crate::prf::coin)`(seed, j, u, 0, 1/k)`. The family keeps that
/// coin's seed folded ([`SeedPrefix`]) and its threshold computed, so a
/// membership test costs 4 mixing rounds and an integer compare.
#[derive(Clone, Copy, Debug)]
pub struct OracleFamily {
    n: u32,
    k: u32,
    len: usize,
    /// The PRF seed, folded once.
    prefix: SeedPrefix,
    /// `coin_threshold(1/k)`: a coin is set iff its hash is at most this.
    threshold: u64,
}

impl OracleFamily {
    /// Universe size `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Target contention bound `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Family length `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the family is empty (never: the builder emits `m ≥ 1`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Does station `id` belong to transmission set `j`?
    #[inline]
    pub fn transmits(&self, id: u32, j: usize) -> bool {
        debug_assert!(j < self.len);
        self.set(j).contains(id)
    }

    /// Transmission set `j` as a membership test with `(seed, j)` folded
    /// once: each station it is asked about then costs 3 mixing rounds.
    #[inline]
    pub fn set(&self, j: usize) -> OracleSet {
        OracleSet {
            row: self.prefix.row(j as u64),
            threshold: self.threshold,
            n: self.n,
            full: self.k == 1,
        }
    }

    /// Station `id`'s membership in sets `j0 … j0 + width − 1` as one word
    /// (`width ≤ 64`): bit `i` is [`transmits`](Self::transmits)`(id, j0 +
    /// i)`. Positions at or past [`len`](Self::len) read as clear.
    #[inline]
    pub fn fill_word(&self, id: u32, j0: usize, width: u32) -> u64 {
        debug_assert!(width <= 64);
        let count = self.len.saturating_sub(j0).min(width as usize);
        let mut bits = 0u64;
        let mut i = 0;
        // Four independent coins per step, advanced one link of the prefix
        // chain at a time, so their mixing rounds overlap in the pipeline.
        while i + 4 <= count {
            let sets: [OracleSet; 4] = std::array::from_fn(|l| self.set(j0 + i + l));
            for (l, hit) in sets.map(|set| set.contains(id)).into_iter().enumerate() {
                bits |= u64::from(hit) << (i + l);
            }
            i += 4;
        }
        for i in i..count {
            bits |= u64::from(self.set(j0 + i).contains(id)) << i;
        }
        bits
    }

    /// Materialize into an explicit family (for verification).
    pub fn materialize(&self) -> SelectiveFamily {
        let sets = (0..self.len)
            .map(|j| {
                let set = self.set(j);
                BitSet::from_iter_members(self.n, (0..self.n).filter(|&u| set.contains(u)))
            })
            .collect();
        SelectiveFamily::new(self.n, self.k, sets)
    }
}

/// One transmission set of an [`OracleFamily`], with the set index folded
/// into the PRF state ([`OracleFamily::set`]).
#[derive(Clone, Copy, Debug)]
pub struct OracleSet {
    row: RowPrefix,
    threshold: u64,
    n: u32,
    /// The `k = 1` family's single set holds every station.
    full: bool,
}

impl OracleSet {
    /// Does station `id` belong to this set?
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.full || (id < self.n && self.row.scanner(u64::from(id)).hash(0) <= self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn k1_family_is_the_full_set() {
        let fam = RandomFamilyBuilder::new(10, 1).build_explicit();
        assert_eq!(fam.len(), 1);
        assert_eq!(fam.set(0).len(), 10);
        assert!(verify::selective_exhaustive(&fam).is_ok());
    }

    #[test]
    fn prescribed_length_scales_like_k_log_n_over_k() {
        // m(n, k) should grow roughly linearly in k·ln(n/k)+k.
        let m1 = RandomFamilyBuilder::new(1 << 10, 4).prescribed_length() as f64;
        let m2 = RandomFamilyBuilder::new(1 << 10, 16).prescribed_length() as f64;
        let model = |n: f64, k: f64| k * (n / k).ln() + k;
        let ratio_measured = m2 / m1;
        let ratio_model = model(1024.0, 16.0) / model(1024.0, 4.0);
        assert!(
            (ratio_measured / ratio_model - 1.0).abs() < 0.35,
            "measured growth {ratio_measured:.2} vs model {ratio_model:.2}"
        );
    }

    #[test]
    fn small_families_verify_exhaustively() {
        for (n, k) in [(10u32, 2u32), (12, 3), (14, 4), (16, 2)] {
            let fam = RandomFamilyBuilder::new(n, k).seed(7).build_explicit();
            let rep = verify::selective_exhaustive(&fam);
            assert!(rep.is_ok(), "(n={n}, k={k}): {rep:?}");
        }
    }

    #[test]
    fn medium_families_survive_monte_carlo() {
        let fam = RandomFamilyBuilder::new(256, 16).seed(3).build_explicit();
        assert!(verify::selective_monte_carlo(&fam, 3_000, 11).is_ok());
    }

    #[test]
    fn oracle_matches_explicit_bit_for_bit() {
        let b = RandomFamilyBuilder::new(64, 8).seed(99);
        let explicit = b.build_explicit();
        let oracle = b.build_oracle();
        assert_eq!(explicit.len(), oracle.len());
        for j in 0..oracle.len() {
            for u in 0..64u32 {
                assert_eq!(
                    explicit.transmits(u, j),
                    oracle.transmits(u, j),
                    "mismatch at set {j}, station {u}"
                );
            }
        }
    }

    #[test]
    fn explicit_equals_materialized_oracle_off_word_boundaries() {
        // n = 1000 is not a multiple of 64: the last word of every set is
        // partial.
        let b = RandomFamilyBuilder::new(1000, 16).seed(41);
        assert_eq!(b.build_explicit(), b.build_oracle().materialize());
    }

    #[test]
    fn oracle_coins_are_the_prf_coins() {
        // Membership is exactly coin(seed, j, u, 0, 1/k), out-of-universe
        // stations included.
        let (n, k, seed) = (100u32, 7u32, 12u64);
        let oracle = RandomFamilyBuilder::new(n, k).seed(seed).build_oracle();
        for j in 0..oracle.len() {
            for u in 0..n + 3 {
                let want = u < n && crate::prf::coin(seed, j as u64, u64::from(u), 0, 1.0 / 7.0);
                assert_eq!(oracle.transmits(u, j), want, "set {j}, station {u}");
            }
        }
    }

    #[test]
    fn oracle_fill_word_matches_transmits() {
        for (n, k) in [(1024u32, 1023u32), (64, 8), (40, 1)] {
            let oracle = RandomFamilyBuilder::new(n, k).seed(3).build_oracle();
            let len = oracle.len();
            for id in [0u32, 1, n / 2, n - 1, n, n + 7] {
                for j0 in [0usize, 1, 63, len.saturating_sub(5), len, len + 3] {
                    for width in [0u32, 1, 5, 31, 64] {
                        let want = (0..width as usize)
                            .filter(|&i| j0 + i < len && oracle.transmits(id, j0 + i))
                            .fold(0u64, |w, i| w | 1 << i);
                        assert_eq!(
                            oracle.fill_word(id, j0, width),
                            want,
                            "n={n} k={k} id={id} j0={j0} width={width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_materialize_roundtrip() {
        let b = RandomFamilyBuilder::new(32, 4).seed(5);
        assert_eq!(b.build_explicit(), b.build_oracle().materialize());
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomFamilyBuilder::new(64, 8).seed(1).build_explicit();
        let b = RandomFamilyBuilder::new(64, 8).seed(2).build_explicit();
        assert_ne!(a, b);
    }

    #[test]
    fn length_override_is_respected() {
        let fam = RandomFamilyBuilder::new(64, 8).length(5).build_explicit();
        assert_eq!(fam.len(), 5);
    }

    #[test]
    fn set_density_is_about_one_over_k() {
        let (n, k) = (512u32, 8u32);
        let fam = RandomFamilyBuilder::new(n, k).seed(13).build_explicit();
        let mean_size: f64 =
            fam.sets().iter().map(|s| f64::from(s.len())).sum::<f64>() / fam.len() as f64;
        let expected = f64::from(n) / f64::from(k);
        assert!(
            (mean_size - expected).abs() < expected * 0.2,
            "mean set size {mean_size:.1} vs expected {expected:.1}"
        );
    }

    /// The full-range `O(k)` evaluation of `prescribed_length` that the
    /// windowed one replaced: `ln Σ`, and `m` for each `δ`.
    fn full_range_length(n: u32, k: u32, deltas: &[f64]) -> (f64, Vec<usize>) {
        let lns: Vec<f64> = selective_size_range(n, k)
            .map(|x| crate::math::ln_choose(u64::from(n), u64::from(x)))
            .collect();
        let mut max_ln = f64::NEG_INFINITY;
        for &l in &lns {
            max_ln = max_ln.max(l);
        }
        let mut acc = 0.0f64;
        for &l in &lns {
            acc += (l - max_ln).exp();
        }
        let ln_targets = max_ln + acc.ln();
        let two_e = 2.0 * std::f64::consts::E;
        let ms = deltas
            .iter()
            .map(|&delta| match k {
                1 => 1,
                _ => ((two_e * (ln_targets + (1.0 / delta).ln())).ceil() as usize).max(1),
            })
            .collect();
        (ln_targets, ms)
    }

    /// Asserts that the windowed `ln Σ` and `m` have the full range's bits.
    fn assert_window_exact(n: u32, k: u32, deltas: &[f64]) {
        let (want, want_ms) = full_range_length(n, k, deltas);
        let got = ln_target_count(n, k);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "ln Σ at n={n} k={k}: {got} vs {want}"
        );
        for (&delta, &want_m) in deltas.iter().zip(&want_ms) {
            let m = RandomFamilyBuilder::new(n, k)
                .failure_probability(delta)
                .prescribed_length();
            assert_eq!(m, want_m, "m at n={n} k={k} δ={delta}");
        }
    }

    const DELTAS: [f64; 3] = [1e-9, 1e-4, 0.5];

    #[test]
    fn windowed_length_is_bit_identical_on_small_universes() {
        for n in 1..=300u32 {
            for k in 1..=n {
                assert_window_exact(n, k, &DELTAS);
            }
        }
    }

    #[test]
    fn windowed_length_is_bit_identical_near_path_and_range_boundaries() {
        // k near the exact/Stirling switchover at min(x, n−x) = 256, near
        // powers of two and near n/2 (where the peak leaves the range).
        for n in [1024u32, 4096, 65536] {
            let centres = (1..=16).map(|i| 1u32 << i).chain([n / 2, n]);
            for c in centres.filter(|&c| c <= n) {
                for k in c.saturating_sub(3).max(1)..=(c + 3).min(n) {
                    assert_window_exact(n, k, &DELTAS);
                }
            }
        }
    }

    #[test]
    fn prescribed_lengths_match_the_pinned_table() {
        // m at the large cells the registry and the benchmarks build,
        // recorded from the full-range evaluation.
        let table = include_str!("../testdata/family_lengths.txt");
        let mut rows = 0;
        for line in table.lines().filter(|l| !l.starts_with('#')) {
            let v: Vec<u64> = line
                .split_whitespace()
                .map(|w| w.parse().unwrap())
                .collect();
            let (n, k) = (v[0] as u32, v[1] as u32);
            for (delta, want) in [(1e-9, v[2]), (1e-4, v[3])] {
                let m = RandomFamilyBuilder::new(n, k)
                    .failure_probability(delta)
                    .prescribed_length();
                assert_eq!(m as u64, want, "n={n} k={k} δ={delta}");
            }
            rows += 1;
        }
        assert_eq!(rows, 106);
    }

    /// The wide exactness sweep (about a minute in release):
    /// `cargo test --release -p selectors -- --ignored wide_sweep`.
    #[test]
    #[ignore]
    fn windowed_length_is_bit_identical_wide_sweep() {
        let mut pairs = 0u64;
        for n in 1..=700u32 {
            for k in 1..=n {
                assert_window_exact(n, k, &[]);
                pairs += 1;
            }
        }
        let near = |c: u64| [0i64, 1, -1, 3, -3, 7, -7].map(move |d| c as i64 + d);
        for log_n in 3..=24 {
            for n in near(1 << log_n)
                .into_iter()
                .filter(|&n| n > 700 && n <= 1 << 24)
            {
                let n = n as u32;
                let centres = (0..=log_n)
                    .map(|j| 1u64 << j)
                    .chain([u64::from(n / 2), u64::from(n)]);
                let mut ks: Vec<u32> = centres
                    .flat_map(near)
                    .filter(|&k| k >= 1 && k <= i64::from(n))
                    .map(|k| k as u32)
                    .collect();
                ks.sort_unstable();
                ks.dedup();
                for k in ks {
                    assert_window_exact(n, k, &[]);
                    pairs += 1;
                }
            }
        }
        println!("{pairs} (n, k) pairs bit-identical");
    }
}
