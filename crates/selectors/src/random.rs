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
use crate::math::ln_choose;
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
    pub fn prescribed_length(&self) -> usize {
        if let Some(m) = self.length_override {
            return m;
        }
        if self.k == 1 {
            // The trivial (n,1)-selective family is the single full set.
            return 1;
        }
        // ln of the number of target sets, computed exactly.
        let mut ln_targets = 0.0f64;
        let range = selective_size_range(self.n, self.k);
        let mut acc = 0.0f64; // log-sum-exp accumulation
        let mut max_ln = f64::NEG_INFINITY;
        let lns: Vec<f64> = range
            .map(|x| ln_choose(u64::from(self.n), u64::from(x)))
            .collect();
        for &l in &lns {
            max_ln = max_ln.max(l);
        }
        if max_ln > f64::NEG_INFINITY {
            for &l in &lns {
                acc += (l - max_ln).exp();
            }
            ln_targets = max_ln + acc.ln();
        }
        let two_e = 2.0 * std::f64::consts::E;
        let m = two_e * (ln_targets + (1.0 / self.delta).ln());
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
}
