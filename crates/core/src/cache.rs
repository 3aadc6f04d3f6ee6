//! Ensemble-wide construction cache: selective families, doubling
//! schedules and waking matrices built **once per `(n, k, provider)` per
//! ensemble** and shared read-only across runs.
//!
//! Every run of an ensemble used to rebuild its protocol's combinatorial
//! structure from scratch — the `(n, 2^i)`-selective family sequence, the
//! [`DoublingSchedule`] over it, the [`WakingMatrix`] — even though these
//! are pure functions of the seed and therefore identical across the
//! thousands of runs at the same parameters. [`ConstructionCache`] memoizes
//! them behind [`Arc`]s:
//!
//! * handles are **shared across work-stealing workers** (the cache is
//!   `Sync`), and construction happens outside any lock;
//! * sharing one [`Arc<DoublingSchedule>`] across runs additionally shares
//!   the schedule's interior per-station
//!   [`PositionIndex`](crate::PositionIndex) memo
//!   ([`DoublingSchedule::shared_index`]), so the `O(period)` index scan
//!   happens once per *ensemble* instead of once per *run*;
//! * per-run mutable state stays station-local (the existing
//!   `NextPositionCache`, row-scan cursors, retirement flags) — the cache
//!   holds only immutable structure, so outcomes are bit-identical with and
//!   without it.
//!
//! # Layout and residency
//!
//! Each kind (families, schedules, matrices) has one fixed-size,
//! set-associative table of 32 sets × 4 ways, so at most [`CACHE_CAP`]
//! entries per kind are resident. A deterministic mix of the key
//! ([`derive_seed`], never `RandomState`) picks the set. Each set has its
//! own small lock on its own cache lines:
//!
//! * a lookup takes only its set's lock, so two workers rarely meet;
//! * an insert replaces an empty way or the set's least recently used
//!   one, and the evicted value is dropped after the lock is released;
//! * two workers that miss on the same key both build it, and the later
//!   insert adopts the entry already in the set, so both get one handle.
//!
//! The contract is: **the same key returns the same `Arc` while it is
//! resident** — across workers, and for handles built on the main thread
//! before a fan-out. A hit keeps a key resident; a set that receives more
//! than 4 hot keys evicts some of them, and an evicted key is rebuilt
//! (identical, but a new handle with a cold `PositionIndex` memo) when it
//! is next asked for. A fixed-provider ensemble holds a handful of keys.
//!
//! Ensembles that derive a fresh provider seed per run (sampling over
//! constructions, EXP-A/B's default) miss on every run: each miss builds
//! what the uncached constructor would, plus one locked insert for the
//! schedule and one per family. For `WakeupWithK` with n = 256, k = 4,
//! 30k fresh seeds split over two workers sharing one cache cost 0.68 µs
//! of wall time per construction, against 0.34 µs uncached (and 2.0 µs
//! with the former single-mutex cache), medians of 5 runs of the kernels
//! bench `construction_cache` on a 2-core 2.0 GHz Xeon. So a per-run-seed
//! ensemble pays about twice the uncached construction for the sharing it
//! never uses.
//!
//! The protocols consume the cache through their `cached` constructors
//! ([`WakeupWithK::cached`](crate::WakeupWithK::cached), …); the ensemble
//! layer threads it through
//! [`run_ensemble_cached`](../../wakeup_analysis/ensemble/fn.run_ensemble_cached.html)-style
//! entry points.

use crate::family_provider::{DynFamily, FamilyProvider};
use crate::select_among_first::DoublingSchedule;
use crate::waking_matrix::{MatrixParams, WakingMatrix};
use mac_sim::rng::derive_seed;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Upper bound on resident entries per kind (families, schedules,
/// matrices): each kind's table has 32 sets of 4 ways.
pub const CACHE_CAP: usize = SETS * WAYS;

/// Sets per table.
const SETS: usize = 32;

/// Ways per set: how many keys mapping to one set stay resident together.
/// Four rarely overflow with a handful of hot keys; wider sets (16 × 8)
/// measured slower on per-run-seed ensembles, whose every miss writes a
/// set that the other worker wrote last.
const WAYS: usize = 4;

/// Identity of a [`FamilyProvider`] (the `δ` float is keyed by its bit
/// pattern — identical parameters, identical constructions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProviderKey {
    Random { seed: u64, delta_bits: u64 },
    KautzSingleton,
}

impl ProviderKey {
    fn of(p: &FamilyProvider) -> Self {
        match *p {
            FamilyProvider::Random { seed, delta } => ProviderKey::Random {
                seed,
                delta_bits: delta.to_bits(),
            },
            FamilyProvider::KautzSingleton => ProviderKey::KautzSingleton,
        }
    }

    fn mix(self) -> u64 {
        match self {
            ProviderKey::Random { seed, delta_bits } => derive_seed(seed, delta_bits),
            ProviderKey::KautzSingleton => 0,
        }
    }
}

/// A table key: compared in full, and mixed deterministically (no
/// `RandomState` — the cache sits in the deterministic tier) to pick its
/// set.
trait TableKey: Copy + Eq {
    fn mix(&self) -> u64;
}

/// `(provider, n, k)` for families, `(provider, n, top)` for schedules.
impl TableKey for (ProviderKey, u32, u32) {
    fn mix(&self) -> u64 {
        derive_seed(self.0.mix(), u64::from(self.1) << 32 | u64::from(self.2))
    }
}

impl TableKey for MatrixParams {
    fn mix(&self) -> u64 {
        let shape = u64::from(self.n) << 32 | u64::from(self.c);
        derive_seed(derive_seed(self.seed, shape), u64::from(self.rho_sweep))
    }
}

/// One set: a lock of its own over [`WAYS`] entries, aligned to a cache
/// line so that two sets never share one.
#[derive(Debug)]
#[repr(align(64))]
struct Set<K, V>(Mutex<Ways<K, V>>);

/// A set's entries with their last-use stamps: a hit rewrites one stamp,
/// an insert replaces an empty way or the least recently used one, and
/// nothing moves. `repr(C)` puts the clock and stamps first, on the cache
/// line of the mutex word, ahead of the entries.
#[derive(Debug)]
#[repr(C)]
struct Ways<K, V> {
    clock: u32,
    stamps: [u32; WAYS],
    entries: [Option<(K, V)>; WAYS],
}

impl<K: TableKey, V: Clone> Ways<K, V> {
    fn touch(&mut self, i: usize) {
        self.clock = self.clock.wrapping_add(1);
        self.stamps[i] = self.clock;
    }

    fn hit(&mut self, key: &K) -> Option<V> {
        let i = self
            .entries
            .iter()
            .position(|w| matches!(w, Some((k, _)) if k == key))?;
        self.touch(i);
        self.entries[i].as_ref().map(|(_, v)| v.clone())
    }

    /// Insert `built` into an empty or the least recently used way, or
    /// adopt the entry a racing builder landed since the miss: both built
    /// the same deterministic value, but only the resident handle is the
    /// one later runs share (and whose interior memos amortize). Returns
    /// the shared value and what must be dropped: the evicted entry or the
    /// losing copy.
    fn insert(&mut self, key: K, built: V) -> (V, Option<(K, V)>) {
        if let Some(resident) = self.hit(&key) {
            return (resident, Some((key, built)));
        }
        // Ages count back from the clock, so its wrap is harmless.
        let i = (0..WAYS)
            .max_by_key(|&i| {
                let age = self.clock.wrapping_sub(self.stamps[i]);
                (self.entries[i].is_none(), age)
            })
            .unwrap_or(0);
        self.touch(i);
        (built.clone(), self.entries[i].replace((key, built)))
    }
}

impl<K: TableKey, V: Clone> Set<K, V> {
    fn new() -> Self {
        Set(Mutex::new(Ways {
            clock: 0,
            stamps: [0; WAYS],
            entries: Default::default(),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Ways<K, V>> {
        // Nothing panics under the lock; a poisoned set is still coherent.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size, set-associative table. The sets are allocated on first
/// use, so an unused kind costs one pointer.
#[derive(Debug)]
struct Table<K, V> {
    sets: OnceLock<Box<[Set<K, V>]>>,
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table {
            sets: OnceLock::new(),
        }
    }
}

impl<K: TableKey, V: Clone> Table<K, V> {
    /// The resident value for `key`, or `build()` — run outside any lock —
    /// inserted.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let sets = self
            .sets
            .get_or_init(|| (0..SETS).map(|_| Set::new()).collect());
        let set = &sets[(key.mix() % SETS as u64) as usize];
        if let Some(v) = set.lock().hit(&key) {
            return v;
        }
        let built = build();
        // The guard is a temporary of this statement: the lock is released
        // before `dropped` goes out of scope.
        let (shared, dropped) = set.lock().insert(key, built);
        drop(dropped);
        shared
    }

    fn len(&self) -> usize {
        self.sets.get().map_or(0, |sets| {
            sets.iter()
                .map(|set| set.lock().entries.iter().flatten().count())
                .sum()
        })
    }
}

#[derive(Debug, Default)]
struct Tables {
    /// `(provider, n, k)` → realized selective family (cheap handle).
    families: Table<(ProviderKey, u32, u32), DynFamily>,
    /// `(provider, n, top)` → shared doubling schedule.
    schedules: Table<(ProviderKey, u32, u32), Arc<DoublingSchedule>>,
    /// Matrix parameters → shared waking matrix.
    matrices: Table<MatrixParams, Arc<WakingMatrix>>,
}

/// A cheaply-cloneable (`Arc`-backed), thread-safe construction cache. See
/// the module docs.
#[derive(Clone, Debug, Default)]
pub struct ConstructionCache {
    inner: Arc<Tables>,
}

impl ConstructionCache {
    /// An empty cache.
    pub fn new() -> Self {
        ConstructionCache::default()
    }

    /// The `(n, k)`-selective family realized by `provider`, built on first
    /// use. [`DynFamily`] handles are a few machine words, so hits clone.
    pub fn family(&self, provider: &FamilyProvider, n: u32, k: u32) -> DynFamily {
        let key = (ProviderKey::of(provider), n, k);
        self.inner
            .families
            .get_or_build(key, || provider.family(n, k))
    }

    /// The doubling-family sequence `F₁ … F_top`, each family pulled
    /// through [`family`](Self::family) — so a larger `top` reuses every
    /// family a smaller one already built (the sequences nest).
    pub fn doubling_sequence(&self, provider: &FamilyProvider, n: u32, top: u32) -> Vec<DynFamily> {
        if top == 0 {
            return vec![self.family(provider, n, 1)];
        }
        (1..=top)
            .map(|i| self.family(provider, n, (1u32 << i.min(31)).min(n)))
            .collect()
    }

    /// The shared [`DoublingSchedule`] `⟨F₁ … F_top⟩` for `provider`. All
    /// runs holding the same handle also share its interior per-station
    /// [`PositionIndex`](crate::PositionIndex) memo.
    pub fn schedule(&self, provider: &FamilyProvider, n: u32, top: u32) -> Arc<DoublingSchedule> {
        let key = (ProviderKey::of(provider), n, top);
        self.inner.schedules.get_or_build(key, || {
            Arc::new(DoublingSchedule::from_families(
                self.doubling_sequence(provider, n, top),
            ))
        })
    }

    /// The shared [`WakingMatrix`] for `params`.
    pub fn matrix(&self, params: MatrixParams) -> Arc<WakingMatrix> {
        self.inner
            .matrices
            .get_or_build(params, || Arc::new(WakingMatrix::new(params)))
    }

    /// Number of resident entries across all kinds (diagnostics and tests).
    pub fn len(&self) -> usize {
        let t = &self.inner;
        t.families.len() + t.schedules.len() + t.matrices.len()
    }

    /// `true` iff nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_handles_are_shared() {
        let cache = ConstructionCache::new();
        let p = FamilyProvider::random_with_seed(7);
        let a = cache.schedule(&p, 64, 3);
        let b = cache.schedule(&p, 64, 3);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one schedule");
        let c = cache.schedule(&p, 64, 2);
        assert!(!Arc::ptr_eq(&a, &c), "different top is a different handle");
    }

    #[test]
    fn cached_schedule_matches_direct_construction() {
        let cache = ConstructionCache::new();
        for provider in [
            FamilyProvider::random_with_seed(5),
            FamilyProvider::KautzSingleton,
        ] {
            let direct = DoublingSchedule::new(&provider, 48, 3);
            let cached = cache.schedule(&provider, 48, 3);
            assert_eq!(direct.period(), cached.period());
            for u in 0..48u32 {
                for p in 0..direct.period() {
                    assert_eq!(
                        direct.transmits(u, p),
                        cached.transmits(u, p),
                        "u={u} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_sequences_reuse_families() {
        let cache = ConstructionCache::new();
        let p = FamilyProvider::random_with_seed(1);
        cache.doubling_sequence(&p, 64, 2);
        let before = cache.len();
        // top = 4 adds exactly the two new families (F₃, F₄).
        cache.doubling_sequence(&p, 64, 4);
        assert_eq!(cache.len(), before + 2);
    }

    #[test]
    fn distinct_providers_do_not_collide() {
        let cache = ConstructionCache::new();
        let a = cache.family(&FamilyProvider::random_with_seed(1), 32, 4);
        let b = cache.family(&FamilyProvider::random_with_seed(2), 32, 4);
        let differs = (0..32u32).any(|u| a.member(u, 0) != b.member(u, 0));
        assert!(differs, "providers with different seeds must differ");
        // δ is part of the key, down to the bit pattern.
        let c = cache.family(
            &FamilyProvider::Random {
                seed: 1,
                delta: 1e-4,
            },
            32,
            4,
        );
        assert_ne!(a.len(), c.len(), "different δ sizes the family differently");
    }

    #[test]
    fn matrix_handles_are_shared_and_bounded() {
        let cache = ConstructionCache::new();
        let a = cache.matrix(MatrixParams::new(64));
        let b = cache.matrix(MatrixParams::new(64));
        assert!(Arc::ptr_eq(&a, &b));
        // Per-run-seed churn stays bounded by the cap.
        for seed in 0..3 * CACHE_CAP as u64 {
            cache.matrix(MatrixParams::new(16).with_seed(seed));
        }
        assert!(cache.len() <= 2 * CACHE_CAP);
    }

    /// `threads` workers, each running `work(worker)` at once.
    fn on_workers<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let work = &work;
                    scope.spawn(move || work(t))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_fresh_seeds_match_direct_construction() {
        // A per-run-seed ensemble: every request misses, workers evict each
        // other's entries, and every handle must still be the schedule the
        // uncached constructor builds.
        let cache = ConstructionCache::new();
        let (n, top) = (24u32, 2u32);
        on_workers(2, |t| {
            for seed in (t as u64..3 * CACHE_CAP as u64).step_by(2) {
                let p = FamilyProvider::random_with_seed(seed);
                let cached = cache.schedule(&p, n, top);
                let direct = DoublingSchedule::new(&p, n, top);
                assert_eq!(cached.period(), direct.period(), "seed {seed}");
                for u in 0..n {
                    for q in 0..direct.period() {
                        assert_eq!(cached.transmits(u, q), direct.transmits(u, q));
                    }
                }
                assert!(cache.len() <= 2 * CACHE_CAP, "families + schedules");
            }
        });
        assert_eq!(cache.len(), 2 * CACHE_CAP, "both tables full");
    }

    #[test]
    fn prewarmed_schedule_is_shared_by_every_worker() {
        // A schedule built on the main thread before the fan-out comes back
        // as the same handle in every worker, while the workers churn the
        // table with fresh seeds: each hit keeps it the most recent way of
        // its set, and fewer than 4 inserts land between two hits.
        let cache = ConstructionCache::new();
        let hot = FamilyProvider::random_with_seed(7);
        let prewarmed = cache.schedule(&hot, 64, 3);
        on_workers(2, |t| {
            for i in 0..2 * CACHE_CAP as u64 {
                let fresh = FamilyProvider::random_with_seed(1000 + 2 * i + t as u64);
                cache.schedule(&fresh, 64, 3);
                assert!(Arc::ptr_eq(&cache.schedule(&hot, 64, 3), &prewarmed));
            }
        });
    }

    #[test]
    fn racing_builders_share_one_handle() {
        // Both workers ask for each fresh key at once; whichever inserts
        // second adopts the first one's entry.
        let cache = ConstructionCache::new();
        let barrier = std::sync::Barrier::new(2);
        let handles = on_workers(2, |_| {
            (0..64u64)
                .map(|seed| {
                    barrier.wait();
                    cache.schedule(&FamilyProvider::random_with_seed(seed), 32, 2)
                })
                .collect::<Vec<_>>()
        });
        for (a, b) in handles[0].iter().zip(&handles[1]) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn set_bookkeeping_shares_the_first_cache_line() {
        // The layout the `Ways` docs promise: the mutex word, clock and
        // stamps in the set's first 64 bytes, ahead of the entries.
        fn check<K: TableKey, V: Clone>() {
            let set = Set::<K, V>::new();
            let base = &set as *const Set<K, V> as usize;
            let ways = set.lock();
            let stamps_end = ways.stamps.as_ptr_range().end as usize - base;
            let entries = ways.entries.as_ptr() as usize - base;
            assert!(stamps_end <= 64 && entries >= stamps_end);
        }
        check::<(ProviderKey, u32, u32), DynFamily>();
        check::<(ProviderKey, u32, u32), Arc<DoublingSchedule>>();
        check::<MatrixParams, Arc<WakingMatrix>>();
    }
}
