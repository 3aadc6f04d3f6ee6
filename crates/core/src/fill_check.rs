//! Test support: a station's word fill must agree with its per-slot `act`.

use mac_sim::rng::derive_seed;
use mac_sim::{Protocol, Slot, StationId, Until};

/// `count` pseudo-random tile bases in `[lo, hi)`, drawn from `seed`.
pub(crate) fn random_bases(seed: u64, count: u64, lo: Slot, hi: Slot) -> Vec<Slot> {
    (0..count)
        .map(|i| lo + derive_seed(seed, i) % (hi - lo))
        .collect()
}

/// Wake station `id` of `protocol` at `sigma` and check, for every tile
/// base in `bases` (each `≥ sigma`) and every width `1 ..= 64`, that
/// `fill_tx_word` answers an unconditional word whose low `width` bits are
/// exactly the slots where `act` transmits.
pub(crate) fn assert_fill_matches_act(
    protocol: &dyn Protocol,
    id: u32,
    sigma: Slot,
    bases: &[Slot],
) {
    let mut filler = protocol.station(StationId(id), 0);
    let mut actor = protocol.station(StationId(id), 0);
    filler.wake(sigma);
    actor.wake(sigma);
    for &base in bases {
        assert!(base >= sigma, "tile base {base} before wake-up {sigma}");
        for width in 1..=64u32 {
            let word = filler
                .fill_tx_word(base, width)
                .unwrap_or_else(|| panic!("{}: no word fill", protocol.name()));
            assert_eq!(word.until, Until::Forever);
            let want = (0..width)
                .filter(|&j| actor.act(base + u64::from(j)).is_transmit())
                .fold(0u64, |w, j| w | 1 << j);
            let mask = u64::MAX >> (64 - width);
            assert_eq!(
                word.bits & mask,
                want,
                "{} station {id}, σ={sigma}, tile [{base}, +{width})",
                protocol.name()
            );
        }
    }
}
