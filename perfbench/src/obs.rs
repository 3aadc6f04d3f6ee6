//! Output checks: the path-independent observables of a run, their
//! per-cell digests, and the committed reference digests of the default
//! seed.
//!
//! A digest is an ordered list of `key=value` integers. Reference files
//! hold one digest per line: `<workload> <cell> key=value …`. Declared work
//! counters (`polls`, `skipped_slots`, …) and `false_collisions` depend on
//! the engine path and never enter a digest.

use mac_sim::Outcome;
use std::collections::BTreeMap;
use wakeup_analysis::ensemble::EnsembleSummary;

/// The path-independent observables of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Obs {
    /// First successful slot, if any.
    pub first_success: Option<u64>,
    /// Station heard at `first_success`.
    pub winner: Option<u32>,
    /// Transmissions over the run.
    pub transmissions: u64,
    /// Collision slots.
    pub collisions: u64,
    /// Silent slots.
    pub silent_slots: u64,
    /// Number of stations that delivered their message.
    pub resolved: u64,
    /// FNV-1a hash of the `(station, slot)` list of resolutions.
    pub resolved_hash: u64,
    /// Slot at which the last pattern station resolved.
    pub all_resolved_at: Option<u64>,
    /// Successes erased by the channel.
    pub erasures: u64,
    /// Collisions captured by one transmitter.
    pub captures: u64,
    /// Churn crashes.
    pub churn_crashes: u64,
    /// Churn re-wakes.
    pub churn_rewakes: u64,
}

/// FNV-1a over 64-bit words.
fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn opt(v: Option<u64>) -> u64 {
    v.map_or(u64::MAX, |x| x)
}

impl Obs {
    /// The observables of `out`.
    pub fn of(out: &Outcome) -> Obs {
        let mut resolved_hash = FNV_OFFSET;
        for &(id, t) in &out.resolved {
            resolved_hash = fnv(resolved_hash, &[u64::from(id.0), t]);
        }
        Obs {
            first_success: out.first_success,
            winner: out.winner.map(|w| w.0),
            transmissions: out.transmissions,
            collisions: out.collisions,
            silent_slots: out.silent_slots,
            resolved: out.resolved.len() as u64,
            resolved_hash,
            all_resolved_at: out.all_resolved_at,
            erasures: out.faults.erasures,
            captures: out.faults.captures,
            churn_crashes: out.faults.churn_crashes,
            churn_rewakes: out.faults.churn_rewakes,
        }
    }

    fn words(&self) -> [u64; 12] {
        [
            opt(self.first_success),
            opt(self.winner.map(u64::from)),
            self.transmissions,
            self.collisions,
            self.silent_slots,
            self.resolved,
            self.resolved_hash,
            opt(self.all_resolved_at),
            self.erasures,
            self.captures,
            self.churn_crashes,
            self.churn_rewakes,
        ]
    }
}

/// An ordered `key=value` digest of one cell's observables.
pub type Digest = Vec<(&'static str, u64)>;

/// Digest of a cell's runs, in run order.
pub fn digest_runs(obs: &[Obs]) -> Digest {
    let mut sum = [0u64; 12];
    let mut hash = FNV_OFFSET;
    let mut solved = 0;
    for o in obs {
        let w = o.words();
        hash = fnv(hash, &w);
        solved += u64::from(o.first_success.is_some());
        for (s, x) in sum.iter_mut().zip(w) {
            *s = s.wrapping_add(x);
        }
    }
    vec![
        ("runs", obs.len() as u64),
        ("solved", solved),
        ("transmissions", sum[2]),
        ("collisions", sum[3]),
        ("silent_slots", sum[4]),
        ("resolved", sum[5]),
        ("erasures", sum[8]),
        ("captures", sum[9]),
        ("churn_crashes", sum[10]),
        ("churn_rewakes", sum[11]),
        ("hash", hash),
    ]
}

/// Digest of a streamed ensemble: its seed-ordered aggregates.
pub fn digest_summary(s: &EnsembleSummary) -> Digest {
    vec![
        ("runs", s.runs),
        ("solved", s.solved),
        ("worst", s.worst),
        ("mean_bits", s.mean().to_bits()),
        ("transmissions", s.energy.total_transmissions),
        ("collisions", s.energy.total_collisions),
        ("erasures", s.faults.erasures),
        ("captures", s.faults.captures),
        ("churn_crashes", s.faults.churn_crashes),
        ("churn_rewakes", s.faults.churn_rewakes),
    ]
}

/// Render a digest as reference-file fields.
pub fn render(d: &Digest) -> String {
    d.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Reference digests keyed by `(workload, cell)`, as rendered fields.
pub type References = BTreeMap<(String, String), String>;

/// Parse a reference file (`<workload> <cell> fields…` per line; `#`
/// starts a comment).
pub fn parse_references(text: &str) -> References {
    let mut refs = References::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        if let (Some(w), Some(c), Some(rest)) = (parts.next(), parts.next(), parts.next()) {
            refs.insert((w.to_string(), c.to_string()), rest.to_string());
        }
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_every_observable() {
        let a = Obs {
            first_success: Some(3),
            winner: Some(1),
            ..Obs::default()
        };
        let mut b = a;
        b.winner = Some(2);
        assert_ne!(digest_runs(&[a]), digest_runs(&[b]));
        assert_ne!(digest_runs(&[a, b]), digest_runs(&[b, a]));
        assert_eq!(digest_runs(&[a, b]), digest_runs(&[a, b]));
    }

    #[test]
    fn references_round_trip() {
        let d = digest_runs(&[Obs::default()]);
        let text = format!("# comment\ncoin_bound wag_k512 {}\n", render(&d));
        let refs = parse_references(&text);
        assert_eq!(
            refs.get(&("coin_bound".into(), "wag_k512".into())),
            Some(&render(&d))
        );
    }
}
