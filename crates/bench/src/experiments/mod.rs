//! The experiment registry: all 17 experiments as data.
//!
//! Each submodule holds one experiment body plus its [`Experiment`]
//! declaration; [`registry`] lists them in the order of the historical
//! crate docs. `wakeup run <name>` runs one entry.

use crate::experiment::Experiment;

pub mod ablations;
pub mod balance;
pub mod certify;
pub mod churn;
pub mod crossover;
pub mod figures;
pub mod full_resolution;
pub mod lower_bound;
pub mod mega;
pub mod noise;
pub mod randomized;
pub mod scenario_a;
pub mod scenario_b;
pub mod scenario_c;
pub mod selective;
pub mod summary;
pub mod vs_chlebus;

/// All experiments, in presentation order.
pub fn registry() -> Vec<Experiment> {
    vec![
        lower_bound::EXP,
        scenario_a::EXP,
        scenario_b::EXP,
        scenario_c::EXP,
        vs_chlebus::EXP,
        randomized::EXP,
        figures::EXP,
        balance::EXP,
        selective::EXP,
        crossover::EXP,
        summary::EXP,
        ablations::EXP,
        full_resolution::EXP,
        certify::EXP,
        mega::EXP,
        noise::EXP,
        churn::EXP,
    ]
}

/// Look up one experiment by registry name.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let reg = registry();
        assert_eq!(reg.len(), 17);
        let names: std::collections::HashSet<&str> = reg.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 17, "duplicate registry names");
        for e in &reg {
            assert!(e.name.starts_with("exp_"), "{} not exp_-prefixed", e.name);
            assert!(!e.id.is_empty() && !e.title.is_empty() && !e.claim.is_empty());
        }
        assert!(find("exp_scenario_a").is_some());
        assert!(find("nonsense").is_none());
    }
}
