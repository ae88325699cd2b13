//! Populations of the `k`-IGT system and the Ehrenfest mapping (Section
//! 2.4).
//!
//! The Definition 2.1 walk itself is the solver's k-IGT rule
//! ([`IgtConfig::dynamics`]); [`walk_engine`] runs it over the counts of
//! its dense `u8` states (`AC = 0`, `AD = 1`, GTFT level `j = 2 + j`).

use crate::params::IgtConfig;
use crate::state::FIRST_LEVEL;
use popgame_ehrenfest::process::{EhrenfestParams, EhrenfestProcess};
use popgame_population::batch::BatchedEngine;
use popgame_solver::dynamics::GameDynamics;

/// The counts of an `n`-agent population over the walk's states (indexed
/// `AC, AD, g_0, …`): `AC` and `AD` agents, and GTFT agents all at
/// `initial_level`.
///
/// # Errors
///
/// Propagates composition rounding errors (which include `n < 2`).
pub fn walk_counts(
    config: &IgtConfig,
    n: u64,
    initial_level: usize,
) -> Result<Vec<u64>, crate::error::IgtError> {
    let (ac, ad, gtft) = config.composition().group_sizes(n)?;
    let mut counts = vec![0u64; FIRST_LEVEL + config.grid().k()];
    counts[0] = ac;
    counts[1] = ad;
    counts[FIRST_LEVEL + initial_level] = gtft;
    Ok(counts)
}

/// The Definition 2.1 walk ([`IgtConfig::dynamics`]) on the batched
/// count-level engine, started from [`walk_counts`].
///
/// # Errors
///
/// Propagates composition rounding errors (which include `n < 2`) and
/// walk construction errors.
pub fn walk_engine(
    config: &IgtConfig,
    n: u64,
    initial_level: usize,
) -> Result<BatchedEngine<GameDynamics>, crate::error::IgtError> {
    let counts = walk_counts(config, n, initial_level)?;
    let engine = BatchedEngine::from_counts(config.dynamics()?, counts);
    Ok(engine.expect("n >= 2 agents and one count per walk state"))
}

/// The Ehrenfest parameters of the idealized count-level chain
/// (Section 2.4): one population interaction maps to one step of the
/// `(k, γ(1−β), γβ, γn)`-Ehrenfest process over the GTFT level counts.
///
/// The mapping uses the *idealized* fractions (sampling the responder with
/// replacement), introducing an `O(1/n)` discrepancy from the model's
/// scheduler, which draws two distinct agents — exactly the approximation
/// the paper makes in eq. (5).
///
/// # Errors
///
/// Propagates composition rounding errors for the concrete `m = γn`.
pub fn count_level_params(
    config: &IgtConfig,
    n: u64,
) -> Result<EhrenfestParams, crate::error::IgtError> {
    let (_, _, gtft) = config.composition().group_sizes(n)?;
    let beta = config.composition().beta();
    let gamma = config.composition().gamma();
    EhrenfestParams::new(
        config.grid().k(),
        gamma * (1.0 - beta),
        gamma * beta,
        gtft,
    )
    .map_err(|e| crate::error::IgtError::InvalidComposition {
        reason: e.to_string(),
    })
}

/// The idealized count-level process itself, started with every GTFT agent
/// at `initial_level`.
///
/// # Errors
///
/// Propagates composition rounding errors.
pub fn count_level_process(
    config: &IgtConfig,
    n: u64,
    initial_level: usize,
) -> Result<EhrenfestProcess, crate::error::IgtError> {
    let params = count_level_params(config, n)?;
    let mut counts = vec![0u64; config.grid().k()];
    counts[initial_level] = params.m();
    EhrenfestProcess::from_counts(params, counts).map_err(|e| {
        crate::error::IgtError::InvalidComposition {
            reason: e.to_string(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use crate::state::AgentState;
    use popgame_game::params::GameParams;
    use popgame_population::protocol::Protocol;
    use popgame_solver::dynamics::{DynamicsRule, GameDynamics};
    use popgame_solver::game::MatrixGame;
    use popgame_util::rng::rng_from_seed;
    use proptest::prelude::*;

    fn config() -> IgtConfig {
        IgtConfig::new(
            PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
            GenerosityGrid::new(4, 0.6).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        )
    }

    #[test]
    fn populations_constructed_with_exact_groups() {
        let cfg = config();
        let engine = walk_engine(&cfg, 100, 0).unwrap();
        assert_eq!(engine.len(), 100);
        assert_eq!(engine.counts(), &[30, 20, 50, 0, 0, 0]);
        assert_eq!(engine.counts()[FIRST_LEVEL..], [50, 0, 0, 0]);

        let engine = walk_engine(&cfg, 100, 2).unwrap();
        assert_eq!(engine.counts(), &[30, 20, 0, 0, 50, 0]);
    }

    #[test]
    fn ehrenfest_mapping_parameters() {
        let cfg = config();
        let params = count_level_params(&cfg, 100).unwrap();
        // a = γ(1-β) = 0.5*0.8 = 0.4; b = γβ = 0.1; m = 50.
        assert!((params.a() - 0.4).abs() < 1e-12);
        assert!((params.b() - 0.1).abs() < 1e-12);
        assert_eq!(params.m(), 50);
        assert_eq!(params.k(), 4);
        // λ = a/b = 4 = (1-β)/β ✓ (Theorem 2.7).
        assert!((params.lambda() - cfg.composition().lambda()).abs() < 1e-12);
    }

    #[test]
    fn count_level_process_starts_at_initial_level() {
        let cfg = config();
        let proc = count_level_process(&cfg, 60, 3).unwrap();
        assert_eq!(proc.counts(), &[0, 0, 0, 30]);
    }

    #[test]
    fn ac_ad_counts_invariant_under_simulation() {
        let cfg = config();
        let mut engine = walk_engine(&cfg, 80, 1).unwrap();
        let mut rng = rng_from_seed(6);
        engine.run_batched(20_000, 1, &mut rng).unwrap();
        assert_eq!(engine.counts()[..2], [24, 16]);
        assert_eq!(engine.counts()[FIRST_LEVEL..].iter().sum::<u64>(), 40);
    }

    proptest! {
        #[test]
        fn prop_update_moves_at_most_one_level(
            level in 0usize..6,
            responder in 0u8..8,
            k in 2usize..7,
        ) {
            prop_assume!(level < k);
            let pd = MatrixGame::donation(2.0, 0.5).unwrap();
            let walk = GameDynamics::new(&pd, DynamicsRule::KIgt { levels: k }).unwrap();
            let responder = responder.min(k as u8 + 1);
            let initiator = AgentState::Gtft { level }.index() as u8;
            let mut rng = rng_from_seed(0);
            let (next, _) = walk.interact(initiator, responder, &mut rng);
            let AgentState::Gtft { level: next_level } = AgentState::from_index(next.into()) else {
                panic!("GTFT initiator left GTFT: state {next}");
            };
            prop_assert!(next_level.abs_diff(level) <= 1);
            prop_assert!(next_level < k);
        }
    }
}
