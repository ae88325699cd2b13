//! Cross-validation: the solver's [`DynamicsRule::KIgt`] against the
//! paper-side `popgame-igt` crate.
//!
//! Two implementations of the Definition 2.1 dynamics coexist by design
//! — `popgame_igt::dynamics::IgtProtocol` over typed [`AgentState`]s (the
//! paper machinery) and the `u8`-state `GameDynamics` rule that rides the
//! scenario/report/service stack. These tests tie them together so they
//! cannot silently diverge: the transition functions must agree on every
//! state pair, and the solver's Theorem 2.7 reference must match
//! `popgame_igt::stationary::stationary_level_probs`.

use popgame_game::params::GameParams;
use popgame_igt::dynamics::IgtProtocol;
use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
use popgame_igt::state::AgentState;
use popgame_igt::stationary::stationary_level_probs;
use popgame_population::protocol::Protocol;
use popgame_solver::dynamics::{DynamicsRule, GameDynamics, KIGT_ALPHA, KIGT_BETA, KIGT_GAMMA};
use popgame_solver::game::MatrixGame;
use popgame_util::rng::rng_from_seed;

#[test]
fn kigt_walk_agrees_with_igt_protocol_on_every_state_pair() {
    for levels in [2usize, 3, 5, 8] {
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        let solver_side =
            GameDynamics::new(&pd, DynamicsRule::KIgt { levels }).unwrap();
        let paper_side = IgtProtocol::new(levels);
        let states = levels + 2;
        let mut rng = rng_from_seed(0);
        for i in 0..states {
            for j in 0..states {
                let (si, sj) = (AgentState::from_index(i), AgentState::from_index(j));
                let (pi, pj) = paper_side.interact(si, sj, &mut rng);
                let (gi, gj) = solver_side.interact(i as u8, j as u8, &mut rng);
                assert_eq!(
                    (gi as usize, gj as usize),
                    (pi.index(), pj.index()),
                    "levels={levels}, pair ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn kigt_reference_matches_theorem_2_7_stationary_probs() {
    let levels = 5;
    let pd = MatrixGame::donation(2.0, 1.0).unwrap();
    let dynamics = GameDynamics::new(&pd, DynamicsRule::KIgt { levels }).unwrap();
    let reference = dynamics.reference_profiles().unwrap().remove(0);

    let config = IgtConfig::new(
        PopulationComposition::new(KIGT_ALPHA, KIGT_BETA, KIGT_GAMMA).unwrap(),
        GenerosityGrid::new(levels, 0.6).unwrap(),
        GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
    );
    let probs = stationary_level_probs(&config);
    assert_eq!(probs.len(), levels);
    assert_eq!(reference.len(), levels + 2);
    assert!((reference[0] - KIGT_ALPHA).abs() < 1e-12);
    assert!((reference[1] - KIGT_BETA).abs() < 1e-12);
    for (j, &p) in probs.iter().enumerate() {
        assert!(
            (reference[2 + j] - KIGT_GAMMA * p).abs() < 1e-12,
            "level {j}: {} vs {}",
            reference[2 + j],
            KIGT_GAMMA * p
        );
    }
}
