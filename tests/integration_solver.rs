//! Cross-crate integration: the exact solver against the equilibrium
//! crate's replicator dynamics and the Definition 1.1 gap, and the
//! scenario dynamics against the batched engine.

use popgame_equilibrium::replicator::run_replicator;
use popgame_solver::certify::bimatrix_gap;
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule};
use popgame_solver::game::MatrixGame;
use popgame_solver::nash::{enumerate_equilibria, symmetric_equilibria, CERT_TOL};
use popgame_solver::scenarios::{by_name, registry};
use popgame_solver::zerosum::solve_zero_sum;
use popgame_util::rng::rng_from_seed;
use proptest::prelude::*;

/// Hawk–Dove has an interior attracting mixed equilibrium: the replicator
/// limit must coincide with the solver's symmetric equilibrium.
#[test]
fn replicator_limit_matches_solver_on_hawk_dove() {
    let scenario = by_name("hawk-dove").unwrap();
    let solver_eq = &scenario.symmetric_equilibria()[0];
    let game = scenario.game();
    let out = run_replicator(game, &[0.3, 0.7], 1e-13, 1_000_000).unwrap();
    for (a, b) in out.shares.iter().zip(&solver_eq.x) {
        assert!((a - b).abs() < 1e-4, "replicator {:?} vs solver {:?}", out.shares, solver_eq.x);
    }
    // Both certify through the same Definition 1.1 gap.
    assert!(bimatrix_gap(game, &solver_eq.x, &solver_eq.x).unwrap() <= CERT_TOL);
    assert!(bimatrix_gap(game, &out.shares, &out.shares).unwrap() < 1e-3);
}

/// RPS has a unique interior equilibrium (uniform); it is a replicator
/// fixed point, and no other interior fixed point exists.
#[test]
fn replicator_fixed_point_matches_solver_on_rps() {
    let scenario = by_name("rock-paper-scissors").unwrap();
    let eqs = scenario.symmetric_equilibria();
    assert_eq!(eqs.len(), 1);
    let uniform = &eqs[0].x;
    assert!(uniform.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-12));
    let game = scenario.game();
    // Started exactly at the solver equilibrium, replication does not move.
    let out = run_replicator(game, uniform, 0.0, 50).unwrap();
    for (a, b) in out.shares.iter().zip(uniform) {
        assert!((a - b).abs() < 1e-12, "uniform must be a fixed point");
    }
    assert!(out.final_step_change < 1e-12);
    assert!(bimatrix_gap(game, uniform, uniform).unwrap() <= CERT_TOL);
    // An interior replicator fixed point has equal fitness across its
    // support, i.e. it solves the same indifference system the solver
    // enumerates: perturbing off-uniform, fitness differences reappear.
    let perturbed = [0.4, 0.35, 0.25];
    let moved = run_replicator(game, &perturbed, 0.0, 1).unwrap();
    let drift: f64 = moved
        .shares
        .iter()
        .zip(&perturbed)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(drift > 1e-4, "off-equilibrium points must move");
}

/// The one-shot PD: replicator, solver, and the Definition 1.1 gap agree that
/// all-defect is the unique rest point.
#[test]
fn replicator_limit_matches_solver_on_pd() {
    let scenario = by_name("prisoners-dilemma").unwrap();
    let eqs = scenario.symmetric_equilibria();
    assert_eq!(eqs.len(), 1);
    assert!((eqs[0].x[1] - 1.0).abs() < 1e-12);
    let out = run_replicator(scenario.game(), &[0.9, 0.1], 1e-12, 200_000).unwrap();
    assert!((out.shares[1] - eqs[0].x[1]).abs() < 1e-3);
}

/// The zero-sum LP and support enumeration agree on every square
/// zero-sum scenario in the registry.
#[test]
fn lp_and_enumeration_agree_on_zero_sum_games() {
    for seed in 0..20u64 {
        let scenario = popgame_solver::scenarios::Scenario::random_zero_sum(3, seed).unwrap();
        let sol = solve_zero_sum(scenario.game().row_matrix()).unwrap();
        let eqs = enumerate_equilibria(scenario.game());
        assert!(!eqs.is_empty(), "seed {seed}: no equilibrium found");
        for eq in &eqs {
            assert!(
                (eq.row_value - sol.value).abs() < 1e-7,
                "seed {seed}: {} vs {}",
                eq.row_value,
                sol.value
            );
        }
        // The LP strategies themselves are an (approximate) equilibrium.
        assert!(
            bimatrix_gap(scenario.game(), &sol.row_strategy, &sol.col_strategy).unwrap() < 1e-7
        );
    }
}

/// Every symmetric scenario's dynamics run on the batched engine and
/// conserve agents; deterministic for a fixed seed.
#[test]
fn registry_dynamics_run_on_the_batched_engine() {
    for scenario in registry() {
        if !scenario.game().is_symmetric(1e-9) {
            continue;
        }
        for rule in [
            DynamicsRule::BestResponse,
            DynamicsRule::Logit { eta: 1.0 },
            DynamicsRule::Imitation,
        ] {
            let dynamics = scenario.dynamics(rule).unwrap();
            let k = scenario.game().k();
            let uniform = vec![1.0 / k as f64; k];
            let run = |seed: u64| {
                let mut engine = engine_from_profile(dynamics.clone(), &uniform, 600).unwrap();
                let mut rng = rng_from_seed(seed);
                engine
                    .run_batched(6_000, engine.suggested_batch(), &mut rng)
                    .unwrap();
                engine.counts().to_vec()
            };
            let counts = run(11);
            assert_eq!(counts.iter().sum::<u64>(), 600, "{}", scenario.name());
            assert_eq!(counts, run(11), "{} {:?} not deterministic", scenario.name(), rule);
        }
    }
}

fn random_symmetric_game(k: usize, entries: &[f64]) -> MatrixGame {
    let rows: Vec<Vec<f64>> = (0..k).map(|i| entries[i * k..(i + 1) * k].to_vec()).collect();
    MatrixGame::symmetric(rows).unwrap()
}

proptest! {
    /// Certification, solver side: on random 2×2…4×4 symmetric games,
    /// every symmetric equilibrium the solver returns passes the
    /// Definition 1.1 ε-gap at ε ≤ 1e-9.
    #[test]
    fn prop_solver_equilibria_pass_de_checker(
        k in 2usize..=4,
        entries in proptest::collection::vec(-5.0..5.0f64, 16),
    ) {
        let game = random_symmetric_game(k, &entries);
        let eqs = symmetric_equilibria(&game).unwrap();
        for eq in &eqs {
            let gap = bimatrix_gap(&game, &eq.x, &eq.x).unwrap();
            prop_assert!(gap <= 1e-9, "gap {gap} for {:?}", eq.x);
        }
        // Bimatrix enumeration too: full profiles certify at 1e-9.
        for eq in enumerate_equilibria(&game) {
            let gap = bimatrix_gap(&game, &eq.x, &eq.y).unwrap();
            prop_assert!(gap <= 1e-9, "bimatrix gap {gap}");
        }
    }

    /// Random bimatrix (asymmetric) games also produce only certified
    /// equilibria, and nondegenerate 2×2 games always have at least one.
    #[test]
    fn prop_bimatrix_enumeration_is_certified(
        row in proptest::collection::vec(-5.0..5.0f64, 4),
        col in proptest::collection::vec(-5.0..5.0f64, 4),
    ) {
        let game = MatrixGame::bimatrix(
            vec![row[0..2].to_vec(), row[2..4].to_vec()],
            vec![col[0..2].to_vec(), col[2..4].to_vec()],
        ).unwrap();
        let eqs = enumerate_equilibria(&game);
        prop_assert!(!eqs.is_empty(), "a finite game has an equilibrium");
        for eq in &eqs {
            prop_assert!(bimatrix_gap(&game, &eq.x, &eq.y).unwrap() <= 1e-9);
        }
    }
}
