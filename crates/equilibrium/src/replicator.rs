//! Discrete-time replicator dynamics — the classical evolutionary baseline.
//!
//! The paper's related-work section contrasts its pairwise-interaction
//! model with the infinite-population replicator approach [Smi82, Now06],
//! where strategy shares evolve by
//!
//! ```text
//! x_i ← x_i · (A x)_i / (xᵀ A x)
//! ```
//!
//! (payoffs shifted to be positive). This module implements that baseline
//! over the *full* strategy set `S = {AC, AD, g_1, …, g_k}` so experiments
//! can compare: the `k`-IGT dynamics holds the `AC`/`AD` fractions fixed
//! and equilibrates only the GTFT levels in `O(kn log n)` interactions,
//! while unconstrained replication may drive the population elsewhere
//! entirely (e.g. to `AD` in one-shot-like regimes). Fixed points of the
//! replicator map with full support are exact distributional equilibria,
//! which the tests verify through `popgame_solver::certify::bimatrix_gap`.

use crate::error::EquilibriumError;
use popgame_solver::MatrixGame;

/// Result of running the replicator map.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatorOutcome {
    /// The final strategy shares.
    pub shares: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// L1 change in the final step (convergence indicator).
    pub final_step_change: f64,
}

/// Runs the discrete replicator map from `initial` shares for at most
/// `max_iter` steps, stopping when the L1 step change drops below `tol`.
///
/// Payoffs are shifted by `1 − min(A)` internally so fitnesses are
/// strictly positive (a standard monotone transformation that preserves
/// the dynamics' fixed points and trajectories' limits).
///
/// # Errors
///
/// Returns [`EquilibriumError::InvalidDistribution`] when `initial` is not
/// a pmf over the game's strategy set.
pub fn run_replicator(
    game: &MatrixGame,
    initial: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<ReplicatorOutcome, EquilibriumError> {
    let n = game.k();
    if initial.len() != n {
        return Err(EquilibriumError::InvalidDistribution {
            reason: format!("initial shares have length {}, need {n}", initial.len()),
        });
    }
    let total: f64 = initial.iter().sum();
    if initial.iter().any(|p| !p.is_finite() || *p < 0.0) || (total - 1.0).abs() > 1e-6 {
        return Err(EquilibriumError::InvalidDistribution {
            reason: "initial shares must be a pmf".into(),
        });
    }
    // Positive shift.
    let mut min_payoff = f64::INFINITY;
    for i in 0..n {
        for j in 0..n {
            min_payoff = min_payoff.min(game.row(i, j));
        }
    }
    let shift = 1.0 - min_payoff.min(0.0);

    let mut x: Vec<f64> = initial.iter().map(|p| p / total).collect();
    let mut change = f64::INFINITY;
    let mut iterations = 0;
    while iterations < max_iter && change > tol {
        // Fitness (A x)_i + shift.
        let fitness: Vec<f64> = (0..n)
            .map(|i| {
                shift
                    + x.iter()
                        .enumerate()
                        .map(|(j, &xj)| xj * game.row(i, j))
                        .sum::<f64>()
            })
            .collect();
        let mean_fitness: f64 = x.iter().zip(&fitness).map(|(xi, fi)| xi * fi).sum();
        let next: Vec<f64> = x
            .iter()
            .zip(&fitness)
            .map(|(xi, fi)| xi * fi / mean_fitness)
            .collect();
        change = next
            .iter()
            .zip(&x)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>();
        x = next;
        iterations += 1;
    }
    Ok(ReplicatorOutcome {
        shares: x,
        iterations,
        final_step_change: change,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgame_game::params::GameParams;
    use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
    use popgame_solver::certify::bimatrix_gap;

    /// One-shot prisoner's dilemma (donation b=2, c=1): defection dominates.
    fn one_shot_pd() -> MatrixGame {
        MatrixGame::donation(2.0, 1.0).unwrap()
    }

    #[test]
    fn validation() {
        let game = one_shot_pd();
        assert!(run_replicator(&game, &[0.5], 1e-9, 10).is_err());
        assert!(run_replicator(&game, &[0.7, 0.7], 1e-9, 10).is_err());
        assert!(run_replicator(&game, &[-0.5, 1.5], 1e-9, 10).is_err());
    }

    #[test]
    fn pd_replicator_converges_to_defection() {
        let game = one_shot_pd();
        let out = run_replicator(&game, &[0.9, 0.1], 1e-12, 100_000).unwrap();
        assert!(out.shares[1] > 0.999, "shares {:?}", out.shares);
        // The limit is an exact DE of the one-shot game.
        assert!(bimatrix_gap(&game, &out.shares, &out.shares).unwrap() < 1e-6);
    }

    #[test]
    fn interior_fixed_point_of_matching_pennies_like_game() {
        // Symmetric Hawk–Dove: interior mixed equilibrium.
        // Payoffs: H vs H: -1, H vs D: 2, D vs H: 0, D vs D: 1.
        let game = MatrixGame::symmetric(vec![
            vec![-1.0, 2.0],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let out = run_replicator(&game, &[0.3, 0.7], 1e-13, 1_000_000).unwrap();
        // Mixed NE: H share solves -h + 2(1-h) = 0·h + 1(1-h) ⇒ h = 1/2.
        assert!((out.shares[0] - 0.5).abs() < 1e-4, "shares {:?}", out.shares);
        assert!(bimatrix_gap(&game, &out.shares, &out.shares).unwrap() < 1e-3);
    }

    #[test]
    fn replication_preserves_the_simplex() {
        let game = one_shot_pd();
        let out = run_replicator(&game, &[0.5, 0.5], 0.0, 50).unwrap();
        assert!((out.shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out.shares.iter().all(|&s| s >= 0.0));
        assert_eq!(out.iterations, 50);
    }

    #[test]
    fn extinct_strategies_stay_extinct() {
        let game = one_shot_pd();
        let out = run_replicator(&game, &[1.0, 0.0], 1e-12, 1_000).unwrap();
        assert_eq!(out.shares[1], 0.0, "replicator cannot resurrect AD");
    }

    #[test]
    fn repeated_game_replicator_reaches_cooperative_boundary_point() {
        // In the full RD game with long games and real GTFT strategies,
        // replication does NOT collapse to AD: retaliation makes AD unfit
        // while GTFT agents are abundant, and it goes extinct. The limit is
        // an AC-heavy *boundary* point earning the full-cooperation rate —
        // but it is NOT an equilibrium: with AD extinct, nothing disciplines
        // unconditional cooperation, and a reborn defector would profit
        // (ε ≫ 0). This is exactly the contrast with the paper's model,
        // which keeps the AD fraction alive as a fixed environment and
        // reaches an ε-approximate DE instead.
        let cfg = IgtConfig::new(
            PopulationComposition::new(0.35, 0.05, 0.6).unwrap(),
            GenerosityGrid::new(4, 0.2).unwrap(),
            GameParams::new(8.0, 0.4, 0.9, 0.95).unwrap(),
        );
        let game = crate::rd::full_distributional_game(&cfg).unwrap();
        let k = cfg.grid().k();
        let uniform = vec![1.0 / (k + 2) as f64; k + 2];
        let out = run_replicator(&game, &uniform, 1e-12, 200_000).unwrap();
        let ad_share = out.shares[1];
        assert!(
            ad_share < 1e-6,
            "AD must go extinct under replication: shares {:?}",
            out.shares
        );
        // The survivors earn the full-cooperation payoff (b−c)/(1−δ) = 76.
        let mean_payoff: f64 = (0..k + 2)
            .map(|i| {
                out.shares[i]
                    * (0..k + 2)
                        .map(|j| out.shares[j] * game.row(i, j))
                        .sum::<f64>()
            })
            .sum();
        assert!((mean_payoff - 76.0).abs() < 1.0, "mean payoff {mean_payoff}");
        // …but the boundary point is invadable by AD: not a DE.
        assert!(
            bimatrix_gap(&game, &out.shares, &out.shares).unwrap() > 1.0,
            "replicator limit unexpectedly an equilibrium"
        );
    }
}
