//! The `(α, β, γ)`-population specialization (Definition 1.2).
//!
//! Given `µ ∈ ∆(G)` over the generosity grid, the induced distribution
//! `µ̂ ∈ ∆(S)` over the full strategy set `S = {AC, AD, g_1, …, g_k}` is
//! `µ̂(AC) = α`, `µ̂(AD) = β`, `µ̂(g_i) = γ·µ(i)` (eq. 3). `µ` is an
//! ε-approximate DE when
//!
//! ```text
//! E_{g∼µ, S∼µ̂}[f(g, S)] ≥ max_{g'∈G} E_{S∼µ̂}[f(g', S)] − ε .
//! ```
//!
//! All payoffs are evaluated through the closed forms of Appendix B
//! (`popgame-game`), so the equilibrium gap `Ψ(µ)` is exact up to floating
//! point.

use popgame_game::payoff::{expected_payoff_kinds, gtft_payoff_closed};
use popgame_game::strategy::StrategyKind;
use popgame_igt::params::IgtConfig;
use popgame_solver::{MatrixGame, SolverError};

/// The induced distribution `µ̂` over `S = {AC, AD, g_1, …, g_k}` (eq. 3),
/// indexed `[AC, AD, g_1, …, g_k]`.
///
/// # Panics
///
/// Panics when `mu.len()` differs from the grid size.
pub fn induced_distribution(config: &IgtConfig, mu: &[f64]) -> Vec<f64> {
    let k = config.grid().k();
    assert_eq!(mu.len(), k, "mu must have one entry per grid level");
    let comp = config.composition();
    let mut out = Vec::with_capacity(k + 2);
    out.push(comp.alpha());
    out.push(comp.beta());
    out.extend(mu.iter().map(|&p| comp.gamma() * p));
    out
}

/// `E_{S∼µ̂}[f(g_i, S)]`: the expected payoff of a GTFT agent at grid
/// level `i` against an opponent drawn from the induced distribution.
///
/// # Panics
///
/// Panics when `mu.len()` differs from the grid size or `level >= k`.
pub fn level_payoff(config: &IgtConfig, mu: &[f64], level: usize) -> f64 {
    let grid = config.grid();
    let comp = config.composition();
    let game = config.game();
    let g = grid.value(level);
    let mut total = comp.alpha() * gtft_payoff_closed(g, StrategyKind::AllC, &game)
        + comp.beta() * gtft_payoff_closed(g, StrategyKind::AllD, &game);
    for (j, &mu_j) in mu.iter().enumerate() {
        if mu_j > 0.0 {
            total += comp.gamma()
                * mu_j
                * gtft_payoff_closed(g, StrategyKind::Gtft(grid.value(j)), &game);
        }
    }
    total
}

/// `E_{g∼µ, S∼µ̂}[f(g, S)]`: the average GTFT payoff of the population
/// (the left-hand side of Definition 1.2).
pub fn average_gtft_payoff(config: &IgtConfig, mu: &[f64]) -> f64 {
    mu.iter()
        .enumerate()
        .filter(|(_, &p)| p > 0.0)
        .map(|(i, &p)| p * level_payoff(config, mu, i))
        .sum()
}

/// The best unilateral GTFT deviation: `(argmax level, max_i E_{S∼µ̂}
/// [f(g_i, S)])`.
pub fn best_response(config: &IgtConfig, mu: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::NEG_INFINITY);
    for i in 0..config.grid().k() {
        let value = level_payoff(config, mu, i);
        if value > best.1 {
            best = (i, value);
        }
    }
    best
}

/// The equilibrium gap `Ψ(µ) = max_i E[f(g_i, S)] − E_{g∼µ}[f(g, S)]`,
/// floored at zero — the smallest `ε` for which `µ` is an ε-approximate DE
/// (Definition 1.2 / eq. 8).
///
/// # Example
///
/// ```
/// use popgame_equilibrium::rd::equilibrium_gap;
/// use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
/// use popgame_game::params::GameParams;
///
/// let config = IgtConfig::new(
///     PopulationComposition::new(0.55, 0.05, 0.4)?,
///     GenerosityGrid::new(8, 0.2)?,
///     GameParams::new(8.0, 0.4, 0.5, 0.9)?,
/// );
/// // A point mass on the best-response level is an exact DE.
/// let mut point = vec![0.0; 8];
/// point[7] = 1.0;
/// let gap = equilibrium_gap(&config, &point);
/// assert!(gap < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn equilibrium_gap(config: &IgtConfig, mu: &[f64]) -> f64 {
    let (_, best) = best_response(config, mu);
    (best - average_gtft_payoff(config, mu)).max(0.0)
}

/// The gap evaluated at the normalized mean stationary distribution of the
/// `k`-IGT dynamics — the `ε(k)` of Theorem 2.9.
pub fn gap_at_mean_stationary(config: &IgtConfig) -> f64 {
    let mu = popgame_igt::stationary::mean_stationary_mu(config);
    equilibrium_gap(config, &mu)
}

/// The exact derivative `d/dg E_{S∼µ̂}[f(g, S)]` evaluated at `g`:
/// the *net* marginal value of generosity against the induced opponent
/// distribution (`AC` contributes 0, `AD` contributes `−cδ/(1−δ)` scaled
/// by `β`, GTFT partners contribute eq. 47 scaled by `γ·µ_j`).
pub fn net_payoff_slope(config: &IgtConfig, mu: &[f64], g: f64) -> f64 {
    use popgame_game::calculus::dfdg_vs_kind;
    let comp = config.composition();
    let grid = config.grid();
    let game = config.game();
    let mut slope = comp.alpha() * dfdg_vs_kind(g, StrategyKind::AllC, &game)
        + comp.beta() * dfdg_vs_kind(g, StrategyKind::AllD, &game);
    for (j, &mu_j) in mu.iter().enumerate() {
        if mu_j > 0.0 {
            slope += comp.gamma()
                * mu_j
                * dfdg_vs_kind(g, StrategyKind::Gtft(grid.value(j)), &game);
        }
    }
    slope
}

/// Whether the configuration sits in the *effective decay regime*: the net
/// payoff slope at the top of the grid (against the mean stationary µ̂) is
/// positive, so the best response coincides with where the stationary mass
/// concentrates and `ε(k) = O(1/k)` decay actually materializes.
///
/// Empirically (experiment E13) this is *stronger* than Theorem 2.9's
/// literal conditions near `λ = 2`: configurations can satisfy every stated
/// inequality while the net slope is negative, pinning the best response to
/// `g = 0` and stalling the decay. See E13 in the E1–E15 table of
/// `popgame::experiments` (`crates/core/src/experiments/mod.rs`).
pub fn in_effective_decay_regime(config: &IgtConfig) -> bool {
    let mu = popgame_igt::stationary::mean_stationary_mu(config);
    net_payoff_slope(config, &mu, config.grid().g_max()) > 0.0
}

/// Builds the full `(k+2) × (k+2)` symmetric [`MatrixGame`] over
/// `S = {AC, AD, g_1, …, g_k}` via the exact linear-algebra payoffs — used
/// to cross-check Definition 1.2 against the generic Definition 1.1 gap
/// `popgame_solver::certify::bimatrix_gap(g, µ, µ)`.
///
/// # Errors
///
/// Propagates [`SolverError::InvalidGame`] (cannot occur for finite
/// payoffs).
pub fn full_distributional_game(config: &IgtConfig) -> Result<MatrixGame, SolverError> {
    let grid = config.grid();
    let game = config.game();
    let kinds: Vec<StrategyKind> = std::iter::once(StrategyKind::AllC)
        .chain(std::iter::once(StrategyKind::AllD))
        .chain((0..grid.k()).map(|j| StrategyKind::Gtft(grid.value(j))))
        .collect();
    let u1: Vec<Vec<f64>> = kinds
        .iter()
        .map(|&row| {
            kinds
                .iter()
                .map(|&col| expected_payoff_kinds(row, col, &game))
                .collect()
        })
        .collect();
    MatrixGame::symmetric(u1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgame_game::params::GameParams;
    use popgame_igt::params::{GenerosityGrid, PopulationComposition};
    use popgame_igt::stationary::mean_stationary_mu;
    use proptest::prelude::*;

    /// A Theorem 2.9-regime configuration (validated in regime.rs tests).
    fn config(k: usize) -> IgtConfig {
        IgtConfig::new(
            PopulationComposition::new(0.55, 0.05, 0.4).unwrap(),
            GenerosityGrid::new(k, 0.2).unwrap(),
            GameParams::new(8.0, 0.4, 0.5, 0.9).unwrap(),
        )
    }

    #[test]
    fn induced_distribution_structure() {
        let cfg = config(3);
        let mu = [0.2, 0.3, 0.5];
        let hat = induced_distribution(&cfg, &mu);
        assert_eq!(hat.len(), 5);
        assert!((hat[0] - 0.55).abs() < 1e-12);
        assert!((hat[1] - 0.05).abs() < 1e-12);
        assert!((hat[2] - 0.4 * 0.2).abs() < 1e-12);
        assert!((hat.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn level_payoff_matches_manual_mix() {
        let cfg = config(2);
        let game = cfg.game();
        let mu = [0.25, 0.75];
        let grid = cfg.grid();
        let manual = 0.55 * gtft_payoff_closed(grid.value(1), StrategyKind::AllC, &game)
            + 0.05 * gtft_payoff_closed(grid.value(1), StrategyKind::AllD, &game)
            + 0.4 * 0.25
                * gtft_payoff_closed(grid.value(1), StrategyKind::Gtft(grid.value(0)), &game)
            + 0.4 * 0.75
                * gtft_payoff_closed(grid.value(1), StrategyKind::Gtft(grid.value(1)), &game);
        assert!((level_payoff(&cfg, &mu, 1) - manual).abs() < 1e-12);
    }

    #[test]
    fn best_response_is_top_level_in_regime() {
        // In the Theorem 2.9 regime the payoff is increasing in g against
        // the induced distribution, so the top level is the best response.
        let cfg = config(6);
        let mu = mean_stationary_mu(&cfg);
        let (level, _) = best_response(&cfg, &mu);
        assert_eq!(level, 5);
    }

    #[test]
    fn gap_zero_at_best_response_point_mass() {
        let cfg = config(5);
        let mut point = vec![0.0; 5];
        point[4] = 1.0;
        assert!(equilibrium_gap(&cfg, &point) < 1e-9);
    }

    #[test]
    fn gap_positive_at_worst_point_mass() {
        let cfg = config(5);
        let mut point = vec![0.0; 5];
        point[0] = 1.0;
        assert!(equilibrium_gap(&cfg, &point) > 0.01);
    }

    #[test]
    fn epsilon_of_k_decays_roughly_as_one_over_k() {
        let gaps: Vec<f64> = [4usize, 8, 16, 32, 64]
            .iter()
            .map(|&k| gap_at_mean_stationary(&config(k)))
            .collect();
        for w in gaps.windows(2) {
            assert!(w[1] < w[0], "gap failed to decay: {gaps:?}");
        }
        // Fit the decay exponent: ε ~ k^p with p ≈ −1.
        let ks: Vec<f64> = [4.0, 8.0, 16.0, 32.0, 64.0].to_vec();
        let (p, _, r2) = popgame_util::stats::power_law_fit(&ks, &gaps).unwrap();
        assert!(
            (-1.35..=-0.65).contains(&p),
            "decay exponent {p} not ≈ -1 (gaps {gaps:?})"
        );
        assert!(r2 > 0.95, "poor power-law fit r² = {r2}");
    }

    #[test]
    fn definition_12_consistent_with_generic_game() {
        // Rebuild every Definition 1.2 quantity from the full (k+2)-strategy
        // utility matrix (exact linear-algebra payoffs) and compare against
        // the closed-form pathway.
        let cfg = config(4);
        let mu = mean_stationary_mu(&cfg);
        let game = full_distributional_game(&cfg).unwrap();
        let hat = induced_distribution(&cfg, &mu);

        // E_{g∼µ, S∼µ̂}[f(g,S)] from the matrix: rows 2+i are the GTFT
        // strategies.
        let mut avg_matrix = 0.0;
        for (i, &mu_i) in mu.iter().enumerate() {
            for (s, &hat_s) in hat.iter().enumerate() {
                avg_matrix += mu_i * hat_s * game.row(2 + i, s);
            }
        }
        let avg_closed = average_gtft_payoff(&cfg, &mu);
        assert!(
            (avg_matrix - avg_closed).abs() < 1e-8,
            "matrix {avg_matrix} vs closed {avg_closed}"
        );

        // Per-level deviation payoffs must also agree.
        for i in 0..4 {
            let matrix_val: f64 = hat
                .iter()
                .enumerate()
                .map(|(s, &hat_s)| hat_s * game.row(2 + i, s))
                .sum();
            let closed_val = level_payoff(&cfg, &mu, i);
            assert!(
                (matrix_val - closed_val).abs() < 1e-8,
                "level {i}: {matrix_val} vs {closed_val}"
            );
        }

        // Hence the gaps agree.
        let (best_level, best_val) = best_response(&cfg, &mu);
        let matrix_best = (0..4)
            .map(|i| {
                hat.iter()
                    .enumerate()
                    .map(|(s, &hat_s)| hat_s * game.row(2 + i, s))
                    .sum::<f64>()
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((matrix_best - best_val).abs() < 1e-8);
        assert_eq!(best_level, 3, "top level is the best response in regime");
    }

    #[test]
    fn net_slope_matches_finite_difference() {
        let cfg = config(6);
        let mu = mean_stationary_mu(&cfg);
        let g = 0.15;
        let h = 1e-6;
        let numeric = (crate::taylor::payoff_at_generosity(&cfg, &mu, g + h)
            - crate::taylor::payoff_at_generosity(&cfg, &mu, g - h))
            / (2.0 * h);
        let exact = net_payoff_slope(&cfg, &mu, g);
        assert!(
            (exact - numeric).abs() < 1e-4 * (1.0 + exact.abs()),
            "{exact} vs {numeric}"
        );
    }

    #[test]
    fn effective_decay_regime_diagnoses_the_marginal_lambda_plateau() {
        // λ = 19: decay regime; λ = 2.33: every Theorem 2.9 inequality
        // holds but the net slope is negative and ε plateaus (E13).
        let strong = config(16); // β = 0.05
        assert!(in_effective_decay_regime(&strong));
        let marginal = IgtConfig::new(
            PopulationComposition::new((1.0 - 0.3) * 0.55 / 0.95, 0.3, 1.0 - (1.0 - 0.3) * 0.55 / 0.95 - 0.3).unwrap(),
            GenerosityGrid::new(16, 0.2).unwrap(),
            GameParams::new(8.0, 0.4, 0.5, 0.9).unwrap(),
        );
        assert!(!in_effective_decay_regime(&marginal));
        let mu = mean_stationary_mu(&marginal);
        let (level, _) = best_response(&marginal, &mu);
        assert_eq!(level, 0, "negative net slope pins the best response at g = 0");
    }

    proptest! {
        #[test]
        fn prop_gap_nonnegative(
            w in proptest::collection::vec(0.01..1.0f64, 4),
        ) {
            let cfg = config(4);
            let total: f64 = w.iter().sum();
            let mu: Vec<f64> = w.iter().map(|x| x / total).collect();
            prop_assert!(equilibrium_gap(&cfg, &mu) >= 0.0);
        }

        #[test]
        fn prop_average_payoff_below_best(
            w in proptest::collection::vec(0.01..1.0f64, 5),
        ) {
            let cfg = config(5);
            let total: f64 = w.iter().sum();
            let mu: Vec<f64> = w.iter().map(|x| x / total).collect();
            let (_, best) = best_response(&cfg, &mu);
            prop_assert!(average_gtft_payoff(&cfg, &mu) <= best + 1e-12);
        }
    }
}
