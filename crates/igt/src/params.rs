//! Configuration of the `k`-IGT dynamics: population composition,
//! generosity grid, and game parameters.

use crate::error::IgtError;
use popgame_game::params::GameParams;
use popgame_solver::dynamics::{DynamicsRule, GameDynamics};
use popgame_solver::game::MatrixGame;

/// The `(α, β, γ)` population composition (Section 1.1.2): fractions of
/// `AC`, `AD`, and `GTFT` agents, summing to one.
///
/// # Example
///
/// ```
/// use popgame_igt::params::PopulationComposition;
///
/// let comp = PopulationComposition::new(0.3, 0.2, 0.5)?;
/// assert_eq!(comp.lambda(), 4.0); // (1 - β)/β
/// # Ok::<(), popgame_igt::IgtError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationComposition {
    alpha: f64,
    beta: f64,
    gamma: f64,
}

impl PopulationComposition {
    /// Creates a composition.
    ///
    /// # Errors
    ///
    /// Returns [`IgtError::InvalidComposition`] unless all fractions are
    /// non-negative and finite, `α + β + γ = 1` (within `1e-9`), `γ > 0`
    /// (there must be agents to update) and `β > 0` (`λ = (1−β)/β` must be
    /// finite, as required throughout Section 2.4).
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Result<Self, IgtError> {
        let all_finite = alpha.is_finite() && beta.is_finite() && gamma.is_finite();
        if !all_finite || alpha < 0.0 || beta < 0.0 || gamma < 0.0 {
            return Err(IgtError::InvalidComposition {
                reason: format!("fractions must be finite and non-negative: ({alpha}, {beta}, {gamma})"),
            });
        }
        let total = alpha + beta + gamma;
        if (total - 1.0).abs() > 1e-9 {
            return Err(IgtError::InvalidComposition {
                reason: format!("fractions sum to {total}, expected 1"),
            });
        }
        if gamma <= 0.0 {
            return Err(IgtError::InvalidComposition {
                reason: "gamma must be positive (no GTFT agents to update otherwise)".into(),
            });
        }
        if beta <= 0.0 {
            return Err(IgtError::InvalidComposition {
                reason: "beta must be positive (lambda = (1-beta)/beta must be finite)".into(),
            });
        }
        Ok(Self { alpha, beta, gamma })
    }

    /// Fraction of `AC` agents `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Fraction of `AD` agents `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Fraction of `GTFT` agents `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The bias ratio `λ = (1−β)/β` of Theorem 2.7.
    pub fn lambda(&self) -> f64 {
        (1.0 - self.beta) / self.beta
    }

    /// Splits a concrete population of `n` agents into integer group sizes
    /// `(n_ac, n_ad, n_gtft)` by largest-remainder rounding, guaranteeing
    /// the sizes sum to `n`.
    ///
    /// # Errors
    ///
    /// Returns [`IgtError::PopulationTooSmall`] when rounding leaves no
    /// GTFT agent, or `n < 2`.
    pub fn group_sizes(&self, n: u64) -> Result<(u64, u64, u64), IgtError> {
        if n < 2 {
            return Err(IgtError::PopulationTooSmall {
                n,
                reason: "need at least two agents to interact".into(),
            });
        }
        let targets = [self.alpha * n as f64, self.beta * n as f64, self.gamma * n as f64];
        let mut sizes: Vec<u64> = targets.iter().map(|t| t.floor() as u64).collect();
        let mut leftover = n - sizes.iter().sum::<u64>();
        // Assign leftovers to the largest fractional remainders.
        let mut order: Vec<usize> = (0..3).collect();
        order.sort_by(|&i, &j| {
            let fi = targets[i] - targets[i].floor();
            let fj = targets[j] - targets[j].floor();
            fj.partial_cmp(&fi).expect("finite fractions")
        });
        for &i in &order {
            if leftover == 0 {
                break;
            }
            sizes[i] += 1;
            leftover -= 1;
        }
        if sizes[2] == 0 {
            return Err(IgtError::PopulationTooSmall {
                n,
                reason: format!("gamma = {} rounds to zero GTFT agents", self.gamma),
            });
        }
        Ok((sizes[0], sizes[1], sizes[2]))
    }
}

/// The generosity grid `G = {g_1, …, g_k}` with `g_j = ĝ·(j−1)/(k−1)`
/// (Definition 2.1).
///
/// # Example
///
/// ```
/// use popgame_igt::params::GenerosityGrid;
///
/// let grid = GenerosityGrid::new(4, 0.6)?;
/// assert!((grid.value(1) - 0.2).abs() < 1e-12);
/// assert!((grid.value(3) - 0.6).abs() < 1e-12);
/// assert_eq!(grid.increment(3), 3); // capped at the top level
/// # Ok::<(), popgame_igt::IgtError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerosityGrid {
    k: usize,
    g_max: f64,
}

impl GenerosityGrid {
    /// Creates the grid.
    ///
    /// # Errors
    ///
    /// Returns [`IgtError::InvalidGrid`] unless `k ≥ 2` and `ĝ ∈ (0, 1]`.
    pub fn new(k: usize, g_max: f64) -> Result<Self, IgtError> {
        if k < 2 || !g_max.is_finite() || g_max <= 0.0 || g_max > 1.0 {
            return Err(IgtError::InvalidGrid { k, g_max });
        }
        Ok(Self { k, g_max })
    }

    /// Number of levels `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum generosity `ĝ`.
    pub fn g_max(&self) -> f64 {
        self.g_max
    }

    /// The generosity value at 0-indexed `level` (`g_{level+1}` in paper
    /// numbering).
    ///
    /// # Panics
    ///
    /// Panics when `level >= k`.
    pub fn value(&self, level: usize) -> f64 {
        assert!(level < self.k, "level {level} out of range (k = {})", self.k);
        self.g_max * level as f64 / (self.k - 1) as f64
    }

    /// All grid values in order.
    pub fn values(&self) -> Vec<f64> {
        (0..self.k).map(|j| self.value(j)).collect()
    }

    /// `Inc`: the next level up, capped at `k − 1`.
    pub fn increment(&self, level: usize) -> usize {
        (level + 1).min(self.k - 1)
    }

    /// `Dec`: the next level down, floored at 0.
    pub fn decrement(&self, level: usize) -> usize {
        level.saturating_sub(1)
    }
}

/// Full configuration of a `k`-IGT system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IgtConfig {
    composition: PopulationComposition,
    grid: GenerosityGrid,
    game: GameParams,
}

impl IgtConfig {
    /// Bundles a validated composition, grid, and game parameterization.
    pub fn new(
        composition: PopulationComposition,
        grid: GenerosityGrid,
        game: GameParams,
    ) -> Self {
        Self {
            composition,
            grid,
            game,
        }
    }

    /// The population composition.
    pub fn composition(&self) -> PopulationComposition {
        self.composition
    }

    /// The generosity grid.
    pub fn grid(&self) -> GenerosityGrid {
        self.grid
    }

    /// The RD game parameters.
    pub fn game(&self) -> GameParams {
        self.game
    }

    /// The Definition 2.1 walk on this grid: the solver's
    /// [`DynamicsRule::KIgt`] rule over the donation game `(b, c)`, on the
    /// dense states of [`crate::state`].
    ///
    /// # Errors
    ///
    /// Returns [`IgtError::Dynamics`] when the grid has more than 250
    /// levels.
    pub fn dynamics(&self) -> Result<GameDynamics, IgtError> {
        let levels = self.grid.k();
        MatrixGame::donation(self.game.b(), self.game.c())
            .and_then(|game| GameDynamics::new(&game, DynamicsRule::KIgt { levels }))
            .map_err(|e| IgtError::Dynamics {
                reason: e.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn composition_validation() {
        assert!(PopulationComposition::new(0.3, 0.2, 0.5).is_ok());
        assert!(PopulationComposition::new(0.3, 0.2, 0.4).is_err()); // sum
        assert!(PopulationComposition::new(-0.1, 0.5, 0.6).is_err());
        assert!(PopulationComposition::new(0.5, 0.5, 0.0).is_err()); // gamma 0
        assert!(PopulationComposition::new(0.5, 0.0, 0.5).is_err()); // beta 0
        assert!(PopulationComposition::new(f64::NAN, 0.5, 0.5).is_err());
    }

    #[test]
    fn lambda_values() {
        let c = PopulationComposition::new(0.3, 0.2, 0.5).unwrap();
        assert_eq!(c.lambda(), 4.0);
        let half = PopulationComposition::new(0.25, 0.5, 0.25).unwrap();
        assert_eq!(half.lambda(), 1.0);
    }

    #[test]
    fn group_sizes_sum_and_round() {
        let c = PopulationComposition::new(0.3, 0.2, 0.5).unwrap();
        let (ac, ad, gtft) = c.group_sizes(10).unwrap();
        assert_eq!((ac, ad, gtft), (3, 2, 5));
        let (ac, ad, gtft) = c.group_sizes(7).unwrap();
        assert_eq!(ac + ad + gtft, 7);
        assert!(gtft >= 3); // gamma = 0.5 of 7 → 3.5 → rounds to >= 3
    }

    #[test]
    fn group_sizes_errors() {
        let c = PopulationComposition::new(0.3, 0.2, 0.5).unwrap();
        assert!(c.group_sizes(1).is_err());
        // gamma so small it rounds away.
        let tiny = PopulationComposition::new(0.6, 0.399, 0.001).unwrap();
        assert!(tiny.group_sizes(10).is_err());
    }

    #[test]
    fn grid_validation_and_values() {
        assert!(GenerosityGrid::new(1, 0.5).is_err());
        assert!(GenerosityGrid::new(3, 0.0).is_err());
        assert!(GenerosityGrid::new(3, 1.5).is_err());
        assert!(GenerosityGrid::new(3, f64::NAN).is_err());
        let g = GenerosityGrid::new(3, 0.8).unwrap();
        assert_eq!(g.values(), vec![0.0, 0.4, 0.8]);
        assert_eq!(g.value(1), 0.4);
    }

    #[test]
    fn increments_and_decrements_truncate() {
        let g = GenerosityGrid::new(4, 1.0).unwrap();
        assert_eq!(g.increment(0), 1);
        assert_eq!(g.increment(3), 3);
        assert_eq!(g.decrement(0), 0);
        assert_eq!(g.decrement(3), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn value_out_of_range_panics() {
        let g = GenerosityGrid::new(2, 0.5).unwrap();
        let _ = g.value(2);
    }

    #[test]
    fn config_accessors() {
        let config = IgtConfig::new(
            PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
            GenerosityGrid::new(5, 0.7).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        );
        assert_eq!(config.grid().k(), 5);
        assert_eq!(config.composition().beta(), 0.2);
        assert_eq!(config.game().delta(), 0.9);
    }

    #[test]
    fn dynamics_cap_the_grid_at_250_levels() {
        let config = |k| {
            IgtConfig::new(
                PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
                GenerosityGrid::new(k, 0.7).unwrap(),
                GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
            )
        };
        let walk = config(250).dynamics().unwrap();
        assert_eq!(walk.rule(), DynamicsRule::KIgt { levels: 250 });
        let err = config(251).dynamics().unwrap_err();
        assert!(matches!(err, IgtError::Dynamics { .. }), "{err}");
        assert!(err.to_string().contains("251"), "{err}");
    }

    proptest! {
        #[test]
        fn prop_group_sizes_always_sum(
            alpha in 0.0..0.6f64,
            beta_frac in 0.05..0.9f64,
            n in 4u64..5_000,
        ) {
            let beta = (1.0 - alpha) * beta_frac;
            let gamma = 1.0 - alpha - beta;
            prop_assume!(gamma > 0.01);
            let c = PopulationComposition::new(alpha, beta, gamma).unwrap();
            if let Ok((ac, ad, gtft)) = c.group_sizes(n) {
                prop_assert_eq!(ac + ad + gtft, n);
                prop_assert!(gtft >= 1);
            }
        }

        #[test]
        fn prop_grid_values_monotone(k in 2usize..40, g_max in 0.01..=1.0f64) {
            let g = GenerosityGrid::new(k, g_max).unwrap();
            let vals = g.values();
            prop_assert_eq!(vals[0], 0.0);
            prop_assert!((vals[k - 1] - g_max).abs() < 1e-12);
            for w in vals.windows(2) {
                prop_assert!(w[1] > w[0]);
            }
        }
    }
}
