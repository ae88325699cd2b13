//! Error types for IGT configuration.

use std::error::Error;
use std::fmt;

/// Error raised when configuring the `k`-IGT dynamics.
#[derive(Debug, Clone, PartialEq)]
pub enum IgtError {
    /// Fractions `(α, β, γ)` must be non-negative, sum to 1, with `γ > 0`
    /// and `β > 0` (λ = (1−β)/β must be finite).
    InvalidComposition {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The generosity grid needs `k ≥ 2` and `ĝ ∈ (0, 1]`.
    InvalidGrid {
        /// Levels requested.
        k: usize,
        /// Maximum generosity requested.
        g_max: f64,
    },
    /// A concrete population size was too small to realize the composition.
    PopulationTooSmall {
        /// Population size requested.
        n: u64,
        /// Human-readable description.
        reason: String,
    },
    /// The solver's k-IGT rule refused the configuration: its `u8` states
    /// cap a simulated grid at 250 levels.
    Dynamics {
        /// The solver's description.
        reason: String,
    },
}

impl fmt::Display for IgtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IgtError::InvalidComposition { reason } => {
                write!(f, "invalid (alpha, beta, gamma) composition: {reason}")
            }
            IgtError::InvalidGrid { k, g_max } => {
                write!(f, "invalid generosity grid: k = {k}, g_max = {g_max} (need k >= 2, 0 < g_max <= 1)")
            }
            IgtError::PopulationTooSmall { n, reason } => {
                write!(f, "population n = {n} too small: {reason}")
            }
            IgtError::Dynamics { reason } => write!(f, "no k-IGT walk: {reason}"),
        }
    }
}

impl Error for IgtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(IgtError::InvalidComposition {
            reason: "sums to 0.9".into()
        }
        .to_string()
        .contains("0.9"));
        assert!(IgtError::InvalidGrid { k: 1, g_max: 0.5 }.to_string().contains("k = 1"));
        assert!(IgtError::PopulationTooSmall {
            n: 3,
            reason: "no GTFT agents".into()
        }
        .to_string()
        .contains("n = 3"));
        assert!(IgtError::Dynamics {
            reason: "k-igt needs a 2..=250 level grid, got 300".into()
        }
        .to_string()
        .contains("300"));
    }

    #[test]
    fn send_sync() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<IgtError>();
    }
}
