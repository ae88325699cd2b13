//! Error types for equilibrium computation.

use std::error::Error;
use std::fmt;

/// Error raised when checking strategy distributions or equilibrium regimes.
#[derive(Debug, Clone, PartialEq)]
pub enum EquilibriumError {
    /// A strategy distribution was not a pmf over the strategy set.
    InvalidDistribution {
        /// Human-readable description.
        reason: String,
    },
    /// A Theorem 2.9 regime condition failed.
    RegimeViolation {
        /// Which condition, human-readable, with the margin.
        condition: String,
    },
}

impl fmt::Display for EquilibriumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquilibriumError::InvalidDistribution { reason } => {
                write!(f, "invalid strategy distribution: {reason}")
            }
            EquilibriumError::RegimeViolation { condition } => {
                write!(f, "Theorem 2.9 regime violated: {condition}")
            }
        }
    }
}

impl Error for EquilibriumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EquilibriumError::InvalidDistribution {
            reason: "sums to 2".into()
        }
        .to_string()
        .contains("sums to 2"));
        assert!(EquilibriumError::RegimeViolation {
            condition: "lambda < 2".into()
        }
        .to_string()
        .contains("lambda < 2"));
    }

    #[test]
    fn send_sync() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<EquilibriumError>();
    }
}
