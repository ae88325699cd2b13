//! Error types for population construction and simulation.

use std::error::Error;
use std::fmt;

/// Error raised when constructing or running a population.
#[derive(Debug, Clone, PartialEq)]
pub enum PopulationError {
    /// Populations need at least two agents to schedule an interaction.
    TooFewAgents {
        /// Number of agents supplied.
        n: usize,
    },
    /// A state index was outside the protocol's enumerated state space.
    StateOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of states.
        num_states: usize,
    },
    /// A configuration argument was out of its valid range.
    InvalidArgument {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for PopulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PopulationError::TooFewAgents { n } => {
                write!(f, "population needs at least 2 agents, got {n}")
            }
            PopulationError::StateOutOfRange { index, num_states } => {
                write!(f, "state index {index} out of range (protocol has {num_states} states)")
            }
            PopulationError::InvalidArgument { reason } => {
                write!(f, "invalid argument: {reason}")
            }
        }
    }
}

impl Error for PopulationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PopulationError::TooFewAgents { n: 1 }.to_string().contains("at least 2"));
        assert!(PopulationError::StateOutOfRange {
            index: 5,
            num_states: 3
        }
        .to_string()
        .contains("index 5"));
    }

    #[test]
    fn send_sync() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<PopulationError>();
    }
}
