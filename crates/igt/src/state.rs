//! Agent states of the `k`-IGT system.
//!
//! Every simulation runs on dense `u8` states — `AC = 0`, `AD = 1`, GTFT
//! level `j = 2 + j` — the encoding of the solver's k-IGT rule.
//! [`AgentState`] is the typed decode of one such state.

use popgame_game::strategy::StrategyKind;
use std::fmt;

/// The dense state of GTFT level 0; level `j` is `FIRST_LEVEL + j`, and
/// `AC`/`AD` sit below it.
pub const FIRST_LEVEL: usize = 2;

/// The local state of one agent in an `(α, β, γ)` population: `AC` and
/// `AD` agents are immutable; `GTFT` agents carry a 0-indexed generosity
/// level into the grid `G`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentState {
    /// Always-Cooperate (fraction `α`), never updates.
    AllC,
    /// Always-Defect (fraction `β`), never updates.
    AllD,
    /// Generous tit-for-tat at the given grid level (fraction `γ`).
    Gtft {
        /// 0-indexed level into the generosity grid (paper's `g_{level+1}`).
        level: usize,
    },
}

impl AgentState {
    /// The dense state index used by count-level engines:
    /// `AC = 0`, `AD = 1`, `GTFT level j = 2 + j`.
    pub fn index(&self) -> usize {
        match self {
            AgentState::AllC => 0,
            AgentState::AllD => 1,
            AgentState::Gtft { level } => FIRST_LEVEL + level,
        }
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(index: usize) -> AgentState {
        match index {
            0 => AgentState::AllC,
            1 => AgentState::AllD,
            j => AgentState::Gtft { level: j - FIRST_LEVEL },
        }
    }

    /// The typed game strategy this state plays, given the generosity grid
    /// value at its level.
    ///
    /// # Example
    ///
    /// ```
    /// use popgame_igt::state::AgentState;
    /// use popgame_game::strategy::StrategyKind;
    ///
    /// let s = AgentState::Gtft { level: 2 };
    /// assert_eq!(s.strategy_kind(|lvl| 0.1 * lvl as f64), StrategyKind::Gtft(0.2));
    /// ```
    pub fn strategy_kind<F: Fn(usize) -> f64>(&self, grid_value: F) -> StrategyKind {
        match self {
            AgentState::AllC => StrategyKind::AllC,
            AgentState::AllD => StrategyKind::AllD,
            AgentState::Gtft { level } => StrategyKind::Gtft(grid_value(*level)),
        }
    }
}

impl fmt::Display for AgentState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentState::AllC => write!(f, "AC"),
            AgentState::AllD => write!(f, "AD"),
            AgentState::Gtft { level } => write!(f, "g[{level}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        let states = [
            AgentState::AllC,
            AgentState::AllD,
            AgentState::Gtft { level: 0 },
            AgentState::Gtft { level: 7 },
        ];
        for s in states {
            assert_eq!(AgentState::from_index(s.index()), s);
        }
    }

    #[test]
    fn strategy_kind_mapping() {
        assert_eq!(
            AgentState::AllC.strategy_kind(|_| 0.0),
            StrategyKind::AllC
        );
        assert_eq!(
            AgentState::AllD.strategy_kind(|_| 0.0),
            StrategyKind::AllD
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(AgentState::AllC.to_string(), "AC");
        assert_eq!(AgentState::AllD.to_string(), "AD");
        assert_eq!(AgentState::Gtft { level: 2 }.to_string(), "g[2]");
    }
}
