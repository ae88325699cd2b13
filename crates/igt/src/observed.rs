//! The action-observed IGT variant (remark after Definition 2.1).
//!
//! Definition 2.1 types transitions by the opponent's *strategy*; the paper
//! remarks that for sufficiently large `δ`, essentially the same dynamics
//! arise when transitions are driven by *observed game actions*, because a
//! long game reveals the opponent's type with high probability. Here the
//! GTFT initiator actually plays a full repeated donation game against the
//! responder's materialized strategy and classifies the opponent from the
//! action record; experiment E14 measures both the misclassification rate
//! and the induced deviation from the strategy-typed dynamics.

use crate::params::IgtConfig;
use crate::state::{AgentState, FIRST_LEVEL};
use popgame_game::monte_carlo::play_repeated_game;
use popgame_game::strategy::MemoryOneStrategy;
use popgame_population::protocol::{EnumerableProtocol, Protocol};
use popgame_util::rng::stream_rng;
use rand::Rng;

/// Whether an opponent that defected in `opponent_defections` of `rounds`
/// rounds is classified a defector: strictly more than half of the rounds
/// — robust to the occasional defection echo, the rule the paper's "high
/// probability" remark suggests.
fn classifies_as_defector(opponent_defections: u64, rounds: u64) -> bool {
    2 * opponent_defections > rounds
}

/// The action-observed `k`-IGT protocol: play a game, classify, update,
/// on the dense states of [`crate::state`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedIgtProtocol {
    config: IgtConfig,
}

impl ObservedIgtProtocol {
    /// Builds the protocol.
    pub fn new(config: IgtConfig) -> Self {
        Self { config }
    }

    fn memory_one(&self, state: AgentState) -> MemoryOneStrategy {
        let grid = self.config.grid();
        let s1 = self.config.game().s1();
        match state {
            AgentState::AllC => MemoryOneStrategy::all_c(),
            AgentState::AllD => MemoryOneStrategy::all_d(),
            AgentState::Gtft { level } => MemoryOneStrategy::gtft(grid.value(level), s1),
        }
    }

    /// Plays one game as the initiator at `level` against `responder` and
    /// returns whether the responder was classified as a defector.
    pub fn classify_opponent<R: Rng + ?Sized>(
        &self,
        level: usize,
        responder: AgentState,
        rng: &mut R,
    ) -> bool {
        let initiator = self.memory_one(AgentState::Gtft { level });
        let opponent = self.memory_one(responder);
        let outcome = play_repeated_game(&initiator, &opponent, &self.config.game(), None, rng);
        let defections = outcome.rounds - outcome.col_cooperations;
        classifies_as_defector(defections, outcome.rounds)
    }
}

impl Protocol for ObservedIgtProtocol {
    type State = u8;

    fn interact<R: Rng + ?Sized>(&self, initiator: u8, responder: u8, rng: &mut R) -> (u8, u8) {
        let grid = self.config.grid();
        let new_initiator = match AgentState::from_index(initiator.into()) {
            AgentState::Gtft { level } => {
                let opponent = AgentState::from_index(responder.into());
                let level = if self.classify_opponent(level, opponent, rng) {
                    grid.decrement(level)
                } else {
                    grid.increment(level)
                };
                AgentState::Gtft { level }.index() as u8
            }
            _ => initiator,
        };
        (new_initiator, responder)
    }

    fn is_one_way(&self) -> bool {
        true
    }

    fn has_random_transitions(&self) -> bool {
        // The initiator's update depends on a sampled game transcript.
        true
    }
}

impl EnumerableProtocol for ObservedIgtProtocol {
    fn num_states(&self) -> usize {
        FIRST_LEVEL + self.config.grid().k()
    }

    fn state_index(&self, state: u8) -> usize {
        state.into()
    }

    fn state_at(&self, index: usize) -> u8 {
        index as u8
    }
}

/// Per-opponent-type misclassification rates of the observed dynamics
/// relative to the strategy-typed rule (experiment E14).
#[derive(Debug, Clone, PartialEq)]
pub struct MisclassificationReport {
    /// P(classified defector | opponent AC) — should be ~0.
    pub ac_as_defector: f64,
    /// P(classified cooperator | opponent AD) — should be ~0.
    pub ad_as_cooperator: f64,
    /// P(classified defector | opponent GTFT at the top level) — the
    /// interesting rate; shrinks as `δ → 1`.
    pub gtft_as_defector: f64,
}

/// Measures misclassification rates with `reps` games per opponent type,
/// using the top-level GTFT initiator (the stationary bulk for `λ > 1`).
pub fn misclassification_rates(
    config: &IgtConfig,
    reps: u64,
    seed: u64,
) -> MisclassificationReport {
    let protocol = ObservedIgtProtocol::new(*config);
    let top = config.grid().k() - 1;
    let rate = |opponent: AgentState, as_defector: bool, stream: u64| {
        let mut hits = 0u64;
        for rep in 0..reps {
            let mut rng = stream_rng(seed, stream * reps + rep);
            let classified = protocol.classify_opponent(top, opponent, &mut rng);
            if classified == as_defector {
                hits += 1;
            }
        }
        hits as f64 / reps as f64
    };
    MisclassificationReport {
        ac_as_defector: rate(AgentState::AllC, true, 0),
        ad_as_cooperator: 1.0 - rate(AgentState::AllD, true, 1),
        gtft_as_defector: rate(AgentState::Gtft { level: top }, true, 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use popgame_game::params::GameParams;
    use popgame_util::rng::rng_from_seed;

    fn config(delta: f64, s1: f64) -> IgtConfig {
        IgtConfig::new(
            PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
            GenerosityGrid::new(4, 0.6).unwrap(),
            GameParams::new(2.0, 0.5, delta, s1).unwrap(),
        )
    }

    #[test]
    fn classifier_rules() {
        assert!(classifies_as_defector(3, 5));
        assert!(!classifies_as_defector(2, 5));
        assert!(!classifies_as_defector(5, 10));
        assert!(classifies_as_defector(6, 10));
    }

    #[test]
    fn ad_always_classified_as_defector() {
        let p = ObservedIgtProtocol::new(config(0.9, 0.95));
        let mut rng = rng_from_seed(1);
        for _ in 0..200 {
            assert!(p.classify_opponent(2, AgentState::AllD, &mut rng));
        }
    }

    #[test]
    fn ac_never_classified_as_defector() {
        let p = ObservedIgtProtocol::new(config(0.9, 0.95));
        let mut rng = rng_from_seed(2);
        for _ in 0..200 {
            assert!(!p.classify_opponent(2, AgentState::AllC, &mut rng));
        }
    }

    #[test]
    fn transitions_match_strategy_typed_rule_for_fixed_opponents() {
        let p = ObservedIgtProtocol::new(config(0.9, 0.95));
        let mut rng = rng_from_seed(3);
        // GTFT level 1 (state 3) moves up on AC (0), down on AD (1).
        assert_eq!(p.interact(3, 0, &mut rng), (4, 0));
        assert_eq!(p.interact(3, 1, &mut rng), (2, 1));
        // Fixed agents never move; responder untouched (one-way).
        assert_eq!(p.interact(0, 3, &mut rng), (0, 3));
        assert!(p.is_one_way());
        assert_eq!(p.num_states(), 6);
        assert_eq!(p.state_at(3), 3);
        assert_eq!(p.state_index(3), 3);
    }

    #[test]
    fn misclassification_shrinks_as_delta_grows() {
        // Higher δ → longer games → majority vote more reliable for GTFT
        // opponents (with s1 high and generous partners, cooperation
        // dominates).
        let low = misclassification_rates(&config(0.5, 0.95), 3_000, 9);
        let high = misclassification_rates(&config(0.97, 0.95), 3_000, 9);
        assert!(low.ac_as_defector < 1e-9);
        assert!(low.ad_as_cooperator < 1e-9);
        assert!(
            high.gtft_as_defector <= low.gtft_as_defector + 0.01,
            "δ=0.97 rate {} vs δ=0.5 rate {}",
            high.gtft_as_defector,
            low.gtft_as_defector
        );
        assert!(high.gtft_as_defector < 0.15);
    }
}
