//! Introspection dynamics with local search — the Proposition 2.2 bridge.
//!
//! Section 2.2 of the paper frames the `k`-IGT rules as *locally optimal*:
//! each transition moves the initiator's generosity to a neighboring grid
//! value that would not have performed worse against the opponent it just
//! met. This module makes the bridge executable:
//!
//! * [`local_best_response`] computes the argmax of `f(·, S)` over the
//!   one-step neighborhood `{level−1, level, level+1}`;
//! * [`IntrospectionProtocol`] is a population protocol that *plays* the
//!   local best response directly (classic "introspection dynamics with
//!   local search" from evolutionary game theory);
//! * [`transitions_coincide_in_regime`] verifies that inside the
//!   Proposition 2.2 regime the best-response protocol takes exactly the
//!   Definition 2.1 transitions (with the payoff tie on `AC` resolved
//!   upward, as the paper's rule does).

use crate::params::IgtConfig;
use crate::state::{AgentState, FIRST_LEVEL};
use popgame_game::payoff::gtft_payoff_closed;
use popgame_game::strategy::StrategyKind;
use popgame_population::protocol::{EnumerableProtocol, Protocol};
use rand::Rng;

/// The opponent's typed strategy as seen by the payoff function.
fn opponent_kind(config: &IgtConfig, state: AgentState) -> StrategyKind {
    state.strategy_kind(|level| config.grid().value(level))
}

/// The local best response: among the current level and its grid
/// neighbors, the one maximizing `f(g', S_opponent)`. Payoff ties are
/// resolved toward the *higher* level (matching Definition 2.1's increment
/// on `AC`, where `f` is constant in `g`).
///
/// # Example
///
/// ```
/// use popgame_igt::introspection::local_best_response;
/// use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
/// use popgame_igt::state::AgentState;
/// use popgame_game::params::GameParams;
///
/// let config = IgtConfig::new(
///     PopulationComposition::new(0.3, 0.2, 0.5)?,
///     GenerosityGrid::new(4, 0.6)?,
///     GameParams::new(2.0, 0.5, 0.9, 0.95)?,
/// );
/// // Against AD, less generosity always pays: move down.
/// assert_eq!(local_best_response(&config, 2, AgentState::AllD), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn local_best_response(config: &IgtConfig, level: usize, opponent: AgentState) -> usize {
    let grid = config.grid();
    let game = config.game();
    let kind = opponent_kind(config, opponent);
    let lo = level.saturating_sub(1);
    let hi = (level + 1).min(grid.k() - 1);
    let mut best_level = lo;
    let mut best_value = f64::NEG_INFINITY;
    for candidate in lo..=hi {
        let value = gtft_payoff_closed(grid.value(candidate), kind, &game);
        // `>=` resolves exact ties toward the higher level.
        if value >= best_value {
            best_value = value;
            best_level = candidate;
        }
    }
    best_level
}

/// Introspection dynamics: the initiator jumps to its local best response
/// against the opponent it just met (one-way), on the dense states of
/// [`crate::state`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntrospectionProtocol {
    config: IgtConfig,
}

impl IntrospectionProtocol {
    /// Builds the protocol.
    pub fn new(config: IgtConfig) -> Self {
        Self { config }
    }
}

impl Protocol for IntrospectionProtocol {
    type State = u8;

    fn interact<R: Rng + ?Sized>(&self, initiator: u8, responder: u8, _rng: &mut R) -> (u8, u8) {
        let new_initiator = match AgentState::from_index(initiator.into()) {
            AgentState::Gtft { level } => {
                let opponent = AgentState::from_index(responder.into());
                let level = local_best_response(&self.config, level, opponent);
                AgentState::Gtft { level }.index() as u8
            }
            _ => initiator,
        };
        (new_initiator, responder)
    }

    fn is_one_way(&self) -> bool {
        true
    }
}

impl EnumerableProtocol for IntrospectionProtocol {
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

/// Verifies the Section 2.2 bridge: inside the Proposition 2.2 regime the
/// local best response equals the Definition 2.1 transition for every
/// `(level, opponent)` pair. Returns the number of pairs checked.
///
/// # Errors
///
/// Returns a human-readable description of the first mismatching pair.
pub fn transitions_coincide_in_regime(config: &IgtConfig) -> Result<usize, String> {
    popgame_game::regime::check_prop22(&config.game(), config.grid().g_max())
        .map_err(|e| e.to_string())?;
    let k = config.grid().k();
    let walk = config.dynamics().map_err(|e| e.to_string())?;
    let mut rng = popgame_util::rng::rng_from_seed(0);
    let mut checked = 0;
    for level in 0..k {
        let initiator = AgentState::Gtft { level }.index() as u8;
        for responder in 0..(FIRST_LEVEL + k) as u8 {
            let opponent = AgentState::from_index(responder.into());
            let br = local_best_response(config, level, opponent);
            let (next, _) = walk.interact(initiator, responder, &mut rng);
            let igt = AgentState::from_index(next.into());
            if igt != (AgentState::Gtft { level: br }) {
                return Err(format!(
                    "mismatch at level {level} vs {opponent}: best response g[{br}], IGT {igt}"
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use popgame_game::params::GameParams;
    use popgame_util::rng::rng_from_seed;

    /// In the Proposition 2.2 regime: δ > c/b and ĝ < 1 − c/(δb).
    fn regime_config() -> IgtConfig {
        IgtConfig::new(
            PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
            GenerosityGrid::new(5, 0.7).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        )
    }

    #[test]
    fn best_response_directions() {
        let cfg = regime_config();
        // Against AD: strictly decreasing in g ⇒ move down.
        assert_eq!(local_best_response(&cfg, 3, AgentState::AllD), 2);
        assert_eq!(local_best_response(&cfg, 0, AgentState::AllD), 0);
        // Against GTFT: strictly increasing ⇒ move up.
        assert_eq!(
            local_best_response(&cfg, 2, AgentState::Gtft { level: 1 }),
            3
        );
        assert_eq!(
            local_best_response(&cfg, 4, AgentState::Gtft { level: 4 }),
            4
        );
        // Against AC: constant payoff, tie resolved upward.
        assert_eq!(local_best_response(&cfg, 1, AgentState::AllC), 2);
    }

    #[test]
    fn bridge_holds_in_regime() {
        let checked = transitions_coincide_in_regime(&regime_config()).unwrap();
        assert_eq!(checked, 5 * 7);
    }

    #[test]
    fn bridge_rejects_out_of_regime_parameters() {
        // δ < c/b: the regime check itself fails.
        let cfg = IgtConfig::new(
            PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
            GenerosityGrid::new(4, 0.9).unwrap(),
            GameParams::new(2.0, 1.5, 0.5, 0.5).unwrap(),
        );
        assert!(transitions_coincide_in_regime(&cfg).is_err());
    }

    #[test]
    fn introspection_protocol_behaves_like_igt_in_regime() {
        let cfg = regime_config();
        let intro = IntrospectionProtocol::new(cfg);
        let igt = cfg.dynamics().unwrap();
        let mut rng = rng_from_seed(1);
        // Levels 0..5 are states 2..7; opponents AC, AD and GTFT level 2.
        for initiator in 2..7u8 {
            for opponent in [0, 1, 4u8] {
                let a = intro.interact(initiator, opponent, &mut rng);
                let b = igt.interact(initiator, opponent, &mut rng);
                assert_eq!(a, b, "state {initiator} vs {opponent}");
            }
        }
        assert!(intro.is_one_way());
        assert_eq!(intro.num_states(), 7);
        assert_eq!(intro.state_at(5), 5);
        assert_eq!(intro.state_index(5), 5);
    }

    #[test]
    fn fixed_agents_never_introspect() {
        let intro = IntrospectionProtocol::new(regime_config());
        let mut rng = rng_from_seed(2);
        assert_eq!(intro.interact(1, 0, &mut rng), (1, 0));
        assert_eq!(intro.interact(0, 1, &mut rng), (0, 1));
    }
}
