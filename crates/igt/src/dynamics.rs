//! The `k`-IGT transition rules (Definition 2.1) and the Ehrenfest mapping
//! (Section 2.4).
//!
//! Strategy-typed rules, applied by the *initiator* only (one-way,
//! footnote 3):
//!
//! ```text
//! (i)   g_j + AC  →  Inc(g_j) + AC
//! (ii)  g_j + g_i →  Inc(g_j) + g_i
//! (iii) g_j + AD  →  Dec(g_j) + AD
//! ```

use crate::params::IgtConfig;
use crate::state::AgentState;
use popgame_ehrenfest::process::{EhrenfestParams, EhrenfestProcess};
use popgame_population::counts::CountedPopulation;
use popgame_population::population::AgentPopulation;
use popgame_population::protocol::{EnumerableProtocol, Protocol};
use rand::Rng;

/// The `k`-IGT dynamics as a population protocol over [`AgentState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IgtProtocol {
    k: usize,
}

impl IgtProtocol {
    /// Builds the protocol for a `k`-level grid.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// Builds the protocol from a config.
    pub fn from_config(config: &IgtConfig) -> Self {
        Self::new(config.grid().k())
    }
}

impl Protocol for IgtProtocol {
    type State = AgentState;

    fn interact<R: Rng + ?Sized>(
        &self,
        initiator: AgentState,
        responder: AgentState,
        _rng: &mut R,
    ) -> (AgentState, AgentState) {
        let new_initiator = match (initiator, responder) {
            (AgentState::Gtft { level }, AgentState::AllD) => AgentState::Gtft {
                level: level.saturating_sub(1),
            },
            (AgentState::Gtft { level }, _) => AgentState::Gtft {
                level: (level + 1).min(self.k - 1),
            },
            (fixed, _) => fixed,
        };
        (new_initiator, responder)
    }

    fn is_one_way(&self) -> bool {
        true
    }
}

impl EnumerableProtocol for IgtProtocol {
    fn num_states(&self) -> usize {
        2 + self.k
    }

    fn state_index(&self, state: AgentState) -> usize {
        state.index()
    }

    fn state_at(&self, index: usize) -> AgentState {
        AgentState::from_index(index)
    }
}

/// Builds the agent-level population for `n` agents: `AC` first, then
/// `AD`, then GTFT agents all starting at `initial_level`.
///
/// # Errors
///
/// Propagates composition rounding errors
/// ([`crate::error::IgtError::PopulationTooSmall`]).
pub fn agent_population(
    config: &IgtConfig,
    n: u64,
    initial_level: usize,
) -> Result<AgentPopulation<AgentState>, crate::error::IgtError> {
    let (ac, ad, gtft) = config.composition().group_sizes(n)?;
    Ok(AgentPopulation::from_groups(&[
        (AgentState::AllC, ac as usize),
        (AgentState::AllD, ad as usize),
        (AgentState::Gtft { level: initial_level }, gtft as usize),
    ]))
}

/// Builds the count-level population (states indexed `AC, AD, g_0, …`).
///
/// # Errors
///
/// Propagates composition rounding errors.
pub fn counted_population(
    config: &IgtConfig,
    n: u64,
    initial_level: usize,
) -> Result<CountedPopulation, crate::error::IgtError> {
    let (ac, ad, gtft) = config.composition().group_sizes(n)?;
    let mut counts = vec![0u64; 2 + config.grid().k()];
    counts[0] = ac;
    counts[1] = ad;
    counts[2 + initial_level] = gtft;
    CountedPopulation::from_counts(counts).map_err(|_| crate::error::IgtError::PopulationTooSmall {
        n,
        reason: "fewer than two agents".into(),
    })
}

/// The Ehrenfest parameters of the idealized count-level chain
/// (Section 2.4): one population interaction maps to one step of the
/// `(k, γ(1−β), γβ, γn)`-Ehrenfest process over the GTFT level counts.
///
/// The mapping uses the *idealized* fractions (sampling the responder with
/// replacement), introducing an `O(1/n)` discrepancy from the agent-level
/// scheduler — exactly the approximation the paper makes in eq. (5).
///
/// # Errors
///
/// Propagates composition rounding errors for the concrete `m = γn`.
pub fn count_level_params(
    config: &IgtConfig,
    n: u64,
) -> Result<EhrenfestParams, crate::error::IgtError> {
    let (_, _, gtft) = config.composition().group_sizes(n)?;
    let beta = config.composition().beta();
    let gamma = config.composition().gamma();
    EhrenfestParams::new(
        config.grid().k(),
        gamma * (1.0 - beta),
        gamma * beta,
        gtft,
    )
    .map_err(|e| crate::error::IgtError::InvalidComposition {
        reason: e.to_string(),
    })
}

/// The idealized count-level process itself, started with every GTFT agent
/// at `initial_level`.
///
/// # Errors
///
/// Propagates composition rounding errors.
pub fn count_level_process(
    config: &IgtConfig,
    n: u64,
    initial_level: usize,
) -> Result<EhrenfestProcess, crate::error::IgtError> {
    let params = count_level_params(config, n)?;
    let mut counts = vec![0u64; config.grid().k()];
    counts[initial_level] = params.m();
    EhrenfestProcess::from_counts(params, counts).map_err(|e| {
        crate::error::IgtError::InvalidComposition {
            reason: e.to_string(),
        }
    })
}

/// Extracts the GTFT level counts `z = (z_1, …, z_k)` from an agent
/// population.
pub fn gtft_level_counts(
    population: &AgentPopulation<AgentState>,
    k: usize,
) -> Vec<u64> {
    let mut counts = vec![0u64; k];
    for state in population.iter() {
        if let AgentState::Gtft { level } = state {
            counts[*level] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use popgame_game::params::GameParams;
    use popgame_util::rng::rng_from_seed;
    use proptest::prelude::*;

    fn config() -> IgtConfig {
        IgtConfig::new(
            PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
            GenerosityGrid::new(4, 0.6).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        )
    }

    #[test]
    fn definition_21_transitions() {
        let p = IgtProtocol::new(4);
        let mut rng = rng_from_seed(1);
        let g1 = AgentState::Gtft { level: 1 };
        // (i) meets AC → increment.
        assert_eq!(
            p.interact(g1, AgentState::AllC, &mut rng).0,
            AgentState::Gtft { level: 2 }
        );
        // (ii) meets GTFT → increment.
        assert_eq!(
            p.interact(g1, AgentState::Gtft { level: 0 }, &mut rng).0,
            AgentState::Gtft { level: 2 }
        );
        // (iii) meets AD → decrement.
        assert_eq!(
            p.interact(g1, AgentState::AllD, &mut rng).0,
            AgentState::Gtft { level: 0 }
        );
        // Responder never changes under the one-way rule.
        assert_eq!(
            p.interact(g1, AgentState::Gtft { level: 3 }, &mut rng).1,
            AgentState::Gtft { level: 3 }
        );
        assert!(p.is_one_way());
    }

    #[test]
    fn truncation_at_grid_ends() {
        let p = IgtProtocol::new(3);
        let mut rng = rng_from_seed(2);
        let top = AgentState::Gtft { level: 2 };
        let bottom = AgentState::Gtft { level: 0 };
        assert_eq!(p.interact(top, AgentState::AllC, &mut rng).0, top);
        assert_eq!(p.interact(bottom, AgentState::AllD, &mut rng).0, bottom);
    }

    #[test]
    fn fixed_strategies_never_change() {
        let p = IgtProtocol::new(3);
        let mut rng = rng_from_seed(3);
        for fixed in [AgentState::AllC, AgentState::AllD] {
            for responder in [
                AgentState::AllC,
                AgentState::AllD,
                AgentState::Gtft { level: 1 },
            ] {
                assert_eq!(p.interact(fixed, responder, &mut rng).0, fixed);
            }
        }
    }

    #[test]
    fn enumeration_round_trips() {
        let p = IgtProtocol::new(5);
        assert_eq!(p.num_states(), 7);
        for i in 0..p.num_states() {
            assert_eq!(p.state_index(p.state_at(i)), i);
        }
    }

    #[test]
    fn populations_constructed_with_exact_groups() {
        let cfg = config();
        let pop = agent_population(&cfg, 100, 0).unwrap();
        assert_eq!(pop.len(), 100);
        assert_eq!(pop.count_where(|s| *s == AgentState::AllC), 30);
        assert_eq!(pop.count_where(|s| *s == AgentState::AllD), 20);
        assert_eq!(pop.count_where(|s| s.is_gtft()), 50);
        assert_eq!(gtft_level_counts(&pop, 4), vec![50, 0, 0, 0]);

        let counted = counted_population(&cfg, 100, 2).unwrap();
        assert_eq!(counted.counts(), &[30, 20, 0, 0, 50, 0]);
    }

    #[test]
    fn ehrenfest_mapping_parameters() {
        let cfg = config();
        let params = count_level_params(&cfg, 100).unwrap();
        // a = γ(1-β) = 0.5*0.8 = 0.4; b = γβ = 0.1; m = 50.
        assert!((params.a() - 0.4).abs() < 1e-12);
        assert!((params.b() - 0.1).abs() < 1e-12);
        assert_eq!(params.m(), 50);
        assert_eq!(params.k(), 4);
        // λ = a/b = 4 = (1-β)/β ✓ (Theorem 2.7).
        assert!((params.lambda() - cfg.composition().lambda()).abs() < 1e-12);
    }

    #[test]
    fn count_level_process_starts_at_initial_level() {
        let cfg = config();
        let proc = count_level_process(&cfg, 60, 3).unwrap();
        assert_eq!(proc.counts(), &[0, 0, 0, 30]);
    }

    #[test]
    fn ac_ad_counts_invariant_under_simulation() {
        let cfg = config();
        let mut pop = agent_population(&cfg, 80, 1).unwrap();
        let protocol = IgtProtocol::from_config(&cfg);
        let mut rng = rng_from_seed(6);
        for _ in 0..20_000 {
            pop.step(&protocol, &mut rng).unwrap();
        }
        assert_eq!(pop.count_where(|s| *s == AgentState::AllC), 24);
        assert_eq!(pop.count_where(|s| *s == AgentState::AllD), 16);
        assert_eq!(gtft_level_counts(&pop, 4).iter().sum::<u64>(), 40);
    }

    proptest! {
        #[test]
        fn prop_update_moves_at_most_one_level(
            level in 0usize..6,
            responder_idx in 0usize..8,
            k in 2usize..7,
        ) {
            prop_assume!(level < k);
            let p = IgtProtocol::new(k);
            let responder = AgentState::from_index(responder_idx.min(k + 1));
            let mut rng = rng_from_seed(0);
            let (next, _) = p.interact(AgentState::Gtft { level }, responder, &mut rng);
            let next_level = next.level().unwrap();
            prop_assert!(next_level.abs_diff(level) <= 1);
            prop_assert!(next_level < k);
        }
    }
}
