//! Count-level populations: the scalable engine for enumerable protocols.
//!
//! When a protocol's state space is finite with `K` states, the population
//! state is fully described by the count vector `(x_1, …, x_K)` — this is
//! exactly the abstraction step the paper makes in Section 2.2.1 (agents →
//! count vector `z^t`). One interaction:
//!
//! 1. sample the initiator's state `i` with probability `x_i / n`;
//! 2. sample the responder's state `j` with probability `x_j / (n−1)` after
//!    removing the initiator from its own state's count (the pair is
//!    ordered *without replacement*, matching the agent-level scheduler);
//! 3. apply the protocol's transition to the pair of states.
//!
//! The resulting process is identical in law to
//! [`crate::population::AgentPopulation`] driven by the same protocol — a
//! property the integration tests verify distributionally.

use crate::error::PopulationError;
use crate::protocol::EnumerableProtocol;
use popgame_util::sampler::sample_weighted_index;
use rand::Rng;

/// A population summarized by per-state agent counts.
///
/// # Example
///
/// ```
/// use popgame_population::counts::CountedPopulation;
///
/// let pop = CountedPopulation::from_counts(vec![3, 2]).unwrap();
/// assert_eq!(pop.len(), 5);
/// assert_eq!(pop.count(0), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountedPopulation {
    counts: Vec<u64>,
    n: u64,
    interactions: u64,
}

impl CountedPopulation {
    /// Creates a population from per-state counts.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::TooFewAgents`] when the total is < 2.
    pub fn from_counts(counts: Vec<u64>) -> Result<Self, PopulationError> {
        let n: u64 = counts.iter().sum();
        if n < 2 {
            return Err(PopulationError::TooFewAgents { n: n as usize });
        }
        Ok(Self {
            counts,
            n,
            interactions: 0,
        })
    }

    /// Number of agents.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when there are no agents (cannot occur after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Count of agents in state `index`.
    pub fn count(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// The full count vector.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total interactions executed.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Normalized occupation frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.n as f64)
            .collect()
    }

    /// Executes one interaction under an enumerable protocol. Returns the
    /// sampled `(initiator_state_index, responder_state_index)`.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateOutOfRange`] when the protocol's
    /// state enumeration does not match the count vector length, and
    /// [`PopulationError::InvalidArgument`] for count-coupled protocols
    /// ([`EnumerableProtocol::kernel_depends_on_counts`]), whose law lives
    /// in `pair_kernel_at` and can only be executed by
    /// [`crate::batch::BatchedEngine`].
    pub fn step<P, R>(&mut self, protocol: &P, rng: &mut R) -> Result<(usize, usize), PopulationError>
    where
        P: EnumerableProtocol,
        R: Rng + ?Sized,
    {
        let k = protocol.num_states();
        if self.counts.len() != k {
            return Err(PopulationError::StateOutOfRange {
                index: self.counts.len(),
                num_states: k,
            });
        }
        if protocol.kernel_depends_on_counts() {
            // Count-coupled protocols cannot state their law through
            // `interact`; sampling it here would silently run a wrong law.
            return Err(PopulationError::InvalidArgument {
                reason: "count-coupled protocols must run on BatchedEngine \
                         (their law lives in pair_kernel_at, not interact)"
                    .into(),
            });
        }
        // Initiator ∝ counts.
        let weights: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        let i = sample_weighted_index(&weights, rng).expect("population non-empty");
        // Responder ∝ counts with the initiator removed (ordered pair
        // without replacement).
        let mut resp_weights = weights;
        resp_weights[i] -= 1.0;
        let j = sample_weighted_index(&resp_weights, rng).expect("n >= 2");

        let (si, sj) = (protocol.state_at(i), protocol.state_at(j));
        let (ni, nj) = protocol.interact(si, sj, rng);
        let (ni, nj) = (protocol.state_index(ni), protocol.state_index(nj));
        if ni >= k || nj >= k {
            return Err(PopulationError::StateOutOfRange {
                index: ni.max(nj),
                num_states: k,
            });
        }
        self.counts[i] -= 1;
        self.counts[ni] += 1;
        self.counts[j] -= 1;
        self.counts[nj] += 1;
        self.interactions += 1;
        Ok((i, j))
    }

    /// Runs `steps` interactions.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PopulationError`] from [`step`](Self::step).
    pub fn run<P, R>(&mut self, protocol: &P, steps: u64, rng: &mut R) -> Result<(), PopulationError>
    where
        P: EnumerableProtocol,
        R: Rng + ?Sized,
    {
        for _ in 0..steps {
            self.step(protocol, rng)?;
        }
        Ok(())
    }

    /// Whether every agent holds the same state (at most one non-zero
    /// count). The count-level counterpart of
    /// [`crate::population::AgentPopulation::is_consensus`], and `O(K)`
    /// instead of `O(n)`.
    pub fn is_consensus(&self) -> bool {
        self.counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    /// Reassembles a population from raw parts (used by the batched engine
    /// to hand populations back without re-validation).
    pub(crate) fn from_parts(counts: Vec<u64>, interactions: u64) -> Self {
        let n = counts.iter().sum();
        Self {
            counts,
            n,
            interactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use popgame_util::rng::rng_from_seed;

    /// One-way epidemic over indexed states {0: healthy, 1: infected}.
    struct Epidemic;

    impl Protocol for Epidemic {
        type State = bool;
        fn interact<R: Rng + ?Sized>(&self, i: bool, r: bool, _rng: &mut R) -> (bool, bool) {
            (i || r, r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for Epidemic {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: bool) -> usize {
            usize::from(s)
        }
        fn state_at(&self, i: usize) -> bool {
            i == 1
        }
    }

    #[test]
    fn construction_validation() {
        assert!(CountedPopulation::from_counts(vec![1]).is_err());
        assert!(CountedPopulation::from_counts(vec![0, 0]).is_err());
        let pop = CountedPopulation::from_counts(vec![2, 3]).unwrap();
        assert_eq!(pop.len(), 5);
        assert_eq!(pop.counts(), &[2, 3]);
        assert_eq!(pop.frequencies(), vec![0.4, 0.6]);
    }

    #[test]
    fn step_conserves_population() {
        let mut pop = CountedPopulation::from_counts(vec![10, 5]).unwrap();
        let mut rng = rng_from_seed(3);
        for _ in 0..500 {
            pop.step(&Epidemic, &mut rng).unwrap();
            assert_eq!(pop.counts().iter().sum::<u64>(), 15);
        }
        assert_eq!(pop.interactions(), 500);
    }

    #[test]
    fn epidemic_saturates() {
        let mut pop = CountedPopulation::from_counts(vec![99, 1]).unwrap();
        let mut rng = rng_from_seed(4);
        pop.run(&Epidemic, 20_000, &mut rng).unwrap();
        assert_eq!(pop.count(1), 100, "everyone infected");
    }

    #[test]
    fn wrong_dimension_errors() {
        let mut pop = CountedPopulation::from_counts(vec![5, 5, 5]).unwrap();
        let mut rng = rng_from_seed(5);
        assert!(matches!(
            pop.step(&Epidemic, &mut rng),
            Err(PopulationError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn ordered_pair_excludes_self_state_when_singleton() {
        // One infected agent among healthy: the infected agent can never be
        // both initiator and responder, so infection only spreads when the
        // initiator is healthy and the responder is the single infected one.
        let mut pop = CountedPopulation::from_counts(vec![1, 1]).unwrap();
        let mut rng = rng_from_seed(6);
        // With n = 2, every step pairs the two distinct agents.
        pop.step(&Epidemic, &mut rng).unwrap();
        assert_eq!(pop.counts().iter().sum::<u64>(), 2);
    }
}
