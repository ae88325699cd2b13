#![warn(missing_docs)]

//! The population-protocol substrate (Section 1.1.1 of the paper).
//!
//! A population protocol is a system of `n` anonymous agents, each holding a
//! local state, where at each discrete time step an ordered pair of agents
//! (`initiator`, `responder`) is sampled uniformly at random from the
//! `n(n−1)` ordered pairs and both may update their state according to a
//! common transition function. The paper (footnote 3) follows the standard
//! *one-way* convention where only the initiator updates; this crate
//! supports both.
//!
//! One execution engine, [`batch::BatchedEngine`], runs every
//! [`EnumerableProtocol`]. Agents are anonymous, so it tracks only the
//! count of agents per state (the paper's count vector `z^t`, §2.2.1) and
//! draws the ordered pair of distinct agents with weight `x_i (x_j − δ_ij)`.
//! [`batch::BatchedEngine::step`] and a leap of one interaction are exact;
//! a multinomial τ-leap ([`batch::BatchedEngine::step_batch`]) executes
//! whole batches of interactions in `O(#states²)` work, which is what
//! scales to `n` in the millions.
//!
//! # Example
//!
//! ```
//! use popgame_population::batch::BatchedEngine;
//! use popgame_population::protocol::{EnumerableProtocol, Protocol};
//! use popgame_util::rng::rng_from_seed;
//! use rand::Rng;
//!
//! /// One-way epidemic: an initiator meeting an infected responder is
//! /// infected.
//! struct Epidemic;
//!
//! impl Protocol for Epidemic {
//!     type State = bool;
//!     fn interact<R: Rng + ?Sized>(&self, i: bool, r: bool, _rng: &mut R) -> (bool, bool) {
//!         (i || r, r)
//!     }
//! }
//!
//! impl EnumerableProtocol for Epidemic {
//!     fn num_states(&self) -> usize {
//!         2
//!     }
//!     fn state_index(&self, infected: bool) -> usize {
//!         usize::from(infected)
//!     }
//!     fn state_at(&self, index: usize) -> bool {
//!         index == 1
//!     }
//! }
//!
//! // 99 susceptible agents and one infected agent, one exact interaction
//! // at a time: the infection reaches everyone.
//! let mut engine = BatchedEngine::from_counts(Epidemic, vec![99, 1])?;
//! let mut rng = rng_from_seed(11);
//! engine.run_batched(20_000, 1, &mut rng)?;
//! assert_eq!(engine.counts(), &[0, 100]);
//! # Ok::<(), popgame_population::PopulationError>(())
//! ```

pub mod batch;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod trajectory;

pub use batch::BatchedEngine;
pub use error::PopulationError;
pub use protocol::{EnumerableProtocol, Protocol};
pub use trajectory::{TrajectoryPoint, TrajectoryRecorder};
