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
//! Two execution engines:
//!
//! * [`population::AgentPopulation`] — an explicit vector of agent states
//!   (`O(1)` per interaction, `O(n)` memory), faithful to the model; the
//!   distributional ground truth the count-level engine is tested against;
//! * [`batch::BatchedEngine`] — the count-level engine for enumerable
//!   protocols: it tracks only the count of agents per state (the paper's
//!   count vector `z^t`, §2.2.1), with alias-table `O(1)` exact stepping
//!   identical in law to the agent level, plus a multinomial τ-leap
//!   [`batch::BatchedEngine::step_batch`] that executes whole batches of
//!   interactions in `O(#states²)` work; this is the engine that scales to
//!   `n` in the millions.
//!
//! [`classic`] contains two textbook protocols (3-state approximate
//! majority, pairwise averaging) used as substrate validation and as the
//! `majority_baseline` example.
//!
//! # Example
//!
//! ```
//! use popgame_population::classic::UndecidedDynamics;
//! use popgame_population::population::AgentPopulation;
//! use popgame_population::simulator::run_steps;
//! use popgame_util::rng::rng_from_seed;
//!
//! // 70/30 split: the majority opinion should win.
//! let mut pop = AgentPopulation::from_groups(&[
//!     (popgame_population::classic::Opinion::A, 70),
//!     (popgame_population::classic::Opinion::B, 30),
//! ]);
//! let mut rng = rng_from_seed(11);
//! run_steps(&UndecidedDynamics, &mut pop, 40_000, &mut rng);
//! assert!(pop.iter().all(|&s| s != popgame_population::classic::Opinion::B));
//! ```

pub mod batch;
pub mod classic;
pub mod error;
pub mod metrics;
pub mod population;
pub mod protocol;
pub mod simulator;
pub mod trajectory;

pub use batch::BatchedEngine;
pub use error::PopulationError;
pub use population::AgentPopulation;
pub use protocol::{EnumerableProtocol, Protocol};
pub use trajectory::{TrajectoryPoint, TrajectoryRecorder};
