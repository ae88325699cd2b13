#![warn(missing_docs)]

//! High-dimensional, weighted Ehrenfest processes (Section 2.3 and
//! Appendix A of the paper).
//!
//! The `(k, a, b, m)`-Ehrenfest process (Definition 2.3) is a Markov chain
//! on the lattice simplex `∆^m_k`: `m` balls over `k` ordered urns; at each
//! step a ball is picked uniformly at random, and it moves one urn up with
//! probability `a`, one urn down with probability `b` (truncated at the
//! ends), and stays put otherwise. The `k`-IGT dynamics' count vector is
//! exactly such a process with `a = γ(1−β)`, `b = γβ`, `m = γn`
//! (Section 2.4).
//!
//! This crate provides:
//!
//! * [`process::EhrenfestProcess`] — the exact count-vector simulator,
//!   one step of Definition 2.3 at a time;
//! * [`process::EhrenfestProtocol`] — Definition 2.3 as a one-way
//!   population protocol, which τ-leaps on
//!   [`BatchedEngine`](popgame_population::batch::BatchedEngine) (each
//!   move between adjacent urns is one count flow);
//! * [`coordinate::CoordinateWalk`] — the ball-position view on
//!   `{1..k}^m` used by the paper's coupling;
//! * [`stationary`] — the multinomial stationary law of Theorem 2.4;
//! * [`exact`] — exact [`FiniteChain`](popgame_markov::chain::FiniteChain)
//!   construction over `∆^m_k` for small instances (Figure 2's `k=3, m=3`
//!   graph is ten states);
//! * [`coupling`] — the monotone coupling of Appendix A.4.1 with
//!   Monte-Carlo mixing-time upper bounds;
//! * [`mixing`] — exact mixing times (birth–death projection for `k = 2`,
//!   full chain for small `k, m`) and the Theorem 2.5 bound formulas;
//! * [`cutoff`] — TV-decay profiles around `½ m log m` (Remark 2.6).
//!
//! # Example
//!
//! ```
//! use popgame_ehrenfest::process::{EhrenfestParams, EhrenfestProcess};
//! use popgame_ehrenfest::stationary::stationary_distribution;
//! use popgame_util::rng::rng_from_seed;
//!
//! let params = EhrenfestParams::new(3, 0.4, 0.2, 60)?;
//! let mut process = EhrenfestProcess::all_in_first_urn(params);
//! let mut rng = rng_from_seed(5);
//! process.run(200_000, &mut rng);
//!
//! // After many steps the counts hover near the multinomial mean.
//! let mean = stationary_distribution(&params).mean();
//! let last_urn = process.counts()[2] as f64;
//! assert!((last_urn - mean[2]).abs() < 20.0);
//! # Ok::<(), popgame_ehrenfest::EhrenfestError>(())
//! ```

pub mod coordinate;
pub mod coupling;
pub mod cutoff;
pub mod error;
pub mod exact;
pub mod mixing;
pub mod process;
pub mod stationary;

pub use error::EhrenfestError;
pub use process::{EhrenfestParams, EhrenfestProcess, EhrenfestProtocol};
