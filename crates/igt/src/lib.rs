#![warn(missing_docs)]

//! The `k`-IGT (Incremental Generosity Tuning) dynamics — Definition 2.1,
//! the paper's core contribution.
//!
//! In an `(α, β, γ)` population, `AC` and `AD` agents never change, while
//! each `GTFT` agent maintains a generosity level from the grid
//! `G = {g_1, …, g_k}`, `g_j = ĝ·(j−1)/(k−1)`. After an interaction whose
//! initiator is a `GTFT` agent:
//!
//! * meeting `AC` or another `GTFT` agent → increment the level (capped);
//! * meeting `AD` → decrement the level (floored).
//!
//! Three fidelities of the same dynamics, which the tests cross-validate:
//!
//! 1. **strategy-typed** ([`IgtConfig::dynamics`]: the solver's k-IGT
//!    rule on the batched count-level engine, [`dynamics::walk_engine`],
//!    exact one interaction at a time and τ-leaped above that) — exactly
//!    Definition 2.1;
//! 2. **count-level** ([`dynamics::count_level_process`]) — the
//!    `(k, γ(1−β), γβ, γn)`-Ehrenfest process of Section 2.4;
//! 3. **action-observed** ([`observed::ObservedIgtProtocol`]) — agents
//!    actually play an RD game and classify their opponent from observed
//!    actions (the remark after Definition 2.1).
//!
//! All of them run on the same dense `u8` states ([`state`]), and
//! [`trajectory`] holds the time-averaged occupancy estimator they share.
//!
//! [`stationary`] packages Theorem 2.7 (multinomial stationary law with
//! `p_j ∝ ((1−β)/β)^{j−1}` and the mixing bounds), and [`generosity`]
//! implements Proposition 2.8 / Corollary C.1 (average stationary
//! generosity).
//!
//! # Example
//!
//! ```
//! use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
//! use popgame_game::params::GameParams;
//! use popgame_igt::stationary::stationary_level_probs;
//!
//! let config = IgtConfig::new(
//!     PopulationComposition::new(0.3, 0.2, 0.5)?,   // α, β, γ
//!     GenerosityGrid::new(4, 0.6)?,                 // k, ĝ
//!     GameParams::new(2.0, 0.5, 0.9, 0.95)?,        // b, c, δ, s₁
//! );
//! // Theorem 2.7: p_j ∝ λ^{j-1} with λ = (1-β)/β = 4.
//! let probs = stationary_level_probs(&config);
//! assert!((probs[1] / probs[0] - 4.0).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod dynamics;
pub mod error;
pub mod generosity;
pub mod introspection;
pub mod observed;
pub mod params;
pub mod state;
pub mod stationary;
pub mod trajectory;

pub use error::IgtError;
pub use params::{GenerosityGrid, IgtConfig, PopulationComposition};
pub use state::AgentState;
