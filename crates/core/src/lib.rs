#![warn(missing_docs)]

//! # popgame
//!
//! A from-scratch Rust reproduction of *Game Dynamics and Equilibrium
//! Computation in the Population Protocol Model* (Alistarh, Chatterjee,
//! Karrabi, Lazarsfeld; PODC 2024, arXiv:2307.07297).
//!
//! `n` anonymous agents interact in uniformly random pairs; on each
//! interaction the pair plays a repeated donation game and the initiator
//! may update its strategy. The paper introduces the *distributional
//! equilibrium* (DE) concept, the `k`-IGT dynamics for tuning GTFT
//! generosity levels, and analyzes them through a new family of
//! high-dimensional weighted Ehrenfest random walks, proving:
//!
//! * **Theorem 2.4** — the `(k,a,b,m)`-Ehrenfest process has a multinomial
//!   stationary law with `p_j ∝ (a/b)^{j−1}`;
//! * **Theorem 2.5** — `t_mix = O(min{k/|a−b|, k²}·m log m)` and `Ω(km)`;
//! * **Theorem 2.7** — the `k`-IGT level counts are such a process with
//!   `a = γ(1−β)`, `b = γβ`, `m = γn`;
//! * **Proposition 2.8** — the closed-form average stationary generosity;
//! * **Theorem 2.9** — the mean stationary distribution is an
//!   `ε`-approximate DE with `ε = O(1/k)`.
//!
//! Every result is re-derived *computationally* in this workspace: exact
//! finite-chain verification where the state space is enumerable, coupling
//! bounds at scale, and Monte-Carlo cross-checks everywhere else. The
//! [`experiments`] module packages each table/figure-equivalent (the E1–E15
//! table in its module docs) as a runnable report.
//!
//! ## Crate map
//!
//! | module | backing crate | contents |
//! |--------|---------------|----------|
//! | [`util`] | `popgame-util` | numerics, statistics, samplers |
//! | [`dist`] | `popgame-dist` | simplex `∆^m_k`, multinomial/binomial |
//! | [`markov`] | `popgame-markov` | chains, mixing, couplings, walks |
//! | [`game`] | `popgame-game` | repeated donation games, payoffs |
//! | [`population`] | `popgame-population` | the protocol substrate |
//! | [`ehrenfest`] | `popgame-ehrenfest` | the `(k,a,b,m)` process |
//! | [`igt`] | `popgame-igt` | the `k`-IGT dynamics |
//! | [`equilibrium`] | `popgame-equilibrium` | ε-DE machinery |
//! | [`solver`] | `popgame-solver` | exact Nash solvers + scenario registry |
//! | [`report`] | `popgame-report` | the paper-reproduction report harness |
//!
//! ## Quickstart
//!
//! ```
//! use popgame::prelude::*;
//!
//! // An (α, β, γ) population with a 6-level generosity grid.
//! let config = IgtConfig::new(
//!     PopulationComposition::new(0.3, 0.2, 0.5)?,
//!     GenerosityGrid::new(6, 0.6)?,
//!     GameParams::new(2.0, 0.5, 0.9, 0.95)?,
//! );
//!
//! // Theorem 2.7 stationary law and Proposition 2.8 average generosity.
//! let probs = stationary_level_probs(&config);
//! assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! let eg = stationary_average_generosity(&config);
//! assert!(eg > 0.0 && eg < 0.6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use popgame_dist as dist;
pub use popgame_ehrenfest as ehrenfest;
pub use popgame_equilibrium as equilibrium;
pub use popgame_game as game;
pub use popgame_igt as igt;
pub use popgame_markov as markov;
pub use popgame_population as population;
pub use popgame_report as report;
pub use popgame_solver as solver;
pub use popgame_util as util;

pub mod experiments;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use popgame_dist::divergence::tv_distance;
    pub use popgame_dist::multinomial::Multinomial;
    pub use popgame_dist::simplex::SimplexSpace;
    pub use popgame_ehrenfest::process::{EhrenfestParams, EhrenfestProcess};
    pub use popgame_ehrenfest::stationary::stationary_distribution as ehrenfest_stationary;
    pub use popgame_equilibrium::rd::{
        equilibrium_gap, gap_at_mean_stationary, in_effective_decay_regime,
    };
    pub use popgame_equilibrium::regime::check_theorem_29;
    pub use popgame_equilibrium::replicator::run_replicator;
    pub use popgame_game::monte_carlo::{estimate_payoffs, play_repeated_game, NoiseModel};
    pub use popgame_game::params::GameParams;
    pub use popgame_game::payoff::{expected_payoff, gtft_vs_alld, gtft_vs_gtft};
    pub use popgame_game::strategy::{MemoryOneStrategy, StrategyKind};
    pub use popgame_igt::generosity::stationary_average_generosity;
    pub use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
    pub use popgame_igt::state::AgentState;
    pub use popgame_igt::stationary::{mean_stationary_mu, stationary_level_probs};
    pub use popgame_population::batch::BatchedEngine;
    pub use popgame_population::protocol::Protocol;
    pub use popgame_population::trajectory::{TrajectoryPoint, TrajectoryRecorder};
    pub use popgame_report::{run_report, Report, ReportConfig};
    pub use popgame_solver::dynamics::{DynamicsRule, GameDynamics};
    pub use popgame_solver::game::MatrixGame;
    pub use popgame_solver::nash::{enumerate_equilibria, symmetric_equilibria, Equilibrium};
    pub use popgame_solver::scenarios::{by_name as scenario_by_name, registry, Scenario};
    pub use popgame_solver::zerosum::{solve_zero_sum, ZeroSumSolution};
    pub use popgame_util::rng::{rng_from_seed, stream_rng};
}
