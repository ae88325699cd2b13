#![warn(missing_docs)]

//! Exact equilibrium computation for arbitrary finite matrix games, and the
//! scenario registry of named classics.
//!
//! The paper computes equilibria *dynamically*: a population protocol whose
//! stationary behaviour approximates a distributional equilibrium of one
//! hard-coded repeated donation game. This crate supplies the missing
//! *static* ground truth — exact equilibria of any finite two-player matrix
//! game — so every simulation in the workspace can measure its empirical
//! distance to a solver-certified target instead of a hand-derived fixed
//! point. The generalization from the donation game to arbitrary symmetric
//! matrix games follows the program of Bournez et al. (*Population
//! Protocols that Correspond to Symmetric Games*) and
//! Chatzigiannakis–Spirakis (*The Dynamics of Probabilistic Population
//! Protocols*).
//!
//! # Modules
//!
//! * [`game`] — [`game::MatrixGame`]: arbitrary `K×K` bimatrix, symmetric,
//!   and zero-sum games, lifting the workspace's 2×2 donation game.
//! * [`nash`] — exact equilibrium computation: support enumeration with
//!   linear-feasibility certification for bimatrix games, and the
//!   symmetric-equilibrium search used by one-population dynamics.
//! * [`zerosum`] — the minimax value and optimal strategies of a (possibly
//!   rectangular) zero-sum game via a self-contained dense simplex method.
//! * [`certify`] — ε-Nash certification; on a symmetric profile `(µ, µ)`
//!   the gap is the paper's Definition 1.1 distributional gap.
//! * [`scenarios`] — the named-scenario registry: Prisoner's Dilemma,
//!   Hawk–Dove, Rock–Paper–Scissors, Matching Pennies, Stag Hunt,
//!   coordination, and seeded random games, each exposing its exact
//!   equilibria and population-protocol dynamics.
//! * [`dynamics`] — best-response, logit, and imitation pairwise dynamics
//!   as `popgame_population` protocols runnable on the batched engine.
//! * [`linalg`] — the small dense linear-algebra kernel (Gaussian
//!   elimination) behind the support-enumeration solver.
//!
//! Everything is pure `std` plus workspace crates; the build is offline.
//!
//! # Example
//!
//! ```
//! use popgame_solver::scenarios::Scenario;
//!
//! // Hawk–Dove with V = 2, C = 4: the unique symmetric equilibrium mixes
//! // hawks at V/C = 1/2.
//! let scenario = Scenario::hawk_dove(2.0, 4.0).unwrap();
//! let eqs = scenario.symmetric_equilibria();
//! assert_eq!(eqs.len(), 1);
//! assert!((eqs[0].x[0] - 0.5).abs() < 1e-12);
//! // The solver's output passes the paper's Definition 1.1 gap check.
//! let mu = &eqs[0].x;
//! assert!(popgame_solver::certify::bimatrix_gap(scenario.game(), mu, mu).unwrap() <= 1e-9);
//! ```

pub mod certify;
pub mod dynamics;
pub mod error;
pub mod game;
pub mod linalg;
pub mod nash;
pub mod scenarios;
pub mod zerosum;

pub use error::SolverError;
pub use game::MatrixGame;
pub use nash::{enumerate_equilibria, symmetric_equilibria, Equilibrium};
pub use zerosum::{solve_zero_sum, ZeroSumSolution};
