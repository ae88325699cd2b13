#![warn(missing_docs)]

//! Distributional equilibria (Definitions 1.1–1.2) and the Theorem 2.9
//! convergence machinery.
//!
//! A distribution `µ` over strategies is an *ε-approximate distributional
//! equilibrium* when no unilateral deviation improves the expected payoff
//! of the average interaction by more than `ε`. For a generic matrix game
//! that gap is `popgame_solver::certify::bimatrix_gap(g, µ, µ)`. This crate
//! provides:
//!
//! * [`rd`] — the `(α, β, γ)`-population specialization (Definition 1.2):
//!   the induced distribution `µ̂`, the equilibrium gap
//!   `Ψ(µ) = max_i E[f(g_i, S)] − E[f(g, S)]`, and the ε(k) decay curve of
//!   Theorem 2.9;
//! * [`taylor`] — the Appendix D decomposition: the variance bound
//!   (Prop. D.2), the uniform second-derivative constant `L` (Prop. D.3),
//!   and the first-order Taylor inequality (Prop. D.1);
//! * [`regime`] — the Theorem 2.9 parameter-regime checker with margins.
//!
//! # Example
//!
//! ```
//! use popgame_equilibrium::rd::equilibrium_gap;
//! use popgame_equilibrium::regime::check_theorem_29;
//! use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
//! use popgame_igt::stationary::mean_stationary_mu;
//! use popgame_game::params::GameParams;
//!
//! let config = IgtConfig::new(
//!     PopulationComposition::new(0.55, 0.05, 0.4)?,
//!     GenerosityGrid::new(16, 0.2)?,
//!     GameParams::new(8.0, 0.4, 0.5, 0.9)?,
//! );
//! check_theorem_29(&config)?; // parameters satisfy the theorem's regime
//! let mu = mean_stationary_mu(&config);
//! let gap = equilibrium_gap(&config, &mu);
//! assert!(gap >= 0.0 && gap < 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod rd;
pub mod regime;
pub mod replicator;
pub mod taylor;

pub use error::EquilibriumError;
