#![warn(missing_docs)]

//! The paper-reproduction report harness.
//!
//! Alistarh et al. (PODC 2024) make *experimental* claims: pairwise
//! revision protocols — best response, logit, imitation — run on a
//! well-mixed population concentrate near (approximate) equilibria, with
//! the empirical distance shrinking as the population grows. This crate
//! turns those claims into a **deterministic, regenerable artifact**: one
//! call sweeps the full experiment matrix
//!
//! > scenario registry × {best-response, logit, imitation} × population
//! > sizes × replicas
//!
//! on the batched count-level engine ([`popgame_population::batch`]),
//! fans replicas out through the deterministic harness
//! ([`popgame_runner::run_replicas`]), captures bounded-memory trajectory
//! time series ([`popgame_population::trajectory`]), and renders the
//! evidence as machine-readable `REPORT.json` and human-readable
//! `REPORT.md` — convergence tables (TV distance to the nearest *exact*
//! solver equilibrium), `n^{-α}` decay fits (the paper's `~1/√n`
//! concentration), and absorption statistics.
//!
//! Asymmetric registry scenarios (matching pennies, random zero-sum) have
//! no one-population dynamics of their own; the harness runs them through
//! their symmetrized companion game
//! ([`popgame_solver::game::MatrixGame::symmetrized`]), whose exact
//! symmetric equilibria project onto the original Nash equilibria — so
//! the convergence tables cover **every** registry scenario.
//!
//! Everything is a pure function of [`ReportConfig`]: no clocks, no
//! global state, no hash-order iteration. Two runs with the same config
//! produce byte-identical rendered reports — the property the CLI's
//! golden-file tests and the CI reproduction smoke pin down.
//!
//! # Example
//!
//! ```
//! use popgame_report::{run_report, render, ReportConfig};
//!
//! let mut config = ReportConfig::quick(7);
//! // Shrink far below the quick preset to keep the doctest fast.
//! config.sizes = vec![50, 100];
//! config.replicas = 2;
//! config.horizon_per_agent = 10;
//! let report = run_report(&config).unwrap();
//! let json = render::report_json(&report);
//! let md = render::report_markdown(&report);
//! assert!(json.contains("rock-paper-scissors"));
//! assert!(md.contains("matching-pennies"));
//! // Determinism: a second run renders byte-identically.
//! let again = run_report(&config).unwrap();
//! assert_eq!(render::report_json(&again), json);
//! ```

pub mod harness;
pub mod render;

pub use harness::{
    run_report, run_report_observed, run_report_sequential, ConvergenceCell, ConvergenceRow,
    CycleRow, Report, ReportConfig, ScenarioSummary, SweepObserver, TimeConstantRow,
    TimeConstants, TrajectorySeries, REPRODUCE_SEED, TMIX_EPSILON,
};
