//! E1 (Theorem 2.4), E5 (Theorem 2.7), and E11 (Figure 2): stationary laws.

use crate::experiments::table::{fmt_f, TextTable};
use popgame_dist::divergence::tv_distance;
use popgame_ehrenfest::exact::{exact_chain, simplex, verify_theorem_24};
use popgame_ehrenfest::mixing::empirical_tv_at;
use popgame_ehrenfest::process::{EhrenfestParams, EhrenfestProtocol};
use popgame_ehrenfest::stationary::stationary_distribution;
use popgame_game::params::GameParams;
use popgame_igt::dynamics::{count_level_process, walk_engine};
use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
use popgame_igt::state::FIRST_LEVEL;
use popgame_igt::stationary::stationary_level_probs;
use popgame_igt::trajectory::time_averaged_distribution;
use popgame_population::batch::BatchedEngine;
use popgame_util::rng::rng_from_seed;
use std::fmt;

/// One row of the E1 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Row {
    /// Instance parameters.
    pub k: usize,
    /// Up probability.
    pub a: f64,
    /// Down probability.
    pub b: f64,
    /// Balls.
    pub m: u64,
    /// Detailed-balance residual of the claimed multinomial pmf.
    pub detailed_balance: f64,
    /// `‖πP − π‖_∞`.
    pub stationarity: f64,
    /// TV between the multinomial pmf and power iteration.
    pub tv_power: f64,
    /// Empirical occupancy TV after a long run (sampling-biased upward).
    pub tv_empirical: f64,
}

/// The E1 report: Theorem 2.4 verified exactly and by simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Report {
    /// One row per instance.
    pub rows: Vec<E1Row>,
}

impl E1Report {
    /// The worst exact residual across all instances.
    pub fn worst_exact_residual(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.detailed_balance.max(r.stationarity).max(r.tv_power))
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for E1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E1 (Theorem 2.4): the (k,a,b,m)-Ehrenfest stationary law is Multinomial(m, p_j ∝ λ^(j-1))"
        )?;
        let mut t = TextTable::new(vec![
            "k", "a", "b", "m", "DB resid", "piP-pi", "TV(power)", "TV(empirical)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.k.to_string(),
                fmt_f(r.a),
                fmt_f(r.b),
                r.m.to_string(),
                fmt_f(r.detailed_balance),
                fmt_f(r.stationarity),
                fmt_f(r.tv_power),
                fmt_f(r.tv_empirical),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs E1 over a fixed grid of instances.
///
/// # Panics
///
/// Panics only on internal invariant violations (all instances are sized
/// for exact analysis).
pub fn run_e1(seed: u64) -> E1Report {
    let instances = [
        (2usize, 0.25, 0.25, 10u64),
        (2, 0.4, 0.1, 12),
        (3, 0.3, 0.15, 8),
        (3, 0.3, 0.3, 3), // Figure 2's instance
        (4, 0.2, 0.3, 6),
        (5, 0.45, 0.05, 4),
    ];
    let rows = instances
        .iter()
        .map(|&(k, a, b, m)| {
            let params = EhrenfestParams::new(k, a, b, m).expect("valid instance");
            let exact = verify_theorem_24(&params).expect("small instance");
            // Empirical: occupancy at a time far beyond the upper bound.
            let t = (popgame_ehrenfest::coupling::lemma_a8_upper_bound(&params) * 2.0) as u64;
            let mut start = vec![0u64; k];
            start[0] = m;
            let tv_empirical =
                empirical_tv_at(&params, &start, t, 20_000, seed).expect("small instance");
            E1Row {
                k,
                a,
                b,
                m,
                detailed_balance: exact.detailed_balance_residual,
                stationarity: exact.stationarity_residual,
                tv_power: exact.tv_to_power_iteration,
                tv_empirical,
            }
        })
        .collect();
    E1Report { rows }
}

/// One row of the E5 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E5Row {
    /// Population size.
    pub n: u64,
    /// Grid size.
    pub k: usize,
    /// AD fraction.
    pub beta: f64,
    /// TV between the exactly stepped walk's ergodic level occupancy and
    /// Theorem 2.7.
    pub tv_exact: f64,
    /// TV between the count-level (Ehrenfest) ergodic occupancy and theory.
    pub tv_count: f64,
}

/// The E5 report: Theorem 2.7 via both simulation engines.
#[derive(Debug, Clone, PartialEq)]
pub struct E5Report {
    /// One row per configuration.
    pub rows: Vec<E5Row>,
}

impl E5Report {
    /// The worst TV across rows and engines.
    pub fn worst_tv(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.tv_exact.max(r.tv_count))
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for E5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E5 (Theorem 2.7): k-IGT level occupancy vs Multinomial(γn, p_j ∝ ((1-β)/β)^(j-1))"
        )?;
        let mut t = TextTable::new(vec!["n", "k", "beta", "TV exact-step", "TV count-level"]);
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                r.k.to_string(),
                fmt_f(r.beta),
                fmt_f(r.tv_exact),
                fmt_f(r.tv_count),
            ]);
        }
        write!(f, "{t}")
    }
}

fn config_for(beta: f64, k: usize) -> IgtConfig {
    let alpha = (1.0 - beta) / 2.0;
    let gamma = 1.0 - alpha - beta;
    IgtConfig::new(
        PopulationComposition::new(alpha, beta, gamma).expect("valid composition"),
        GenerosityGrid::new(k, 0.8).expect("valid grid"),
        GameParams::new(2.0, 0.5, 0.9, 0.95).expect("valid game"),
    )
}

/// Runs E5 over `(n, k, β)` configurations using both engines.
///
/// The configurations are independent Monte-Carlo jobs, so they fan out
/// across threads through the deterministic replica harness
/// ([`popgame_runner::run_replicas`]); the report is bitwise identical for
/// a fixed seed regardless of thread count. Within each job the
/// "exact-step" column runs the k-IGT walk one exact interaction at a time
/// (batch 1, so E5 cross-validates the walk against the idealized chain
/// with no leap error in between) and the "count-level" column τ-leaps the
/// idealized Ehrenfest chain of Section 2.4 as [`EhrenfestProtocol`] on
/// [`BatchedEngine`]. Both go through [`time_averaged_distribution`].
pub fn run_e5(seed: u64) -> E5Report {
    let grid = [
        (120u64, 3usize, 0.2),
        (120, 3, 0.5),
        (240, 5, 0.1),
        (240, 5, 0.35),
        (600, 8, 0.25),
    ];
    let rows = popgame_runner::run_replicas(seed, grid.len() as u64, |job, _rng| {
        let (n, k, beta) = grid[job as usize];
        let cfg = config_for(beta, k);
        let theory = stationary_level_probs(&cfg);
        // Column 1: the walk, stepped exactly.
        let walk = walk_engine(&cfg, n, 0).expect("valid configuration");
        let mu_exact = time_averaged_distribution(
            walk,
            FIRST_LEVEL..,
            80 * n,
            400,
            n.max(64),
            1,
            &mut rng_from_seed(seed ^ job),
        )
        .expect("valid configuration");
        // Column 2: the idealized count-level (Ehrenfest) chain, τ-leaped;
        // its urns are the levels.
        let process = count_level_process(&cfg, n, 0).expect("valid configuration");
        let engine = BatchedEngine::from_counts(
            EhrenfestProtocol::new(process.params()),
            process.counts().to_vec(),
        )
        .expect("m >= 2 balls");
        let batch = engine.suggested_batch();
        let mu_count = time_averaged_distribution(
            engine,
            0..,
            80 * n,
            400,
            n.max(64),
            batch,
            &mut rng_from_seed(seed ^ 0x5eed ^ job),
        )
        .expect("m >= 2 balls");
        E5Row {
            n,
            k,
            beta,
            tv_exact: tv_distance(&mu_exact, &theory).expect("same length"),
            tv_count: tv_distance(&mu_count, &theory).expect("same length"),
        }
    });
    E5Report { rows }
}

/// The E11 report: the exact Figure 2 instance (`k = 3, m = 3`).
#[derive(Debug, Clone, PartialEq)]
pub struct E11Report {
    /// The ten states in rank order.
    pub states: Vec<Vec<u64>>,
    /// The exact multinomial stationary pmf by rank.
    pub pmf: Vec<f64>,
    /// Number of directed non-self edges.
    pub edges: usize,
    /// Worst detailed-balance residual.
    pub detailed_balance: f64,
}

impl fmt::Display for E11Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 (Figure 2): exact k=3, m=3 state graph ({} states, {} directed edges, DB residual {})",
            self.states.len(),
            self.edges,
            fmt_f(self.detailed_balance)
        )?;
        let mut t = TextTable::new(vec!["rank", "state (x1,x2,x3)", "pi(x)"]);
        for (rank, (x, p)) in self.states.iter().zip(&self.pmf).enumerate() {
            t.row(vec![rank.to_string(), format!("{x:?}"), fmt_f(*p)]);
        }
        write!(f, "{t}")
    }
}

/// Runs E11: enumerates Figure 2's instance exactly.
pub fn run_e11() -> E11Report {
    let params = EhrenfestParams::new(3, 0.3, 0.2, 3).expect("valid instance");
    let chain = exact_chain(&params).expect("ten states");
    let space = simplex(&params);
    let pmf = stationary_distribution(&params).pmf_by_rank();
    let edges = (0..chain.len())
        .map(|x| chain.row(x).iter().filter(|&&(y, p)| y != x && p > 0.0).count())
        .sum();
    let detailed_balance = chain
        .detailed_balance_residual(&pmf)
        .expect("matching lengths");
    E11Report {
        states: space.iter().collect(),
        pmf,
        edges,
        detailed_balance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_exact_residuals_vanish() {
        let report = run_e1(7);
        assert_eq!(report.rows.len(), 6);
        assert!(report.worst_exact_residual() < 1e-7);
        for r in &report.rows {
            assert!(
                r.tv_empirical < 0.25,
                "empirical TV too large for k={} m={}: {}",
                r.k,
                r.m,
                r.tv_empirical
            );
        }
        let shown = report.to_string();
        assert!(shown.contains("Theorem 2.4"));
    }

    #[test]
    fn e5_both_engines_match_theorem_27() {
        let report = run_e5(20240717);
        assert_eq!(report.rows.len(), 5);
        assert!(report.worst_tv() < 0.03, "worst TV {}", report.worst_tv());
    }

    #[test]
    fn e11_matches_figure_2() {
        let report = run_e11();
        assert_eq!(report.states.len(), 10);
        // Interior states have 4 outgoing moves; corners fewer. Total
        // directed edges of the k=3,m=3 graph: count by hand = 2 per
        // adjacent pair move; the display only sanity-checks bounds.
        assert!(report.edges > 10 && report.edges < 40);
        assert!(report.detailed_balance < 1e-12);
        assert!((report.pmf.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(report.to_string().contains("Figure 2"));
    }
}
