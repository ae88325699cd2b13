//! E16: scenario × dynamics × population-size sweep against exact solver
//! equilibria.
//!
//! For each registered scenario-dynamics pair, `R` independent replicas of
//! `n` agents run `30·n` interactions on the batched engine, and the
//! replica-mean total-variation distance between the final empirical
//! strategy frequencies and the *nearest exact symmetric equilibrium*
//! (solver-computed, not hand-derived) is recorded per population size.
//!
//! The equilibrium-computation claim this supports: pairwise
//! sample-of-one revision protocols whose mean-field rest point coincides
//! with a solver equilibrium concentrate on it at rate `O(1/√n)` — the
//! finite-`n` analogue of the paper's ε-DE convergence, now measured
//! against certified ground truth on games far beyond the hard-coded
//! donation instance (Bournez et al.'s symmetric-game generalization).

use crate::experiments::table::{fmt_f, TextTable};
use popgame_dist::divergence::tv_distance;
use popgame_runner::run_replicas;
use popgame_solver::dynamics::DynamicsRule;
use popgame_solver::dynamics::{engine_from_profile, GameDynamics};
use popgame_solver::nash::Equilibrium;
use popgame_solver::scenarios::{by_name, Scenario};
use std::fmt;

/// Population sizes swept (geometric, factor 4).
pub const E16_SIZES: [u64; 4] = [100, 400, 1_600, 6_400];
/// Replicas per (pair, size) cell.
const REPLICAS: u64 = 16;
/// Interactions per agent: the horizon is `HORIZON_PER_AGENT · n`.
const HORIZON_PER_AGENT: u64 = 30;

/// One scenario-dynamics pair of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct E16Row {
    /// Scenario name (registry key).
    pub scenario: String,
    /// Dynamics label (`best-response`, `logit`, `imitation`).
    pub dynamics: &'static str,
    /// Replica-mean TV distance to the nearest exact equilibrium, one
    /// entry per [`E16_SIZES`] population size.
    pub mean_tv: Vec<f64>,
}

impl E16Row {
    /// Whether the distance curve is non-increasing in `n` and ends at
    /// less than `shrink` times its starting value — the "empirical
    /// distance-to-equilibrium decreases with population size" check.
    pub fn is_decreasing(&self, shrink: f64) -> bool {
        self.mean_tv.windows(2).all(|w| w[1] <= w[0] + 1e-12)
            && self.mean_tv.last().unwrap_or(&f64::NAN)
                < &(self.mean_tv.first().unwrap_or(&f64::NAN) * shrink)
    }
}

/// The E16 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E16Report {
    /// One row per scenario-dynamics pair.
    pub rows: Vec<E16Row>,
}

impl fmt::Display for E16Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16: mean TV distance to the nearest exact (solver-computed) equilibrium\nafter {HORIZON_PER_AGENT}n interactions, {REPLICAS} replicas per cell"
        )?;
        let mut header = vec!["scenario".to_string(), "dynamics".to_string()];
        header.extend(E16_SIZES.iter().map(|n| format!("n={n}")));
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let mut cells = vec![row.scenario.clone(), row.dynamics.to_string()];
            cells.extend(row.mean_tv.iter().map(|&d| fmt_f(d)));
            t.row(cells);
        }
        write!(f, "{t}")
    }
}

/// Mean-over-replicas TV distance to the nearest equilibrium for one
/// (dynamics, n) cell.
fn mean_distance(
    dynamics: &GameDynamics,
    equilibria: &[Equilibrium],
    n: u64,
    seed: u64,
) -> f64 {
    let k = dynamics.k();
    let uniform = vec![1.0 / k as f64; k];
    let distances = run_replicas(seed, REPLICAS, |_replica, mut rng| {
        let mut engine = engine_from_profile(dynamics.clone(), &uniform, n)
            .expect("uniform profile is valid");
        engine
            .run_batched(HORIZON_PER_AGENT * n, engine.suggested_batch(), &mut rng)
            .expect("n >= 2");
        let freq = engine.frequencies();
        equilibria
            .iter()
            .map(|eq| tv_distance(&freq, &eq.x).expect("matching dimensions"))
            .fold(f64::INFINITY, f64::min)
    });
    distances.iter().sum::<f64>() / distances.len() as f64
}

/// The swept scenario-dynamics pairs: every symmetric registry classic,
/// each under the revision rule whose mean-field rest point is a solver
/// equilibrium (see the module docs of `popgame_solver::dynamics`).
fn sweep_pairs() -> Vec<(&'static Scenario, DynamicsRule)> {
    vec![
        (
            by_name("prisoners-dilemma").expect("registered"),
            DynamicsRule::BestResponse,
        ),
        (
            by_name("prisoners-dilemma").expect("registered"),
            DynamicsRule::Imitation,
        ),
        (
            by_name("hawk-dove").expect("registered"),
            DynamicsRule::BestResponse,
        ),
        (
            by_name("rock-paper-scissors").expect("registered"),
            DynamicsRule::BestResponse,
        ),
        (
            by_name("rock-paper-scissors").expect("registered"),
            DynamicsRule::Logit { eta: 2.0 },
        ),
        (
            by_name("stag-hunt").expect("registered"),
            DynamicsRule::Imitation,
        ),
    ]
}

/// Runs E16: sweeps scenarios × dynamics × population sizes and measures
/// empirical distance to exact equilibrium via the batched engine and the
/// parallel replica harness.
pub fn run_e16(seed: u64) -> E16Report {
    let rows = sweep_pairs()
        .into_iter()
        .enumerate()
        .map(|(pair_idx, (scenario, rule))| {
            let dynamics = scenario.dynamics(rule).expect("symmetric scenario");
            let equilibria = scenario.symmetric_equilibria();
            assert!(
                !equilibria.is_empty(),
                "{} has no symmetric equilibrium",
                scenario.name()
            );
            let mean_tv = E16_SIZES
                .iter()
                .enumerate()
                .map(|(size_idx, &n)| {
                    // Decorrelated seed per cell; replica streams split
                    // further inside run_replicas.
                    let cell_seed = seed
                        .wrapping_add(1 + pair_idx as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(size_idx as u64);
                    mean_distance(&dynamics, &equilibria, n, cell_seed)
                })
                .collect();
            E16Row {
                scenario: scenario.name().to_string(),
                dynamics: rule.label(),
                mean_tv,
            }
        })
        .collect();
    E16Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_distance_decreases_with_population_size() {
        let r = run_e16(20240717);
        assert_eq!(r.rows.len(), 6);
        // Interior-equilibrium dynamics: fluctuation-dominated, so the
        // distance curve must shrink as n grows (the acceptance claim, on
        // more than two scenarios).
        for (scenario, dynamics) in [
            ("hawk-dove", "best-response"),
            ("rock-paper-scissors", "best-response"),
            ("rock-paper-scissors", "logit"),
        ] {
            let row = r
                .rows
                .iter()
                .find(|row| row.scenario == scenario && row.dynamics == dynamics)
                .expect("swept pair");
            assert!(
                row.is_decreasing(0.51),
                "{scenario}/{dynamics} not decreasing: {:?}",
                row.mean_tv
            );
        }
        // Absorbing dynamics reach their pure equilibrium outright.
        for (scenario, dynamics) in [
            ("prisoners-dilemma", "best-response"),
            ("prisoners-dilemma", "imitation"),
            ("stag-hunt", "imitation"),
        ] {
            let row = r
                .rows
                .iter()
                .find(|row| row.scenario == scenario && row.dynamics == dynamics)
                .expect("swept pair");
            let last = *row.mean_tv.last().unwrap();
            assert!(last < 1e-3, "{scenario}/{dynamics} final distance {last}");
        }
        let shown = r.to_string();
        assert!(shown.contains("hawk-dove"));
        assert!(shown.contains("n=6400"));
    }
}
