//! Trajectory recording and stationary-distribution estimation for the
//! `k`-IGT dynamics.
//!
//! The experiment harnesses need two estimators:
//!
//! * a *snapshot series* of the level counts `z^t` (for convergence plots
//!   and mixing diagnostics);
//! * a *time-averaged occupancy* after burn-in (an ergodic estimate of the
//!   normalized mean stationary distribution `µ` of Theorem 2.9).

use crate::dynamics::{agent_population, counted_population, gtft_level_counts, IgtProtocol};
use crate::error::IgtError;
use crate::params::IgtConfig;
use popgame_population::batch::BatchedEngine;
use popgame_population::simulator::record_trajectory;
use popgame_util::rng::rng_from_seed;

/// A recorded trajectory of GTFT level counts.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelTrajectory {
    /// Interactions between snapshots.
    pub stride: u64,
    /// Snapshots of `z^t`, starting at `t = 0`.
    pub snapshots: Vec<Vec<u64>>,
}

impl LevelTrajectory {
    /// The series of average generosities along the trajectory.
    pub fn average_generosities(&self, config: &IgtConfig) -> Vec<f64> {
        self.snapshots
            .iter()
            .map(|z| crate::generosity::average_generosity(config, z))
            .collect()
    }
}

/// Runs the agent-level dynamics for `total` interactions, recording the
/// level counts every `stride` interactions.
///
/// # Errors
///
/// Propagates population construction errors.
///
/// # Panics
///
/// Panics when `stride == 0`.
pub fn simulate_level_trajectory(
    config: &IgtConfig,
    n: u64,
    initial_level: usize,
    total: u64,
    stride: u64,
    seed: u64,
) -> Result<LevelTrajectory, IgtError> {
    let mut population = agent_population(config, n, initial_level)?;
    let k = config.grid().k();
    let snapshots = record_trajectory(
        &IgtProtocol::from_config(config),
        &mut population,
        total,
        stride,
        |population| gtft_level_counts(population, k),
        &mut rng_from_seed(seed),
    );
    Ok(LevelTrajectory { stride, snapshots })
}

/// Ergodic estimate of the normalized stationary distribution `µ ∈ ∆(G)`:
/// runs `burn_in` interactions, then accumulates the level occupancy over
/// `samples` snapshots spaced `stride` interactions apart.
///
/// Runs on the batched count-level engine
/// ([`popgame_population::batch::BatchedEngine`]): the IGT transition
/// function is deterministic, so the engine τ-leaps whole batches of
/// interactions through the cached transition table — orders of magnitude
/// faster than per-interaction agent stepping at large `n`, identical in
/// law up to the `O(batch/n)` leap idealization. Use
/// [`time_averaged_distribution_agent`] for the exact agent-level
/// reference estimator.
///
/// # Errors
///
/// Propagates population construction errors.
pub fn time_averaged_distribution(
    config: &IgtConfig,
    n: u64,
    burn_in: u64,
    samples: u64,
    stride: u64,
    seed: u64,
) -> Result<Vec<f64>, IgtError> {
    let protocol = IgtProtocol::from_config(config);
    let k = config.grid().k();
    let engine = BatchedEngine::new(protocol, counted_population(config, n, 0)?)
        .map_err(|e| IgtError::InvalidComposition {
            reason: e.to_string(),
        })?;
    let mut engine = engine;
    let batch = engine.suggested_batch();
    let mut rng = rng_from_seed(seed);
    engine
        .run_batched(burn_in, batch, &mut rng)
        .expect("population has at least two agents");
    let mut occupancy = vec![0u64; k];
    for _ in 0..samples {
        engine
            .run_batched(stride, batch.min(stride.max(1)), &mut rng)
            .expect("population has at least two agents");
        // States 0 and 1 are AC/AD; levels start at index 2.
        for (acc, &z) in occupancy.iter_mut().zip(&engine.counts()[2..]) {
            *acc += z;
        }
    }
    let total: u64 = occupancy.iter().sum();
    Ok(occupancy
        .into_iter()
        .map(|c| c as f64 / total as f64)
        .collect())
}

/// The agent-level (per-interaction, exact) version of
/// [`time_averaged_distribution`] — the distributional ground truth the
/// batched estimator is validated against.
///
/// # Errors
///
/// Propagates population construction errors.
pub fn time_averaged_distribution_agent(
    config: &IgtConfig,
    n: u64,
    burn_in: u64,
    samples: u64,
    stride: u64,
    seed: u64,
) -> Result<Vec<f64>, IgtError> {
    let mut population = agent_population(config, n, 0)?;
    let protocol = IgtProtocol::from_config(config);
    let k = config.grid().k();
    let mut rng = rng_from_seed(seed);
    for _ in 0..burn_in {
        population
            .step(&protocol, &mut rng)
            .expect("population has at least two agents");
    }
    let mut occupancy = vec![0u64; k];
    for _ in 0..samples {
        for _ in 0..stride {
            population
                .step(&protocol, &mut rng)
                .expect("population has at least two agents");
        }
        for (acc, z) in occupancy.iter_mut().zip(gtft_level_counts(&population, k)) {
            *acc += z;
        }
    }
    let total: u64 = occupancy.iter().sum();
    Ok(occupancy
        .into_iter()
        .map(|c| c as f64 / total as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use crate::stationary::stationary_level_probs;
    use popgame_dist::divergence::tv_distance;
    use popgame_game::params::GameParams;

    fn config(beta: f64, k: usize) -> IgtConfig {
        let alpha = (1.0 - beta) / 2.0;
        let gamma = 1.0 - alpha - beta;
        IgtConfig::new(
            PopulationComposition::new(alpha, beta, gamma).unwrap(),
            GenerosityGrid::new(k, 0.8).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        )
    }

    #[test]
    fn trajectory_shapes() {
        let cfg = config(0.2, 3);
        let traj = simulate_level_trajectory(&cfg, 40, 0, 100, 25, 1).unwrap();
        assert_eq!(traj.snapshots.len(), 5);
        for z in &traj.snapshots {
            assert_eq!(z.iter().sum::<u64>(), 16); // γn = 0.4 · 40 conserved
        }
        let gens = traj.average_generosities(&cfg);
        assert_eq!(gens.len(), 5);
        assert_eq!(gens[0], 0.0); // everyone starts at level 0
    }

    #[test]
    fn generosity_rises_from_cold_start_when_beta_small() {
        let cfg = config(0.1, 4);
        let traj = simulate_level_trajectory(&cfg, 100, 0, 30_000, 30_000, 2).unwrap();
        let gens = traj.average_generosities(&cfg);
        assert!(
            gens.last().unwrap() > &0.5,
            "generosity failed to rise: {gens:?}"
        );
    }


    #[test]
    fn batched_and_agent_estimators_agree() {
        // The batched count-level estimator and the exact agent-level
        // estimator target the same stationary law; both must land within
        // TV 0.06 of Theorem 2.7 and within 0.08 of each other.
        let cfg = config(0.2, 4);
        let batched = time_averaged_distribution(&cfg, 150, 120_000, 300, 300, 5).unwrap();
        let agent = time_averaged_distribution_agent(&cfg, 150, 120_000, 300, 300, 6).unwrap();
        let theory = stationary_level_probs(&cfg);
        assert!(tv_distance(&batched, &theory).unwrap() < 0.06);
        assert!(tv_distance(&agent, &theory).unwrap() < 0.06);
        assert!(tv_distance(&batched, &agent).unwrap() < 0.08);
    }

    #[test]
    fn time_average_matches_theorem_27() {
        // β = 0.2 → λ = 4: the ergodic level occupancy must approach the
        // geometric stationary law.
        let cfg = config(0.2, 4);
        let mu = time_averaged_distribution(&cfg, 200, 200_000, 400, 500, 3).unwrap();
        let theory = stationary_level_probs(&cfg);
        let tv = tv_distance(&mu, &theory).unwrap();
        assert!(tv < 0.05, "TV to Theorem 2.7 law too large: {tv} ({mu:?} vs {theory:?})");
    }
}
