//! Trajectory recording and stationary-distribution estimation for the
//! `k`-IGT dynamics.
//!
//! The experiment harnesses need two estimators:
//!
//! * a *snapshot series* of the level counts `z^t` (for convergence plots
//!   and mixing diagnostics);
//! * a *time-averaged occupancy* after burn-in (an ergodic estimate of the
//!   normalized mean stationary distribution `µ` of Theorem 2.9), either
//!   per interaction on an agent population
//!   ([`time_averaged_distribution_agent`]) or in τ-leaps on a count-level
//!   engine ([`time_averaged_distribution`]).

use crate::dynamics::{agent_population, gtft_level_counts};
use crate::error::IgtError;
use crate::params::IgtConfig;
use popgame_population::batch::BatchedEngine;
use popgame_population::error::PopulationError;
use popgame_population::protocol::{EnumerableProtocol, Protocol};
use popgame_population::simulator::record_trajectory;
use popgame_util::rng::rng_from_seed;
use rand::Rng;
use std::ops::RangeFrom;

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
/// Propagates population and walk construction errors.
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
        &config.dynamics()?,
        &mut population,
        total,
        stride,
        |population| gtft_level_counts(population, k),
        &mut rng_from_seed(seed),
    );
    Ok(LevelTrajectory { stride, snapshots })
}

/// Ergodic estimate of the normalized level occupancy, one interaction at
/// a time: starts every GTFT agent of an `n`-agent population at level 0,
/// runs `burn_in` interactions of `protocol`, then accumulates the level
/// occupancy over `samples` snapshots spaced `stride` interactions apart.
///
/// `protocol` is any dynamics over the dense states of [`crate::state`]:
/// the Definition 2.1 walk ([`IgtConfig::dynamics`]) for the exact
/// ground truth, or a variant such as the action-observed
/// [`crate::observed::ObservedIgtProtocol`].
///
/// # Errors
///
/// Propagates population construction errors.
pub fn time_averaged_distribution_agent<P, R>(
    protocol: &P,
    config: &IgtConfig,
    n: u64,
    burn_in: u64,
    samples: u64,
    stride: u64,
    rng: &mut R,
) -> Result<Vec<f64>, IgtError>
where
    P: Protocol<State = u8>,
    R: Rng + ?Sized,
{
    let mut population = agent_population(config, n, 0)?;
    let k = config.grid().k();
    for _ in 0..burn_in {
        population
            .step(protocol, rng)
            .expect("population has at least two agents");
    }
    let mut occupancy = vec![0u64; k];
    for _ in 0..samples {
        for _ in 0..stride {
            population
                .step(protocol, rng)
                .expect("population has at least two agents");
        }
        for (acc, z) in occupancy.iter_mut().zip(gtft_level_counts(&population, k)) {
            *acc += z;
        }
    }
    Ok(normalized(&occupancy))
}

/// Ergodic estimate of the normalized level occupancy in τ-leaps: runs
/// `burn_in` interactions of `engine` at its suggested batch, then
/// accumulates the counts of the `levels` states over `samples` snapshots
/// spaced `stride` interactions apart.
///
/// For the k-IGT walk the levels are `FIRST_LEVEL..`
/// ([`crate::state::FIRST_LEVEL`]); for the Section 2.4 Ehrenfest chain,
/// whose urns are the levels, they are `0..`. The walk draws no randomness
/// per interaction, so the engine leaps whole batches through its
/// transition table: identical in law to the agent-level estimator up to
/// the `O(batch/n)` leap idealization, and orders of magnitude faster at
/// large `n`.
///
/// # Errors
///
/// Returns [`PopulationError`] when the engine holds fewer than two agents.
pub fn time_averaged_distribution<P, R>(
    mut engine: BatchedEngine<P>,
    levels: RangeFrom<usize>,
    burn_in: u64,
    samples: u64,
    stride: u64,
    rng: &mut R,
) -> Result<Vec<f64>, PopulationError>
where
    P: EnumerableProtocol,
    R: Rng + ?Sized,
{
    let batch = engine.suggested_batch();
    engine.run_batched(burn_in, batch, rng)?;
    let mut occupancy = vec![0u64; engine.counts()[levels.clone()].len()];
    for _ in 0..samples {
        engine.run_batched(stride, batch, rng)?;
        for (acc, &z) in occupancy.iter_mut().zip(&engine.counts()[levels.clone()]) {
            *acc += z;
        }
    }
    Ok(normalized(&occupancy))
}

/// Occupancy counts as frequencies.
fn normalized(occupancy: &[u64]) -> Vec<f64> {
    let total: u64 = occupancy.iter().sum();
    occupancy.iter().map(|&c| c as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::walk_engine;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use crate::state::FIRST_LEVEL;
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

    /// The k-IGT walk's ergodic level occupancy in τ-leaps.
    fn batched(cfg: &IgtConfig, n: u64, run: (u64, u64, u64), seed: u64) -> Vec<f64> {
        let (burn_in, samples, stride) = run;
        let engine = walk_engine(cfg, n, 0).unwrap();
        let rng = &mut rng_from_seed(seed);
        time_averaged_distribution(engine, FIRST_LEVEL.., burn_in, samples, stride, rng).unwrap()
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
        let batched = batched(&cfg, 150, (120_000, 300, 300), 5);
        let agent = time_averaged_distribution_agent(
            &cfg.dynamics().unwrap(),
            &cfg,
            150,
            120_000,
            300,
            300,
            &mut rng_from_seed(6),
        )
        .unwrap();
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
        let mu = batched(&cfg, 200, (200_000, 400, 500), 3);
        let theory = stationary_level_probs(&cfg);
        let tv = tv_distance(&mu, &theory).unwrap();
        assert!(tv < 0.05, "TV to Theorem 2.7 law too large: {tv} ({mu:?} vs {theory:?})");
    }
}
