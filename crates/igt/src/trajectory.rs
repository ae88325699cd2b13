//! Trajectory recording and stationary-distribution estimation for the
//! `k`-IGT dynamics.
//!
//! The experiment harnesses need two estimators:
//!
//! * a *snapshot series* of the level counts `z^t` (for convergence plots
//!   and mixing diagnostics), stepped exactly
//!   ([`simulate_level_trajectory`]);
//! * a *time-averaged occupancy* after burn-in (an ergodic estimate of the
//!   normalized mean stationary distribution `µ` of Theorem 2.9) on a
//!   count-level engine ([`time_averaged_distribution`]), exact at batch 1
//!   and τ-leaped above it.

use crate::dynamics::walk_engine;
use crate::error::IgtError;
use crate::params::IgtConfig;
use crate::state::FIRST_LEVEL;
use popgame_population::batch::BatchedEngine;
use popgame_population::error::PopulationError;
use popgame_population::protocol::EnumerableProtocol;
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

/// Runs the Definition 2.1 walk ([`walk_engine`]) for `total`
/// interactions, one exact interaction at a time, recording the level
/// counts at `t = 0` and every `stride` interactions (the last stride may
/// be ragged).
///
/// # Errors
///
/// Propagates walk construction errors.
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
    assert!(stride > 0, "stride must be positive");
    let mut engine = walk_engine(config, n, initial_level)?;
    let mut rng = rng_from_seed(seed);
    let mut snapshots = vec![engine.counts()[FIRST_LEVEL..].to_vec()];
    while engine.interactions() < total {
        let burst = stride.min(total - engine.interactions());
        advance(&mut engine, burst, 1, &mut rng).expect("a walk engine holds two agents");
        snapshots.push(engine.counts()[FIRST_LEVEL..].to_vec());
    }
    Ok(LevelTrajectory { stride, snapshots })
}

/// Ergodic estimate of the normalized level occupancy: runs `burn_in`
/// interactions of `engine` in leaps of `batch`, then accumulates the
/// counts of the `levels` states over `samples` snapshots spaced `stride`
/// interactions apart.
///
/// For the k-IGT walk the levels are `FIRST_LEVEL..`
/// ([`crate::state::FIRST_LEVEL`]); for the Section 2.4 Ehrenfest chain,
/// whose urns are the levels, they are `0..`. At `batch = 1` every
/// interaction is exact. Above it, a protocol with a declared law is
/// τ-leaped, up to the `O(batch/n)` leap idealization and orders of
/// magnitude faster at large `n` (`engine.suggested_batch()` is the usual
/// choice), while a randomized protocol without one, such as the
/// action-observed [`crate::observed::ObservedIgtProtocol`], still steps
/// exactly.
///
/// # Errors
///
/// Returns [`PopulationError`] when the engine holds fewer than two agents.
///
/// # Panics
///
/// Panics when `batch == 0`.
pub fn time_averaged_distribution<P, R>(
    mut engine: BatchedEngine<P>,
    levels: RangeFrom<usize>,
    burn_in: u64,
    samples: u64,
    stride: u64,
    batch: u64,
    rng: &mut R,
) -> Result<Vec<f64>, PopulationError>
where
    P: EnumerableProtocol,
    R: Rng + ?Sized,
{
    advance(&mut engine, burn_in, batch, rng)?;
    let mut occupancy = vec![0u64; engine.counts()[levels.clone()].len()];
    for _ in 0..samples {
        advance(&mut engine, stride, batch, rng)?;
        for (acc, &z) in occupancy.iter_mut().zip(&engine.counts()[levels.clone()]) {
            *acc += z;
        }
    }
    Ok(normalized(&occupancy))
}

/// Runs `interactions` interactions of `engine` in leaps of `batch`. At
/// `batch = 1` it takes exact steps ([`BatchedEngine::step`]) instead of
/// one-interaction leaps: both are exact, but a step draws its pair from
/// the alias table in `O(1)` where a leap weighs all `K²` pairs.
fn advance<P, R>(
    engine: &mut BatchedEngine<P>,
    interactions: u64,
    batch: u64,
    rng: &mut R,
) -> Result<(), PopulationError>
where
    P: EnumerableProtocol,
    R: Rng + ?Sized,
{
    if batch != 1 {
        return engine.run_batched(interactions, batch, rng);
    }
    for _ in 0..interactions {
        engine.step(rng);
    }
    Ok(())
}

/// Occupancy counts as frequencies.
fn normalized(occupancy: &[u64]) -> Vec<f64> {
    let total: u64 = occupancy.iter().sum();
    occupancy.iter().map(|&c| c as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use crate::stationary::{exact_level_probs, stationary_level_probs};
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

    /// The k-IGT walk's ergodic level occupancy in leaps of `batch`, or
    /// of the engine's suggested batch when `batch` is `None`.
    fn walk_occupancy(
        cfg: &IgtConfig,
        n: u64,
        run: (u64, u64, u64),
        batch: Option<u64>,
        seed: u64,
    ) -> Vec<f64> {
        let (burn_in, samples, stride) = run;
        let engine = walk_engine(cfg, n, 0).unwrap();
        let batch = batch.unwrap_or_else(|| engine.suggested_batch());
        let rng = &mut rng_from_seed(seed);
        time_averaged_distribution(engine, FIRST_LEVEL.., burn_in, samples, stride, batch, rng)
            .unwrap()
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
    fn trajectory_records_a_ragged_final_stride() {
        let cfg = config(0.2, 3);
        let traj = simulate_level_trajectory(&cfg, 40, 0, 110, 25, 1).unwrap();
        assert_eq!(traj.snapshots.len(), 6); // t = 0, 25, 50, 75, 100, 110
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = simulate_level_trajectory(&config(0.2, 3), 40, 0, 10, 0, 1);
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
    fn exact_and_leaped_estimators_match_the_exact_law() {
        // The batch-1 and τ-leap estimators both target the finite-n
        // stationary law of the walk; each must land within TV 0.06 of it,
        // and within 0.08 of each other.
        let cfg = config(0.2, 4);
        let n = 150;
        let exact = exact_level_probs(&cfg, n).unwrap();
        let stepped = walk_occupancy(&cfg, n, (120_000, 300, 300), Some(1), 6);
        let leaped = walk_occupancy(&cfg, n, (120_000, 300, 300), None, 5);
        let (tv_stepped, tv_leaped) = (
            tv_distance(&stepped, &exact).unwrap(),
            tv_distance(&leaped, &exact).unwrap(),
        );
        assert!(
            tv_stepped < 0.06,
            "batch 1: TV {tv_stepped} ({stepped:?} vs {exact:?})"
        );
        assert!(
            tv_leaped < 0.06,
            "τ-leap: TV {tv_leaped} ({leaped:?} vs {exact:?})"
        );
        assert!(tv_distance(&stepped, &leaped).unwrap() < 0.08);
    }

    #[test]
    fn time_average_matches_theorem_27() {
        // β = 0.2 → λ = 4: the ergodic level occupancy must approach the
        // geometric stationary law.
        let cfg = config(0.2, 4);
        let mu = walk_occupancy(&cfg, 200, (200_000, 400, 500), None, 3);
        let theory = stationary_level_probs(&cfg);
        let tv = tv_distance(&mu, &theory).unwrap();
        assert!(tv < 0.05, "TV to Theorem 2.7 law too large: {tv} ({mu:?} vs {theory:?})");
    }
}
