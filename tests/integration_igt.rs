//! Cross-crate integration tests: the k-IGT dynamics end to end.
//!
//! These tests exercise the full stack — population substrate, IGT
//! protocol, Ehrenfest mapping, stationary theory — and verify the paper's
//! Section 2.4 equivalences *distributionally*.

use popgame::prelude::*;
use popgame_dist::binomial::Binomial;
use popgame_igt::dynamics::{count_level_params, count_level_process, walk_engine};
use popgame_igt::state::FIRST_LEVEL;
use popgame_igt::trajectory::{simulate_level_trajectory, time_averaged_distribution};
use popgame_util::stats::RunningStats;

fn config(beta: f64, k: usize) -> IgtConfig {
    let alpha = (1.0 - beta) / 2.0;
    let gamma = 1.0 - alpha - beta;
    IgtConfig::new(
        PopulationComposition::new(alpha, beta, gamma).expect("valid composition"),
        GenerosityGrid::new(k, 0.8).expect("valid grid"),
        GameParams::new(2.0, 0.5, 0.9, 0.95).expect("valid game"),
    )
}

/// Section 2.4: after the same number of interactions, the agent-level
/// dynamics (the Definition 2.1 walk, stepped exactly) and the idealized
/// count-level Ehrenfest process agree on the mean level-weight up to the
/// O(1/n) mapping error.
#[test]
fn agent_level_matches_count_level_in_distribution() {
    let cfg = config(0.25, 4);
    let n = 200u64;
    let steps = 4_000u64;
    let reps = 300;
    let mut agent_weight = RunningStats::new();
    let mut count_weight = RunningStats::new();
    for rep in 0..reps {
        let mut rng = stream_rng(1000, rep);
        let mut walk = walk_engine(&cfg, n, 0).unwrap();
        walk.run_batched(steps, 1, &mut rng).unwrap();
        let z = &walk.counts()[FIRST_LEVEL..];
        agent_weight.push(z.iter().enumerate().map(|(j, &c)| j as f64 * c as f64).sum());

        let mut rng = stream_rng(2000, rep);
        let mut proc = count_level_process(&cfg, n, 0).unwrap();
        proc.run(steps, &mut rng);
        count_weight.push(proc.weight() as f64);
    }
    let diff = (agent_weight.mean() - count_weight.mean()).abs();
    let tol = 4.0 * (agent_weight.std_error() + count_weight.std_error())
        + agent_weight.mean() / n as f64; // the O(1/n) idealization error
    assert!(
        diff < tol,
        "agent {} vs count {} (tol {tol})",
        agent_weight.mean(),
        count_weight.mean()
    );
}

/// Theorem 2.7 end to end: the long-run marginal of the top level matches
/// the Binomial(m, p_k) marginal of the multinomial stationary law.
#[test]
fn top_level_marginal_matches_binomial() {
    let cfg = config(0.2, 3); // λ = 4
    let n = 120u64;
    let (_, _, m) = cfg.composition().group_sizes(n).unwrap();
    let probs = stationary_level_probs(&cfg);
    let marginal = Binomial::new(m, probs[2]).unwrap();

    // Sample the chain at spaced times after burn-in.
    let mut proc = count_level_process(&cfg, n, 0).unwrap();
    let mut rng = rng_from_seed(77);
    proc.run(60 * n, &mut rng);
    let mut histogram = vec![0u64; (m + 1) as usize];
    let samples = 4_000;
    for _ in 0..samples {
        proc.run(2 * n, &mut rng); // decorrelate between samples
        histogram[proc.counts()[2] as usize] += 1;
    }
    let empirical: Vec<f64> = histogram
        .iter()
        .map(|&c| c as f64 / samples as f64)
        .collect();
    let exact: Vec<f64> = (0..=m).map(|x| marginal.pmf(x)).collect();
    let tv = tv_distance(&empirical, &exact).unwrap();
    assert!(tv < 0.12, "top-level marginal TV {tv}");
}

/// The stationary occupancy is invariant to the starting level.
#[test]
fn stationary_occupancy_independent_of_start() {
    let cfg = config(0.3, 4);
    let run = |initial: usize, seed: u64| {
        let mut proc = count_level_process(&cfg, 160, initial).unwrap();
        let mut rng = rng_from_seed(seed);
        proc.run(40_000, &mut rng);
        let mut acc = vec![0u64; 4];
        for _ in 0..300 {
            proc.run(160, &mut rng);
            for (a, &z) in acc.iter_mut().zip(proc.counts()) {
                *a += z;
            }
        }
        let total: u64 = acc.iter().sum();
        acc.into_iter().map(|c| c as f64 / total as f64).collect::<Vec<_>>()
    };
    let from_bottom = run(0, 5);
    let from_top = run(3, 6);
    let tv = tv_distance(&from_bottom, &from_top).unwrap();
    assert!(tv < 0.05, "start dependence: {tv}");
}

/// The Ehrenfest mapping parameters are exactly Section 2.4's.
#[test]
fn ehrenfest_mapping_constants() {
    let cfg = config(0.2, 5);
    let params = count_level_params(&cfg, 1_000).unwrap();
    let comp = cfg.composition();
    assert!((params.a() - comp.gamma() * (1.0 - comp.beta())).abs() < 1e-12);
    assert!((params.b() - comp.gamma() * comp.beta()).abs() < 1e-12);
    assert!((params.lambda() - comp.lambda()).abs() < 1e-12);
    // a + b = γ: the chain is lazy exactly when the initiator is not GTFT.
    assert!((params.a() + params.b() - comp.gamma()).abs() < 1e-12);
}

/// Determinism: the full simulation stack reproduces itself bit-for-bit
/// under a fixed seed.
#[test]
fn full_stack_determinism() {
    let cfg = config(0.25, 4);
    let run = || {
        simulate_level_trajectory(&cfg, 100, 0, 5_000, 500, 12345)
            .unwrap()
            .snapshots
    };
    assert_eq!(run(), run());
}

/// The ergodic estimate converges to Theorem 2.7 for both β regimes.
#[test]
fn ergodic_estimate_matches_theory_both_regimes() {
    for beta in [0.15, 0.6] {
        let cfg = config(beta, 3);
        let engine = walk_engine(&cfg, 150, 0).unwrap();
        let batch = engine.suggested_batch();
        let rng = &mut rng_from_seed(9);
        let mu = time_averaged_distribution(engine, FIRST_LEVEL.., 60_000, 300, 200, batch, rng)
            .unwrap();
        let theory = stationary_level_probs(&cfg);
        let tv = tv_distance(&mu, &theory).unwrap();
        assert!(tv < 0.06, "beta = {beta}: TV {tv}");
    }
}
