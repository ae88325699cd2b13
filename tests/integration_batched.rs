//! Cross-crate integration tests: the batched count-level engine and the
//! parallel replica harness driving the k-IGT dynamics end to end.

use popgame::prelude::*;
use popgame_igt::dynamics::walk_engine;
use popgame_igt::state::FIRST_LEVEL;
use popgame_igt::stationary::exact_level_probs;
use popgame_igt::trajectory::time_averaged_distribution;
use popgame_runner::{mean_vectors, run_replicas};

fn config(beta: f64, k: usize) -> IgtConfig {
    let alpha = (1.0 - beta) / 2.0;
    let gamma = 1.0 - alpha - beta;
    IgtConfig::new(
        PopulationComposition::new(alpha, beta, gamma).expect("valid composition"),
        GenerosityGrid::new(k, 0.8).expect("valid grid"),
        GameParams::new(2.0, 0.5, 0.9, 0.95).expect("valid game"),
    )
}

/// The batched engine conserves the AC/AD sub-populations exactly (they
/// never transition) and the GTFT total, at every batch size.
#[test]
fn batched_engine_preserves_igt_invariants() {
    let cfg = config(0.2, 4);
    let n = 10_000u64;
    let (ac, ad, gtft) = cfg.composition().group_sizes(n).unwrap();
    for batch in [1u64, 64, n] {
        let mut engine = walk_engine(&cfg, n, 0).unwrap();
        let mut rng = rng_from_seed(17);
        engine.run_batched(20 * n, batch, &mut rng).unwrap();
        assert_eq!(engine.counts()[0], ac, "AC count drifted at batch {batch}");
        assert_eq!(engine.counts()[1], ad, "AD count drifted at batch {batch}");
        assert_eq!(
            engine.counts()[2..].iter().sum::<u64>(),
            gtft,
            "GTFT total drifted at batch {batch}"
        );
        assert_eq!(engine.interactions(), 20 * n);
    }
}

/// Theorem 2.7 through the batched engine at a population size that would
/// be painful for per-interaction stepping: the ergodic level occupancy
/// matches the geometric stationary law.
#[test]
fn batched_engine_reaches_theorem_27_law_at_scale() {
    let cfg = config(0.2, 4); // λ = 4
    let n = 200_000u64;
    let engine = walk_engine(&cfg, n, 0).unwrap();
    let batch = engine.suggested_batch();
    let mu = time_averaged_distribution(
        engine,
        FIRST_LEVEL..,
        40 * n,
        200,
        n / 4,
        batch,
        &mut rng_from_seed(23),
    )
    .unwrap();
    let theory = stationary_level_probs(&cfg);
    let tv = tv_distance(&mu, &theory).unwrap();
    assert!(tv < 0.05, "TV at n = 2e5: {tv} ({mu:?} vs {theory:?})");
}

/// The exact (batch-1) and τ-leap estimators both land near the walk's
/// exact finite-n stationary law on a size where both are affordable.
#[test]
fn batched_estimators_match_exact_finite_n_law() {
    let cfg = config(0.3, 3);
    let n = 120;
    let exact = exact_level_probs(&cfg, n).unwrap();
    let occupancy = |batch: Option<u64>, seed: u64| {
        let engine = walk_engine(&cfg, n, 0).unwrap();
        let batch = batch.unwrap_or_else(|| engine.suggested_batch());
        let rng = &mut rng_from_seed(seed);
        time_averaged_distribution(engine, FIRST_LEVEL.., 50_000, 250, 200, batch, rng).unwrap()
    };
    let stepped = occupancy(Some(1), 37);
    let leaped = occupancy(None, 31);
    for (label, mu) in [("batch 1", &stepped), ("τ-leap", &leaped)] {
        let tv = tv_distance(mu, &exact).unwrap();
        assert!(
            tv < 0.06,
            "{label}: TV {tv} to the exact law ({mu:?} vs {exact:?})"
        );
    }
    let tv = tv_distance(&stepped, &leaped).unwrap();
    assert!(
        tv < 0.08,
        "estimators disagree: TV {tv} ({stepped:?} vs {leaped:?})"
    );
}

/// The replica harness is bitwise deterministic for a fixed
/// (seed, replicas) pair and its replicated occupancy estimate matches
/// the stationary law tighter than any single replica.
#[test]
fn replica_harness_determinism_and_aggregation() {
    let cfg = config(0.25, 4);
    let n = 2_000u64;
    let run = || {
        run_replicas(41, 16, |_rep, mut rng| {
            let engine = walk_engine(&cfg, n, 0).unwrap();
            let batch = engine.suggested_batch();
            time_averaged_distribution(engine, FIRST_LEVEL.., 60 * n, 100, n, batch, &mut rng)
                .unwrap()
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "replica harness must be bitwise deterministic");

    let mu = mean_vectors(&first);
    let theory = stationary_level_probs(&cfg);
    let tv = tv_distance(&mu, &theory).unwrap();
    assert!(tv < 0.04, "replicated estimate off: TV {tv}");
}

/// Full-stack determinism of the batched path: fixed seed, identical
/// trajectory of count vectors.
#[test]
fn batched_path_full_stack_determinism() {
    let cfg = config(0.25, 4);
    let run = || {
        let mut engine = walk_engine(&cfg, 500, 0).unwrap();
        let mut rng = rng_from_seed(12345);
        let mut snapshots = Vec::new();
        for _ in 0..20 {
            engine.run_batched(1_000, 50, &mut rng).unwrap();
            snapshots.push(engine.counts().to_vec());
        }
        snapshots
    };
    assert_eq!(run(), run());
}
