//! Integration tests for the extension layers: spectral mixing analysis,
//! the introspection bridge, the finite-n idealization, and the replicator
//! baseline — each exercised against the core stack.

use popgame::prelude::*;
use popgame_equilibrium::rd::full_distributional_game;
use popgame_igt::introspection::{transitions_coincide_in_regime, IntrospectionProtocol};
use popgame_igt::stationary::{exact_level_probs, idealization_error};
use popgame_markov::spectral::{spectral_mixing_bounds, spectral_summary};

fn config(beta: f64, k: usize) -> IgtConfig {
    let alpha = (1.0 - beta) / 2.0;
    let gamma = 1.0 - alpha - beta;
    IgtConfig::new(
        PopulationComposition::new(alpha, beta, gamma).unwrap(),
        GenerosityGrid::new(k, 0.7).unwrap(),
        GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
    )
}

/// Three independent mixing routes agree at k = 2: the exact TV crossing
/// sits inside the spectral sandwich, below the coupling bound.
#[test]
fn three_mixing_routes_consistent_at_k2() {
    let params = EhrenfestParams::new(2, 0.3, 0.2, 60).unwrap();
    let bd = popgame_ehrenfest::mixing::k2_birth_death(&params).unwrap();

    let exact = bd
        .mixing_time(&[0, 60], 0.25, 1_000_000)
        .unwrap()
        .expect("mixes") as f64;
    let (spectral_lower, spectral_upper) = spectral_mixing_bounds(&bd).unwrap();
    assert!(
        spectral_lower <= exact && exact <= spectral_upper,
        "spectral sandwich violated: {spectral_lower} <= {exact} <= {spectral_upper}"
    );

    let cap = (popgame_ehrenfest::coupling::lemma_a8_upper_bound(&params) * 4.0) as u64;
    let coupling = popgame_ehrenfest::coupling::corner_coupling_times(params, 300, cap, 5)
        .mixing_time_upper_bound(0.25)
        .unwrap()
        .expect("couples") as f64;
    assert!(exact <= coupling, "exact {exact} above coupling bound {coupling}");
}

/// The spectral gap of the k-IGT count chain's k = 2 projection is
/// `(a+b)/m = γ/m` — mixing slows linearly in population size.
#[test]
fn igt_relaxation_time_scales_with_population() {
    let cfg = config(0.25, 2);
    let t_rel = |n: u64| {
        let params = popgame_igt::dynamics::count_level_params(&cfg, n).unwrap();
        let bd = popgame_ehrenfest::mixing::k2_birth_death(&params).unwrap();
        spectral_summary(&bd).unwrap().relaxation_time
    };
    let t100 = t_rel(100);
    let t400 = t_rel(400);
    // m quadruples, gap = γ/m quarters → relaxation time quadruples.
    let ratio = t400 / t100;
    assert!((3.6..=4.4).contains(&ratio), "ratio {ratio}");
}

/// The Section 2.2 bridge end to end: introspection (local best response)
/// and Definition 2.1 generate identical trajectories under shared
/// randomness inside the Proposition 2.2 regime.
#[test]
fn introspection_and_igt_trajectories_identical_in_regime() {
    let cfg = config(0.2, 5);
    assert!(transitions_coincide_in_regime(&cfg).unwrap() > 0);

    let run = |use_introspection: bool| {
        let counts = popgame_igt::dynamics::walk_counts(&cfg, 80, 2).unwrap();
        let mut rng = rng_from_seed(99);
        if use_introspection {
            let mut engine =
                BatchedEngine::from_counts(IntrospectionProtocol::new(cfg), counts).unwrap();
            engine.run_batched(5_000, 1, &mut rng).unwrap();
            engine.counts()[popgame_igt::state::FIRST_LEVEL..].to_vec()
        } else {
            let mut engine = BatchedEngine::from_counts(cfg.dynamics().unwrap(), counts).unwrap();
            engine.run_batched(5_000, 1, &mut rng).unwrap();
            engine.counts()[popgame_igt::state::FIRST_LEVEL..].to_vec()
        }
    };
    assert_eq!(run(true), run(false));
}

/// The finite-n law converges to the idealized Theorem 2.7 law, and the
/// count-level simulation at small n tracks the *exact* law at least as
/// well as the idealized one.
#[test]
fn finite_n_law_is_the_better_small_n_predictor() {
    let cfg = config(0.3, 3);
    let n = 40u64;
    // Ergodic occupancy at small n.
    let engine = popgame_igt::dynamics::walk_engine(&cfg, n, 0).unwrap();
    let levels = popgame_igt::state::FIRST_LEVEL..;
    let batch = engine.suggested_batch();
    let mu = popgame_igt::trajectory::time_averaged_distribution(
        engine,
        levels,
        40_000,
        400,
        100,
        batch,
        &mut rng_from_seed(3),
    )
    .unwrap();
    let ideal = stationary_level_probs(&cfg);
    let exact = exact_level_probs(&cfg, n).unwrap();
    let tv_ideal = tv_distance(&mu, &ideal).unwrap();
    let tv_exact = tv_distance(&mu, &exact).unwrap();
    assert!(
        tv_exact <= tv_ideal + 0.01,
        "exact law should predict at least as well: {tv_exact} vs {tv_ideal}"
    );
    // And the idealization error itself decays with n.
    assert!(idealization_error(&cfg, 1_000).unwrap() < idealization_error(&cfg, 50).unwrap());
}

/// Replicator vs k-IGT on the same game: replication abandons the
/// (α, β, γ) environment entirely — which way it goes depends on the
/// shadow of the future (δ) — while the k-IGT stationary µ is an
/// ε-approximate DE *within* the fixed environment.
#[test]
fn replicator_and_igt_answer_different_questions() {
    let make = |delta: f64| {
        IgtConfig::new(
            PopulationComposition::new(0.55, 0.05, 0.4).unwrap(),
            GenerosityGrid::new(4, 0.2).unwrap(),
            GameParams::new(8.0, 0.4, delta, 0.9).unwrap(),
        )
    };
    // k-IGT at δ = 0.5: small gap inside the fixed environment.
    let cfg_short = make(0.5);
    let gap = gap_at_mean_stationary(&cfg_short);
    assert!(gap < 1e-3, "IGT epsilon {gap}");
    assert!(in_effective_decay_regime(&cfg_short));

    let replicate = |cfg: &IgtConfig| {
        let game = full_distributional_game(cfg).unwrap();
        let uniform = vec![1.0 / 6.0; 6];
        run_replicator(&game, &uniform, 1e-12, 100_000).unwrap().shares
    };
    // Short games (δ = 0.5, E[rounds] = 2): retaliation bites too late —
    // unconstrained replication hands the population to AD.
    let shares_short = replicate(&cfg_short);
    assert!(
        shares_short[1] > 0.99,
        "AD should dominate short games: {shares_short:?}"
    );
    // Long games (δ = 0.9): generous retaliation makes AD unfit; it goes
    // extinct — the classic folk-theorem threshold in δ.
    let shares_long = replicate(&make(0.9));
    assert!(
        shares_long[1] < 1e-6,
        "AD should die out in long games: {shares_long:?}"
    );
}
