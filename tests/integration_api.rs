//! API-surface tests: everything a downstream user reaches through
//! `popgame::prelude` works together, and the experiment harness reports
//! render.

use popgame::experiments;
use popgame::prelude::*;

/// The prelude exposes a coherent, compile-checked workflow.
#[test]
fn prelude_workflow_compiles_and_runs() {
    let config = IgtConfig::new(
        PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
        GenerosityGrid::new(4, 0.6).unwrap(),
        GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
    );
    // Theory side.
    let probs = stationary_level_probs(&config);
    assert_eq!(probs.len(), 4);
    let eg = stationary_average_generosity(&config);
    assert!(eg > 0.0);
    let mu = mean_stationary_mu(&config);
    let gap = equilibrium_gap(&config, &mu);
    assert!(gap >= 0.0);

    // Simulation side.
    let mut engine: BatchedEngine<GameDynamics> =
        popgame_igt::dynamics::walk_engine(&config, 60, 0).unwrap();
    let mut rng = rng_from_seed(1);
    engine.run_batched(1_000, 1, &mut rng).unwrap();
    assert_eq!(engine.interactions(), 1_000);
    assert_eq!(engine.counts()[AgentState::AllC.index()], 18); // AC agents never move

    // Game side.
    let outcome = play_repeated_game(
        &MemoryOneStrategy::gtft(0.2, 0.95),
        &MemoryOneStrategy::all_d(),
        &GameParams::new(2.0, 0.5, 0.5, 0.95).unwrap(),
        Some(NoiseModel::new(0.01)),
        &mut rng,
    );
    assert!(outcome.rounds >= 1);
}

/// Re-exported crate modules remain addressable for advanced use.
#[test]
fn module_reexports_are_reachable() {
    let space = popgame::dist::simplex::SimplexSpace::new(3, 3).unwrap();
    assert_eq!(space.len(), 10);
    let chain = popgame::markov::chain::FiniteChain::from_rows(vec![
        vec![(0, 0.5), (1, 0.5)],
        vec![(0, 0.5), (1, 0.5)],
    ])
    .unwrap();
    assert_eq!(chain.len(), 2);
    let params = popgame::ehrenfest::process::EhrenfestParams::new(2, 0.3, 0.3, 5).unwrap();
    assert_eq!(params.k(), 2);
    assert!(popgame::util::numeric::approx_eq(1.0, 1.0, 1e-12));
}

/// Every experiment report renders a non-empty, labeled table. (The heavy
/// numeric assertions live in the per-experiment unit tests; this checks
/// the harness plumbing end to end with light parameters.)
#[test]
fn experiment_reports_render() {
    let e4 = experiments::walks::run_e4(500, 1);
    assert!(e4.to_string().contains("E4"));
    let e8 = experiments::payoffs::run_e8();
    assert!(e8.to_string().contains("E8"));
    let e9 = experiments::payoffs::run_e9(2_000, 2);
    assert!(e9.to_string().contains("E9"));
    let e10 = experiments::dynamics::run_e10(5_000, 3);
    assert!(e10.to_string().contains("E10"));
    let e11 = experiments::stationary::run_e11();
    assert!(e11.to_string().contains("E11"));
    let e13 = experiments::equilibrium::run_e13();
    assert!(e13.to_string().contains("E13"));
}

/// Errors from every layer implement std::error::Error and can flow
/// through one `Box<dyn Error>` pipeline.
#[test]
fn unified_error_handling() {
    fn pipeline() -> Result<(), Box<dyn std::error::Error>> {
        let _ = PopulationComposition::new(0.3, 0.2, 0.5)?;
        let _ = GenerosityGrid::new(3, 0.5)?;
        let _ = GameParams::new(2.0, 0.5, 0.9, 0.95)?;
        let _ = EhrenfestParams::new(2, 0.3, 0.3, 4)?;
        let _ = SimplexSpace::new(2, 4)?;
        let _ = Multinomial::new(4, vec![0.5, 0.5])?;
        Ok(())
    }
    pipeline().unwrap();

    // And failures convert cleanly.
    fn failing() -> Result<(), Box<dyn std::error::Error>> {
        let _ = GenerosityGrid::new(1, 0.5)?;
        Ok(())
    }
    assert!(failing().is_err());
}
