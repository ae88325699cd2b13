//! Cross-crate integration tests: Theorem 2.9 end to end — from the
//! simulated dynamics all the way to the equilibrium gap.

use popgame::prelude::*;
use popgame_equilibrium::rd::{best_response, equilibrium_gap};
use popgame_equilibrium::taylor::decompose;
use popgame_igt::dynamics::walk_engine;
use popgame_igt::state::FIRST_LEVEL;
use popgame_igt::trajectory::time_averaged_distribution;

fn regime_config(k: usize) -> IgtConfig {
    IgtConfig::new(
        PopulationComposition::new(0.55, 0.05, 0.4).unwrap(),
        GenerosityGrid::new(k, 0.2).unwrap(),
        GameParams::new(8.0, 0.4, 0.5, 0.9).unwrap(),
    )
}

/// The headline result, fully simulated: run the k-IGT dynamics, estimate
/// µ from the trajectory, and verify the measured equilibrium gap is both
/// small and close to the theoretical ε(k).
#[test]
fn simulated_mu_is_an_approximate_de() {
    let k = 8;
    let cfg = regime_config(k);
    check_theorem_29(&cfg).unwrap();
    let engine = walk_engine(&cfg, 300, 0).unwrap();
    let batch = engine.suggested_batch();
    let rng = &mut rng_from_seed(31);
    let mu_sim =
        time_averaged_distribution(engine, FIRST_LEVEL.., 150_000, 400, 300, batch, rng).unwrap();
    let mu_theory = mean_stationary_mu(&cfg);
    assert!(tv_distance(&mu_sim, &mu_theory).unwrap() < 0.05);

    let gap_sim = equilibrium_gap(&cfg, &mu_sim);
    let gap_theory = equilibrium_gap(&cfg, &mu_theory);
    assert!(
        (gap_sim - gap_theory).abs() < 0.5 * gap_theory.max(0.01),
        "simulated gap {gap_sim} vs theoretical {gap_theory}"
    );
}

/// ε(k) halves (approximately) when k doubles — the O(1/k) rate across a
/// long sweep, entirely through public API.
#[test]
fn epsilon_halves_with_doubled_k() {
    let mut prev = f64::INFINITY;
    for k in [8usize, 16, 32, 64] {
        let gap = gap_at_mean_stationary(&regime_config(k));
        assert!(gap < prev, "gap must decrease (k = {k})");
        if prev.is_finite() {
            let ratio = prev / gap;
            assert!(
                (1.4..=3.0).contains(&ratio),
                "halving ratio {ratio} at k = {k}"
            );
        }
        prev = gap;
    }
}

/// The Appendix D decomposition bounds the gap at every k, and its terms
/// have the proven orders.
#[test]
fn appendix_d_decomposition_orders() {
    let d8 = decompose(&regime_config(8), &mean_stationary_mu(&regime_config(8)));
    let d32 = decompose(&regime_config(32), &mean_stationary_mu(&regime_config(32)));
    // Bound validity.
    assert!(d8.gap <= d8.bound() + 1e-12);
    assert!(d32.gap <= d32.bound() + 1e-12);
    // L·Var (O(1/k²)) falls much faster than Γ (O(1/k)).
    let var_ratio = d8.l_var_term / d32.l_var_term;
    let gamma_ratio = d8.gamma_term / d32.gamma_term;
    assert!(
        var_ratio > gamma_ratio,
        "L·Var ratio {var_ratio} should exceed Γ ratio {gamma_ratio}"
    );
}

/// Outside the regime (λ < 2) the decay stalls — footnote 4.
#[test]
fn decay_stalls_outside_regime() {
    let near_half = |k: usize| {
        IgtConfig::new(
            PopulationComposition::new(0.3, 0.5, 0.2).unwrap(),
            GenerosityGrid::new(k, 0.2).unwrap(),
            GameParams::new(8.0, 0.4, 0.5, 0.9).unwrap(),
        )
    };
    assert!(check_theorem_29(&near_half(8)).is_err());
    let e8 = equilibrium_gap(&near_half(8), &mean_stationary_mu(&near_half(8)));
    let e64 = equilibrium_gap(&near_half(64), &mean_stationary_mu(&near_half(64)));
    // In-regime the ratio is ≈ 8; at β = 1/2 it must be far smaller.
    assert!(
        e8 / e64.max(1e-15) < 3.0,
        "β = 1/2 decay ratio unexpectedly large: {}",
        e8 / e64
    );
}

/// Best response sits at the top of the grid inside the regime (the payoff
/// is increasing in g against the induced distribution), and the
/// stationary µ indeed concentrates there.
#[test]
fn best_response_alignment() {
    let cfg = regime_config(16);
    let mu = mean_stationary_mu(&cfg);
    let (level, _) = best_response(&cfg, &mu);
    assert_eq!(level, 15);
    let argmax = mu
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    assert_eq!(argmax, 15, "stationary mass concentrates at the top level");
}
