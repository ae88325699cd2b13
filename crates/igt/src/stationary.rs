//! Theorem 2.7: the stationary law and mixing bounds of the `k`-IGT
//! dynamics.
//!
//! The GTFT level counts `{z^t}` form a `(k, γ(1−β), γβ, γn)`-Ehrenfest
//! process, so by Theorem 2.4 the stationary distribution is multinomial
//! with parameters `m = γn` and `p_j ∝ λ^{j−1}`, `λ = (1−β)/β`. The mixing
//! time obeys `t_mix = O(min{k/|1−2β|, k²}·n log n)` (`k²·n log n` at
//! `β = 1/2`) and `t_mix = Ω(kn)`.

use crate::params::IgtConfig;
use popgame_dist::multinomial::Multinomial;
use popgame_ehrenfest::stationary::stationary_probs;

/// The stationary level probabilities `p_j ∝ λ^{j−1}` with
/// `λ = (1−β)/β` (Theorem 2.7), computed in overflow-safe form.
pub fn stationary_level_probs(config: &IgtConfig) -> Vec<f64> {
    stationary_probs(config.grid().k(), config.composition().lambda())
}

/// The full stationary distribution of the level counts for a concrete
/// population of `n` agents: `Multinomial(γn, (p_1, …, p_k))`.
///
/// # Errors
///
/// Propagates composition rounding errors for `m = γn`.
pub fn stationary_distribution(
    config: &IgtConfig,
    n: u64,
) -> Result<Multinomial, crate::error::IgtError> {
    let (_, _, gtft) = config.composition().group_sizes(n)?;
    Multinomial::new(gtft, stationary_level_probs(config)).map_err(|e| {
        crate::error::IgtError::InvalidComposition {
            reason: e.to_string(),
        }
    })
}

/// The normalized mean stationary distribution `µ = E[π]/m ∈ ∆(G)` used by
/// Theorem 2.9 — identical to the level probabilities.
pub fn mean_stationary_mu(config: &IgtConfig) -> Vec<f64> {
    stationary_level_probs(config)
}

/// The *exact finite-n* stationary level probabilities.
///
/// The paper's eq. (5) normalizes responder probabilities by `n` (sampling
/// with replacement); the true scheduler samples the responder from the
/// remaining `n − 1` agents, so the exact count chain is still an Ehrenfest
/// process but with bias ratio `λ_n = (n − 1 − n_AD)/n_AD` instead of
/// `λ = (n − n_AD)/n_AD`. This function evaluates the exact law, letting
/// tests and experiments measure the `O(1/n)` idealization error directly.
///
/// # Errors
///
/// Propagates composition rounding errors.
pub fn exact_level_probs(config: &IgtConfig, n: u64) -> Result<Vec<f64>, crate::error::IgtError> {
    let (_, n_ad, _) = config.composition().group_sizes(n)?;
    if n_ad == 0 || n_ad >= n - 1 {
        return Err(crate::error::IgtError::PopulationTooSmall {
            n,
            reason: format!("need 1 <= n_AD <= n - 2 for a finite bias ratio, got {n_ad}"),
        });
    }
    let lambda_n = (n - 1 - n_ad) as f64 / n_ad as f64;
    Ok(stationary_probs(config.grid().k(), lambda_n))
}

/// Total-variation distance between the idealized (Theorem 2.7) and exact
/// finite-n level laws — the paper's eq. (5) idealization error, `O(k/n)`.
///
/// # Errors
///
/// Propagates [`exact_level_probs`] errors.
pub fn idealization_error(config: &IgtConfig, n: u64) -> Result<f64, crate::error::IgtError> {
    let ideal = stationary_level_probs(config);
    let exact = exact_level_probs(config, n)?;
    Ok(ideal
        .iter()
        .zip(exact.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / 2.0)
}

/// The Theorem 2.7 mixing-time upper-bound *formula* in population
/// interactions: `min{k/|1−2β|, k²}·n·ln n` for `β ≠ 1/2`, `k²·n·ln n`
/// otherwise. An order-of-growth reference, not a certified constant.
pub fn theorem_27_upper_formula(config: &IgtConfig, n: u64) -> f64 {
    let k = config.grid().k() as f64;
    let beta = config.composition().beta();
    let nf = n as f64;
    let log_n = nf.ln().max(1.0);
    let k_factor = if (beta - 0.5).abs() < 1e-12 {
        k * k
    } else {
        (k / (1.0 - 2.0 * beta).abs()).min(k * k)
    };
    k_factor * nf * log_n
}

/// The Theorem 2.7 lower bound `Ω(kn)` instantiated through the diameter
/// argument: the level-count graph over the population's `m` GTFT agents
/// has diameter `(k−1)·m`, so `t_mix ≥ (k−1)·m/2` interactions.
///
/// # Errors
///
/// Propagates composition rounding errors for the GTFT count `m`.
pub fn theorem_27_lower_bound(config: &IgtConfig, n: u64) -> Result<u64, crate::error::IgtError> {
    let k = config.grid().k() as u64;
    let (_, _, m) = config.composition().group_sizes(n)?;
    Ok((k - 1) * m / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GenerosityGrid, PopulationComposition};
    use popgame_game::params::GameParams;
    use proptest::prelude::*;

    fn config_with_beta(beta: f64) -> IgtConfig {
        let alpha = (1.0 - beta) / 2.0;
        let gamma = 1.0 - alpha - beta;
        IgtConfig::new(
            PopulationComposition::new(alpha, beta, gamma).unwrap(),
            GenerosityGrid::new(5, 0.8).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        )
    }

    #[test]
    fn probs_are_geometric_with_lambda() {
        let cfg = config_with_beta(0.2);
        let probs = stationary_level_probs(&cfg);
        let lambda = 4.0;
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for j in 0..4 {
            assert!((probs[j + 1] / probs[j] - lambda).abs() < 1e-9);
        }
    }

    #[test]
    fn beta_half_gives_uniform_levels() {
        let cfg = config_with_beta(0.5);
        for p in stationary_level_probs(&cfg) {
            assert!((p - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_above_half_concentrates_low() {
        let cfg = config_with_beta(0.8); // λ = 0.25
        let probs = stationary_level_probs(&cfg);
        assert!(probs[0] > probs[4]);
        assert!(probs[0] > 0.7);
    }

    #[test]
    fn stationary_matches_ehrenfest_mapping() {
        // The igt-side stationary distribution must equal the Ehrenfest
        // stationary law under the Section 2.4 mapping.
        let cfg = config_with_beta(0.2);
        let n = 200;
        let dist = stationary_distribution(&cfg, n).unwrap();
        let eh_params = crate::dynamics::count_level_params(&cfg, n).unwrap();
        let eh_dist = popgame_ehrenfest::stationary::stationary_distribution(&eh_params);
        assert_eq!(dist.m(), eh_dist.m());
        for (a, b) in dist.probs().iter().zip(eh_dist.probs()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn level_probs_match_the_solver_rules_reference() {
        // The k-IGT rule's Theorem 2.7 reference (served by /simulate and
        // REPORT) is this law, scaled by γ, at the canonical composition.
        use popgame_solver::dynamics::{KIGT_ALPHA, KIGT_BETA, KIGT_GAMMA};
        let config = IgtConfig::new(
            PopulationComposition::new(KIGT_ALPHA, KIGT_BETA, KIGT_GAMMA).unwrap(),
            GenerosityGrid::new(5, 0.6).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        );
        let reference = config.dynamics().unwrap().reference_profiles().unwrap().remove(0);
        let probs = stationary_level_probs(&config);
        assert_eq!(reference.len(), 2 + probs.len());
        assert!((reference[0] - KIGT_ALPHA).abs() < 1e-12);
        assert!((reference[1] - KIGT_BETA).abs() < 1e-12);
        for (j, &p) in probs.iter().enumerate() {
            let expected = KIGT_GAMMA * p;
            let served = reference[2 + j];
            assert!((served - expected).abs() < 1e-12, "level {j}: {served} vs {expected}");
        }
    }

    #[test]
    fn mu_is_normalized_mean() {
        let cfg = config_with_beta(0.25);
        let mu = mean_stationary_mu(&cfg);
        let dist = stationary_distribution(&cfg, 100).unwrap();
        let m = dist.m() as f64;
        for (mu_j, mean_j) in mu.iter().zip(dist.mean()) {
            assert!((mu_j - mean_j / m).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_formula_case_distinction() {
        let away = config_with_beta(0.1); // |1-2β| = 0.8 → k/0.8 = 6.25 < 25
        let at_half = config_with_beta(0.5);
        let n = 1000;
        let f_away = theorem_27_upper_formula(&away, n);
        let f_half = theorem_27_upper_formula(&at_half, n);
        assert!(f_away < f_half);
        let nf = 1000.0f64;
        assert!((f_half - 25.0 * nf * nf.ln()).abs() < 1e-6);
    }

    #[test]
    fn lower_bound_formula() {
        let cfg = config_with_beta(0.2); // γ = 0.4
        assert_eq!(theorem_27_lower_bound(&cfg, 100).unwrap(), 4 * 40 / 2);
        // n = 101 at (0.3, 0.2, 0.5): largest-remainder rounding gives the
        // GTFT group 51 agents, not ⌊γn⌋ = 50.
        let cfg = IgtConfig::new(
            PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
            GenerosityGrid::new(4, 0.8).unwrap(),
            GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
        );
        assert_eq!(cfg.composition().group_sizes(101).unwrap().2, 51);
        assert_eq!(theorem_27_lower_bound(&cfg, 101).unwrap(), 3 * 51 / 2);
    }

    #[test]
    fn exact_law_requires_interior_ad_count() {
        // β so small that n_AD rounds to zero: the finite-n bias ratio is
        // undefined and the exact law must refuse.
        let cfg = config_with_beta(0.02);
        assert!(exact_level_probs(&cfg, 4).is_err());
        assert!(exact_level_probs(&cfg, 100).is_ok()); // n_AD = 2 at n = 100
    }

    #[test]
    fn idealization_error_shrinks_like_one_over_n() {
        let cfg = config_with_beta(0.2);
        let e = |n: u64| idealization_error(&cfg, n).unwrap();
        let e100 = e(100);
        let e400 = e(400);
        let e1600 = e(1600);
        assert!(e100 > e400 && e400 > e1600, "{e100} {e400} {e1600}");
        // Quartering n should roughly quarter the error.
        assert!((e100 / e400) > 2.0 && (e100 / e400) < 8.0);
        assert!(e1600 < 0.01);
    }

    #[test]
    fn exact_law_close_to_ideal_for_large_n() {
        let cfg = config_with_beta(0.3);
        let ideal = stationary_level_probs(&cfg);
        let exact = exact_level_probs(&cfg, 10_000).unwrap();
        for (a, b) in ideal.iter().zip(exact.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    proptest! {
        #[test]
        fn prop_probs_normalized_for_any_beta(beta in 0.02..0.98f64) {
            let cfg = config_with_beta(beta);
            let probs = stationary_level_probs(&cfg);
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
        }

        #[test]
        fn prop_upper_dominates_lower(beta in 0.05..0.95f64, n in 10u64..10_000) {
            let cfg = config_with_beta(beta);
            // Rounding may leave no GTFT agent at small n: no bound then.
            if let Ok(lower) = theorem_27_lower_bound(&cfg, n) {
                prop_assert!(theorem_27_upper_formula(&cfg, n) >= lower as f64);
            }
        }
    }
}
