//! Randomized cross-crate properties: invariants that must hold across the
//! whole stack for *arbitrary* valid configurations, checked with proptest
//! at the integration level (complementing the per-crate property tests).

use popgame::prelude::*;
use proptest::prelude::*;

/// A strategy generating valid `(α, β, γ)` compositions with interior β.
fn composition_strategy() -> impl Strategy<Value = PopulationComposition> {
    (0.05..0.9f64, 0.05..0.9f64).prop_filter_map("valid composition", |(beta, alpha_frac)| {
        let alpha = (1.0 - beta) * alpha_frac;
        let gamma = 1.0 - alpha - beta;
        (gamma > 0.02).then(|| PopulationComposition::new(alpha, beta, gamma).unwrap())
    })
}

/// A strategy generating valid game parameters.
fn game_strategy() -> impl Strategy<Value = GameParams> {
    (1.0..8.0f64, 0.02..0.9f64, 0.0..0.95f64, 0.0..0.99f64).prop_map(|(b, c_frac, delta, s1)| {
        GameParams::new(b, b * c_frac, delta, s1).unwrap()
    })
}

fn config_strategy() -> impl Strategy<Value = IgtConfig> {
    (composition_strategy(), 2usize..12, 0.05..1.0f64, game_strategy())
        .prop_map(|(comp, k, g_max, game)| {
            IgtConfig::new(comp, GenerosityGrid::new(k, g_max).unwrap(), game)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2.7's stationary law is a pmf with exact geometric ratios,
    /// for any composition and grid.
    #[test]
    fn stationary_law_is_geometric_pmf(cfg in config_strategy()) {
        let probs = stationary_level_probs(&cfg);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let lambda = cfg.composition().lambda();
        for w in probs.windows(2) {
            prop_assert!((w[1] / w[0] - lambda).abs() < 1e-6 * lambda.max(1.0));
        }
    }

    /// The equilibrium gap is non-negative and bounded by the payoff range
    /// of the game, for any configuration and the stationary µ.
    #[test]
    fn gap_nonnegative_and_bounded(cfg in config_strategy()) {
        let gap = gap_at_mean_stationary(&cfg);
        prop_assert!(gap >= 0.0);
        // Payoffs live in [-c, b] per round times expected rounds, so the
        // gap cannot exceed the full payoff range.
        let range = (cfg.game().b() + cfg.game().c()) * cfg.game().expected_rounds();
        prop_assert!(gap <= range + 1e-9, "gap {gap} exceeds range {range}");
    }

    /// The Appendix D decomposition bound holds at the stationary µ for
    /// every configuration, not just the Theorem 2.9 regime. (The constant
    /// `L` is maximized on a dense grid, so allow a 1% slack for the sup
    /// between grid points.)
    #[test]
    fn decomposition_bound_universal(cfg in config_strategy()) {
        let mu = mean_stationary_mu(&cfg);
        let d = popgame::equilibrium::taylor::decompose(&cfg, &mu);
        prop_assert!(
            d.gap <= d.bound() * 1.01 + 1e-9,
            "gap {} above bound {}", d.gap, d.bound()
        );
        // And Prop. D.1's Taylor inequality.
        prop_assert!(d.taylor_slack.abs() <= d.l_var_term * 1.01 + 1e-9);
    }

    /// The Section 2.4 mapping constants always satisfy a+b = γ and
    /// a/b = λ, and the Ehrenfest stationary law matches the igt-side law.
    #[test]
    fn ehrenfest_mapping_consistency(cfg in config_strategy(), n in 50u64..2_000) {
        if let Ok(params) = popgame::igt::dynamics::count_level_params(&cfg, n) {
            let comp = cfg.composition();
            prop_assert!((params.a() + params.b() - comp.gamma()).abs() < 1e-12);
            prop_assert!((params.lambda() - comp.lambda()).abs() < 1e-9);
            let eh = popgame::ehrenfest::stationary::stationary_probs(params.k(), params.lambda());
            let igt = stationary_level_probs(&cfg);
            for (a, b) in eh.iter().zip(igt.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Closed-form payoffs equal the linear-algebra payoffs for random
    /// parameters and generosity pairs (the Appendix B identity, fuzzed
    /// at integration level).
    #[test]
    fn payoff_identity_fuzzed(
        game in game_strategy(),
        g in 0.0..=1.0f64,
        gp in 0.0..=1.0f64,
    ) {
        let closed = gtft_vs_gtft(g, gp, &game);
        let linear = expected_payoff(
            &MemoryOneStrategy::gtft(g, game.s1()),
            &MemoryOneStrategy::gtft(gp, game.s1()),
            &game,
        );
        prop_assert!((closed - linear).abs() < 1e-7 * (1.0 + closed.abs()));
    }

    /// Average stationary generosity always lies on [0, ĝ], its closed form
    /// equals the direct sum, and Corollary C.1 holds whenever λ > 1.
    #[test]
    fn generosity_formulas_consistent(cfg in config_strategy()) {
        let closed = stationary_average_generosity(&cfg);
        let direct =
            popgame::igt::generosity::stationary_average_generosity_direct(&cfg);
        prop_assert!((closed - direct).abs() < 1e-8);
        prop_assert!((0.0..=cfg.grid().g_max() + 1e-12).contains(&closed));
        if let Some(bound) = popgame::igt::generosity::corollary_c1_lower_bound(&cfg) {
            prop_assert!(closed >= bound - 1e-9);
        }
    }

    /// One simulated interaction conserves every subpopulation.
    #[test]
    fn interaction_conserves_subpopulations(
        cfg in config_strategy(),
        seed in 0u64..500,
    ) {
        if let Ok(mut engine) = popgame::igt::dynamics::walk_engine(&cfg, 60, 0) {
            let groups = |engine: &BatchedEngine<GameDynamics>| {
                let counts = engine.counts();
                (counts[0], counts[1], counts[2..].iter().sum::<u64>())
            };
            let before = groups(&engine);
            let mut rng = rng_from_seed(seed);
            engine.run_batched(50, 1, &mut rng).unwrap();
            prop_assert_eq!(groups(&engine), before);
        }
    }
}
