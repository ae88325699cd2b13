//! E6 (Proposition 2.8), E10 (Figure 1), E14 (action-observed variant),
//! and E15 (noise motivates generosity).

use crate::experiments::table::{fmt_f, TextTable};
use popgame_dist::divergence::tv_distance;
use popgame_ehrenfest::process::EhrenfestProtocol;
use popgame_game::monte_carlo::{estimate_payoffs, NoiseModel};
use popgame_game::params::GameParams;
use popgame_game::strategy::MemoryOneStrategy;
use popgame_igt::dynamics::{count_level_process, walk_counts, walk_engine};
use popgame_igt::generosity::{
    asymptotic_approximation, corollary_c1_lower_bound, stationary_average_generosity,
    stationary_average_generosity_direct,
};
use popgame_igt::observed::{misclassification_rates, ObservedIgtProtocol};
use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
use popgame_igt::state::FIRST_LEVEL;
use popgame_igt::stationary::stationary_level_probs;
use popgame_igt::trajectory::time_averaged_distribution;
use popgame_population::batch::BatchedEngine;
use popgame_util::rng::rng_from_seed;
use std::fmt;

fn config_for(beta: f64, k: usize, g_max: f64, delta: f64) -> IgtConfig {
    let alpha = (1.0 - beta) / 2.0;
    let gamma = 1.0 - alpha - beta;
    IgtConfig::new(
        PopulationComposition::new(alpha, beta, gamma).expect("valid composition"),
        GenerosityGrid::new(k, g_max).expect("valid grid"),
        GameParams::new(2.0, 0.5, delta, 0.95).expect("valid game"),
    )
}

/// One row of the E6 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Row {
    /// AD fraction.
    pub beta: f64,
    /// Grid size.
    pub k: usize,
    /// Proposition 2.8 closed form.
    pub closed: f64,
    /// Direct sum `Σ g_j p_j`.
    pub direct: f64,
    /// Simulated long-run average generosity.
    pub simulated: f64,
    /// Corollary C.1 lower bound (when `λ > 1`).
    pub c1_bound: Option<f64>,
    /// The paper's asymptotic approximation.
    pub asymptotic: f64,
}

/// The E6 report: average stationary generosity.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Report {
    /// One row per `(β, k)`.
    pub rows: Vec<E6Row>,
}

impl fmt::Display for E6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E6 (Prop 2.8 + Cor C.1): average stationary generosity ẽg (ĝ = 0.8)"
        )?;
        let mut t = TextTable::new(vec![
            "beta", "k", "closed form", "direct", "simulated", "C.1 bound", "asymptotic",
        ]);
        for r in &self.rows {
            t.row(vec![
                fmt_f(r.beta),
                r.k.to_string(),
                fmt_f(r.closed),
                fmt_f(r.direct),
                fmt_f(r.simulated),
                r.c1_bound.map_or("-".into(), fmt_f),
                fmt_f(r.asymptotic),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs E6 over `(β, k)` combinations, with count-level simulation for the
/// empirical column.
pub fn run_e6(seed: u64) -> E6Report {
    let grid = [
        (0.1, 4usize),
        (0.1, 16),
        (0.25, 8),
        (0.5, 8),
        (0.7, 8),
        (0.7, 32),
    ];
    let n = 400u64;
    let rows = grid
        .iter()
        .map(|&(beta, k)| {
            let cfg = config_for(beta, k, 0.8, 0.9);
            // Count-level ergodic average of the generosity, in batched
            // leaps (the chain only moves on the γ-fraction of GTFT
            // initiations, so leaping amortizes the per-step overhead).
            let process = count_level_process(&cfg, n, 0).expect("valid config");
            let mut engine = BatchedEngine::from_counts(
                EhrenfestProtocol::new(process.params()),
                process.counts().to_vec(),
            )
            .expect("m >= 2 balls");
            let mut rng = rng_from_seed(seed);
            let batch = engine.suggested_batch();
            engine
                .run_batched(120 * n, batch, &mut rng)
                .expect("m >= 2 balls");
            let mut acc = 0.0;
            let samples = 500;
            for _ in 0..samples {
                engine
                    .run_batched(n, batch, &mut rng)
                    .expect("m >= 2 balls");
                acc += popgame_igt::generosity::average_generosity(&cfg, engine.counts());
            }
            E6Row {
                beta,
                k,
                closed: stationary_average_generosity(&cfg),
                direct: stationary_average_generosity_direct(&cfg),
                simulated: acc / samples as f64,
                c1_bound: corollary_c1_lower_bound(&cfg),
                asymptotic: asymptotic_approximation(&cfg),
            }
        })
        .collect();
    E6Report { rows }
}

/// The E10 report: Figure 1's one-step transition rates at `k = 6`.
#[derive(Debug, Clone, PartialEq)]
pub struct E10Report {
    /// Empirical `P(increment | GTFT initiator)`.
    pub increment_rate: f64,
    /// Empirical `P(decrement | GTFT initiator)`.
    pub decrement_rate: f64,
    /// Theoretical increment probability `(n − n_ad − 1)/(n − 1)` (the
    /// exact without-replacement version of `1 − β`).
    pub theory_increment: f64,
    /// Per-level `(increments, decrements)` tallies.
    pub per_level: Vec<(u64, u64)>,
}

impl fmt::Display for E10Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E10 (Figure 1, k = 6): GTFT initiator moves up w.p. 1-β, down w.p. β (truncated)"
        )?;
        writeln!(
            f,
            "increment rate {} (theory {}), decrement rate {}",
            fmt_f(self.increment_rate),
            fmt_f(self.theory_increment),
            fmt_f(self.decrement_rate)
        )?;
        let mut t = TextTable::new(vec!["level", "increments", "decrements"]);
        for (level, (inc, dec)) in self.per_level.iter().enumerate() {
            t.row(vec![level.to_string(), inc.to_string(), dec.to_string()]);
        }
        write!(f, "{t}")
    }
}

/// Runs E10: tallies one-step moves of the count-level engine at `k = 6`.
pub fn run_e10(interactions: u64, seed: u64) -> E10Report {
    let beta = 0.2;
    let cfg = config_for(beta, 6, 0.9, 0.9);
    let n = 200u64;
    let (_, n_ad, _) = cfg.composition().group_sizes(n).expect("valid");
    let mut engine = walk_engine(&cfg, n, 2).expect("valid config");
    let mut rng = rng_from_seed(seed);
    let mut per_level = vec![(0u64, 0u64); 6];
    let mut gtft_initiations = 0u64;
    for _ in 0..interactions {
        // `step` returns the sampled pre-interaction state indices
        // (initiator, responder); index 1 is AD, indices >= 2 are GTFT
        // levels. Figure 1 describes the *event* rates — increments fire
        // w.p. 1−β, decrements w.p. β — with values truncated at the grid
        // ends, so events are tallied regardless of truncation.
        let (i, j) = engine.step(&mut rng);
        if i >= 2 {
            gtft_initiations += 1;
            let level = i - 2;
            if j == 1 {
                per_level[level].1 += 1;
            } else {
                per_level[level].0 += 1;
            }
        }
    }
    let total_inc: u64 = per_level.iter().map(|(i, _)| i).sum();
    let total_dec: u64 = per_level.iter().map(|(_, d)| d).sum();
    E10Report {
        increment_rate: total_inc as f64 / gtft_initiations as f64,
        decrement_rate: total_dec as f64 / gtft_initiations as f64,
        theory_increment: (n - n_ad - 1) as f64 / (n - 1) as f64,
        per_level,
    }
}

/// The E14 report: action-observed vs strategy-typed dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct E14Report {
    /// `(δ, GTFT-misclassified-as-AD rate, TV(observed occupancy, theory))`.
    pub rows: Vec<(f64, f64, f64)>,
}

impl fmt::Display for E14Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E14 (remark after Def 2.1): action-observed transitions approach the strategy-typed dynamics"
        )?;
        let mut t = TextTable::new(vec!["delta", "GTFT misclass rate", "TV to Thm 2.7 law"]);
        for &(delta, rate, tv) in &self.rows {
            t.row(vec![fmt_f(delta), fmt_f(rate), fmt_f(tv)]);
        }
        write!(f, "{t}")
    }
}

/// Runs E14 over a δ sweep.
pub fn run_e14(seed: u64) -> E14Report {
    let rows = [0.5, 0.8, 0.95]
        .iter()
        .map(|&delta| {
            let cfg = config_for(0.2, 4, 0.6, delta);
            let rates = misclassification_rates(&cfg, 2_000, seed);
            // The observed rule declares no law, so the engine steps it
            // exactly at any batch; 1 says so.
            let counts = walk_counts(&cfg, 80, 0).expect("valid configuration");
            let engine = BatchedEngine::from_counts(ObservedIgtProtocol::new(cfg), counts)
                .expect("80 agents");
            let mu = time_averaged_distribution(
                engine,
                FIRST_LEVEL..,
                20_000,
                150,
                80,
                1,
                &mut rng_from_seed(seed),
            )
            .expect("80 agents");
            let theory = stationary_level_probs(&cfg);
            let tv = tv_distance(&mu, &theory).expect("same length");
            (delta, rates.gtft_as_defector, tv)
        })
        .collect();
    E14Report { rows }
}

/// The E15 report: execution noise collapses TFT but not GTFT.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Report {
    /// `(strategy label, noise, cooperation rate, mean payoff)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl E15Report {
    /// Cooperation rate of a labeled row at a noise level.
    pub fn cooperation(&self, label: &str, noise: f64) -> Option<f64> {
        self.rows
            .iter()
            .find(|(l, n, _, _)| l == label && (*n - noise).abs() < 1e-12)
            .map(|&(_, _, c, _)| c)
    }
}

impl fmt::Display for E15Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E15 (§1.1.2): self-play cooperation under execution noise (δ = 0.98, s1 = 1)"
        )?;
        let mut t = TextTable::new(vec!["strategy", "noise", "coop rate", "mean payoff"]);
        for (label, noise, coop, payoff) in &self.rows {
            t.row(vec![
                label.clone(),
                fmt_f(*noise),
                fmt_f(*coop),
                fmt_f(*payoff),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs E15: self-play of TFT/GTFT/WSLS under a noise sweep.
pub fn run_e15(games: u64, seed: u64) -> E15Report {
    let params = GameParams::new(2.0, 0.5, 0.98, 1.0).expect("valid game");
    let strategies: Vec<(String, MemoryOneStrategy)> = vec![
        ("TFT".into(), MemoryOneStrategy::tft(1.0)),
        ("GTFT(0.1)".into(), MemoryOneStrategy::gtft(0.1, 1.0)),
        ("GTFT(0.3)".into(), MemoryOneStrategy::gtft(0.3, 1.0)),
        ("WSLS".into(), MemoryOneStrategy::wsls(1.0)),
    ];
    let mut rng = rng_from_seed(seed);
    let mut rows = Vec::new();
    for (label, strategy) in &strategies {
        for &noise in &[0.0, 0.02, 0.05, 0.1] {
            let noise_model = (noise > 0.0).then(|| NoiseModel::new(noise));
            let est = estimate_payoffs(strategy, strategy, &params, noise_model, games, &mut rng);
            rows.push((
                label.clone(),
                noise,
                est.row_cooperation,
                est.row.mean(),
            ));
        }
    }
    E15Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_closed_equals_direct_and_simulation_close() {
        let r = run_e6(17);
        for row in &r.rows {
            assert!(
                (row.closed - row.direct).abs() < 1e-9,
                "beta={} k={}",
                row.beta,
                row.k
            );
            assert!(
                (row.simulated - row.closed).abs() < 0.08,
                "beta={} k={}: sim {} vs closed {}",
                row.beta,
                row.k,
                row.simulated,
                row.closed
            );
            if let Some(bound) = row.c1_bound {
                assert!(row.closed >= bound - 1e-12);
            }
        }
        assert!(r.to_string().contains("Prop 2.8"));
    }

    #[test]
    fn e10_rates_match_beta_split() {
        let r = run_e10(60_000, 19);
        // increment + decrement ≈ 1 conditional on a GTFT initiator (only
        // truncation at the boundary levels removes mass).
        assert!(
            (r.increment_rate - r.theory_increment).abs() < 0.03,
            "inc {} vs theory {}",
            r.increment_rate,
            r.theory_increment
        );
        assert!(
            (r.decrement_rate - (1.0 - r.theory_increment)).abs() < 0.05,
            "dec {}",
            r.decrement_rate
        );
        assert!(r.to_string().contains("Figure 1"));
    }

    #[test]
    fn e14_observed_dynamics_track_theory() {
        let r = run_e14(23);
        // Misclassification shrinks (weakly) and the occupancy stays close
        // to the Theorem 2.7 law at every δ.
        for &(delta, rate, tv) in &r.rows {
            assert!(rate < 0.2, "δ={delta}: misclassification {rate}");
            assert!(tv < 0.25, "δ={delta}: TV {tv}");
        }
        assert!(r.to_string().contains("Def 2.1"));
    }

    #[test]
    fn e15_noise_separates_tft_from_gtft() {
        let r = run_e15(1_500, 29);
        let tft = r.cooperation("TFT", 0.05).expect("row exists");
        let gtft = r.cooperation("GTFT(0.3)", 0.05).expect("row exists");
        assert!(
            gtft > tft + 0.15,
            "GTFT {gtft} should far exceed TFT {tft} under noise"
        );
        // Without noise everyone fully cooperates.
        assert!(r.cooperation("TFT", 0.0).unwrap() > 0.999);
        assert!(r.to_string().contains("noise"));
    }
}
