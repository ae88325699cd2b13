//! Quickstart: build an (α, β, γ) population, run the k-IGT dynamics, and
//! compare the simulated generosity-level occupancy with Theorem 2.7's
//! multinomial stationary law.
//!
//! Run with: `cargo run --release --example quickstart`

use popgame::prelude::*;
use popgame_igt::dynamics::walk_engine;
use popgame_igt::state::FIRST_LEVEL;
use popgame_igt::trajectory::time_averaged_distribution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Population: 30% Always-Cooperate, 20% Always-Defect, 50% GTFT.
    // Game: donation rewards b = 2, c = 0.5; continuation δ = 0.9;
    // initial cooperation s₁ = 0.95; six generosity levels up to ĝ = 0.6.
    let config = IgtConfig::new(
        PopulationComposition::new(0.3, 0.2, 0.5)?,
        GenerosityGrid::new(6, 0.6)?,
        GameParams::new(2.0, 0.5, 0.9, 0.95)?,
    );
    let n = 500u64;
    let k = config.grid().k();

    println!("k-IGT dynamics: n = {n}, k = {k}, λ = (1-β)/β = {}", config.composition().lambda());
    println!("Theorem 2.7 predicts level probabilities p_j ∝ λ^(j-1):\n");

    // Exactly Definition 2.1, one interaction at a time (batch 1): burn in
    // past the O(k n log n) mixing bound, then time-average 500 snapshots
    // spaced n interactions apart.
    let engine = walk_engine(&config, n, 0)?;
    let mut rng = rng_from_seed(42);
    let simulated = time_averaged_distribution(engine, FIRST_LEVEL.., 60 * n, 500, n, 1, &mut rng)?;
    let theory = stationary_level_probs(&config);

    println!("{:>6} {:>10} {:>12} {:>12}", "level", "g value", "simulated", "Thm 2.7");
    for j in 0..k {
        println!(
            "{:>6} {:>10.3} {:>12.4} {:>12.4}",
            j,
            config.grid().value(j),
            simulated[j],
            theory[j]
        );
    }
    let tv = tv_distance(&simulated, &theory)?;
    println!("\ntotal variation distance: {tv:.4}");

    // Proposition 2.8: the average stationary generosity.
    let eg = stationary_average_generosity(&config);
    let eg_sim: f64 = simulated
        .iter()
        .enumerate()
        .map(|(j, p)| p * config.grid().value(j))
        .sum();
    println!("average stationary generosity: simulated {eg_sim:.4}, Prop 2.8 closed form {eg:.4}");
    Ok(())
}
