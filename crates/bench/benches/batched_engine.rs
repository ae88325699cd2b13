//! Batched-engine benches: the per-interaction cost of exact steps and of
//! leaps, and the parallel replica harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use popgame_igt::dynamics::walk_engine;
use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
use popgame_runner::run_replicas;
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule, GameDynamics};
use popgame_solver::scenarios::by_name;
use popgame_util::rng::rng_from_seed;
use std::time::Duration;

fn config() -> IgtConfig {
    IgtConfig::new(
        PopulationComposition::new(0.3, 0.2, 0.5).unwrap(),
        GenerosityGrid::new(4, 0.8).unwrap(),
        popgame_game::params::GameParams::new(2.0, 0.5, 0.9, 0.95).unwrap(),
    )
}

fn bench_alias_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched/alias_step");
    group.measurement_time(Duration::from_secs(2)).sample_size(30);
    let cfg = config();
    for n in [1_000u64, 1_000_000] {
        let mut engine = walk_engine(&cfg, n, 0).unwrap();
        let mut rng = rng_from_seed(6);
        group.bench_with_input(BenchmarkId::from_parameter(n), &(), |b, ()| {
            b.iter(|| engine.step(&mut rng))
        });
    }
    group.finish();
}

fn bench_leap(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched/leap_n_interactions");
    group.measurement_time(Duration::from_secs(2)).sample_size(20);
    let cfg = config();
    for n in [1_000u64, 1_000_000] {
        let mut engine = walk_engine(&cfg, n, 0).unwrap();
        let batch = engine.suggested_batch();
        let mut rng = rng_from_seed(7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &(), |b, ()| {
            b.iter(|| engine.run_batched(n, batch, &mut rng).unwrap())
        });
    }
    group.finish();
}

/// The costliest REPORT cell: logit (η = 2) on the symmetrized
/// `random-zero-sum-5` game (`K = 10`) at `n = 6400`, in the report
/// harness's leaps of `4·√n = 320`. Per-leap overheads (flow
/// construction, alias draws) dominate at this size.
fn bench_leap_harness(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched");
    group.measurement_time(Duration::from_secs(2)).sample_size(20);
    let game = by_name("random-zero-sum-5").unwrap().game().symmetrized();
    let dynamics = GameDynamics::new(&game, DynamicsRule::Logit { eta: 2.0 }).unwrap();
    let start = dynamics.initial_profile();
    let mut engine = engine_from_profile(dynamics, &start, 6_400).unwrap();
    let mut rng = rng_from_seed(8);
    group.bench_function("leap_harness_k10_logit_n6400", |b| {
        b.iter(|| engine.run_batched(6_400, 320, &mut rng).unwrap())
    });
    group.finish();
}

fn bench_replica_harness(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched/replicas_x16");
    group.measurement_time(Duration::from_secs(2)).sample_size(10);
    let cfg = config();
    group.bench_function("igt_n10k_100k_interactions", |b| {
        b.iter(|| {
            run_replicas(11, 16, |_rep, mut rng| {
                let mut engine = walk_engine(&cfg, 10_000, 0).unwrap();
                let batch = engine.suggested_batch();
                engine.run_batched(100_000, batch, &mut rng).unwrap();
                engine.counts().to_vec()
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_alias_step,
    bench_leap,
    bench_leap_harness,
    bench_replica_harness
);
criterion_main!(benches);
