//! Substrate benches: the primitives every experiment sits on — simplex
//! ranking and samplers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use popgame_dist::simplex::SimplexSpace;
use popgame_util::rng::rng_from_seed;
use popgame_util::sampler::{sample_binomial, AliasTable};
use std::time::Duration;

fn bench_simplex_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/simplex_rank");
    group.measurement_time(Duration::from_secs(2)).sample_size(50);
    for (k, m) in [(4usize, 32u64), (8, 64)] {
        let space = SimplexSpace::new(k, m).unwrap();
        let state = space.unrank(space.len() / 2).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_m{m}")),
            &(space, state),
            |b, (space, state)| b.iter(|| space.rank(state).unwrap()),
        );
    }
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/samplers");
    group.measurement_time(Duration::from_secs(2)).sample_size(50);
    let mut rng = rng_from_seed(10);
    group.bench_function("binomial_n1e4", |b| {
        b.iter(|| sample_binomial(10_000, 0.3, &mut rng))
    });
    // τ-leap-sized draws (√10⁷ ≈ 3162 interactions) in both regimes:
    // BTRS rejection at n·p ≈ 949, bottom-up inversion at n·p ≈ 6; and
    // BTRS at the moderate n·p of 30 and 128 that the report harness's
    // batches of 100–320 draw at, where the squeeze misses most often. The
    // engine's `p` is a runtime value, so keep the compiler from folding
    // the set-up into constants.
    for (name, n, p) in [
        ("binomial_n3162_p0.3", 3162, 0.3),
        ("binomial_n3162_p0.002", 3162, 0.002),
        ("binomial_n100_p0.3", 100, 0.3),
        ("binomial_n320_p0.4", 320, 0.4),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| sample_binomial(n, black_box(p), &mut rng))
        });
    }
    let alias = AliasTable::new(&vec![1.0; 64]).unwrap();
    group.bench_function("alias_64", |b| b.iter(|| alias.sample(&mut rng)));
    group.finish();
}

criterion_group!(benches, bench_simplex_rank, bench_samplers);
criterion_main!(benches);
