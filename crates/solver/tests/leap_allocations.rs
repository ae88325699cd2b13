//! Once warm, the batched engine's τ-leap allocates nothing on a
//! tabulated (count-independent) protocol.
//!
//! A counting global allocator tallies allocations per thread, so the
//! tests libtest runs on other threads do not move a test's own tally.
//! Count-coupled laws (pairwise imitation, br-sample) refresh their
//! kernel between leaps and are out of scope here.

use popgame_population::batch::BatchedEngine;
use popgame_population::protocol::EnumerableProtocol;
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule, GameDynamics};
use popgame_solver::game::MatrixGame;
use popgame_solver::scenarios::by_name;
use popgame_util::rng::rng_from_seed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every operation is delegated to `System` unchanged; the tally
// bump touches no returned memory. A `const`-initialised `Cell<u64>`
// needs no lazy setup or destructor, so the bump never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down has no slot left to bump.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs one warm-up chunk of 50 leaps, then asserts that four more
/// chunks allocate nothing and leave the population unabsorbed (so every
/// leap did real work).
fn assert_warm_leaps_allocate_nothing<P: EnumerableProtocol>(
    label: &str,
    mut engine: BatchedEngine<P>,
    seed: u64,
) {
    assert!(!engine.protocol().kernel_depends_on_counts(), "{label}");
    let batch = engine.suggested_batch();
    let chunk = 50 * batch;
    let mut rng = rng_from_seed(seed);
    engine.run_batched(chunk, batch, &mut rng).unwrap();
    let before = allocations();
    for _ in 0..4 {
        engine.run_batched(chunk, batch, &mut rng).unwrap();
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "{label}: {allocated} allocations in 200 warm leaps"
    );
    assert_eq!(engine.interactions(), 5 * chunk, "{label}");
    assert!(
        !engine.is_consensus(),
        "{label}: absorbed, so leaps were skipped"
    );
}

#[test]
fn warm_tabulated_leaps_allocate_nothing() {
    // k-IGT from a cold start: AC, AD, then every GTFT agent at level 0.
    let donation = MatrixGame::donation(2.0, 0.5).unwrap();
    for n in [1_000u64, 100_000, 1_000_000] {
        let dynamics = GameDynamics::new(&donation, DynamicsRule::KIgt { levels: 4 }).unwrap();
        let counts = vec![3 * n / 10, n / 5, n / 2, 0, 0, 0];
        let engine = BatchedEngine::from_counts(dynamics, counts).unwrap();
        assert_warm_leaps_allocate_nothing(&format!("k-IGT at n = {n}"), engine, n);
    }

    for (scenario, rule) in [
        ("rock-paper-scissors", DynamicsRule::BestResponse),
        ("rock-paper-scissors", DynamicsRule::Logit { eta: 2.0 }),
        ("rock-paper-scissors", DynamicsRule::Imitation),
        ("rock-paper-scissors", DynamicsRule::TwoWayImitation),
        ("prisoners-dilemma", DynamicsRule::KIgt { levels: 4 }),
    ] {
        let dynamics = GameDynamics::new(by_name(scenario).unwrap().game(), rule).unwrap();
        let profile = dynamics.initial_profile();
        let engine = engine_from_profile(dynamics, &profile, 100_000).unwrap();
        assert_warm_leaps_allocate_nothing(&format!("{scenario} {}", rule.label()), engine, 7);
    }
}
