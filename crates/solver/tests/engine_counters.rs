//! The batched engine's work counters are exact at public-call boundaries.
//!
//! One test in a file of its own: every integration-test file runs in its
//! own process, so no test running in parallel moves the process-global
//! `popgame_engine_*_total` counters between two reads.

use popgame_population::batch::BatchedEngine;
use popgame_population::metrics;
use popgame_population::protocol::{EnumerableProtocol, Protocol};
use popgame_population::trajectory::TrajectoryRecorder;
use popgame_solver::dynamics::{DynamicsRule, GameDynamics};
use popgame_solver::scenarios::by_name;
use popgame_util::rng::rng_from_seed;
use rand::Rng;

/// The one-way 3-state undecided-state dynamics for approximate majority
/// (states `A = 0`, `B = 1`, undecided `= 2`): an initiator meeting the
/// opposite opinion becomes undecided, and an undecided initiator adopts
/// the responder's opinion. A deterministic rule the engine tabulates.
struct UndecidedDynamics;

impl Protocol for UndecidedDynamics {
    type State = usize;

    fn interact<R: Rng + ?Sized>(
        &self,
        initiator: usize,
        responder: usize,
        _rng: &mut R,
    ) -> (usize, usize) {
        let updated = match (initiator, responder) {
            (0, 1) | (1, 0) => 2,
            (2, 0) => 0,
            (2, 1) => 1,
            (other, _) => other,
        };
        (updated, responder)
    }

    fn is_one_way(&self) -> bool {
        true
    }
}

impl EnumerableProtocol for UndecidedDynamics {
    fn num_states(&self) -> usize {
        3
    }

    fn state_index(&self, state: usize) -> usize {
        state
    }

    fn state_at(&self, index: usize) -> usize {
        index
    }
}

/// The six engine counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Work {
    leaps: u64,
    exact_steps: u64,
    kernel_builds: u64,
    kernel_refreshes: u64,
    dirty_cells: u64,
    alias_rebuilds: u64,
}

impl Work {
    fn read() -> Work {
        Work {
            leaps: metrics::leaps().get(),
            exact_steps: metrics::exact_steps().get(),
            kernel_builds: metrics::kernel_full_builds().get(),
            kernel_refreshes: metrics::kernel_refreshes().get(),
            dirty_cells: metrics::kernel_dirty_cells().get(),
            alias_rebuilds: metrics::alias_rebuilds().get(),
        }
    }

    /// What the counters gained since `self` was read.
    fn delta(self) -> Work {
        let now = Work::read();
        Work {
            leaps: now.leaps - self.leaps,
            exact_steps: now.exact_steps - self.exact_steps,
            kernel_builds: now.kernel_builds - self.kernel_builds,
            kernel_refreshes: now.kernel_refreshes - self.kernel_refreshes,
            dirty_cells: now.dirty_cells - self.dirty_cells,
            alias_rebuilds: now.alias_rebuilds - self.alias_rebuilds,
        }
    }
}

fn pairwise_imitation() -> GameDynamics {
    let pd = by_name("prisoners-dilemma").unwrap();
    GameDynamics::new(pd.game(), DynamicsRule::PairwiseImitation).unwrap()
}

#[test]
fn engine_counters_are_exact_at_call_boundaries() {
    // `step`: one exact step per call, and an alias rebuild on the first
    // call and after every count change.
    let mut engine = BatchedEngine::from_counts(UndecidedDynamics, vec![6, 4, 2]).unwrap();
    let mut rng = rng_from_seed(3);
    let mut changed = true;
    for _ in 0..40 {
        let (counts, before) = (engine.counts().to_vec(), Work::read());
        engine.step(&mut rng);
        let alias_rebuilds = u64::from(changed);
        assert_eq!(
            before.delta(),
            Work {
                exact_steps: 1,
                alias_rebuilds,
                ..Work::default()
            }
        );
        changed = engine.counts() != counts;
    }

    // `step_batch` on a count-coupled law, one interaction per leap: a
    // kernel refresh of the two off-diagonal cells after every count
    // change, and a flow-alias rebuild whenever the leap moves an agent.
    let before = Work::read();
    let mut engine = BatchedEngine::from_counts(pairwise_imitation(), vec![6, 6]).unwrap();
    assert_eq!(
        before.delta(),
        Work {
            kernel_builds: 1,
            ..Work::default()
        }
    );
    let mut rng = rng_from_seed(5);
    let mut changed = false;
    for _ in 0..40 {
        let (counts, before) = (engine.counts().to_vec(), Work::read());
        engine.step_batch(1, &mut rng).unwrap();
        let refreshed = u64::from(changed);
        changed = engine.counts() != counts;
        let expected = Work {
            leaps: 1,
            kernel_refreshes: refreshed,
            dirty_cells: 2 * refreshed,
            alias_rebuilds: u64::from(changed),
            ..Work::default()
        };
        assert_eq!(before.delta(), expected);
    }

    // `run_batched` on an absorbing run: the leaps up to and including
    // the first that finds the population absorbed, none after it. A
    // `step_batch` loop on the same stream until consensus (the absorbing
    // states of the undecided dynamics) counts them.
    let total = 100_000;
    let (mut oracle, mut rng) = (
        BatchedEngine::from_counts(UndecidedDynamics, vec![6, 4, 2]).unwrap(),
        rng_from_seed(7),
    );
    let (mut leaps, mut moves) = (0, 0);
    while !oracle.is_consensus() {
        let counts = oracle.counts().to_vec();
        oracle.step_batch(1, &mut rng).unwrap();
        leaps += 1;
        moves += u64::from(oracle.counts() != counts);
    }
    assert!(leaps < total / 10, "{leaps} leaps to consensus");
    let mut engine = BatchedEngine::from_counts(UndecidedDynamics, vec![6, 4, 2]).unwrap();
    let mut rng = rng_from_seed(7);
    let before = Work::read();
    engine.run_batched(total, 1, &mut rng).unwrap();
    let expected = Work {
        leaps: leaps + 1,
        alias_rebuilds: moves,
        ..Work::default()
    };
    assert_eq!(before.delta(), expected);
    assert_eq!(
        (engine.counts(), engine.interactions()),
        (oracle.counts(), total)
    );

    // `run_recorded` on a count-coupled run that reaches consensus: every
    // count change is followed by one refresh, the last by the refresh of
    // the leap that finds the population absorbed.
    let (mut oracle, mut rng) = (
        BatchedEngine::from_counts(pairwise_imitation(), vec![6, 6]).unwrap(),
        rng_from_seed(11),
    );
    let (mut leaps, mut moves) = (0, 0);
    while !oracle.is_consensus() {
        let counts = oracle.counts().to_vec();
        oracle.step_batch(1, &mut rng).unwrap();
        leaps += 1;
        moves += u64::from(oracle.counts() != counts);
    }
    assert!(leaps < total / 10, "{leaps} leaps to consensus");
    let mut engine = BatchedEngine::from_counts(pairwise_imitation(), vec![6, 6]).unwrap();
    let mut rng = rng_from_seed(11);
    let mut recorder = TrajectoryRecorder::new(8).unwrap();
    let before = Work::read();
    engine
        .run_recorded(total, 1, &mut rng, &mut recorder)
        .unwrap();
    let expected = Work {
        leaps: leaps + 1,
        kernel_refreshes: moves,
        dirty_cells: 2 * moves,
        alias_rebuilds: moves,
        ..Work::default()
    };
    assert_eq!(before.delta(), expected);
    assert_eq!(
        (engine.counts(), engine.interactions()),
        (oracle.counts(), total)
    );
}
