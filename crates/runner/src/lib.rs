#![warn(missing_docs)]

//! Deterministic parallel Monte-Carlo replica harness.
//!
//! Every experiment in this workspace reduces to "run `R` independent
//! replicas of a stochastic simulation and aggregate". This crate fans
//! those replicas across OS threads while keeping the result **bitwise
//! deterministic** for a fixed `(seed, replicas)` pair:
//!
//! * replica `r` always draws from `stream_rng(seed, r)` — its randomness
//!   depends only on the seed and its own index, never on scheduling;
//! * results are written into a slot indexed by `r`, so aggregation order
//!   is fixed regardless of which thread finished first;
//! * the thread count affects wall-clock time only, never the output.
//!
//! The build environment has no registry access, so the fan-out is
//! implemented on `std::thread::scope` rather than `rayon`; the API is a
//! deliberate small subset (`run_replicas` ≈ `into_par_iter().map()`)
//! that a future `rayon` backend could replace without callers noticing.
//!
//! # Scheduling
//!
//! Tasks are distributed by **work stealing** ([`run_tasks`]): each worker
//! owns a deque seeded with a contiguous block of the index space, pops
//! its own work from the front, and — when empty — steals from the tail of
//! another worker's deque. A worker stuck on one slow task therefore
//! cannot strand the rest of its block: idle workers drain it. Because
//! every task's output depends only on its index (never on which thread
//! ran it or in what order) and results are reassembled by index, the
//! output is bitwise identical to a sequential loop.
//!
//! The worker count comes from [`worker_threads`]: an in-process override
//! ([`set_worker_threads`], wired to the CLI `--workers` flag), else the
//! `POPGAME_WORKERS` environment variable, else the machine's available
//! parallelism.
//!
//! # Example
//!
//! ```
//! use popgame_runner::run_replicas;
//! use rand::Rng;
//!
//! // Estimate E[U] for U ~ Uniform(0,1), 64 replicas in parallel.
//! let sim = |_replica: u64, mut rng: rand::rngs::SmallRng| {
//!     let mut acc = 0.0;
//!     for _ in 0..1_000 {
//!         acc += rng.gen::<f64>();
//!     }
//!     acc / 1_000.0
//! };
//! let means = run_replicas(7, 64, sim);
//! let grand = means.iter().sum::<f64>() / means.len() as f64;
//! assert!((grand - 0.5).abs() < 0.01);
//! // Determinism: same seed, same replica count => identical output.
//! assert_eq!(means, run_replicas(7, 64, sim));
//! ```

use popgame_obs::metrics::{registry, Counter, Gauge};
use popgame_obs::trace::{self, Family};
use popgame_util::rng::stream_rng;
use rand::rngs::SmallRng;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

/// Process-wide worker-count override; `0` means "not set".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) a process-wide override of the worker
/// count used by [`run_tasks`] and [`run_replicas`]. Takes precedence
/// over the `POPGAME_WORKERS` environment variable; the CLI's
/// `--workers` flag lands here. Values are clamped to at least 1.
pub fn set_worker_threads(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
}

/// The number of worker threads used by [`run_tasks`] /
/// [`run_replicas`]: the [`set_worker_threads`] override when set, else
/// the `POPGAME_WORKERS` environment variable, else the machine's
/// available parallelism.
pub fn worker_threads() -> usize {
    let forced = WORKER_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var("POPGAME_WORKERS").ok().and_then(|v| v.parse::<usize>().ok()) {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-worker scheduler counters, shared by every pool run in the
/// process: cumulative tasks executed, steal outcomes, and idle time
/// spent looking for work. Handles are registered once per worker index
/// and cloned per run, so workers touch only relaxed atomics.
#[derive(Debug, Clone)]
struct WorkerHandles {
    tasks: Arc<Counter>,
    steals: Arc<Counter>,
    steal_misses: Arc<Counter>,
    idle_ns: Arc<Counter>,
}

/// What one worker did while a pool run executed — accumulated locally,
/// flushed to the global counters once when the worker exits.
#[derive(Debug, Default)]
struct LocalStats {
    tasks: u64,
    steals: u64,
    steal_misses: u64,
    idle_ns: u64,
}

impl LocalStats {
    fn flush(&self, handles: &WorkerHandles) {
        handles.tasks.add(self.tasks);
        handles.steals.add(self.steals);
        handles.steal_misses.add(self.steal_misses);
        handles.idle_ns.add(self.idle_ns);
    }
}

fn handle_table() -> &'static Mutex<Vec<WorkerHandles>> {
    static TABLE: OnceLock<Mutex<Vec<WorkerHandles>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Handles for workers `0..workers`, registering new indices on first use.
fn worker_handles(workers: usize) -> Vec<WorkerHandles> {
    let mut table = handle_table().lock().expect("worker handle table poisoned");
    while table.len() < workers {
        let worker = table.len().to_string();
        let labels: [(&str, &str); 1] = [("worker", worker.as_str())];
        table.push(WorkerHandles {
            tasks: registry().counter(
                "popgame_runner_tasks_total",
                "Tasks executed by each work-stealing pool worker.",
                &labels,
            ),
            steals: registry().counter(
                "popgame_runner_steals_total",
                "Successful steals (tasks taken from another worker's deque).",
                &labels,
            ),
            steal_misses: registry().counter(
                "popgame_runner_steal_misses_total",
                "Steal attempts that found the victim deque empty.",
                &labels,
            ),
            idle_ns: registry().counter(
                "popgame_runner_idle_ns_total",
                "Nanoseconds each worker spent acquiring work (own pop + steal probes).",
                &labels,
            ),
        });
    }
    table[..workers].to_vec()
}

fn pool_runs() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    cell_counter(
        &CELL,
        "popgame_runner_pool_runs_total",
        "Work-stealing pool invocations (run_tasks calls, sequential path included).",
    )
}

fn pool_workers_gauge() -> &'static Gauge {
    static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
    CELL.get_or_init(|| {
        registry().gauge(
            "popgame_runner_pool_workers",
            "Worker threads used by the most recent pool run.",
            &[],
        )
    })
}

fn cell_counter(
    cell: &'static OnceLock<Arc<Counter>>,
    name: &'static str,
    help: &'static str,
) -> &'static Counter {
    cell.get_or_init(|| registry().counter(name, help, &[]))
}

/// One worker's cumulative scheduler statistics, as reported by
/// [`pool_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (stable across runs; index 0 doubles as the
    /// sequential path).
    pub worker: usize,
    /// Tasks executed.
    pub tasks: u64,
    /// Successful steals from another worker's deque.
    pub steals: u64,
    /// Steal probes that found an empty victim deque.
    pub steal_misses: u64,
    /// Nanoseconds spent acquiring work (idle/park time).
    pub idle_ns: u64,
}

/// A point-in-time snapshot of the per-worker scheduler counters, one
/// entry per worker index that has ever run. The same numbers are
/// exported through the `popgame_runner_*` metric families on
/// `GET /metrics`; this accessor exists for in-process consumers
/// (tests, the service's health endpoint, tooling).
pub fn pool_snapshot() -> Vec<WorkerStats> {
    let table = handle_table().lock().expect("worker handle table poisoned");
    table
        .iter()
        .enumerate()
        .map(|(worker, h)| WorkerStats {
            worker,
            tasks: h.tasks.get(),
            steals: h.steals.get(),
            steal_misses: h.steal_misses.get(),
            idle_ns: h.idle_ns.get(),
        })
        .collect()
}

/// Runs `count` independent tasks on the work-stealing pool and returns
/// their results in index order: `out[i] = task(i)` exactly, independent
/// of worker count and scheduling.
///
/// This is the scheduling primitive under [`run_replicas`]; use it
/// directly to flatten a heterogeneous sweep (for example every
/// `(scenario, dynamics, size, replica)` cell of a report) into one task
/// pool, so one slow cell cannot serialize the tail of the sweep.
pub fn run_tasks<T, F>(count: u64, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let never = AtomicBool::new(false);
    run_tasks_cancellable(count, &never, task).expect("un-cancelled run always completes")
}

/// [`run_tasks`] with a cooperative stop flag, checked before each task
/// starts. `None` when cancellation kept at least one task from running;
/// a completed run is `Some` and bitwise identical to [`run_tasks`].
pub fn run_tasks_cancellable<T, F>(count: u64, cancel: &AtomicBool, task: F) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let count_usize = usize::try_from(count).expect("task count fits in usize");
    let workers = worker_threads().min(count_usize.max(1));
    let handles = worker_handles(workers);
    pool_runs().inc();
    pool_workers_gauge().set(workers as i64);
    // Scheduler spans are strictly out-of-band: recorded only when the
    // trace collector is enabled, and never on the task's data path.
    let run_span = trace::span(Family::Scheduler, "pool:run");
    let tracing = run_span.id() != 0;
    if workers <= 1 {
        let mut out = Vec::with_capacity(count_usize);
        for i in 0..count {
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            let _task_span =
                tracing.then(|| trace::span(Family::Scheduler, &format!("task:{i}")));
            out.push(task(i));
        }
        handles[0].tasks.add(count);
        return Some(out);
    }
    // Per-worker deques seeded with contiguous blocks of the index space:
    // owners pop from the front (preserving cache-friendly index order),
    // thieves pop from the back (taking the work the owner would reach
    // last).
    let chunk = count_usize.div_ceil(workers);
    let deques: Vec<Mutex<VecDeque<u64>>> = (0..workers)
        .map(|w| {
            let lo = ((w * chunk).min(count_usize)) as u64;
            let hi = (((w + 1) * chunk).min(count_usize)) as u64;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let run_span_id = run_span.id();
    let trace_id = trace::thread_trace_id();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let deques = &deques;
            let task = &task;
            let tx = tx.clone();
            let my_handles = handles[me].clone();
            scope.spawn(move || {
                let worker_span = tracing.then(|| {
                    trace::set_thread_trace_id(trace_id);
                    trace::span_with_parent(
                        Family::Scheduler,
                        &format!("worker:{me}"),
                        run_span_id,
                        trace_id,
                    )
                });
                let mut stats = LocalStats::default();
                loop {
                    if cancel.load(Ordering::Relaxed) {
                        break;
                    }
                    // Everything between here and obtaining a task is
                    // "idle" — the own-deque pop plus any steal probes.
                    let acquire_start = Instant::now();
                    let acquire_ns = tracing.then(trace::now_ns);
                    let mut stole = false;
                    let mut next = deques[me]
                        .lock()
                        .expect("worker deque poisoned")
                        .pop_front();
                    if next.is_none() {
                        for d in 1..workers {
                            match deques[(me + d) % workers]
                                .lock()
                                .expect("worker deque poisoned")
                                .pop_back()
                            {
                                Some(index) => {
                                    stats.steals += 1;
                                    stole = true;
                                    next = Some(index);
                                    break;
                                }
                                None => stats.steal_misses += 1,
                            }
                        }
                    }
                    stats.idle_ns += u64::try_from(
                        acquire_start.elapsed().as_nanos(),
                    )
                    .unwrap_or(u64::MAX);
                    if let Some(t0) = acquire_ns {
                        trace::record(
                            Family::Scheduler,
                            if stole { "steal" } else { "idle" },
                            t0,
                            trace::now_ns(),
                        );
                    }
                    let Some(index) = next else { break };
                    let result = {
                        let _task_span = tracing
                            .then(|| trace::span(Family::Scheduler, &format!("task:{index}")));
                        task(index)
                    };
                    stats.tasks += 1;
                    if tx.send((index as usize, result)).is_err() {
                        break;
                    }
                }
                stats.flush(&my_handles);
                drop(worker_span);
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count_usize);
    slots.resize_with(count_usize, || None);
    for (index, result) in rx.try_iter() {
        slots[index] = Some(result);
    }
    if slots.iter().any(Option::is_none) {
        return None;
    }
    Some(
        slots
            .into_iter()
            .map(|s| s.expect("checked above"))
            .collect(),
    )
}

/// Runs `replicas` independent simulations in parallel and returns their
/// results in replica order.
///
/// `sim(replica, rng)` receives the replica index and a generator seeded
/// with `stream_rng(seed, replica)`; the output `Vec` satisfies
/// `out[r] = sim(r, stream_rng(seed, r))` exactly, independent of thread
/// count and scheduling.
pub fn run_replicas<T, F>(seed: u64, replicas: u64, sim: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, SmallRng) -> T + Sync,
{
    let never = AtomicBool::new(false);
    run_replicas_cancellable(seed, replicas, &never, sim)
        .expect("un-cancelled run always completes")
}

/// [`run_replicas`] with a cooperative stop flag, for callers (such as the
/// `popgamed` job queue) that may need to abort an orphaned computation.
///
/// The flag is checked before each replica starts; no replica is
/// interrupted mid-simulation. When every replica completed — the flag was
/// never observed set at a replica boundary — the result is `Some` and
/// **bitwise identical** to [`run_replicas`] with the same `(seed,
/// replicas)`. When cancellation prevented at least one replica from
/// running, the partial work is discarded and the result is `None`.
///
/// A flag raised after the final replica has already started may still
/// yield `Some`: cancellation is best-effort, completion is authoritative.
pub fn run_replicas_cancellable<T, F>(
    seed: u64,
    replicas: u64,
    cancel: &AtomicBool,
    sim: F,
) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(u64, SmallRng) -> T + Sync,
{
    run_tasks_cancellable(replicas, cancel, |r| sim(r, stream_rng(seed, r)))
}

/// The sequential reference path of [`run_replicas`]: a plain loop on the
/// calling thread, no pool. Exists so determinism tests (and benchmark
/// baselines) can compare the work-stealing output against an
/// unambiguous serial execution of the same law.
pub fn run_replicas_sequential<T, F>(seed: u64, replicas: u64, mut sim: F) -> Vec<T>
where
    F: FnMut(u64, SmallRng) -> T,
{
    (0..replicas).map(|r| sim(r, stream_rng(seed, r))).collect()
}

/// Element-wise mean of per-replica `f64` vectors (all the same length),
/// a common aggregation for occupancy and trajectory estimates.
///
/// # Panics
///
/// Panics when `results` is empty or lengths differ.
pub fn mean_vectors(results: &[Vec<f64>]) -> Vec<f64> {
    let first = results.first().expect("at least one replica");
    let mut acc = vec![0.0f64; first.len()];
    for v in results {
        assert_eq!(v.len(), acc.len(), "replica vector lengths differ");
        for (a, x) in acc.iter_mut().zip(v) {
            *a += x;
        }
    }
    let scale = 1.0 / results.len() as f64;
    acc.iter_mut().for_each(|a| *a *= scale);
    acc
}

/// Element-wise mean of per-replica *time series* of `f64` vectors: all
/// replicas must share one shape (`series[r][t]` is replica `r`'s vector
/// at time point `t`). The companion of [`mean_vectors`] for trajectory
/// capture, where each replica contributes a whole strided timeline (see
/// `popgame_population::trajectory`) rather than a single final vector.
///
/// # Panics
///
/// Panics when `series` is empty or shapes differ across replicas.
pub fn mean_series(series: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    let first = series.first().expect("at least one replica");
    for replica in series {
        assert_eq!(replica.len(), first.len(), "replica series lengths differ");
    }
    let scale = 1.0 / series.len() as f64;
    (0..first.len())
        .map(|t| {
            let mut acc = vec![0.0f64; first[t].len()];
            for replica in series {
                assert_eq!(replica[t].len(), acc.len(), "replica vector lengths differ");
                for (a, x) in acc.iter_mut().zip(&replica[t]) {
                    *a += x;
                }
            }
            acc.iter_mut().for_each(|a| *a *= scale);
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_and_matches_serial_law() {
        let sim = |r: u64, mut rng: SmallRng| -> u64 { rng.gen::<u64>() ^ r };
        let baseline: Vec<u64> = (0..100).map(|r| sim(r, stream_rng(99, r))).collect();
        // Whatever the machine's parallelism, output must match the
        // serial law exactly, run after run.
        assert_eq!(run_replicas(99, 100, sim), baseline);
        assert_eq!(run_replicas(99, 100, sim), run_replicas(99, 100, sim));
    }

    #[test]
    fn pre_cancelled_runs_return_none_without_simulating() {
        let ran = AtomicBool::new(false);
        let cancel = AtomicBool::new(true);
        let out = run_replicas_cancellable(1, 16, &cancel, |_r, _rng| {
            ran.store(true, Ordering::Relaxed);
        });
        assert_eq!(out, None);
        assert!(!ran.load(Ordering::Relaxed), "no replica may start");
    }

    #[test]
    fn uncancelled_runs_match_run_replicas_bitwise() {
        let sim = |r: u64, mut rng: SmallRng| -> u64 { rng.gen::<u64>() ^ r };
        let cancel = AtomicBool::new(false);
        assert_eq!(
            run_replicas_cancellable(21, 64, &cancel, sim),
            Some(run_replicas(21, 64, sim))
        );
    }

    #[test]
    fn mid_run_cancellation_discards_partial_work() {
        // Replica 0 (in the first thread's chunk) raises the flag; every
        // other replica stalls long enough that all worker threads hit a
        // replica boundary after the flag is up, so at least one slot
        // stays unfilled and the partial run is discarded.
        let replicas = 4 * worker_threads() as u64;
        let cancel = AtomicBool::new(false);
        let out = run_replicas_cancellable(3, replicas, &cancel, |r, _rng| {
            if r == 0 {
                cancel.store(true, Ordering::Relaxed);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            r
        });
        assert_eq!(out, None);
    }

    #[test]
    fn zero_and_one_replicas() {
        let out = run_replicas(1, 0, |_r, _rng| 42u8);
        assert!(out.is_empty());
        let out = run_replicas(1, 1, |r, _rng| r);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn task_pool_matches_the_serial_loop_for_any_worker_count() {
        let task = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let baseline: Vec<u64> = (0..257).map(task).collect();
        for workers in [1, 2, 3, 8] {
            set_worker_threads(Some(workers));
            assert_eq!(run_tasks(257, task), baseline, "workers={workers}");
        }
        set_worker_threads(None);
    }

    #[test]
    fn stealing_drains_a_stalled_workers_block() {
        // Two workers; every task of worker 0's block except the first is
        // stolen-able while task 0 sleeps. The run must still complete
        // with results in index order well before 16 × the sleep.
        set_worker_threads(Some(2));
        let t0 = std::time::Instant::now();
        let out = run_tasks(16, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i * 2
        });
        set_worker_threads(None);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<u64>>());
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(400),
            "a stalled owner must not serialize its whole block: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn pool_snapshot_accounts_for_every_task() {
        // Counters are cumulative and process-global (other tests in this
        // binary also run pools), so assert on the delta.
        let before: u64 = pool_snapshot().iter().map(|w| w.tasks).sum();
        set_worker_threads(Some(2));
        let out = run_tasks(64, |i| i);
        set_worker_threads(None);
        assert_eq!(out.len(), 64);
        let after: u64 = pool_snapshot().iter().map(|w| w.tasks).sum();
        assert!(
            after - before >= 64,
            "64 tasks must be visible in the snapshot delta: {before} -> {after}"
        );
        let snapshot = pool_snapshot();
        assert!(snapshot.len() >= 2, "two workers must be registered");
        assert!(snapshot.iter().all(|w| w.worker < snapshot.len()));
    }

    #[test]
    fn tracing_is_out_of_band_and_covers_the_scheduler() {
        let task = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        set_worker_threads(Some(2));
        let plain = run_tasks(32, task);
        trace::enable();
        let traced = run_tasks(32, task);
        trace::disable();
        set_worker_threads(None);
        assert_eq!(plain, traced, "tracing must not perturb results");
        let snapshot = trace::drain();
        let has = |prefix: &str| snapshot.events.iter().any(|e| e.name.starts_with(prefix));
        assert!(has("pool:run"), "missing pool:run span");
        assert!(has("worker:"), "missing worker spans");
        assert!(has("task:"), "missing task spans");
        assert!(
            has("idle") || has("steal"),
            "missing idle/steal acquisition spans"
        );
        // Task spans parent on a worker span (pooled path) or directly
        // on a pool:run span (sequential path; other tests in this
        // binary may run single-worker pools concurrently).
        let parent_ids: Vec<u64> = snapshot
            .events
            .iter()
            .filter(|e| e.name.starts_with("worker:") || e.name == "pool:run")
            .map(|e| e.id)
            .collect();
        assert!(snapshot
            .events
            .iter()
            .filter(|e| e.name.starts_with("task:"))
            .all(|e| parent_ids.contains(&e.parent)));
    }

    #[test]
    fn worker_override_takes_precedence_and_clears() {
        set_worker_threads(Some(3));
        assert_eq!(worker_threads(), 3);
        set_worker_threads(Some(0));
        assert_eq!(worker_threads(), 1, "zero clamps to one worker");
        set_worker_threads(None);
        // With the override cleared the ambient value is env- or
        // machine-derived; it only has to be positive.
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn sequential_reference_matches_the_pool_bitwise() {
        let sim = |r: u64, mut rng: SmallRng| -> u64 { rng.gen::<u64>() ^ r };
        assert_eq!(
            run_replicas_sequential(13, 40, sim),
            run_replicas(13, 40, sim)
        );
    }

    #[test]
    fn mean_vectors_averages_elementwise() {
        let mean = mean_vectors(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        assert_eq!(mean, vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "replica vector lengths differ")]
    fn mean_vectors_rejects_ragged_input() {
        let _ = mean_vectors(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn mean_series_averages_pointwise_across_replicas() {
        let r0 = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let r1 = vec![vec![3.0, 2.0], vec![2.0, 3.0]];
        assert_eq!(
            mean_series(&[r0, r1]),
            vec![vec![2.0, 1.0], vec![1.0, 2.0]]
        );
    }

    #[test]
    #[should_panic(expected = "replica series lengths differ")]
    fn mean_series_rejects_ragged_replicas() {
        let _ = mean_series(&[
            vec![vec![1.0]],
            vec![vec![1.0], vec![2.0]],
        ]);
    }
}
