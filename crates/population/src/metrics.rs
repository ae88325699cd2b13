//! Engine-level observability counters and phase spans.
//!
//! Process-global [`popgame_obs`] counters tracking how much work the
//! batched engine actually performs: leaps vs exact steps, full kernel
//! builds vs incremental re-weighs of a count-coupled law, dirty cells
//! recomputed, and alias-table rebuilds. Each engine counts its own work in a private tally and
//! publishes it to these counters when a public call
//! ([`crate::BatchedEngine::step`], `step_batch`, `run_batched`,
//! `run_recorded`) returns, so the leap path touches no atomic that
//! another thread's engine also writes, and the counters are exact
//! whenever no engine call is in flight. `leaps` counts executed leaps
//! only: once a leap finds the population absorbed, `run_batched` and
//! `run_recorded` skip the rest of the run instead of leaping on, so the
//! no-op leaps of the absorbed tail are neither run nor counted.
//! Nothing here feeds the RNG or the simulation results, so instrumented
//! runs remain bitwise identical to uninstrumented ones.
//!
//! The `*_span` accessors are the tracing siblings: each engine phase
//! (kernel full build, incremental re-weigh, alias rebuild, leap chunk)
//! opens a [`popgame_obs::trace`] span. Full builds are rare and always
//! recorded; the per-leap phases are sampled (one span out of every
//! [`SPAN_SAMPLE`] occurrences, per thread and per phase) to bound
//! overhead on hot runs. With tracing disabled every accessor is one
//! relaxed atomic load returning `None`.
//!
//! Handles are lazily registered `&'static` references — after the first
//! call each accessor is a single `OnceLock` load.

use popgame_obs::metrics::{registry, Counter};
use popgame_obs::trace::{self, Family, Span};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::thread::LocalKey;

/// Sampling stride of the hot-phase spans: one leap/refresh/rebuild
/// span is recorded out of every `SPAN_SAMPLE` occurrences per thread.
pub const SPAN_SAMPLE: u32 = 64;

fn sampled_span(name: &'static str, tick: &'static LocalKey<Cell<u32>>) -> Option<Span> {
    if !trace::is_enabled() {
        return None;
    }
    let sampled = tick.with(|counter| {
        let next = counter.get().wrapping_add(1);
        counter.set(next);
        next % SPAN_SAMPLE == 1
    });
    sampled.then(|| trace::span(Family::Engine, name))
}

thread_local! {
    static LEAP_TICK: Cell<u32> = const { Cell::new(0) };
    static REFRESH_TICK: Cell<u32> = const { Cell::new(0) };
    static ALIAS_TICK: Cell<u32> = const { Cell::new(0) };
}

/// A span over one multinomial leap chunk (sampled).
pub fn leap_span() -> Option<Span> {
    sampled_span("engine:leap", &LEAP_TICK)
}

/// A span over one incremental re-weigh of a count-coupled law (sampled).
pub fn kernel_refresh_span() -> Option<Span> {
    sampled_span("engine:kernel-refresh", &REFRESH_TICK)
}

/// A span over one alias-table rebuild (sampled).
pub fn alias_rebuild_span() -> Option<Span> {
    sampled_span("engine:alias-rebuild", &ALIAS_TICK)
}

/// A span over one engine construction's read, check and classification
/// of a declared law (rare — always recorded).
pub fn kernel_build_span() -> Option<Span> {
    trace::is_enabled().then(|| trace::span(Family::Engine, "engine:kernel-build"))
}

fn handle(
    cell: &'static OnceLock<Arc<Counter>>,
    name: &'static str,
    help: &'static str,
) -> &'static Counter {
    cell.get_or_init(|| registry().counter(name, help, &[]))
}

/// Multinomial τ-leaps executed (overdraw split halves count separately).
pub fn leaps() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(
        &CELL,
        "popgame_engine_leaps_total",
        "Multinomial tau-leaps executed by the batched engine (overdraw splits counted per half).",
    )
}

/// Exact alias-sampled interactions executed by [`crate::BatchedEngine::step`].
pub fn exact_steps() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(
        &CELL,
        "popgame_engine_exact_steps_total",
        "Exact per-interaction steps executed by the batched engine.",
    )
}

/// Full builds of a declared law, one per construction of an engine whose
/// protocol declares a kernel.
pub fn kernel_full_builds() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(
        &CELL,
        "popgame_engine_kernel_full_builds_total",
        "Full kernel-law builds (one per engine construction over a declared kernel).",
    )
}

/// Incremental re-weighs of a count-coupled law
/// ([`crate::batch::LeapLaw::reweigh_at`]).
pub fn kernel_refreshes() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(
        &CELL,
        "popgame_engine_kernel_refreshes_total",
        "Incremental kernel-law re-weighs on the default count-coupled path.",
    )
}

/// Kernel cells recomputed across all incremental re-weighs.
pub fn kernel_dirty_cells() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(
        &CELL,
        "popgame_engine_kernel_dirty_cells_total",
        "Kernel cells recomputed by incremental refreshes (the dirty-mask workload).",
    )
}

/// Alias-table rebuilds: the per-state sampling alias plus the per-leap
/// Walker tables over count-flow weights.
pub fn alias_rebuilds() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(
        &CELL,
        "popgame_engine_alias_rebuilds_total",
        "Alias-table rebuilds (state alias and per-leap Walker entry/pair tables).",
    )
}

/// One engine's work since it last published: the counters above but
/// [`kernel_full_builds`], which construction bumps directly, kept in
/// plain fields on the hot path.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub(crate) leaps: u64,
    pub(crate) exact_steps: u64,
    pub(crate) kernel_refreshes: u64,
    pub(crate) dirty_cells: u64,
    pub(crate) alias_rebuilds: u64,
}

impl Tally {
    /// Adds the tally to the process-global counters and zeroes it.
    pub(crate) fn publish(&mut self) {
        let work = std::mem::take(self);
        for (count, counter) in [
            (work.leaps, leaps as fn() -> &'static Counter),
            (work.exact_steps, exact_steps),
            (work.kernel_refreshes, kernel_refreshes),
            (work.dirty_cells, kernel_dirty_cells),
            (work.alias_rebuilds, alias_rebuilds),
        ] {
            if count > 0 {
                counter().add(count);
            }
        }
    }
}
