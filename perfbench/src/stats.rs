//! Summary statistics, process memory, and counter snapshots shared by the
//! workloads.

use popgame_obs::trace::{SpanEvent, TraceSnapshot};
use popgame_population::metrics as engine_metrics;
use std::collections::BTreeMap;
use std::time::Duration;

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the values left after dropping the lowest and the highest
/// `trim` share (below one half) of them; 0 for an empty slice.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim).floor() as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Share of the fastest and of the slowest operations left out of
/// `trimmed_mean_ms`.
pub const TRIM: f64 = 0.1;

/// Sets `trimmed_mean_ms` from per-operation latencies in ms, and notes
/// the sample count with the median and a few more quantiles.
pub fn set_latency(out: &mut crate::Outcome, what: &str, latencies_ms: &[f64]) {
    let q = |p| quantile(latencies_ms, p);
    out.set("trimmed_mean_ms", trimmed_mean(latencies_ms, TRIM));
    out.note(format!(
        "p50_ms = {} ms over {} samples",
        q(0.5),
        latencies_ms.len()
    ));
    out.note(format!(
        "{what}: p10 {} p25 {} p50 {} p90 {} mean {} ms",
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.9),
        trimmed_mean(latencies_ms, 0.0),
    ));
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Span duration in milliseconds.
pub fn span_ms(event: &SpanEvent) -> f64 {
    event.end_ns.saturating_sub(event.start_ns) as f64 / 1e6
}

/// Peak resident set size (`VmHWM`) in MB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine and scheduler counters the program already exports, read
/// in-process. Subtract two snapshots for the work done in between.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub leaps: u64,
    pub exact_steps: u64,
    pub kernel_builds: u64,
    pub kernel_refreshes: u64,
    pub dirty_cells: u64,
    pub alias_rebuilds: u64,
    pub runner_tasks: u64,
    pub runner_steals: u64,
    pub runner_idle_ns: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let pool = popgame_runner::pool_snapshot();
        Counters {
            leaps: engine_metrics::leaps().get(),
            exact_steps: engine_metrics::exact_steps().get(),
            kernel_builds: engine_metrics::kernel_full_builds().get(),
            kernel_refreshes: engine_metrics::kernel_refreshes().get(),
            dirty_cells: engine_metrics::kernel_dirty_cells().get(),
            alias_rebuilds: engine_metrics::alias_rebuilds().get(),
            runner_tasks: pool.iter().map(|w| w.tasks).sum(),
            runner_steals: pool.iter().map(|w| w.steals).sum(),
            runner_idle_ns: pool.iter().map(|w| w.idle_ns).sum(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            leaps: self.leaps - before.leaps,
            exact_steps: self.exact_steps - before.exact_steps,
            kernel_builds: self.kernel_builds - before.kernel_builds,
            kernel_refreshes: self.kernel_refreshes - before.kernel_refreshes,
            dirty_cells: self.dirty_cells - before.dirty_cells,
            alias_rebuilds: self.alias_rebuilds - before.alias_rebuilds,
            runner_tasks: self.runner_tasks - before.runner_tasks,
            runner_steals: self.runner_steals - before.runner_steals,
            runner_idle_ns: self.runner_idle_ns - before.runner_idle_ns,
        }
    }

    /// Sets the `engine.*` count metrics and `runner.tasks`/`steals`/
    /// `idle_ms`, each divided by `ops` (per operation).
    pub fn report(&self, out: &mut crate::Outcome, ops: f64) {
        let ops = ops.max(1.0);
        out.set("engine.leaps", self.leaps as f64 / ops);
        out.set("engine.exact_steps", self.exact_steps as f64 / ops);
        out.set("engine.kernel_builds", self.kernel_builds as f64 / ops);
        out.set(
            "engine.kernel_refreshes",
            self.kernel_refreshes as f64 / ops,
        );
        out.set("engine.dirty_cells", self.dirty_cells as f64 / ops);
        out.set("engine.alias_rebuilds", self.alias_rebuilds as f64 / ops);
        out.set("runner.tasks", self.runner_tasks as f64 / ops);
        out.set("runner.steals", self.runner_steals as f64 / ops);
        out.set("runner.idle_ms", self.runner_idle_ns as f64 / 1e6 / ops);
    }
}

/// Scheduler utilization over a trace: time inside `task:*` spans ÷
/// (time inside `pool:run` spans × `workers`). When rings wrapped, only
/// spans after the point from which every task-recording thread kept
/// its events are counted, so lost task spans do not read as idle.
pub fn utilization(snapshot: &TraceSnapshot, workers: usize) -> f64 {
    let mut kept_from: BTreeMap<u64, u64> = BTreeMap::new();
    if snapshot.dropped > 0 {
        for e in &snapshot.events {
            let first = kept_from.entry(e.tid).or_insert(e.start_ns);
            *first = (*first).min(e.start_ns);
        }
        let task_tids: Vec<u64> = snapshot
            .events
            .iter()
            .filter(|e| e.name.starts_with("task:"))
            .map(|e| e.tid)
            .collect();
        kept_from.retain(|tid, _| task_tids.contains(tid));
    }
    let cutoff = kept_from.values().copied().max().unwrap_or(0);
    let total = |prefix: &str| -> f64 {
        snapshot
            .events
            .iter()
            .filter(|e| e.start_ns >= cutoff && e.name.starts_with(prefix))
            .map(span_ms)
            .sum()
    };
    let pool = total("pool:run") * workers as f64;
    if pool > 0.0 {
        total("task:") / pool
    } else {
        0.0
    }
}

/// Total variation distance to the nearest of `references`.
pub fn nearest_tv(freq: &[f64], references: &[Vec<f64>]) -> f64 {
    references
        .iter()
        .map(|r| 0.5 * freq.iter().zip(r).map(|(a, b)| (a - b).abs()).sum::<f64>())
        .fold(f64::INFINITY, f64::min)
}
