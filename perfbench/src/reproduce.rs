//! `reproduce-full`: one operation is `run_report(ReportConfig::full(seed))`
//! followed by both renders, on a pool of `nproc` workers.
//!
//! Set-up spawns the pool and runs a quick report at the pinned seed,
//! outside the timed window. Timed operations compare their bytes with the
//! first timed operation (or with the committed files at the pinned
//! seed). After the window, a full report at the pinned seed is compared
//! with the committed `REPORT.json` and `REPORT.md`.

use crate::stats::{self, median, ms, span_ms, Counters};
use crate::{Args, Outcome};
use popgame_obs::trace;
use popgame_report::render::{report_json, report_markdown};
use popgame_report::{run_report, ReportConfig, REPRODUCE_SEED};
use std::time::{Duration, Instant};

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Per-thread span ring capacity for traced operations: one full report
/// records a few thousand task/cell spans and tens of thousands of
/// sampled engine spans per worker.
const TRACE_CAPACITY: usize = 1 << 17;

#[derive(Clone)]
struct Rendered {
    json: String,
    md: String,
}

/// One timed operation, with the time spent in each render.
struct Op {
    total: Duration,
    json: Duration,
    md: Duration,
    rendered: Rendered,
}

fn operation(config: &ReportConfig) -> Result<Op, String> {
    let started = Instant::now();
    let report = run_report(config)?;
    let json_started = Instant::now();
    let json = report_json(&report);
    let md_started = Instant::now();
    let md = report_markdown(&report);
    let done = Instant::now();
    Ok(Op {
        total: done - started,
        json: md_started - json_started,
        md: done - md_started,
        rendered: Rendered { json, md },
    })
}

fn check(out: &mut Outcome, what: &str, got: &Rendered, want: &Rendered) {
    out.attempted += 1;
    if got.json != want.json || got.md != want.md {
        out.fail(format!(
            "{what}: rendered bytes differ (json {} vs {} bytes, md {} vs {} bytes)",
            got.json.len(),
            want.json.len(),
            got.md.len(),
            want.md.len()
        ));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let read = |name: &str| {
        let path = args.root.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
    };
    let committed = Rendered {
        json: read("REPORT.json")?,
        md: read("REPORT.md")?,
    };
    let workers = popgame_runner::worker_threads();
    out.note(format!(
        "workload: {{\"reason\": \"the paper's headline artifact, on the code path users run\", \
         \"workers\": {workers}, \"nproc\": {}, \"seed\": {}, \"preset\": \"full\"}}",
        stats::nproc(),
        args.seed
    ));

    // Set-up: the pool spawns and a quick report runs, which takes every
    // code path of the full one at a small share of its cost. Its seed is
    // the pinned one, so every run sets up the same work. Every
    // repetition must render the same bytes.
    let quick = ReportConfig::quick(REPRODUCE_SEED);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::with_capacity(reps);
    let mut warm_bytes = None;
    for _ in 0..reps {
        let started = Instant::now();
        let op = operation(&quick)?;
        setup.push(started.elapsed().as_secs_f64());
        match &warm_bytes {
            Some(want) => check(&mut out, "set-up quick report vs first", &op.rendered, want),
            None => warm_bytes = Some(op.rendered),
        }
    }

    let config = ReportConfig::full(args.seed);
    let mut reference = (args.seed == REPRODUCE_SEED).then(|| committed.clone());
    // The traced run alternates untraced and traced operations, so host
    // load drifts hit both halves of the overhead figure alike.
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut layers = Layers::default();
    let mut good = 0u64;
    let started = Instant::now();
    while started.elapsed() < args.window {
        let traced = args.trace && latencies.len() > traced_latencies.len();
        if traced {
            trace::enable_with_capacity(TRACE_CAPACITY);
        }
        let before = Counters::read();
        let op = operation(&config)?;
        let counters = Counters::read().since(&before);
        if traced {
            trace::disable();
            layers.add(&op, &counters, &trace::drain());
            traced_latencies.push(ms(op.total));
        } else {
            latencies.push(ms(op.total));
        }
        let failed = out.failed;
        match &reference {
            Some(want) => check(
                &mut out,
                "timed report vs reference bytes",
                &op.rendered,
                want,
            ),
            None => {
                out.attempted += 1;
                reference = Some(op.rendered);
            }
        }
        if out.failed == failed {
            good += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    check(
        &mut out,
        "pinned-seed report vs committed REPORT.*",
        &operation(&ReportConfig::full(REPRODUCE_SEED))?.rendered,
        &committed,
    );

    if args.trace {
        layers.report(&mut out);
        out.note(format!(
            "p50_ms untraced {} over {} ops, traced {} over {} ops",
            median(&latencies),
            latencies.len(),
            median(&traced_latencies),
            traced_latencies.len()
        ));
        out.set(
            "trace_overhead_pct",
            (median(&traced_latencies) / median(&latencies) - 1.0) * 100.0,
        );
    } else {
        out.note(format!(
            "{} reports in {elapsed:.3} s; setup reps {setup:?} s",
            latencies.len()
        ));
        out.set("setup_s", median(&setup));
        out.set("peak_rss_mb", stats::peak_rss_mb(None)?);
        stats::set_latency(&mut out, "report latency", &latencies);
        out.set("goodput_per_s", good as f64 / elapsed);
    }
    Ok(out)
}

/// Per-operation layer timings collected from traced operations.
#[derive(Default)]
struct Layers {
    plan: Vec<f64>,
    sweep: Vec<f64>,
    assemble: Vec<f64>,
    json: Vec<f64>,
    md: Vec<f64>,
    bytes: Vec<f64>,
    utilization: Vec<f64>,
    construct: Vec<f64>,
    unattributed: Vec<f64>,
    busy: Vec<[f64; crate::REPORT_DYNAMICS.len()]>,
    counters: Vec<Counters>,
    dropped: u64,
}

impl Layers {
    fn add(&mut self, op: &Op, counters: &Counters, snapshot: &trace::TraceSnapshot) {
        let events = &snapshot.events;
        let phase =
            |name: &str| -> f64 { events.iter().filter(|e| e.name == name).map(span_ms).sum() };
        let (plan, sweep, assemble) = (
            phase("report:plan"),
            phase("report:sweep"),
            phase("report:assemble"),
        );
        self.plan.push(plan);
        self.sweep.push(sweep);
        self.assemble.push(assemble);
        self.json.push(ms(op.json));
        self.md.push(ms(op.md));
        self.bytes
            .push((op.rendered.json.len() + op.rendered.md.len()) as f64);
        self.utilization.push(stats::utilization(
            snapshot,
            popgame_runner::worker_threads(),
        ));
        self.construct.push(phase("engine:kernel-build"));
        self.unattributed
            .push(ms(op.total) - plan - sweep - assemble - ms(op.json) - ms(op.md));
        let mut busy = [0.0; crate::REPORT_DYNAMICS.len()];
        for event in events.iter().filter(|e| e.name.starts_with("cell:")) {
            if let Some(index) = cell_dynamics(&event.name) {
                busy[index] += span_ms(event);
            }
        }
        self.busy.push(busy);
        self.counters.push(*counters);
        self.dropped += snapshot.dropped;
    }

    fn report(&self, out: &mut Outcome) {
        out.set("report.plan_ms", median(&self.plan));
        out.set("report.sweep_ms", median(&self.sweep));
        out.set("report.assemble_ms", median(&self.assemble));
        out.set("render.json_ms", median(&self.json));
        out.set("render.md_ms", median(&self.md));
        out.set("render.bytes", median(&self.bytes));
        out.set("runner.utilization", median(&self.utilization));
        out.set("engine.construct_ms", median(&self.construct));
        out.set("unattributed_ms", median(&self.unattributed));
        for (index, label) in crate::REPORT_DYNAMICS.iter().enumerate() {
            let per_op: Vec<f64> = self.busy.iter().map(|b| b[index]).collect();
            out.set(&format!("engine.busy_ms.{label}"), median(&per_op));
        }
        // Counts are per operation; the median operation's counts are
        // reported (equal seeds do equal engine work).
        let mut by_leaps = self.counters.clone();
        by_leaps.sort_by_key(|c| c.leaps);
        if let Some(mid) = by_leaps.get(by_leaps.len() / 2) {
            mid.report(out, 1.0);
        }
        out.note(format!(
            "{} traced reports; {} spans dropped to ring wrap",
            self.plan.len(),
            self.dropped
        ));
    }
}

/// The dynamics label of a `cell:{scenario}/{dynamics}@{n}` span name
/// (η-sweep cells read `logit eta=…`). Names may be truncated, so a label
/// is matched as the longest known label the remainder starts with.
fn cell_dynamics(name: &str) -> Option<usize> {
    let rest = name.split_once('/')?.1;
    let rest = rest.split(['@', ' ']).next()?;
    crate::REPORT_DYNAMICS
        .iter()
        .enumerate()
        .filter(|(_, label)| rest == **label || (!name.contains('@') && label.starts_with(rest)))
        .max_by_key(|(_, label)| label.len())
        .map(|(index, _)| index)
}
