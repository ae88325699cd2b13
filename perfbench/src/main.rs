//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload reproduce-full|serve-mix|engine-scale --seed N
//!           --seconds S --trace 0|1 [--popgamed PATH] [--root DIR]
//! ```
//!
//! Each workload is a closed loop driven from this one process through
//! the crates' public entry points only. The untraced run (`--trace 0`)
//! prints the end-to-end metrics; the traced run (`--trace 1`) prints the
//! per-layer metrics. Every metric is printed as `name = value unit`, and
//! the last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `perfbench/run.py` builds this binary and the daemon
//! and is the command to use; `perfbench/METRICS.md` defines every name.

mod engine;
mod reproduce;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trimmed_mean_ms", "ms"),
    ("goodput_per_s", "1/s"),
];

/// The dynamics `engine-scale` runs, by label.
pub const SCALE_DYNAMICS: [&str; 5] = [
    "best-response",
    "logit",
    "pairwise-imitation",
    "br-sample",
    "k-igt",
];

/// Every dynamics label the report sweeps (`engine.busy_ms.<label>`).
pub const REPORT_DYNAMICS: [&str; 7] = [
    "best-response",
    "logit",
    "imitation",
    "pairwise-imitation",
    "imitation-two-way",
    "br-sample",
    "k-igt",
];

/// Per-layer metrics, printed by every workload's traced run. A layer a
/// workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 11] = [
        ("report.plan_ms", "ms"),
        ("report.sweep_ms", "ms"),
        ("report.assemble_ms", "ms"),
        ("render.json_ms", "ms"),
        ("render.md_ms", "ms"),
        ("render.bytes", "bytes"),
        ("solver.solve_us.p50", "us"),
        ("runner.tasks", "count"),
        ("runner.utilization", "ratio"),
        ("runner.idle_ms", "ms"),
        ("runner.steals", "count"),
    ];
    let engine: [(&str, &str); 7] = [
        ("engine.leaps", "count"),
        ("engine.exact_steps", "count"),
        ("engine.kernel_builds", "count"),
        ("engine.kernel_refreshes", "count"),
        ("engine.dirty_cells", "count"),
        ("engine.alias_rebuilds", "count"),
        ("engine.construct_ms", "ms"),
    ];
    let service: [(&str, &str); 12] = [
        ("http.overhead_us.p50", "us"),
        ("http.overhead_us.p99", "us"),
        ("http.rejected", "count"),
        ("http.parse_errors", "count"),
        ("api.canonical_us.p50", "us"),
        ("api.encode_us.p50", "us"),
        ("cache.get_us.p50", "us"),
        ("cache.insert_us.p50", "us"),
        ("cache.hit_ratio", "ratio"),
        ("sim.cold_ms.p50", "ms"),
        ("unattributed_ms", "ms"),
        ("trace_overhead_pct", "%"),
    ];
    let mut names: Vec<(String, &'static str)> = fixed
        .iter()
        .chain(&engine)
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for d in SCALE_DYNAMICS {
        names.push((format!("engine.ns_per_interaction.{d}"), "ns"));
    }
    for d in SCALE_DYNAMICS {
        names.push((format!("engine.interactions_per_leap.{d}"), "count"));
    }
    for d in REPORT_DYNAMICS {
        names.push((format!("engine.busy_ms.{d}"), "ms"));
    }
    names.extend(service.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub popgamed: Option<PathBuf>,
    pub root: PathBuf,
}

/// What a run measured: operation counts plus metric values by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Context lines printed before the metrics (sample counts, checks).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one failed check with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {reason}"));
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload reproduce-full|serve-mix|engine-scale --seed N \
         --seconds S --trace 0|1 [--popgamed PATH] [--root DIR]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        window: Duration::from_secs(10),
        trace: false,
        popgamed: None,
        root: PathBuf::from("."),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.window = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--popgamed" => args.popgamed = Some(PathBuf::from(value()?)),
            "--root" => args.root = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    let result = match args.workload.as_str() {
        "reproduce-full" => reproduce::run(&args),
        "serve-mix" => serve::run(&args),
        "engine-scale" => engine::run(&args),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# error_rate = {error_rate} ratio ({} of {} operations failed)",
        outcome.failed, outcome.attempted
    );
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}
