//! Subcommand implementations. Each returns `Ok(())` or a [`CliError`]
//! that `main` maps onto the process exit code.

use popgame_obs::trace;
use popgame_report::{render, run_report, run_report_sequential};
use popgame_service::api::{
    execute_simulate, execute_solve, ReproduceRequest, SimulateRequest, SolveRequest,
};
use popgame_service::{run_daemon, ServiceConfig, SERVE_USAGE};
use popgame_solver::scenarios::registry_listing;
use popgame_util::json::Json;
use std::path::Path;
use std::sync::atomic::AtomicBool;

/// How a subcommand failed: bad invocation (exit 2) or a failure while
/// doing the work (exit 1).
pub enum CliError {
    /// Malformed flags or an invalid request — printed with the usage
    /// banner.
    Usage(String),
    /// The command was well-formed but execution failed.
    Runtime(String),
}

pub(crate) fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(message.into()))
}

/// Pulls the value following a flag.
pub(crate) fn take_value<'a, I: Iterator<Item = &'a String>>(
    it: &mut I,
    flag: &str,
) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, CliError> {
    text.parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

fn parse_f64(flag: &str, text: &str) -> Result<f64, CliError> {
    text.parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

/// `popgame scenarios` — the registry as pretty JSON (the same document
/// `GET /scenarios` serves).
pub fn scenarios(args: &[String]) -> Result<(), CliError> {
    match args {
        [] => {
            print!("{}", registry_listing().pretty());
            Ok(())
        }
        [h] if h == "--help" => {
            println!("usage: popgame scenarios");
            Ok(())
        }
        _ => usage("scenarios takes no flags"),
    }
}

const SOLVE_USAGE: &str = "usage: popgame solve <scenario> | popgame solve --game '<json>'\n\
     (game json: {\"kind\":\"symmetric\"|\"zero-sum\"|\"bimatrix\",\"row\":[[..]],\"col\":[[..]]})";

/// `popgame solve` — exact equilibria via the shared `/solve` executor.
pub fn solve(args: &[String]) -> Result<(), CliError> {
    let mut scenario: Option<String> = None;
    let mut game: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => {
                println!("{SOLVE_USAGE}");
                return Ok(());
            }
            "--game" => game = Some(take_value(&mut it, "--game")?),
            "--scenario" => {
                if scenario.is_some() {
                    return usage("scenario given more than once");
                }
                scenario = Some(take_value(&mut it, "--scenario")?);
            }
            flag if flag.starts_with("--") => {
                return usage(format!("unknown flag {flag}\n{SOLVE_USAGE}"));
            }
            name if scenario.is_none() && game.is_none() => {
                scenario = Some(name.to_string());
            }
            extra => return usage(format!("unexpected argument {extra:?}\n{SOLVE_USAGE}")),
        }
    }
    let body = match (scenario, game) {
        (Some(name), None) => Json::obj([("scenario", Json::from(name))]),
        (None, Some(text)) => {
            let doc = Json::parse(&text)
                .map_err(|e| CliError::Usage(format!("--game: {e}")))?;
            Json::obj([("game", doc)])
        }
        (Some(_), Some(_)) => return usage("give a scenario or --game, not both"),
        (None, None) => return usage(SOLVE_USAGE),
    };
    let request = SolveRequest::from_json(&body).map_err(CliError::Usage)?;
    let doc = execute_solve(&request).map_err(CliError::Runtime)?;
    print!("{}", doc.pretty());
    Ok(())
}

const SIMULATE_USAGE: &str = "usage: popgame simulate --scenario <name> \
     [--dynamics best-response|logit|imitation|pairwise-imitation|\
imitation-two-way|br-sample|k-igt] [--eta X] [--n N] \
     [--interactions I] [--replicas R] [--seed S]";

const ANALYTICS_USAGE: &str = "usage: popgame analytics --scenario <name> \
     [--dynamics ...] [--eta X] [--n N] [--interactions I] [--replicas R] [--seed S]\n\
     (same flags as `popgame simulate`; records replica trajectories and \
prints the response with the `analytics` time-constant block)";

/// `popgame simulate` — a deterministic replica sweep via the shared
/// `/simulate` executor (same validation, same response document).
pub fn simulate(args: &[String]) -> Result<(), CliError> {
    simulate_impl(args, SIMULATE_USAGE, false)
}

/// `popgame analytics` — the same replica sweep with trajectory
/// recording on: the response carries the opt-in `analytics` block
/// (t_mix(ε) fit, absorption-time statistics, limit-cycle metrology,
/// each with deterministic bootstrap CIs). Base fields are byte-identical
/// to `popgame simulate` with the same flags.
pub fn analytics(args: &[String]) -> Result<(), CliError> {
    simulate_impl(args, ANALYTICS_USAGE, true)
}

fn simulate_impl(
    args: &[String],
    usage_text: &str,
    analytics: bool,
) -> Result<(), CliError> {
    let mut fields: Vec<(&str, Json)> = Vec::new();
    let push_field = |fields: &mut Vec<(&str, Json)>,
                          key: &'static str,
                          value: Json|
     -> Result<(), CliError> {
        if fields.iter().any(|(k, _)| *k == key) {
            return usage(format!("--{key} given more than once"));
        }
        fields.push((key, value));
        Ok(())
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => {
                println!("{usage_text}");
                return Ok(());
            }
            "--scenario" => {
                let v = take_value(&mut it, "--scenario")?;
                push_field(&mut fields, "scenario", Json::from(v))?;
            }
            "--dynamics" => {
                let v = take_value(&mut it, "--dynamics")?;
                push_field(&mut fields, "dynamics", Json::from(v))?;
            }
            "--eta" => {
                let v = take_value(&mut it, "--eta")?;
                push_field(&mut fields, "eta", Json::from(parse_f64("--eta", &v)?))?;
            }
            "--n" => {
                let v = take_value(&mut it, "--n")?;
                push_field(&mut fields, "n", Json::from(parse_u64("--n", &v)?))?;
            }
            "--interactions" => {
                let v = take_value(&mut it, "--interactions")?;
                push_field(
                    &mut fields,
                    "interactions",
                    Json::from(parse_u64("--interactions", &v)?),
                )?;
            }
            "--replicas" => {
                let v = take_value(&mut it, "--replicas")?;
                push_field(
                    &mut fields,
                    "replicas",
                    Json::from(parse_u64("--replicas", &v)?),
                )?;
            }
            "--seed" => {
                let v = take_value(&mut it, "--seed")?;
                push_field(&mut fields, "seed", Json::from(parse_u64("--seed", &v)?))?;
            }
            other => return usage(format!("unknown flag {other}\n{usage_text}")),
        }
    }
    if fields.is_empty() {
        return usage(usage_text.to_string());
    }
    if analytics {
        fields.push(("analytics", Json::from(true)));
    }
    let request = SimulateRequest::from_json(&Json::obj(fields)).map_err(CliError::Usage)?;
    let doc = execute_simulate(&request, &AtomicBool::new(false)).map_err(CliError::Runtime)?;
    print!("{}", doc.pretty());
    Ok(())
}

const REPRODUCE_USAGE: &str = "usage: popgame reproduce [--quick|--full] [--seed S] \
     [--out DIR] [--sizes N1,N2,...] [--replicas R] [--horizon H] \
     [--trajectory-points P] [--workers W] [--sequential] [--trace TRACE.json]";

/// Per-thread span ring of a traced `reproduce`, in slots. A `--full`
/// run records about 64k spans, most of them on the worker threads
/// (4,720 `cell:` spans alone), so the default 16,384-slot ring wraps
/// and drops spans; 2^17 slots keep every one. Each slot is 13 words
/// (104 bytes), so the ring costs about 13.6 MB per recording thread,
/// allocated only under `--trace`.
const REPRODUCE_TRACE_CAPACITY: usize = 1 << 17;

/// The documented default seed of the reproduction harness — shared
/// with `POST /reproduce` so daemon-rendered reports match in-process
/// runs byte for byte.
use popgame_report::REPRODUCE_SEED;

/// `popgame reproduce` — run the paper-reproduction harness and write
/// `REPORT.md` + `REPORT.json` (byte-identical across runs with equal
/// flags).
pub fn reproduce(args: &[String]) -> Result<(), CliError> {
    let mut preset = "quick";
    let mut seed = REPRODUCE_SEED;
    let mut out_dir = ".".to_string();
    let mut sizes: Option<Vec<u64>> = None;
    let mut replicas: Option<u64> = None;
    let mut horizon: Option<u64> = None;
    let mut trajectory: Option<u64> = None;
    let mut sequential = false;
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => {
                println!("{REPRODUCE_USAGE}");
                return Ok(());
            }
            "--quick" => preset = "quick",
            "--full" => preset = "full",
            "--sequential" => sequential = true,
            "--trace" => trace_path = Some(take_value(&mut it, "--trace")?),
            "--workers" => {
                let w = parse_u64("--workers", &take_value(&mut it, "--workers")?)?;
                popgame_runner::set_worker_threads(Some(w as usize));
            }
            "--seed" => seed = parse_u64("--seed", &take_value(&mut it, "--seed")?)?,
            "--out" => out_dir = take_value(&mut it, "--out")?,
            "--sizes" => {
                let list = take_value(&mut it, "--sizes")?;
                sizes = Some(
                    list.split(',')
                        .map(|piece| parse_u64("--sizes", piece.trim()))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--replicas" => {
                replicas = Some(parse_u64("--replicas", &take_value(&mut it, "--replicas")?)?);
            }
            "--horizon" => {
                horizon = Some(parse_u64("--horizon", &take_value(&mut it, "--horizon")?)?);
            }
            "--trajectory-points" => {
                let v = take_value(&mut it, "--trajectory-points")?;
                trajectory = Some(parse_u64("--trajectory-points", &v)?);
            }
            other => return usage(format!("unknown flag {other}\n{REPRODUCE_USAGE}")),
        }
    }
    // The daemon's rule for a preset plus overrides, so equal knobs give
    // equal bytes; the flags keep the CLI's own ranges, not the daemon's.
    let config = ReproduceRequest {
        preset: preset.to_string(),
        seed,
        sizes,
        replicas,
        horizon_per_agent: horizon,
        trajectory_capacity: trajectory,
        workers: None,
        sections: None,
    }
    .config();
    config.validate().map_err(CliError::Usage)?;

    // Tracing is strictly out-of-band: spans never touch the RNG or the
    // report, so traced REPORT artifacts are byte-identical to plain ones.
    if trace_path.is_some() {
        trace::enable_with_capacity(REPRODUCE_TRACE_CAPACITY);
    }

    let report = if sequential {
        run_report_sequential(&config)
    } else {
        run_report(&config)
    }
    .map_err(CliError::Runtime)?;
    let trace_snapshot = trace_path.as_ref().map(|_| {
        let snapshot = trace::drain();
        trace::disable();
        snapshot
    });
    let json = render::report_json(&report);
    let md = render::report_markdown(&report);
    let dir = Path::new(&out_dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Runtime(format!("creating {out_dir:?}: {e}")))?;
    let json_path = dir.join("REPORT.json");
    let md_path = dir.join("REPORT.md");
    std::fs::write(&json_path, &json)
        .map_err(|e| CliError::Runtime(format!("writing {}: {e}", json_path.display())))?;
    std::fs::write(&md_path, &md)
        .map_err(|e| CliError::Runtime(format!("writing {}: {e}", md_path.display())))?;
    if let (Some(path), Some(snapshot)) = (&trace_path, &trace_snapshot) {
        let chrome = trace::chrome_trace_json(snapshot);
        std::fs::write(path, &chrome)
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
        let sidecar = Path::new(path).with_extension("jsonl");
        std::fs::write(&sidecar, trace::jsonl(snapshot))
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", sidecar.display())))?;
        println!(
            "trace: {} spans ({} dropped) — {} (chrome://tracing) and {}",
            snapshot.events.len(),
            snapshot.dropped,
            path,
            sidecar.display()
        );
    }
    println!(
        "reproduce: mode={} seed={} — {} scenarios, {} scenario-dynamics pairs, sizes {:?}",
        config.mode,
        config.seed,
        report.scenarios.len(),
        report.convergence.len(),
        config.sizes,
    );
    println!(
        "wrote {} ({} bytes) and {} ({} bytes)",
        md_path.display(),
        md.len(),
        json_path.display(),
        json.len()
    );
    Ok(())
}

/// `popgame serve` — boot the `popgamed` service in-process (same flags,
/// same daemon, same endpoints).
pub fn serve(args: &[String]) -> Result<(), CliError> {
    if args.iter().any(|a| a == "--help") {
        println!("usage: popgame serve {SERVE_USAGE}");
        return Ok(());
    }
    let config = ServiceConfig::from_args(args).map_err(CliError::Usage)?;
    run_daemon(config, "popgame serve: listening on")
        .map_err(|e| CliError::Runtime(format!("failed to bind: {e}")))
}
