//! `scenarios` — the scenario-registry smoke binary.
//!
//! ```text
//! scenarios --list                     # registry as a JSON array
//! scenarios run <name> [options]       # run one scenario, JSON summary
//!   --dynamics best-response|logit|imitation   (default best-response)
//!   --eta <f64>          logit inverse temperature (default 2.0)
//!   --n <u64>            population size (default 10000)
//!   --interactions <u64> horizon (default 30·n)
//!   --seed <u64>         RNG seed (default 42)
//! ```
//!
//! Output is deterministic for a fixed argument vector: the run uses the
//! batched count-level engine seeded from `--seed` only, and documents
//! are built with `popgame_util::json` (shared with `popgamed`, which
//! serves the same listing at `GET /scenarios`). Exit code 2 on usage
//! errors, 1 on runtime errors.

use popgame_dist::divergence::tv_distance;
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule};
use popgame_solver::scenarios::{by_name, registry_listing};
use popgame_util::json::Json;
use popgame_util::rng::rng_from_seed;
use std::process::ExitCode;

/// Rounds to six decimals, the report precision for frequencies and
/// distances.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

fn profile_json(p: &[f64]) -> Json {
    Json::Arr(p.iter().map(|&v| Json::Num(round6(v))).collect())
}

struct RunArgs {
    name: String,
    rule: DynamicsRule,
    n: u64,
    interactions: Option<u64>,
    seed: u64,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut name = None;
    let mut rule_label = "best-response".to_string();
    let mut eta = 2.0f64;
    let mut n = 10_000u64;
    let mut interactions = None;
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--dynamics" => rule_label = value_of("--dynamics")?,
            "--eta" => {
                eta = value_of("--eta")?
                    .parse()
                    .map_err(|e| format!("--eta: {e}"))?;
            }
            "--n" => {
                n = value_of("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
            }
            "--interactions" => {
                interactions = Some(
                    value_of("--interactions")?
                        .parse()
                        .map_err(|e| format!("--interactions: {e}"))?,
                );
            }
            "--seed" => {
                seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other if !other.starts_with("--") && name.is_none() => {
                name = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let rule = match rule_label.as_str() {
        "best-response" => DynamicsRule::BestResponse,
        "logit" => DynamicsRule::Logit { eta },
        "imitation" => DynamicsRule::Imitation,
        other => return Err(format!("unknown dynamics: {other}")),
    };
    Ok(RunArgs {
        name: name.ok_or("run needs a scenario name")?,
        rule,
        n,
        interactions,
        seed,
    })
}

fn run_scenario(args: &RunArgs) -> Result<Json, String> {
    let scenario = by_name(&args.name).map_err(|e| e.to_string())?;
    let dynamics = scenario.dynamics(args.rule).map_err(|e| e.to_string())?;
    let k = scenario.game().k();
    let uniform = vec![1.0 / k as f64; k];
    let mut engine =
        engine_from_profile(dynamics, &uniform, args.n).map_err(|e| e.to_string())?;
    let horizon = args.interactions.unwrap_or(30 * args.n);
    let mut rng = rng_from_seed(args.seed);
    engine
        .run_batched(horizon, engine.suggested_batch(), &mut rng)
        .map_err(|e| e.to_string())?;
    let freq = engine.frequencies();
    let equilibria = scenario.symmetric_equilibria();
    let (nearest, distance) = equilibria
        .iter()
        .map(|eq| tv_distance(&freq, &eq.x).expect("matching dimensions"))
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, d)| (i as i64, d))
        .unwrap_or((-1, f64::NAN));
    let mut fields = vec![
        ("scenario", Json::from(scenario.name())),
        ("dynamics", Json::from(args.rule.label())),
        ("n", Json::from(args.n)),
        ("interactions", Json::from(engine.interactions())),
        ("seed", Json::from(args.seed)),
        ("final_frequencies", profile_json(&freq)),
        ("consensus", Json::from(engine.is_consensus())),
        ("exact_symmetric_equilibria", Json::from(equilibria.len())),
        ("nearest_equilibrium", Json::Int(nearest)),
    ];
    if let Some(eq) = equilibria.get(usize::try_from(nearest).unwrap_or(usize::MAX)) {
        fields.push(("nearest_equilibrium_profile", profile_json(&eq.x)));
    }
    fields.push(("tv_to_nearest_equilibrium", Json::Num(round6(distance))));
    Ok(Json::obj(fields))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            println!("{}", registry_listing().pretty());
            ExitCode::SUCCESS
        }
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(run_args) => match run_scenario(&run_args) {
                Ok(json) => {
                    println!("{}", json.pretty());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("usage error: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            println!(
                "usage: scenarios --list\n       scenarios run <name> [--dynamics best-response|logit|imitation] [--eta H] [--n N] [--interactions T] [--seed S]"
            );
            ExitCode::from(2)
        }
    }
}
