//! Endpoint semantics: request parsing/validation, canonicalization (the
//! cache key), the executors, and the router.
//!
//! # Endpoints
//!
//! | method & path | body | reply |
//! |---|---|---|
//! | `GET /healthz` | — | liveness + queue/cache counters |
//! | `GET /scenarios` | — | the scenario registry |
//! | `POST /solve` | scenario name or explicit game | exact equilibria |
//! | `POST /simulate` | scenario × dynamics × n × replicas | TV-to-equilibrium summary |
//! | `POST /jobs` | a solve/simulate/reproduce request (+ optional `kind`) | `202` + job id |
//! | `GET /jobs/{id}` | — | status, inlined result when done |
//! | `DELETE /jobs/{id}` | — | cooperative cancellation |
//! | `POST /reproduce` | report preset × overrides (empty body = quick) | `202` + job id + artifact id |
//! | `GET /artifacts/{id}` | — | stored `REPORT.json` bytes (`.md` for markdown) |
//! | `POST /shutdown` | — | graceful stop (only with remote shutdown enabled) |
//!
//! # Canonicalization and determinism
//!
//! Every cacheable request is reduced to a canonical JSON string: fixed
//! field order, defaults filled in, floats in shortest-roundtrip form.
//! Two requests meaning the same work — whatever their field order,
//! whitespace, or omitted defaults — share one canonical string, and the
//! response is a deterministic function of it (simulations by the PR 1
//! determinism contract, solves because the solver is pure). The result
//! cache is keyed on exactly this string, so hits are byte-identical to
//! cold computations. The `x-popgame-cache: hit|miss` response header
//! reports which path served the request; bodies never differ.

use crate::cache::{fnv1a64, ResultCache};
use crate::http::{Request, Response};
use crate::jobs::{JobProgress, JobState, JobStore, ProgressSnapshot};
use popgame_report::{render, run_report_observed, ReportConfig, SweepObserver, REPRODUCE_SEED};
use popgame_analytics::{
    absorption_stats_ci, absorption_stats_json, bootstrap_ci_json, cycle_ensemble_json,
    cycle_over_replicas, tmix_fit_json, tmix_mean_tv, AbsorptionObservation, BootstrapConfig,
};
use popgame_dist::divergence::tv_distance;
use popgame_population::trajectory::TrajectoryRecorder;
use popgame_obs::log as obs_log;
use popgame_obs::metrics::{registry, Counter, LatencyHistogram};
use popgame_obs::trace::{self, Family};
use popgame_runner::{mean_vectors, run_replicas_cancellable};
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule};
use popgame_solver::nash::Equilibrium;
use popgame_solver::scenarios::by_name;
use popgame_solver::{enumerate_equilibria, solve_zero_sum, MatrixGame};
use popgame_util::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Population-size ceiling for `/simulate` (count-level memory is `O(K)`,
/// but the horizon scales with `n`).
pub const MAX_N: u64 = 10_000_000;
/// Interaction-horizon ceiling for `/simulate`.
pub const MAX_INTERACTIONS: u64 = 1_000_000_000;
/// Replica ceiling for `/simulate`.
pub const MAX_REPLICAS: u64 = 256;
/// `interactions × replicas` ceiling for the *synchronous* `/simulate`
/// endpoint (a few seconds of compute). Bigger sweeps must go through
/// `POST /jobs`, where they occupy a job executor — cancellable via
/// `DELETE` — instead of pinning an HTTP worker.
pub const MAX_SYNC_WORK: u64 = 4_000_000_000;
/// Strategy-count ceiling for support enumeration (exponential path).
pub const MAX_SOLVE_K: usize = 8;
/// Trajectory points retained per replica when the `analytics` block is
/// requested (bounded memory; the recorder thins by stride doubling).
pub const ANALYTICS_TRAJECTORY_CAPACITY: usize = 64;
/// ε of the analytics t_mix fit — the same threshold the report's
/// time-constants section uses.
pub const ANALYTICS_TMIX_EPSILON: f64 = 0.1;
/// Bootstrap resamples behind the analytics confidence intervals.
pub const ANALYTICS_RESAMPLES: u32 = 200;
/// Seed salt separating the analytics bootstrap streams from the
/// simulation's replica streams.
const ANALYTICS_SALT: u64 = 0xA9A1_7515_B007_57A9;
/// Strategy-count ceiling for the zero-sum LP (polynomial path).
pub const MAX_ZEROSUM_K: usize = 64;
/// Population-size ceiling per entry of a `/reproduce` size sweep (the
/// report runs the whole scenario × dynamics matrix at every size, so
/// this sits far below the single-run [`MAX_N`]).
pub const MAX_REPORT_N: u64 = 100_000;
/// Size-sweep length ceiling for `/reproduce`.
pub const MAX_REPORT_SIZES: usize = 8;
/// Horizon-per-agent ceiling for `/reproduce`.
pub const MAX_REPORT_HORIZON: u64 = 1_000;
/// Trajectory-capacity ceiling for `/reproduce`.
pub const MAX_REPORT_TRAJECTORY: u64 = 4_096;
/// The filterable top-level sections of `REPORT.json`, in document
/// order. `paper`, `schema_version`, and `config` are always kept.
pub const REPORT_SECTIONS: [&str; 6] = [
    "scenarios",
    "convergence",
    "trajectories",
    "eta_sweep",
    "divergence",
    "time_constants",
];

/// Shared state behind every endpoint.
pub struct AppState {
    /// The content-addressed result cache.
    pub cache: Arc<ResultCache>,
    /// The asynchronous job queue.
    pub jobs: Arc<JobStore>,
    /// 503 counter, wired up from the HTTP server after binding.
    pub overflows: OnceLock<Arc<AtomicU64>>,
    /// Server start time (for `uptime_ms`).
    pub started: Instant,
    /// HTTP worker-pool size (reported by `/healthz`).
    pub http_workers: usize,
    /// Present when `POST /shutdown` is enabled; sending stops the daemon.
    pub shutdown_tx: Mutex<Option<SyncSender<()>>>,
}

/// The endpoint labels used by the request metrics; unknown paths land
/// on the final `other` bucket.
const ENDPOINT_LABELS: [&str; 11] = [
    "healthz", "scenarios", "solve", "simulate", "jobs", "job_detail", "reproduce", "artifacts",
    "shutdown", "metrics", "other",
];

struct EndpointMetrics {
    requests: Arc<Counter>,
    latency: Arc<LatencyHistogram>,
}

/// Pre-registered per-endpoint handles: the per-request path does one
/// lazy-init load plus a scan over eleven entries — no registry lock.
fn endpoint_metrics(endpoint: &str) -> &'static EndpointMetrics {
    static TABLE: OnceLock<Vec<(&'static str, EndpointMetrics)>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        ENDPOINT_LABELS
            .iter()
            .map(|&name| {
                (
                    name,
                    EndpointMetrics {
                        requests: registry().counter(
                            "popgame_http_requests_total",
                            "Requests routed, by endpoint.",
                            &[("endpoint", name)],
                        ),
                        latency: registry().histogram(
                            "popgame_http_request_duration_us",
                            "Handler latency in microseconds, by endpoint.",
                            &[("endpoint", name)],
                        ),
                    },
                )
            })
            .collect()
    });
    table
        .iter()
        .find(|(name, _)| *name == endpoint)
        .map(|(_, metrics)| metrics)
        .unwrap_or_else(|| &table.last().expect("table non-empty").1)
}

/// Responses by status class (`2xx`/`4xx`/`5xx`).
fn status_class_counter(status: u16) -> Arc<Counter> {
    static TABLE: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        ["2xx", "4xx", "5xx"].map(|class| {
            registry().counter(
                "popgame_http_responses_total",
                "Responses sent, by status class.",
                &[("class", class)],
            )
        })
    });
    let index = match status {
        200..=299 => 0,
        500..=599 => 2,
        _ => 1,
    };
    Arc::clone(&table[index])
}

/// A validated `/simulate` request with every default filled in.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// Registry scenario name.
    pub scenario: String,
    /// Dynamics label: a [`DynamicsRule::label`] of
    /// [`DynamicsRule::canonical_all`].
    pub dynamics: String,
    /// Logit inverse temperature (normalized to the default for the
    /// other rules, so it never splits their cache keys).
    pub eta: f64,
    /// Population size.
    pub n: u64,
    /// Interaction horizon.
    pub interactions: u64,
    /// Independent replicas (parallelized, deterministic per seed).
    pub replicas: u64,
    /// Base RNG seed; replica `r` uses stream `(seed, r)`.
    pub seed: u64,
    /// Whether to record per-replica trajectories and append the
    /// `analytics` block (t_mix/absorption/cycle estimates with CIs).
    /// Observation-only: the other response fields are byte-identical
    /// with and without it.
    pub analytics: bool,
}

const DEFAULT_ETA: f64 = 2.0;

fn field_u64(doc: &Json, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(value) => value
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn check_known_fields(doc: &Json, known: &[&str]) -> Result<(), String> {
    let fields = doc.as_object().ok_or("request body must be a JSON object")?;
    for (key, _) in fields {
        // `kind` (job envelope) and `endpoint` (canonical form) ride along.
        if key != "kind" && key != "endpoint" && !known.contains(&key.as_str()) {
            return Err(format!("unknown field {key:?}"));
        }
    }
    Ok(())
}

impl SimulateRequest {
    /// Parses and validates a request body, filling defaults.
    ///
    /// # Errors
    ///
    /// A human-readable message (the endpoint's 400 body) on unknown
    /// fields, type mismatches, unknown scenarios/dynamics, or
    /// out-of-range sizes.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        check_known_fields(
            doc,
            &[
                "scenario",
                "dynamics",
                "eta",
                "n",
                "interactions",
                "replicas",
                "seed",
                "analytics",
            ],
        )?;
        let scenario = doc
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("field \"scenario\" (string) is required")?
            .to_string();
        by_name(&scenario).map_err(|e| e.to_string())?;
        let dynamics = doc
            .get("dynamics")
            .map(|v| v.as_str().ok_or("field \"dynamics\" must be a string"))
            .transpose()?
            .unwrap_or("best-response")
            .to_string();
        DynamicsRule::from_label(&dynamics, DEFAULT_ETA)
            .ok_or_else(|| unknown_dynamics(&dynamics))?;
        let eta = match doc.get("eta") {
            None => DEFAULT_ETA,
            Some(value) => value.as_f64().ok_or("field \"eta\" must be a number")?,
        };
        if !eta.is_finite() || eta.abs() > 100.0 {
            return Err(format!("eta must be finite with |eta| <= 100, got {eta}"));
        }
        let n = field_u64(doc, "n", 10_000)?;
        if !(2..=MAX_N).contains(&n) {
            return Err(format!("n must be in 2..={MAX_N}, got {n}"));
        }
        let interactions = field_u64(doc, "interactions", 30 * n)?;
        if interactions > MAX_INTERACTIONS {
            return Err(format!(
                "interactions must be <= {MAX_INTERACTIONS}, got {interactions}"
            ));
        }
        let replicas = field_u64(doc, "replicas", 4)?;
        if !(1..=MAX_REPLICAS).contains(&replicas) {
            return Err(format!("replicas must be in 1..={MAX_REPLICAS}, got {replicas}"));
        }
        let seed = field_u64(doc, "seed", 42)?;
        let analytics = match doc.get("analytics") {
            None => false,
            Some(value) => value
                .as_bool()
                .ok_or("field \"analytics\" must be a boolean")?,
        };
        // Only logit consults eta; normalizing it for the other rules
        // keeps one cache entry per actually-distinct computation.
        let eta = if dynamics == "logit" { eta } else { DEFAULT_ETA };
        Ok(SimulateRequest {
            scenario,
            dynamics,
            eta,
            n,
            interactions,
            replicas,
            seed,
            analytics,
        })
    }

    /// The canonical cache-key string: fixed field order, every default
    /// explicit. Equal requests — however spelled — canonicalize
    /// identically.
    pub fn canonical(&self) -> String {
        Json::obj([
            ("endpoint", Json::from("simulate")),
            ("scenario", Json::from(self.scenario.as_str())),
            ("dynamics", Json::from(self.dynamics.as_str())),
            ("eta", Json::from(self.eta)),
            ("n", Json::from(self.n)),
            ("interactions", Json::from(self.interactions)),
            ("replicas", Json::from(self.replicas)),
            ("seed", Json::from(self.seed)),
            ("analytics", Json::from(self.analytics)),
        ])
        .encode()
    }

    /// The revision rule. Count-parameterized rules use their canonical
    /// instances (`br-sample` at `m = 5`, `k-igt` on a 5-level grid) —
    /// the same instances the report harness sweeps.
    ///
    /// # Errors
    ///
    /// The `unknown dynamics` message when `dynamics` names no rule.
    pub fn rule(&self) -> Result<DynamicsRule, String> {
        DynamicsRule::from_label(&self.dynamics, self.eta)
            .ok_or_else(|| unknown_dynamics(&self.dynamics))
    }
}

/// The 400 message for a dynamics label no canonical rule carries.
fn unknown_dynamics(label: &str) -> String {
    let labels: Vec<&str> = DynamicsRule::canonical_all()
        .iter()
        .map(DynamicsRule::label)
        .collect();
    format!("unknown dynamics {label:?} ({})", labels.join("|"))
}

/// What `/solve` should solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveTarget {
    /// A registry scenario by name.
    Scenario(String),
    /// An explicit game.
    Game {
        /// `symmetric`, `zero-sum`, or `bimatrix`.
        kind: String,
        /// Row player's payoff matrix.
        row: Vec<Vec<f64>>,
        /// Column player's payoffs (bimatrix only).
        col: Option<Vec<Vec<f64>>>,
    },
}

/// A validated `/solve` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// The game to solve.
    pub target: SolveTarget,
}

fn parse_matrix(value: &Json, key: &str) -> Result<Vec<Vec<f64>>, String> {
    let rows = value
        .as_array()
        .ok_or_else(|| format!("field {key:?} must be an array of arrays"))?;
    if rows.is_empty() || rows.len() > MAX_ZEROSUM_K {
        return Err(format!("{key:?} must have 1..={MAX_ZEROSUM_K} rows"));
    }
    rows.iter()
        .map(|row| {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("field {key:?} must be an array of arrays"))?;
            cells
                .iter()
                .map(|cell| {
                    let v = cell
                        .as_f64()
                        .ok_or_else(|| format!("{key:?} entries must be numbers"))?;
                    if !v.is_finite() {
                        return Err(format!("{key:?} entries must be finite"));
                    }
                    Ok(v)
                })
                .collect()
        })
        .collect()
}

impl SolveRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A human-readable message on structural problems; game-shape
    /// problems (ragged or non-square matrices) surface from the solver
    /// at execution time.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        check_known_fields(doc, &["scenario", "game"])?;
        match (doc.get("scenario"), doc.get("game")) {
            (Some(_), Some(_)) => Err("give either \"scenario\" or \"game\", not both".into()),
            (Some(name), None) => {
                let name = name
                    .as_str()
                    .ok_or("field \"scenario\" must be a string")?
                    .to_string();
                by_name(&name).map_err(|e| e.to_string())?;
                Ok(SolveRequest {
                    target: SolveTarget::Scenario(name),
                })
            }
            (None, Some(game)) => {
                check_known_fields(game, &["kind", "row", "col"])?;
                let kind = game
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("field \"game.kind\" (string) is required")?
                    .to_string();
                if !matches!(kind.as_str(), "symmetric" | "zero-sum" | "bimatrix") {
                    return Err(format!(
                        "unknown game kind {kind:?} (symmetric|zero-sum|bimatrix)"
                    ));
                }
                let row = parse_matrix(
                    game.get("row").ok_or("field \"game.row\" is required")?,
                    "row",
                )?;
                let col = match game.get("col") {
                    Some(value) => Some(parse_matrix(value, "col")?),
                    None => None,
                };
                if (kind == "bimatrix") != col.is_some() {
                    return Err("\"game.col\" is required for bimatrix games and \
                         forbidden otherwise"
                        .into());
                }
                Ok(SolveRequest {
                    target: SolveTarget::Game { kind, row, col },
                })
            }
            (None, None) => Err("give \"scenario\" or \"game\"".into()),
        }
    }

    /// The canonical cache-key string. Like the simulate form, it
    /// re-parses through [`SolveRequest::from_json`] — the async job
    /// executor depends on that round trip.
    pub fn canonical(&self) -> String {
        match &self.target {
            SolveTarget::Scenario(name) => Json::obj([
                ("endpoint", Json::from("solve")),
                ("scenario", Json::from(name.as_str())),
            ])
            .encode(),
            SolveTarget::Game { kind, row, col } => {
                let matrix = |m: &Vec<Vec<f64>>| Json::arr(m.iter().map(Json::floats));
                let mut game = vec![
                    ("kind", Json::from(kind.as_str())),
                    ("row", matrix(row)),
                ];
                if let Some(col) = col {
                    game.push(("col", matrix(col)));
                }
                Json::obj([
                    ("endpoint", Json::from("solve")),
                    ("game", Json::obj(game)),
                ])
                .encode()
            }
        }
    }

    fn build_game(&self) -> Result<MatrixGame, String> {
        match &self.target {
            SolveTarget::Scenario(name) => {
                Ok(by_name(name).map_err(|e| e.to_string())?.game().clone())
            }
            SolveTarget::Game { kind, row, col } => match kind.as_str() {
                "symmetric" => MatrixGame::symmetric(row.clone()).map_err(|e| e.to_string()),
                "zero-sum" => MatrixGame::zero_sum(row.clone()).map_err(|e| e.to_string()),
                _ => MatrixGame::bimatrix(
                    row.clone(),
                    col.clone().expect("validated: bimatrix has col"),
                )
                .map_err(|e| e.to_string()),
            },
        }
    }
}

/// A validated `POST /reproduce` request: a report preset plus explicit
/// overrides. Overrides are kept as options — the canonical form spells
/// out only what the client actually set, so `{"preset":"quick"}`
/// canonicalizes identically however it arrives and the resulting
/// `REPORT.json` bytes match an in-process `popgame reproduce --quick`
/// (an explicitly-spelled quick config would re-parse as mode
/// `"custom"` and change the rendered config block).
#[derive(Debug, Clone, PartialEq)]
pub struct ReproduceRequest {
    /// Base preset: `quick` or `full`.
    pub preset: String,
    /// Base RNG seed (defaults to the pinned [`REPRODUCE_SEED`]).
    pub seed: u64,
    /// Population-size sweep override (ascending).
    pub sizes: Option<Vec<u64>>,
    /// Replicas-per-cell override.
    pub replicas: Option<u64>,
    /// Horizon-per-agent override.
    pub horizon_per_agent: Option<u64>,
    /// Trajectory-capacity override.
    pub trajectory_capacity: Option<u64>,
    /// Simulation-pool width for this run. Excluded from the canonical
    /// form: report bytes are worker-independent, so requests differing
    /// only here share one cache entry.
    pub workers: Option<u64>,
    /// Top-level `REPORT.json` sections to inline in the job result
    /// (see [`REPORT_SECTIONS`]); `None` inlines the whole report.
    /// Artifacts always store the full report either way.
    pub sections: Option<Vec<String>>,
}

impl ReproduceRequest {
    /// Parses and validates a request body ( `{}` = the quick preset).
    ///
    /// # Errors
    ///
    /// A human-readable message (the endpoint's 400 body) on unknown
    /// fields, type mismatches, unknown presets/sections, or
    /// out-of-range sweep parameters.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        check_known_fields(
            doc,
            &[
                "preset",
                "seed",
                "sizes",
                "replicas",
                "horizon_per_agent",
                "trajectory_capacity",
                "workers",
                "sections",
            ],
        )?;
        let preset = doc
            .get("preset")
            .map(|v| v.as_str().ok_or("field \"preset\" must be a string"))
            .transpose()?
            .unwrap_or("quick")
            .to_string();
        if preset != "quick" && preset != "full" {
            return Err(format!("unknown preset {preset:?} (quick|full)"));
        }
        let seed = field_u64(doc, "seed", REPRODUCE_SEED)?;
        let sizes = match doc.get("sizes") {
            None => None,
            Some(value) => {
                let entries = value
                    .as_array()
                    .ok_or("field \"sizes\" must be an array of integers")?;
                if entries.is_empty() || entries.len() > MAX_REPORT_SIZES {
                    return Err(format!("sizes must have 1..={MAX_REPORT_SIZES} entries"));
                }
                let sizes: Vec<u64> = entries
                    .iter()
                    .map(|entry| {
                        entry
                            .as_u64()
                            .ok_or("sizes entries must be non-negative integers".to_string())
                    })
                    .collect::<Result<_, _>>()?;
                if let Some(&n) = sizes.iter().find(|&&n| n > MAX_REPORT_N) {
                    return Err(format!("sizes entries must be <= {MAX_REPORT_N}, got {n}"));
                }
                Some(sizes)
            }
        };
        let bounded = |key: &str, max: u64| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(value) => {
                    let v = value
                        .as_u64()
                        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))?;
                    if !(1..=max).contains(&v) {
                        return Err(format!("{key} must be in 1..={max}, got {v}"));
                    }
                    Ok(Some(v))
                }
            }
        };
        let replicas = bounded("replicas", MAX_REPLICAS)?;
        let horizon_per_agent = bounded("horizon_per_agent", MAX_REPORT_HORIZON)?;
        let trajectory_capacity = bounded("trajectory_capacity", MAX_REPORT_TRAJECTORY)?;
        let workers = bounded("workers", 512)?;
        let sections = match doc.get("sections") {
            None => None,
            Some(value) => {
                let entries = value
                    .as_array()
                    .ok_or("field \"sections\" must be an array of strings")?;
                if entries.is_empty() {
                    return Err(format!(
                        "sections must not be empty (omit the field for the full \
                         report; known sections: {})",
                        REPORT_SECTIONS.join("|")
                    ));
                }
                let mut picked = [false; REPORT_SECTIONS.len()];
                for entry in entries {
                    let name = entry
                        .as_str()
                        .ok_or("sections entries must be strings")?;
                    let index = REPORT_SECTIONS
                        .iter()
                        .position(|&s| s == name)
                        .ok_or_else(|| {
                            format!(
                                "unknown section {name:?} ({})",
                                REPORT_SECTIONS.join("|")
                            )
                        })?;
                    picked[index] = true;
                }
                // Normalized to document order and deduplicated; a list
                // naming every section canonicalizes like the default.
                if picked.iter().all(|&p| p) {
                    None
                } else {
                    Some(
                        REPORT_SECTIONS
                            .iter()
                            .zip(picked)
                            .filter(|&(_, p)| p)
                            .map(|(&s, _)| s.to_string())
                            .collect(),
                    )
                }
            }
        };
        let request = ReproduceRequest {
            preset,
            seed,
            sizes,
            replicas,
            horizon_per_agent,
            trajectory_capacity,
            workers,
            sections,
        };
        // The harness validator owns cross-field rules (ascending sizes,
        // minimum trajectory capacity, ...).
        request.config().validate()?;
        Ok(request)
    }

    /// The [`ReportConfig`] this request runs: the preset with overrides
    /// applied. Any override flips the echoed mode to `custom` — the
    /// same semantics as the CLI's `popgame reproduce` flags, which is
    /// what keeps daemon-rendered bytes identical to in-process runs.
    pub fn config(&self) -> ReportConfig {
        let mut config = match self.preset.as_str() {
            "full" => ReportConfig::full(self.seed),
            _ => ReportConfig::quick(self.seed),
        };
        let mut custom = false;
        if let Some(sizes) = &self.sizes {
            config.sizes = sizes.clone();
            custom = true;
        }
        if let Some(replicas) = self.replicas {
            config.replicas = replicas;
            custom = true;
        }
        if let Some(horizon) = self.horizon_per_agent {
            config.horizon_per_agent = horizon;
            custom = true;
        }
        if let Some(capacity) = self.trajectory_capacity {
            config.trajectory_capacity = capacity as usize;
            custom = true;
        }
        if custom {
            config.mode = "custom".to_string();
        }
        config
    }

    /// The canonical cache-key string: preset, seed, and only the
    /// overrides the client actually set, in fixed order. Re-parses
    /// through [`ReproduceRequest::from_json`] (the job executor depends
    /// on that round trip); `workers` is deliberately absent.
    pub fn canonical(&self) -> String {
        let mut fields = vec![
            ("endpoint", Json::from("reproduce")),
            ("preset", Json::from(self.preset.as_str())),
            ("seed", Json::from(self.seed)),
        ];
        if let Some(sizes) = &self.sizes {
            fields.push(("sizes", Json::arr(sizes.iter().map(|&n| Json::from(n)))));
        }
        if let Some(replicas) = self.replicas {
            fields.push(("replicas", Json::from(replicas)));
        }
        if let Some(horizon) = self.horizon_per_agent {
            fields.push(("horizon_per_agent", Json::from(horizon)));
        }
        if let Some(capacity) = self.trajectory_capacity {
            fields.push(("trajectory_capacity", Json::from(capacity)));
        }
        if let Some(sections) = &self.sections {
            fields.push((
                "sections",
                Json::arr(sections.iter().map(|s| Json::from(s.as_str()))),
            ));
        }
        Json::obj(fields).encode()
    }
}

/// The artifact id of a canonical reproduce request: the hex FNV-1a 64
/// hash of the canonical string — the same hash the disk tier uses for
/// file names, so ids are stable across restarts and instances.
pub fn artifact_id(canonical: &str) -> String {
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// The cache key an artifact is stored under. Artifacts are ordinary
/// cache entries (`endpoint: "artifact"`), so a daemon running with
/// `--cache-dir` persists them across restarts for free.
pub fn artifact_key(id: &str, kind: &str) -> String {
    Json::obj([
        ("endpoint", Json::from("artifact")),
        ("id", Json::from(id)),
        ("kind", Json::from(kind)),
    ])
    .encode()
}

fn equilibrium_json(eq: &Equilibrium) -> Json {
    Json::obj([
        ("x", Json::floats(&eq.x)),
        ("y", Json::floats(&eq.y)),
        ("row_value", Json::from(eq.row_value)),
        ("col_value", Json::from(eq.col_value)),
    ])
}

/// Solves a validated request. Pure: equal requests give equal documents.
///
/// # Errors
///
/// A human-readable message (the endpoint's 400 body) when the game is
/// malformed or too large for the requested solver path.
pub fn execute_solve(request: &SolveRequest) -> Result<Json, String> {
    let game = request.build_game()?;
    let k = game.k();
    let zero_sum = game.is_zero_sum(1e-12);
    if k > MAX_SOLVE_K && !zero_sum {
        return Err(format!(
            "game too large: support enumeration handles k <= {MAX_SOLVE_K} \
             (zero-sum games go through the LP up to k <= {MAX_ZEROSUM_K})"
        ));
    }
    let equilibria = if k <= MAX_SOLVE_K {
        enumerate_equilibria(&game)
    } else {
        Vec::new()
    };
    let symmetric_eqs: Vec<Equilibrium> = if game.is_symmetric(1e-9) && k <= MAX_SOLVE_K {
        popgame_solver::symmetric_equilibria(&game).unwrap_or_default()
    } else {
        Vec::new()
    };
    let mut fields = vec![
        ("k", Json::from(k)),
        ("symmetric", Json::from(game.is_symmetric(1e-9))),
        ("zero_sum", Json::from(zero_sum)),
        (
            "equilibria",
            Json::arr(equilibria.iter().map(equilibrium_json)),
        ),
        (
            "symmetric_equilibria",
            Json::arr(symmetric_eqs.iter().map(equilibrium_json)),
        ),
    ];
    if zero_sum {
        let solution = solve_zero_sum(game.row_matrix()).map_err(|e| e.to_string())?;
        fields.push((
            "minimax",
            Json::obj([
                ("value", Json::from(solution.value)),
                ("row_strategy", Json::floats(&solution.row_strategy)),
                ("col_strategy", Json::floats(&solution.col_strategy)),
            ]),
        ));
    }
    Ok(Json::obj(fields))
}

/// Runs a validated simulation request: `replicas` independent batched
/// count-level runs fanned out by the deterministic replica harness, each
/// measured against the scenario's exact symmetric equilibria.
///
/// Deterministic: equal `(request, seed)` pairs produce byte-identical
/// encoded documents. The cancellation flag is checked between replica
/// batches; a cancelled run returns an error and must not be cached.
///
/// # Errors
///
/// A message when the scenario/dynamics combination is invalid (e.g.
/// asymmetric scenarios carry no one-population dynamics), or
/// `"cancelled"` when the stop flag aborted the run.
pub fn execute_simulate(
    request: &SimulateRequest,
    cancel: &AtomicBool,
) -> Result<Json, String> {
    execute_simulate_observed(request, cancel, &JobProgress::new())
}

/// [`execute_simulate`] with a live progress sink: `progress` is sized
/// to `replicas` tasks up front, and each finished replica bumps the
/// done-count plus the executor-thread busy time it consumed. The job
/// endpoints poll the same [`JobProgress`] for `GET /jobs/{id}`.
/// Progress is write-only here and strictly out-of-band — results are
/// byte-identical whichever variant runs.
fn execute_simulate_observed(
    request: &SimulateRequest,
    cancel: &AtomicBool,
    progress: &JobProgress,
) -> Result<Json, String> {
    let scenario = by_name(&request.scenario).map_err(|e| e.to_string())?;
    let dynamics = scenario.dynamics(request.rule()?).map_err(|e| e.to_string())?;
    // Rules carrying their own exact reference (k-IGT's stationary law)
    // are measured against it; everything else against the scenario's
    // symmetric equilibria. The start profile follows the same split.
    let equilibria: Vec<Vec<f64>> = dynamics.reference_profiles().unwrap_or_else(|| {
        scenario
            .symmetric_equilibria()
            .into_iter()
            .map(|eq| eq.x)
            .collect()
    });
    let start = dynamics.initial_profile();
    // Probe the engine once so invalid profiles fail fast with a message.
    engine_from_profile(dynamics.clone(), &start, request.n).map_err(|e| e.to_string())?;

    let horizon = request.interactions;
    let record = request.analytics;
    progress.begin(request.replicas);
    let replica_results = run_replicas_cancellable(
        request.seed,
        request.replicas,
        cancel,
        |_replica, mut rng| {
            let task_start = trace::now_ns();
            let mut engine = engine_from_profile(dynamics.clone(), &start, request.n)
                .expect("probed above");
            let batch = engine.suggested_batch();
            // Opt-in trajectory capture. The recorder is observation-only
            // (it never draws randomness), so recorded and plain replicas
            // share one RNG stream — the base response fields are
            // byte-identical whether analytics is requested or not.
            let mut recorder = record.then(|| {
                TrajectoryRecorder::new(ANALYTICS_TRAJECTORY_CAPACITY)
                    .expect("capacity >= 2")
            });
            // Chunked execution with cancellation checks. Chunks are a
            // multiple of the leap size, so the leap sequence — and hence
            // the RNG stream — is identical to one uninterrupted run.
            let chunk = batch.saturating_mul(64).max(1);
            let mut done = 0u64;
            while done < horizon {
                if cancel.load(Ordering::Relaxed) {
                    // Partial replica: the outer flag check discards it.
                    break;
                }
                let burst = chunk.min(horizon - done);
                match recorder.as_mut() {
                    Some(rec) => engine
                        .run_recorded(burst, batch, &mut rng, rec)
                        .expect("n >= 2"),
                    None => engine.run_batched(burst, batch, &mut rng).expect("n >= 2"),
                }
                done += burst;
            }
            let freq = engine.frequencies();
            let nearest_tv = |freq: &[f64]| {
                equilibria
                    .iter()
                    .map(|eq| tv_distance(freq, eq).expect("matching dimensions"))
                    .fold(f64::INFINITY, f64::min)
            };
            let tv = nearest_tv(&freq);
            let consensus = engine.is_consensus();
            let trajectory = recorder.map(|rec| {
                rec.into_points()
                    .into_iter()
                    .map(|p| {
                        let point_freq = p.frequencies();
                        let point_tv = nearest_tv(&point_freq);
                        (p.interactions, point_freq, point_tv)
                    })
                    .collect::<Vec<_>>()
            });
            progress.task_done(trace::now_ns().saturating_sub(task_start));
            (freq, tv, consensus, trajectory)
        },
    );
    let Some(results) = replica_results else {
        return Err("cancelled".to_string());
    };
    if cancel.load(Ordering::Relaxed) {
        // The flag may have been raised after the last replica started;
        // a partially-run replica could have slipped into the results.
        return Err("cancelled".to_string());
    }
    let frequencies: Vec<Vec<f64>> = results.iter().map(|(f, _, _, _)| f.clone()).collect();
    let mean_freq = mean_vectors(&frequencies);
    let replica_tv: Vec<f64> = results.iter().map(|(_, tv, _, _)| *tv).collect();
    let mean_tv = replica_tv.iter().sum::<f64>() / replica_tv.len() as f64;
    let consensus_replicas = results.iter().filter(|(_, _, c, _)| *c).count();
    let mut fields = vec![
        ("scenario", Json::from(request.scenario.as_str())),
        ("dynamics", Json::from(request.dynamics.as_str())),
        ("eta", Json::from(request.eta)),
        ("n", Json::from(request.n)),
        ("interactions", Json::from(request.interactions)),
        ("replicas", Json::from(request.replicas)),
        ("seed", Json::from(request.seed)),
        ("symmetric_equilibria", Json::from(equilibria.len())),
        ("mean_frequencies", Json::floats(&mean_freq)),
        ("mean_tv_to_equilibrium", Json::from(mean_tv)),
        ("replica_tv", Json::floats(&replica_tv)),
        ("consensus_replicas", Json::from(consensus_replicas)),
    ];
    if request.analytics {
        let trajectories: Vec<&Vec<(u64, Vec<f64>, f64)>> = results
            .iter()
            .map(|(_, _, _, t)| t.as_ref().expect("recorded when analytics is on"))
            .collect();
        fields.push(("analytics", analytics_json(request, &trajectories)?));
    }
    Ok(Json::obj(fields))
}

/// One bootstrap configuration of the analytics block; `stream`
/// decorrelates the t_mix, absorption, and cycle resampling streams from
/// each other (and [`ANALYTICS_SALT`] from the replica simulations).
fn analytics_boot(seed: u64, stream: u64) -> BootstrapConfig {
    BootstrapConfig {
        resamples: ANALYTICS_RESAMPLES,
        confidence: 0.95,
        seed: seed ^ ANALYTICS_SALT ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// The opt-in `analytics` response block: t_mix(ε), absorption-time
/// statistics, and limit-cycle metrology fitted from the recorded
/// replica trajectories, each with a deterministic bootstrap CI. Encoded
/// through the shared shapes in [`popgame_analytics::json`] — the same
/// objects `REPORT.json`'s `time_constants` section carries.
fn analytics_json(
    request: &SimulateRequest,
    trajectories: &[&Vec<(u64, Vec<f64>, f64)>],
) -> Result<Json, String> {
    let clocks: Vec<u64> = trajectories[0].iter().map(|p| p.0).collect();
    let tv_series: Vec<Vec<f64>> = trajectories
        .iter()
        .map(|t| t.iter().map(|p| p.2).collect())
        .collect();
    let tmix = tmix_mean_tv(
        &clocks,
        &tv_series,
        ANALYTICS_TMIX_EPSILON,
        &analytics_boot(request.seed, 0),
    )
    .map_err(|e| e.to_string())?;
    let horizon = request.interactions as f64;
    // First recorded consensus point per replica (a consensus count makes
    // one frequency exactly 1.0), censored at the horizon otherwise.
    let observations: Vec<AbsorptionObservation> = trajectories
        .iter()
        .map(|t| {
            t.iter()
                .find(|p| p.1.contains(&1.0))
                .map_or(
                    AbsorptionObservation { time: horizon, absorbed: false },
                    |p| AbsorptionObservation { time: p.0 as f64, absorbed: true },
                )
        })
        .collect();
    let (absorption, absorption_ci) =
        absorption_stats_ci(&observations, horizon, &analytics_boot(request.seed, 1))
            .map_err(|e| e.to_string())?;
    let freq0: Vec<Vec<f64>> = trajectories
        .iter()
        .map(|t| t.iter().map(|p| p.1[0]).collect())
        .collect();
    let cycle = cycle_over_replicas(&clocks, &freq0, &analytics_boot(request.seed, 2))
        .map_err(|e| e.to_string())?;
    Ok(Json::obj([
        ("epsilon", Json::from(ANALYTICS_TMIX_EPSILON)),
        ("resamples", Json::from(u64::from(ANALYTICS_RESAMPLES))),
        ("confidence", Json::from(0.95)),
        ("trajectory_points", Json::from(clocks.len())),
        ("tmix", tmix_fit_json(&tmix)),
        ("absorption", absorption_stats_json(&absorption)),
        ("absorption_mean_ci", bootstrap_ci_json(&absorption_ci)),
        ("cycle", cycle_ensemble_json(&cycle)),
    ]))
}

fn parse_body(request: &Request) -> Result<Json, String> {
    let text = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body (expected a JSON object)".to_string());
    }
    Json::parse(text).map_err(|e| e.to_string())
}

fn healthz(state: &AppState) -> Response {
    let (queued, running, done, failed, cancelled) = state.jobs.counts();
    let doc = Json::obj([
        ("status", Json::from("ok")),
        (
            "uptime_ms",
            Json::from(state.started.elapsed().as_millis() as u64),
        ),
        (
            "queue_depth",
            Json::from(crate::http::queue_depth_gauge().get().max(0) as u64),
        ),
        (
            "in_flight",
            Json::from(crate::http::in_flight_gauge().get().max(0) as u64),
        ),
        (
            "workers",
            Json::obj([
                ("http", Json::from(state.http_workers as u64)),
                ("sim", Json::from(popgame_runner::worker_threads() as u64)),
            ]),
        ),
        (
            "jobs",
            Json::obj([
                ("queued", Json::from(queued)),
                ("running", Json::from(running)),
                ("done", Json::from(done)),
                ("failed", Json::from(failed)),
                ("cancelled", Json::from(cancelled)),
            ]),
        ),
        ("cache", {
            let mut cache_fields = vec![
                ("entries", Json::from(state.cache.len())),
                ("hits", Json::from(state.cache.hits())),
                ("misses", Json::from(state.cache.misses())),
                ("evictions", Json::from(state.cache.evictions())),
            ];
            if state.cache.has_disk() {
                let (disk_hits, disk_writes, disk_evictions) = state.cache.disk_stats();
                cache_fields.push((
                    "disk",
                    Json::obj([
                        ("hits", Json::from(disk_hits)),
                        ("writes", Json::from(disk_writes)),
                        ("evictions", Json::from(disk_evictions)),
                    ]),
                ));
            }
            Json::obj(cache_fields)
        }),
        (
            "rejected_503",
            Json::from(
                state
                    .overflows
                    .get()
                    .map_or(0, |c| c.load(Ordering::Relaxed)),
            ),
        ),
    ]);
    Response::json(200, doc.encode())
}

/// `GET /metrics`: the whole registry in Prometheus text-exposition
/// format. The cache-entries and uptime gauges are refreshed at scrape
/// time (derived values, not event counts); `popgame_build_info` is the
/// conventional constant-`1` gauge carrying the build's version label.
fn metrics_endpoint(state: &AppState) -> Response {
    static ENTRIES: OnceLock<Arc<popgame_obs::Gauge>> = OnceLock::new();
    let entries = ENTRIES.get_or_init(|| {
        registry().gauge(
            "popgame_cache_entries",
            "Entries currently resident in the result cache.",
            &[],
        )
    });
    entries.set(state.cache.len() as i64);
    static BUILD_INFO: OnceLock<Arc<popgame_obs::Gauge>> = OnceLock::new();
    BUILD_INFO.get_or_init(|| {
        let gauge = registry().gauge(
            "popgame_build_info",
            "Constant 1; the version label identifies the running build.",
            &[("version", env!("CARGO_PKG_VERSION"))],
        );
        gauge.set(1);
        gauge
    });
    static UPTIME: OnceLock<Arc<popgame_obs::Gauge>> = OnceLock::new();
    let uptime = UPTIME.get_or_init(|| {
        registry().gauge(
            "popgame_uptime_seconds",
            "Seconds since the service started, refreshed at scrape time.",
            &[],
        )
    });
    uptime.set(state.started.elapsed().as_secs() as i64);
    Response::text(200, registry().render())
}

/// Serves a cacheable endpoint: canonical-key lookup, cold execution,
/// insertion. Hit and cold bodies are byte-identical; only the
/// `x-popgame-cache` header differs. Bodies are shared `Arc`s — the hot
/// hit path copies nothing.
fn serve_cached(
    state: &AppState,
    canonical: String,
    execute: impl FnOnce() -> Result<Json, String>,
) -> Response {
    if let Some(body) = state.cache.get(&canonical) {
        return Response::json_shared(200, body).with_header("x-popgame-cache", "hit");
    }
    match execute() {
        Ok(doc) => {
            let body = Arc::new(doc.encode());
            state.cache.insert(canonical, Arc::clone(&body));
            Response::json_shared(200, body).with_header("x-popgame-cache", "miss")
        }
        Err(message) => Response::error(400, &message),
    }
}

fn simulate_endpoint(state: &AppState, request: &Request) -> Response {
    let parsed = parse_body(request).and_then(|doc| SimulateRequest::from_json(&doc));
    match parsed {
        Ok(sim) => {
            let work = sim.interactions.saturating_mul(sim.replicas);
            if work > MAX_SYNC_WORK {
                return Response::error(
                    400,
                    &format!(
                        "interactions x replicas = {work} exceeds the synchronous \
                         budget of {MAX_SYNC_WORK}; submit this sweep via POST /jobs"
                    ),
                );
            }
            serve_cached(state, sim.canonical(), || {
                execute_simulate(&sim, &AtomicBool::new(false))
            })
        }
        Err(message) => Response::error(400, &message),
    }
}

fn solve_endpoint(state: &AppState, request: &Request) -> Response {
    let parsed = parse_body(request).and_then(|doc| SolveRequest::from_json(&doc));
    match parsed {
        Ok(solve) => serve_cached(state, solve.canonical(), || execute_solve(&solve)),
        Err(message) => Response::error(400, &message),
    }
}

/// Parses a job envelope into the canonical string it will execute.
///
/// # Errors
///
/// A human-readable message for the submit-time 400.
pub fn job_canonical(doc: &Json) -> Result<String, String> {
    let kind = doc
        .get("kind")
        .map(|v| v.as_str().ok_or("field \"kind\" must be a string"))
        .transpose()?
        .unwrap_or("simulate");
    match kind {
        "simulate" => Ok(SimulateRequest::from_json(doc)?.canonical()),
        "solve" => Ok(SolveRequest::from_json(doc)?.canonical()),
        "reproduce" => Ok(ReproduceRequest::from_json(doc)?.canonical()),
        other => Err(format!("unknown job kind {other:?} (simulate|solve|reproduce)")),
    }
}

/// Runs a validated reproduce request: the full report harness sweep,
/// rendered to `REPORT.json`/`REPORT.md`. Both renderings are stored in
/// `artifacts` (when given) under the request's artifact id; the
/// returned job document carries the id plus the parsed report —
/// section-filtered when the request asked for a subset.
///
/// Cancellation is coarse: the flag is honoured before the sweep starts
/// and the result of a sweep that finished after cancellation is
/// discarded, but a running sweep is not interrupted mid-flight.
fn execute_reproduce_observed(
    request: &ReproduceRequest,
    cancel: &AtomicBool,
    progress: &JobProgress,
    artifacts: Option<&ResultCache>,
) -> Result<Json, String> {
    if cancel.load(Ordering::Relaxed) {
        return Err("cancelled".to_string());
    }
    let config = request.config();
    let report = run_report_observed(&config, progress)?;
    if cancel.load(Ordering::Relaxed) {
        return Err("cancelled".to_string());
    }
    let json_text = render::report_json(&report);
    let md_text = render::report_markdown(&report);
    let id = artifact_id(&request.canonical());
    if let Some(store) = artifacts {
        store.insert(artifact_key(&id, "json"), Arc::new(json_text.clone()));
        store.insert(artifact_key(&id, "md"), Arc::new(md_text));
    }
    let report_doc = Json::parse(&json_text).expect("render produces valid JSON");
    let report_doc = match &request.sections {
        Some(sections) => filter_sections(&report_doc, sections),
        None => report_doc,
    };
    let mut fields = vec![("artifact", Json::from(id.as_str()))];
    if let Some(sections) = &request.sections {
        fields.push((
            "sections",
            Json::arr(sections.iter().map(|s| Json::from(s.as_str()))),
        ));
    }
    fields.push(("report", report_doc));
    Ok(Json::obj(fields))
}

/// Drops unrequested report sections; `paper`, `schema_version`, and
/// `config` always survive, and surviving keys keep document order.
fn filter_sections(doc: &Json, sections: &[String]) -> Json {
    let fields = doc.as_object().expect("report renders as an object");
    Json::obj(
        fields
            .iter()
            .filter(|(key, _)| {
                matches!(key.as_str(), "paper" | "schema_version" | "config")
                    || sections.iter().any(|s| s == key)
            })
            .map(|(key, value)| (key.clone(), value.clone())),
    )
}

/// Executes a canonical request string: the job executor's core. The
/// canonical form parses with the same validators clients go through.
/// `progress` sees simulations at replica granularity, reproduce sweeps
/// at `(cell, replica)` granularity and solves as a single task;
/// `GET /jobs/{id}` polls it. Reproduce runs
/// store their rendered `REPORT.json`/`REPORT.md` in `artifacts` when
/// given (the daemon passes its result cache, so `GET /artifacts/{id}`
/// serves the exact stored bytes, and a disk-backed cache persists them
/// across restarts); simulate and solve ignore it.
///
/// # Errors
///
/// A message for a corrupt canonical form; otherwise propagates executor
/// errors (including `"cancelled"`).
pub fn execute(
    canonical: &str,
    cancel: &AtomicBool,
    progress: &JobProgress,
    artifacts: Option<&ResultCache>,
) -> Result<Json, String> {
    let doc = Json::parse(canonical).map_err(|e| format!("corrupt canonical form: {e}"))?;
    match doc.get("endpoint").and_then(Json::as_str) {
        Some("simulate") => {
            execute_simulate_observed(&SimulateRequest::from_json(&doc)?, cancel, progress)
        }
        Some("solve") => {
            progress.begin(1);
            let started = trace::now_ns();
            let out = execute_solve(&SolveRequest::from_json(&doc)?);
            progress.task_done(trace::now_ns().saturating_sub(started));
            out
        }
        Some("reproduce") => execute_reproduce_observed(
            &ReproduceRequest::from_json(&doc)?,
            cancel,
            progress,
            artifacts,
        ),
        _ => Err("corrupt canonical form: missing endpoint".to_string()),
    }
}

/// The `progress` object of `GET /jobs/{id}`: completion counters plus
/// derived fraction, busy/elapsed wall time, and a naive ETA (`eta_ms`
/// is absent before the first task finishes and after the last).
fn progress_json(snap: &ProgressSnapshot) -> Json {
    let mut fields = vec![
        ("tasks_done", Json::from(snap.tasks_done)),
        ("tasks_total", Json::from(snap.tasks_total)),
        ("fraction", Json::from(snap.fraction())),
        ("busy_ms", Json::from(snap.busy_ns / 1_000_000)),
        ("elapsed_ms", Json::from(snap.elapsed_ns / 1_000_000)),
    ];
    if let Some(eta_ns) = snap.eta_ns() {
        fields.push(("eta_ms", Json::from(eta_ns / 1_000_000)));
    }
    Json::obj(fields)
}

/// `POST /reproduce`: submits a report-generation job. An empty body
/// means the quick preset with the pinned seed. The `202` reply carries
/// the job id *and* the artifact id the finished report will be served
/// under — clients can poll `GET /jobs/{id}` and then fetch
/// `GET /artifacts/{id}` (or `.md`) for the exact rendered bytes.
fn reproduce_endpoint(state: &AppState, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let doc = if text.trim().is_empty() {
        Json::obj(Vec::<(&str, Json)>::new())
    } else {
        match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, &e.to_string()),
        }
    };
    let reproduce = match ReproduceRequest::from_json(&doc) {
        Ok(reproduce) => reproduce,
        Err(message) => return Response::error(400, &message),
    };
    // Worker override applies to the process-wide simulation pool (the
    // same knob as the daemon's --workers flag); it is not part of the
    // canonical key because report bytes are worker-independent.
    if let Some(workers) = reproduce.workers {
        popgame_runner::set_worker_threads(Some(workers as usize));
    }
    let canonical = reproduce.canonical();
    let artifact = artifact_id(&canonical);
    match state.jobs.submit(canonical) {
        Ok(job) => Response::json(
            202,
            Json::obj([
                ("job_id", Json::from(job.id)),
                ("status", Json::from(job.state().label())),
                ("artifact", Json::from(artifact.as_str())),
            ])
            .encode(),
        ),
        Err(crate::jobs::QueueFull) => Response::error(503, "job queue is full"),
    }
}

/// `GET /artifacts/{id}` (or `{id}.json` / `{id}.md`): the stored
/// report bytes for an artifact id, exactly as rendered — the
/// byte-identity contract extends across restarts when the cache has a
/// disk tier.
fn artifact_endpoint(state: &AppState, method: &str, rest: &str) -> Response {
    if method != "GET" {
        return Response::error(405, "use GET on /artifacts/{id}");
    }
    let (id, kind) = match rest.strip_suffix(".md") {
        Some(id) => (id, "md"),
        None => (rest.strip_suffix(".json").unwrap_or(rest), "json"),
    };
    let well_formed = id.len() == 16
        && id
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !well_formed {
        return Response::error(
            400,
            &format!("bad artifact id {id:?} (16 lowercase hex digits)"),
        );
    }
    match state.cache.get(&artifact_key(id, kind)) {
        Some(body) if kind == "md" => {
            Response::markdown_shared(200, body).with_header("x-popgame-cache", "hit")
        }
        Some(body) => Response::json_shared(200, body).with_header("x-popgame-cache", "hit"),
        None => Response::error(
            404,
            &format!("no artifact {id}; artifacts are produced by POST /reproduce jobs"),
        ),
    }
}

fn submit_job(state: &AppState, request: &Request) -> Response {
    let canonical = match parse_body(request).and_then(|doc| job_canonical(&doc)) {
        Ok(canonical) => canonical,
        Err(message) => return Response::error(400, &message),
    };
    match state.jobs.submit(canonical) {
        Ok(job) => Response::json(
            202,
            Json::obj([
                ("job_id", Json::from(job.id)),
                ("status", Json::from(job.state().label())),
            ])
            .encode(),
        ),
        Err(crate::jobs::QueueFull) => Response::error(503, "job queue is full"),
    }
}

fn job_detail(state: &AppState, method: &str, id_text: &str) -> Response {
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, &format!("bad job id {id_text:?}"));
    };
    match method {
        "GET" => {
            let Some(job) = state.jobs.get(id) else {
                return Response::error(404, &format!("no job {id}"));
            };
            let status = job.state();
            let mut fields = vec![
                ("job_id", Json::from(id)),
                ("status", Json::from(status.label())),
                ("progress", progress_json(&job.progress.snapshot())),
            ];
            match &status {
                JobState::Done(body) => {
                    let result = Json::parse(body).expect("stored bodies are valid JSON");
                    fields.push(("result", result));
                }
                JobState::Failed(message) => {
                    fields.push(("error", Json::from(message.as_str())));
                }
                _ => {}
            }
            Response::json(200, Json::obj(fields).encode())
        }
        "DELETE" => match state.jobs.cancel(id) {
            Some(job) => Response::json(
                200,
                Json::obj([
                    ("job_id", Json::from(id)),
                    ("status", Json::from(job.state().label())),
                ])
                .encode(),
            ),
            None => Response::error(404, &format!("no job {id}")),
        },
        _ => Response::error(405, "use GET or DELETE on /jobs/{id}"),
    }
}

fn shutdown_endpoint(state: &AppState) -> Response {
    let guard = state.shutdown_tx.lock().expect("shutdown tx lock");
    match guard.as_ref() {
        Some(tx) => {
            let _ = tx.try_send(()); // already-signalled is fine
            Response::json(
                200,
                Json::obj([("status", Json::from("shutting-down"))]).encode(),
            )
        }
        None => Response::error(403, "remote shutdown is disabled (run with --allow-remote-shutdown)"),
    }
}

/// The `GET /scenarios` body, computed once: the registry (and its
/// solver-computed equilibrium counts) is static for the process.
fn scenarios_body() -> Arc<String> {
    static BODY: OnceLock<Arc<String>> = OnceLock::new();
    Arc::clone(BODY.get_or_init(|| {
        Arc::new(popgame_solver::scenarios::registry_listing().encode())
    }))
}

/// The router: method × path → handler, wrapped in the per-request
/// instrumentation (endpoint counter, latency histogram, status-class
/// counter, `x-popgame-request-id` header, debug log record). The id and
/// the metrics are strictly out-of-band: the body produced by the inner
/// handler is returned unchanged, so cache hits stay byte-identical to
/// cold computations.
pub fn route(state: &AppState, request: &Request) -> Response {
    let request_id = obs_log::next_request_id();
    // When tracing is on, the whole request runs under a service span
    // whose trace id is derived from the request id — async jobs
    // submitted here inherit both, so one trace follows the request
    // across the HTTP worker and the job executor.
    let request_span = trace::is_enabled().then(|| {
        trace::set_thread_trace_id(trace::trace_id_from_request(&request_id));
        trace::span(
            Family::Service,
            &format!("http:{} {}", request.method, request.path),
        )
    });
    let start = Instant::now();
    let (endpoint, response) = route_inner(state, request);
    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let metrics = endpoint_metrics(endpoint);
    metrics.requests.inc();
    metrics.latency.record_us(elapsed_us);
    status_class_counter(response.status).inc();
    if obs_log::enabled(obs_log::Level::Debug) {
        obs_log::debug(
            "popgamed",
            "request",
            &[
                ("request_id", Json::from(request_id.as_str())),
                ("method", Json::from(request.method.as_str())),
                ("path", Json::from(request.path.as_str())),
                ("endpoint", Json::from(endpoint)),
                ("status", Json::from(response.status as u64)),
                ("duration_us", Json::from(elapsed_us)),
            ],
        );
    }
    if request_span.is_some() {
        // HTTP worker threads are reused; close the span and clear the
        // thread's trace id so the next request starts clean.
        drop(request_span);
        trace::set_thread_trace_id(0);
    }
    response.with_header("x-popgame-request-id", &request_id)
}

/// The bare router; returns the endpoint label alongside the response so
/// the wrapper can attribute metrics.
fn route_inner(state: &AppState, request: &Request) -> (&'static str, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => ("healthz", healthz(state)),
        ("GET", "/metrics") => ("metrics", metrics_endpoint(state)),
        ("GET", "/scenarios") => ("scenarios", Response::json_shared(200, scenarios_body())),
        ("POST", "/solve") => ("solve", solve_endpoint(state, request)),
        ("POST", "/simulate") => ("simulate", simulate_endpoint(state, request)),
        ("POST", "/jobs") => ("jobs", submit_job(state, request)),
        ("POST", "/reproduce") => ("reproduce", reproduce_endpoint(state, request)),
        ("POST", "/shutdown") => ("shutdown", shutdown_endpoint(state)),
        (method, path) => {
            if let Some(id_text) = path.strip_prefix("/jobs/") {
                return ("job_detail", job_detail(state, method, id_text));
            }
            if let Some(rest) = path.strip_prefix("/artifacts/") {
                return ("artifacts", artifact_endpoint(state, method, rest));
            }
            if matches!(
                path,
                "/healthz" | "/metrics" | "/scenarios" | "/solve" | "/simulate" | "/jobs"
                    | "/reproduce" | "/shutdown"
            ) {
                return (
                    "other",
                    Response::error(405, &format!("{method} not allowed on {path}")),
                );
            }
            ("other", Response::error(404, &format!("no such endpoint: {path}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_requests_fill_defaults_and_canonicalize_identically() {
        let sparse = Json::parse(r#"{"scenario": "hawk-dove"}"#).unwrap();
        let spelled = Json::parse(
            r#"{"seed": 42, "n": 10000, "scenario": "hawk-dove",
                "dynamics": "best-response", "replicas": 4, "interactions": 300000}"#,
        )
        .unwrap();
        let a = SimulateRequest::from_json(&sparse).unwrap();
        let b = SimulateRequest::from_json(&spelled).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        // The canonical form re-parses through the same validator.
        let reparsed =
            SimulateRequest::from_json(&Json::parse(&a.canonical()).unwrap()).unwrap();
        assert_eq!(reparsed, a);
    }

    #[test]
    fn eta_only_splits_logit_cache_keys() {
        let br1 = Json::parse(r#"{"scenario":"hawk-dove","eta":3.5}"#).unwrap();
        let br2 = Json::parse(r#"{"scenario":"hawk-dove"}"#).unwrap();
        assert_eq!(
            SimulateRequest::from_json(&br1).unwrap().canonical(),
            SimulateRequest::from_json(&br2).unwrap().canonical()
        );
        let lo1 =
            Json::parse(r#"{"scenario":"hawk-dove","dynamics":"logit","eta":3.5}"#).unwrap();
        let lo2 = Json::parse(r#"{"scenario":"hawk-dove","dynamics":"logit"}"#).unwrap();
        assert_ne!(
            SimulateRequest::from_json(&lo1).unwrap().canonical(),
            SimulateRequest::from_json(&lo2).unwrap().canonical()
        );
    }

    #[test]
    fn invalid_simulate_requests_are_rejected() {
        for (body, needle) in [
            (r#"{"scenario": "no-such-game"}"#, "unknown scenario"),
            (r#"{"scenario": "hawk-dove", "dynamics": "quantal"}"#, "unknown dynamics"),
            (r#"{"scenario": "hawk-dove", "n": 1}"#, "n must be"),
            (r#"{"scenario": "hawk-dove", "n": 99999999999}"#, "n must be"),
            (r#"{"scenario": "hawk-dove", "replicas": 0}"#, "replicas"),
            (r#"{"scenario": "hawk-dove", "seed": -1}"#, "seed"),
            (r#"{"scenario": "hawk-dove", "typo_field": 1}"#, "unknown field"),
            (r#"{"scenario": "hawk-dove", "n": 3.5}"#, "integer"),
            (r#"[1,2]"#, "object"),
            (r#"{}"#, "required"),
        ] {
            let doc = Json::parse(body).unwrap();
            let err = SimulateRequest::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn solve_requests_validate_and_canonicalize() {
        let by_scenario = Json::parse(r#"{"scenario": "matching-pennies"}"#).unwrap();
        let solve = SolveRequest::from_json(&by_scenario).unwrap();
        assert!(solve.canonical().contains("matching-pennies"));
        let explicit = Json::parse(
            r#"{"game": {"kind": "symmetric", "row": [[0.0, 2.0], [1.0, 1.0]]}}"#,
        )
        .unwrap();
        let solve = SolveRequest::from_json(&explicit).unwrap();
        assert!(solve.canonical().contains("\"kind\":\"symmetric\""));
        for (body, needle) in [
            (r#"{}"#, "scenario"),
            (r#"{"scenario": "x", "game": {}}"#, "not both"),
            (r#"{"game": {"kind": "mystery", "row": [[1.0]]}}"#, "unknown game kind"),
            (r#"{"game": {"kind": "symmetric"}}"#, "row"),
            (r#"{"game": {"kind": "symmetric", "row": [[1.0]], "col": [[1.0]]}}"#, "col"),
            (r#"{"game": {"kind": "bimatrix", "row": [[1.0]]}}"#, "col"),
            (r#"{"game": {"kind": "symmetric", "row": 7}}"#, "array"),
        ] {
            let doc = Json::parse(body).unwrap();
            assert!(
                SolveRequest::from_json(&doc).unwrap_err().contains(needle),
                "{body}"
            );
        }
    }

    #[test]
    fn execute_solve_matches_the_solver() {
        let doc = Json::parse(r#"{"scenario": "hawk-dove"}"#).unwrap();
        let out = execute_solve(&SolveRequest::from_json(&doc).unwrap()).unwrap();
        assert_eq!(out.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(out.get("symmetric").unwrap().as_bool(), Some(true));
        assert_eq!(out.get("equilibria").unwrap().as_array().unwrap().len(), 3);
        let sym = out.get("symmetric_equilibria").unwrap().as_array().unwrap();
        assert_eq!(sym.len(), 1);
        let hawk = sym[0].get("x").unwrap().as_array().unwrap()[0].as_f64().unwrap();
        assert!((hawk - 0.5).abs() < 1e-12);
        // Zero-sum games carry the minimax block.
        let doc = Json::parse(r#"{"scenario": "matching-pennies"}"#).unwrap();
        let out = execute_solve(&SolveRequest::from_json(&doc).unwrap()).unwrap();
        let value = out.get("minimax").unwrap().get("value").unwrap().as_f64().unwrap();
        assert!(value.abs() < 1e-9);
    }

    #[test]
    fn execute_simulate_is_deterministic_and_measures_tv() {
        let doc = Json::parse(
            r#"{"scenario": "rock-paper-scissors", "n": 1000,
                "interactions": 30000, "replicas": 3, "seed": 5}"#,
        )
        .unwrap();
        let request = SimulateRequest::from_json(&doc).unwrap();
        let never = AtomicBool::new(false);
        let a = execute_simulate(&request, &never).unwrap();
        let b = execute_simulate(&request, &never).unwrap();
        assert_eq!(a.encode(), b.encode(), "byte-identical recomputation");
        let tv = a.get("mean_tv_to_equilibrium").unwrap().as_f64().unwrap();
        assert!((0.0..0.5).contains(&tv), "RPS best response near uniform: {tv}");
        assert_eq!(
            a.get("replica_tv").unwrap().as_array().unwrap().len(),
            3
        );
        // Pre-cancelled executions abort.
        let cancelled = AtomicBool::new(true);
        assert_eq!(
            execute_simulate(&request, &cancelled).unwrap_err(),
            "cancelled"
        );
        // Asymmetric scenarios carry no one-population dynamics.
        let doc = Json::parse(r#"{"scenario": "matching-pennies", "n": 100}"#).unwrap();
        let request = SimulateRequest::from_json(&doc).unwrap();
        assert!(execute_simulate(&request, &never).is_err());
    }

    #[test]
    fn dynamics_labels_and_rules_cannot_drift() {
        use popgame_solver::dynamics::DynamicsRule;
        // Every canonical rule round-trips through its label: validation
        // accepts it and rule() runs that very rule, logit at its η.
        for rule in DynamicsRule::canonical_all() {
            let label = rule.label();
            let doc = Json::parse(&format!(
                r#"{{"scenario": "hawk-dove", "dynamics": "{label}"}}"#
            ))
            .unwrap();
            let request = SimulateRequest::from_json(&doc).unwrap();
            assert_eq!(request.rule(), Ok(rule), "rule() drifted for {label}");
            assert_eq!(DynamicsRule::from_label(label, 0.5).map(|r| r.label()), Some(label));
        }
        assert_eq!(
            DynamicsRule::from_label("logit", 0.5),
            Some(DynamicsRule::Logit { eta: 0.5 })
        );
        // The 400 lists the labels in canonical order, byte for byte.
        let doc = Json::parse(r#"{"scenario": "hawk-dove", "dynamics": "quantal"}"#).unwrap();
        assert_eq!(
            SimulateRequest::from_json(&doc).unwrap_err(),
            "unknown dynamics \"quantal\" (best-response|logit|imitation|\
             pairwise-imitation|imitation-two-way|br-sample|k-igt)"
        );
        // A request built field by field with a typo runs nothing: it
        // used to fall through to imitation and echo the typo.
        let doc = Json::parse(r#"{"scenario": "hawk-dove", "n": 100}"#).unwrap();
        let mut request = SimulateRequest::from_json(&doc).unwrap();
        request.dynamics = "imitaton".to_string();
        let error = request.rule().unwrap_err();
        assert!(error.starts_with("unknown dynamics \"imitaton\""), "{error}");
        let never = AtomicBool::new(false);
        assert_eq!(execute_simulate(&request, &never).unwrap_err(), error);
    }

    #[test]
    fn new_dynamics_labels_execute_end_to_end() {
        let never = AtomicBool::new(false);
        for dynamics in ["pairwise-imitation", "imitation-two-way", "br-sample"] {
            let doc = Json::parse(&format!(
                r#"{{"scenario": "rock-paper-scissors", "dynamics": "{dynamics}",
                    "n": 300, "interactions": 3000, "replicas": 2, "seed": 3}}"#
            ))
            .unwrap();
            let request = SimulateRequest::from_json(&doc).unwrap();
            let a = execute_simulate(&request, &never).unwrap();
            let b = execute_simulate(&request, &never).unwrap();
            assert_eq!(a.encode(), b.encode(), "{dynamics}: byte-identical");
            let tv = a.get("mean_tv_to_equilibrium").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&tv), "{dynamics}: {tv}");
        }
        // k-IGT rides the donation game and is measured against its own
        // Theorem 2.7 stationary reference (a single profile over the
        // 7-state space).
        let doc = Json::parse(
            r#"{"scenario": "prisoners-dilemma", "dynamics": "k-igt",
                "n": 2000, "interactions": 60000, "replicas": 2, "seed": 9}"#,
        )
        .unwrap();
        let request = SimulateRequest::from_json(&doc).unwrap();
        let out = execute_simulate(&request, &never).unwrap();
        assert_eq!(out.get("symmetric_equilibria").unwrap().as_u64(), Some(1));
        let freqs = out.get("mean_frequencies").unwrap().as_array().unwrap();
        assert_eq!(freqs.len(), 7, "AC + AD + five GTFT levels");
        let tv = out.get("mean_tv_to_equilibrium").unwrap().as_f64().unwrap();
        assert!(tv < 0.1, "near the stationary law after 30n: {tv}");
        // On any other scenario the k-IGT substrate check rejects.
        let doc = Json::parse(
            r#"{"scenario": "rock-paper-scissors", "dynamics": "k-igt", "n": 100}"#,
        )
        .unwrap();
        let request = SimulateRequest::from_json(&doc).unwrap();
        let err = execute_simulate(&request, &never).unwrap_err();
        assert!(err.contains("donation"), "{err}");
    }

    #[test]
    fn simulate_bodies_are_pinned() {
        use popgame_solver::dynamics::DynamicsRule;
        // One small request per canonical dynamics label, plus six agents
        // whose leaps run over tiny counts, its encoded body pinned by
        // digest: refactors of the engine must leave /simulate bytes
        // unchanged.
        let cases: [(&str, &str, u64, bool, u64); 8] = [
            ("best-response", "hawk-dove", 300, true, 0xe6ba_67d3_8a32_08cc),
            ("logit", "rock-paper-scissors", 300, true, 0xc172_90cb_4135_2075),
            ("imitation", "stag-hunt", 300, false, 0x93dc_b1ea_3531_a4dc),
            ("pairwise-imitation", "rock-paper-scissors", 300, false, 0xa7e3_419d_8b98_f2db),
            ("imitation-two-way", "hawk-dove", 300, false, 0xb2be_d838_36e1_89eb),
            ("br-sample", "rock-paper-scissors", 300, false, 0x5991_2ca0_a748_6364),
            ("k-igt", "prisoners-dilemma", 300, true, 0x2004_f17e_f9dc_3826),
            ("logit", "hawk-dove", 6, false, 0xe8a3_dbe4_1fb5_69d1),
        ];
        let labels: Vec<&str> = cases.iter().map(|case| case.0).collect();
        for rule in DynamicsRule::canonical_all() {
            assert!(labels.contains(&rule.label()), "{} is not pinned", rule.label());
        }
        let never = AtomicBool::new(false);
        let mut drifted = Vec::new();
        for (dynamics, scenario, n, analytics, digest) in cases {
            let doc = Json::parse(&format!(
                r#"{{"scenario": "{scenario}", "dynamics": "{dynamics}", "n": {n},
                    "interactions": 6000, "replicas": 2, "seed": 13,
                    "analytics": {analytics}}}"#
            ))
            .unwrap();
            let request = SimulateRequest::from_json(&doc).unwrap();
            let body = execute_simulate(&request, &never).unwrap().encode();
            let got = fnv1a64(body.as_bytes());
            if got != digest {
                drifted.push(format!("{dynamics}/{scenario}/n={n}: {got:#018x}"));
            }
        }
        assert!(drifted.is_empty(), "/simulate bodies moved: {drifted:#?}");
    }

    #[test]
    fn canonical_round_trip_through_execute() {
        let doc = Json::parse(r#"{"scenario": "stag-hunt", "n": 500, "replicas": 2}"#).unwrap();
        let request = SimulateRequest::from_json(&doc).unwrap();
        let never = AtomicBool::new(false);
        let direct = execute_simulate(&request, &never).unwrap();
        let via_canonical =
            execute(&request.canonical(), &never, &JobProgress::new(), None).unwrap();
        assert_eq!(direct.encode(), via_canonical.encode());
        assert!(execute("{}", &never, &JobProgress::new(), None).is_err());
        assert!(execute("not json", &never, &JobProgress::new(), None).is_err());
    }

    #[test]
    fn analytics_block_is_opt_in_and_never_perturbs_base_fields() {
        let base = r#"{"scenario": "stag-hunt", "dynamics": "best-response",
            "n": 400, "interactions": 20000, "replicas": 3, "seed": 11"#;
        let plain = SimulateRequest::from_json(
            &Json::parse(&format!("{base}}}")).unwrap(),
        )
        .unwrap();
        let with = SimulateRequest::from_json(
            &Json::parse(&format!("{base}, \"analytics\": true}}")).unwrap(),
        )
        .unwrap();
        let never = AtomicBool::new(false);
        let a = execute_simulate(&plain, &never).unwrap();
        let b = execute_simulate(&with, &never).unwrap();
        // The recorder is observation-only: every base field must be
        // byte-identical whether or not analytics was requested.
        for field in [
            "scenario", "dynamics", "eta", "n", "interactions", "replicas", "seed",
            "symmetric_equilibria", "mean_frequencies", "mean_tv_to_equilibrium",
            "replica_tv", "consensus_replicas",
        ] {
            assert_eq!(
                a.get(field).unwrap().encode(),
                b.get(field).unwrap().encode(),
                "analytics perturbed base field {field}"
            );
        }
        assert!(a.get("analytics").is_none(), "analytics block must be opt-in");
        let analytics = b.get("analytics").expect("requested block present");
        // Recomputation with analytics is itself byte-deterministic.
        let b2 = execute_simulate(&with, &never).unwrap();
        assert_eq!(b.encode(), b2.encode());
        // Block shape: estimator outputs with bootstrap parameters.
        assert_eq!(analytics.get("epsilon").unwrap().as_f64(), Some(0.1));
        assert_eq!(analytics.get("resamples").unwrap().as_u64(), Some(200));
        let points = analytics.get("trajectory_points").unwrap().as_u64().unwrap();
        assert!(
            (2..=ANALYTICS_TRAJECTORY_CAPACITY as u64).contains(&points),
            "{points} recorded points"
        );
        let kind = analytics.get("tmix").unwrap().get("kind").unwrap();
        assert!(
            ["crossed", "already-mixed", "not-crossed"].contains(&kind.as_str().unwrap())
        );
        let absorption = analytics.get("absorption").unwrap();
        assert_eq!(absorption.get("replicas").unwrap().as_u64(), Some(3));
        // The final state is force-recorded, so a replica counted in
        // consensus_replicas is always seen as absorbed by the scan.
        let consensus = b.get("consensus_replicas").unwrap().as_u64().unwrap();
        assert!(absorption.get("absorbed").unwrap().as_u64().unwrap() >= consensus);
    }

    #[test]
    fn analytics_flag_splits_canonical_keys_and_is_validated() {
        let on = Json::parse(r#"{"scenario": "hawk-dove", "analytics": true}"#).unwrap();
        let off = Json::parse(r#"{"scenario": "hawk-dove"}"#).unwrap();
        let on = SimulateRequest::from_json(&on).unwrap();
        let off = SimulateRequest::from_json(&off).unwrap();
        assert_ne!(
            on.canonical(),
            off.canonical(),
            "analytics responses must not be served from plain cache entries"
        );
        // Explicit false canonicalizes like the default.
        let explicit =
            Json::parse(r#"{"scenario": "hawk-dove", "analytics": false}"#).unwrap();
        assert_eq!(
            SimulateRequest::from_json(&explicit).unwrap().canonical(),
            off.canonical()
        );
        let bad = Json::parse(r#"{"scenario": "hawk-dove", "analytics": 1}"#).unwrap();
        let err = SimulateRequest::from_json(&bad).unwrap_err();
        assert!(err.contains("analytics"), "{err}");
    }

    #[test]
    fn reproduce_requests_canonicalize_and_validate() {
        // Sparse and spelled-out defaults share one canonical string.
        let sparse = Json::parse("{}").unwrap();
        let spelled = Json::parse(r#"{"preset":"quick","seed":20240717}"#).unwrap();
        let a = ReproduceRequest::from_json(&sparse).unwrap();
        let b = ReproduceRequest::from_json(&spelled).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.config().mode, "quick");
        // The canonical form re-parses through the same validator.
        let reparsed =
            ReproduceRequest::from_json(&Json::parse(&a.canonical()).unwrap()).unwrap();
        assert_eq!(reparsed, a);
        // Any override flips the mode to custom (CLI semantics).
        let custom = Json::parse(r#"{"replicas":2}"#).unwrap();
        assert_eq!(
            ReproduceRequest::from_json(&custom).unwrap().config().mode,
            "custom"
        );
        // Workers never splits cache keys; report bytes don't depend on it.
        let with_workers = Json::parse(r#"{"workers":2}"#).unwrap();
        assert_eq!(
            ReproduceRequest::from_json(&with_workers).unwrap().canonical(),
            a.canonical()
        );
        // Sections normalize to document order, dedup, and a full list
        // canonicalizes like the default.
        let shuffled =
            Json::parse(r#"{"sections":["convergence","scenarios","convergence"]}"#).unwrap();
        let picked = ReproduceRequest::from_json(&shuffled).unwrap();
        assert_eq!(
            picked.sections.as_deref(),
            Some(&["scenarios".to_string(), "convergence".to_string()][..])
        );
        let everything = Json::parse(&format!(
            r#"{{"sections":[{}]}}"#,
            REPORT_SECTIONS
                .iter()
                .map(|s| format!("{s:?}"))
                .collect::<Vec<_>>()
                .join(",")
        ))
        .unwrap();
        assert_eq!(
            ReproduceRequest::from_json(&everything).unwrap().canonical(),
            a.canonical()
        );
        for (body, needle) in [
            (r#"{"preset":"huge"}"#, "unknown preset"),
            (r#"{"sections":[]}"#, "sections must not be empty"),
            (r#"{"sections":["mystery"]}"#, "unknown section"),
            (r#"{"sizes":[400,100]}"#, "ascending"),
            (r#"{"sizes":[]}"#, "sizes"),
            (r#"{"replicas":0}"#, "replicas"),
            (r#"{"horizon_per_agent":99999}"#, "horizon_per_agent"),
            (r#"{"typo_field":1}"#, "unknown field"),
        ] {
            let doc = Json::parse(body).unwrap();
            let err = ReproduceRequest::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn reproduce_jobs_store_artifacts_byte_identical_to_in_process_runs() {
        // Tiny sweep: the golden-path shapes without quick-preset cost.
        let doc = Json::parse(
            r#"{"kind":"reproduce","sizes":[50,100],"replicas":2,
                "horizon_per_agent":2,"trajectory_capacity":6,"seed":9}"#,
        )
        .unwrap();
        let canonical = job_canonical(&doc).unwrap();
        let request = ReproduceRequest::from_json(&doc).unwrap();
        let store = ResultCache::new(2);
        let never = AtomicBool::new(false);
        let progress = JobProgress::new();
        let result =
            execute_reproduce_observed(&request, &never, &progress, Some(&store)).unwrap();
        // The job result names the artifact and inlines the full report.
        let id = result.get("artifact").unwrap().as_str().unwrap().to_string();
        assert_eq!(id, artifact_id(&canonical));
        assert!(result.get("sections").is_none());
        let report = result.get("report").unwrap();
        assert!(report.get("convergence").is_some());
        // Stored artifacts are byte-identical to an in-process render of
        // the same config — the cross-entry-point determinism contract.
        let direct = popgame_report::run_report(&request.config()).unwrap();
        let stored_json = store.get(&artifact_key(&id, "json")).unwrap();
        assert_eq!(*stored_json, render::report_json(&direct));
        let stored_md = store.get(&artifact_key(&id, "md")).unwrap();
        assert_eq!(*stored_md, render::report_markdown(&direct));
        // Progress saw the whole cell × replica matrix.
        let snap = progress.snapshot();
        assert_eq!(snap.tasks_done, snap.tasks_total);
        assert!(snap.tasks_total > 0);
        // Section filtering keeps the header keys plus the request.
        let doc = Json::parse(
            r#"{"sizes":[50,100],"replicas":2,"horizon_per_agent":2,
                "trajectory_capacity":6,"seed":9,"sections":["time_constants"]}"#,
        )
        .unwrap();
        let filtered_request = ReproduceRequest::from_json(&doc).unwrap();
        let filtered =
            execute_reproduce_observed(&filtered_request, &never, &JobProgress::new(), None)
                .unwrap();
        let report = filtered.get("report").unwrap();
        let keys: Vec<&str> = report
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["paper", "schema_version", "config", "time_constants"]
        );
        // Pre-cancelled reproduce jobs abort without caching.
        let cancelled = AtomicBool::new(true);
        assert_eq!(
            execute_reproduce_observed(&request, &cancelled, &JobProgress::new(), None)
                .unwrap_err(),
            "cancelled"
        );
    }

    #[test]
    fn explicit_game_jobs_round_trip_through_the_canonical_form() {
        // The async path executes the canonical string — it must re-parse
        // through the same validator for every request shape, including
        // solve-by-explicit-game.
        let doc = Json::parse(
            r#"{"kind":"solve","game":{"kind":"symmetric","row":[[0.0,2.0],[1.0,1.0]]}}"#,
        )
        .unwrap();
        let canonical = job_canonical(&doc).unwrap();
        let never = AtomicBool::new(false);
        let via_job = execute(&canonical, &never, &JobProgress::new(), None).unwrap();
        let direct = execute_solve(&SolveRequest::from_json(&doc).unwrap()).unwrap();
        assert_eq!(via_job.encode(), direct.encode());
        // Bimatrix (with col) round-trips too.
        let doc = Json::parse(
            r#"{"kind":"solve","game":{"kind":"bimatrix","row":[[1.0,0.0],[0.0,1.0]],"col":[[1.0,0.0],[0.0,1.0]]}}"#,
        )
        .unwrap();
        let canonical = job_canonical(&doc).unwrap();
        assert!(execute(&canonical, &never, &JobProgress::new(), None).is_ok());
    }
}
