//! The sweep itself: configuration, execution, and the data model the
//! renderers consume.

use popgame_analytics::{
    absorption_stats_ci, cycle_over_replicas, tmix_mean_tv, AbsorptionObservation,
    AbsorptionStats, BootstrapCi, BootstrapConfig, CycleEnsemble, TmixFit,
};
use popgame_dist::divergence::tv_distance;
use popgame_population::trajectory::TrajectoryRecorder;
use popgame_runner::{mean_series, mean_vectors, run_tasks};
use popgame_util::rng::stream_rng;
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule, GameDynamics};
use popgame_solver::game::MatrixGame;
use popgame_solver::nash::symmetric_equilibria;
use popgame_solver::scenarios::{by_name, registry, Scenario};
use popgame_solver::zerosum::solve_zero_sum;
use std::time::Instant;

/// Logit inverse temperatures swept by the η-sweep section.
pub const ETA_SWEEP: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

/// The documented default seed of the reproduction harness — shared by
/// `popgame reproduce` and the daemon's `POST /reproduce` endpoint, so
/// a default-config daemon job and a default in-process run produce the
/// same REPORT bytes.
pub const REPRODUCE_SEED: u64 = 20240717;

/// A live progress sink for the sweep: `begin` is called once with the
/// total `(cell, replica)` task count, then `task_done` once per finished
/// task with the wall-clock nanoseconds that task consumed. Strictly
/// out-of-band — observers wrap the replica runs but never feed them, so
/// observed and unobserved sweeps produce byte-identical reports. The
/// service's per-job progress tracker implements this trait so
/// `GET /jobs/{id}` can show a reproduce job's completion mid-flight.
pub trait SweepObserver: Sync {
    /// The sweep is starting; `total` tasks will run.
    fn begin(&self, total: u64);
    /// One task finished, having kept a worker busy for `busy_ns`.
    fn task_done(&self, busy_ns: u64);
}

/// The scenario the divergence panel runs on: the Shapley-style cycling
/// game, whose unique Nash equilibrium (the uniform mix) repels the
/// replicator while logit revision converges to it.
pub const DIVERGENCE_SCENARIO: &str = "shapley-cycle";

/// Off-equilibrium start profile of the divergence panel: divergence is
/// then a deterministic-scale effect, not a noise-seeded one.
pub const DIVERGENCE_START: [f64; 3] = [0.6, 0.25, 0.15];

/// Everything the harness needs; the report is a pure function of this.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportConfig {
    /// Base RNG seed. Cell seeds and replica streams derive from it
    /// deterministically.
    pub seed: u64,
    /// Population sizes swept, ascending.
    pub sizes: Vec<u64>,
    /// Independent replicas per (scenario, dynamics, n) cell.
    pub replicas: u64,
    /// Interactions per agent: each run executes `horizon_per_agent · n`
    /// interactions.
    pub horizon_per_agent: u64,
    /// Maximum trajectory points retained per run (bounded memory).
    pub trajectory_capacity: usize,
    /// Preset label echoed into the report (`quick`, `full`, `custom`).
    pub mode: String,
}

impl ReportConfig {
    /// The CI preset: small sizes, few replicas, seconds of compute.
    pub fn quick(seed: u64) -> Self {
        ReportConfig {
            seed,
            sizes: vec![100, 400, 1_600],
            replicas: 4,
            horizon_per_agent: 30,
            trajectory_capacity: 32,
            mode: "quick".to_string(),
        }
    }

    /// The full preset: the experiment matrix at paper scale.
    pub fn full(seed: u64) -> Self {
        ReportConfig {
            seed,
            sizes: vec![100, 400, 1_600, 6_400],
            replicas: 16,
            horizon_per_agent: 30,
            trajectory_capacity: 64,
            mode: "full".to_string(),
        }
    }

    /// Validates ranges and ordering.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.sizes.is_empty() {
            return Err("sizes must not be empty".into());
        }
        if self.sizes.iter().any(|&n| n < 2) {
            return Err("every population size must be >= 2".into());
        }
        if !self.sizes.windows(2).all(|w| w[0] < w[1]) {
            return Err("sizes must be strictly ascending".into());
        }
        if self.replicas == 0 {
            return Err("replicas must be >= 1".into());
        }
        if self.horizon_per_agent == 0 {
            return Err("horizon-per-agent must be >= 1".into());
        }
        if self.trajectory_capacity < 2 {
            return Err("trajectory capacity must be >= 2".into());
        }
        Ok(())
    }
}

/// Static facts about one registry scenario: shape and exact equilibria.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Registry name.
    pub name: String,
    /// Strategies per player.
    pub k: usize,
    /// Whether the game is symmetric (`B = Aᵀ`).
    pub symmetric: bool,
    /// Whether the game is zero-sum (`B = −A`).
    pub zero_sum: bool,
    /// One-line description from the registry.
    pub description: String,
    /// Number of enumerated bimatrix equilibria.
    pub equilibria: usize,
    /// Exact symmetric-equilibrium profiles (of the game itself when
    /// symmetric, of the symmetrized companion otherwise).
    pub equilibrium_profiles: Vec<Vec<f64>>,
    /// The LP minimax value for zero-sum scenarios.
    pub minimax_value: Option<f64>,
    /// Whether dynamics run on the symmetrized companion game.
    pub symmetrized: bool,
}

/// One (population size) cell of a convergence row.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceCell {
    /// Population size.
    pub n: u64,
    /// Replica-mean TV distance to the nearest exact equilibrium at the
    /// end of the run.
    pub mean_tv: f64,
    /// Smallest replica TV.
    pub min_tv: f64,
    /// Largest replica TV.
    pub max_tv: f64,
    /// Fraction of replicas that ended in consensus (all agents on one
    /// strategy) — the absorption statistic.
    pub consensus_fraction: f64,
}

/// One scenario-dynamics pair swept across every population size.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceRow {
    /// Scenario name.
    pub scenario: String,
    /// Dynamics label (`best-response`, `logit`, `imitation`).
    pub dynamics: String,
    /// Whether the pair ran on the symmetrized companion game.
    pub symmetrized: bool,
    /// One cell per configured population size, ascending.
    pub cells: Vec<ConvergenceCell>,
    /// Fitted decay exponent `α` in `TV ≈ C·n^{−α}` (least squares on
    /// log-log), when every cell kept a strictly positive distance and at
    /// least two sizes were swept. `None` for absorbing dynamics that
    /// reach a pure equilibrium exactly.
    pub decay_alpha: Option<f64>,
}

impl ConvergenceRow {
    /// Whether the replica-mean distance at the largest size vanished —
    /// the pair is effectively absorbed at an exact equilibrium.
    pub fn absorbed(&self) -> bool {
        self.cells.last().is_some_and(|c| c.mean_tv < 1e-9)
    }
}

/// The mean trajectory of one scenario-dynamics pair at the largest
/// population size: strided interaction clocks with the replica-mean TV
/// distance and replica-mean strategy frequencies at each point.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySeries {
    /// Scenario name.
    pub scenario: String,
    /// Dynamics label.
    pub dynamics: String,
    /// Population size the series was captured at.
    pub n: u64,
    /// Interaction clocks of the retained points (shared by all replicas
    /// — the recorder is deterministic in the leap schedule).
    pub interactions: Vec<u64>,
    /// Replica-mean TV distance to the nearest exact equilibrium per
    /// point.
    pub mean_tv: Vec<f64>,
    /// Replica-mean strategy frequencies per point.
    pub mean_frequencies: Vec<Vec<f64>>,
}

/// One η cell of the logit sweep: final replica-mean/extreme TV at the
/// largest population size.
#[derive(Debug, Clone, PartialEq)]
pub struct EtaSweepCell {
    /// Logit inverse temperature.
    pub eta: f64,
    /// Replica-mean TV to the nearest exact equilibrium.
    pub mean_tv: f64,
    /// Largest replica TV.
    pub max_tv: f64,
}

/// One symmetric scenario swept across [`ETA_SWEEP`] at the largest `n`:
/// the plateau-vs-bias tradeoff of smoothed best response, measured.
#[derive(Debug, Clone, PartialEq)]
pub struct EtaSweepRow {
    /// Scenario name.
    pub scenario: String,
    /// Population size (the largest configured).
    pub n: u64,
    /// One cell per swept η, in [`ETA_SWEEP`] order.
    pub cells: Vec<EtaSweepCell>,
}

/// One dynamics row of the divergence panel: final TV statistics plus the
/// replica-mean TV trajectory from the off-equilibrium start.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceRow {
    /// Dynamics label.
    pub dynamics: String,
    /// Replica-mean TV to the unique Nash mix at the end of the run.
    pub mean_tv: f64,
    /// Smallest replica TV.
    pub min_tv: f64,
    /// Largest replica TV.
    pub max_tv: f64,
    /// Interaction clocks of the retained trajectory points.
    pub interactions: Vec<u64>,
    /// Replica-mean TV per retained point.
    pub trajectory_tv: Vec<f64>,
}

/// The per-dynamic divergence panel on [`DIVERGENCE_SCENARIO`]: from one
/// off-equilibrium start, replicator-family dynamics (pairwise
/// proportional imitation) provably spiral away from the unique Nash
/// equilibrium toward the boundary Shapley triangle, while logit and
/// sample-of-one best response converge to it — measured side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergencePanel {
    /// Scenario name ([`DIVERGENCE_SCENARIO`]).
    pub scenario: String,
    /// Population size (the largest configured).
    pub n: u64,
    /// The shared off-equilibrium start profile.
    pub start: Vec<f64>,
    /// One row per panel dynamic.
    pub rows: Vec<DivergenceRow>,
}

impl DivergencePanel {
    /// The row for a dynamics label, if present.
    pub fn row(&self, dynamics: &str) -> Option<&DivergenceRow> {
        self.rows.iter().find(|r| r.dynamics == dynamics)
    }
}

/// ε used by the report's convergence-time fits: the first interaction
/// clock after which the replica-mean TV distance stays at or below ε.
pub const TMIX_EPSILON: f64 = 0.1;

/// Bootstrap resamples behind every time-constant confidence interval.
pub const TIME_CONSTANT_RESAMPLES: u32 = 200;

/// Two-sided confidence level of the time-constant intervals.
pub const TIME_CONSTANT_CONFIDENCE: f64 = 0.95;

/// Seed salt separating the time-constant bootstrap streams from every
/// simulation stream (convergence, η-sweep, and divergence cells each
/// carry their own salt already).
const TIME_CONSTANT_SALT: u64 = 0x71C0_4574_B007_57A9;

/// Time-constant estimates for one scenario-dynamics pair at the largest
/// population size, fitted from the recorded replica trajectories by
/// `popgame-analytics`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeConstantRow {
    /// Scenario name.
    pub scenario: String,
    /// Dynamics label.
    pub dynamics: String,
    /// Population size the trajectories were captured at.
    pub n: u64,
    /// t_mix([`TMIX_EPSILON`]) fit of the replica-mean TV series:
    /// typed — an already-mixed start or a never-crossing series is
    /// reported as such, never as a fake crossing.
    pub tmix: TmixFit,
    /// Absorption-time statistics of the per-replica first-consensus
    /// clocks, censored at the horizon (resolution limited by the
    /// trajectory recorder's stride).
    pub absorption: AbsorptionStats,
    /// Bootstrap CI on the restricted mean absorption time.
    pub absorption_ci: BootstrapCi,
}

/// Limit-cycle metrology for one divergence-panel dynamic on the
/// shapley-cycle scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRow {
    /// Dynamics label.
    pub dynamics: String,
    /// The ensemble cycle fit, `None` when fewer than half the replicas
    /// oscillate measurably (e.g. imitation rules that hit extinction).
    pub cycle: Option<CycleEnsemble>,
}

/// The time-constants section: per-pair convergence-time and
/// absorption-time estimates plus divergence-panel cycle metrology, all
/// with deterministic bootstrap CIs.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeConstants {
    /// The ε of the t_mix fits ([`TMIX_EPSILON`]).
    pub epsilon: f64,
    /// Bootstrap resamples per interval.
    pub resamples: u32,
    /// Two-sided confidence level of the intervals.
    pub confidence: f64,
    /// One row per convergence pair, same order as `Report::convergence`.
    pub rows: Vec<TimeConstantRow>,
    /// One row per divergence-panel dynamic, panel order.
    pub cycles: Vec<CycleRow>,
}

/// The full report: configuration echo plus every measured section.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The configuration that produced this report.
    pub config: ReportConfig,
    /// Static registry facts and exact equilibria.
    pub scenarios: Vec<ScenarioSummary>,
    /// Convergence tables, one row per swept scenario-dynamics pair.
    pub convergence: Vec<ConvergenceRow>,
    /// Mean trajectories at the largest population size.
    pub trajectories: Vec<TrajectorySeries>,
    /// The logit η-sweep at the largest population size.
    pub eta_sweep: Vec<EtaSweepRow>,
    /// The Shapley-game divergence panel.
    pub divergence: DivergencePanel,
    /// Time-constant estimates (t_mix, absorption, cycles) with CIs.
    pub time_constants: TimeConstants,
}

/// SplitMix64-style mixing for decorrelated per-cell seeds.
fn cell_seed(seed: u64, pair: u64, size: u64) -> u64 {
    let mut z = seed
        .wrapping_add(pair.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(size.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// The dynamics rules swept for a scenario. Symmetric scenarios get every
/// game-payoff rule — sample-of-one best response, logit (η = 2),
/// encounter imitation, pairwise proportional imitation, two-way
/// imitation, and 5-sample best response — and the prisoner's dilemma
/// additionally carries the paper's k-IGT dynamics (its donation game is
/// the k-IGT substrate). Symmetrized companions keep the best-response +
/// logit pair: same-side encounters pay zero, so every imitation flavor
/// freezes and would only record the initial condition.
fn rules_for(scenario_name: &str, symmetric: bool) -> Vec<DynamicsRule> {
    if !symmetric {
        return vec![DynamicsRule::BestResponse, DynamicsRule::Logit { eta: 2.0 }];
    }
    let mut rules = vec![
        DynamicsRule::BestResponse,
        DynamicsRule::Logit { eta: 2.0 },
        DynamicsRule::Imitation,
        DynamicsRule::PairwiseImitation,
        DynamicsRule::TwoWayImitation,
        DynamicsRule::SampledBestResponse { samples: 5 },
    ];
    if scenario_name == "prisoners-dilemma" {
        rules.push(DynamicsRule::KIgt { levels: 5 });
    }
    rules
}

/// The exact equilibrium profiles dynamics are measured against: the
/// scenario's own symmetric equilibria when the game is symmetric, the
/// companion game's otherwise — with a constructive LP fallback for
/// zero-sum games in case support enumeration certifies nothing on a
/// degenerate companion.
fn ground_truth(scenario: &Scenario, game: &MatrixGame) -> Result<Vec<Vec<f64>>, String> {
    let eqs: Vec<Vec<f64>> = symmetric_equilibria(game)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|eq| eq.x)
        .collect();
    if !eqs.is_empty() {
        return Ok(eqs);
    }
    let original = scenario.game();
    if original.is_zero_sum(1e-9) {
        // (p*, q*) optimal for the original game embeds as a symmetric
        // equilibrium of the companion at the payoff-balancing split:
        // with A′ = A − min A + 1 and B′ = B − min B + 1 the two sides'
        // equilibrium payoffs are u_A′ = v + 1 − min A and
        // u_B′ = −v + 1 − min B (both ≥ 1), and mass λ = u_A′/(u_A′+u_B′)
        // on the row side equalizes them.
        let sol = solve_zero_sum(original.row_matrix()).map_err(|e| e.to_string())?;
        let min_a = original
            .row_matrix()
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let min_b = original
            .col_matrix()
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let u_a = sol.value + 1.0 - min_a;
        let u_b = -sol.value + 1.0 - min_b;
        let lambda = u_a / (u_a + u_b);
        let mut x: Vec<f64> = sol.row_strategy.iter().map(|&p| lambda * p).collect();
        x.extend(sol.col_strategy.iter().map(|&q| (1.0 - lambda) * q));
        return Ok(vec![x]);
    }
    Err(format!(
        "no exact symmetric equilibrium available for scenario {}",
        scenario.name()
    ))
}

/// Least-squares slope of `ln tv` on `ln n`, negated: the decay exponent
/// `α` in `TV ≈ C·n^{−α}`. `None` unless at least two cells exist and
/// every distance is strictly positive.
fn fit_decay_alpha(cells: &[ConvergenceCell]) -> Option<f64> {
    if cells.len() < 2 || cells.iter().any(|c| c.mean_tv <= 1e-9) {
        return None;
    }
    let points: Vec<(f64, f64)> = cells
        .iter()
        .map(|c| ((c.n as f64).ln(), c.mean_tv.ln()))
        .collect();
    let m = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = m * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some(-((m * sxy - sx * sy) / denom))
}

/// What one replica hands back to the aggregator.
struct ReplicaOutcome {
    tv: f64,
    consensus: bool,
    /// `(interactions, frequencies, tv)` per retained trajectory point.
    trajectory: Vec<(u64, Vec<f64>, f64)>,
}

/// The harness leap size: `4·√n`, clamped to `[√n, max(√n, n/16)]`.
///
/// The engine's own `suggested_batch` is `√n`; the harness quadruples it
/// to amortize the per-leap fixed costs (the count-coupled kernel refresh,
/// one law evaluation over the dirty cells; the pair and flow weights; the
/// flow-alias rebuild; the draw setup) over more interactions. Work
/// counters cost nothing per leap, and a run that absorbs skips its
/// remaining leaps. The
/// frozen-count idealization stays `O(batch/n) = O(1/√n)` — the same
/// vanishing order as the engine default, with a constant factor of 4 —
/// and the `n/16` clamp keeps small-`n` cells from freezing a
/// non-trivial population fraction in any single leap.
fn harness_batch(n: u64) -> u64 {
    let suggested = ((n as f64).sqrt() as u64).max(1);
    (suggested * 4).min((n / 16).max(suggested))
}

/// One (dynamics, equilibria, start, n) cell of the flattened task space.
///
/// The report is a list of these: every convergence cell, η-sweep cell,
/// and divergence row becomes one spec, and [`run_cells`] sweeps the whole
/// list through a single work-stealing pool so a slow cell (large `n`,
/// wide kernel) never serializes behind the cells scheduled after it.
struct CellSpec {
    dynamics: GameDynamics,
    equilibria: Vec<Vec<f64>>,
    start: Vec<f64>,
    n: u64,
    seed: u64,
    /// Trace-span labels only — never consulted by the run itself.
    scenario: String,
    dynamics_label: String,
}

/// Runs one replica of one cell. Pure in `(spec, replica)`: the RNG is
/// `stream_rng(spec.seed, replica)`, so the outcome is independent of
/// which worker executes it and of execution order — the determinism
/// contract the work-stealing sweep relies on.
fn run_replica(spec: &CellSpec, replica: u64, config: &ReportConfig) -> ReplicaOutcome {
    let mut rng = stream_rng(spec.seed, replica);
    let nearest_tv = |freq: &[f64]| {
        spec.equilibria
            .iter()
            .map(|eq| tv_distance(freq, eq).expect("matching dimensions"))
            .fold(f64::INFINITY, f64::min)
    };
    let mut engine = engine_from_profile(spec.dynamics.clone(), &spec.start, spec.n)
        .expect("probed above");
    let mut recorder =
        TrajectoryRecorder::new(config.trajectory_capacity).expect("capacity validated");
    let horizon = config.horizon_per_agent.saturating_mul(spec.n);
    engine
        .run_recorded(horizon, harness_batch(spec.n), &mut rng, &mut recorder)
        .expect("n >= 2");
    let trajectory = recorder
        .into_points()
        .into_iter()
        .map(|p| {
            let freq = p.frequencies();
            let tv = nearest_tv(&freq);
            (p.interactions, freq, tv)
        })
        .collect();
    ReplicaOutcome {
        tv: nearest_tv(&engine.frequencies()),
        consensus: engine.is_consensus(),
        trajectory,
    }
}

/// Runs every `(cell, replica)` task of the flattened spec list — one
/// global pool across all sections, not one fan-out per cell — and
/// regroups the outcomes per cell, `replicas` entries each.
///
/// Task `t` maps to cell `t / replicas`, replica `t % replicas`, and its
/// RNG is `stream_rng(cell.seed, replica)`: exactly the per-cell
/// `run_replicas` law the harness used before the flattening, so outputs
/// are bitwise-stable across worker counts and against `sequential =
/// true`, which runs the same tasks in a plain index-ordered loop.
fn run_cells(
    cells: &[CellSpec],
    config: &ReportConfig,
    sequential: bool,
    observer: Option<&dyn SweepObserver>,
) -> Result<Vec<Vec<ReplicaOutcome>>, String> {
    // Probe each cell's engine construction once up front so errors
    // surface as messages, not worker panics.
    for spec in cells {
        engine_from_profile(spec.dynamics.clone(), &spec.start, spec.n)
            .map_err(|e| e.to_string())?;
    }
    let replicas = config.replicas;
    let total = (cells.len() as u64) * replicas;
    if let Some(observer) = observer {
        observer.begin(total);
    }
    let run = |t: u64| {
        let spec = &cells[(t / replicas) as usize];
        // The cell span (trace) and the task timing (progress) are
        // out-of-band: they wrap the replica run, never feed it.
        let _cell_span = popgame_obs::trace::is_enabled().then(|| {
            popgame_obs::trace::span(
                popgame_obs::trace::Family::Report,
                &format!("cell:{}/{}@{}", spec.scenario, spec.dynamics_label, spec.n),
            )
        });
        let started = Instant::now();
        let outcome = run_replica(spec, t % replicas, config);
        if let Some(observer) = observer {
            let busy_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            observer.task_done(busy_ns);
        }
        outcome
    };
    let outcomes: Vec<ReplicaOutcome> = if sequential {
        (0..total).map(run).collect()
    } else {
        run_tasks(total, run)
    };
    let mut grouped: Vec<Vec<ReplicaOutcome>> = Vec::with_capacity(cells.len());
    let mut it = outcomes.into_iter();
    for _ in 0..cells.len() {
        grouped.push(it.by_ref().take(replicas as usize).collect());
    }
    Ok(grouped)
}

/// Identity of one convergence row; its cells occupy `sizes.len()`
/// consecutive slots of the flattened spec list.
struct ConvRowMeta {
    scenario: String,
    dynamics: String,
    symmetrized: bool,
}

/// The convergence-matrix plan: scenario summaries, one meta entry per
/// row, and one [`CellSpec`] per (row, size) cell.
type ConvergencePlan = (Vec<ScenarioSummary>, Vec<ConvRowMeta>, Vec<CellSpec>);

/// Builds the scenario summaries plus one [`CellSpec`] per convergence
/// cell, in the exact `(scenario, rule, size)` seed order of the original
/// nested sweep (`cell_seed(config.seed, pair_index, size_index)`).
fn convergence_specs(config: &ReportConfig) -> Result<ConvergencePlan, String> {
    let mut scenarios = Vec::new();
    let mut meta = Vec::new();
    let mut specs = Vec::new();
    let mut pair_index = 0u64;
    for scenario in registry() {
        let original = scenario.game();
        let symmetric = original.is_symmetric(1e-9);
        let zero_sum = original.is_zero_sum(1e-9);
        // Dynamics substrate: the game itself, or its symmetrized
        // companion for asymmetric scenarios.
        let substrate = if symmetric {
            original.clone()
        } else {
            original.symmetrized()
        };
        let equilibria = ground_truth(scenario, &substrate)?;
        scenarios.push(ScenarioSummary {
            name: scenario.name().to_string(),
            k: original.k(),
            symmetric,
            zero_sum,
            description: scenario.description().to_string(),
            equilibria: scenario.equilibria().len(),
            equilibrium_profiles: equilibria.clone(),
            minimax_value: zero_sum
                .then(|| solve_zero_sum(original.row_matrix()).map(|s| s.value))
                .transpose()
                .map_err(|e| e.to_string())?,
            symmetrized: !symmetric,
        });
        for rule in rules_for(scenario.name(), symmetric) {
            let dynamics =
                GameDynamics::new(&substrate, rule).map_err(|e| e.to_string())?;
            // Rules carrying their own exact reference (k-IGT's Theorem
            // 2.7 stationary law) are measured against it; everything
            // else against the scenario's equilibria. Starts follow the
            // same split (uniform vs the k-IGT composition).
            let references = dynamics
                .reference_profiles()
                .unwrap_or_else(|| equilibria.clone());
            let start = dynamics.initial_profile();
            for (size_index, &n) in config.sizes.iter().enumerate() {
                specs.push(CellSpec {
                    dynamics: dynamics.clone(),
                    equilibria: references.clone(),
                    start: start.clone(),
                    n,
                    seed: cell_seed(config.seed, pair_index, size_index as u64),
                    scenario: scenario.name().to_string(),
                    dynamics_label: rule.label().to_string(),
                });
            }
            meta.push(ConvRowMeta {
                scenario: scenario.name().to_string(),
                dynamics: rule.label().to_string(),
                symmetrized: !symmetric,
            });
            pair_index += 1;
        }
    }
    Ok((scenarios, meta, specs))
}

/// Folds the pooled outcomes of the convergence section back into rows
/// and largest-size trajectories.
fn assemble_convergence(
    meta: &[ConvRowMeta],
    outcomes: &[Vec<ReplicaOutcome>],
    config: &ReportConfig,
) -> (Vec<ConvergenceRow>, Vec<TrajectorySeries>) {
    let sizes = config.sizes.len();
    let mut convergence = Vec::with_capacity(meta.len());
    let mut trajectories = Vec::with_capacity(meta.len());
    for (row_index, row_meta) in meta.iter().enumerate() {
        let mut cells = Vec::with_capacity(sizes);
        for (size_index, &n) in config.sizes.iter().enumerate() {
            let outs = &outcomes[row_index * sizes + size_index];
            let tvs: Vec<f64> = outs.iter().map(|o| o.tv).collect();
            let consensus = outs.iter().filter(|o| o.consensus).count();
            cells.push(ConvergenceCell {
                n,
                mean_tv: tvs.iter().sum::<f64>() / tvs.len() as f64,
                min_tv: tvs.iter().copied().fold(f64::INFINITY, f64::min),
                max_tv: tvs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                consensus_fraction: consensus as f64 / outs.len() as f64,
            });
            if size_index + 1 == sizes {
                // Largest size: aggregate the mean trajectory.
                let clocks: Vec<u64> = outs[0].trajectory.iter().map(|p| p.0).collect();
                let tv_series: Vec<Vec<f64>> = outs
                    .iter()
                    .map(|o| o.trajectory.iter().map(|p| p.2).collect())
                    .collect();
                let freq_series: Vec<Vec<Vec<f64>>> = outs
                    .iter()
                    .map(|o| o.trajectory.iter().map(|p| p.1.clone()).collect())
                    .collect();
                trajectories.push(TrajectorySeries {
                    scenario: row_meta.scenario.clone(),
                    dynamics: row_meta.dynamics.clone(),
                    n,
                    interactions: clocks,
                    mean_tv: mean_vectors(&tv_series),
                    mean_frequencies: mean_series(&freq_series),
                });
            }
        }
        let decay_alpha = fit_decay_alpha(&cells);
        convergence.push(ConvergenceRow {
            scenario: row_meta.scenario.clone(),
            dynamics: row_meta.dynamics.clone(),
            symmetrized: row_meta.symmetrized,
            cells,
            decay_alpha,
        });
    }
    (convergence, trajectories)
}

/// The shared report body behind [`run_report`] and
/// [`run_report_sequential`]: build every section's specs, sweep them in
/// ONE flattened `(cell, replica)` task pool, then assemble.
fn run_report_impl(
    config: &ReportConfig,
    sequential: bool,
    observer: Option<&dyn SweepObserver>,
) -> Result<Report, String> {
    config.validate()?;
    use popgame_obs::trace::{self, Family};
    let _report_span = trace::is_enabled()
        .then(|| trace::span(Family::Report, &format!("report:{}", config.mode)));
    let plan_span =
        trace::is_enabled().then(|| trace::span(Family::Report, "report:plan"));
    let (scenarios, conv_meta, mut specs) = convergence_specs(config)?;
    let conv_end = specs.len();
    let (eta_meta, eta_specs) = eta_sweep_specs(config)?;
    specs.extend(eta_specs);
    let eta_end = specs.len();
    specs.extend(divergence_specs(config)?);
    drop(plan_span);

    let sweep_span =
        trace::is_enabled().then(|| trace::span(Family::Report, "report:sweep"));
    let outcomes = run_cells(&specs, config, sequential, observer)?;
    drop(sweep_span);

    let _assemble_span =
        trace::is_enabled().then(|| trace::span(Family::Report, "report:assemble"));
    let (convergence, trajectories) =
        assemble_convergence(&conv_meta, &outcomes[..conv_end], config);
    let time_constants = assemble_time_constants(
        &conv_meta,
        &outcomes[..conv_end],
        &outcomes[eta_end..],
        config,
    )?;
    Ok(Report {
        config: config.clone(),
        scenarios,
        convergence,
        trajectories,
        eta_sweep: assemble_eta_sweep(&eta_meta, &outcomes[conv_end..eta_end]),
        divergence: assemble_divergence(&outcomes[eta_end..], config),
        time_constants,
    })
}

/// Runs the full experiment matrix and assembles the report.
///
/// Deterministic: equal configs yield equal reports (and byte-identical
/// renderings). Every `(cell, replica)` task of every section — the
/// convergence matrix, the η-sweep, the divergence panel — goes through
/// one work-stealing pool per the runner's determinism contract, so
/// wall-clock depends on the machine but results never do:
/// [`run_report_sequential`] returns the identical report.
///
/// # Errors
///
/// A human-readable message on invalid configuration or when a scenario
/// has no exact equilibrium to measure against (cannot happen for the
/// shipped registry).
pub fn run_report(config: &ReportConfig) -> Result<Report, String> {
    run_report_impl(config, false, None)
}

/// [`run_report`] with a live [`SweepObserver`]: `begin` fires with the
/// flattened task count, `task_done` once per finished `(cell, replica)`
/// task. The observer is strictly out-of-band — the returned report (and
/// its rendered bytes) is identical to a plain [`run_report`] of the same
/// config.
///
/// # Errors
///
/// As for [`run_report`].
pub fn run_report_observed(
    config: &ReportConfig,
    observer: &dyn SweepObserver,
) -> Result<Report, String> {
    run_report_impl(config, false, Some(observer))
}

/// Single-threaded reference path: the same flattened task list as
/// [`run_report`], executed in a plain index-ordered loop with no pool.
/// Exists so the work-stealing sweep has a bitwise-equality oracle (and
/// as a fallback on machines where spawning threads is undesirable).
///
/// # Errors
///
/// As for [`run_report`].
pub fn run_report_sequential(config: &ReportConfig) -> Result<Report, String> {
    run_report_impl(config, true, None)
}

/// The η-sweep plan: one `(scenario, n)` meta entry per row, each owning
/// `ETA_SWEEP.len()` consecutive specs.
type EtaSweepPlan = (Vec<(String, u64)>, Vec<CellSpec>);

/// Builds the η-sweep specs: one per (symmetric scenario, η) at the
/// largest configured size, seeded under the sweep's own salt so the
/// section is measured independently of the convergence matrix.
fn eta_sweep_specs(config: &ReportConfig) -> Result<EtaSweepPlan, String> {
    let n = *config.sizes.last().expect("validated non-empty");
    let mut meta = Vec::new();
    let mut specs = Vec::new();
    for (row_index, scenario) in registry().iter().enumerate() {
        if !scenario.game().is_symmetric(1e-9) {
            continue;
        }
        let equilibria: Vec<Vec<f64>> = scenario
            .symmetric_equilibria()
            .into_iter()
            .map(|eq| eq.x)
            .collect();
        if equilibria.is_empty() {
            return Err(format!("{} has no symmetric equilibrium", scenario.name()));
        }
        for (eta_index, &eta) in ETA_SWEEP.iter().enumerate() {
            let dynamics = GameDynamics::new(scenario.game(), DynamicsRule::Logit { eta })
                .map_err(|e| e.to_string())?;
            let start = dynamics.initial_profile();
            specs.push(CellSpec {
                dynamics,
                equilibria: equilibria.clone(),
                start,
                n,
                seed: cell_seed(
                    config.seed ^ 0x0E7A_5EED_0E7A_5EED,
                    row_index as u64,
                    eta_index as u64,
                ),
                scenario: scenario.name().to_string(),
                dynamics_label: format!("logit eta={eta}"),
            });
        }
        meta.push((scenario.name().to_string(), n));
    }
    Ok((meta, specs))
}

/// Folds pooled η-sweep outcomes back into rows, [`ETA_SWEEP`] order.
fn assemble_eta_sweep(
    meta: &[(String, u64)],
    outcomes: &[Vec<ReplicaOutcome>],
) -> Vec<EtaSweepRow> {
    meta.iter()
        .enumerate()
        .map(|(row_index, (scenario, n))| EtaSweepRow {
            scenario: scenario.clone(),
            n: *n,
            cells: ETA_SWEEP
                .iter()
                .enumerate()
                .map(|(eta_index, &eta)| {
                    let outs = &outcomes[row_index * ETA_SWEEP.len() + eta_index];
                    let tvs: Vec<f64> = outs.iter().map(|o| o.tv).collect();
                    EtaSweepCell {
                        eta,
                        mean_tv: tvs.iter().sum::<f64>() / tvs.len() as f64,
                        max_tv: tvs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    }
                })
                .collect(),
        })
        .collect()
}

/// The logit η-sweep: every symmetric registry scenario at the largest
/// configured population size, across [`ETA_SWEEP`]. Seeds are salted
/// apart from the convergence matrix, so the sections are independent
/// measurements.
///
/// # Errors
///
/// A human-readable message on invalid configuration or a scenario
/// without a symmetric equilibrium.
pub fn run_eta_sweep(config: &ReportConfig) -> Result<Vec<EtaSweepRow>, String> {
    config.validate()?;
    let (meta, specs) = eta_sweep_specs(config)?;
    let outcomes = run_cells(&specs, config, false, None)?;
    Ok(assemble_eta_sweep(&meta, &outcomes))
}

/// The dynamics compared by the divergence panel, cycling family first.
fn divergence_rules() -> Vec<DynamicsRule> {
    vec![
        DynamicsRule::PairwiseImitation,
        DynamicsRule::Imitation,
        DynamicsRule::TwoWayImitation,
        DynamicsRule::BestResponse,
        DynamicsRule::SampledBestResponse { samples: 5 },
        DynamicsRule::Logit { eta: 2.0 },
    ]
}

/// The Shapley-game divergence panel: every panel dynamic from one
/// off-equilibrium start at the largest configured size, measured against
/// the game's unique Nash mix. Pairwise proportional imitation
/// (replicator-exact) provably spirals outward on this game
/// (Gaunersdorfer–Hofbauer), logit and sample-of-one best response
/// provably contract — the panel renders the split, the harness tests
/// assert it.
pub fn run_divergence_panel(config: &ReportConfig) -> Result<DivergencePanel, String> {
    config.validate()?;
    let specs = divergence_specs(config)?;
    let outcomes = run_cells(&specs, config, false, None)?;
    Ok(assemble_divergence(&outcomes, config))
}

/// Builds the divergence-panel specs: one per panel dynamic from the
/// shared off-equilibrium start, under the panel's own seed salt.
fn divergence_specs(config: &ReportConfig) -> Result<Vec<CellSpec>, String> {
    let n = *config.sizes.last().expect("validated non-empty");
    let scenario = by_name(DIVERGENCE_SCENARIO).map_err(|e| e.to_string())?;
    let equilibria: Vec<Vec<f64>> = scenario
        .symmetric_equilibria()
        .into_iter()
        .map(|eq| eq.x)
        .collect();
    if equilibria.len() != 1 {
        return Err(format!(
            "{DIVERGENCE_SCENARIO} must have its unique Nash mix, got {}",
            equilibria.len()
        ));
    }
    divergence_rules()
        .into_iter()
        .enumerate()
        .map(|(rule_index, rule)| {
            let dynamics =
                GameDynamics::new(scenario.game(), rule).map_err(|e| e.to_string())?;
            Ok(CellSpec {
                dynamics,
                equilibria: equilibria.clone(),
                start: DIVERGENCE_START.to_vec(),
                n,
                seed: cell_seed(config.seed ^ 0xD17E_26E5_0000_0001, rule_index as u64, 0),
                scenario: DIVERGENCE_SCENARIO.to_string(),
                dynamics_label: rule.label().to_string(),
            })
        })
        .collect()
}

/// One bootstrap configuration of the time-constants section; `stream`
/// decorrelates the t_mix, absorption, and cycle resampling streams.
fn time_constant_boot(config: &ReportConfig, index: u64, stream: u64) -> BootstrapConfig {
    BootstrapConfig {
        resamples: TIME_CONSTANT_RESAMPLES,
        confidence: TIME_CONSTANT_CONFIDENCE,
        seed: cell_seed(config.seed ^ TIME_CONSTANT_SALT, index, stream),
    }
}

/// Fits the time-constants section from the already-swept outcomes — no
/// new simulation, only estimator passes over the recorded trajectories.
/// Convergence pairs contribute t_mix and absorption fits at the largest
/// size; the divergence panel contributes limit-cycle metrology.
fn assemble_time_constants(
    conv_meta: &[ConvRowMeta],
    conv_outcomes: &[Vec<ReplicaOutcome>],
    div_outcomes: &[Vec<ReplicaOutcome>],
    config: &ReportConfig,
) -> Result<TimeConstants, String> {
    let sizes = config.sizes.len();
    let n = *config.sizes.last().expect("validated non-empty");
    let horizon = config.horizon_per_agent.saturating_mul(n);
    let mut rows = Vec::with_capacity(conv_meta.len());
    for (row_index, row_meta) in conv_meta.iter().enumerate() {
        let outs = &conv_outcomes[row_index * sizes + (sizes - 1)];
        let clocks: Vec<u64> = outs[0].trajectory.iter().map(|p| p.0).collect();
        let tv_series: Vec<Vec<f64>> = outs
            .iter()
            .map(|o| o.trajectory.iter().map(|p| p.2).collect())
            .collect();
        let tmix = tmix_mean_tv(
            &clocks,
            &tv_series,
            TMIX_EPSILON,
            &time_constant_boot(config, row_index as u64, 0),
        )
        .map_err(|e| e.to_string())?;
        // First recorded consensus point per replica (a consensus count
        // makes one frequency exactly 1.0 — n/n is exact in f64), censored
        // at the horizon when the replica never absorbs.
        let observations: Vec<AbsorptionObservation> = outs
            .iter()
            .map(|o| {
                o.trajectory
                    .iter()
                    .find(|p| p.1.contains(&1.0))
                    .map_or(
                        AbsorptionObservation { time: horizon as f64, absorbed: false },
                        |p| AbsorptionObservation { time: p.0 as f64, absorbed: true },
                    )
            })
            .collect();
        let (absorption, absorption_ci) = absorption_stats_ci(
            &observations,
            horizon as f64,
            &time_constant_boot(config, row_index as u64, 1),
        )
        .map_err(|e| e.to_string())?;
        rows.push(TimeConstantRow {
            scenario: row_meta.scenario.clone(),
            dynamics: row_meta.dynamics.clone(),
            n,
            tmix,
            absorption,
            absorption_ci,
        });
    }
    let cycles = divergence_rules()
        .into_iter()
        .zip(div_outcomes)
        .enumerate()
        .map(|(rule_index, (rule, outs))| {
            let clocks: Vec<u64> = outs[0].trajectory.iter().map(|p| p.0).collect();
            let freq0: Vec<Vec<f64>> = outs
                .iter()
                .map(|o| o.trajectory.iter().map(|p| p.1[0]).collect())
                .collect();
            let cycle = cycle_over_replicas(
                &clocks,
                &freq0,
                &time_constant_boot(config, rule_index as u64, 2),
            )
            .map_err(|e| e.to_string())?;
            Ok(CycleRow { dynamics: rule.label().to_string(), cycle })
        })
        .collect::<Result<Vec<CycleRow>, String>>()?;
    Ok(TimeConstants {
        epsilon: TMIX_EPSILON,
        resamples: TIME_CONSTANT_RESAMPLES,
        confidence: TIME_CONSTANT_CONFIDENCE,
        rows,
        cycles,
    })
}

/// Folds pooled divergence outcomes back into the panel, rule order.
fn assemble_divergence(
    outcomes: &[Vec<ReplicaOutcome>],
    config: &ReportConfig,
) -> DivergencePanel {
    let n = *config.sizes.last().expect("validated non-empty");
    let rows = divergence_rules()
        .into_iter()
        .zip(outcomes)
        .map(|(rule, outs)| {
            let tvs: Vec<f64> = outs.iter().map(|o| o.tv).collect();
            let clocks: Vec<u64> = outs[0].trajectory.iter().map(|p| p.0).collect();
            let tv_series: Vec<Vec<f64>> = outs
                .iter()
                .map(|o| o.trajectory.iter().map(|p| p.2).collect())
                .collect();
            DivergenceRow {
                dynamics: rule.label().to_string(),
                mean_tv: tvs.iter().sum::<f64>() / tvs.len() as f64,
                min_tv: tvs.iter().copied().fold(f64::INFINITY, f64::min),
                max_tv: tvs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                interactions: clocks,
                trajectory_tv: mean_vectors(&tv_series),
            }
        })
        .collect();
    DivergencePanel {
        scenario: DIVERGENCE_SCENARIO.to_string(),
        n,
        start: DIVERGENCE_START.to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReportConfig {
        ReportConfig {
            seed: 11,
            sizes: vec![50, 150],
            replicas: 2,
            horizon_per_agent: 10,
            trajectory_capacity: 8,
            mode: "custom".to_string(),
        }
    }

    #[test]
    fn config_validation_names_the_offender() {
        let mut c = tiny();
        c.sizes.clear();
        assert!(c.validate().unwrap_err().contains("sizes"));
        let mut c = tiny();
        c.sizes = vec![150, 50];
        assert!(c.validate().unwrap_err().contains("ascending"));
        let mut c = tiny();
        c.sizes = vec![1, 50];
        assert!(c.validate().unwrap_err().contains(">= 2"));
        let mut c = tiny();
        c.replicas = 0;
        assert!(c.validate().unwrap_err().contains("replicas"));
        let mut c = tiny();
        c.horizon_per_agent = 0;
        assert!(c.validate().unwrap_err().contains("horizon"));
        let mut c = tiny();
        c.trajectory_capacity = 1;
        assert!(c.validate().unwrap_err().contains("trajectory"));
        assert!(tiny().validate().is_ok());
        assert!(ReportConfig::quick(1).validate().is_ok());
        assert!(ReportConfig::full(1).validate().is_ok());
    }

    #[test]
    fn report_covers_every_registry_scenario_under_two_dynamics() {
        let report = run_report(&tiny()).unwrap();
        for scenario in registry() {
            let dynamics: Vec<&str> = report
                .convergence
                .iter()
                .filter(|row| row.scenario == scenario.name())
                .map(|row| row.dynamics.as_str())
                .collect();
            assert!(
                dynamics.len() >= 2,
                "{} covered by {:?}",
                scenario.name(),
                dynamics
            );
            // Symmetric scenarios carry the full six-rule battery.
            if scenario.game().is_symmetric(1e-9) {
                for label in [
                    "best-response",
                    "logit",
                    "imitation",
                    "pairwise-imitation",
                    "imitation-two-way",
                    "br-sample",
                ] {
                    assert!(
                        dynamics.contains(&label),
                        "{} missing {label}: {dynamics:?}",
                        scenario.name()
                    );
                }
            }
        }
        // The paper's own dynamics rides its donation-game scenario.
        assert!(
            report
                .convergence
                .iter()
                .any(|row| row.scenario == "prisoners-dilemma" && row.dynamics == "k-igt"),
            "k-igt must be a first-class scenario dynamic"
        );
        // η-sweep: one row per symmetric scenario, one cell per swept η.
        let symmetric_count = registry()
            .iter()
            .filter(|s| s.game().is_symmetric(1e-9))
            .count();
        assert_eq!(report.eta_sweep.len(), symmetric_count);
        for row in &report.eta_sweep {
            assert_eq!(row.n, 150);
            let etas: Vec<f64> = row.cells.iter().map(|c| c.eta).collect();
            assert_eq!(etas, ETA_SWEEP.to_vec());
            for cell in &row.cells {
                assert!((0.0..=1.0).contains(&cell.mean_tv));
                assert!(cell.mean_tv <= cell.max_tv + 1e-12);
            }
        }
        // Divergence panel: every panel dynamic measured on shapley-cycle.
        assert_eq!(report.divergence.scenario, DIVERGENCE_SCENARIO);
        assert_eq!(report.divergence.n, 150);
        assert_eq!(report.divergence.rows.len(), 6);
        for row in &report.divergence.rows {
            assert_eq!(row.interactions.len(), row.trajectory_tv.len());
            assert!(row.interactions.len() >= 2);
            assert!(row.min_tv <= row.mean_tv && row.mean_tv <= row.max_tv);
        }
        // Every cell carries a well-formed distance and every row spans
        // the configured sizes.
        for row in &report.convergence {
            assert_eq!(row.cells.len(), 2, "{}/{}", row.scenario, row.dynamics);
            for cell in &row.cells {
                assert!(
                    (0.0..=1.0).contains(&cell.mean_tv),
                    "{}/{}: {}",
                    row.scenario,
                    row.dynamics,
                    cell.mean_tv
                );
                assert!(cell.min_tv <= cell.mean_tv && cell.mean_tv <= cell.max_tv);
                assert!((0.0..=1.0).contains(&cell.consensus_fraction));
            }
        }
        // One trajectory per pair, at the largest size, non-empty.
        assert_eq!(report.trajectories.len(), report.convergence.len());
        for t in &report.trajectories {
            assert_eq!(t.n, 150);
            assert!(t.interactions.len() >= 2);
            assert_eq!(t.interactions.len(), t.mean_tv.len());
            assert_eq!(t.interactions.len(), t.mean_frequencies.len());
            assert_eq!(*t.interactions.last().unwrap(), 10 * 150);
        }
    }

    #[test]
    fn time_constants_cover_every_pair_and_are_well_formed() {
        let config = tiny();
        let report = run_report(&config).unwrap();
        let tc = &report.time_constants;
        assert_eq!(tc.epsilon, TMIX_EPSILON);
        assert_eq!(tc.resamples, TIME_CONSTANT_RESAMPLES);
        assert_eq!(tc.confidence, TIME_CONSTANT_CONFIDENCE);
        // One row per convergence pair, same order; one cycle row per
        // divergence dynamic, panel order.
        assert_eq!(tc.rows.len(), report.convergence.len());
        assert_eq!(tc.cycles.len(), report.divergence.rows.len());
        let n = *config.sizes.last().unwrap();
        let horizon = (config.horizon_per_agent * n) as f64;
        for (row, conv) in tc.rows.iter().zip(&report.convergence) {
            assert_eq!((row.scenario.as_str(), row.dynamics.as_str()),
                (conv.scenario.as_str(), conv.dynamics.as_str()));
            assert_eq!(row.n, n);
            // A typed fit: a crossing carries an ordered CI inside the
            // horizon, the other kinds carry no fake numbers.
            if let TmixFit::Mixed(est) = &row.tmix {
                assert!(est.lo <= est.point && est.point <= est.hi);
                assert!(est.point >= 0.0 && est.point <= horizon);
                assert!(est.crossed_resamples <= est.resamples);
            }
            // Absorption statistics: every replica observed, CI brackets
            // the restricted mean, and the absorbed fraction dominates
            // the final-state consensus fraction (final consensus is
            // always a recorded trajectory point).
            assert_eq!(row.absorption.replicas as u64, config.replicas);
            assert!(row.absorption.mean_restricted <= horizon);
            assert!(
                row.absorption_ci.lo <= row.absorption.mean_restricted
                    && row.absorption.mean_restricted <= row.absorption_ci.hi
            );
            let consensus = conv.cells.last().unwrap().consensus_fraction;
            assert!(
                row.absorption.absorbed_fraction >= consensus,
                "{}/{}: absorbed {} < consensus {}",
                row.scenario,
                row.dynamics,
                row.absorption.absorbed_fraction,
                consensus
            );
        }
        for (cycle, div) in tc.cycles.iter().zip(&report.divergence.rows) {
            assert_eq!(cycle.dynamics, div.dynamics);
            if let Some(c) = &cycle.cycle {
                assert!(c.period > 0.0 && c.amplitude > 0.0);
                assert!(c.period_lo <= c.period && c.period <= c.period_hi);
                assert!(c.detected * 2 >= c.replicas);
            }
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_report(&tiny()).unwrap();
        let b = run_report(&tiny()).unwrap();
        assert_eq!(a, b);
        // Different seeds genuinely change the measurements.
        let mut other = tiny();
        other.seed = 12;
        let c = run_report(&other).unwrap();
        assert_ne!(a.convergence, c.convergence);
    }

    #[test]
    fn asymmetric_scenarios_ride_the_symmetrized_companion() {
        let report = run_report(&tiny()).unwrap();
        for name in ["matching-pennies", "random-zero-sum"] {
            let summary = report.scenarios.iter().find(|s| s.name == name).unwrap();
            assert!(summary.symmetrized && summary.zero_sum);
            assert!(!summary.equilibrium_profiles.is_empty(), "{name}");
            // Companion profiles live on the doubled strategy space.
            for profile in &summary.equilibrium_profiles {
                assert_eq!(profile.len(), 2 * summary.k);
                assert!((profile.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            assert!(summary.minimax_value.is_some());
        }
        // Symmetric scenarios are measured against their own equilibria.
        let hd = report
            .scenarios
            .iter()
            .find(|s| s.name == "hawk-dove")
            .unwrap();
        assert!(!hd.symmetrized);
        assert!(hd
            .equilibrium_profiles
            .iter()
            .any(|p| (p[0] - 0.5).abs() < 1e-9));
    }

    #[test]
    fn divergence_panel_splits_replicator_from_logit() {
        // The acceptance claim, asserted numerically rather than merely
        // rendered: on the Shapley-style cycling game, from the shared
        // off-equilibrium start, pairwise proportional imitation
        // (replicator-exact) moves AWAY from the unique Nash mix while
        // logit revision converges to it.
        let config = ReportConfig {
            seed: 20240717,
            sizes: vec![2_000],
            replicas: 4,
            horizon_per_agent: 30,
            trajectory_capacity: 16,
            mode: "custom".to_string(),
        };
        let panel = run_divergence_panel(&config).unwrap();
        let start_tv = 0.6 - 1.0 / 3.0 + (1.0 / 3.0 - 0.25) + (1.0 / 3.0 - 0.15);
        let start_tv = start_tv / 2.0; // ≈ 0.267
        let replicator = panel.row("pairwise-imitation").unwrap();
        let logit = panel.row("logit").unwrap();
        // Replicator: repelled past its starting distance, toward the
        // boundary Shapley triangle (Gaunersdorfer–Hofbauer).
        assert!(
            replicator.mean_tv > start_tv,
            "replicator must diverge: {} vs start {start_tv}",
            replicator.mean_tv
        );
        assert!(replicator.mean_tv > 0.30, "{}", replicator.mean_tv);
        // Logit: contracted to a small neighbourhood of the Nash mix.
        assert!(logit.mean_tv < 0.08, "{}", logit.mean_tv);
        // And the split itself is wide.
        assert!(
            replicator.mean_tv > 3.0 * logit.mean_tv,
            "replicator {} vs logit {}",
            replicator.mean_tv,
            logit.mean_tv
        );
        // Sample-of-one best response mixes to the cycle's barycenter —
        // which on this game IS the Nash mix: convergent.
        let br = panel.row("best-response").unwrap();
        assert!(br.mean_tv < 0.08, "{}", br.mean_tv);
    }

    #[test]
    fn pooled_output_is_bitwise_identical_to_sequential_across_worker_counts() {
        // The scheduler's determinism contract: outcomes are keyed by
        // task index and each replica's rng stream is a pure function of
        // (cell seed, replica), so neither the pool's interleaving nor
        // the worker count may leak into the output — down to the
        // rendered bytes.
        let baseline = run_report_sequential(&tiny()).unwrap();
        let baseline_json = crate::render::report_json(&baseline);
        let baseline_md = crate::render::report_markdown(&baseline);
        for workers in [Some(1), Some(2), None] {
            popgame_runner::set_worker_threads(workers);
            let pooled = run_report(&tiny()).unwrap();
            assert_eq!(pooled, baseline, "workers={workers:?}");
            assert_eq!(
                crate::render::report_json(&pooled),
                baseline_json,
                "workers={workers:?}"
            );
            assert_eq!(
                crate::render::report_markdown(&pooled),
                baseline_md,
                "workers={workers:?}"
            );
        }
        popgame_runner::set_worker_threads(None);
    }

    #[test]
    fn eta_sweep_and_divergence_panel_are_pool_deterministic() {
        // The standalone sweep entry points share `run_cells` with the
        // full report; pin their pooled runs against repeat pooled runs
        // under different worker counts.
        let mut config = tiny();
        config.sizes = vec![60];
        popgame_runner::set_worker_threads(Some(2));
        let sweep_a = run_eta_sweep(&config).unwrap();
        let panel_a = run_divergence_panel(&config).unwrap();
        popgame_runner::set_worker_threads(Some(1));
        let sweep_b = run_eta_sweep(&config).unwrap();
        let panel_b = run_divergence_panel(&config).unwrap();
        popgame_runner::set_worker_threads(None);
        assert_eq!(sweep_a, sweep_b);
        assert_eq!(panel_a, panel_b);
    }

    #[test]
    fn decay_fit_recovers_a_planted_exponent() {
        let cells: Vec<ConvergenceCell> = [(100u64, 0.1f64), (400, 0.05), (1_600, 0.025)]
            .iter()
            .map(|&(n, tv)| ConvergenceCell {
                n,
                mean_tv: tv,
                min_tv: tv,
                max_tv: tv,
                consensus_fraction: 0.0,
            })
            .collect();
        // tv halves per 4x in n: alpha = 1/2 exactly.
        let alpha = fit_decay_alpha(&cells).unwrap();
        assert!((alpha - 0.5).abs() < 1e-9, "{alpha}");
        // Absorbed rows (zero distance) carry no fit.
        let absorbed = vec![
            ConvergenceCell {
                n: 100,
                mean_tv: 0.0,
                min_tv: 0.0,
                max_tv: 0.0,
                consensus_fraction: 1.0,
            },
            ConvergenceCell {
                n: 400,
                mean_tv: 0.0,
                min_tv: 0.0,
                max_tv: 0.0,
                consensus_fraction: 1.0,
            },
        ];
        assert!(fit_decay_alpha(&absorbed).is_none());
        assert!(fit_decay_alpha(&cells[..1]).is_none());
    }
}
