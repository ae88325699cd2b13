//! `engine-scale`: one operation is a single-threaded round at
//! n = `MAX_N` (10⁷), 30 interactions per agent, for each of five
//! dynamics, each built with `engine_from_profile` and driven by
//! `BatchedEngine::run_batched`.
//!
//! Every round uses the same per-dynamics seeds, so its final counts must
//! equal the first round's. A run must not reach consensus, and its
//! distance to the dynamics' reference profile must stay within the
//! stated tolerance. A failed check voids the round's goodput.

use crate::stats::{self, median, ms, nearest_tv, Counters};
use crate::{Args, Outcome, SCALE_DYNAMICS};
use popgame_obs::trace;
use popgame_service::api::MAX_N;
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule, GameDynamics};
use popgame_solver::scenarios::by_name;
use popgame_util::rng::{derive_seed, stream_rng};
use std::time::{Duration, Instant};

/// Interactions per agent in a timed run.
const PER_AGENT: u64 = 30;

/// Interactions per agent in a set-up warm pass.
const WARM_PER_AGENT: u64 = 3;

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The largest total variation distance to the nearest reference profile
/// accepted after `PER_AGENT` interactions per agent at n = 10⁷. Every
/// case measures below 2·10⁻⁴ at this commit, so the bound is ~50× the
/// sampling noise and only a wrong law or a stuck run exceeds it.
const TV_TOLERANCE: f64 = 0.01;

/// The round: (scenario, rule), in `SCALE_DYNAMICS` order.
fn cases() -> [(&'static str, DynamicsRule); 5] {
    [
        ("hawk-dove", DynamicsRule::BestResponse),
        ("rock-paper-scissors", DynamicsRule::Logit { eta: 2.0 }),
        ("hawk-dove", DynamicsRule::PairwiseImitation),
        (
            "shapley-cycle",
            DynamicsRule::SampledBestResponse { samples: 5 },
        ),
        ("prisoners-dilemma", DynamicsRule::KIgt { levels: 5 }),
    ]
}

/// A case with its protocol, start profile and references resolved.
struct Prepared {
    dynamics: GameDynamics,
    start: Vec<f64>,
    references: Vec<Vec<f64>>,
}

fn prepare(&(scenario, rule): &(&str, DynamicsRule)) -> Result<Prepared, String> {
    let scenario = by_name(scenario).map_err(|e| e.to_string())?;
    let dynamics = scenario.dynamics(rule).map_err(|e| e.to_string())?;
    let references = dynamics.reference_profiles().unwrap_or_else(|| {
        scenario
            .symmetric_equilibria()
            .into_iter()
            .map(|eq| eq.x)
            .collect()
    });
    Ok(Prepared {
        start: dynamics.initial_profile(),
        dynamics,
        references,
    })
}

/// What one dynamics run did.
struct CaseRun {
    counts: Vec<u64>,
    tv: f64,
    consensus: bool,
    interactions: u64,
    construct: Duration,
    busy: Duration,
    counters: Counters,
}

fn run_case(case: &Prepared, seed: u64, per_agent: u64) -> Result<CaseRun, String> {
    let before = Counters::read();
    let started = Instant::now();
    let mut engine = engine_from_profile(case.dynamics.clone(), &case.start, MAX_N)
        .map_err(|e| e.to_string())?;
    let built = Instant::now();
    let batch = engine.suggested_batch();
    let mut rng = stream_rng(seed, 0);
    engine
        .run_batched(per_agent * MAX_N, batch, &mut rng)
        .map_err(|e| e.to_string())?;
    let done = Instant::now();
    Ok(CaseRun {
        counts: engine.counts().to_vec(),
        tv: nearest_tv(&engine.frequencies(), &case.references),
        consensus: engine.is_consensus(),
        interactions: engine.interactions(),
        construct: built - started,
        busy: done - built,
        counters: Counters::read().since(&before),
    })
}

/// Per-dynamics samples from the traced rounds.
#[derive(Default)]
struct Layers {
    busy_ms: Vec<Vec<f64>>,
    ns_per_interaction: Vec<Vec<f64>>,
    per_leap: Vec<Vec<f64>>,
    construct_ms: Vec<f64>,
    unattributed_ms: Vec<f64>,
    counters: Vec<Counters>,
}

impl Layers {
    fn add(&mut self, runs: &[CaseRun], round_ms: f64, counters: Counters) {
        let construct: f64 = runs.iter().map(|r| ms(r.construct)).sum();
        let busy: f64 = runs.iter().map(|r| ms(r.busy)).sum();
        self.construct_ms.push(construct);
        self.unattributed_ms.push(round_ms - construct - busy);
        self.counters.push(counters);
        self.busy_ms.resize(runs.len(), Vec::new());
        self.ns_per_interaction.resize(runs.len(), Vec::new());
        self.per_leap.resize(runs.len(), Vec::new());
        for (index, run) in runs.iter().enumerate() {
            self.busy_ms[index].push(ms(run.busy));
            self.ns_per_interaction[index]
                .push(run.busy.as_nanos() as f64 / run.interactions as f64);
            self.per_leap[index].push(run.interactions as f64 / run.counters.leaps.max(1) as f64);
        }
    }

    fn report(&self, out: &mut Outcome) {
        for (index, label) in SCALE_DYNAMICS.iter().enumerate() {
            let column = |v: &[Vec<f64>]| v.get(index).map_or(0.0, |s| median(s));
            out.set(&format!("engine.busy_ms.{label}"), column(&self.busy_ms));
            out.set(
                &format!("engine.ns_per_interaction.{label}"),
                column(&self.ns_per_interaction),
            );
            out.set(
                &format!("engine.interactions_per_leap.{label}"),
                column(&self.per_leap),
            );
        }
        out.set("engine.construct_ms", median(&self.construct_ms));
        out.set("unattributed_ms", median(&self.unattributed_ms));
        // Equal seeds do equal engine work: every round's counts agree.
        if let Some(first) = self.counters.first() {
            first.report(out, 1.0);
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note(format!(
        "workload: {{\"reason\": \"single-threaded sampling cost at the service's largest n\", \
         \"threads\": 1, \"nproc\": {}, \"n\": {MAX_N}, \"interactions_per_agent\": {PER_AGENT}, \
         \"dynamics\": {:?}, \"seed\": {}}}",
        stats::nproc(),
        SCALE_DYNAMICS,
        args.seed
    ));
    let seeds: Vec<u64> = (0..SCALE_DYNAMICS.len() as u64)
        .map(|i| derive_seed(args.seed, i))
        .collect();

    // Set-up: resolve the five protocols, build their engines and run a
    // short warm pass through each. The warm pass uses fixed seeds, so
    // every run sets up the same work.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::with_capacity(reps);
    let mut prepared = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        prepared = cases().iter().map(prepare).collect::<Result<Vec<_>, _>>()?;
        for (index, case) in prepared.iter().enumerate() {
            run_case(case, derive_seed(0, index as u64), WARM_PER_AGENT)?;
        }
        setup.push(started.elapsed().as_secs_f64());
    }

    let mut reference: Vec<Option<Vec<u64>>> = vec![None; prepared.len()];
    // The traced run alternates untraced and traced rounds, so host load
    // drifts hit both halves of the overhead figure alike.
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut layers = Layers::default();
    let mut good_interactions = 0u64;
    let started = Instant::now();
    while started.elapsed() < args.window {
        let traced = args.trace && rounds.len() > traced_rounds.len();
        if traced {
            trace::enable();
        }
        let before = Counters::read();
        let round_started = Instant::now();
        let runs = prepared
            .iter()
            .zip(&seeds)
            .map(|(case, &seed)| run_case(case, seed, PER_AGENT))
            .collect::<Result<Vec<_>, _>>()?;
        let round = ms(round_started.elapsed());
        let counters = Counters::read().since(&before);
        trace::disable();
        for (index, run) in runs.iter().enumerate() {
            out.attempted += 1;
            let label = SCALE_DYNAMICS[index];
            if reference[index].is_none() {
                out.note(format!(
                    "{label}: TV to reference {} (tolerance {TV_TOLERANCE}), consensus {}",
                    run.tv, run.consensus
                ));
            }
            let first = reference[index].get_or_insert_with(|| run.counts.clone());
            if *first != run.counts {
                out.fail(format!(
                    "{label}: final counts differ between equal-seed runs"
                ));
            } else if run.consensus {
                out.fail(format!("{label}: population absorbed (consensus)"));
            } else if run.tv > TV_TOLERANCE {
                out.fail(format!(
                    "{label}: TV {} to the reference exceeds {TV_TOLERANCE}",
                    run.tv
                ));
            } else {
                good_interactions += run.interactions;
            }
        }
        if traced {
            traced_rounds.push(round);
            layers.add(&runs, round, counters);
        } else {
            rounds.push(round);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    if args.trace {
        out.note(format!(
            "round p50_ms untraced {} over {} rounds, traced {} over {} rounds",
            median(&rounds),
            rounds.len(),
            median(&traced_rounds),
            traced_rounds.len()
        ));
        out.set(
            "trace_overhead_pct",
            (median(&traced_rounds) / median(&rounds) - 1.0) * 100.0,
        );
        layers.report(&mut out);
    } else {
        out.note(format!(
            "{} rounds in {elapsed:.3} s; setup reps {setup:?} s",
            rounds.len()
        ));
        out.set("setup_s", median(&setup));
        out.set("peak_rss_mb", stats::peak_rss_mb(None)?);
        stats::set_latency(&mut out, "round latency", &rounds);
        out.set("goodput_per_s", good_interactions as f64 / elapsed);
    }
    Ok(out)
}
