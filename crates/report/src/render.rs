//! Renderers: the same [`Report`] as machine-readable JSON and
//! human-readable Markdown.
//!
//! Both renderings are **byte-deterministic**: the JSON path rides the
//! deterministic encoder in [`popgame_util::json`] (insertion-ordered
//! fields, shortest-roundtrip floats) and the Markdown path uses only
//! fixed-width formatting of already-deterministic numbers. Golden-file
//! tests and the CI reproduction smoke compare whole files byte-for-byte.

use crate::harness::{Report, TimeConstants, TrajectorySeries};
use popgame_analytics::{
    absorption_stats_json, bootstrap_ci_json, cycle_ensemble_json, tmix_fit_json, TmixFit,
};
use popgame_util::json::Json;

/// Schema version stamped into `REPORT.json`; bump on breaking layout
/// changes. Version 2 added the `eta_sweep` and `divergence` sections and
/// widened the dynamics axis. Version 3 added the `time_constants`
/// section (t_mix/absorption/cycle estimates with bootstrap CIs).
pub const REPORT_SCHEMA_VERSION: u64 = 3;

/// The whole `time_constants` JSON section. Estimate objects ride the
/// shared encoders in [`popgame_analytics::json`] — the same shapes the
/// service's `/simulate` analytics block uses.
fn time_constants_json(tc: &TimeConstants) -> Json {
    Json::obj([
        ("epsilon", Json::from(tc.epsilon)),
        ("resamples", Json::from(u64::from(tc.resamples))),
        ("confidence", Json::from(tc.confidence)),
        (
            "rows",
            Json::arr(tc.rows.iter().map(|row| {
                Json::obj([
                    ("scenario", Json::from(row.scenario.as_str())),
                    ("dynamics", Json::from(row.dynamics.as_str())),
                    ("n", Json::from(row.n)),
                    ("tmix", tmix_fit_json(&row.tmix)),
                    ("absorption", absorption_stats_json(&row.absorption)),
                    ("absorption_mean_ci", bootstrap_ci_json(&row.absorption_ci)),
                ])
            })),
        ),
        (
            "cycles",
            Json::arr(tc.cycles.iter().map(|row| {
                Json::obj([
                    ("dynamics", Json::from(row.dynamics.as_str())),
                    ("cycle", cycle_ensemble_json(&row.cycle)),
                ])
            })),
        ),
    ])
}

/// Renders `REPORT.json` (pretty-printed, trailing newline).
pub fn report_json(report: &Report) -> String {
    let config = &report.config;
    let doc = Json::obj([
        (
            "paper",
            Json::from(
                "Game Dynamics and Equilibrium Computation in the Population \
                 Protocol Model (PODC 2024)",
            ),
        ),
        ("schema_version", Json::from(REPORT_SCHEMA_VERSION)),
        (
            "config",
            Json::obj([
                ("mode", Json::from(config.mode.as_str())),
                ("seed", Json::from(config.seed)),
                ("sizes", Json::arr(config.sizes.iter().map(|&n| Json::from(n)))),
                ("replicas", Json::from(config.replicas)),
                ("horizon_per_agent", Json::from(config.horizon_per_agent)),
                (
                    "trajectory_capacity",
                    Json::from(config.trajectory_capacity),
                ),
            ]),
        ),
        (
            "scenarios",
            Json::arr(report.scenarios.iter().map(|s| {
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("k", Json::from(s.k)),
                    ("symmetric", Json::from(s.symmetric)),
                    ("zero_sum", Json::from(s.zero_sum)),
                    ("symmetrized_dynamics", Json::from(s.symmetrized)),
                    ("description", Json::from(s.description.as_str())),
                    ("equilibria", Json::from(s.equilibria)),
                    (
                        "equilibrium_profiles",
                        Json::arr(s.equilibrium_profiles.iter().map(Json::floats)),
                    ),
                    (
                        "minimax_value",
                        s.minimax_value.map_or(Json::Null, Json::from),
                    ),
                ])
            })),
        ),
        (
            "convergence",
            Json::arr(report.convergence.iter().map(|row| {
                Json::obj([
                    ("scenario", Json::from(row.scenario.as_str())),
                    ("dynamics", Json::from(row.dynamics.as_str())),
                    ("symmetrized", Json::from(row.symmetrized)),
                    (
                        "cells",
                        Json::arr(row.cells.iter().map(|c| {
                            Json::obj([
                                ("n", Json::from(c.n)),
                                ("mean_tv", Json::from(c.mean_tv)),
                                ("min_tv", Json::from(c.min_tv)),
                                ("max_tv", Json::from(c.max_tv)),
                                (
                                    "consensus_fraction",
                                    Json::from(c.consensus_fraction),
                                ),
                            ])
                        })),
                    ),
                    (
                        "decay_alpha",
                        row.decay_alpha.map_or(Json::Null, Json::from),
                    ),
                    ("absorbed", Json::from(row.absorbed())),
                ])
            })),
        ),
        (
            "trajectories",
            Json::arr(report.trajectories.iter().map(|t| {
                Json::obj([
                    ("scenario", Json::from(t.scenario.as_str())),
                    ("dynamics", Json::from(t.dynamics.as_str())),
                    ("n", Json::from(t.n)),
                    (
                        "interactions",
                        Json::arr(t.interactions.iter().map(|&i| Json::from(i))),
                    ),
                    ("mean_tv", Json::floats(&t.mean_tv)),
                    (
                        "mean_frequencies",
                        Json::arr(t.mean_frequencies.iter().map(Json::floats)),
                    ),
                ])
            })),
        ),
        (
            "eta_sweep",
            Json::arr(report.eta_sweep.iter().map(|row| {
                Json::obj([
                    ("scenario", Json::from(row.scenario.as_str())),
                    ("n", Json::from(row.n)),
                    (
                        "cells",
                        Json::arr(row.cells.iter().map(|c| {
                            Json::obj([
                                ("eta", Json::from(c.eta)),
                                ("mean_tv", Json::from(c.mean_tv)),
                                ("max_tv", Json::from(c.max_tv)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
        (
            "divergence",
            Json::obj([
                ("scenario", Json::from(report.divergence.scenario.as_str())),
                ("n", Json::from(report.divergence.n)),
                ("start", Json::floats(&report.divergence.start)),
                (
                    "rows",
                    Json::arr(report.divergence.rows.iter().map(|row| {
                        Json::obj([
                            ("dynamics", Json::from(row.dynamics.as_str())),
                            ("mean_tv", Json::from(row.mean_tv)),
                            ("min_tv", Json::from(row.min_tv)),
                            ("max_tv", Json::from(row.max_tv)),
                            (
                                "interactions",
                                Json::arr(row.interactions.iter().map(|&i| Json::from(i))),
                            ),
                            ("trajectory_tv", Json::floats(&row.trajectory_tv)),
                        ])
                    })),
                ),
            ]),
        ),
        ("time_constants", time_constants_json(&report.time_constants)),
    ]);
    doc.pretty()
}

/// Deterministic interaction-clock formatting: integral clocks drop the
/// fraction, interpolated crossings keep one decimal.
fn fmt_time(t: f64) -> String {
    if t == t.trunc() {
        format!("{t:.0}")
    } else {
        format!("{t:.1}")
    }
}

/// Fixed-width, deterministic TV formatting: exact zeros stay `0`, tiny
/// values go scientific, everything else keeps four decimals.
fn fmt_tv(tv: f64) -> String {
    if tv == 0.0 {
        "0".to_string()
    } else if tv < 5e-5 {
        format!("{tv:.1e}")
    } else {
        format!("{tv:.4}")
    }
}

/// Five probes into a `(clock, value)` series at the start, quartiles,
/// and end of the run's *interaction clock* — each probe is the retained
/// point nearest that fraction of the horizon (short series simply repeat
/// their endpoints).
fn series_probes(interactions: &[u64], values: &[f64]) -> Vec<(u64, f64)> {
    let total = *interactions.last().expect("trajectories are non-empty");
    [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&frac| {
            let target = (total as f64 * frac) as u64;
            let index = interactions
                .iter()
                .enumerate()
                .min_by_key(|&(_, &clock)| clock.abs_diff(target))
                .map(|(i, _)| i)
                .expect("trajectories are non-empty");
            (interactions[index], values[index])
        })
        .collect()
}

/// [`series_probes`] over a [`TrajectorySeries`].
fn trajectory_probes(t: &TrajectorySeries) -> Vec<(u64, f64)> {
    series_probes(&t.interactions, &t.mean_tv)
}

/// Renders `REPORT.md`.
pub fn report_markdown(report: &Report) -> String {
    let config = &report.config;
    let mut out = String::new();
    let push = |out: &mut String, s: &str| {
        out.push_str(s);
        out.push('\n');
    };
    push(&mut out, "# popgame paper-reproduction report");
    push(&mut out, "");
    push(
        &mut out,
        "Reproduces the experimental claims of *Game Dynamics and Equilibrium \
         Computation in the Population Protocol Model* (Alistarh, Chatterjee, \
         Karrabi, Lazarsfeld; PODC 2024): pairwise revision dynamics run on a \
         well-mixed population concentrate near exact equilibria, with the \
         empirical total-variation distance shrinking as the population grows.",
    );
    push(&mut out, "");
    push(
        &mut out,
        &format!(
            "- mode: `{}` · seed: `{}` · replicas per cell: `{}` · horizon: \
             `{}·n` interactions",
            config.mode, config.seed, config.replicas, config.horizon_per_agent
        ),
    );
    let sizes: Vec<String> = config.sizes.iter().map(u64::to_string).collect();
    push(
        &mut out,
        &format!("- population sizes: `{}`", sizes.join(", ")),
    );
    let regenerate = match config.mode.as_str() {
        "quick" | "full" => format!("popgame reproduce --{} --seed {}", config.mode, config.seed),
        _ => format!(
            "popgame reproduce --sizes {} --replicas {} --horizon {} \
             --trajectory-points {} --seed {}",
            sizes.join(","),
            config.replicas,
            config.horizon_per_agent,
            config.trajectory_capacity,
            config.seed
        ),
    };
    push(
        &mut out,
        &format!("- regenerate: `{regenerate}` (byte-identical for equal seeds)"),
    );
    push(&mut out, "");

    push(&mut out, "## Scenario registry and exact equilibria");
    push(&mut out, "");
    push(
        &mut out,
        "Ground truth comes from the exact solver (`popgame-solver`): support \
         enumeration with linear-feasibility certification, plus the zero-sum \
         LP. Asymmetric scenarios run their dynamics on the symmetrized \
         companion game `[[0, A′], [B′ᵀ, 0]]`, whose exact symmetric \
         equilibria project onto the original Nash equilibria.",
    );
    push(&mut out, "");
    push(
        &mut out,
        "| scenario | k | symmetric | zero-sum | equilibria | minimax value | description |",
    );
    push(&mut out, "|---|---|---|---|---|---|---|");
    for s in &report.scenarios {
        let minimax = s
            .minimax_value
            .map_or("—".to_string(), |v| format!("{v:.4}"));
        push(
            &mut out,
            &format!(
                "| `{}`{} | {} | {} | {} | {} | {} | {} |",
                s.name,
                if s.symmetrized { " †" } else { "" },
                s.k,
                if s.symmetric { "yes" } else { "no" },
                if s.zero_sum { "yes" } else { "no" },
                s.equilibria,
                minimax,
                s.description
            ),
        );
    }
    push(
        &mut out,
        "\n† dynamics measured on the symmetrized companion game.",
    );
    push(&mut out, "");

    push(&mut out, "## Convergence: TV distance to the nearest exact equilibrium");
    push(&mut out, "");
    push(
        &mut out,
        &format!(
            "Replica-mean total-variation distance between the final empirical \
             strategy distribution and the *nearest* exact equilibrium, after \
             `{}·n` interactions from the uniform profile ({} replicas per \
             cell). `α` is the fitted decay exponent in `TV ≈ C·n^(−α)` \
             (log-log least squares; the paper's concentration claim predicts \
             `α ≈ 0.5` for interior equilibria). `absorbed` marks pairs whose \
             replicas hit a pure equilibrium exactly; `consensus` is the \
             fraction of replicas ending with all agents on one strategy at \
             the largest `n`.",
            config.horizon_per_agent, config.replicas
        ),
    );
    push(&mut out, "");
    let mut header = String::from("| scenario | dynamics |");
    let mut rule = String::from("|---|---|");
    for n in &config.sizes {
        header.push_str(&format!(" TV @ n={n} |"));
        rule.push_str("---|");
    }
    header.push_str(" α | consensus | absorbed |");
    rule.push_str("---|---|---|");
    push(&mut out, &header);
    push(&mut out, &rule);
    for row in &report.convergence {
        let mut line = format!(
            "| `{}`{} | {} |",
            row.scenario,
            if row.symmetrized { " †" } else { "" },
            row.dynamics
        );
        for cell in &row.cells {
            line.push_str(&format!(" {} |", fmt_tv(cell.mean_tv)));
        }
        let alpha = row
            .decay_alpha
            .map_or("—".to_string(), |a| format!("{a:.2}"));
        let consensus = row
            .cells
            .last()
            .map_or("—".to_string(), |c| format!("{:.2}", c.consensus_fraction));
        line.push_str(&format!(
            " {alpha} | {consensus} | {} |",
            if row.absorbed() { "yes" } else { "no" }
        ));
        push(&mut out, &line);
    }
    push(&mut out, "");

    push(&mut out, "## Trajectories at the largest population");
    push(&mut out, "");
    push(
        &mut out,
        &format!(
            "Replica-mean TV distance along the run at `n = {}`, sampled on \
             the bounded-memory strided recorder (capacity {}); the full \
             series, including mean strategy frequencies per point, is in \
             `REPORT.json`.",
            config.sizes.last().expect("validated non-empty"),
            config.trajectory_capacity
        ),
    );
    push(&mut out, "");
    push(
        &mut out,
        "| scenario | dynamics | start | 25% | 50% | 75% | end |",
    );
    push(&mut out, "|---|---|---|---|---|---|---|");
    for t in &report.trajectories {
        let probes = trajectory_probes(t);
        let cells: Vec<String> = probes.iter().map(|&(_, tv)| fmt_tv(tv)).collect();
        push(
            &mut out,
            &format!(
                "| `{}` | {} | {} |",
                t.scenario,
                t.dynamics,
                cells.join(" | ")
            ),
        );
    }
    push(&mut out, "");

    push(&mut out, "## Logit η-sweep");
    push(&mut out, "");
    push(
        &mut out,
        &format!(
            "Final replica-mean TV distance of logit revision across inverse \
             temperatures at the largest population (`n = {}`): small `η` \
             buys fast mixing at the price of a biased (near-uniform) rest \
             point, large `η` approaches best response. Independent seeds \
             from the convergence matrix.",
            report.eta_sweep.first().map_or(0, |r| r.n)
        ),
    );
    push(&mut out, "");
    let mut header = String::from("| scenario |");
    let mut rule = String::from("|---|");
    if let Some(first) = report.eta_sweep.first() {
        for cell in &first.cells {
            header.push_str(&format!(" η={} |", cell.eta));
            rule.push_str("---|");
        }
    }
    push(&mut out, &header);
    push(&mut out, &rule);
    for row in &report.eta_sweep {
        let mut line = format!("| `{}` |", row.scenario);
        for cell in &row.cells {
            line.push_str(&format!(" {} |", fmt_tv(cell.mean_tv)));
        }
        push(&mut out, &line);
    }
    push(&mut out, "");

    push(
        &mut out,
        &format!(
            "## Divergence panel: Shapley-style cycling (`{}`)",
            report.divergence.scenario
        ),
    );
    push(&mut out, "");
    let start: Vec<String> = report
        .divergence
        .start
        .iter()
        .map(|p| format!("{p}"))
        .collect();
    push(
        &mut out,
        &format!(
            "All dynamics start at the off-equilibrium profile `({})` at \
             `n = {}` and are measured against the game's *unique* Nash \
             equilibrium (the uniform mix). Replicator-family revision \
             (pairwise proportional imitation) is provably repelled toward \
             the boundary Shapley triangle (Gaunersdorfer–Hofbauer 1995), \
             while logit and sample-of-one best response contract to the \
             equilibrium — the same game, the same start, opposite fates. \
             The split is asserted by the harness tests, not just rendered.",
            start.join(", "),
            report.divergence.n
        ),
    );
    push(&mut out, "");
    push(
        &mut out,
        "| dynamics | start | 25% | 50% | 75% | end | final TV (min–max) | verdict |",
    );
    push(&mut out, "|---|---|---|---|---|---|---|---|");
    let start_tv: f64 = report
        .divergence
        .start
        .iter()
        .map(|p| (p - 1.0 / report.divergence.start.len() as f64).abs())
        .sum::<f64>()
        / 2.0;
    for row in &report.divergence.rows {
        let probes = series_probes(&row.interactions, &row.trajectory_tv);
        let cells: Vec<String> = probes.iter().map(|&(_, tv)| fmt_tv(tv)).collect();
        // Clearly past the start → repelled; clearly inside → contracted;
        // the band in between is the neutral orbit regime (encounter
        // imitation reduces to standard-RPS replicator here: closed
        // orbits).
        let verdict = if row.mean_tv > start_tv * 1.2 {
            "diverges"
        } else if row.mean_tv < start_tv / 2.0 {
            "converges"
        } else {
            "orbits"
        };
        push(
            &mut out,
            &format!(
                "| {} | {} | {} ({}–{}) | {} |",
                row.dynamics,
                cells.join(" | "),
                fmt_tv(row.mean_tv),
                fmt_tv(row.min_tv),
                fmt_tv(row.max_tv),
                verdict
            ),
        );
    }
    push(&mut out, "");

    let tc = &report.time_constants;
    push(&mut out, "## Time constants");
    push(&mut out, "");
    push(
        &mut out,
        &format!(
            "Time-constant estimates at the largest population, fitted from \
             the recorded replica trajectories by `popgame-analytics`: \
             `t_mix(ε={})` is the monotone-envelope crossing of the \
             replica-mean TV series (interaction clock, linearly \
             interpolated), absorption times are each replica's first \
             recorded consensus point censored at the `{}·n` horizon, and \
             every interval is a deterministic {}-resample {:.0}% bootstrap \
             whose resampling streams split from the report seed — these \
             columns regenerate byte-identically. `≤ start` marks pairs \
             already within ε at the first recorded point; `> horizon` marks \
             pairs that never crossed.",
            tc.epsilon,
            config.horizon_per_agent,
            tc.resamples,
            tc.confidence * 100.0
        ),
    );
    push(&mut out, "");
    push(
        &mut out,
        "| scenario | dynamics | t_mix(ε) | 95% CI | absorbed | mean time | 95% CI | median | p95 |",
    );
    push(&mut out, "|---|---|---|---|---|---|---|---|---|");
    for row in &tc.rows {
        let (tmix, tmix_ci) = match &row.tmix {
            TmixFit::Mixed(est) => (
                fmt_time(est.point),
                format!("[{}, {}]", fmt_time(est.lo), fmt_time(est.hi)),
            ),
            TmixFit::AlreadyMixed => ("≤ start".to_string(), "—".to_string()),
            TmixFit::NotCrossed { .. } => ("> horizon".to_string(), "—".to_string()),
        };
        let stats = &row.absorption;
        let opt = |v: Option<f64>| v.map_or("—".to_string(), fmt_time);
        push(
            &mut out,
            &format!(
                "| `{}` | {} | {} | {} | {}/{} | {} | [{}, {}] | {} | {} |",
                row.scenario,
                row.dynamics,
                tmix,
                tmix_ci,
                stats.absorbed,
                stats.replicas,
                fmt_time(stats.mean_restricted),
                fmt_time(row.absorption_ci.lo),
                fmt_time(row.absorption_ci.hi),
                opt(stats.median),
                opt(stats.p95)
            ),
        );
    }
    push(&mut out, "");

    push(
        &mut out,
        &format!(
            "### Limit-cycle metrology (`{}`)",
            report.divergence.scenario
        ),
    );
    push(&mut out, "");
    push(
        &mut out,
        "Zero-crossing period and peak amplitude of the first strategy's \
         frequency on the divergence panel's replicas. A `—` row means \
         fewer than half the replicas sustained a measurable oscillation — \
         imitation-family dynamics absorb at the boundary Shapley triangle \
         instead of cycling forever, and coarse trajectory sampling can hide \
         a cycle at small capacities.",
    );
    push(&mut out, "");
    push(&mut out, "| dynamics | period | 95% CI | amplitude | detected |");
    push(&mut out, "|---|---|---|---|---|");
    for row in &tc.cycles {
        match &row.cycle {
            Some(c) => push(
                &mut out,
                &format!(
                    "| {} | {} | [{}, {}] | {:.4} | {}/{} |",
                    row.dynamics,
                    fmt_time(c.period),
                    fmt_time(c.period_lo),
                    fmt_time(c.period_hi),
                    c.amplitude,
                    c.detected,
                    c.replicas
                ),
            ),
            None => push(
                &mut out,
                &format!(
                    "| {} | — | — | — | —/{} |",
                    row.dynamics, config.replicas
                ),
            ),
        }
    }
    push(&mut out, "");

    push(&mut out, "## Provenance");
    push(&mut out, "");
    push(
        &mut out,
        "Every number above is a deterministic function of `(config, seed)`: \
         replica `r` of a cell draws from an RNG stream derived only from the \
         cell seed and `r`, results aggregate in replica order, and both \
         renderers format deterministically — re-running this command \
         reproduces this file byte-for-byte. Engines: batched count-level \
         τ-leap simulation (`popgame-population`), exact equilibrium solver \
         (`popgame-solver`), deterministic parallel replica harness \
         (`popgame-runner`).",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_report, ReportConfig};

    fn tiny_report() -> Report {
        let config = ReportConfig {
            seed: 3,
            sizes: vec![50, 100],
            replicas: 2,
            horizon_per_agent: 8,
            trajectory_capacity: 6,
            mode: "custom".to_string(),
        };
        run_report(&config).unwrap()
    }

    #[test]
    fn json_rendering_is_valid_and_deterministic() {
        let report = tiny_report();
        let a = report_json(&report);
        let b = report_json(&report);
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("REPORT.json parses");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(REPORT_SCHEMA_VERSION)
        );
        let scenarios = doc.get("scenarios").unwrap().as_array().unwrap();
        assert_eq!(scenarios.len(), 12);
        let convergence = doc.get("convergence").unwrap().as_array().unwrap();
        // 9 symmetric × 6 rules + k-igt on the PD + 3 asymmetric × 2.
        assert!(convergence.len() >= 55, "{}", convergence.len());
        assert_eq!(
            doc.get("trajectories").unwrap().as_array().unwrap().len(),
            convergence.len()
        );
        let sweep = doc.get("eta_sweep").unwrap().as_array().unwrap();
        assert_eq!(sweep.len(), 9, "one sweep row per symmetric scenario");
        assert_eq!(
            sweep[0].get("cells").unwrap().as_array().unwrap().len(),
            5,
            "five swept η values"
        );
        let divergence = doc.get("divergence").unwrap();
        assert_eq!(
            divergence.get("scenario").unwrap().as_str(),
            Some("shapley-cycle")
        );
        assert_eq!(divergence.get("rows").unwrap().as_array().unwrap().len(), 6);
        // Schema v3: the time-constants section mirrors the convergence
        // and divergence axes, with typed t_mix kinds.
        let tc = doc.get("time_constants").unwrap();
        assert_eq!(tc.get("epsilon").unwrap().as_f64(), Some(0.1));
        let rows = tc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), convergence.len());
        for row in rows {
            let kind = row
                .get("tmix")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap();
            assert!(
                ["crossed", "already-mixed", "not-crossed"].contains(&kind),
                "{kind}"
            );
            let ci = row.get("absorption_mean_ci").unwrap();
            assert!(ci.get("lo").unwrap().as_f64() <= ci.get("hi").unwrap().as_f64());
        }
        assert_eq!(tc.get("cycles").unwrap().as_array().unwrap().len(), 6);
    }

    #[test]
    fn markdown_rendering_has_every_section_and_scenario() {
        let report = tiny_report();
        let md = report_markdown(&report);
        for needle in [
            "# popgame paper-reproduction report",
            "## Scenario registry and exact equilibria",
            "## Convergence: TV distance to the nearest exact equilibrium",
            "## Trajectories at the largest population",
            "## Logit η-sweep",
            "## Divergence panel: Shapley-style cycling (`shapley-cycle`)",
            "## Time constants",
            "### Limit-cycle metrology (`shapley-cycle`)",
            "| scenario | dynamics | t_mix(ε) | 95% CI | absorbed | mean time | 95% CI | median | p95 |",
            "| dynamics | period | 95% CI | amplitude | detected |",
            "## Provenance",
            "`matching-pennies` †",
            "`rock-paper-scissors`",
            "`congestion`",
            "`shapley-cycle`",
            "`random-symmetric-5`",
            "best-response",
            "logit",
            "imitation",
            "pairwise-imitation",
            "imitation-two-way",
            "br-sample",
            "k-igt",
            "η=0.5",
            "η=8",
            // Custom-mode reports must advertise a *replayable* command
            // carrying every override, not a bogus `--custom` flag.
            "popgame reproduce --sizes 50,100 --replicas 2 --horizon 8 \
             --trajectory-points 6 --seed 3",
        ] {
            assert!(md.contains(needle), "missing {needle:?}");
        }
        assert_eq!(md, report_markdown(&report), "byte-deterministic");
    }

    #[test]
    fn tv_formatting_is_stable() {
        assert_eq!(fmt_tv(0.0), "0");
        assert_eq!(fmt_tv(0.1234567), "0.1235");
        assert_eq!(fmt_tv(1e-6), "1.0e-6");
    }
}
