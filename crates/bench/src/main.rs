//! `reproduce` — regenerates every table/figure-equivalent of the paper.
//!
//! ```text
//! reproduce all          # every experiment, E1..E15 (minutes)
//! reproduce e7 e12       # a subset
//! reproduce --list       # what exists
//! ```
//!
//! Output is plain text. For the *citable* reproduction artifact —
//! convergence tables, decay fits, and trajectories rendered as
//! byte-deterministic `REPORT.md` + `REPORT.json` — use the `popgame`
//! CLI instead: `popgame reproduce --quick` (see `crates/cli` and
//! `crates/report`).

use popgame::experiments::{dynamics, equilibrium, mixing, payoffs, stationary, walks};
use std::process::ExitCode;

const SEED: u64 = 20240717;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("e1", "Theorem 2.4 — Ehrenfest stationary law is multinomial"),
    ("e2", "Theorem 2.5 — mixing-time scaling in k, m, bias"),
    ("e3", "Proposition A.9 — diameter lower bound"),
    ("e4", "Proposition A.7 — absorption-time closed forms"),
    ("e5", "Theorem 2.7 — k-IGT stationary law (two engines)"),
    ("e6", "Proposition 2.8 — average stationary generosity"),
    ("e7", "Theorem 2.9 — epsilon(k) = O(1/k) with decomposition"),
    ("e8", "Proposition 2.2 — payoff monotonicity regime"),
    ("e9", "Appendix B — payoff closed forms vs linear vs Monte-Carlo"),
    ("e10", "Figure 1 — one-step increment/decrement rates"),
    ("e11", "Figure 2 — exact k=3, m=3 state graph"),
    ("e12", "Remark 2.6 — cutoff at half m log m"),
    ("e13", "Theorem 2.9 footnote 4 — failure for lambda near 1"),
    ("e14", "Def. 2.1 remark — action-observed variant"),
    ("e15", "Section 1.1.2 — noise motivates generosity"),
];

fn run(id: &str) -> bool {
    println!("================================================================");
    match id {
        "e1" => println!("{}", stationary::run_e1(SEED)),
        "e2" => println!("{}", mixing::run_e2(SEED)),
        "e3" => println!("{}", mixing::run_e3()),
        "e4" => println!("{}", walks::run_e4(20_000, SEED)),
        "e5" => println!("{}", stationary::run_e5(SEED)),
        "e6" => println!("{}", dynamics::run_e6(SEED)),
        "e7" => println!("{}", equilibrium::run_e7()),
        "e8" => println!("{}", payoffs::run_e8()),
        "e9" => println!("{}", payoffs::run_e9(60_000, SEED)),
        "e10" => println!("{}", dynamics::run_e10(200_000, SEED)),
        "e11" => println!("{}", stationary::run_e11()),
        "e12" => println!("{}", mixing::run_e12()),
        "e13" => println!("{}", equilibrium::run_e13()),
        "e14" => println!("{}", dynamics::run_e14(SEED)),
        "e15" => println!("{}", dynamics::run_e15(4_000, SEED)),
        other => {
            eprintln!("unknown experiment: {other} (try --list)");
            return false;
        }
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: reproduce [--list] [all | e1 e2 ... e15]");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, desc) in EXPERIMENTS {
            println!("{id:>4}  {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    for id in ids {
        ok &= run(id);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
