//! End-to-end tests of the `popgame` binary: golden-file determinism of
//! `reproduce`, arg-parsing error paths, and a full `serve` round trip —
//! all through real process spawns of the compiled binary.

use popgame_util::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn popgame(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_popgame"))
        .args(args)
        .output()
        .expect("spawn popgame")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popgame-cli-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny reproduction config that keeps debug-mode test runs fast.
const TINY_REPRODUCE: &[&str] = &[
    "reproduce",
    "--sizes",
    "50,100",
    "--replicas",
    "2",
    "--horizon",
    "8",
    "--trajectory-points",
    "6",
    "--seed",
    "9",
];

#[test]
fn reproduce_reports_are_byte_identical_across_runs() {
    let dir_a = temp_dir("golden-a");
    let dir_b = temp_dir("golden-b");
    for dir in [&dir_a, &dir_b] {
        let mut args = TINY_REPRODUCE.to_vec();
        args.push("--out");
        let dir_text = dir.to_str().unwrap();
        args.push(dir_text);
        let out = popgame(&args);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(stdout(&out).contains("wrote"), "{}", stdout(&out));
    }
    let json_a = std::fs::read(dir_a.join("REPORT.json")).unwrap();
    let json_b = std::fs::read(dir_b.join("REPORT.json")).unwrap();
    assert_eq!(json_a, json_b, "REPORT.json must be byte-identical");
    let md_a = std::fs::read(dir_a.join("REPORT.md")).unwrap();
    let md_b = std::fs::read(dir_b.join("REPORT.md")).unwrap();
    assert_eq!(md_a, md_b, "REPORT.md must be byte-identical");
    // Scheduler modes cannot leak into the artifact: the sequential
    // fallback and an explicit worker count reproduce the pooled bytes.
    for (tag, extra) in [
        ("golden-seq", vec!["--sequential"]),
        ("golden-w2", vec!["--workers", "2"]),
    ] {
        let dir = temp_dir(tag);
        let mut args = TINY_REPRODUCE.to_vec();
        args.extend(extra);
        args.push("--out");
        let dir_text = dir.to_str().unwrap();
        args.push(dir_text);
        let out = popgame(&args);
        assert!(out.status.success(), "{tag}: {}", stderr(&out));
        assert_eq!(
            std::fs::read(dir.join("REPORT.json")).unwrap(),
            json_a,
            "{tag}: REPORT.json must match the pooled run"
        );
        assert_eq!(
            std::fs::read(dir.join("REPORT.md")).unwrap(),
            md_a,
            "{tag}: REPORT.md must match the pooled run"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
    // The artifacts carry the advertised content — including the η-sweep
    // and divergence-panel sections, whose byte-identity the whole-file
    // comparison above pins.
    let md = String::from_utf8(md_a).unwrap();
    assert!(md.contains("## Convergence"));
    assert!(md.contains("matching-pennies"));
    assert!(md.contains("## Logit η-sweep"));
    assert!(md.contains("η=0.5") && md.contains("η=8"));
    assert!(md.contains("## Divergence panel: Shapley-style cycling (`shapley-cycle`)"));
    assert!(md.contains("pairwise-imitation"));
    assert!(md.contains("k-igt"));
    assert!(md.contains("## Time constants"));
    assert!(md.contains("### Limit-cycle metrology"));
    let json = String::from_utf8(json_a).unwrap();
    assert!(json.contains("\"schema_version\""));
    assert!(json.contains("\"decay_alpha\""));
    assert!(json.contains("\"eta_sweep\""));
    assert!(json.contains("\"divergence\""));
    assert!(json.contains("\"time_constants\""));
    // A different seed produces different measurements.
    let dir_c = temp_dir("golden-c");
    let out = popgame(&[
        "reproduce",
        "--sizes",
        "50,100",
        "--replicas",
        "2",
        "--horizon",
        "8",
        "--trajectory-points",
        "6",
        "--seed",
        "10",
        "--out",
        dir_c.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let json_c = std::fs::read(dir_c.join("REPORT.json")).unwrap();
    assert_ne!(json_b, json_c, "seed must matter");
    for dir in [dir_a, dir_b, dir_c] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn usage_errors_exit_two_with_a_usage_message() {
    for (args, needle) in [
        (vec!["frobnicate"], "unknown command"),
        (vec![], "usage: popgame"),
        (vec!["simulate"], "usage"),
        (vec!["simulate", "--bogus-flag", "1"], "unknown flag"),
        (vec!["simulate", "--n"], "--n needs a value"),
        (
            vec!["simulate", "--scenario", "hawk-dove", "--seed", "1", "--seed", "2"],
            "more than once",
        ),
        (vec!["simulate", "--scenario", "hawk-dove", "--n", "abc"], "--n"),
        (vec!["analytics"], "usage"),
        (vec!["analytics", "--bogus-flag", "1"], "unknown flag"),
        (vec!["solve"], "usage"),
        (vec!["solve", "--game", "not json"], "--game"),
        (vec!["solve", "hawk-dove", "extra"], "unexpected argument"),
        (vec!["scenarios", "--bogus"], "no flags"),
        (vec!["reproduce", "--sizes", "100,50"], "ascending"),
        (vec!["reproduce", "--sizes", "ten"], "--sizes"),
        (vec!["reproduce", "--replicas", "0"], "replicas"),
        (vec!["reproduce", "--profile"], "unknown flag --profile"),
        (vec!["serve", "--nonsense"], "unknown argument"),
        (vec!["bench", "--quick"], "unknown command: bench"),
        (vec!["fleet", "--no-history"], "unknown flag --no-history"),
    ] {
        let out = popgame(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(needle),
            "{args:?}: expected {needle:?} in {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn invalid_requests_exit_two_with_the_validator_message() {
    for (args, needle) in [
        (
            vec!["simulate", "--scenario", "no-such-game"],
            "unknown scenario",
        ),
        (
            vec!["simulate", "--scenario", "hawk-dove", "--n", "1"],
            "n must be",
        ),
        (
            vec!["simulate", "--scenario", "hawk-dove", "--dynamics", "quantal"],
            "unknown dynamics",
        ),
        (vec!["solve", "no-such-game"], "unknown scenario"),
    ] {
        let out = popgame(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(needle),
            "{args:?}: expected {needle:?} in {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn scenarios_and_solve_print_the_registry_facts() {
    let out = popgame(&["scenarios"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("rock-paper-scissors"), "{text}");
    assert!(text.contains("\"symmetric_equilibria\""), "{text}");

    let out = popgame(&["solve", "matching-pennies"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"minimax\""), "{text}");
    // Explicit games solve through the same path.
    let out = popgame(&[
        "solve",
        "--game",
        r#"{"kind":"symmetric","row":[[0.0,2.0],[1.0,1.0]]}"#,
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("\"equilibria\""));
}

#[test]
fn simulate_is_deterministic_and_matches_defaults() {
    let args = [
        "simulate",
        "--scenario",
        "rock-paper-scissors",
        "--n",
        "300",
        "--interactions",
        "3000",
        "--replicas",
        "2",
        "--seed",
        "5",
    ];
    let a = popgame(&args);
    let b = popgame(&args);
    assert!(a.status.success(), "{}", stderr(&a));
    assert_eq!(stdout(&a), stdout(&b), "byte-identical runs");
    assert!(stdout(&a).contains("\"mean_tv_to_equilibrium\""));
}

#[test]
fn analytics_adds_time_constants_without_touching_the_base_fields() {
    let flags = [
        "--scenario", "stag-hunt", "--dynamics", "best-response",
        "--n", "300", "--interactions", "6000", "--replicas", "2", "--seed", "5",
    ];
    let with_flag = |cmd: &str| {
        let mut args = vec![cmd];
        args.extend_from_slice(&flags);
        popgame(&args)
    };
    let a = with_flag("analytics");
    let b = with_flag("analytics");
    assert!(a.status.success(), "{}", stderr(&a));
    assert_eq!(stdout(&a), stdout(&b), "analytics runs are byte-identical");
    let doc = Json::parse(&stdout(&a)).expect("analytics output parses");
    let block = doc.get("analytics").expect("analytics block present");
    assert!(block.get("tmix").unwrap().get("kind").unwrap().as_str().is_some());
    assert!(block.get("absorption").unwrap().get("replicas").is_some());
    // The recorder is observation-only: `popgame simulate` with the same
    // flags produces the identical base document, minus the block.
    let plain = with_flag("simulate");
    assert!(plain.status.success(), "{}", stderr(&plain));
    let plain_doc = Json::parse(&stdout(&plain)).unwrap();
    assert!(plain_doc.get("analytics").is_none());
    for field in [
        "mean_frequencies", "mean_tv_to_equilibrium", "replica_tv", "consensus_replicas",
    ] {
        assert_eq!(
            doc.get(field).unwrap().encode(),
            plain_doc.get(field).unwrap().encode(),
            "analytics perturbed {field}"
        );
    }
}

#[test]
fn simulate_serves_the_new_dynamics_and_scenarios() {
    // Count-coupled dynamics on a new registry scenario...
    let out = popgame(&[
        "simulate",
        "--scenario",
        "shapley-cycle",
        "--dynamics",
        "pairwise-imitation",
        "--n",
        "300",
        "--interactions",
        "3000",
        "--replicas",
        "2",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"mean_tv_to_equilibrium\""));
    // ...and the paper's k-IGT as a first-class dynamic on its substrate.
    let out = popgame(&[
        "simulate",
        "--scenario",
        "prisoners-dilemma",
        "--dynamics",
        "k-igt",
        "--n",
        "500",
        "--interactions",
        "5000",
        "--replicas",
        "2",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"symmetric_equilibria\""), "{text}");
    assert!(text.contains("\"mean_frequencies\""), "{text}");
}

#[test]
fn reproduce_trace_is_a_pure_observer() {
    // --trace must add a span timeline without perturbing a single byte
    // of the report artifacts (tracing is out-of-band).
    let dir_plain = temp_dir("trace-plain");
    let dir_trace = temp_dir("trace-on");
    let trace_path = dir_trace.join("TRACE.json");
    let mut traced_stdout = String::new();
    for (dir, extra) in [
        (&dir_plain, vec![]),
        (&dir_trace, vec!["--trace", trace_path.to_str().unwrap()]),
    ] {
        let mut args = TINY_REPRODUCE.to_vec();
        args.extend(extra);
        args.push("--out");
        let dir_text = dir.to_str().unwrap();
        args.push(dir_text);
        let out = popgame(&args);
        assert!(out.status.success(), "{}", stderr(&out));
        traced_stdout = stdout(&out);
    }
    assert!(traced_stdout.contains("(0 dropped)"), "{traced_stdout}");
    assert_eq!(
        std::fs::read(dir_plain.join("REPORT.json")).unwrap(),
        std::fs::read(dir_trace.join("REPORT.json")).unwrap(),
        "REPORT.json must be byte-identical with --trace"
    );
    assert_eq!(
        std::fs::read(dir_plain.join("REPORT.md")).unwrap(),
        std::fs::read(dir_trace.join("REPORT.md")).unwrap(),
        "REPORT.md must be byte-identical with --trace"
    );

    // The timeline itself: valid JSON, balanced B/E phases, spans from
    // the report, scheduler, and engine layers.
    let chrome = std::fs::read_to_string(&trace_path).unwrap();
    let doc = Json::parse(&chrome).expect("TRACE.json parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    assert!(count("B") > 0, "trace must contain spans");
    assert_eq!(count("B"), count("E"), "begin/end events must balance");
    for family in ["report", "scheduler", "engine"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(Json::as_str) == Some(family)),
            "no {family} spans in TRACE.json"
        );
    }

    // The JSONL sidecar mirrors the same spans, one object per line.
    let jsonl = std::fs::read_to_string(dir_trace.join("TRACE.jsonl")).unwrap();
    assert_eq!(jsonl.lines().count(), count("B"));
    for line in jsonl.lines() {
        let row = Json::parse(line).expect("TRACE.jsonl line parses");
        assert!(row.get("start_ns").unwrap().as_u64().is_some());
    }

    // Per-cell timing lives in the `cell:` spans: one per (cell, replica)
    // task of every section, so the span count is the report's cell
    // count times its replicas.
    let report = Json::parse(&std::fs::read_to_string(dir_trace.join("REPORT.json")).unwrap())
        .expect("REPORT.json parses");
    let section_len = |key: &str| report.get(key).and_then(Json::as_array).unwrap().len();
    let divergence_rows = report
        .get("divergence")
        .and_then(|d| d.get("rows"))
        .and_then(Json::as_array)
        .unwrap()
        .len();
    let cells = section_len("convergence") * 2 + section_len("eta_sweep") * 5 + divergence_rows;
    let cell_spans: Vec<&str> =
        jsonl.lines().filter(|line| line.contains("\"name\":\"cell:")).collect();
    assert_eq!(cell_spans.len(), cells * 2, "2 sizes, 5 etas, 2 replicas");
    assert!(cell_spans.iter().any(|line| line.contains("logit eta=")));

    for dir in [dir_plain, dir_trace] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Boots a real `popgame serve` child with a persistent cache dir and
/// returns the child plus the bound address parsed from the readiness
/// line.
fn serve_with_cache(cache_dir: &std::path::Path) -> (std::process::Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_popgame"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--allow-remote-shutdown",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn popgame serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .expect("listening line carries an address")
        .to_string();
    (child, addr)
}

/// One `Connection: close` HTTP exchange against a spawned daemon.
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let text = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(text.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_ascii_lowercase(), body.to_string())
}

#[test]
fn served_reproduce_survives_a_hard_kill_byte_identically() {
    // Ground truth: the CLI harness with the same knobs the daemon job
    // will receive. Daemon-rendered artifacts must match these bytes.
    let cli_dir = temp_dir("daemon-golden");
    let mut args = TINY_REPRODUCE.to_vec();
    args.push("--out");
    args.push(cli_dir.to_str().unwrap());
    let out = popgame(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    let cli_json = std::fs::read_to_string(cli_dir.join("REPORT.json")).unwrap();
    let cli_md = std::fs::read_to_string(cli_dir.join("REPORT.md")).unwrap();

    let cache_dir = temp_dir("daemon-cache");
    std::fs::create_dir_all(&cache_dir).unwrap();
    let body = r#"{"sizes":[50,100],"replicas":2,"horizon_per_agent":8,"trajectory_capacity":6,"seed":9}"#;

    // First life: run the reproduce job cold and pin the artifact bytes.
    let (mut child, addr) = serve_with_cache(&cache_dir);
    let (status, _, submitted) = request(&addr, "POST", "/reproduce", body);
    assert_eq!(status, 202, "{submitted}");
    let submitted = Json::parse(&submitted).unwrap();
    let job_id = submitted.get("job_id").unwrap().as_u64().unwrap();
    let artifact = submitted
        .get("artifact")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let (status, _, job) = request(&addr, "GET", &format!("/jobs/{job_id}"), "");
        assert_eq!(status, 200, "{job}");
        let doc = Json::parse(&job).unwrap();
        let state = doc.get("status").unwrap().as_str().unwrap().to_string();
        if state == "done" {
            break;
        }
        assert!(
            state == "queued" || state == "running",
            "reproduce job failed: {job}"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "reproduce job stuck in {state}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let (status, _, daemon_json) = request(&addr, "GET", &format!("/artifacts/{artifact}"), "");
    assert_eq!(status, 200);
    assert_eq!(
        daemon_json, cli_json,
        "daemon REPORT.json must match `popgame reproduce` byte for byte"
    );
    let (_, _, daemon_md) = request(&addr, "GET", &format!("/artifacts/{artifact}.md"), "");
    assert_eq!(
        daemon_md, cli_md,
        "daemon REPORT.md must match `popgame reproduce` byte for byte"
    );

    // Hard kill: no shutdown hook runs, only the disk tier survives.
    child.kill().expect("kill popgamed");
    let _ = child.wait();

    // Second life on the same --cache-dir: the artifact is re-served
    // byte-identically from disk and counted as a cache hit.
    let (mut child, addr) = serve_with_cache(&cache_dir);
    let (status, headers, revived) = request(&addr, "GET", &format!("/artifacts/{artifact}"), "");
    assert_eq!(status, 200);
    assert!(
        headers.contains("x-popgame-cache: hit"),
        "restart must serve the artifact from disk: {headers}"
    );
    assert_eq!(revived, cli_json, "disk re-serve must be byte-identical");
    let (_, _, metrics) = request(&addr, "GET", "/metrics", "");
    let hits = metrics
        .lines()
        .find(|line| line.starts_with("popgame_cache_hits_total"))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse::<f64>().ok())
        .expect("popgame_cache_hits_total exposed");
    assert!(hits >= 1.0, "cache-hit counter must advance: {metrics}");
    let (status, _, reply) = request(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200, "{reply}");
    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "{status:?}");

    for dir in [cli_dir, cache_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn fleet_quick_smoke_writes_the_bench_block() {
    let dir = temp_dir("fleet-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("fleet.json");
    let out = popgame(&["fleet", "--quick", "--out", out_path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let written = std::fs::read_to_string(&out_path).unwrap();
    let fleet = Json::parse(&written).expect("fleet out file parses");
    // `--out` holds the very document printed on stdout.
    assert_eq!(stdout(&out).trim_end(), written.trim_end());
    assert_eq!(fleet.get("instances").unwrap().as_u64(), Some(2));
    assert_eq!(
        fleet.get("byte_identical").unwrap().as_bool(),
        Some(true),
        "fleet responses must be byte-identical across shards"
    );
    for phase in ["steady", "add_shard", "remove_shard"] {
        let block = fleet.get(phase).unwrap_or_else(|| panic!("missing {phase}"));
        assert!(
            block.get("requests").unwrap().as_u64().unwrap() > 0,
            "{phase} served no requests"
        );
        assert!(
            block.get("requests_per_sec").unwrap().as_f64().unwrap() > 0.0,
            "{phase} rps"
        );
        assert_eq!(block.get("errors").unwrap().as_u64(), Some(0), "{phase}");
    }
    let moved = fleet.get("moved_keys_on_add").expect("rebalance accounting");
    let total = moved.get("total").unwrap().as_u64().unwrap();
    assert!(
        moved.get("moved").unwrap().as_u64().unwrap() < total,
        "consistent hashing must not remap the whole keyspace"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_round_trip_shutdown() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_popgame"))
        .args(["serve", "--addr", "127.0.0.1:0", "--allow-remote-shutdown"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn popgame serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .expect("listening line carries an address")
        .to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect to served addr");
    stream
        .write_all(b"POST /shutdown HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.contains("shutting-down"), "{reply}");
    let status = child.wait().expect("serve exits after shutdown");
    assert!(status.success(), "{status:?}");
}
