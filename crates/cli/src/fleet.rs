//! `popgame fleet` — a share-nothing multi-instance load generator with
//! consistent-hash routing.
//!
//! The fleet spawns N independent `popgame serve` processes (ephemeral
//! ports, no shared state), routes every request to an instance by
//! consistent hash of its **canonical** cache key
//! ([`popgame_service::ring::HashRing`]), and measures aggregate
//! throughput and p99 latency through three phases:
//!
//! 1. **steady** — the warmed fleet at its base size; every request is
//!    a cache hit on its owning instance.
//! 2. **add-shard** — one instance joins. Only the keys on the new
//!    node's arcs move (~`1/(N+1)` of the keyspace), so the hit rate
//!    dips by about that much and recovers as the moved keys warm.
//! 3. **remove-shard** — the joined instance leaves again. Moved keys
//!    return to their original (still-warm) owners, so the hit rate
//!    snaps back to 1 without recomputation.
//!
//! Every 200-response body is checked byte-for-byte against the
//! instance-independent expected body (the determinism contract across
//! processes); any mismatch fails the run. The fleet document goes to
//! stdout, and to `--out PATH` when given.

use crate::commands::{take_value, usage, CliError};
use popgame_service::http::Client;
use popgame_service::ring::{HashRing, DEFAULT_VNODES};
use popgame_util::json::Json;
use popgame_util::stats::quantile;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One spawned `popgame serve` process and its bound address.
struct Instance {
    child: Child,
    addr: String,
}

impl Instance {
    /// Spawns `popgame serve --addr 127.0.0.1:0 --allow-remote-shutdown`
    /// via the current executable and waits for the readiness line.
    fn spawn() -> Result<Instance, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(&exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--allow-remote-shutdown",
                "--http-workers",
                "4",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading readiness line: {e}"))?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected readiness line {line:?}"))?
            .to_string();
        Ok(Instance { child, addr })
    }

    /// Graceful stop: `POST /shutdown`, then reap the process.
    fn shutdown(mut self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.request("POST", "/shutdown", "");
        }
        let _ = self.child.wait();
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        // Safety net for error paths; the normal path reaps via
        // `shutdown` (which consumes self before Drop sees a live child).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The fleet workload: `keys` distinct simulate requests, small enough
/// that warming is cheap but real enough that a missed route would cost
/// a visible recomputation. Returns `(canonical, body)` pairs — routing
/// hashes the canonical string, exactly what the server's cache keys.
fn workload(keys: usize) -> Vec<(String, String)> {
    (0..keys)
        .map(|i| {
            let body = format!(
                r#"{{"scenario":"hawk-dove","n":200,"interactions":2000,"replicas":1,"seed":{i}}}"#
            );
            let doc = Json::parse(&body).expect("workload body is valid JSON");
            let canonical = popgame_service::api::SimulateRequest::from_json(&doc)
                .expect("workload body validates")
                .canonical();
            (canonical, body)
        })
        .collect()
}

/// Per-thread phase tallies.
#[derive(Default)]
struct ThreadStats {
    latencies_us: Vec<u64>,
    requests: u64,
    hits: u64,
    errors: u64,
    mismatches: u64,
}

/// Runs one timed phase: `clients` threads, each cycling through the
/// workload with a thread-dependent stride, routing every request by
/// `ring` and keeping one connection per instance. `expected[k]` (when
/// present) is the byte-exact body every 200 for key `k` must carry.
fn run_phase(
    ring: &HashRing,
    work: &[(String, String)],
    expected: &HashMap<String, String>,
    clients: usize,
    window: Duration,
) -> Vec<ThreadStats> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                scope.spawn(move || {
                    let mut stats = ThreadStats::default();
                    let mut connections: HashMap<String, Client> = HashMap::new();
                    let start = Instant::now();
                    // Coprime strides decorrelate the threads' key
                    // sequences without shared state or randomness.
                    let stride = 2 * t + 1;
                    let mut index = t;
                    while start.elapsed() < window {
                        let (canonical, body) = &work[index % work.len()];
                        index += stride;
                        let Some(node) = ring.route(canonical) else {
                            stats.errors += 1;
                            continue;
                        };
                        let client = match connections.entry(node.to_string()) {
                            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                            std::collections::hash_map::Entry::Vacant(e) => {
                                match Client::connect(node) {
                                    Ok(client) => e.insert(client),
                                    Err(_) => {
                                        stats.errors += 1;
                                        continue;
                                    }
                                }
                            }
                        };
                        let sent = Instant::now();
                        match client.request("POST", "/simulate", body) {
                            Ok(reply) if reply.status == 200 => {
                                stats.latencies_us.push(sent.elapsed().as_micros() as u64);
                                stats.requests += 1;
                                let hit = reply.header("x-popgame-cache") == Some("hit");
                                stats.hits += u64::from(hit);
                                if let Some(expect) = expected.get(canonical) {
                                    if reply.body != *expect {
                                        stats.mismatches += 1;
                                    }
                                }
                            }
                            _ => stats.errors += 1,
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet client thread"))
            .collect()
    })
}

fn summarize(label: &str, instances: usize, stats: Vec<ThreadStats>, window: Duration) -> Json {
    let latencies: Vec<f64> = stats
        .iter()
        .flat_map(|s| s.latencies_us.iter().map(|&us| us as f64))
        .collect();
    // Whole microseconds; an empty phase (no 200s) reports 0.
    let percentile = |q: f64| quantile(&latencies, q).map_or(0, |us| us.round() as u64);
    let requests: u64 = stats.iter().map(|s| s.requests).sum();
    let hits: u64 = stats.iter().map(|s| s.hits).sum();
    let errors: u64 = stats.iter().map(|s| s.errors).sum();
    let mismatches: u64 = stats.iter().map(|s| s.mismatches).sum();
    let rps = requests as f64 / window.as_secs_f64();
    Json::obj([
        ("phase", Json::from(label)),
        ("instances", Json::from(instances as u64)),
        ("requests", Json::from(requests)),
        ("requests_per_sec", Json::from((rps * 10.0).round() / 10.0)),
        ("p50_us", Json::from(percentile(0.50))),
        ("p99_us", Json::from(percentile(0.99))),
        (
            "cache_hit_rate",
            Json::from(if requests > 0 {
                (hits as f64 / requests as f64 * 1e4).round() / 1e4
            } else {
                0.0
            }),
        ),
        ("errors", Json::from(errors)),
        ("body_mismatches", Json::from(mismatches)),
    ])
}

const FLEET_USAGE: &str = "usage: popgame fleet [--instances N] [--keys K] [--clients C] \
     [--window-ms MS] [--quick] [--out PATH]";

/// `popgame fleet` — spawn, route, rebalance, measure (see the module
/// docs for the phase semantics).
///
/// # Errors
///
/// Usage errors on malformed flags; runtime errors when instances fail
/// to spawn, warm, or answer.
pub fn fleet(args: &[String]) -> Result<(), CliError> {
    let mut instances = 3usize;
    let mut keys = 64usize;
    let mut clients = 4usize;
    let mut window = Duration::from_millis(1000);
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => {
                println!("{FLEET_USAGE}");
                return Ok(());
            }
            "--quick" => {
                quick = true;
                instances = 2;
                keys = 16;
                clients = 2;
                window = Duration::from_millis(300);
            }
            "--instances" => {
                instances = take_value(&mut it, "--instances")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--instances: {e}")))?;
            }
            "--keys" => {
                keys = take_value(&mut it, "--keys")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--keys: {e}")))?;
            }
            "--clients" => {
                clients = take_value(&mut it, "--clients")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--clients: {e}")))?;
            }
            "--window-ms" => {
                let ms: u64 = take_value(&mut it, "--window-ms")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--window-ms: {e}")))?;
                window = Duration::from_millis(ms);
            }
            "--out" => out_path = Some(take_value(&mut it, "--out")?),
            other => return usage(format!("unknown flag {other}\n{FLEET_USAGE}")),
        }
    }
    if !(1..=16).contains(&instances) {
        return usage("--instances must be in 1..=16");
    }
    if keys == 0 || clients == 0 {
        return usage("--keys and --clients must be >= 1");
    }

    // Boot the base fleet plus the instance the add phase will join.
    let mut fleet: Vec<Instance> = Vec::new();
    for i in 0..=instances {
        fleet.push(
            Instance::spawn().map_err(|e| CliError::Runtime(format!("instance {i}: {e}")))?,
        );
    }
    let joiner = fleet.pop().expect("spawned instances+1");
    let base_ids: Vec<String> = fleet.iter().map(|inst| inst.addr.clone()).collect();
    eprintln!(
        "fleet: {} instances up ({}), +1 standby ({})",
        fleet.len(),
        base_ids.join(", "),
        joiner.addr
    );

    let work = workload(keys);
    let ring = HashRing::with_nodes(base_ids.iter().cloned(), DEFAULT_VNODES);

    // Warm every key through the ring and pin the expected bytes. The
    // expected body is instance-independent — that's the determinism
    // contract this bench re-verifies on every subsequent response.
    let mut expected: HashMap<String, String> = HashMap::new();
    let mut warm_connections: HashMap<String, Client> = HashMap::new();
    for (canonical, body) in &work {
        let node = ring.route(canonical).expect("non-empty ring");
        let client = match warm_connections.entry(node.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(
                Client::connect(node)
                    .map_err(|e| CliError::Runtime(format!("connecting {node}: {e}")))?,
            ),
        };
        let reply = client
            .request("POST", "/simulate", body)
            .map_err(|e| CliError::Runtime(format!("warming {node}: {e}")))?;
        if reply.status != 200 {
            return Err(CliError::Runtime(format!(
                "warm request got {}: {}",
                reply.status, reply.body
            )));
        }
        expected.insert(canonical.clone(), reply.body);
    }
    drop(warm_connections);

    // Phase 1: the warmed base fleet.
    let steady = summarize(
        "steady",
        ring.len(),
        run_phase(&ring, &work, &expected, clients, window),
        window,
    );

    // Phase 2: one shard joins; only its arcs' keys miss (and re-warm).
    let mut grown = ring.clone();
    grown.add(joiner.addr.clone());
    let moved_on_add = work
        .iter()
        .filter(|(canonical, _)| ring.route(canonical) != grown.route(canonical))
        .count();
    let add_shard = summarize(
        "add-shard",
        grown.len(),
        run_phase(&grown, &work, &expected, clients, window),
        window,
    );

    // Phase 3: the joiner leaves; keys return to their warm owners.
    let mut shrunk = grown.clone();
    shrunk.remove(&joiner.addr);
    joiner.shutdown();
    let remove_shard = summarize(
        "remove-shard",
        shrunk.len(),
        run_phase(&shrunk, &work, &expected, clients, window),
        window,
    );

    for instance in fleet {
        instance.shutdown();
    }

    let mismatches = [&steady, &add_shard, &remove_shard]
        .iter()
        .map(|p| p.get("body_mismatches").and_then(Json::as_u64).unwrap_or(u64::MAX))
        .sum::<u64>();
    let fleet_doc = Json::obj([
        ("instances", Json::from(instances as u64)),
        ("keys", Json::from(keys as u64)),
        ("clients", Json::from(clients as u64)),
        ("window_ms", Json::from(window.as_millis() as u64)),
        ("quick", Json::from(quick)),
        (
            "moved_keys_on_add",
            Json::obj([
                ("moved", Json::from(moved_on_add as u64)),
                ("total", Json::from(keys as u64)),
            ]),
        ),
        ("steady", steady),
        ("add_shard", add_shard),
        ("remove_shard", remove_shard),
        ("byte_identical", Json::from(mismatches == 0)),
    ]);

    if let Some(path) = &out_path {
        std::fs::write(path, fleet_doc.pretty())
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
    }
    println!("{}", fleet_doc.pretty());

    if mismatches > 0 {
        return Err(CliError::Runtime(format!(
            "fleet responses were not byte-identical ({mismatches} mismatches)"
        )));
    }
    Ok(())
}
