//! `serve-mix`: one operation is one request from a seeded stream, sent
//! over a keep-alive connection to a fresh `popgamed` process. `nproc`
//! connections each run a closed loop: a connection sends its next
//! request only after the previous reply has arrived, so at most `nproc`
//! requests are ever in flight and latency measures service time, not a
//! queue.
//!
//! About 95% of requests are hot reads of keys warmed during set-up:
//! `/simulate` and `/solve` bodies, `GET /scenarios`, and the JSON and
//! Markdown artifacts of a quick report. About 5% are cold `/simulate`
//! writes at n = 10³–10⁵ with fresh seeds. Every hot reply must equal the
//! body recorded for its key during warm-up; cold replies are checked for
//! shape, and a sample of them is recomputed in-process after the window.
//!
//! The traced run (`--trace 1`) serves the same stream from an in-process
//! `PopgameService` (the library `popgamed` wraps) with span tracing on,
//! because the daemon binary has no tracing switch. Handler time comes
//! from its `http:` spans; the api, cache and execute layers are timed by
//! replaying the traced requests through the service crate's public
//! functions.

use crate::stats::{self, median, quantile, us, Counters};
use crate::{Args, Outcome};
use popgame_obs::metrics::{parse_exposition, registry};
use popgame_obs::trace::{self, Family};
use popgame_report::render::{report_json, report_markdown};
use popgame_report::run_report;
use popgame_service::api::{
    artifact_key, execute_simulate, execute_solve, ReproduceRequest, SimulateRequest, SolveRequest,
};
use popgame_service::cache::ResultCache;
use popgame_service::{PopgameService, ServiceConfig};
use popgame_solver::scenarios::{registry as scenario_registry, registry_listing};
use popgame_util::json::Json;
use popgame_util::rng::{derive_seed, stream_rng};
use rand::Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Share of requests that are cold `/simulate` writes.
const COLD_SHARE: f64 = 0.05;

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// `peak_rss_mb` is read from the daemon once this many cold writes have
/// been answered, so it measures a fixed amount of cached work however
/// fast the window ran.
const RSS_AFTER_COLD: u64 = 1_000;

/// Cold replies per connection recomputed in-process after the window.
const COLD_VERIFY: usize = 3;

/// Per-thread span ring capacity for the traced half of the window.
const TRACE_CAPACITY: usize = 1 << 16;

/// Population size of the hot `/simulate` keys.
const HOT_N: u64 = 2_000;

/// Hot `/simulate` keys: (scenario, dynamics).
const HOT_SIMULATE: [(&str, &str); 8] = [
    ("hawk-dove", "best-response"),
    ("rock-paper-scissors", "logit"),
    ("stag-hunt", "best-response"),
    ("coordination", "logit"),
    ("hawk-dove", "pairwise-imitation"),
    ("prisoners-dilemma", "k-igt"),
    ("shapley-cycle", "br-sample"),
    ("rock-paper-scissors", "best-response"),
];

/// Cold `/simulate` dynamics, with the scenarios each may run on.
const COLD_DYNAMICS: [(&str, &[&str]); 4] = [
    (
        "best-response",
        &[
            "hawk-dove",
            "rock-paper-scissors",
            "coordination",
            "shapley-cycle",
        ],
    ),
    (
        "logit",
        &[
            "hawk-dove",
            "rock-paper-scissors",
            "coordination",
            "shapley-cycle",
        ],
    ),
    (
        "pairwise-imitation",
        &[
            "hawk-dove",
            "rock-paper-scissors",
            "coordination",
            "shapley-cycle",
        ],
    ),
    ("k-igt", &["prisoners-dilemma"]),
];

fn daemon_flags() -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--http-workers",
        "4",
        "--job-workers",
        "1",
        "--queue-depth",
        "128",
        "--allow-remote-shutdown",
        "--workers",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([stats::nproc().to_string()])
    .collect()
}

/// One request of the stream.
#[derive(Clone)]
struct Request {
    method: &'static str,
    path: String,
    body: String,
    /// Index into the hot table; `None` for a cold write.
    hot: Option<usize>,
}

impl Request {
    fn get(path: String) -> Request {
        Request {
            method: "GET",
            path,
            body: String::new(),
            hot: None,
        }
    }

    fn post(path: &str, body: String) -> Request {
        Request {
            method: "POST",
            path: path.to_string(),
            body,
            hot: None,
        }
    }
}

/// Seeds kept below 2⁵³ so every JSON reader round-trips them.
fn json_seed(seed: u64, stream: u64) -> u64 {
    derive_seed(seed, stream) >> 12
}

/// The warmed key set. A hot read picks one of these uniformly.
fn hot_set(seed: u64, artifact: &str) -> Vec<Request> {
    let mut requests = Vec::new();
    for (j, (scenario, dynamics)) in HOT_SIMULATE.iter().enumerate() {
        let body = format!(
            "{{\"scenario\":\"{scenario}\",\"dynamics\":\"{dynamics}\",\"n\":{HOT_N},\
             \"replicas\":2,\"seed\":{}}}",
            json_seed(seed, 100 + j as u64)
        );
        requests.push(Request::post("/simulate", body));
    }
    for scenario in scenario_registry() {
        let body = format!("{{\"scenario\":\"{}\"}}", scenario.name());
        requests.push(Request::post("/solve", body));
    }
    requests.push(Request::get("/scenarios".into()));
    requests.push(Request::get(format!("/artifacts/{artifact}")));
    requests.push(Request::get(format!("/artifacts/{artifact}.md")));
    for (index, request) in requests.iter_mut().enumerate() {
        request.hot = Some(index);
    }
    requests
}

/// A connection's seeded request stream.
struct Stream {
    rng: rand::rngs::SmallRng,
    conn: u64,
    index: u64,
}

impl Stream {
    fn new(seed: u64, conn: u64) -> Stream {
        Stream {
            rng: stream_rng(seed, 1_000 + conn),
            conn,
            index: 0,
        }
    }

    fn next(&mut self, hot: &[Request]) -> Request {
        self.index += 1;
        if self.rng.gen::<f64>() < COLD_SHARE {
            let (dynamics, scenarios) = COLD_DYNAMICS[self.rng.gen_range(0..COLD_DYNAMICS.len())];
            let scenario = scenarios[self.rng.gen_range(0..scenarios.len())];
            let n = 10f64.powf(3.0 + 2.0 * self.rng.gen::<f64>()).round() as u64;
            // Unique within the run, so every cold write misses the cache.
            let seed = (1u64 << 40) + (self.conn << 32) + self.index;
            let body = format!(
                "{{\"scenario\":\"{scenario}\",\"dynamics\":\"{dynamics}\",\"n\":{n},\
                 \"replicas\":2,\"seed\":{seed}}}"
            );
            return Request::post("/simulate", body);
        }
        hot[self.rng.gen_range(0..hot.len())].clone()
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

struct Reply {
    status: u16,
    request_id: String,
    body: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn {
            addr,
            stream,
            reader,
        })
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Conn::connect(self.addr)?;
        Ok(())
    }

    fn send(&mut self, request: &Request) -> std::io::Result<Reply> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut wire = format!(
            "{} {} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            request.method,
            request.path,
            request.body.len()
        );
        wire.push_str(&request.body);
        self.stream.write_all(wire.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut request_id = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').ok_or_else(|| bad("bad header"))?;
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-popgame-request-id") {
                request_id = value.trim().to_string();
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
        Ok(Reply {
            status,
            request_id,
            body,
        })
    }
}

/// A `popgamed` child process; killed and reaped if not shut down.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn boot(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(daemon_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("popgamed did not report its address: {line:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = Conn::connect(self.addr)
            .and_then(|mut c| c.send(&Request::post("/shutdown", String::new())));
        let deadline = Instant::now() + Duration::from_secs(20);
        while sent.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("popgamed exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("popgamed did not shut down".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The key set warmed on a fresh server, with the body of each key.
struct Warm {
    hot: Vec<Request>,
    expected: Vec<String>,
    reproduce_body: String,
}

/// Set-up on a fresh server: a quick report through `POST /reproduce`,
/// then one request per hot key, recording each body.
fn warm(addr: SocketAddr, seed: u64) -> Result<Warm, String> {
    let io = |e: std::io::Error| format!("warm-up: {e}");
    let mut conn = Conn::connect(addr).map_err(io)?;
    let reproduce_body = format!("{{\"preset\":\"quick\",\"seed\":{}}}", json_seed(seed, 7));
    let submitted = conn
        .send(&Request::post("/reproduce", reproduce_body.clone()))
        .map_err(io)?;
    let doc = Json::parse(&submitted.body).map_err(|e| e.to_string())?;
    let (Some(job), Some(artifact)) = (
        doc.get("job_id").and_then(Json::as_u64),
        doc.get("artifact").and_then(Json::as_str),
    ) else {
        return Err(format!(
            "POST /reproduce answered {}: {}",
            submitted.status, submitted.body
        ));
    };
    loop {
        let reply = conn
            .send(&Request::get(format!("/jobs/{job}")))
            .map_err(io)?;
        let status = Json::parse(&reply.body)
            .ok()
            .and_then(|d| d.get("status").and_then(Json::as_str).map(str::to_string));
        match status.as_deref() {
            Some("done") => break,
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(2)),
            _ => return Err(format!("reproduce job {job}: {}", reply.body)),
        }
    }
    let hot = hot_set(seed, artifact);
    let mut expected = Vec::with_capacity(hot.len());
    for request in &hot {
        let reply = conn.send(request).map_err(io)?;
        if reply.status != 200 {
            return Err(format!(
                "warm-up {} {} answered {}: {}",
                request.method, request.path, reply.status, reply.body
            ));
        }
        expected.push(reply.body);
    }
    Ok(Warm {
        hot,
        expected,
        reproduce_body,
    })
}

/// One completed (or failed) request of the timed window.
struct Sample {
    latency_us: f64,
    request: Request,
    request_id: String,
    ok: bool,
}

/// What the connections saw in one window.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    elapsed: Duration,
    overloaded: u64,
    conn_errors: u64,
    failures: Vec<String>,
    cold_checks: Vec<(String, String)>,
    /// The server's peak RSS once `RSS_AFTER_COLD` cold writes were sent.
    rss_mb: Option<f64>,
}

/// Runs `conns` closed-loop connections for `window`. Connection `c`
/// draws stream `first_stream + c`, so windows with distinct stream
/// ranges send distinct cold writes. With `server_pid`, the server's
/// peak RSS is read once the `RSS_AFTER_COLD`-th cold write returns.
fn drive(
    addr: SocketAddr,
    warm: &Warm,
    seed: u64,
    window: Duration,
    conns: usize,
    first_stream: usize,
    server_pid: Option<u32>,
) -> Window {
    let started = Instant::now();
    let cold_sent = AtomicU64::new(0);
    let rss = OnceLock::new();
    let per_conn: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (cold_sent, rss) = (&cold_sent, &rss);
                scope.spawn(move || {
                    let mut result = Window::default();
                    let mut stream = Stream::new(seed, (first_stream + c) as u64);
                    let mut conn = match Conn::connect(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            result.conn_errors += 1;
                            result.failures.push(format!("connect: {e}"));
                            return result;
                        }
                    };
                    while started.elapsed() < window {
                        let request = stream.next(&warm.hot);
                        let t0 = Instant::now();
                        let reply = conn.send(&request);
                        let latency_us = us(t0.elapsed());
                        if let (None, Some(pid)) = (request.hot, server_pid) {
                            if cold_sent.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_COLD {
                                let _ = rss.set(stats::peak_rss_mb(Some(pid)));
                            }
                        }
                        let (ok, request_id) = match reply {
                            Ok(reply) => {
                                let verdict = judge(&request, &reply, warm);
                                if reply.status == 503 {
                                    result.overloaded += 1;
                                }
                                if let Err(why) = &verdict {
                                    result.failures.push(why.clone());
                                } else if request.hot.is_none()
                                    && result.cold_checks.len() < COLD_VERIFY
                                {
                                    result.cold_checks.push((request.body.clone(), reply.body));
                                }
                                (verdict.is_ok(), reply.request_id)
                            }
                            Err(e) => {
                                result.conn_errors += 1;
                                result
                                    .failures
                                    .push(format!("{} {}: {e}", request.method, request.path));
                                if conn.reconnect().is_err() {
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                                (false, String::new())
                            }
                        };
                        result.samples.push(Sample {
                            latency_us,
                            request,
                            request_id,
                            ok,
                        });
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = Window {
        elapsed: started.elapsed(),
        rss_mb: rss.into_inner().and_then(Result::ok),
        ..Window::default()
    };
    for w in per_conn {
        total.samples.extend(w.samples);
        total.overloaded += w.overloaded;
        total.conn_errors += w.conn_errors;
        total.failures.extend(w.failures);
        total.cold_checks.extend(w.cold_checks);
    }
    total
}

/// Checks one reply: hot bodies must equal the warm-up body; cold
/// bodies must be a simulate document echoing the request.
fn judge(request: &Request, reply: &Reply, warm: &Warm) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "{} {} answered {}",
            request.method, request.path, reply.status
        ));
    }
    match request.hot {
        Some(index) if reply.body != warm.expected[index] => Err(format!(
            "{} {}: body differs from its warm-up body",
            request.method, request.path
        )),
        Some(_) => Ok(()),
        None => {
            let sent = Json::parse(&request.body).map_err(|e| e.to_string())?;
            let got = Json::parse(&reply.body).map_err(|e| format!("cold reply: {e}"))?;
            let echo = |key: &str| {
                got.get(key).and_then(Json::as_u64) == sent.get(key).and_then(Json::as_u64)
            };
            let mass: f64 = got
                .get("mean_frequencies")
                .and_then(Json::as_array)
                .map_or(0.0, |f| f.iter().filter_map(Json::as_f64).sum());
            if echo("n") && echo("seed") && (mass - 1.0).abs() < 1e-6 {
                Ok(())
            } else {
                Err(format!("cold reply does not answer {}", request.body))
            }
        }
    }
}

/// Counts one window's requests and failures into the outcome.
fn account(out: &mut Outcome, window: &Window) {
    out.attempted += window.samples.len() as u64;
    for why in &window.failures {
        out.fail(why.clone());
    }
    // A connection error that prevented a request still failed it.
    let unsent =
        window.failures.len() as u64 - window.samples.iter().filter(|s| !s.ok).count() as u64;
    out.attempted += unsent;
}

fn simulate_doc(body: &str) -> Result<Json, String> {
    let doc = Json::parse(body).map_err(|e| e.to_string())?;
    execute_simulate(&SimulateRequest::from_json(&doc)?, &AtomicBool::new(false))
}

fn solve_doc(body: &str) -> Result<Json, String> {
    let doc = Json::parse(body).map_err(|e| e.to_string())?;
    execute_solve(&SolveRequest::from_json(&doc)?)
}

/// Recomputes the warmed bodies and the sampled cold replies in-process
/// and compares bytes: the daemon must serve what the library computes.
fn verify(out: &mut Outcome, warm: &Warm, cold: &[(String, String)]) -> Result<(), String> {
    let mut compare = |what: String, got: String, want: &str| {
        out.attempted += 1;
        if got != want {
            out.fail(format!(
                "{what}: daemon bytes differ from the in-process result"
            ));
        }
    };
    let reproduce = Json::parse(&warm.reproduce_body).map_err(|e| e.to_string())?;
    let report = run_report(&ReproduceRequest::from_json(&reproduce)?.config())?;
    for (request, want) in warm.hot.iter().zip(&warm.expected) {
        let got = match (request.method, request.path.as_str()) {
            ("POST", "/simulate") => simulate_doc(&request.body)?.encode(),
            ("POST", _) => solve_doc(&request.body)?.encode(),
            (_, "/scenarios") => registry_listing().encode(),
            (_, path) if path.ends_with(".md") => report_markdown(&report),
            _ => report_json(&report),
        };
        compare(format!("{} {}", request.method, request.path), got, want);
    }
    for (body, want) in cold {
        compare(
            format!("cold /simulate {body}"),
            simulate_doc(body)?.encode(),
            want,
        );
    }
    Ok(())
}

/// A counter's total over all its label sets in a metrics exposition.
fn exposition_total(text: &str, name: &str) -> Result<f64, String> {
    Ok(parse_exposition(text)?
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |total, s| total + s.value))
}

/// A counter's total in this process's metrics registry.
fn registry_value(name: &str) -> Result<f64, String> {
    exposition_total(&registry().render(), name)
}

fn latencies(window: &Window) -> Vec<f64> {
    window.samples.iter().map(|s| s.latency_us).collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let conns = stats::nproc();
    let mut out = Outcome::default();
    out.note(format!(
        "workload: {{\"reason\": \"callers of the daemon wait for each reply, and hot reads and \
         cold writes use the cache in opposite ways\", \"connections\": {conns}, \"nproc\": {}, \
         \"client_threads\": {conns}, \"daemon_flags\": {:?}, \"cold_share\": {COLD_SHARE}, \
         \"traced_server\": {}, \"seed\": {}}}",
        stats::nproc(),
        daemon_flags().join(" "),
        if args.trace {
            "\"in-process PopgameService\""
        } else {
            "null"
        },
        args.seed
    ));
    if args.trace {
        return run_traced(args, conns, out);
    }
    let binary = args
        .popgamed
        .as_deref()
        .ok_or("serve-mix needs --popgamed PATH")?;

    // Set-up: the daemon boots and the hot key set is warmed. The last
    // of the repetitions serves the timed window.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    for _ in 0..SETUP_REPS {
        if let Some((daemon, _)) = served.take() {
            Daemon::shutdown(daemon)?;
        }
        let started = Instant::now();
        let daemon = Daemon::boot(binary)?;
        let warmed = warm(daemon.addr, args.seed)?;
        setup.push(started.elapsed().as_secs_f64());
        served = Some((daemon, warmed));
    }
    let (daemon, warmed) = served.expect("at least one set-up");

    let window = drive(
        daemon.addr,
        &warmed,
        args.seed,
        args.window,
        conns,
        0,
        Some(daemon.pid()),
    );
    account(&mut out, &window);
    let rss = match window.rss_mb {
        Some(rss) => rss,
        None => {
            out.note(format!(
                "fewer than {RSS_AFTER_COLD} cold writes: peak RSS read at the end"
            ));
            stats::peak_rss_mb(Some(daemon.pid()))?
        }
    };
    let metrics = Conn::connect(daemon.addr)
        .and_then(|mut c| c.send(&Request::get("/metrics".into())))
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let rejected = exposition_total(&metrics.body, "popgame_http_rejected_total")?;
    let parse_errors = exposition_total(&metrics.body, "popgame_http_parse_errors_total")?;
    daemon.shutdown()?;
    verify(&mut out, &warmed, &window.cold_checks)?;

    let lat = latencies(&window);
    let ok = window.samples.iter().filter(|s| s.ok).count();
    let cold: Vec<f64> = window
        .samples
        .iter()
        .filter(|s| s.request.hot.is_none())
        .map(|s| s.latency_us / 1e3)
        .collect();
    out.note(format!(
        "{} requests ({} cold) in {:.3} s over {conns} connections; setup reps {setup:?} s",
        lat.len(),
        cold.len(),
        window.elapsed.as_secs_f64()
    ));
    out.note(format!(
        "p99_ms = {} ms ({} samples beyond it); cold p50_ms = {} ms",
        quantile(&lat, 0.99) / 1e3,
        lat.len() / 100,
        median(&cold)
    ));
    out.note(format!(
        "daemon counters: http.rejected = {rejected}, http.parse_errors = {parse_errors}; \
         client saw {} 503s and {} connection errors",
        window.overloaded, window.conn_errors
    ));
    if rejected > 0.0 || parse_errors > 0.0 {
        out.fail(format!(
            "daemon rejected {rejected} and failed to parse {parse_errors} requests"
        ));
    }
    out.set("setup_s", median(&setup));
    out.set("peak_rss_mb", rss);
    let lat_ms: Vec<f64> = lat.iter().map(|us| us / 1e3).collect();
    stats::set_latency(&mut out, "request latency", &lat_ms);
    out.set("goodput_per_s", ok as f64 / window.elapsed.as_secs_f64());
    Ok(out)
}

fn run_traced(args: &Args, conns: usize, mut out: Outcome) -> Result<Outcome, String> {
    let service = PopgameService::start(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        http_workers: 4,
        job_workers: 1,
        queue_depth: 128,
        sim_workers: Some(stats::nproc()),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("binding the in-process service: {e}"))?;
    let addr = service.local_addr();
    let warmed = warm(addr, args.seed)?;

    let plain = drive(addr, &warmed, args.seed, args.window / 2, conns, 0, None);
    account(&mut out, &plain);
    let before = Counters::read();
    let (hits, misses) = (service.state().cache.hits(), service.state().cache.misses());
    let rejected = registry_value("popgame_http_rejected_total")?;
    let parse_errors = registry_value("popgame_http_parse_errors_total")?;
    trace::enable_with_capacity(TRACE_CAPACITY);
    // Fresh streams for the traced half, so its cold writes miss too.
    let traced = drive(
        addr,
        &warmed,
        args.seed,
        args.window / 2,
        conns,
        conns,
        None,
    );
    trace::disable();
    let snapshot = trace::drain();
    let counters = Counters::read().since(&before);
    let lookups = (service.state().cache.hits() - hits) + (service.state().cache.misses() - misses);
    out.set(
        "cache.hit_ratio",
        (service.state().cache.hits() - hits) as f64 / lookups.max(1) as f64,
    );
    out.set(
        "http.rejected",
        registry_value("popgame_http_rejected_total")? - rejected,
    );
    out.set(
        "http.parse_errors",
        registry_value("popgame_http_parse_errors_total")? - parse_errors,
    );
    service.shutdown();
    account(&mut out, &traced);
    counters.report(&mut out, traced.samples.len() as f64);
    out.set(
        "runner.utilization",
        stats::utilization(&snapshot, popgame_runner::worker_threads()),
    );

    // Handler time per request, from the service's `http:` spans, keyed
    // by the trace id the request id maps to.
    let handler_us: HashMap<u64, f64> = snapshot
        .events
        .iter()
        .filter(|e| e.cat == Family::Service && e.name.starts_with("http:"))
        .map(|e| (e.trace, e.end_ns.saturating_sub(e.start_ns) as f64 / 1e3))
        .collect();
    let replay = Replay::run(&warmed, &traced, args.window / 4)?;
    let mut overhead = Vec::new();
    let mut unattributed = Vec::new();
    for (sample, layers) in traced.samples.iter().zip(&replay.per_request) {
        let Some(handler) = handler_us.get(&trace::trace_id_from_request(&sample.request_id))
        else {
            continue;
        };
        overhead.push(sample.latency_us - handler);
        if let Some(layers) = layers {
            unattributed.push((handler - layers) / 1e3);
        }
    }
    out.set("http.overhead_us.p50", median(&overhead));
    out.set("http.overhead_us.p99", quantile(&overhead, 0.99));
    out.set("unattributed_ms", median(&unattributed));
    out.set("api.canonical_us.p50", median(&replay.canonical_us));
    out.set("api.encode_us.p50", median(&replay.encode_us));
    out.set("cache.get_us.p50", median(&replay.get_us));
    out.set("cache.insert_us.p50", median(&replay.insert_us));
    out.set("sim.cold_ms.p50", median(&replay.cold_ms));
    out.set("solver.solve_us.p50", median(&replay.solve_us));
    let (plain_p50, traced_p50) = (median(&latencies(&plain)), median(&latencies(&traced)));
    out.set("trace_overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0);
    out.note(format!(
        "p50_us untraced {plain_p50} over {} requests, traced {traced_p50} over {} requests; \
         {} of {} traced requests matched an http span, {} replayed in full; {} spans dropped",
        plain.samples.len(),
        traced.samples.len(),
        overhead.len(),
        traced.samples.len(),
        unattributed.len(),
        snapshot.dropped
    ));
    Ok(out)
}

/// In-process replay of the traced requests through the service crate's
/// public request, cache and execute functions, mirroring the daemon's
/// cached-endpoint path (canonicalize, look up, on a miss execute, encode
/// and insert).
#[derive(Default)]
struct Replay {
    canonical_us: Vec<f64>,
    get_us: Vec<f64>,
    insert_us: Vec<f64>,
    encode_us: Vec<f64>,
    cold_ms: Vec<f64>,
    solve_us: Vec<f64>,
    /// Per traced request: the µs its replayed layers took, or `None`
    /// when a cold execution fell outside the replay budget.
    per_request: Vec<Option<f64>>,
}

impl Replay {
    fn run(warm: &Warm, window: &Window, budget: Duration) -> Result<Replay, String> {
        let mut replay = Replay::default();
        let cache = ResultCache::new(16);
        let artifact_id = |path: &str| {
            let rest = path.trim_start_matches("/artifacts/");
            match rest.strip_suffix(".md") {
                Some(id) => artifact_key(id, "md"),
                None => artifact_key(rest, "json"),
            }
        };
        for (request, body) in warm.hot.iter().zip(&warm.expected) {
            let key = match request.method {
                "POST" => canonical(request)?,
                _ if request.path.starts_with("/artifacts/") => artifact_id(&request.path),
                _ => continue,
            };
            cache.insert(key, Arc::new(body.clone()));
        }
        for request in warm.hot.iter().filter(|r| r.path == "/solve") {
            for _ in 0..5 {
                let doc = Json::parse(&request.body).map_err(|e| e.to_string())?;
                let solve = SolveRequest::from_json(&doc)?;
                let t0 = Instant::now();
                execute_solve(&solve)?;
                replay.solve_us.push(us(t0.elapsed()));
            }
        }
        let started = Instant::now();
        for sample in &window.samples {
            let request = &sample.request;
            let mut spent = 0.0;
            let key = if request.method == "POST" {
                let t0 = Instant::now();
                let key = canonical(request)?;
                let canonical_us = us(t0.elapsed());
                replay.canonical_us.push(canonical_us);
                spent += canonical_us;
                Some(key)
            } else if request.path.starts_with("/artifacts/") {
                Some(artifact_id(&request.path))
            } else {
                None
            };
            let Some(key) = key else {
                replay.per_request.push(Some(spent));
                continue;
            };
            let t0 = Instant::now();
            let found = cache.get(&key);
            let get_us = us(t0.elapsed());
            replay.get_us.push(get_us);
            spent += get_us;
            if found.is_some() {
                replay.per_request.push(Some(spent));
                continue;
            }
            if started.elapsed() > budget {
                replay.per_request.push(None);
                continue;
            }
            let t0 = Instant::now();
            let doc = simulate_doc(&request.body)?;
            let cold = t0.elapsed();
            let t1 = Instant::now();
            let body = Arc::new(doc.encode());
            let encode_us = us(t1.elapsed());
            let t2 = Instant::now();
            cache.insert(key, body);
            let insert_us = us(t2.elapsed());
            replay.cold_ms.push(cold.as_secs_f64() * 1e3);
            replay.encode_us.push(encode_us);
            replay.insert_us.push(insert_us);
            replay
                .per_request
                .push(Some(spent + us(cold) + encode_us + insert_us));
        }
        Ok(replay)
    }
}

/// Parses a POST body and returns its canonical key.
fn canonical(request: &Request) -> Result<String, String> {
    let doc = Json::parse(&request.body).map_err(|e| e.to_string())?;
    if request.path == "/simulate" {
        Ok(SimulateRequest::from_json(&doc)?.canonical())
    } else {
        Ok(SolveRequest::from_json(&doc)?.canonical())
    }
}
