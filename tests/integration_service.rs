//! End-to-end integration test for `popgamed`: boots the service on an
//! ephemeral loopback port and exercises every endpoint over real TCP —
//! health, registry, solve, simulate, async jobs with polling and
//! cancellation, malformed-request 400s, queue-overflow 503s, and the
//! byte-identity of cache hits (including across fresh instances, the
//! determinism contract end to end).

use popgame_service::http::{Client, Reply};
use popgame_service::{PopgameService, ServiceConfig};
use popgame_util::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The job id of a `202 Accepted` submission.
fn job_id(submitted: &Reply) -> u64 {
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    Json::parse(&submitted.body).unwrap().get("job_id").unwrap().as_u64().unwrap()
}

const SIM: &str =
    r#"{"scenario":"rock-paper-scissors","n":500,"interactions":10000,"replicas":2,"seed":11}"#;

#[test]
fn every_endpoint_over_real_tcp() {
    let service = PopgameService::start(ServiceConfig::default()).expect("start");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    // --- health and registry ---
    let reply = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(reply.status, 200);
    let health = Json::parse(&reply.body).expect("healthz is JSON");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let reply = client.request("GET", "/scenarios", "").unwrap();
    assert_eq!(reply.status, 200);
    let listing = Json::parse(&reply.body).expect("listing is JSON");
    let names: Vec<&str> = listing
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    for expected in ["prisoners-dilemma", "hawk-dove", "rock-paper-scissors", "stag-hunt"] {
        assert!(names.contains(&expected), "{names:?}");
    }

    // --- solve: by scenario and by explicit game ---
    let reply = client.request("POST", "/solve", r#"{"scenario":"hawk-dove"}"#).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let solved = Json::parse(&reply.body).unwrap();
    assert_eq!(solved.get("equilibria").unwrap().as_array().unwrap().len(), 3);
    let game = r#"{"game":{"kind":"zero-sum","row":[[1.0,-1.0],[-1.0,1.0]]}}"#;
    let reply = client.request("POST", "/solve", game).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let solved = Json::parse(&reply.body).unwrap();
    let value = solved.get("minimax").unwrap().get("value").unwrap().as_f64().unwrap();
    assert!(value.abs() < 1e-9, "matching pennies has value 0, got {value}");

    // --- simulate: cold, then a byte-identical cache hit ---
    let cold = client.request("POST", "/simulate", SIM).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-popgame-cache"), Some("miss"));
    let warm = client.request("POST", "/simulate", SIM).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-popgame-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "cache hits must be byte-identical to cold responses");
    // Spelled differently (field order, explicit defaults) — same
    // canonical request, so still a hit with the same bytes.
    let reordered =
        r#"{"seed":11,"replicas":2,"n":500,"scenario":"rock-paper-scissors","interactions":10000,"dynamics":"best-response"}"#;
    let reply = client.request("POST", "/simulate", reordered).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-popgame-cache"), Some("hit"));
    assert_eq!(cold.body, reply.body);

    // --- malformed requests: 400 with an error envelope ---
    for (path, bad_body) in [
        ("/simulate", "not json at all"),
        ("/simulate", r#"{"scenario":"no-such-scenario"}"#),
        ("/simulate", r#"{"scenario":"hawk-dove","n":1}"#),
        ("/simulate", r#"{"scenario":"hawk-dove","typo":true}"#),
        ("/simulate", r#"{"scenario":"matching-pennies"}"#), // asymmetric
        // Over the synchronous work budget: must be routed via /jobs.
        (
            "/simulate",
            r#"{"scenario":"hawk-dove","interactions":1000000000,"replicas":256}"#,
        ),
        ("/simulate", ""),
        ("/solve", r#"{"game":{"kind":"warfare","row":[[1.0]]}}"#),
        ("/solve", r#"{"game":{"kind":"symmetric","row":[[1.0,2.0]]}}"#), // non-square
        ("/jobs", r#"{"kind":"mystery"}"#),
    ] {
        let reply = client.request("POST", path, bad_body).unwrap();
        assert_eq!(reply.status, 400, "{path} {bad_body:?} -> {}", reply.body);
        let doc = Json::parse(&reply.body).expect("error envelope is JSON");
        assert!(doc.get("error").is_some(), "{}", reply.body);
    }

    // --- routing: 404 and 405 ---
    assert_eq!(client.request("GET", "/nope", "").unwrap().status, 404);
    assert_eq!(client.request("POST", "/healthz", "").unwrap().status, 405);
    assert_eq!(client.request("GET", "/simulate", "").unwrap().status, 405);
    assert_eq!(client.request("PUT", "/jobs/1", "").unwrap().status, 405);

    // --- async jobs: submit, poll, result matches the sync body ---
    let id = job_id(&client.request("POST", "/jobs", SIM).unwrap());
    let done = client.wait_for_job(id, |_| {}).unwrap();
    assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
    let result = done.get("result").expect("done jobs embed their result");
    assert_eq!(result.encode(), Json::parse(&cold.body).unwrap().encode());
    // Solve jobs work too — by scenario name and by explicit game.
    let submitted = client
        .request("POST", "/jobs", r#"{"kind":"solve","scenario":"stag-hunt"}"#)
        .unwrap();
    let done = client.wait_for_job(job_id(&submitted), |_| {}).unwrap();
    assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
    let submitted = client
        .request(
            "POST",
            "/jobs",
            r#"{"kind":"solve","game":{"kind":"zero-sum","row":[[1.0,-1.0],[-1.0,1.0]]}}"#,
        )
        .unwrap();
    let done = client.wait_for_job(job_id(&submitted), |_| {}).unwrap();
    assert_eq!(done.get("status").unwrap().as_str(), Some("done"), "{done:?}");
    let value = done
        .get("result")
        .unwrap()
        .get("minimax")
        .unwrap()
        .get("value")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(value.abs() < 1e-9);
    // Unknown and malformed job ids.
    assert_eq!(client.request("GET", "/jobs/99999", "").unwrap().status, 404);
    assert_eq!(client.request("GET", "/jobs/banana", "").unwrap().status, 400);

    // --- health reflects the traffic ---
    let health = Json::parse(&client.request("GET", "/healthz", "").unwrap().body).unwrap();
    assert!(health.get("cache").unwrap().get("entries").unwrap().as_u64().unwrap() >= 2);
    assert!(health.get("cache").unwrap().get("hits").unwrap().as_u64().unwrap() >= 2);
    assert!(health.get("jobs").unwrap().get("done").unwrap().as_u64().unwrap() >= 2);

    drop(client);
    service.shutdown();
}

#[test]
fn metrics_exposition_spans_every_layer() {
    let service = PopgameService::start(ServiceConfig::default()).expect("start");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    // Generate traffic across the layers: health, a cold + warm simulate
    // (engine + runner + cache), one async job (lifecycle counters), and
    // one malformed request (parse-error counter).
    assert_eq!(client.request("GET", "/healthz", "").unwrap().status, 200);
    let cold = client.request("POST", "/simulate", SIM).unwrap();
    assert_eq!(cold.status, 200);
    // Every response carries a correlation id for the structured logs.
    assert!(cold.header("x-popgame-request-id").is_some(), "{:?}", cold.headers);
    let warm = client.request("POST", "/simulate", SIM).unwrap();
    assert_eq!(cold.body, warm.body, "metrics must stay out-of-band of response bytes");
    assert_eq!(warm.header("x-popgame-cache"), Some("hit"));
    let id = job_id(&client.request("POST", "/jobs", SIM).unwrap());
    client.wait_for_job(id, |_| {}).unwrap();
    assert_eq!(client.request("POST", "/simulate", "not json").unwrap().status, 400);

    // --- the exposition itself ---
    let reply = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("text/plain; version=0.0.4"));
    let text = reply.body;
    let samples = popgame_obs::metrics::parse_exposition(&text)
        .expect("every exposition line parses");
    assert!(
        samples.len() >= 20,
        "expected >= 20 series, got {}",
        samples.len()
    );

    // Families spanning service, scheduler, and engine layers.
    let has = |name: &str| samples.iter().any(|s| s.name == name);
    for family in [
        // service
        "popgame_http_requests_total",
        "popgame_http_request_duration_us_bucket",
        "popgame_http_request_duration_us_count",
        "popgame_http_responses_total",
        "popgame_http_queue_depth",
        "popgame_http_in_flight",
        "popgame_cache_hits_total",
        "popgame_cache_misses_total",
        "popgame_cache_entries",
        "popgame_jobs_total",
        // scheduler
        "popgame_runner_tasks_total",
        "popgame_runner_pool_runs_total",
        "popgame_runner_pool_workers",
        // engine
        "popgame_engine_leaps_total",
        "popgame_engine_alias_rebuilds_total",
        // build identity & lifetime
        "popgame_build_info",
        "popgame_uptime_seconds",
    ] {
        assert!(has(family), "missing family {family} in exposition");
    }

    // Build info is the conventional constant-1 gauge with the crate
    // version as a label; uptime is a non-negative scrape-time gauge.
    let build_info = samples
        .iter()
        .find(|s| s.name == "popgame_build_info")
        .expect("build info series");
    assert_eq!(build_info.value, 1.0);
    assert!(
        build_info.label("version").is_some_and(|v| !v.is_empty()),
        "build info must carry a version label"
    );
    let uptime = samples
        .iter()
        .find(|s| s.name == "popgame_uptime_seconds")
        .expect("uptime series");
    assert!(uptime.value >= 0.0);

    // The endpoint counter reflects the traffic above.
    let simulate_requests = samples
        .iter()
        .find(|s| {
            s.name == "popgame_http_requests_total" && s.label("endpoint") == Some("simulate")
        })
        .expect("simulate series")
        .value;
    assert!(simulate_requests >= 3.0, "{simulate_requests}");
    // The server counts the warm hit the client saw in its headers.
    let cache_hits = samples
        .iter()
        .find(|s| s.name == "popgame_cache_hits_total")
        .expect("cache hits series")
        .value;
    assert!(cache_hits >= 1.0, "{cache_hits}");
    let done_jobs = samples
        .iter()
        .find(|s| s.name == "popgame_jobs_total" && s.label("state") == Some("done"))
        .expect("jobs done series")
        .value;
    assert!(done_jobs >= 1.0, "{done_jobs}");

    // Histogram buckets are cumulative (monotone non-decreasing in le).
    let mut last = 0.0;
    for s in samples.iter().filter(|s| {
        s.name == "popgame_http_request_duration_us_bucket"
            && s.label("endpoint") == Some("simulate")
    }) {
        assert!(s.value >= last, "bucket counts must be cumulative");
        last = s.value;
    }
    assert!(last >= 3.0, "simulate latency histogram must cover the traffic");

    // --- healthz carries the new observability fields ---
    let health = Json::parse(&client.request("GET", "/healthz", "").unwrap().body).unwrap();
    assert!(health.get("queue_depth").unwrap().as_u64().is_some());
    assert!(health.get("in_flight").unwrap().as_u64().is_some());
    let workers = health.get("workers").expect("workers block");
    assert!(workers.get("http").unwrap().as_u64().unwrap() >= 1);
    assert!(workers.get("sim").unwrap().as_u64().unwrap() >= 1);

    drop(client);
    service.shutdown();
}

#[test]
fn job_progress_is_live_and_monotonic() {
    let service = PopgameService::start(ServiceConfig::default()).expect("start");
    let mut client = Client::connect(service.local_addr()).expect("connect");

    // A multi-replica sweep so progress advances at replica granularity.
    let sweep = r#"{"scenario":"rock-paper-scissors","n":2000,"interactions":60000,"replicas":8,"seed":77}"#;
    let id = job_id(&client.request("POST", "/jobs", sweep).unwrap());

    // Every observed fraction must be non-decreasing.
    let mut last_fraction = -1.0f64;
    let mut last_done = 0u64;
    let final_doc = client
        .wait_for_job(id, |doc| {
            let progress = doc.get("progress").expect("every job reports progress");
            let fraction = progress.get("fraction").unwrap().as_f64().unwrap();
            let done = progress.get("tasks_done").unwrap().as_u64().unwrap();
            assert!((0.0..=1.0).contains(&fraction), "{fraction}");
            assert!(fraction >= last_fraction, "{fraction} < {last_fraction}");
            assert!(done >= last_done, "{done} < {last_done}");
            last_fraction = fraction;
            last_done = done;
        })
        .unwrap();
    assert_eq!(final_doc.get("status").unwrap().as_str(), Some("done"));

    // At completion: every replica accounted for, fraction exactly 1,
    // the elapsed clock frozen, and no ETA left to report.
    let progress = final_doc.get("progress").unwrap();
    assert_eq!(progress.get("tasks_done").unwrap().as_u64(), Some(8));
    assert_eq!(progress.get("tasks_total").unwrap().as_u64(), Some(8));
    assert!((progress.get("fraction").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-12);
    assert!(progress.get("busy_ms").unwrap().as_u64().is_some());
    assert!(progress.get("elapsed_ms").unwrap().as_u64().is_some());
    assert!(progress.get("eta_ms").is_none(), "{progress:?}");

    // The cached re-submission completes as a single instant task.
    let id = job_id(&client.request("POST", "/jobs", sweep).unwrap());
    let done = client.wait_for_job(id, |_| {}).unwrap();
    let progress = done.get("progress").unwrap();
    assert_eq!(progress.get("tasks_done").unwrap().as_u64(), Some(1));
    assert_eq!(progress.get("tasks_total").unwrap().as_u64(), Some(1));

    drop(client);
    service.shutdown();
}

#[test]
fn cache_hits_are_byte_identical_across_fresh_instances() {
    // The determinism contract end to end: a brand-new service instance
    // recomputes the same request to the same bytes.
    let simulate_once = || {
        let service = PopgameService::start(ServiceConfig::default()).expect("start");
        let mut client = Client::connect(service.local_addr()).expect("connect");
        let reply = client.request("POST", "/simulate", SIM).unwrap();
        assert_eq!(reply.status, 200);
        drop(client);
        service.shutdown();
        reply.body
    };
    assert_eq!(simulate_once(), simulate_once(), "fresh instances must agree bitwise");
}

#[test]
fn overloaded_connection_queue_returns_503() {
    // One HTTP worker, depth-1 queue. A half-sent request pins the worker
    // (it blocks mid-headers), one idle connection fills the queue, and
    // every further connection must bounce with 503 — deterministically.
    let service = PopgameService::start(ServiceConfig {
        http_workers: 1,
        queue_depth: 1,
        ..ServiceConfig::default()
    })
    .expect("start");
    let addr = service.local_addr();

    // Pin the worker: request line sent, headers never finished.
    let mut pinned = TcpStream::connect(addr).expect("connect");
    pinned
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // Fill the depth-1 queue with an idle connection.
    let filler = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));

    // Everything beyond the queue is rejected immediately.
    let mut saw_503 = 0;
    for _ in 0..5 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut reply = String::new();
        if stream.read_to_string(&mut reply).is_ok() && reply.contains(" 503 ") {
            saw_503 += 1;
        }
    }
    assert!(saw_503 >= 1, "expected 503s under overload, got none");

    // Unpin the worker: the held request completes normally.
    pinned.write_all(b"\r\n").unwrap();
    pinned
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reply = String::new();
    pinned.read_to_string(&mut reply).expect("pinned reply");
    assert!(reply.contains("200 OK"), "{reply}");
    drop(filler);
    service.shutdown();
}

#[test]
fn job_queue_overflow_and_cancellation() {
    let service = PopgameService::start(ServiceConfig {
        job_workers: 1,
        job_queue_depth: 1,
        ..ServiceConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(service.local_addr()).expect("connect");
    // A heavy job pins the single executor (256 replicas × 3M
    // interactions — far more than can finish before the DELETE below
    // lands; the cooperative flag aborts it at a replica boundary)...
    let heavy = |seed: u64| {
        format!(
            r#"{{"scenario":"rock-paper-scissors","n":100000,"interactions":3000000,"replicas":256,"seed":{seed}}}"#
        )
    };
    let slow_id = job_id(&client.request("POST", "/jobs", &heavy(101)).unwrap());
    let slow_path = format!("/jobs/{slow_id}");
    // Wait until the executor has dequeued it: until then the slow job
    // itself still occupies the depth-1 queue.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = Json::parse(&client.request("GET", &slow_path, "").unwrap().body).unwrap();
        let state = doc.get("status").unwrap().as_str().unwrap().to_string();
        if state == "running" {
            break;
        }
        assert_eq!(state, "queued", "slow job ended before it was cancelled");
        assert!(Instant::now() < deadline, "slow job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...a second fills the depth-1 queue (vary the seed: distinct work)...
    let reply = client.request("POST", "/jobs", &heavy(102)).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.body);
    // ...and a third bounces with 503.
    let reply = client.request("POST", "/jobs", &heavy(103)).unwrap();
    assert_eq!(reply.status, 503, "{}", reply.body);

    // Cancel the running job: DELETE raises the cooperative flag and the
    // executor aborts at a replica boundary.
    let reply = client.request("DELETE", &slow_path, "").unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let cancelled = client.wait_for_job(slow_id, |_| {}).unwrap();
    assert_eq!(
        cancelled.get("status").unwrap().as_str(),
        Some("cancelled"),
        "cancelled job ended as {cancelled:?}"
    );
    // Cancelled work is never cached: the cache holds no entry at all
    // (the queued second job is far from finishing).
    let health = Json::parse(&client.request("GET", "/healthz", "").unwrap().body).unwrap();
    let entries = health.get("cache").unwrap().get("entries").unwrap().as_u64();
    assert_eq!(entries, Some(0), "{health:?}");
    // An unknown job id cannot be cancelled.
    assert_eq!(client.request("DELETE", "/jobs/4141", "").unwrap().status, 404);
    drop(client);
    service.shutdown();
}
