//! Restart-survival integration tests for the persistent cache tier:
//! a real `popgamed` (in-process, real TCP) is warmed, torn down, and
//! rebooted onto the same `--cache-dir`; everything it served before —
//! `/simulate`, `/solve`, and `/reproduce` artifacts — must be re-served
//! **byte-identically** from disk, without recomputation, with the hit
//! counters advancing. A second test corrupts and truncates disk
//! entries and checks the cache quietly falls back to recomputing.

use popgame_service::http::Client;
use popgame_service::{PopgameService, ServiceConfig};
use popgame_util::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A fresh per-test scratch directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "popgame-persist-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn boot(cache_dir: &std::path::Path) -> PopgameService {
    PopgameService::start(ServiceConfig {
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    })
    .expect("start service with disk cache")
}

const SIM: &str =
    r#"{"scenario":"rock-paper-scissors","n":400,"interactions":8000,"replicas":2,"seed":13}"#;
const SOLVE: &str = r#"{"scenario":"hawk-dove"}"#;
const REPRODUCE: &str = r#"{"sizes":[50,100],"replicas":2,"horizon_per_agent":2,
    "trajectory_capacity":6,"seed":9}"#;

#[test]
fn restart_reserves_every_endpoint_byte_identically_from_disk() {
    let dir = temp_dir("restart");

    // --- first life: warm everything cold ---
    let service = boot(&dir);
    let mut client = Client::connect(service.local_addr()).expect("connect");
    let sim = client.request("POST", "/simulate", SIM).unwrap();
    assert_eq!(sim.status, 200, "{}", sim.body);
    assert_eq!(sim.header("x-popgame-cache"), Some("miss"));
    let solve = client.request("POST", "/solve", SOLVE).unwrap();
    assert_eq!(solve.status, 200, "{}", solve.body);

    let submitted = client.request("POST", "/reproduce", REPRODUCE).unwrap();
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let body = submitted.body;
    let submitted = Json::parse(&body).unwrap();
    let job_id = submitted.get("job_id").unwrap().as_u64().unwrap();
    let artifact = submitted.get("artifact").unwrap().as_str().unwrap().to_string();
    let job = client.wait_for_job(job_id, |_| {}).unwrap();
    assert_eq!(job.get("status").unwrap().as_str(), Some("done"), "{}", body);
    // The job result names the same artifact the 202 promised.
    assert_eq!(
        job.get("result").unwrap().get("artifact").unwrap().as_str(),
        Some(artifact.as_str())
    );
    let report_json = client.request("GET", &format!("/artifacts/{artifact}"), "").unwrap();
    assert_eq!(report_json.status, 200, "{}", report_json.body);
    let report_md = client.request("GET", &format!("/artifacts/{artifact}.md"), "").unwrap();
    assert_eq!(report_md.status, 200);
    assert!(report_md.body.starts_with('#'), "markdown artifact: {}", report_md.body);
    // Job-inlined report equals the stored artifact, re-encoded.
    assert_eq!(
        job.get("result").unwrap().get("report").unwrap().encode(),
        Json::parse(&report_json.body).unwrap().encode()
    );

    // /healthz reports the disk tier.
    let health = Json::parse(&client.request("GET", "/healthz", "").unwrap().body).unwrap();
    let disk = health.get("cache").unwrap().get("disk").expect("disk block");
    assert!(disk.get("writes").unwrap().as_u64().unwrap() >= 4, "{health:?}");

    // The disk tier holds one content-addressed file per entry.
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert!(entries >= 4, "expected >=4 disk entries, found {entries}");
    drop(client);
    service.shutdown();

    // --- second life: same directory, cold memory ---
    let service = boot(&dir);
    let mut client = Client::connect(service.local_addr()).expect("connect");
    assert_eq!(service.state().cache.len(), 0, "memory starts cold");

    let sim_again = client.request("POST", "/simulate", SIM).unwrap();
    assert_eq!(sim_again.status, 200);
    assert_eq!(
        sim_again.header("x-popgame-cache"),
        Some("hit"),
        "restart must serve from disk, not recompute"
    );
    assert_eq!(sim_again.body, sim.body, "disk hit must be byte-identical");
    let solve_again = client.request("POST", "/solve", SOLVE).unwrap();
    assert_eq!(solve_again.header("x-popgame-cache"), Some("hit"));
    assert_eq!(solve_again.body, solve.body);

    // Artifacts survive too — exact bytes, served via disk read-through.
    let json_again = client.request("GET", &format!("/artifacts/{artifact}"), "").unwrap();
    assert_eq!(json_again.status, 200);
    assert_eq!(json_again.body, report_json.body);
    let md_again = client.request("GET", &format!("/artifacts/{artifact}.md"), "").unwrap();
    assert_eq!(md_again.body, report_md.body);

    // Resubmitting the reproduce request completes instantly from the
    // cached canonical entry (one zero-cost task, not a fresh sweep).
    let started = Instant::now();
    let submitted = client.request("POST", "/reproduce", REPRODUCE).unwrap();
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let job_id = Json::parse(&submitted.body).unwrap().get("job_id").unwrap().as_u64().unwrap();
    let rerun = client.wait_for_job(job_id, |_| {}).unwrap();
    assert_eq!(rerun.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(
        rerun.get("result").unwrap().encode(),
        job.get("result").unwrap().encode(),
        "restart reproduce result must match the original bytes"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cached reproduce re-ran the sweep ({:?})",
        started.elapsed()
    );

    // Hit counters advanced: simulate + solve + two artifacts + job.
    let health = Json::parse(&client.request("GET", "/healthz", "").unwrap().body).unwrap();
    let cache = health.get("cache").unwrap();
    assert!(
        cache.get("hits").unwrap().as_u64().unwrap() >= 5,
        "expected >=5 cache hits after restart: {health:?}"
    );
    assert!(
        cache.get("disk").unwrap().get("hits").unwrap().as_u64().unwrap() >= 5,
        "expected >=5 disk hits after restart: {health:?}"
    );
    drop(client);
    service.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_truncated_disk_entries_fall_back_to_recompute() {
    let dir = temp_dir("corrupt");
    // One life of the service on `dir`: the `/simulate` and `/solve`
    // replies, in that order.
    let life = || {
        let service = boot(&dir);
        let mut client = Client::connect(service.local_addr()).expect("connect");
        let sim = client.request("POST", "/simulate", SIM).unwrap();
        let solve = client.request("POST", "/solve", SOLVE).unwrap();
        drop(client);
        service.shutdown();
        (sim, solve)
    };

    let (original, solve_original) = life();
    assert_eq!(original.status, 200);

    // Vandalize every disk entry: one gets garbage, the rest truncated.
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    assert!(paths.len() >= 2, "expected >=2 disk entries");
    std::fs::write(&paths[0], b"{ this is not json").unwrap();
    for path in &paths[1..] {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    }

    // Both requests recompute (miss), produce the same bytes as before,
    // and quietly replace the bad entries.
    let (recomputed, solve_recomputed) = life();
    assert_eq!(recomputed.status, 200);
    assert_eq!(
        recomputed.header("x-popgame-cache"),
        Some("miss"),
        "corrupt entries must not be served"
    );
    assert_eq!(recomputed.body, original.body, "recompute is byte-identical");
    assert_eq!(solve_recomputed.header("x-popgame-cache"), Some("miss"));
    assert_eq!(solve_recomputed.body, solve_original.body);

    // Third life: the replaced entries serve as hits again.
    let (healed, _) = life();
    assert_eq!(healed.header("x-popgame-cache"), Some("hit"));
    assert_eq!(healed.body, original.body);

    let _ = std::fs::remove_dir_all(&dir);
}
