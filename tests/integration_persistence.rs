//! Restart-survival integration tests for the persistent cache tier:
//! a real `popgamed` (in-process, real TCP) is warmed, torn down, and
//! rebooted onto the same `--cache-dir`; everything it served before —
//! `/simulate`, `/solve`, and `/reproduce` artifacts — must be re-served
//! **byte-identically** from disk, without recomputation, with the hit
//! counters advancing. A second test corrupts and truncates disk
//! entries and checks the cache quietly falls back to recomputing.

mod common;

use common::{get, post, wait_for_job};
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
    let addr = service.local_addr();
    let (status, headers, sim_body) = post(addr, "/simulate", SIM);
    assert_eq!(status, 200, "{sim_body}");
    assert!(headers.contains("x-popgame-cache: miss"), "{headers}");
    let (status, _, solve_body) = post(addr, "/solve", SOLVE);
    assert_eq!(status, 200, "{solve_body}");

    let (status, _, body) = post(addr, "/reproduce", REPRODUCE);
    assert_eq!(status, 202, "{body}");
    let submitted = Json::parse(&body).unwrap();
    let job_id = submitted.get("job_id").unwrap().as_u64().unwrap();
    let artifact = submitted.get("artifact").unwrap().as_str().unwrap().to_string();
    let job = wait_for_job(addr, job_id);
    assert_eq!(job.get("status").unwrap().as_str(), Some("done"), "{}", body);
    // The job result names the same artifact the 202 promised.
    assert_eq!(
        job.get("result").unwrap().get("artifact").unwrap().as_str(),
        Some(artifact.as_str())
    );
    let (status, _, report_json) = get(addr, &format!("/artifacts/{artifact}"));
    assert_eq!(status, 200, "{report_json}");
    let (status, _, report_md) = get(addr, &format!("/artifacts/{artifact}.md"));
    assert_eq!(status, 200);
    assert!(report_md.starts_with('#'), "markdown artifact: {report_md}");
    // Job-inlined report equals the stored artifact, re-encoded.
    assert_eq!(
        job.get("result").unwrap().get("report").unwrap().encode(),
        Json::parse(&report_json).unwrap().encode()
    );

    // /healthz reports the disk tier.
    let (_, _, health) = get(addr, "/healthz");
    let health = Json::parse(&health).unwrap();
    let disk = health.get("cache").unwrap().get("disk").expect("disk block");
    assert!(disk.get("writes").unwrap().as_u64().unwrap() >= 4, "{health:?}");

    // The disk tier holds one content-addressed file per entry.
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert!(entries >= 4, "expected >=4 disk entries, found {entries}");
    service.shutdown();

    // --- second life: same directory, cold memory ---
    let service = boot(&dir);
    let addr = service.local_addr();
    assert_eq!(service.state().cache.len(), 0, "memory starts cold");

    let (status, headers, sim_again) = post(addr, "/simulate", SIM);
    assert_eq!(status, 200);
    assert!(
        headers.contains("x-popgame-cache: hit"),
        "restart must serve from disk, not recompute: {headers}"
    );
    assert_eq!(sim_again, sim_body, "disk hit must be byte-identical");
    let (_, headers, solve_again) = post(addr, "/solve", SOLVE);
    assert!(headers.contains("x-popgame-cache: hit"), "{headers}");
    assert_eq!(solve_again, solve_body);

    // Artifacts survive too — exact bytes, served via disk read-through.
    let (status, _, json_again) = get(addr, &format!("/artifacts/{artifact}"));
    assert_eq!(status, 200);
    assert_eq!(json_again, report_json);
    let (_, _, md_again) = get(addr, &format!("/artifacts/{artifact}.md"));
    assert_eq!(md_again, report_md);

    // Resubmitting the reproduce request completes instantly from the
    // cached canonical entry (one zero-cost task, not a fresh sweep).
    let started = Instant::now();
    let (status, _, body) = post(addr, "/reproduce", REPRODUCE);
    assert_eq!(status, 202, "{body}");
    let job_id = Json::parse(&body).unwrap().get("job_id").unwrap().as_u64().unwrap();
    let rerun = wait_for_job(addr, job_id);
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
    let (_, _, health) = get(addr, "/healthz");
    let health = Json::parse(&health).unwrap();
    let cache = health.get("cache").unwrap();
    assert!(
        cache.get("hits").unwrap().as_u64().unwrap() >= 5,
        "expected >=5 cache hits after restart: {health:?}"
    );
    assert!(
        cache.get("disk").unwrap().get("hits").unwrap().as_u64().unwrap() >= 5,
        "expected >=5 disk hits after restart: {health:?}"
    );
    service.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_truncated_disk_entries_fall_back_to_recompute() {
    let dir = temp_dir("corrupt");

    let service = boot(&dir);
    let addr = service.local_addr();
    let (status, _, original) = post(addr, "/simulate", SIM);
    assert_eq!(status, 200);
    let (_, _, solve_original) = post(addr, "/solve", SOLVE);
    service.shutdown();

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

    let service = boot(&dir);
    let addr = service.local_addr();
    // Both requests recompute (miss), produce the same bytes as before,
    // and quietly replace the bad entries.
    let (status, headers, recomputed) = post(addr, "/simulate", SIM);
    assert_eq!(status, 200);
    assert!(
        headers.contains("x-popgame-cache: miss"),
        "corrupt entries must not be served: {headers}"
    );
    assert_eq!(recomputed, original, "recompute is byte-identical");
    let (_, headers, solve_recomputed) = post(addr, "/solve", SOLVE);
    assert!(headers.contains("x-popgame-cache: miss"), "{headers}");
    assert_eq!(solve_recomputed, solve_original);
    service.shutdown();

    // Third life: the replaced entries serve as hits again.
    let service = boot(&dir);
    let addr = service.local_addr();
    let (_, headers, healed) = post(addr, "/simulate", SIM);
    assert!(headers.contains("x-popgame-cache: hit"), "{headers}");
    assert_eq!(healed, original);
    service.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
