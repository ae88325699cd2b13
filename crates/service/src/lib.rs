#![warn(missing_docs)]

//! `popgamed` — a pure-std concurrent simulation/solver service.
//!
//! The serving layer over the workspace's engines: a minimal HTTP/1.1
//! JSON daemon (no async runtime, no dependencies beyond the workspace)
//! that turns scenario × dynamics × population jobs into
//! equilibrium-distance answers.
//!
//! * [`http`] — the `TcpListener` server: fixed worker pool, **bounded**
//!   connection queue with 503 backpressure, keep-alive, graceful
//!   shutdown.
//! * [`api`] — endpoints (`/healthz`, `/scenarios`, `/solve`,
//!   `/simulate`, `/jobs`, `/reproduce`, `/artifacts/{id}`), request
//!   validation, and the canonical request form.
//! * [`cache`] — the sharded content-addressed result cache, with an
//!   optional persistent disk tier (`--cache-dir`). Responses are
//!   bitwise deterministic per `(request, seed)` — the PR 1
//!   determinism contract — so cache hits are byte-identical to cold
//!   computations, including hits served from disk after a restart.
//! * [`jobs`] — the bounded asynchronous job queue with cooperative
//!   cancellation (`DELETE /jobs/{id}` aborts between replica batches).
//! * [`ring`] — consistent-hash routing for share-nothing multi-instance
//!   fleets (`popgame fleet` routes canonical keys over it).
//!
//! # Example
//!
//! ```
//! use popgame_service::{PopgameService, ServiceConfig};
//! use std::io::{Read, Write};
//!
//! let service = PopgameService::start(ServiceConfig::default()).unwrap();
//! let mut stream = std::net::TcpStream::connect(service.local_addr()).unwrap();
//! stream
//!     .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
//!     .unwrap();
//! let mut reply = String::new();
//! stream.read_to_string(&mut reply).unwrap();
//! assert!(reply.contains("\"status\":\"ok\""));
//! service.shutdown();
//! ```

pub mod api;
pub mod cache;
pub mod http;
pub mod jobs;
pub mod ring;

use api::AppState;
use cache::ResultCache;
use http::{Handler, HttpConfig, HttpServer};
use jobs::{Executor, JobStore};
use popgame_report::SweepObserver;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Everything tunable about a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// HTTP worker threads.
    pub http_workers: usize,
    /// Bounded pending-connection queue depth (overflow ⇒ 503).
    pub queue_depth: usize,
    /// Executor threads for asynchronous jobs.
    pub job_workers: usize,
    /// Bounded job queue depth (overflow ⇒ 503 on `POST /jobs`).
    pub job_queue_depth: usize,
    /// Result-cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Maximum request body bytes.
    pub max_body: usize,
    /// Socket read timeout (idle keep-alive connections close after it).
    pub read_timeout: Duration,
    /// Whether `POST /shutdown` stops the daemon (off by default; meant
    /// for CI and local smoke runs, not exposed deployments).
    pub remote_shutdown: bool,
    /// Simulation worker threads for the replica task pool (`--workers`).
    /// `None` leaves the runner's own resolution in force
    /// (`POPGAME_WORKERS` / `POPGAME_THREADS` / available parallelism).
    pub sim_workers: Option<usize>,
    /// Directory for the persistent cache tier (`--cache-dir`). `None`
    /// keeps the cache memory-only; with a directory, every cacheable
    /// result and reproduce artifact is also written to disk and
    /// re-served byte-identically after a restart.
    pub cache_dir: Option<String>,
    /// Byte budget for the disk tier (`--cache-disk-budget`); the
    /// oldest entries by mtime are evicted once the total exceeds it.
    pub cache_disk_budget: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            http_workers: 4,
            queue_depth: 128,
            job_workers: 1,
            job_queue_depth: 32,
            cache_shards: 16,
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(5),
            remote_shutdown: false,
            sim_workers: None,
            cache_dir: None,
            cache_disk_budget: cache::DEFAULT_DISK_BUDGET,
        }
    }
}

/// The daemon flags accepted by [`ServiceConfig::from_args`], for usage
/// messages (shared by `popgamed` and `popgame serve`).
pub const SERVE_USAGE: &str = "[--addr HOST:PORT] [--http-workers N] [--job-workers N] \
     [--workers N] [--queue-depth N] [--job-queue-depth N] [--cache-dir DIR] \
     [--cache-disk-budget BYTES] [--allow-remote-shutdown]";

impl ServiceConfig {
    /// Parses daemon command-line flags (see [`SERVE_USAGE`]) on top of
    /// the defaults, with the daemon's fixed default port `8095` instead
    /// of the library default of an ephemeral port. Shared by the
    /// `popgamed` binary and the `popgame serve` subcommand so the two
    /// entry points cannot drift apart.
    ///
    /// # Errors
    ///
    /// A human-readable message on unknown flags, missing values, or
    /// unparseable numbers.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut config = ServiceConfig {
            addr: "127.0.0.1:8095".to_string(),
            ..ServiceConfig::default()
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value_of = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--addr" => config.addr = value_of("--addr")?,
                "--http-workers" => {
                    config.http_workers = value_of("--http-workers")?
                        .parse()
                        .map_err(|e| format!("--http-workers: {e}"))?;
                }
                "--job-workers" => {
                    config.job_workers = value_of("--job-workers")?
                        .parse()
                        .map_err(|e| format!("--job-workers: {e}"))?;
                }
                "--queue-depth" => {
                    config.queue_depth = value_of("--queue-depth")?
                        .parse()
                        .map_err(|e| format!("--queue-depth: {e}"))?;
                }
                "--job-queue-depth" => {
                    config.job_queue_depth = value_of("--job-queue-depth")?
                        .parse()
                        .map_err(|e| format!("--job-queue-depth: {e}"))?;
                }
                "--workers" => {
                    config.sim_workers = Some(
                        value_of("--workers")?
                            .parse()
                            .map_err(|e| format!("--workers: {e}"))?,
                    );
                }
                "--cache-dir" => config.cache_dir = Some(value_of("--cache-dir")?),
                "--cache-disk-budget" => {
                    config.cache_disk_budget = value_of("--cache-disk-budget")?
                        .parse()
                        .map_err(|e| format!("--cache-disk-budget: {e}"))?;
                }
                "--allow-remote-shutdown" => config.remote_shutdown = true,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(config)
    }
}

/// A running service: HTTP server + job executors + shared state.
pub struct PopgameService {
    http: HttpServer,
    state: Arc<AppState>,
    shutdown_rx: Receiver<()>,
}

impl PopgameService {
    /// Binds and starts everything.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServiceConfig) -> io::Result<Self> {
        if config.sim_workers.is_some() {
            popgame_runner::set_worker_threads(config.sim_workers);
        }
        let mut cache = ResultCache::new(config.cache_shards);
        if let Some(dir) = &config.cache_dir {
            cache = cache.with_disk(dir, config.cache_disk_budget)?;
        }
        let cache = Arc::new(cache);
        // The job executor: cache-check, run, cache-fill. Results are
        // cached only for runs that completed un-cancelled, so partial
        // work can never poison the content-addressed store. Reproduce
        // runs additionally store their rendered artifacts in the same
        // cache, which is what `GET /artifacts/{id}` serves.
        let executor_cache = Arc::clone(&cache);
        let executor: Executor = Arc::new(move |canonical, cancel, progress| {
            if let Some(body) = executor_cache.get(canonical) {
                // A cache hit is one instantly-complete task.
                progress.begin(1);
                progress.task_done(0);
                return Ok(body);
            }
            let doc = api::execute(canonical, cancel, progress, Some(&executor_cache))?;
            let body = Arc::new(doc.encode());
            if !cancel.load(Ordering::Relaxed) {
                executor_cache.insert(canonical.to_string(), Arc::clone(&body));
            }
            Ok(body)
        });
        let jobs = JobStore::new(config.job_workers, config.job_queue_depth, executor);

        let (shutdown_tx, shutdown_rx) = mpsc::sync_channel::<()>(1);
        let state = Arc::new(AppState {
            cache,
            jobs: Arc::clone(&jobs),
            overflows: OnceLock::new(),
            started: Instant::now(),
            http_workers: config.http_workers,
            shutdown_tx: Mutex::new(config.remote_shutdown.then_some(shutdown_tx)),
        });

        let handler_state = Arc::clone(&state);
        let handler: Handler = Arc::new(move |request| api::route(&handler_state, request));
        let http = HttpServer::bind(
            HttpConfig {
                addr: config.addr,
                workers: config.http_workers,
                queue_depth: config.queue_depth,
                max_body: config.max_body,
                read_timeout: config.read_timeout,
            },
            handler,
        )?;
        let _ = state.overflows.set(http.overflow_counter());
        Ok(PopgameService {
            http,
            state,
            shutdown_rx,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The shared state (cache/jobs counters for tests and tools).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Blocks until a `POST /shutdown` arrives. Only sensible when the
    /// service was started with `remote_shutdown: true`; otherwise no
    /// sender exists and this returns immediately.
    pub fn wait_for_remote_shutdown(&self) {
        let _ = self.shutdown_rx.recv();
    }

    /// Graceful shutdown: the HTTP layer drains its queue and joins, then
    /// outstanding jobs are cancelled and the executors join.
    pub fn shutdown(mut self) {
        self.http.shutdown();
        self.state.jobs.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn request(addr: SocketAddr, text: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(text.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn full_stack_smoke() {
        let service = PopgameService::start(ServiceConfig::default()).unwrap();
        let addr = service.local_addr();
        let health = request(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(health.contains("200 OK"), "{health}");
        let body = r#"{"scenario":"hawk-dove","n":200,"interactions":4000,"replicas":2}"#;
        let text = format!(
            "POST /simulate HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        );
        let cold = request(addr, &text);
        assert!(cold.contains("x-popgame-cache: miss"), "{cold}");
        let warm = request(addr, &text);
        assert!(warm.contains("x-popgame-cache: hit"), "{warm}");
        // Same body bytes after the headers.
        let tail = |s: &str| s.split("\r\n\r\n").nth(1).unwrap().to_string();
        assert_eq!(tail(&cold), tail(&warm));
        assert_eq!(service.state().cache.hits(), 1);
        service.shutdown();
    }

    #[test]
    fn remote_shutdown_round_trip() {
        let service = PopgameService::start(ServiceConfig {
            remote_shutdown: true,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let reply = request(addr, "POST /shutdown HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(reply.contains("shutting-down"), "{reply}");
        service.wait_for_remote_shutdown(); // must not block
        service.shutdown();
    }
}
