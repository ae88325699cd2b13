//! `popgamed` — the simulation/solver daemon.
//!
//! ```text
//! popgamed [--addr 127.0.0.1:8095] [--http-workers N] [--job-workers N]
//!          [--queue-depth N] [--job-queue-depth N]
//!          [--cache-dir DIR] [--cache-disk-budget BYTES]
//!          [--allow-remote-shutdown]
//! ```
//!
//! Prints `popgamed listening on http://ADDR` once ready (port 0 in
//! `--addr` picks an ephemeral port, reported in that line), then serves
//! until the process is signalled — or, with `--allow-remote-shutdown`,
//! until a `POST /shutdown` arrives, upon which it drains gracefully and
//! exits 0. See the crate docs and the README "Serving" section for the
//! endpoint reference.

use popgame_obs::log as obs_log;
use popgame_service::{PopgameService, ServiceConfig, SERVE_USAGE};
use popgame_util::json::Json;
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match ServiceConfig::from_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("usage error: {message}");
            eprintln!("usage: popgamed {SERVE_USAGE}");
            return ExitCode::from(2);
        }
    };
    let remote_shutdown = config.remote_shutdown;
    let service = match PopgameService::start(config) {
        Ok(service) => service,
        Err(error) => {
            eprintln!("error: failed to bind: {error}");
            return ExitCode::FAILURE;
        }
    };
    // The stdout line is the machine-readable readiness signal (CI and
    // perfbench grep for it); the structured record is for log streams.
    println!("popgamed listening on http://{}", service.local_addr());
    let _ = std::io::stdout().flush();
    obs_log::info(
        "popgamed",
        "listening",
        &[("addr", Json::Str(service.local_addr().to_string()))],
    );
    if remote_shutdown {
        service.wait_for_remote_shutdown();
        obs_log::info("popgamed", "shutdown requested, draining", &[]);
        service.shutdown();
        ExitCode::SUCCESS
    } else {
        // Serve until the process is signalled.
        loop {
            std::thread::park();
        }
    }
}
