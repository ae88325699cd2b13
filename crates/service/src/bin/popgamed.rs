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

use popgame_service::{run_daemon, ServiceConfig, SERVE_USAGE};
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
    match run_daemon(config, "popgamed listening on") {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: failed to bind: {error}");
            ExitCode::FAILURE
        }
    }
}
