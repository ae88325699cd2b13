#![warn(missing_docs)]

//! `popgame-obs` — the workspace's observability layer, pure std.
//!
//! Three pieces:
//!
//! * [`metrics`] — a process-global, lock-light metrics registry:
//!   atomic [`Counter`]s and [`Gauge`]s, a log₂-bucketed latency
//!   [`LatencyHistogram`] (the atomic sibling of
//!   `popgame_util::histogram::IntHistogram`), RAII [`ScopedTimer`]s and
//!   [`GaugeGuard`]s, and a Prometheus text-exposition renderer plus the
//!   matching parser (shared by tests and perfbench's serve-mix scrape).
//! * [`log`] — a leveled structured-logging facade: one record per event
//!   on stderr (JSONL by default, single-line text via
//!   `POPGAME_LOG_FORMAT=text`), gated by
//!   `POPGAME_LOG=error|warn|info|debug`, with request-id generation for
//!   cross-layer correlation.
//! * [`trace`] — span tracing into per-thread lock-free ring buffers,
//!   exported as Chrome trace-event JSON (`chrome://tracing`/Perfetto)
//!   and JSONL; disabled spans cost one atomic load.
//!
//! Everything here is **out-of-band** by construction: handles are plain
//! atomics, nothing consumes randomness, and no simulation or response
//! byte ever depends on a metric value. Instrumented code paths stay
//! bitwise deterministic — the service's cache-hit == cold-body and the
//! report's pooled == sequential contracts are unaffected (and tested in
//! their own crates).
//!
//! # Example
//!
//! ```
//! use popgame_obs::metrics::registry;
//!
//! let requests = registry().counter(
//!     "popgame_http_requests_total",
//!     "Requests routed, by endpoint.",
//!     &[("endpoint", "simulate")],
//! );
//! requests.inc();
//! let text = registry().render();
//! assert!(text.contains("popgame_http_requests_total{endpoint=\"simulate\"}"));
//! ```

pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{
    parse_exposition, Counter, Gauge, GaugeGuard, LatencyHistogram, Registry, Sample,
    ScopedTimer,
};
