//! The structured-logging facade: leveled one-line records on stderr.
//!
//! One event ⇒ one line, so every consumer — a human with `grep`, CI,
//! or a log shipper — parses the same stream. The wire format defaults
//! to JSONL; `POPGAME_LOG_FORMAT=text` switches to a human-readable
//! single-line `key=value` form for interactive use (same fields, same
//! one-event-one-line contract). The emitted level is gated by the
//! `POPGAME_LOG` environment variable (`error`, `warn`, `info`,
//! `debug`; default `info`; `off` silences everything). Both variables
//! are read once per process and overridable in-process via
//! [`set_max_level`] / [`set_format`] for tests.
//!
//! Records carry a millisecond timestamp, the level, a `target` naming
//! the emitting component, the message, and arbitrary structured fields.
//! Request-scoped events should attach the id minted by
//! [`next_request_id`] (the same id the service returns in its
//! `x-popgame-request-id` header) so one request can be followed across
//! layers.
//!
//! # Example
//!
//! ```
//! use popgame_obs::log::{info, Level, set_max_level};
//! use popgame_util::json::Json;
//!
//! set_max_level(Some(Level::Debug));
//! info("doctest", "phase done", &[("requests", Json::Int(128))]);
//! ```

use popgame_util::json::Json;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed.
    Error,
    /// Something surprising that did not fail the operation.
    Warn,
    /// Progress and lifecycle events (the default gate).
    Info,
    /// High-volume diagnostics (per-request lines).
    Debug,
}

impl Level {
    /// The lowercase name used in records and in `POPGAME_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_env(value: &str) -> Option<Level> {
        match value.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// `set_max_level` override: 0 = unset, 1 = off, otherwise level + 2.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_level() -> Option<Level> {
    static ENV: OnceLock<Option<Level>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("POPGAME_LOG") {
        Ok(v) if v.trim().eq_ignore_ascii_case("off") => None,
        Ok(v) => Some(Level::from_env(&v).unwrap_or(Level::Info)),
        Err(_) => Some(Level::Info),
    })
}

/// The currently active gate; `None` means logging is off.
pub fn max_level() -> Option<Level> {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_level(),
        1 => None,
        n => Some(match n - 2 {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }),
    }
}

/// Overrides the `POPGAME_LOG` gate in-process (`None` = off). Meant for
/// tests and tools that must control verbosity without re-exec.
pub fn set_max_level(level: Option<Level>) {
    OVERRIDE.store(
        match level {
            None => 1,
            Some(l) => l as usize + 2,
        },
        Ordering::Relaxed,
    );
}

/// Whether a record at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    max_level().is_some_and(|max| level <= max)
}

/// The wire format of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One JSON object per line (the default; machine-first).
    Json,
    /// One `key=value` line per record (human-first; same fields).
    Text,
}

/// `set_format` override: 0 = unset, 1 = json, 2 = text.
static FORMAT_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_format() -> Format {
    static ENV: OnceLock<Format> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("POPGAME_LOG_FORMAT") {
        Ok(v) if v.trim().eq_ignore_ascii_case("text") => Format::Text,
        _ => Format::Json,
    })
}

/// The currently active wire format (`POPGAME_LOG_FORMAT`, default
/// JSONL, overridable via [`set_format`]).
pub fn format() -> Format {
    match FORMAT_OVERRIDE.load(Ordering::Relaxed) {
        1 => Format::Json,
        2 => Format::Text,
        _ => env_format(),
    }
}

/// Overrides the `POPGAME_LOG_FORMAT` choice in-process (`None` returns
/// to the environment's choice). Meant for tests and interactive tools.
pub fn set_format(format: Option<Format>) {
    FORMAT_OVERRIDE.store(
        match format {
            None => 0,
            Some(Format::Json) => 1,
            Some(Format::Text) => 2,
        },
        Ordering::Relaxed,
    );
}

/// Formats one record as its JSON line (no trailing newline). Pure —
/// exposed so tests can pin the wire format without capturing stderr.
pub fn format_record(
    level: Level,
    target: &str,
    message: &str,
    fields: &[(&str, Json)],
    ts_ms: u64,
) -> String {
    let mut entries: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 4);
    entries.push(("ts_ms".to_string(), Json::Int(ts_ms as i64)));
    entries.push((
        "level".to_string(),
        Json::Str(level.as_str().to_string()),
    ));
    entries.push(("target".to_string(), Json::Str(target.to_string())));
    entries.push(("msg".to_string(), Json::Str(message.to_string())));
    for (key, value) in fields {
        entries.push((key.to_string(), value.clone()));
    }
    Json::obj(entries).encode()
}

/// Formats one record as its single-line `key=value` text form (no
/// trailing newline). String values are JSON-quoted exactly when they
/// contain whitespace, `=`, or quotes, so the line splits on spaces and
/// every value round-trips; other values render as their JSON encoding.
pub fn format_record_text(
    level: Level,
    target: &str,
    message: &str,
    fields: &[(&str, Json)],
    ts_ms: u64,
) -> String {
    fn value(v: &Json) -> String {
        match v {
            Json::Str(s)
                if !s.is_empty()
                    && !s.contains(|c: char| c.is_whitespace() || c == '=' || c == '"') =>
            {
                s.clone()
            }
            other => other.encode(),
        }
    }
    let mut out = format!(
        "ts_ms={ts_ms} level={} target={} msg={}",
        level.as_str(),
        value(&Json::Str(target.to_string())),
        value(&Json::Str(message.to_string())),
    );
    for (key, v) in fields {
        out.push_str(&format!(" {key}={}", value(v)));
    }
    out
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Emits one structured record to stderr if `level` passes the gate,
/// in the active wire [`format()`].
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, Json)]) {
    if !enabled(level) {
        return;
    }
    let line = match format() {
        Format::Json => format_record(level, target, message, fields, now_ms()),
        Format::Text => format_record_text(level, target, message, fields, now_ms()),
    };
    eprintln!("{line}");
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, message: &str, fields: &[(&str, Json)]) {
    log(Level::Error, target, message, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, message: &str, fields: &[(&str, Json)]) {
    log(Level::Warn, target, message, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, message: &str, fields: &[(&str, Json)]) {
    log(Level::Info, target, message, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, message: &str, fields: &[(&str, Json)]) {
    log(Level::Debug, target, message, fields);
}

/// Mints a process-unique request id: an 8-hex-digit per-process token
/// (derived from the process id and start time) plus a sequence number.
/// Used for the `x-popgame-request-id` response header and the matching
/// log-record field; ids never influence response bodies.
pub fn next_request_id() -> String {
    static TOKEN: OnceLock<u32> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let token = *TOKEN.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        // FNV-1a over (pid, boot nanos) — stable within a process, very
        // likely distinct across fleet instances.
        let mut hash: u32 = 0x811c_9dc5;
        for byte in std::process::id()
            .to_le_bytes()
            .into_iter()
            .chain(nanos.to_le_bytes())
        {
            hash ^= u32::from(byte);
            hash = hash.wrapping_mul(0x0100_0193);
        }
        hash
    });
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{token:08x}-{seq:06}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates_correctly() {
        set_max_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_max_level(None);
        assert!(!enabled(Level::Error));
        set_max_level(Some(Level::Debug));
        assert!(enabled(Level::Debug));
    }

    #[test]
    fn record_is_one_json_line() {
        let line = format_record(
            Level::Info,
            "fleet",
            "phase \"cached\" done",
            &[("requests", Json::Int(128)), ("p99_ms", Json::Num(1.25))],
            42,
        );
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("record must be valid JSON");
        assert_eq!(parsed.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(parsed.get("target").and_then(Json::as_str), Some("fleet"));
        assert_eq!(parsed.get("ts_ms").and_then(Json::as_i64), Some(42));
        assert_eq!(parsed.get("requests").and_then(Json::as_i64), Some(128));
    }

    #[test]
    fn text_and_json_formats_round_trip_the_same_record() {
        let fields = [
            ("requests", Json::Int(128)),
            ("p99_ms", Json::Num(1.25)),
            ("phase", Json::Str("cached warm".to_string())),
        ];
        // JSON mode: parse the line, recover every field.
        let json_line =
            format_record(Level::Warn, "fleet", "phase \"cached\" done", &fields, 42);
        let parsed = Json::parse(&json_line).expect("json line parses");
        assert_eq!(parsed.get("msg").and_then(Json::as_str), Some("phase \"cached\" done"));
        assert_eq!(parsed.get("requests").and_then(Json::as_i64), Some(128));
        assert_eq!(parsed.get("phase").and_then(Json::as_str), Some("cached warm"));

        // Text mode: one line, split on spaces outside quotes, every
        // key=value recovers the same values.
        let text_line =
            format_record_text(Level::Warn, "fleet", "phase \"cached\" done", &fields, 42);
        assert!(!text_line.contains('\n'));
        let mut pairs = Vec::new();
        let mut rest = text_line.as_str();
        while let Some(eq) = rest.find('=') {
            let key = rest[..eq].trim().to_string();
            let value_text = &rest[eq + 1..];
            let (value, remainder) = if value_text.starts_with('"') {
                // A JSON-quoted value: find its closing quote.
                let mut end = 1;
                let bytes = value_text.as_bytes();
                while end < bytes.len() {
                    if bytes[end] == b'\\' {
                        end += 2;
                        continue;
                    }
                    if bytes[end] == b'"' {
                        break;
                    }
                    end += 1;
                }
                (&value_text[..=end.min(value_text.len() - 1)], &value_text[(end + 1).min(value_text.len())..])
            } else {
                match value_text.find(' ') {
                    Some(sp) => (&value_text[..sp], &value_text[sp..]),
                    None => (value_text, ""),
                }
            };
            pairs.push((key, value.to_string()));
            rest = remainder;
        }
        let find = |key: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key} in {text_line:?}"))
        };
        assert_eq!(find("ts_ms"), "42");
        assert_eq!(find("level"), "warn");
        assert_eq!(find("target"), "fleet");
        assert_eq!(
            Json::parse(&find("msg")).unwrap().as_str(),
            Some("phase \"cached\" done")
        );
        assert_eq!(find("requests"), "128");
        assert_eq!(find("p99_ms"), "1.25");
        assert_eq!(Json::parse(&find("phase")).unwrap().as_str(), Some("cached warm"));
    }

    #[test]
    fn format_override_controls_the_wire_format() {
        assert_eq!(format(), env_format());
        set_format(Some(Format::Text));
        assert_eq!(format(), Format::Text);
        set_format(Some(Format::Json));
        assert_eq!(format(), Format::Json);
        set_format(None);
        assert_eq!(format(), env_format());
    }

    #[test]
    fn request_ids_are_unique_and_well_formed() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        let (tok, seq) = a.split_once('-').expect("token-seq shape");
        assert_eq!(tok.len(), 8);
        assert_eq!(seq.len(), 6);
        assert!(tok.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(seq.chars().all(|c| c.is_ascii_digit()));
    }
}
