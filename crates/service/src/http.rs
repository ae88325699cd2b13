//! A minimal HTTP/1.1 server and client on `std::net` — no async
//! runtime, no dependencies.
//!
//! Architecture: one accept thread feeds accepted connections into a
//! **bounded** `mpsc::sync_channel`; a fixed pool of worker threads pops
//! connections and serves them. When the queue is full the accept thread
//! answers `503 Service Unavailable` immediately — backpressure is
//! explicit and cheap, never an unbounded pile-up.
//!
//! Supported surface (deliberately small, enough for a JSON API):
//! request line + headers + `Content-Length` bodies, persistent
//! connections (`keep-alive`, the default in HTTP/1.1) with a read
//! timeout, and `Connection: close`. No chunked transfer, no TLS, no
//! HTTP/2 — the service sits on loopback or behind a real proxy.
//!
//! Framing is strict, since a request framed differently here than by a
//! proxy in front is the request-smuggling shape: a `Content-Length` must
//! be digits only (RFC 9110 §8.6) and agree with any repeat of itself, or
//! the reply is `400`; any `Transfer-Encoding` is answered `501 Not
//! Implemented`. Both replies close the connection.
//!
//! [`Client`] is the other direction: a keep-alive client that reads
//! replies through the same head reader, so a reply is framed by the
//! same rules as a request. The CLI's `fleet`, the test suites and the
//! examples all reach the daemon through it.
//!
//! Each response — head and body — goes out in one vectored write, so a
//! `TCP_NODELAY` socket sends it without a separate head segment.
//!
//! Graceful shutdown: raise the flag, end the reads of every connection
//! being served, nudge the accept loop with a loopback connection, drop
//! the queue sender, and join every thread. Each worker registers a
//! clone of the stream it serves, so shutdown can call
//! `shutdown(Read)` on it: a worker waiting on an idle keep-alive
//! connection wakes at once instead of at the read timeout. Writes are
//! untouched, so in-flight requests complete and nothing is torn down
//! mid-response; a request that already arrived, on a served or a
//! queued connection, is still read and answered (Linux keeps received
//! bytes readable after `shutdown(Read)`).

use popgame_obs::metrics::{registry, Counter, Gauge, GaugeGuard};
use popgame_util::json::Json;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pending connections sitting in the bounded queue right now.
pub(crate) fn queue_depth_gauge() -> &'static Arc<Gauge> {
    static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
    CELL.get_or_init(|| {
        registry().gauge(
            "popgame_http_queue_depth",
            "Accepted connections waiting in the bounded queue.",
            &[],
        )
    })
}

/// Connections currently being served by a worker.
pub(crate) fn in_flight_gauge() -> &'static Arc<Gauge> {
    static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
    CELL.get_or_init(|| {
        registry().gauge(
            "popgame_http_in_flight",
            "Connections currently held by a worker thread.",
            &[],
        )
    })
}

/// Connections bounced with 503 because the queue was full.
fn rejected_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        registry().counter(
            "popgame_http_rejected_total",
            "Connections answered 503 at accept time (queue overflow backpressure).",
            &[],
        )
    })
}

/// Requests that failed HTTP parsing (400/413/501 before reaching a handler).
fn parse_error_counter() -> &'static Arc<Counter> {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        registry().counter(
            "popgame_http_parse_errors_total",
            "Requests rejected by the HTTP parser before reaching a handler.",
            &[],
        )
    })
}

/// Maximum bytes of request line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum number of request headers.
const MAX_HEADERS: usize = 64;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded depth of the pending-connection queue; overflow ⇒ 503.
    pub queue_depth: usize,
    /// Maximum accepted request body, in bytes (`413` beyond).
    pub max_body: usize,
    /// Per-read socket timeout; an idle keep-alive connection is closed
    /// after this long.
    pub read_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 128,
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (e.g. `/jobs/3`).
    pub path: String,
    /// Raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked for `Connection: close`.
    close: bool,
}

/// A response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON in this service). `Arc`, so cache hits share one
    /// allocation instead of copying the body per request.
    pub body: Arc<String>,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// The `Content-Type` header value (`application/json` unless built
    /// with [`Response::text`]).
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Response::json_shared(status, Arc::new(body))
    }

    /// A JSON response over an already-shared body (the zero-copy cache
    /// path).
    pub fn json_shared(status: u16, body: Arc<String>) -> Self {
        Response {
            status,
            body,
            headers: Vec::new(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (the Prometheus exposition content type, as
    /// `/metrics` is the only non-JSON endpoint).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            body: Arc::new(body),
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// A Markdown response over a shared body (the `/artifacts/{hash}.md`
    /// path, which serves stored REPORT.md bytes verbatim).
    pub fn markdown_shared(status: u16, body: Arc<String>) -> Self {
        Response {
            status,
            body,
            headers: Vec::new(),
            content_type: "text/markdown; charset=utf-8",
        }
    }

    /// A JSON error envelope `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Self {
        let doc = Json::obj([("error", Json::from(message))]);
        Response::json(status, doc.encode())
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The request handler: pure function from request to response, shared by
/// all workers.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// The connections the workers are serving, each as a clone of its
/// stream, so a shutdown can end their reads.
#[derive(Default)]
struct Live {
    /// Whether shutdown has begun: a connection registered later has its
    /// reads ended at once.
    closing: bool,
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
}

/// A connection's entry in [`Live`], removed on drop so that the clone
/// keeps no socket open once the connection is done.
struct Registration<'a> {
    live: &'a Mutex<Live>,
    id: u64,
}

impl Live {
    /// Registers a clone of `stream` for as long as the registration
    /// lives.
    fn register<'a>(live: &'a Mutex<Live>, stream: &TcpStream) -> io::Result<Registration<'a>> {
        let clone = stream.try_clone()?;
        let mut this = live.lock().expect("connection registry lock");
        if this.closing {
            let _ = clone.shutdown(Shutdown::Read);
        }
        let id = this.next_id;
        this.next_id += 1;
        this.streams.insert(id, clone);
        Ok(Registration { live, id })
    }

    /// Ends the reads of every registered connection, and of every one
    /// registered later.
    fn close(live: &Mutex<Live>) {
        let mut this = live.lock().expect("connection registry lock");
        this.closing = true;
        for stream in this.streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        let mut live = self.live.lock().expect("connection registry lock");
        live.streams.remove(&self.id);
    }
}

/// The running server. Dropping it performs a graceful shutdown.
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    live: Arc<Mutex<Live>>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    overflows: Arc<AtomicU64>,
}

impl HttpServer {
    /// Binds, spawns the accept loop and the worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: HttpConfig, handler: Handler) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let overflows = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let live = Arc::new(Mutex::new(Live::default()));

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let live = Arc::clone(&live);
                let handler = Arc::clone(&handler);
                let max_body = config.max_body;
                let read_timeout = config.read_timeout;
                std::thread::spawn(move || loop {
                    // Hold the lock only for the pop, not while serving.
                    let stream = {
                        let guard = rx.lock().expect("queue lock");
                        guard.recv()
                    };
                    match stream {
                        Ok(stream) => {
                            queue_depth_gauge().sub(1);
                            let _in_flight =
                                GaugeGuard::new(Arc::clone(in_flight_gauge()));
                            serve_connection(stream, &handler, max_body, read_timeout, &live);
                        }
                        Err(_) => break, // sender dropped: shutdown
                    }
                })
            })
            .collect();

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let overflows = Arc::clone(&overflows);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => queue_depth_gauge().add(1),
                        Err(TrySendError::Full(stream)) => {
                            overflows.fetch_add(1, Ordering::Relaxed);
                            rejected_counter().inc();
                            reject_overloaded(stream);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                // tx drops here; workers drain the queue and exit.
            })
        };

        Ok(HttpServer {
            local_addr,
            shutdown,
            live,
            accept_handle: Some(accept_handle),
            workers,
            overflows,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections bounced with 503 because the queue was full.
    pub fn overflow_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.overflows)
    }

    /// Graceful shutdown: stop accepting, end the reads of idle
    /// connections, serve what's queued, join all threads. Idempotent
    /// (called by `Drop` too).
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        Live::close(&self.live);
        // Nudge the accept loop out of `accept()`. A 0.0.0.0 / :: bind is
        // not connectable on every platform, so aim at loopback then.
        let wake_addr = if self.local_addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if self.local_addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            SocketAddr::new(loopback, self.local_addr.port())
        } else {
            self.local_addr
        };
        let woke =
            TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1)).is_ok();
        if !woke {
            // The accept thread could not be unblocked (firewalled
            // self-connect). Joining would deadlock — and the workers
            // wait on the queue sender the accept thread owns — so leave
            // the threads to die with the process instead of hanging it.
            self.accept_handle.take();
            self.workers.clear();
            return;
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Writes the overload response without occupying a worker.
fn reject_overloaded(mut stream: TcpStream) {
    let resp = Response::error(503, "server overloaded: request queue is full");
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_response(&mut stream, &resp, false);
    // Best-effort drain of whatever request bytes already arrived, so
    // closing with unread data doesn't RST the 503 away. Non-blocking:
    // the accept thread must never stall on a slow client.
    let _ = stream.set_nonblocking(true);
    let mut sink = [0u8; 4096];
    let _ = stream.read(&mut sink);
}

/// Serves one connection: a keep-alive loop of request → handler →
/// response, ending on `Connection: close`, EOF, timeout, or error. The
/// connection stays registered in `live` while it is served.
fn serve_connection(
    stream: TcpStream,
    handler: &Handler,
    max_body: usize,
    read_timeout: Duration,
    live: &Mutex<Live>,
) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let Ok(_registration) = Live::register(live, &stream) else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, max_body) {
            Ok(None) => break, // clean EOF between requests
            Ok(Some(request)) => {
                let keep_alive = !request.close;
                let response = handler(&request);
                if write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    break;
                }
            }
            Err(ParseError::Io(_)) => break,
            Err(ParseError::Bad(status, message)) => {
                parse_error_counter().inc();
                let _ = write_response(&mut writer, &Response::error(status, &message), false);
                break;
            }
        }
    }
}

enum ParseError {
    /// The connection failed: EOF mid-message, timeout or reset. The
    /// server closes quietly; the client returns the error.
    Io(io::Error),
    /// Malformed or oversized message: the server answers this status
    /// and closes; the client refuses the reply with the message.
    Bad(u16, String),
}

impl From<ParseError> for io::Error {
    fn from(error: ParseError) -> io::Error {
        match error {
            ParseError::Io(error) => error,
            ParseError::Bad(_, message) => invalid(message),
        }
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads one CRLF-terminated line, hard-capped at `limit` bytes so a
/// peer streaming an endless newline-free header cannot grow the
/// buffer without bound. Returns the byte count (0 at clean EOF).
fn read_capped_line(
    reader: &mut impl BufRead,
    line: &mut String,
    limit: usize,
) -> Result<usize, ParseError> {
    let mut limited = reader.take(limit as u64 + 1);
    match limited.read_line(line) {
        Ok(0) => Ok(0),
        Ok(n) if n > limit => Err(ParseError::Bad(400, "header line too large".to_string())),
        // Connection ended mid-line.
        Ok(_) if !line.ends_with('\n') => {
            Err(ParseError::Bad(400, "truncated request".to_string()))
        }
        Ok(n) => Ok(n),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            Err(ParseError::Bad(400, "headers are not UTF-8".to_string()))
        }
        Err(e) => Err(ParseError::Io(e)), // timeout or reset
    }
}

/// What a message head says about the body after it.
struct Framing {
    /// The `Content-Length`, when the head carried one.
    content_length: Option<usize>,
    /// `Some(true)` after `Connection: close`, `Some(false)` after
    /// `Connection: keep-alive`; the last such header wins.
    close: Option<bool>,
}

/// Reads the header lines of a request or a reply through the blank
/// line that ends the head, under the framing rules both directions
/// share. `head_bytes` is what the start line already used of
/// [`MAX_HEAD`]. Each header goes to `on_header` as trimmed `(name,
/// value)`, so a caller that keeps none stores nothing.
fn read_headers(
    reader: &mut impl BufRead,
    mut head_bytes: usize,
    mut on_header: impl FnMut(&str, &str),
) -> Result<Framing, ParseError> {
    let mut framing = Framing {
        content_length: None,
        close: None,
    };
    let mut line = String::new();
    for _ in 0..MAX_HEADERS {
        let remaining = MAX_HEAD.saturating_sub(head_bytes);
        if remaining == 0 {
            return Err(ParseError::Bad(400, "headers too large".to_string()));
        }
        line.clear();
        match read_capped_line(reader, &mut line, remaining)? {
            0 => return Err(ParseError::Bad(400, "truncated headers".to_string())),
            n => head_bytes += n,
        }
        let header = line.trim_end();
        if header.is_empty() {
            return Ok(framing);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::Bad(400, format!("malformed header: {header:?}")));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9110 §8.6: `1*DIGIT`. `usize::from_str` also takes a
            // leading `+`, which another parser in the chain may not.
            let parsed = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Err(ParseError::Bad(400, format!("bad content-length: {value:?}"))),
            };
            // Duplicate Content-Length headers used to be last-wins —
            // the request-smuggling shape, where two parsers in the
            // chain pick different values and disagree on where the
            // body ends. Identical repeats are harmless; a conflict
            // is fatal.
            if let Some(previous) = framing.content_length {
                if previous != parsed {
                    return Err(ParseError::Bad(
                        400,
                        format!("conflicting content-length headers: {previous} vs {parsed}"),
                    ));
                }
            }
            framing.content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // No chunked (or any other) transfer coding is implemented. A
            // parser that ignored the header would frame such a body as
            // empty and read its chunk lines as the next message on the
            // connection — the smuggling shape again — so refuse and close.
            return Err(ParseError::Bad(
                501,
                format!("transfer-encoding not implemented: {value:?}"),
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                framing.close = Some(true);
            } else if value.eq_ignore_ascii_case("keep-alive") {
                framing.close = Some(false);
            }
        }
        on_header(name, value);
    }
    Err(ParseError::Bad(400, "too many headers".to_string()))
}

/// Reads exactly `len` body bytes.
fn read_body(reader: &mut impl BufRead, len: usize) -> Result<Vec<u8>, ParseError> {
    // Capacity up front for the common case, not for whatever a
    // garbled length claims: a short body stops the read at EOF.
    let mut body = Vec::with_capacity(len.min(1 << 20));
    match reader.take(len as u64).read_to_end(&mut body) {
        Ok(n) if n == len => Ok(body),
        _ => Err(ParseError::Bad(400, "truncated body".to_string())),
    }
}

/// Reads one request. `Ok(None)` when the connection ended cleanly before
/// a request started.
fn read_request(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<Request>, ParseError> {
    let mut line = String::new();
    if read_capped_line(reader, &mut line, MAX_HEAD)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Bad(400, format!("malformed request line: {line:?}")));
    };
    // Exactly three tokens: a request line with trailing junk used to
    // parse as if the junk weren't there, which means two intermediaries
    // could disagree about what was requested. Reject it outright.
    if parts.next().is_some() {
        return Err(ParseError::Bad(
            400,
            format!("malformed request line (extra tokens): {line:?}"),
        ));
    }
    // Only the two HTTP/1.x revisions that exist. "HTTP/1.7" used to be
    // waved through as if it were 1.1; an unknown minor may carry
    // semantics this parser does not implement.
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Bad(400, format!("unsupported version: {version}")));
    }
    let path = target.split('?').next().unwrap_or("").to_string();
    let framing = read_headers(reader, line.len(), |_, _| {})?;
    let content_length = framing.content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ParseError::Bad(413, "request body too large".to_string()));
    }
    Ok(Some(Request {
        method: method.to_uppercase(),
        path,
        body: read_body(reader, content_length)?,
        // Persistence default follows the protocol version: HTTP/1.1
        // keeps alive, HTTP/1.0 closes unless the client opts in.
        close: framing.close.unwrap_or(version == "HTTP/1.0"),
    }))
}

fn write_response(w: &mut impl Write, response: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut slices = [
        IoSlice::new(head.as_bytes()),
        IoSlice::new(response.body.as_bytes()),
    ];
    write_all_vectored(w, &mut slices)?;
    w.flush()
}

/// Writes every byte of `slices` in as few `write_vectored` calls as the
/// writer allows — one, on a socket with room — advancing past partial
/// writes and retrying on `Interrupted`. (`Write::write_all_vectored` is
/// still unstable.)
fn write_all_vectored(w: &mut impl Write, mut slices: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole response",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// How long a [`Client`] waits on a silent server for reply bytes.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long [`Client::wait_for_job`] polls, and how often.
const JOB_DEADLINE: Duration = Duration::from_secs(30);
const JOB_POLL: Duration = Duration::from_millis(1);

/// One reply, as [`Client::request`] reads it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Headers in arrival order: names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (every endpoint of this service answers UTF-8).
    pub body: String,
}

impl Reply {
    /// The first value of header `name`, which must be lower-case.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }
}

/// A keep-alive HTTP/1.1 client for one server. Replies are read with
/// the server's own head reader and framing rules: a non-digit or
/// conflicting `Content-Length`, a `Transfer-Encoding` or a short body
/// is an error, and the connection is dropped rather than read on out
/// of frame. A kept-alive connection the server has since closed (its
/// idle read timeout) is replaced before the request goes out; a request
/// is never sent twice.
pub struct Client {
    addr: SocketAddr,
    connection: Option<BufReader<TcpStream>>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// An address that does not resolve, or the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        let mut client = Client {
            addr,
            connection: None,
        };
        client.open()?;
        Ok(client)
    }

    fn open(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        self.connection = Some(BufReader::new(stream));
        Ok(())
    }

    /// Sends `method path` with `body` and reads the reply.
    ///
    /// # Errors
    ///
    /// A transport failure, or a reply the server's framing rules
    /// refuse; either way the connection is dropped and the next request
    /// opens a new one.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        if !self.connection.as_ref().is_some_and(still_open) {
            self.open()?;
        }
        let reader = self.connection.as_mut().expect("opened above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut slices = [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())];
        let result = write_all_vectored(&mut reader.get_ref(), &mut slices)
            .and_then(|()| read_reply(reader));
        if !matches!(result, Ok((_, true))) {
            self.connection = None;
        }
        result.map(|(reply, _)| reply)
    }

    /// Polls `GET /jobs/{id}` until the job leaves `queued`/`running`,
    /// handing every polled document to `observe`, and returns the last.
    ///
    /// # Errors
    ///
    /// A failed request, a reply other than a 200 job document, or a job
    /// still unfinished after 30 seconds (`TimedOut`).
    pub fn wait_for_job(&mut self, id: u64, mut observe: impl FnMut(&Json)) -> io::Result<Json> {
        let path = format!("/jobs/{id}");
        let deadline = Instant::now() + JOB_DEADLINE;
        loop {
            let reply = self.request("GET", &path, "")?;
            let doc = match Json::parse(&reply.body) {
                Ok(doc) if reply.status == 200 => doc,
                _ => return Err(invalid(format!("GET {path}: {}", reply.body))),
            };
            observe(&doc);
            let status = doc.get("status").and_then(Json::as_str);
            if !matches!(status, Some("queued" | "running")) {
                return Ok(doc);
            }
            if Instant::now() >= deadline {
                let message = format!("job {id} unfinished after {JOB_DEADLINE:?}");
                return Err(io::Error::new(io::ErrorKind::TimedOut, message));
            }
            std::thread::sleep(JOB_POLL);
        }
    }
}

/// Whether a kept-alive connection can carry another request: nothing
/// unread is buffered, and a non-blocking peek finds no EOF, reset or
/// stray bytes from the server, only an empty socket.
fn still_open(reader: &BufReader<TcpStream>) -> bool {
    let stream = reader.get_ref();
    if !reader.buffer().is_empty() || stream.set_nonblocking(true).is_err() {
        return false;
    }
    let idle = matches!(stream.peek(&mut [0u8]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && idle
}

/// Reads one reply; the flag says whether the server keeps the
/// connection open.
fn read_reply(reader: &mut impl BufRead) -> io::Result<(Reply, bool)> {
    let mut line = String::new();
    if read_capped_line(reader, &mut line, MAX_HEAD)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without replying",
        ));
    }
    let line = line.trim_end();
    let mut parts = line.splitn(3, ' ');
    let (version, code) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let status = match (version, code.parse()) {
        ("HTTP/1.1" | "HTTP/1.0", Ok(status))
            if code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()) =>
        {
            status
        }
        _ => return Err(invalid(format!("malformed status line: {line:?}"))),
    };
    let mut headers = Vec::new();
    let framing = read_headers(reader, line.len(), |name, value| {
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    })?;
    let length = framing
        .content_length
        .ok_or_else(|| invalid("reply without content-length"))?;
    let body = String::from_utf8(read_body(reader, length)?)
        .map_err(|_| invalid("reply body is not UTF-8"))?;
    let reply = Reply {
        status,
        headers,
        body,
    };
    Ok((reply, !framing.close.unwrap_or(version == "HTTP/1.0")))
}

#[cfg(test)]
impl Client {
    /// The local address of the open connection, if one is open.
    pub(crate) fn local_addr(&self) -> Option<SocketAddr> {
        self.connection.as_ref()?.get_ref().local_addr().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An echo server, and a receiver that takes one message each time
    /// a `/slow` request starts.
    fn echo_server(workers: usize, queue_depth: usize) -> (HttpServer, mpsc::Receiver<()>) {
        let (entered, slow_started) = mpsc::channel();
        let handler: Handler = Arc::new(move |req: &Request| {
            if req.path == "/slow" {
                let _ = entered.send(());
                std::thread::sleep(Duration::from_millis(300));
            }
            Response::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"len\":{}}}",
                    req.method,
                    req.path,
                    req.body.len()
                ),
            )
        });
        HttpServer::bind(
            HttpConfig {
                workers,
                queue_depth,
                ..HttpConfig::default()
            },
            handler,
        )
        .map(|server| (server, slow_started))
        .expect("bind loopback")
    }

    fn raw_request(addr: SocketAddr, text: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(text.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_get_and_post_with_body() {
        let (server, _) = echo_server(2, 16);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client.request("GET", "/healthz?probe=1", "").unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("content-type"), Some("application/json"));
        assert_eq!(reply.body, r#"{"method":"GET","path":"/healthz","len":0}"#);
        let reply = client.request("POST", "/solve", "abcd").unwrap();
        assert_eq!(reply.body, r#"{"method":"POST","path":"/solve","len":4}"#);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let (server, _) = echo_server(1, 16);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let first = client.local_addr();
        for i in 0..3 {
            let reply = client.request("GET", &format!("/r{i}"), "").unwrap();
            assert!(reply.body.contains(&format!("/r{i}")), "{}", reply.body);
            assert_eq!(reply.header("connection"), Some("keep-alive"));
        }
        assert_eq!(client.local_addr(), first, "one connection for all three");
    }

    /// Accepts one connection per canned reply; on each it reads one
    /// request and answers with the reply, then hangs up. Joining the
    /// thread returns the number of connections accepted.
    fn canned_server(replies: Vec<&'static str>) -> (SocketAddr, JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for reply in &replies {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                assert!(matches!(read_request(&mut reader, 0), Ok(Some(_))));
                stream.write_all(reply.as_bytes()).unwrap();
            }
            replies.len()
        });
        (addr, server)
    }

    #[test]
    fn client_refuses_misframed_replies_and_reconnects() {
        const GOOD: &str = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nX-Test: Yes\r\n\r\nok";
        for (bad, needle) in [
            (
                "HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\nhello",
                "bad content-length",
            ),
            (
                "HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\nhello!",
                "conflicting content-length",
            ),
            (
                "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhello",
                "truncated body",
            ),
            ("HTTP/1.1 200 OK\r\n\r\nhello", "without content-length"),
            (
                "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                "transfer-encoding",
            ),
        ] {
            let (addr, server) = canned_server(vec![bad, GOOD]);
            let mut client = Client::connect(addr).unwrap();
            let error = client.request("GET", "/", "").unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{bad:?}");
            assert!(error.to_string().contains(needle), "{bad:?}: {error}");
            let reply = client.request("GET", "/", "").unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, "ok");
            assert_eq!(reply.header("x-test"), Some("Yes"));
            assert_eq!(reply.headers[1], ("x-test".to_string(), "Yes".to_string()));
            assert_eq!(server.join().unwrap(), 2, "{bad:?}: second request reconnects");
        }
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let (server, _) = echo_server(1, 16);
        // No Connection header: a 1.0 client must get an immediate close
        // (read_to_string returns instead of stalling to the timeout).
        let start = std::time::Instant::now();
        let reply = raw_request(server.local_addr(), "GET /x HTTP/1.0\r\n\r\n");
        assert!(reply.contains("connection: close"), "{reply}");
        assert!(start.elapsed() < Duration::from_secs(2), "1.0 must not idle");
    }

    #[test]
    fn malformed_requests_get_400() {
        let (server, _) = echo_server(1, 16);
        for (request, status, needle) in [
            ("NONSENSE\r\n\r\n", 400, "malformed request line"),
            // Content-Length is `1*DIGIT` only: `+5` parses as a usize
            // but is not a valid length.
            ("GET / HTTP/1.1\r\ncontent-length: -3\r\n\r\nabc", 400, "bad content-length"),
            ("GET / HTTP/1.1\r\ncontent-length: +5\r\n\r\nabcde", 400, "bad content-length"),
            // Conflicting duplicates are the smuggling shape: two parsers
            // in a chain could pick different values and disagree on body
            // framing. An identical repeat names one unambiguous length.
            (
                "POST / HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 7\r\n\r\nabcdefg",
                400,
                "conflicting content-length",
            ),
            (
                "POST / HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\
                 connection: close\r\n\r\nabcd",
                200,
                "\"len\":4",
            ),
            ("GET / HTTP/1.1 junk\r\n\r\n", 400, "extra tokens"),
            // Only the two HTTP/1.x revisions that exist parse.
            ("GET / HTTP/1.2\r\n\r\n", 400, "unsupported version"),
            ("GET / HTTP/1.7\r\n\r\n", 400, "unsupported version"),
            ("GET / HTTP/1.10\r\n\r\n", 400, "unsupported version"),
            ("GET /ok HTTP/1.0\r\n\r\n", 200, "/ok"),
            ("GET /ok HTTP/1.1\r\nconnection: close\r\n\r\n", 200, "/ok"),
        ] {
            let reply = raw_request(server.local_addr(), request);
            let status_line = format!("HTTP/1.1 {status} ");
            assert!(reply.starts_with(&status_line), "{request:?}: {reply}");
            assert!(reply.contains(needle), "{request:?}: {reply}");
        }
    }

    #[test]
    fn transfer_encoding_gets_501_and_close() {
        let (server, _) = echo_server(1, 16);
        // The chunked body ends in bytes laid out as a second request. A
        // parser that ignored the header would frame the body as empty
        // and read on; the daemon must answer once and close.
        let reply = raw_request(
            server.local_addr(),
            "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
             5\r\nhello\r\n0\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 501 Not Implemented\r\n"), "{reply}");
        assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "{reply}");
        assert!(reply.contains("connection: close"), "{reply}");
        assert!(!reply.contains("/smuggled"), "{reply}");
    }

    /// Accepts at most 7 bytes per `write_vectored` call, across slices,
    /// and fails the first call with `Interrupted`.
    struct Trickle {
        out: Vec<u8>,
        interrupted: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut budget = 7;
            for buf in bufs {
                let take = buf.len().min(budget);
                self.out.extend_from_slice(&buf[..take]);
                budget -= take;
            }
            Ok(7 - budget)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        for len in [13, 100_003] {
            let body: String = (0..len).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
            let response = Response::json(200, body.clone()).with_header("x-test", "1");
            let mut writer = Trickle {
                out: Vec::new(),
                interrupted: false,
            };
            write_response(&mut writer, &response, true).unwrap();
            let expected = format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                 content-length: {len}\r\nconnection: keep-alive\r\nx-test: 1\r\n\r\n{body}"
            );
            assert!(writer.interrupted);
            assert!(writer.out == expected.as_bytes(), "len {len}: bytes differ");
        }
    }

    #[test]
    fn vectored_write_reports_write_zero() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let response = Response::json(200, "{}".to_string());
        let err = write_response(&mut Full, &response, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_bodies_get_413() {
        let handler: Handler = Arc::new(|_req| Response::json(200, "{}".to_string()));
        let server = HttpServer::bind(
            HttpConfig {
                max_body: 8,
                ..HttpConfig::default()
            },
            handler,
        )
        .unwrap();
        let reply = raw_request(
            server.local_addr(),
            "POST / HTTP/1.1\r\ncontent-length: 9\r\nconnection: close\r\n\r\n123456789",
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    }

    #[test]
    fn queue_overflow_yields_503() {
        // One worker pinned on a slow request + a queue of depth 1: a
        // burst of idle connections must overflow into 503s.
        let (server, slow_started) = echo_server(1, 1);
        let addr = server.local_addr();
        let slow = std::thread::spawn(move || {
            raw_request(addr, "GET /slow HTTP/1.1\r\nconnection: close\r\n\r\n")
        });
        slow_started.recv().expect("the worker takes /slow");
        // The worker is busy; connection 1 fills the queue, further ones
        // must bounce. Open several without reading so they stay queued.
        let mut held: Vec<TcpStream> = Vec::new();
        let mut saw_503 = false;
        for _ in 0..8 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n")
                .unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut buf = [0u8; 12];
            if let Ok(n) = stream.read(&mut buf) {
                if std::str::from_utf8(&buf[..n])
                    .unwrap_or("")
                    .contains("503")
                {
                    saw_503 = true;
                    break;
                }
            }
            held.push(stream);
        }
        assert!(saw_503, "expected at least one 503 under overload");
        assert!(server.overflow_counter().load(Ordering::Relaxed) >= 1);
        let slow_reply = slow.join().unwrap();
        assert!(slow_reply.contains("200 OK"), "{slow_reply}");
    }

    #[test]
    fn graceful_shutdown_joins_all_threads() {
        let (mut server, _) = echo_server(2, 8);
        assert_eq!(HttpConfig::default().read_timeout, Duration::from_secs(5));
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.request("GET", "/x", "").unwrap().status, 200);
        // The kept-alive client holds a worker in an idle read: shutdown
        // must end that read, not wait out the read timeout.
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        assert!(server.live.lock().unwrap().streams.is_empty(), "a clone outlived its connection");
        drop(client);
        server.shutdown(); // idempotent
        assert!(TcpStream::connect(addr).is_err() || {
            // The OS may accept briefly on some platforms; a request must
            // at least go unanswered.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        });
    }
}
