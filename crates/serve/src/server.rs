//! The audit server: acceptor, bounded queue, worker pool, routing.
//!
//! One acceptor thread takes connections off a [`TcpListener`] and
//! pushes them onto a bounded queue; `workers` handler threads pop and
//! serve them, answering requests back-to-back on the same connection
//! (HTTP/1.1 keep-alive) until the client hangs up, asks for
//! `Connection: close`, stalls past the read timeout, or sends
//! something malformed. When the queue is full the acceptor answers
//! `503` inline (with a `Retry-After` hint) and drops the connection —
//! that is the whole backpressure story, load is shed at the door
//! instead of queueing unboundedly. Read *and* write timeouts bound
//! every socket op, a per-request wall-clock deadline turns
//! slow-trickling requests into `408`s (`DeadlineStream`), and
//! [`Server::begin_drain`] winds the daemon down gracefully: new
//! connections get a distinct `503 … draining` while in-flight and
//! queued requests finish. Handlers run the resident
//! [`AuditEngine`](dq_core::AuditEngine)s behind `Arc`s (no locks on
//! the hot path; the engine is `Sync` by construction) and are wrapped
//! in `catch_unwind`, so a panicking request costs one `500`, not the
//! daemon.
//!
//! On the wire, every accepted socket gets `TCP_NODELAY` and every
//! response — the inline `503`s included — leaves in one write
//! ([`http::write_response_with`]), so a keep-alive round trip costs
//! the audit plus a fraction of a millisecond, never a 40 ms
//! Nagle/delayed-ACK stall. Request heads are size-capped
//! ([`http::MAX_LINE_BYTES`], [`http::MAX_HEADERS`]); a head over
//! either cap gets `431` and the connection closes.
//!
//! ## Routes
//!
//! | route | body | answer |
//! |---|---|---|
//! | `GET /health` | — | `ok` |
//! | `GET /stats` | — | per-model counters, CSV |
//! | `POST /audit/{model}/record` | one headerless CSV record | audit report CSV |
//! | `POST /audit/{model}/batch` | headerless CSV records | audit report CSV |
//! | `POST /audit/{model}/stream` | full CSV (header + records) | audit report CSV |
//!
//! `{model}` is a registry name or a 16-hex schema fingerprint.
//! `?corrections=1` returns proposed corrections instead of the raw
//! report. An `X-Schema-Fingerprint` header asserts the schema the
//! client believes it is sending; a mismatch is `409` with the
//! [`AuditError::SchemaFingerprint`] message. CSV cell errors come
//! back as `400` carrying the table layer's message verbatim —
//! including the 1-based line number of the offending cell.

use crate::http::{self, HttpError, Request};
use crate::registry::{ModelEntry, ModelRegistry};
use dq_core::{corrections_to_csv, propose_corrections, AuditError, AuditReport};
use std::collections::VecDeque;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults suit the tests and small
/// deployments; `dq serve` exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Handler threads popping the connection queue.
    pub workers: usize,
    /// Connection-queue bound; the acceptor answers `503` beyond it.
    pub queue_depth: usize,
    /// Rows per [`dq_table::CsvChunkReader`] chunk on the stream
    /// endpoint (bounded memory per in-flight request). Per-request
    /// detection threads are a registry knob
    /// ([`ModelRegistry::load_dir_with_threads`]); engines default to
    /// one thread per request — concurrency comes from the request
    /// fan-out, not from sharding each scan.
    pub chunk_rows: usize,
    /// Largest accepted request body, bytes (`413` beyond it).
    pub max_body: usize,
    /// Socket read timeout, so a stalled client cannot pin a worker.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout, so a client that stops *reading* cannot
    /// pin a worker mid-response either.
    pub write_timeout: Option<Duration>,
    /// Per-request wall-clock deadline, armed at the first byte of a
    /// request line and cleared once the request is parsed. A body
    /// trickling in slower than this answers `408 Request Timeout`
    /// instead of holding a worker; idle keep-alive waits between
    /// requests are governed by `read_timeout` alone. `None` disables
    /// the deadline.
    pub request_deadline: Option<Duration>,
    /// Advisory `Retry-After` seconds carried by queue-full `503`s —
    /// the client-visible half of the backpressure story.
    pub retry_after_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            chunk_rows: 4096,
            max_body: 64 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            request_deadline: Some(Duration::from_secs(60)),
            retry_after_secs: 1,
        }
    }
}

/// State shared by the acceptor and the workers.
struct Shared {
    registry: ModelRegistry,
    config: ServeConfig,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
    /// Drain mode: new connections are refused with a distinct `503`,
    /// in-flight requests finish, `/health` reports `draining`.
    draining: AtomicBool,
}

/// A running audit server. Dropping the handle leaks the threads;
/// call [`Server::shutdown`] for a clean stop (used by every test),
/// or [`Server::join`] to serve until the process dies (the CLI).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port), load-free:
    /// `registry` is already resident. Spawns the acceptor and
    /// `config.workers` handler threads and returns immediately.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: ModelRegistry,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            registry,
            config,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });

        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server { addr, shared, acceptor, workers })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The resident registry (for reading counters).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Flip into drain mode without stopping: the acceptor refuses new
    /// connections with `503` bodies saying `draining` (distinct from
    /// queue-full shedding), `/health` answers `503 draining`, `/stats`
    /// stays readable on existing connections, in-flight and queued
    /// requests finish, and every response while draining carries
    /// `Connection: close` so keep-alive connections wind down. Call
    /// [`Server::shutdown`] afterwards for the full stop.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Stop accepting, drain the queue, join every thread. In-flight
    /// and already-queued requests complete; nothing is dropped.
    pub fn shutdown(self) {
        self.begin_drain();
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        // Wake every idle worker; each drains the queue before exiting.
        drop(self.shared.queue.lock().unwrap());
        self.shared.ready.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Serve until the process dies (the CLI foreground mode).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Accept connections and enqueue them; shed load inline at the
/// queue bound.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Shed responses are a few dozen bytes, but bound the write
        // anyway so a peer that never reads cannot pin the acceptor.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        if shared.draining.load(Ordering::SeqCst) {
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                503,
                "text/plain; charset=utf-8",
                b"error: server is draining, not accepting new connections\n",
                true,
            );
            continue;
        }
        let mut queue = shared.queue.lock().unwrap();
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            let mut stream = stream;
            let retry_after = shared.config.retry_after_secs.to_string();
            let _ = http::write_response_with(
                &mut stream,
                503,
                "text/plain; charset=utf-8",
                b"error: request queue is full, retry later\n",
                true,
                &[("Retry-After", retry_after.as_str())],
            );
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.ready.notify_one();
    }
}

/// Pop connections and serve them until stop + empty queue.
fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.ready.wait(queue).unwrap();
            }
        };
        let Some(stream) = stream else { return };
        // A panicking handler costs this request a 500, not the daemon.
        let result = catch_unwind(AssertUnwindSafe(|| handle_connection(shared, stream)));
        if let Err(_panic) = result {
            // The stream moved into the handler; nothing to answer on.
        }
    }
}

/// A [`Read`] wrapper enforcing the per-request wall-clock deadline.
///
/// The deadline arms at the first byte of a request and is cleared by
/// [`DeadlineStream::disarm`] before the next one, so idle keep-alive
/// waits face only the plain read timeout. Each read bounds its socket
/// timeout by the time remaining; when that runs out — a body
/// trickling in slower than the deadline, or a stall mid-request —
/// the read fails and [`DeadlineStream::deadline_hit`] latches, which
/// the connection loop answers with `408`.
struct DeadlineStream {
    stream: TcpStream,
    read_timeout: Option<Duration>,
    deadline: Option<Duration>,
    /// Arm time: the instant the current request's first byte arrived.
    started: Option<Instant>,
    deadline_hit: bool,
}

impl DeadlineStream {
    fn new(stream: TcpStream, read_timeout: Option<Duration>, deadline: Option<Duration>) -> Self {
        DeadlineStream { stream, read_timeout, deadline, started: None, deadline_hit: false }
    }

    /// Clear the armed deadline: the current request is fully read.
    fn disarm(&mut self) {
        self.started = None;
    }

    fn deadline_hit(&self) -> bool {
        self.deadline_hit
    }

    fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    fn expire(&mut self) -> io::Error {
        self.deadline_hit = true;
        io::Error::new(io::ErrorKind::TimedOut, "request deadline exceeded")
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let effective = match (self.deadline, self.started) {
            (Some(deadline), Some(started)) => {
                let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
                    return Err(self.expire());
                };
                Some(self.read_timeout.map_or(remaining, |t| t.min(remaining)))
            }
            _ => self.read_timeout,
        };
        // Zero means "no timeout" to the socket layer; clamp up so an
        // almost-expired deadline still times out instead of blocking.
        self.stream.set_read_timeout(effective.map(|t| t.max(Duration::from_millis(1))))?;
        match self.stream.read(buf) {
            Ok(n) => {
                if n > 0 && self.started.is_none() {
                    self.started = Some(Instant::now());
                }
                Ok(n)
            }
            // A timeout while a request is partially read: the peer is
            // too slow for the deadline (SO_RCVTIMEO surfaces as either
            // kind depending on platform).
            Err(e)
                if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
                    && self.started.is_some() =>
            {
                Err(self.expire())
            }
            Err(e) => Err(e),
        }
    }
}

/// Serve one connection: requests are read, routed and answered in a
/// loop until the peer closes, asks for `Connection: close` (or is
/// HTTP/1.0 without opting in), stalls, or breaks framing — a
/// malformed request or a handler panic gets its error response and
/// then the connection closes, since the byte stream can no longer be
/// trusted. A request that outlives the configured deadline gets `408`
/// before the close; while the server drains, every response forces
/// `Connection: close` so keep-alive clients wind down.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // A socket whose writes cannot be bounded must not be served at
    // all — an unbounded write hands a never-reading client a worker,
    // which is the pinning this timeout exists to prevent.
    if let Err(e) = stream.set_write_timeout(shared.config.write_timeout) {
        eprintln!("dq-serve: dropping connection: set_write_timeout failed: {e}");
        return;
    }
    // Responses already leave in one write each; `TCP_NODELAY` also
    // keeps the kernel from holding one back until the client ACKs the
    // previous. Without it the connection is slower, not wrong, so a
    // failure here is not fatal.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(DeadlineStream::new(
        stream,
        shared.config.read_timeout,
        shared.config.request_deadline,
    ));
    loop {
        reader.get_mut().disarm();
        let request = match http::read_request(&mut reader, shared.config.max_body) {
            Ok(request) => request,
            Err(err) => {
                if reader.get_ref().deadline_hit() {
                    respond_error(
                        reader.get_mut().stream_mut(),
                        408,
                        "request not fully received within the server's deadline",
                    );
                    return;
                }
                let (status, message) = match err {
                    // Nothing arrived (or the peer vanished): nothing
                    // to say.
                    HttpError::ConnectionClosed | HttpError::Io(_) => return,
                    HttpError::Malformed(_) => (400, err.to_string()),
                    HttpError::HeadersTooLarge(_) => (431, err.to_string()),
                    HttpError::BodyTooLarge { .. } => (413, err.to_string()),
                };
                respond_error(reader.get_mut().stream_mut(), status, &message);
                return;
            }
        };
        let keep_alive = request.keep_alive() && !shared.draining.load(Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| route(shared, &request)));
        let written = match outcome {
            Ok((status, content_type, body)) => http::write_response(
                reader.get_mut().stream_mut(),
                status,
                content_type,
                &body,
                !keep_alive,
            )
            .is_ok(),
            Err(_panic) => {
                respond_error(reader.get_mut().stream_mut(), 500, "internal error while auditing");
                false
            }
        };
        if !keep_alive || !written {
            return;
        }
    }
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    let body = format!("error: {message}\n");
    let _ =
        http::write_response(stream, status, "text/plain; charset=utf-8", body.as_bytes(), true);
}

type RouteAnswer = (u16, &'static str, Vec<u8>);

fn error_answer(status: u16, message: impl std::fmt::Display) -> RouteAnswer {
    (status, "text/plain; charset=utf-8", format!("error: {message}\n").into_bytes())
}

/// Dispatch a parsed request to its handler.
fn route(shared: &Shared, request: &Request) -> RouteAnswer {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["health"] => match request.method.as_str() {
            // While draining, health flips so load balancers and
            // probes steer away; /stats stays readable for the final
            // reconciliation.
            "GET" if shared.draining.load(Ordering::SeqCst) => {
                (503, "text/plain; charset=utf-8", b"draining\n".to_vec())
            }
            "GET" => (200, "text/plain; charset=utf-8", b"ok\n".to_vec()),
            _ => error_answer(405, "use GET /health"),
        },
        ["stats"] => match request.method.as_str() {
            "GET" => (200, "text/csv; charset=utf-8", stats_csv(&shared.registry).into_bytes()),
            _ => error_answer(405, "use GET /stats"),
        },
        ["audit", key, kind @ ("record" | "batch" | "stream")] => {
            if request.method != "POST" {
                return error_answer(405, format!("use POST /audit/{key}/{kind}"));
            }
            let Some(entry) = shared.registry.resolve(key) else {
                return error_answer(
                    404,
                    format!("unknown model `{key}` (not a registered name or 16-hex schema fingerprint)"),
                );
            };
            entry.stats.requests.fetch_add(1, Ordering::Relaxed);
            let answer = audit(shared, entry, kind, request);
            if answer.0 != 200 {
                entry.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            answer
        }
        _ => error_answer(404, format!("no route for `{}`", request.path)),
    }
}

/// The audit endpoints proper: fingerprint assertion, body decode,
/// detection, report rendering.
fn audit(shared: &Shared, entry: &ModelEntry, kind: &str, request: &Request) -> RouteAnswer {
    if let Some(claimed) = request.header("x-schema-fingerprint") {
        let Ok(claimed_fp) = u64::from_str_radix(claimed, 16) else {
            return error_answer(
                400,
                format!("malformed X-Schema-Fingerprint `{claimed}` (expected 16 hex digits)"),
            );
        };
        let found = entry.engine.fingerprint();
        if claimed_fp != found {
            return error_answer(
                409,
                AuditError::SchemaFingerprint { expected: claimed_fp, found },
            );
        }
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_answer(400, "request body is not valid UTF-8");
    };
    let engine = &entry.engine;
    let result = match kind {
        "record" => {
            let line = body.trim_end_matches(['\r', '\n']);
            if line.contains('\n') {
                return error_answer(
                    400,
                    "the record endpoint takes exactly one CSV record; POST several to /batch",
                );
            }
            engine.detect_record_csv(line)
        }
        "batch" => {
            // A micro-batch of headerless records: audited as a
            // synthetic CSV whose header is the schema's attribute
            // line, so cell errors report 1-based lines with the
            // implied header as line 1 (first record = line 2).
            let names: Vec<&str> =
                engine.schema().attributes().iter().map(|a| a.name.as_str()).collect();
            let csv = format!("{}\n{}", names.join(","), body);
            engine.detect_csv(csv.as_bytes(), shared.config.chunk_rows)
        }
        // A full CSV stream, header included: lines map 1:1 to the
        // client's own file.
        _ => engine.detect_csv(body.as_bytes(), shared.config.chunk_rows),
    };
    match result {
        Ok(report) => {
            entry.stats.records.fetch_add(report.n_rows() as u64, Ordering::Relaxed);
            entry.stats.violations.fetch_add(report.findings.len() as u64, Ordering::Relaxed);
            let csv = render_report(engine, &report, request.query_flag("corrections"));
            (200, "text/csv; charset=utf-8", csv.into_bytes())
        }
        Err(err) => {
            let status = match err {
                AuditError::SchemaFingerprint { .. } => 409,
                AuditError::Table(_) => 400,
                _ => 500,
            };
            error_answer(status, err)
        }
    }
}

/// The response body: the audit report CSV, or the proposed
/// corrections when `?corrections=1`.
fn render_report(engine: &dq_core::AuditEngine, report: &AuditReport, corrections: bool) -> String {
    if corrections {
        corrections_to_csv(&propose_corrections(report), engine.schema())
    } else {
        report.to_csv(engine.schema())
    }
}

/// The `GET /stats` body: one row per resident model.
fn stats_csv(registry: &ModelRegistry) -> String {
    let mut out = String::from("model,fingerprint,requests,records,violations,errors\n");
    for entry in registry.entries() {
        let (requests, records, violations, errors) = entry.stats.snapshot();
        out.push_str(&format!(
            "{},{},{requests},{records},{violations},{errors}\n",
            entry.name,
            entry.fingerprint_hex(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use dq_core::Auditor;
    use dq_table::{SchemaBuilder, Table, Value};
    use std::io::Write as _;

    fn fixture() -> (ModelRegistry, Table) {
        let schema = SchemaBuilder::new()
            .nominal("brv", ["404", "501"])
            .nominal("gbm", ["901", "911"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..400u32 {
            let c = i % 2;
            t.push_row(&[Value::Nominal(c), Value::Nominal(c)]).unwrap();
        }
        t.push_row(&[Value::Nominal(0), Value::Nominal(1)]).unwrap();
        let model = Auditor::default().induce(&t).unwrap();
        let engine = dq_core::AuditEngine::new(model, t.schema().clone());
        let mut registry = ModelRegistry::new();
        registry.insert("calls", engine).unwrap();
        (registry, t)
    }

    fn start(registry: ModelRegistry) -> Server {
        Server::bind("127.0.0.1:0", registry, ServeConfig::default()).unwrap()
    }

    #[test]
    fn health_stats_and_audit_round_trip() {
        let (registry, table) = fixture();
        let server = start(registry);
        let addr = server.addr();

        let health = client::get(addr, "/health").unwrap();
        assert_eq!((health.status, health.body_str()), (200, "ok\n"));

        // Stream the whole table; the response is the in-memory report.
        let mut csv = Vec::new();
        dq_table::write_csv(&table, &mut csv).unwrap();
        let resp = client::post(addr, "/audit/calls/stream", &[], &csv).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let engine = &server.registry().resolve("calls").unwrap().engine;
        let expected = engine.detect(table.batches(table.n_rows())).unwrap();
        assert_eq!(resp.body_str(), expected.to_csv(table.schema()));

        // One deviant record alone, by name and by fingerprint.
        let record = "501,901";
        for key in ["calls", &server.registry().entries()[0].fingerprint_hex()] {
            let resp = client::post(addr, &format!("/audit/{key}/record"), &[], record.as_bytes())
                .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
            assert!(resp.body_str().lines().count() > 1, "deviant record must be flagged");
        }

        let stats = client::get(addr, "/stats").unwrap();
        let line = stats
            .body_str()
            .lines()
            .find(|l| l.starts_with("calls,"))
            .expect("stats row")
            .to_string();
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[2], "3", "requests: {line}");
        assert_eq!(fields[3], "403", "records: {line}");
        assert_eq!(fields[5], "0", "errors: {line}");

        server.shutdown();
    }

    #[test]
    fn keep_alive_round_trips_do_not_stall() {
        let (registry, _) = fixture();
        let server = start(registry);
        let addr = server.addr();
        let mut conn = client::Connection::open(addr).unwrap();

        // Back to back on one connection, each request sent right after
        // the previous response: the pattern a Nagle/delayed-ACK stall
        // turns into ~40 ms per round trip (seconds in total), and one
        // write per message on `TCP_NODELAY` sockets into a few ms.
        let started = Instant::now();
        for _ in 0..50 {
            let resp = conn.request("GET", "/health", &[], b"").unwrap();
            assert_eq!(resp.status, 200);
        }
        for _ in 0..50 {
            let resp = conn.request("POST", "/audit/calls/record", &[], b"404,901").unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "100 keep-alive round trips took {elapsed:?}");

        let stats = client::get(addr, "/stats").unwrap();
        let line = stats.body_str().lines().find(|l| l.starts_with("calls,")).unwrap();
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!((fields[2], fields[3]), ("50", "50"), "requests, records: {line}");

        // Hang up first: shutdown would otherwise wait out the idle
        // keep-alive read on this connection.
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn error_statuses_are_typed() {
        let (registry, _) = fixture();
        let fp = registry.entries()[0].fingerprint_hex();
        let server = start(registry);
        let addr = server.addr();

        // Unknown model: 404, immediately.
        let resp = client::post(addr, "/audit/nope/record", &[], b"404,901").unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.body_str().contains("unknown model `nope`"), "{}", resp.body_str());

        // Fingerprint mismatch: 409 with both fingerprints in the body.
        let resp = client::post(
            addr,
            "/audit/calls/record",
            &[("X-Schema-Fingerprint", "0000000000000000")],
            b"404,901",
        )
        .unwrap();
        assert_eq!(resp.status, 409);
        assert!(resp.body_str().contains("schema fingerprint mismatch"), "{}", resp.body_str());
        assert!(resp.body_str().contains(&fp), "{}", resp.body_str());

        // Matching fingerprint: accepted.
        let resp = client::post(
            addr,
            "/audit/calls/record",
            &[("X-Schema-Fingerprint", fp.as_str())],
            b"404,901",
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());

        // A bad cell: 400 carrying the table layer's 1-based line.
        let resp =
            client::post(addr, "/audit/calls/stream", &[], b"brv,gbm\n404,901\n404,zap\n").unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.body_str().contains("line 3"), "{}", resp.body_str());

        // Wrong method: 405.
        let resp = client::get(addr, "/audit/calls/record").unwrap();
        assert_eq!(resp.status, 405);

        // No route: 404.
        let resp = client::get(addr, "/audit/calls/everything").unwrap();
        assert_eq!(resp.status, 404);

        // Errors were counted (the 409 + the 400; the 404s never
        // resolved a model).
        let errors =
            server.registry().resolve("calls").unwrap().stats.errors.load(Ordering::Relaxed);
        assert_eq!(errors, 2);

        // A record body that holds no record: 400, never an empty 200,
        // and no audited record is counted.
        for body in [&b""[..], b"\n", b"\r\n"] {
            let resp = client::post(addr, "/audit/calls/record", &[], body).unwrap();
            assert_eq!(resp.status, 400, "{body:?}: {}", resp.body_str());
            assert!(resp.body_str().contains("exactly one record"), "{}", resp.body_str());
        }
        let stats = &server.registry().resolve("calls").unwrap().stats;
        assert_eq!(stats.errors.load(Ordering::Relaxed), 5);
        assert_eq!(stats.records.load(Ordering::Relaxed), 1, "only the accepted record");

        server.shutdown();
    }

    #[test]
    fn drain_refuses_new_connections_but_finishes_in_flight_work() {
        let (registry, table) = fixture();
        let server = start(registry);
        let addr = server.addr();

        // Open keep-alive connections *before* the drain begins, and
        // warm each one so a worker actually holds it (a connect alone
        // can still be sitting in the accept backlog when the drain
        // flag flips, and would then be refused at the door).
        let mut audit_conn = client::Connection::open(addr).unwrap();
        let mut stats_conn = client::Connection::open(addr).unwrap();
        let mut health_conn = client::Connection::open(addr).unwrap();
        for conn in [&mut audit_conn, &mut stats_conn, &mut health_conn] {
            assert_eq!(conn.request("GET", "/health", &[], b"").unwrap().status, 200);
        }

        server.begin_drain();

        // In-flight work still completes — and reconciles in /stats.
        let mut csv = Vec::new();
        dq_table::write_csv(&table, &mut csv).unwrap();
        let resp = audit_conn.request("POST", "/audit/calls/stream", &[], &csv).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let stats = stats_conn.request("GET", "/stats", &[], b"").unwrap();
        assert_eq!(stats.status, 200, "stats must stay readable while draining");
        let line = stats.body_str().lines().find(|l| l.starts_with("calls,")).unwrap();
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!((fields[2], fields[3]), ("1", "401"), "exact reconciliation: {line}");

        // Health flips to draining for probes on live connections.
        let health = health_conn.request("GET", "/health", &[], b"").unwrap();
        assert_eq!((health.status, health.body_str()), (503, "draining\n"));
        assert_eq!(health.unavailable(), Some(client::Unavailable::Draining));

        // New connections are refused with the *distinct* draining 503.
        let refused = client::get(addr, "/health").unwrap();
        assert_eq!(refused.status, 503);
        assert_eq!(refused.unavailable(), Some(client::Unavailable::Draining));
        assert!(refused.retry_after().is_none(), "draining is not a retry-later situation");

        // Drain responses force the connection closed: a second request
        // on the same connection must fail.
        assert!(health_conn.request("GET", "/health", &[], b"").is_err());

        server.shutdown();
    }

    #[test]
    fn slow_requests_answer_408_and_full_queues_carry_retry_after() {
        let (registry, _) = fixture();
        let config = ServeConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Some(Duration::from_secs(1)),
            request_deadline: Some(Duration::from_secs(2)),
            retry_after_secs: 7,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", registry, config).unwrap();
        let addr = server.addr();

        // Pin the single worker: promise a body, then trickle it slower
        // than the wall-clock deadline (but faster than the read
        // timeout — only the deadline can catch this client).
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"POST /audit/calls/record HTTP/1.1\r\nContent-Length: 64\r\n\r\n404,")
            .unwrap();
        slow.flush().unwrap();
        let trickle = {
            let mut slow = slow.try_clone().unwrap();
            std::thread::spawn(move || {
                for _ in 0..15 {
                    std::thread::sleep(Duration::from_millis(150));
                    if slow.write_all(b"x").and_then(|()| slow.flush()).is_err() {
                        break;
                    }
                }
            })
        };

        // Give the worker time to pop the slow connection, then fill
        // the one queue slot, then overflow it.
        std::thread::sleep(Duration::from_millis(200));
        let _queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let resp = client::get(addr, "/health").unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after(), Some(7), "queue-full must advise Retry-After");
        assert_eq!(
            resp.unavailable(),
            Some(client::Unavailable::QueueFull { retry_after: Some(7) })
        );

        // The pinned worker answers 408 once the deadline lapses —
        // typed, not a silent hangup.
        slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut answer = Vec::new();
        std::io::Read::read_to_end(&mut slow, &mut answer).unwrap();
        let text = String::from_utf8(answer).unwrap();
        assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
        assert!(text.contains("deadline"), "{text}");
        trickle.join().unwrap();

        server.shutdown();
    }

    #[test]
    fn client_retry_backs_off_on_queue_full_and_stops_on_drain() {
        // Deterministic backoff schedule: same seed, same sleeps.
        let policy = client::RetryPolicy {
            base: Duration::from_millis(64),
            cap: Duration::from_millis(256),
            ..client::RetryPolicy::default()
        };
        for attempt in 0..4 {
            let a = policy.backoff(attempt);
            let b = policy.backoff(attempt);
            assert_eq!(a, b, "jitter must be replayable");
            let exp = policy.base.saturating_mul(1 << attempt).min(policy.cap);
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a:?} outside [{exp:?}/2, {exp:?}]"
            );
        }

        // Against a draining server, retry returns the 503 immediately
        // (one attempt, no backoff sleeps).
        let (registry, _) = fixture();
        let server = start(registry);
        server.begin_drain();
        let started = std::time::Instant::now();
        let resp = client::post_with_retry(
            server.addr(),
            "/audit/calls/record",
            &[],
            b"404,901",
            &client::RetryPolicy { base: Duration::from_secs(5), ..Default::default() },
        )
        .unwrap();
        assert_eq!(resp.unavailable(), Some(client::Unavailable::Draining));
        assert!(started.elapsed() < Duration::from_secs(2), "draining must not be retried");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_port_closes() {
        let (registry, _) = fixture();
        let server = start(registry);
        let addr = server.addr();
        assert_eq!(client::get(addr, "/health").unwrap().status, 200);
        server.shutdown();
        // The listener is gone: a fresh connection must fail (or be
        // refused on read).
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(stream) => {
                // Connect can win a race with OS-level backlog teardown;
                // the request must still go unanswered.
                let mut stream = stream;
                let _ = stream.write_all(b"GET /health HTTP/1.1\r\n\r\n");
                let mut buf = Vec::new();
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let n = std::io::Read::read_to_end(&mut stream, &mut buf).unwrap_or(0);
                assert_eq!(n, 0, "no worker should answer after shutdown");
            }
        }
    }
}
