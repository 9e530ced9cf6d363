//! A minimal blocking HTTP client for the server's own dialect.
//!
//! Exists so the test harnesses (and anything scripting the daemon
//! without curl) can speak to [`crate::server`] with zero
//! dependencies. Two shapes:
//!
//! * the one-shot helpers ([`get`], [`post`], [`request`]) open a
//!   fresh connection, send `Connection: close`, and read one
//!   response;
//! * [`Connection`] keeps one TCP connection open across any number
//!   of requests (HTTP/1.1 keep-alive), with split
//!   [`Connection::send`]/[`Connection::recv`] so callers can
//!   pipeline several requests before reading the responses.
//!
//! Both read `Content-Length` bodies — exactly what the server emits —
//! and send each request in one write on a `TCP_NODELAY` socket, so
//! keep-alive round trips take well under a millisecond. Responses are
//! parsed by the server's own head reader ([`crate::http`]), under the
//! same line and header-count caps, and a body is buffered only as its
//! bytes arrive, so a hostile peer yields an `io::Error`, never an
//! unbounded allocation.
//! [`post_with_retry`] adds the production posture: bounded retry with
//! exponential backoff and deterministic jitter on connect failures
//! and queue-full `503`s (honoring `Retry-After`), returning
//! immediately on a *draining* `503` — [`Unavailable`] is the typed
//! split between the two.

use crate::http;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A received response: status code, headers, raw body bytes.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 (the server only emits UTF-8 text).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("server responses are UTF-8")
    }

    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The `Retry-After` delay in seconds, when the server sent one
    /// (queue-full `503`s do).
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after")?.parse().ok()
    }

    /// Classify a `503`: transient backpressure worth retrying, or a
    /// draining server that will not come back. `None` for every other
    /// status.
    pub fn unavailable(&self) -> Option<Unavailable> {
        if self.status != 503 {
            return None;
        }
        if self.body_str().contains("draining") {
            Some(Unavailable::Draining)
        } else {
            Some(Unavailable::QueueFull { retry_after: self.retry_after() })
        }
    }
}

/// Why a `503` refused service — the two cases demand opposite client
/// behavior: queue-full is transient (back off and retry, honoring
/// `Retry-After`), draining is terminal for this server (fail over,
/// never retry here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unavailable {
    /// The connection queue was full; retry after backing off.
    QueueFull {
        /// The server's `Retry-After` advice, seconds.
        retry_after: Option<u64>,
    },
    /// The server is draining; new connections will keep being refused.
    Draining,
}

/// Bounded retry with exponential backoff and deterministic jitter,
/// driving [`post_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, the first included (so `1` means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed — the same seed replays the same sleep schedule,
    /// keeping retried runs as reproducible as everything else here.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based): exponential
    /// growth capped at `cap`, then deterministic full jitter down to
    /// half the window — the spread that keeps synchronized clients
    /// from re-stampeding a recovering server.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16)).min(self.cap);
        let nanos = exp.as_nanos() as u64;
        let span = nanos / 2 + 1;
        // SplitMix64 over (seed, attempt): stateless and replayable.
        let mut x = self.seed.wrapping_add((attempt as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        Duration::from_nanos(nanos / 2 + x % span)
    }
}

/// [`post`] with bounded retry: connect failures and queue-full `503`s
/// back off (honoring the server's `Retry-After` when it sends one)
/// and try again up to `policy.max_attempts` total attempts; every
/// other outcome — success, typed audit errors, and notably a
/// *draining* `503` — returns immediately, because a draining server
/// only gets worse.
pub fn post_with_retry(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    policy: &RetryPolicy,
) -> io::Result<Response> {
    let mut attempt = 0u32;
    loop {
        let outcome = post(addr, path, headers, body);
        let last = attempt + 1 >= policy.max_attempts.max(1);
        let delay = match &outcome {
            Ok(resp) => match resp.unavailable() {
                Some(Unavailable::QueueFull { retry_after }) if !last => match retry_after {
                    Some(secs) => Duration::from_secs(secs),
                    None => policy.backoff(attempt),
                },
                _ => return outcome,
            },
            Err(_) if !last => policy.backoff(attempt),
            Err(_) => return outcome,
        };
        std::thread::sleep(delay);
        attempt += 1;
    }
}

/// `GET path` against `addr`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, &[], b"")
}

/// `POST path` with `body` against `addr`.
pub fn post(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Response> {
    request(addr, "POST", path, headers, body)
}

/// One full request/response exchange on a fresh connection, closed
/// afterwards (`Connection: close` is sent).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Response> {
    let mut conn = Connection::open(addr)?;
    let wrote = write_request(conn.reader.get_mut(), method, path, headers, body, true);
    // A server shedding load (queue-full or draining 503) answers and
    // closes before reading the whole request, so the send can die on
    // a broken pipe with the response already buffered. Read it
    // regardless; only when there is no response does the write error
    // matter.
    match conn.recv() {
        Ok(response) => Ok(response),
        Err(recv_err) => Err(wrote.err().unwrap_or(recv_err)),
    }
}

/// A persistent connection to the server: any number of
/// request/response exchanges ride one TCP stream. [`Connection::send`]
/// and [`Connection::recv`] are split so several requests can be
/// pipelined before the first response is read; responses come back in
/// request order.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connect to `addr` with a 60 s read timeout and `TCP_NODELAY`.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Connection { reader: BufReader::new(stream) })
    }

    /// Write one keep-alive request without reading its response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<()> {
        write_request(self.reader.get_mut(), method, path, headers, body, false)
    }

    /// Write one `Connection: close` request — the server answers it
    /// and hangs up.
    pub fn send_close(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<()> {
        write_request(self.reader.get_mut(), method, path, headers, body, true)
    }

    /// Read the next pending response.
    pub fn recv(&mut self) -> io::Result<Response> {
        read_response(&mut self.reader)
    }

    /// One request/response exchange, connection kept open. Like
    /// [`request`], a send cut short by the server answering early
    /// (and closing) still yields the buffered response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let sent = self.send(method, path, headers, body);
        match self.recv() {
            Ok(response) => Ok(response),
            Err(recv_err) => Err(sent.err().unwrap_or(recv_err)),
        }
    }
}

/// Serialize one request onto `stream` in a single write, head and
/// body together, so no tail segment waits on Nagle's algorithm.
pub(crate) fn write_request<W: Write>(
    stream: &mut W,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let mut message = Vec::with_capacity(256 + body.len());
    write!(message, "{method} {path} HTTP/1.1\r\nHost: dq-serve\r\n")?;
    if close {
        message.extend_from_slice(b"Connection: close\r\n");
    }
    for (name, value) in headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    write!(message, "Content-Length: {}\r\n\r\n", body.len())?;
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Parse one response off `reader` (status line, headers,
/// `Content-Length` body; read-to-close when the length is missing).
fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let (status_line, headers) = http::read_head(reader, "response")?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed before a response")
    })?;
    let status =
        status_line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status line `{status_line}`"))
        })?;
    let body = match http::content_length(&headers)? {
        Some(n) => http::read_body(reader, n)?,
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve one connection from an in-process listener: read the
    /// request head, answer with `response`, hang up.
    fn hostile_server(response: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 && line != "\r\n" {
                line.clear();
            }
            // The client may hang up mid-write once it has refused the
            // head; that is the point, not a failure.
            let _ = reader.get_mut().write_all(&response);
        });
        addr
    }

    #[test]
    fn hostile_responses_are_io_errors_not_aborts() {
        // A 1 TiB Content-Length with a 5-byte body: nothing close to
        // the declared size is allocated, and the short body is EOF.
        let addr = hostile_server(
            b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nhello".to_vec(),
        );
        let err = get(addr, "/health").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");

        // A header line over the line cap.
        let mut response = b"HTTP/1.1 200 OK\r\nX-Big: ".to_vec();
        response.resize(response.len() + http::MAX_LINE_BYTES + 1, b'b');
        response.extend_from_slice(b"\r\nContent-Length: 0\r\n\r\n");
        let err = get(hostile_server(response), "/health").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        // More header fields than the cap.
        let mut response = b"HTTP/1.1 200 OK\r\n".to_vec();
        for i in 0..1000 {
            response.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        response.extend_from_slice(b"Content-Length: 0\r\n\r\n");
        let err = get(hostile_server(response), "/health").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
