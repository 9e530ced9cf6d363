//! A deliberately small HTTP/1.1 subset over `std::io`.
//!
//! `dq serve` speaks exactly what its clients (curl, the test
//! harnesses, [`crate::client`]) need and nothing more:
//! `Content-Length` bodies and HTTP/1.1 keep-alive — any number of
//! requests per connection, closing when the peer asks
//! (`Connection: close`, or an HTTP/1.0 request without
//! `Connection: keep-alive`) or after an error, since framing is not
//! trustworthy past a malformed request. No chunked transfer coding,
//! no percent decoding — audit bodies are CSV, paths are plain model
//! names. This is a protocol adapter, not a web framework; everything
//! interesting happens in [`crate::server`].
//!
//! Two wire rules hold here. Every response leaves in **one write**:
//! head and body are formatted into one buffer and handed to the
//! socket with a single `write_all`, so a keep-alive exchange never
//! leaves a small tail segment for Nagle's algorithm to hold until the
//! peer's delayed ACK (about 40 ms). And a message head is bounded
//! before it is buffered: a line longer than [`MAX_LINE_BYTES`] or
//! more than [`MAX_HEADERS`] header fields is refused with
//! [`HttpError::HeadersTooLarge`] (`431` for a request) without
//! reading further. Requests and the responses [`crate::client`] reads
//! share one head reader, so the caps hold in both directions.

use std::io::{self, BufRead, Read, Write};

/// Longest accepted start line or header line, terminator included.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header fields accepted on one message.
pub const MAX_HEADERS: usize = 100;

/// A parsed request: method, split path/query, lower-cased headers,
/// raw body bytes.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), upper case as sent.
    pub method: String,
    /// The path component, without the query string.
    pub path: String,
    /// `key=value` pairs of the query string, in order. Flags without
    /// `=` parse as `(flag, "")`.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// `false` only for `HTTP/1.0` requests; drives the keep-alive
    /// default.
    pub http11: bool,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of a query key, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// `true` when the query carries `key` with a truthy value
    /// (`1`/`true`/empty flag form).
    pub fn query_flag(&self, key: &str) -> bool {
        matches!(self.query_value(key), Some("" | "1" | "true"))
    }

    /// Whether the connection should stay open after this exchange:
    /// an explicit `Connection` header wins, otherwise HTTP/1.1
    /// defaults to keep-alive and HTTP/1.0 to close.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// A request that could not be read. The server maps these to 4xx
/// responses (or drops the connection when nothing arrived at all).
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed before sending a complete request.
    ConnectionClosed,
    /// The request line or a header is malformed.
    Malformed(String),
    /// The request line or a header line is longer than
    /// [`MAX_LINE_BYTES`], or the request has more than [`MAX_HEADERS`]
    /// header fields. Refused as soon as the cap is crossed.
    HeadersTooLarge(String),
    /// The declared body exceeds the server's limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's cap.
        limit: usize,
    },
    /// An I/O failure (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed mid-request"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadersTooLarge(m) => write!(f, "request header fields too large: {m}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "request body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// The client side of the mapping: a response that cannot be read is
/// an `io::Error` — end of input mid-head is `UnexpectedEof`, a bad or
/// over-cap head is `InvalidData`.
impl From<HttpError> for io::Error {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Io(e) => e,
            HttpError::ConnectionClosed => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "response head cut short")
            }
            HttpError::HeadersTooLarge(m) => io::Error::new(io::ErrorKind::InvalidData, m),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Largest body buffer reserved before any body byte arrives; a longer
/// body grows the buffer as it is read.
const BODY_PREALLOC: usize = 64 << 10;

/// Read one line of a `kind` (`request` or `response`) head, at most
/// [`MAX_LINE_BYTES`] bytes of it: a longer line is refused without
/// buffering the rest. Returns the bytes read (0 at end of input).
fn read_head_line<R: BufRead>(
    stream: &mut R,
    kind: &str,
    line: &mut String,
) -> Result<usize, HttpError> {
    let n = stream.by_ref().take(MAX_LINE_BYTES as u64).read_line(line)?;
    if n == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(HttpError::HeadersTooLarge(format!(
            "a {kind} line or header exceeds {MAX_LINE_BYTES} bytes"
        )));
    }
    Ok(n)
}

/// A message head: the start line (terminator stripped) and the
/// header fields, names lower-cased, in arrival order.
pub(crate) type Head = (String, Vec<(String, String)>);

/// Read one `kind` (`request` or `response`) head under
/// [`MAX_LINE_BYTES`] and [`MAX_HEADERS`], up to and including the
/// blank line. `Ok(None)` when the input ends before the start line.
pub(crate) fn read_head<R: BufRead>(stream: &mut R, kind: &str) -> Result<Option<Head>, HttpError> {
    let mut start = String::new();
    if read_head_line(stream, kind, &mut start)? == 0 {
        return Ok(None);
    }
    start.truncate(start.trim_end_matches(['\r', '\n']).len());
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let mut header_line = String::new();
        if read_head_line(stream, kind, &mut header_line)? == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        let header_line = header_line.trim_end_matches(['\r', '\n']);
        if header_line.is_empty() {
            return Ok(Some((start, headers)));
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge(format!(
                "more than {MAX_HEADERS} header fields"
            )));
        }
        let (name, value) = header_line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header `{header_line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// The declared `Content-Length` of a head, if it carries one.
pub(crate) fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length `{v}`")))
        })
        .transpose()
}

/// Read a body of `len` bytes through `take(len)`, so memory grows
/// only with the bytes that arrive, not with the declared length. A
/// body cut short is `UnexpectedEof`.
pub(crate) fn read_body<R: Read>(stream: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(len.min(BODY_PREALLOC));
    stream.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("body cut short: {} of {len} bytes", body.len()),
        ));
    }
    Ok(body)
}

/// Read one request from `stream`. Bodies larger than `max_body`
/// bytes are rejected without being read; so are heads that break
/// [`MAX_LINE_BYTES`] or [`MAX_HEADERS`].
pub fn read_request<R: BufRead>(stream: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let (line, headers) = read_head(stream, "request")?.ok_or(HttpError::ConnectionClosed)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") && !m.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line `{line}`"))),
    };
    let http11 = version != "HTTP/1.0";
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let content_length = content_length(&headers)?.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge { declared: content_length, limit: max_body });
    }
    let body = read_body(stream, content_length).map_err(|_| HttpError::ConnectionClosed)?;

    Ok(Request { method: method.to_string(), path: path.to_string(), query, headers, body, http11 })
}

/// The reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response. `close` announces whether the server
/// will hang up after this exchange (`Connection: close`) or read the
/// next request off the same connection (`Connection: keep-alive`).
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    write_response_with(stream, status, content_type, body, close, &[])
}

/// [`write_response`] plus arbitrary extra headers — the door through
/// which backpressure metadata (`Retry-After` on queue-full `503`s)
/// reaches the wire.
pub fn write_response_with<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    // One buffer, one write: see the module docs.
    let mut message = Vec::with_capacity(256 + body.len());
    write!(
        message,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    message.extend_from_slice(b"\r\n");
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, HttpError> {
        read_request(&mut text.as_bytes(), 1 << 20)
    }

    #[test]
    fn parses_request_line_query_headers_and_body() {
        let req = parse(
            "POST /audit/quis/stream?corrections=1&x HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\nX-Schema-Fingerprint: 00ff\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/audit/quis/stream");
        assert!(req.query_flag("corrections"));
        assert_eq!(req.query_value("x"), Some(""));
        assert_eq!(req.header("x-schema-fingerprint"), Some("00ff"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn get_without_body_parses() {
        let req = parse("GET /stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
        assert!(req.query.is_empty());
    }

    #[test]
    fn malformed_requests_are_typed() {
        assert!(matches!(parse(""), Err(HttpError::ConnectionClosed)));
        assert!(matches!(parse("nonsense\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: zap\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Declared body larger than the limit is rejected before reading.
        let err =
            read_request(&mut "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n".as_bytes(), 10)
                .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { declared: 100, limit: 10 }));
        // Truncated body.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi"),
            Err(HttpError::ConnectionClosed)
        ));
    }

    #[test]
    fn responses_carry_length_and_connection_intent() {
        let mut out = Vec::new();
        write_response(&mut out, 409, "text/plain", b"error: nope\n", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 409 Conflict\r\n"), "{text}");
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("error: nope\n"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, 200, "text/csv", b"ok\n", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    /// A sink that records how many `write` calls a message took.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_leaves_in_exactly_one_write() {
        let mut out = CountingWriter::default();
        write_response(&mut out, 409, "text/plain", b"error: nope\n", true).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            out.bytes,
            b"HTTP/1.1 409 Conflict\r\nContent-Type: text/plain\r\nContent-Length: 12\r\nConnection: close\r\n\r\nerror: nope\n"
        );

        let mut out = CountingWriter::default();
        write_response_with(&mut out, 503, "text/plain", b"busy\n", true, &[("Retry-After", "2")])
            .unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            out.bytes,
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 5\r\nConnection: close\r\nRetry-After: 2\r\n\r\nbusy\n"
        );

        let mut out = CountingWriter::default();
        crate::client::write_request(
            &mut out,
            "POST",
            "/audit/calls/record",
            &[("X-Schema-Fingerprint", "00ff")],
            b"404,901",
            false,
        )
        .unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            out.bytes,
            b"POST /audit/calls/record HTTP/1.1\r\nHost: dq-serve\r\nX-Schema-Fingerprint: 00ff\r\nContent-Length: 7\r\n\r\n404,901"
        );

        let mut out = CountingWriter::default();
        crate::client::write_request(&mut out, "GET", "/health", &[], b"", true).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            out.bytes,
            b"GET /health HTTP/1.1\r\nHost: dq-serve\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        );
    }

    #[test]
    fn oversized_heads_are_refused_without_reading_them_whole() {
        // A 1 MiB request line with no newline: refused after the line
        // cap, the rest of the input left unread.
        let line = vec![b'a'; 1 << 20];
        let mut input = line.as_slice();
        let err = read_request(&mut input, 1 << 20).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "{err}");
        assert_eq!(input.len(), (1 << 20) - MAX_LINE_BYTES);

        // The same cap holds for a header line.
        let mut text = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        text.resize(text.len() + (1 << 20), b'b');
        let mut input = text.as_slice();
        assert!(matches!(read_request(&mut input, 0), Err(HttpError::HeadersTooLarge(_))));
        assert!(input.len() > (1 << 20) - MAX_LINE_BYTES);

        // A line of exactly the cap, terminator included, still parses.
        let mut text = b"GET / HTTP/1.1\r\nX-Fit: ".to_vec();
        text.resize(text.len() + MAX_LINE_BYTES - b"X-Fit: \r\n".len(), b'c');
        text.extend_from_slice(b"\r\n\r\n");
        assert!(parse(std::str::from_utf8(&text).unwrap()).is_ok());

        // More header fields than the cap: refused at the first one
        // over, the rest unread.
        let mut text = String::from("GET / HTTP/1.1\r\n");
        for i in 0..10 * MAX_HEADERS {
            text.push_str(&format!("X-H{i}: v\r\n"));
        }
        text.push_str("\r\n");
        let mut input = text.as_bytes();
        let err = read_request(&mut input, 0).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "{err}");
        assert!(input.starts_with(format!("X-H{}: v", MAX_HEADERS + 1).as_bytes()));
        // Exactly the cap is fine.
        let mut text = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            text.push_str(&format!("X-H{i}: v\r\n"));
        }
        text.push_str("\r\n");
        assert_eq!(parse(&text).unwrap().headers.len(), MAX_HEADERS);
        assert_eq!(reason(431), "Request Header Fields Too Large");
    }

    #[test]
    fn extra_headers_ride_the_response_head() {
        let mut out = Vec::new();
        write_response_with(&mut out, 503, "text/plain", b"busy\n", true, &[("Retry-After", "2")])
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nbusy\n"), "{text}");
        assert_eq!(reason(408), "Request Timeout");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        // HTTP/1.1 defaults to keep-alive; an explicit header wins.
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive());
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().keep_alive());
        assert!(!parse("GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n").unwrap().keep_alive());
        // HTTP/1.0 defaults to close; opt-in keep-alive is honored.
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive());
        assert!(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().keep_alive());
        // An unknown Connection value falls back to the version default.
        assert!(parse("GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n").unwrap().keep_alive());
    }
}
