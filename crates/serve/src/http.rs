//! A minimal HTTP/1.1 reader/writer over `std::net::TcpStream`, for both
//! directions of an exchange.
//!
//! Supports exactly what the service needs: one request per connection
//! (`Connection: close` on every request and response), `Content-Length`
//! bodies, a configurable body-size cap, and plain status-line responses.
//! No chunked transfer (any `Transfer-Encoding` header is a 400), no
//! keep-alive, no TLS — the point is a dependency-free serving surface, not
//! a general web server.
//!
//! The server side is [`read_request`] and [`write_response`]. The client
//! side — [`write_request`], [`read_response`] and the one-shot [`send`] —
//! is what the shard front forwards with, and what the bench binaries and
//! test suites talk to a server with.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on the request line + headers block.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method verb, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request path, query string included.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        first_header(&self.headers, name)
    }

    /// First value of a query parameter (`?key=value&...`). Values are
    /// returned verbatim — no percent-decoding; the debug endpoints that
    /// use this take identifiers from a charset that never needs escaping.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let (_, query) = self.path.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// A parsed HTTP response, as [`read_response`] returns it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Everything after the header block.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        first_header(&self.headers, name)
    }

    /// The body as text (invalid UTF-8 becomes U+FFFD).
    pub fn text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

fn first_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Transport failure (includes read timeouts).
    Io(io::Error),
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    BadRequest(String),
    /// The declared body exceeds the configured cap.
    TooLarge {
        /// The configured cap in bytes.
        limit: usize,
        /// The declared `Content-Length`.
        declared: usize,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::BadRequest(d) => write!(f, "bad request: {d}"),
            ReadError::TooLarge { limit, declared } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from the stream. The caller is responsible for
/// setting read timeouts; a timeout surfaces as [`ReadError::Io`].
///
/// # Errors
///
/// [`ReadError::BadRequest`] for malformed request lines/headers, a head
/// block past 16 KiB, or a `Transfer-Encoding` header (only
/// `Content-Length` framing is supported), [`ReadError::TooLarge`] when
/// `Content-Length`
/// exceeds `max_body`, [`ReadError::Io`] on transport failures.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, ReadError> {
    let mut head: Vec<u8> = Vec::with_capacity(1024);
    let mut buf = [0u8; 1024];
    let body_start;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(ReadError::BadRequest(
                "connection closed before end of headers".to_owned(),
            ));
        }
        head.extend_from_slice(&buf[..n]);
        if let Some(pos) = find_header_end(&head) {
            body_start = pos;
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(ReadError::BadRequest("header block too large".to_owned()));
        }
    }
    let head_text = std::str::from_utf8(&head[..body_start - 4])
        .map_err(|_| ReadError::BadRequest("headers are not utf-8".to_owned()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::BadRequest("empty request".to_owned()))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(ReadError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )));
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let headers = parse_headers(lines).map_err(ReadError::BadRequest)?;
    let request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body: Vec::new(),
    };
    let declared = declared_length(&request)?;
    if declared > max_body {
        // Drain (and discard) what the client is still sending, bounded,
        // so the early 413 response doesn't race a connection reset while
        // the client is mid-write.
        let mut remaining = declared
            .saturating_sub(head.len() - body_start)
            .min(8 * 1024 * 1024);
        while remaining > 0 {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => remaining -= n.min(remaining),
            }
        }
        return Err(ReadError::TooLarge {
            limit: max_body,
            declared,
        });
    }
    let mut body = head[body_start..].to_vec();
    while body.len() < declared {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(ReadError::BadRequest(
                "connection closed before end of body".to_owned(),
            ));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(declared);
    Ok(Request { body, ..request })
}

/// The body length every `Content-Length` header declares (0 without
/// one). Repeats must all parse to the same length: conflicting lengths
/// are how requests get smuggled past a proxy, so they are rejected, not
/// resolved (RFC 9112 §6.3). A `Transfer-Encoding` header is rejected
/// too: this reader cannot decode chunked framing, and reading such a
/// body by `Content-Length` would misframe it.
fn declared_length(request: &Request) -> Result<usize, ReadError> {
    if request.header("transfer-encoding").is_some() {
        return Err(ReadError::BadRequest(
            "transfer-encoding is not supported; send a content-length body".to_owned(),
        ));
    }
    let mut declared = None;
    for (_, v) in request
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
    {
        let len = v
            .parse::<usize>()
            .map_err(|_| ReadError::BadRequest(format!("bad content-length `{v}`")))?;
        if declared.is_some_and(|d| d != len) {
            return Err(ReadError::BadRequest(
                "conflicting content-length headers".to_owned(),
            ));
        }
        declared = Some(len);
    }
    Ok(declared.unwrap_or(0))
}

/// Header lines as `(lowercased name, trimmed value)` pairs.
fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, String> {
    lines
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed header `{line}`"))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
        })
        .collect()
}

/// Byte offset just past the `\r\n\r\n` terminator, if present.
fn find_header_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// The standard reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete response (status line, headers, body) and flushes.
/// Every response carries `Connection: close`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a complete request (request line, `headers`, a `Content-Length`
/// for `body`, `Connection: close`, then `body`) in one write and flushes.
/// HTTP/1.1 requires a `host` header; the caller passes it in `headers`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    ));
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// Reads one response to the end of the stream: every request
/// [`write_request`] sends asks for `Connection: close`, so the body is
/// everything after the header block. The caller sets read timeouts; a
/// timeout surfaces as an I/O error.
///
/// # Errors
///
/// `InvalidData` when the bytes hold no complete header block, or the
/// status line or a header line is malformed; transport failures as
/// they come.
pub fn read_response(stream: &mut impl Read) -> io::Result<Response> {
    let invalid = |detail: String| io::Error::new(io::ErrorKind::InvalidData, detail);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let end = find_header_end(&raw)
        .ok_or_else(|| invalid("response has no complete header block".to_owned()))?;
    let head = std::str::from_utf8(&raw[..end - 4])
        .map_err(|_| invalid("response headers are not utf-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    let status = match (parts.next(), parts.next().map(str::parse::<u16>)) {
        (Some(version), Some(Ok(status))) if version.starts_with("HTTP/1.") => status,
        _ => return Err(invalid(format!("malformed status line `{status_line}`"))),
    };
    let headers = parse_headers(lines).map_err(invalid)?;
    raw.drain(..end);
    Ok(Response {
        status,
        headers,
        body: raw,
    })
}

/// How long [`send`] waits on a silent server before giving up.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One exchange over a fresh connection to `addr`: connects, writes the
/// request with a `host` header naming `addr`, and reads the response,
/// waiting at most a minute on a silent server.
///
/// # Errors
///
/// Transport failures, and [`read_response`]'s `InvalidData`.
pub fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
    let host = addr.to_string();
    let mut all = vec![("host", host.as_str())];
    all.extend_from_slice(headers);
    write_request(&mut stream, method, path, &all, body)?;
    read_response(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8], max_body: usize) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let r = read_request(&mut stream, max_body);
        writer.join().unwrap();
        r
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/localize HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = roundtrip(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/localize");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        match roundtrip(raw, 10) {
            Err(ReadError::TooLarge {
                limit: 10,
                declared: 100,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(
            roundtrip(b"NONSENSE\r\n\r\n", 1024),
            Err(ReadError::BadRequest(_))
        ));
    }

    #[test]
    fn accepts_exact_duplicate_content_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(roundtrip(raw, 1024).unwrap().body, b"hello");
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello";
        match roundtrip(raw, 1024) {
            Err(ReadError::BadRequest(d)) => assert!(d.contains("conflicting"), "{d}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn rejects_transfer_encoding() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        match roundtrip(raw, 1024) {
            Err(ReadError::BadRequest(d)) => assert!(d.contains("transfer-encoding"), "{d}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Alongside a Content-Length too: the two framings conflict.
        let raw =
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\nhello";
        assert!(matches!(
            roundtrip(raw, 1024),
            Err(ReadError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_non_numeric_repeated_content_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: five\r\n\r\nhello";
        assert!(matches!(
            roundtrip(raw, 1024),
            Err(ReadError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_bad_content_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(matches!(
            roundtrip(raw, 1024),
            Err(ReadError::BadRequest(_))
        ));
    }

    #[test]
    fn read_response_round_trips_write_response() {
        for body in [&b""[..], b"{\"ok\":true}\n"] {
            let mut wire = Vec::new();
            let extra = [("x-veribug-shard", "local"), ("X-Note", "a: b")];
            write_response(&mut wire, 422, "text/plain", &extra, body).unwrap();
            let resp = read_response(&mut wire.as_slice()).unwrap();
            assert_eq!(resp.status, 422);
            assert_eq!(resp.header("content-type"), Some("text/plain"));
            assert_eq!(resp.header("x-veribug-shard"), Some("local"));
            assert_eq!(resp.header("x-note"), Some("a: b"), "names lowercased");
            assert_eq!(resp.body, body);
        }
    }

    #[test]
    fn write_request_round_trips_through_read_request() {
        let mut wire = Vec::new();
        let headers = [("host", "x"), ("x-veribug-request-id", "r-1")];
        write_request(&mut wire, "POST", "/v1/analyze?n=2", &headers, b"{}").unwrap();
        let req = roundtrip(&wire, 1024).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/analyze?n=2")
        );
        assert_eq!(req.header("x-veribug-request-id"), Some("r-1"));
        assert_eq!(req.header("connection"), Some("close"));
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn malformed_responses_are_invalid_data() {
        for raw in [
            &b""[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
            b"garbage\r\n\r\n",
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"SMTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
        ] {
            let err = read_response(&mut &raw[..]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }
}
