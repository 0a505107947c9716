//! A minimal HTTP/1.1 message layer: request/response parsing and writing
//! over any `Read`/`Write`, with Content-Length framing and hard size
//! limits.
//!
//! The build environment has no registry access, so there is no hyper or
//! tokio here — just the subset of RFC 9112 the compile server needs:
//! one message per parse call, `Content-Length` bodies (chunked encoding is
//! rejected with `501`), case-insensitive header lookup, and byte limits on
//! head and body so a misbehaving peer cannot balloon memory. Timeouts are
//! the socket's job: the client sets `set_read_timeout` and a timed-out
//! read surfaces as [`HttpError::Timeout`]. The server parses requests
//! its event loops have already framed, under their own read deadline.

use std::io::{self, Read, Write};

/// Upper bound on the request/status line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a message body (batches of inline QASM can be large).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// An HTTP-layer failure, mapped by the server onto a status code.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically broken message (→ 400).
    Malformed(String),
    /// Head or body over the size limit (→ 413).
    TooLarge(String),
    /// A feature this server deliberately lacks, e.g. chunked bodies
    /// (→ 501).
    Unsupported(String),
    /// The peer went quiet past the socket's read timeout (→ 408).
    Timeout,
    /// The connection died mid-message.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed HTTP message: {m}"),
            HttpError::TooLarge(m) => write!(f, "message too large: {m}"),
            HttpError::Unsupported(m) => write!(f, "unsupported: {m}"),
            HttpError::Timeout => write!(f, "timed out reading from peer"),
            HttpError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …) exactly as sent.
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// Raw query string (without the `?`); empty when the target had none.
    pub query: String,
    /// Header list in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// A parsed HTTP response (the client half).
#[derive(Debug, Clone)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Header list in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

fn header_of<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] when the body is not valid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))
    }

    /// The first value of a `name=value` query parameter, or `None` when
    /// absent. Values are returned raw (this server's parameters are plain
    /// tokens; no percent-decoding is applied).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

impl Response {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] when the body is not valid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))
    }
}

/// A message head plus whatever body bytes arrived in the same reads.
type HeadAndLeftover = (Vec<u8>, Vec<u8>);

/// Reads bytes until the blank line ending the head, returning
/// `(head, leftover-body-bytes)`. Returns `Ok(None)` on a clean EOF before
/// any byte arrived (the peer closed an idle connection).
fn read_head<R: Read>(reader: &mut R) -> Result<Option<HeadAndLeftover>, HttpError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_head_end(&buf) {
            let rest = buf.split_off(end + 4);
            buf.truncate(end);
            return Ok(Some((buf, rest)));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses `name: value` header lines (names lowercased).
fn parse_headers(lines: std::str::Split<'_, &str>) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line {line:?} has no colon")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// How a message body is delimited when `Content-Length` is absent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Unframed {
    /// Requests: no `Content-Length` means an empty body.
    Empty,
    /// Responses: no `Content-Length` means the body runs to connection
    /// close (the server's streaming JSONL responses).
    ReadToEof,
}

/// Reads the `Content-Length` body, `leftover` first.
fn read_body<R: Read>(
    reader: &mut R,
    headers: &[(String, String)],
    mut leftover: Vec<u8>,
    unframed: Unframed,
) -> Result<Vec<u8>, HttpError> {
    if let Some(te) = header_of(headers, "transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::Unsupported(format!(
                "transfer-encoding {te:?} (use Content-Length framing)"
            )));
        }
    }
    let length: usize = match header_of(headers, "content-length") {
        None if unframed == Unframed::ReadToEof => {
            let mut body = leftover;
            let mut chunk = [0u8; 8192];
            loop {
                let n = reader.read(&mut chunk)?;
                if n == 0 {
                    return Ok(body);
                }
                body.extend_from_slice(&chunk[..n]);
                if body.len() > MAX_BODY_BYTES {
                    return Err(HttpError::TooLarge(format!(
                        "streamed body exceeds {MAX_BODY_BYTES} bytes"
                    )));
                }
            }
        }
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }
    if leftover.len() > length {
        return Err(HttpError::Malformed(
            "more body bytes than Content-Length".into(),
        ));
    }
    let mut body = Vec::with_capacity(length);
    body.append(&mut leftover);
    let mut remaining = length - body.len();
    let mut chunk = [0u8; 8192];
    while remaining > 0 {
        let n = reader.read(&mut chunk[..remaining.min(8192)])?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(body)
}

/// Reads one request. `Ok(None)` means the peer closed the connection
/// cleanly before sending anything.
///
/// # Errors
///
/// Any [`HttpError`]; the server maps them to 4xx/5xx responses.
pub fn read_request<R: Read>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let Some((head, leftover)) = read_head(reader)? else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        other => {
            return Err(HttpError::Malformed(format!(
                "bad HTTP version {other:?} in {request_line:?}"
            )))
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let headers = parse_headers(lines)?;
    let body = read_body(reader, &headers, leftover, Unframed::Empty)?;
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one response (the client half).
///
/// # Errors
///
/// Any [`HttpError`].
pub fn read_response<R: Read>(reader: &mut R) -> Result<Response, HttpError> {
    let Some((head, leftover)) = read_head(reader)? else {
        return Err(HttpError::Malformed(
            "connection closed before the status line".into(),
        ));
    };
    let head =
        std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = status_line.split(' ');
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        other => {
            return Err(HttpError::Malformed(format!(
                "bad status line start {other:?}"
            )))
        }
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status in {status_line:?}")))?;
    let headers = parse_headers(lines)?;
    let body = read_body(reader, &headers, leftover, Unframed::ReadToEof)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a response with Content-Length framing and
/// `Connection: close` (this server is strictly one request per
/// connection).
pub fn render_response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    render_response_with(status, content_type, &[], body)
}

/// [`render_response`] with extra response headers (e.g. the per-request
/// `x-ftqc-trace` id). Header names and values must already be wire-safe
/// tokens; nothing is escaped here.
pub fn render_response_with(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("connection: close\r\n\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serializes a response head with **no** `Content-Length`: the body
/// streams after it, delimited by connection close (which this server
/// sends on every response anyway). Used for JSONL batch responses where
/// each line is written as its job completes.
pub fn render_streaming_head(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n",
        reason(status),
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("connection: close\r\n\r\n");
    head.into_bytes()
}

/// Serializes a request with Content-Length framing (the client half).
pub fn render_request(method: &str, path: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: ftqc\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len(),
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Writes a rendered message and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_all<W: Write>(writer: &mut W, bytes: &[u8]) -> io::Result<()> {
    writer.write_all(bytes)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip() {
        let wire = render_request("POST", "/v1/compile", "application/json", b"{\"x\":1}");
        let req = read_request(&mut Cursor::new(wire)).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/compile");
        assert_eq!(req.header("Content-Type"), Some("application/json"));
        assert_eq!(req.body_str().unwrap(), "{\"x\":1}");
    }

    #[test]
    fn response_roundtrip() {
        let wire = render_response(200, "application/json", b"{\"ok\":true}");
        let resp = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
    }

    #[test]
    fn extra_headers_roundtrip() {
        let wire = render_response_with(
            200,
            "application/json",
            &[("x-ftqc-trace", "00000000000000ff")],
            b"{}",
        );
        let resp = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(resp.header("x-ftqc-trace"), Some("00000000000000ff"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.body_str().unwrap(), "{}");
    }

    #[test]
    fn empty_body_and_query_stripping() {
        let wire = b"GET /healthz?verbose=1&mode=full HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let req = read_request(&mut Cursor::new(wire)).unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert_eq!(req.query, "verbose=1&mode=full");
        assert_eq!(req.query_param("verbose"), Some("1"));
        assert_eq!(req.query_param("mode"), Some("full"));
        assert_eq!(req.query_param("absent"), None);

        let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let req = read_request(&mut Cursor::new(wire)).unwrap().unwrap();
        assert_eq!(req.query, "");
        assert_eq!(req.query_param("verbose"), None);
    }

    #[test]
    fn streaming_response_body_runs_to_eof() {
        let mut wire = render_streaming_head(200, "application/jsonl", &[("x-ftqc-trace", "ab")]);
        wire.extend_from_slice(b"{\"line\":1}\n{\"line\":2}\n");
        let resp = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-length"), None);
        assert_eq!(resp.header("x-ftqc-trace"), Some("ab"));
        assert_eq!(resp.body_str().unwrap(), "{\"line\":1}\n{\"line\":2}\n");
    }

    #[test]
    fn requests_without_content_length_stay_bodyless() {
        // EOF-delimited bodies are a response-side affordance only; a
        // request with trailing garbage and no Content-Length is an error.
        let wire = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\ntrailing".to_vec();
        let e = read_request(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(e, HttpError::Malformed(_)), "got {e:?}");
    }

    #[test]
    fn too_many_requests_has_a_reason() {
        assert_eq!(reason(429), "Too Many Requests");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_request(&mut Cursor::new(Vec::new()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_heads_rejected() {
        for wire in [
            &b"BANANA\r\n\r\n"[..],
            &b"GET /x HTTP/3.0\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n"[..],
        ] {
            assert!(
                read_request(&mut Cursor::new(wire.to_vec())).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn truncated_messages_rejected() {
        // Head cut off mid-line.
        let e = read_request(&mut Cursor::new(b"GET /x HT".to_vec())).unwrap_err();
        assert!(matches!(e, HttpError::Malformed(_)), "got {e:?}");
        // Body shorter than Content-Length.
        let wire = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".to_vec();
        let e = read_request(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(e, HttpError::Malformed(_)), "got {e:?}");
    }

    #[test]
    fn oversized_messages_rejected() {
        let huge_header = format!("GET /x HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(20_000));
        let e = read_request(&mut Cursor::new(huge_header.into_bytes())).unwrap_err();
        assert!(matches!(e, HttpError::TooLarge(_)), "got {e:?}");
        let wire = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let e = read_request(&mut Cursor::new(wire.into_bytes())).unwrap_err();
        assert!(matches!(e, HttpError::TooLarge(_)), "got {e:?}");
    }

    #[test]
    fn chunked_encoding_unsupported() {
        let wire = b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        let e = read_request(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(e, HttpError::Unsupported(_)), "got {e:?}");
    }

    #[test]
    fn timeout_maps_from_io_kind() {
        let e: HttpError = io::Error::from(io::ErrorKind::WouldBlock).into();
        assert!(matches!(e, HttpError::Timeout));
        let e: HttpError = io::Error::from(io::ErrorKind::TimedOut).into();
        assert!(matches!(e, HttpError::Timeout));
    }
}
