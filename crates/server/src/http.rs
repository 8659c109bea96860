//! Minimal HTTP/1.1 on `std::net`: an incremental request parser and a
//! response writer, sized to what the SPARQL Protocol endpoints need.
//!
//! The parser owns the connection's read buffer, so pipelined requests
//! and keep-alive reuse fall out naturally: bytes past the current
//! request's body simply stay buffered for the next
//! [`Connection::read_request`] call. Hard limits guard both directions
//! of the head/body split — an oversized header block is rejected with
//! 431 before it is parsed, an oversized body with 413 before it is
//! read — so a misbehaving client cannot make a worker allocate
//! unboundedly.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Parse/IO outcome of reading one request off a connection.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or length field → 400.
    BadRequest(String),
    /// Header block exceeded the configured limit → 431.
    HeadersTooLarge,
    /// Declared body exceeded the configured limit → 413.
    BodyTooLarge(usize),
    /// `Transfer-Encoding` the server does not implement → 501.
    UnsupportedTransferEncoding,
    /// Unknown HTTP version → 505.
    VersionNotSupported(String),
    /// The peer went silent mid-request → 408.
    Timeout,
    /// The peer closed (or the socket failed) before a full request
    /// arrived; nothing can be answered.
    Disconnected,
}

impl HttpError {
    /// The status an error response should carry, or `None` when the
    /// connection is beyond answering.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadRequest(_) => Some(400),
            HttpError::HeadersTooLarge => Some(431),
            HttpError::BodyTooLarge(_) => Some(413),
            HttpError::UnsupportedTransferEncoding => Some(501),
            HttpError::VersionNotSupported(_) => Some(505),
            HttpError::Timeout => Some(408),
            HttpError::Disconnected => None,
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => format!("malformed request: {m}"),
            HttpError::HeadersTooLarge => "request header block too large".into(),
            HttpError::BodyTooLarge(n) => format!("request body of {n} bytes exceeds the limit"),
            HttpError::UnsupportedTransferEncoding => {
                "transfer-encoding is not supported; send a Content-Length body".into()
            }
            HttpError::VersionNotSupported(v) => format!("unsupported protocol version {v}"),
            HttpError::Timeout => "timed out waiting for the request".into(),
            HttpError::Disconnected => "client disconnected".into(),
        }
    }
}

/// Parser limits (see [`crate::ServerConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum size of the request line + headers in bytes.
    pub max_head_bytes: usize,
    /// Maximum size of a request body in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method.
    pub method: String,
    /// Path component of the target (before `?`), percent-decoded.
    pub path: String,
    /// Decoded query-string parameters, in order of appearance.
    pub params: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when none was sent).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.1 (vs 1.0).
    pub http11: bool,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query-string parameter with the given name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The media type of the body, without parameters, lower-cased.
    pub fn content_type(&self) -> Option<String> {
        self.header("content-type").map(|v| {
            v.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase()
        })
    }

    /// Whether the connection should stay open after this request.
    pub fn wants_keep_alive(&self) -> bool {
        let connection = self.header("connection").map(str::to_ascii_lowercase);
        match connection.as_deref() {
            Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
            Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
            _ => self.http11,
        }
    }

    /// Body parsed as `application/x-www-form-urlencoded` parameters.
    pub fn form_params(&self) -> Vec<(String, String)> {
        parse_query_string(&String::from_utf8_lossy(&self.body))
    }
}

// Bytes one read off the socket may add to a connection's buffer.
const READ_CHUNK: usize = 8 * 1024;

/// One connection's parser state: the stream plus its carry-over buffer.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    limits: Limits,
}

impl Connection {
    /// Wrap an accepted stream.
    pub fn new(stream: TcpStream, limits: Limits) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
            limits,
        }
    }

    /// The underlying stream (for response writing).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Shared view of the socket (for shutdown registration).
    pub fn stream_ref(&self) -> &TcpStream {
        &self.stream
    }

    /// Set the read timeout used while waiting for (the rest of) a
    /// request.
    pub fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Read one request. `Ok(None)` means the peer closed (or the idle
    /// timeout expired) cleanly *between* requests — nothing to answer.
    pub fn read_request(&mut self) -> Result<Option<Request>, HttpError> {
        // Phase 1: accumulate until the blank line ending the head.
        // Stray CRLFs before the request line are skipped (RFC 9112
        // §2.2: legacy clients emit one after a message body) but
        // count against the head limit — a client streaming CRLFs
        // forever must not pin a worker. `scanned` resumes the
        // terminator search where the last pass left off instead of
        // rescanning the whole buffer per read.
        let mut crlf_skipped = 0usize;
        let mut scanned = 0usize;
        let head_end = loop {
            while self.buf.starts_with(b"\r\n") {
                self.buf.drain(..2);
                crlf_skipped += 2;
                scanned = scanned.saturating_sub(2);
            }
            let start = scanned.saturating_sub(3);
            if let Some(pos) = self.buf[start..].windows(4).position(|w| w == b"\r\n\r\n") {
                break start + pos;
            }
            scanned = self.buf.len();
            if self.buf.len() + crlf_skipped > self.limits.max_head_bytes {
                return Err(HttpError::HeadersTooLarge);
            }
            let had_bytes = !self.buf.is_empty();
            match self.fill()? {
                0 => {
                    return if had_bytes {
                        Err(HttpError::Disconnected)
                    } else {
                        Ok(None)
                    }
                }
                _ => continue,
            }
        };
        if head_end > self.limits.max_head_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let body_start = head_end + 4; // past \r\n\r\n
        let mut request = parse_head(&head)?;

        // Phase 2: the body. Only Content-Length framing is supported,
        // and the framing headers are checked across *every*
        // occurrence — a request whose duplicates disagree is rejected
        // rather than framed by one of them, which is the classic
        // request-smuggling desync (RFC 9112 §6.3).
        for (_, te) in request
            .headers
            .iter()
            .filter(|(n, _)| n == "transfer-encoding")
        {
            if !te.trim().eq_ignore_ascii_case("identity") {
                return Err(HttpError::UnsupportedTransferEncoding);
            }
        }
        let mut content_length = 0usize;
        let mut seen_length: Option<&str> = None;
        for (_, v) in request
            .headers
            .iter()
            .filter(|(n, _)| n == "content-length")
        {
            let v = v.trim();
            if let Some(prev) = seen_length {
                if prev != v {
                    return Err(HttpError::BadRequest(format!(
                        "conflicting Content-Length headers ({prev:?} vs {v:?})"
                    )));
                }
                continue;
            }
            seen_length = Some(v);
            // RFC 9110 §8.6: 1*DIGIT only — Rust's usize::parse would
            // also admit a leading '+', which a front proxy may frame
            // differently (the same desync the duplicate check guards).
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadRequest(format!("bad Content-Length {v:?}")));
            }
            content_length = v
                .parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {v:?}")))?;
        }
        if content_length > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge(content_length));
        }
        // A 1.1 client may wait for permission before sending the body.
        if request
            .header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
            && content_length > 0
        {
            let _ = self.stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        }
        while self.buf.len() < body_start + content_length {
            if self.fill()? == 0 {
                return Err(HttpError::Disconnected);
            }
        }
        request.body = self.buf[body_start..body_start + content_length].to_vec();
        // Keep whatever follows (pipelined next request) buffered.
        self.buf.drain(..body_start + content_length);
        Ok(Some(request))
    }

    // One read() into the carry-over buffer. Translates timeouts: idle
    // (empty buffer) timeouts are a clean close, mid-request timeouts
    // are 408.
    fn fill(&mut self) -> Result<usize, HttpError> {
        let mut chunk = [0u8; READ_CHUNK];
        match self.stream.read(&mut chunk) {
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if self.buf.is_empty() {
                    Ok(0)
                } else {
                    Err(HttpError::Timeout)
                }
            }
            Err(_) => Err(HttpError::Disconnected),
        }
    }
}

// Parse request line + header lines (no body).
fn parse_head(head: &str) -> Result<Request, HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "bad request line {request_line:?}"
        )));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::VersionNotSupported(other.to_owned())),
    };
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        // RFC 9112 §5.1–5.2: a field name is a token right before its
        // colon, and a line starting with whitespace (obs-fold) is
        // rejected. Trimming either would let this server frame a
        // request differently from a front proxy that does not.
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("bad header line {line:?}")));
        };
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Err(HttpError::BadRequest(format!(
                "bad header field name in {line:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path, false),
        params: raw_query.map(parse_query_string).unwrap_or_default(),
        headers,
        body: Vec::new(),
        http11,
    })
}

// A byte of an RFC 9110 §5.6.2 token.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Decode a percent-encoded string; `plus_is_space` additionally maps
/// `+` to a space (form/query-string convention).
pub fn percent_decode(input: &str, plus_is_space: bool) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hi = (bytes[i + 1] as char).to_digit(16);
                let lo = (bytes[i + 2] as char).to_digit(16);
                match (hi, lo) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse `a=1&b=2` into decoded pairs (empty values allowed).
pub fn parse_query_string(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k, true), percent_decode(v, true))
        })
        .collect()
}

/// A response about to be written.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body, if any.
    pub content_type: Option<String>,
    /// Extra headers (name must be in canonical form already).
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a body and content type.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: Some(content_type.to_owned()),
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.to_owned(), value.to_owned()));
        self
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serialize and send a response. `keep_alive` selects the
/// `Connection` header; the `Content-Length` is always explicit, so
/// the framing never depends on connection close. `head_only` answers
/// a HEAD request: full headers (including the Content-Length the GET
/// body would have) but no body bytes on the wire. Head and body leave
/// in one vectored write — one segment for a small response on a
/// `TCP_NODELAY` socket, instead of a head segment and a body segment.
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
    head_only: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason_phrase(response.status)
    );
    if let Some(ct) = &response.content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n", response.body.len()));
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    });
    head.push_str("Server: ontoaccess\r\n");
    for (name, value) in &response.extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let body: &[u8] = if head_only { &[] } else { &response.body };
    write_all_vectored(
        stream,
        &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body)],
    )?;
    stream.flush()
}

// `Write::write_all` for several buffers: vectored writes until every
// byte is out, resuming after a partial write; a write that takes
// nothing is an error (the peer can no longer receive).
fn write_all_vectored(
    stream: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write the whole response",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod hostile;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_string_decoding() {
        let params = parse_query_string("query=SELECT+%3Fx%20WHERE&flag=&a=b%3Dc");
        assert_eq!(
            params,
            vec![
                ("query".into(), "SELECT ?x WHERE".into()),
                ("flag".into(), String::new()),
                ("a".into(), "b=c".into()),
            ]
        );
    }

    #[test]
    fn percent_decode_keeps_plus_in_paths() {
        assert_eq!(percent_decode("/a+b%2Fc", false), "/a+b/c");
    }

    #[test]
    fn head_parsing_normalizes_names_and_splits_target() {
        let req = parse_head(
            "GET /sparql?query=ASK HTTP/1.1\r\nHost: x\r\nContent-TYPE: text/plain; charset=utf-8",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/sparql");
        assert_eq!(req.param("query"), Some("ASK"));
        assert_eq!(req.content_type().as_deref(), Some("text/plain"));
        assert!(req.http11);
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn keep_alive_defaults_follow_version() {
        let r10 = parse_head("GET / HTTP/1.0\r\nHost: x").unwrap();
        assert!(!r10.wants_keep_alive());
        let r10ka = parse_head("GET / HTTP/1.0\r\nConnection: keep-alive").unwrap();
        assert!(r10ka.wants_keep_alive());
        let r11close = parse_head("GET / HTTP/1.1\r\nConnection: close").unwrap();
        assert!(!r11close.wants_keep_alive());
    }

    // A sink taking at most `chunk` bytes per call, 0 once `capacity` is
    // reached, and failing every other call with `Interrupted`.
    struct Trickle {
        written: Vec<u8>,
        chunk: usize,
        capacity: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf
                .len()
                .min(self.chunk)
                .min(self.capacity - self.written.len());
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_resumes_after_partial_writes() {
        let (head, body) = (b"HTTP/1.1 200 OK\r\n\r\n".as_slice(), vec![7u8; 10_000]);
        for chunk in [1, 7, 19, 4096, 1 << 20] {
            let mut sink = Trickle {
                written: Vec::new(),
                chunk,
                capacity: usize::MAX,
                calls: 0,
            };
            write_all_vectored(&mut sink, &mut [IoSlice::new(head), IoSlice::new(&body)]).unwrap();
            assert_eq!(sink.written, [head, &body].concat(), "chunk {chunk}");
        }
        // An empty body (HEAD) leaves nothing to write after the head.
        let mut sink = Trickle {
            written: Vec::new(),
            chunk: 5,
            capacity: usize::MAX,
            calls: 0,
        };
        write_all_vectored(&mut sink, &mut [IoSlice::new(head), IoSlice::new(&[])]).unwrap();
        assert_eq!(sink.written, head);
    }

    #[test]
    fn vectored_write_that_takes_nothing_is_an_error() {
        let mut sink = Trickle {
            written: Vec::new(),
            chunk: 3,
            capacity: 10,
            calls: 0,
        };
        let body = [1u8; 20];
        let err = write_all_vectored(&mut sink, &mut [IoSlice::new(b"head"), IoSlice::new(&body)])
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert_eq!(sink.written.len(), 10);
    }

    #[test]
    fn bad_version_is_rejected() {
        assert!(matches!(
            parse_head("GET / HTTP/2.0"),
            Err(HttpError::VersionNotSupported(_))
        ));
    }
}
