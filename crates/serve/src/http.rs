//! A minimal, defensive HTTP/1.1 parser and response renderer.
//!
//! Exactly the slice of HTTP the planning service needs: methods
//! GET/POST, `Content-Length`-framed bodies, keep-alive and pipelining
//! over HTTP/1.1 (`Connection: close` and HTTP/1.0 defaults honored),
//! and hard limits on every dimension of the input so a hostile client
//! cannot balloon memory:
//!
//! * request line ≤ 8 KiB, ≤ 64 header lines of ≤ 8 KiB each,
//! * bodies ≤ 1 MiB (larger requests get `413 Payload Too Large`),
//! * `Transfer-Encoding: chunked` is refused with `411 Length Required`.
//!
//! The core is the **incremental** [`RequestParser`]: the event loop
//! feeds it whatever bytes arrived and polls for a complete request,
//! so a request split at any byte boundary parses identically to the
//! same bytes arriving at once. Limits are enforced *while* data
//! accumulates — an unterminated 9 KiB header line fails with `431`
//! before its terminator ever arrives. Parse failures carry the HTTP
//! status the caller should answer with, so malformed requests turn
//! into structured 4xx responses instead of dropped connections.

use std::fmt;

/// Upper bound on one header or request line, bytes.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 64;
/// Upper bound on a request body, bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// A failure while reading a request, tagged with the status code the
/// server should answer with.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status to answer with (400, 411, 413, 505…).
    pub status: u16,
    /// Human-readable reason, sent back in the JSON error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component, percent-decoding *not* applied (the API's paths
    /// are plain ASCII); any `?query` suffix is split off.
    pub path: String,
    /// Raw query string, without the `?` (empty if absent).
    pub query: String,
    /// Protocol version as sent (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection must close after this exchange: the
    /// client sent a `Connection: close` token, or spoke HTTP/1.0
    /// without opting into `keep-alive`.
    pub fn wants_close(&self) -> bool {
        let connection = self.header("connection").unwrap_or("");
        let has_token = |token: &str| {
            connection
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        if self.version == "HTTP/1.0" {
            !has_token("keep-alive")
        } else {
            has_token("close")
        }
    }
}

/// What [`RequestParser::poll`] produced.
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffered bytes do not yet form a complete request.
    NeedMore,
    /// One complete request, removed from the buffer; any pipelined
    /// bytes after it remain buffered for the next `poll`.
    Ready(Request),
}

/// Incremental request parser: [`feed`](Self::feed) bytes as they
/// arrive, [`poll`](Self::poll) for complete requests.
///
/// Parsing is restartable — each `poll` re-parses the buffered prefix
/// from scratch, which the size limits keep cheap — so splitting the
/// input at any byte boundary yields exactly the same requests and
/// errors as feeding it whole. An error is terminal for the
/// connection: the caller answers with the carried status and closes.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes to the buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (incomplete request + pipelined tail).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing at all is buffered — at EOF this distinguishes
    /// a clean close from a request truncated mid-flight.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to parse one complete request from the buffered bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError`] carrying the 4xx/5xx status to answer
    /// with; the connection should close afterwards.
    pub fn poll(&mut self) -> Result<ParseStatus, HttpError> {
        match parse_complete(&self.buf)? {
            Some((request, consumed)) => {
                self.buf.drain(..consumed);
                Ok(ParseStatus::Ready(request))
            }
            None => Ok(ParseStatus::NeedMore),
        }
    }
}

/// One line of the buffered prefix: `Ok(Some((line, next_offset)))`
/// with the `\r\n`/`\n` terminator stripped, `Ok(None)` if the
/// terminator has not arrived yet. Enforces [`MAX_LINE`] on complete
/// *and still-accumulating* lines.
fn take_line(buf: &[u8], start: usize) -> Result<Option<(&[u8], usize)>, HttpError> {
    match buf[start..].iter().position(|&b| b == b'\n') {
        Some(pos) => {
            let newline = start + pos;
            let mut end = newline;
            if end > start && buf[end - 1] == b'\r' {
                end -= 1;
            }
            if end - start > MAX_LINE {
                return Err(HttpError::new(431, "header line exceeds 8 KiB"));
            }
            Ok(Some((&buf[start..end], newline + 1)))
        }
        None => {
            if buf.len() - start > MAX_LINE {
                return Err(HttpError::new(431, "header line exceeds 8 KiB"));
            }
            Ok(None)
        }
    }
}

/// Parses one complete request from the front of `buf`, returning it
/// with the number of bytes it consumed, or `None` if more bytes are
/// needed. Pure: never mutates, so it can run again as bytes arrive.
fn parse_complete(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some((line, mut cursor)) = take_line(buf, 0)? else {
        return Ok(None);
    };
    let request_line =
        std::str::from_utf8(line).map_err(|_| HttpError::new(400, "request line is not UTF-8"))?;
    if request_line.is_empty() {
        return Err(HttpError::new(400, "empty request"));
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line {request_line:?}"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(
            505,
            format!("unsupported protocol {version:?}"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let Some((line, next)) = take_line(buf, cursor)? else {
            return Ok(None);
        };
        cursor = next;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(431, "more than 64 header lines"));
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| HttpError::new(400, "header line is not UTF-8"))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::new(
            411,
            "chunked transfer encoding is not supported; send Content-Length",
        ));
    }
    if let Some(length) = request.header("content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| HttpError::new(400, format!("bad Content-Length {length:?}")))?;
        if length > MAX_BODY {
            return Err(HttpError::new(
                413,
                format!("body of {length} bytes exceeds the 1 MiB limit"),
            ));
        }
        if buf.len() - cursor < length {
            return Ok(None);
        }
        request.body = buf[cursor..cursor + length].to_vec();
        cursor += length;
    }
    Ok(Some((request, cursor)))
}

/// Standard reason phrase for the status codes the service emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Renders one complete response with explicit framing. `close`
/// selects the `connection:` header — under keep-alive the
/// `content-length` is what tells the client where the body ends.
fn render_response(status: u16, content_type: &str, body: &str, close: bool) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
        status,
        reason_phrase(status),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
        body
    )
    .into_bytes()
}

/// One complete response with the JSON content type. `close` selects
/// the `connection:` header.
pub fn render_json_response(status: u16, body: &str, close: bool) -> Vec<u8> {
    render_response(status, "application/json", body, close)
}

/// One complete response with the Prometheus text exposition
/// content-type (version 0.0.4).
pub fn render_text_response(status: u16, body: &str, close: bool) -> Vec<u8> {
    render_response(
        status,
        "text/plain; version=0.0.4; charset=utf-8",
        body,
        close,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as the event loop does when the client then closes:
    /// a request still incomplete is answered 400.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        match parser.poll()? {
            ParseStatus::Ready(request) => Ok(request),
            ParseStatus::NeedMore => Err(HttpError::new(400, "connection closed mid-request")),
        }
    }

    #[test]
    fn get_request_parses() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.query, "");
        assert_eq!(r.version, "HTTP/1.1");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn post_reads_content_length_body() {
        let r = parse("POST /v1/plan HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn query_strings_split_off() {
        let r = parse("GET /v1/networks?pretty=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/v1/networks");
        assert_eq!(r.query, "pretty=1");
    }

    #[test]
    fn bare_newlines_are_tolerated() {
        let r = parse("GET / HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(r.header("host"), Some("y"));
    }

    #[test]
    fn malformed_requests_carry_statuses() {
        assert_eq!(parse("").unwrap_err().status, 400);
        assert_eq!(parse("GARBAGE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / HTTP/2\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(
            parse("GET / HTTP/1.1\r\nNoColon\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            411
        );
    }

    #[test]
    fn limits_are_enforced() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 10));
        assert_eq!(parse(&long).unwrap_err().status, 431);
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "h: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert_eq!(parse(&many).unwrap_err().status, 431);
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse(&big).unwrap_err().status, 413);
    }

    #[test]
    fn an_unterminated_line_fails_before_its_terminator_arrives() {
        let mut parser = RequestParser::new();
        parser.feed("GET /".as_bytes());
        parser.feed("x".repeat(MAX_LINE + 10).as_bytes());
        assert_eq!(parser.poll().unwrap_err().status, 431);
    }

    #[test]
    fn incremental_parsing_matches_one_shot_at_every_split() {
        let raw = b"POST /v1/plan HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello";
        let whole = parse(std::str::from_utf8(raw).unwrap()).unwrap();
        for split in 0..=raw.len() {
            let mut parser = RequestParser::new();
            parser.feed(&raw[..split]);
            if split < raw.len() {
                assert!(
                    matches!(parser.poll().unwrap(), ParseStatus::NeedMore),
                    "complete at split {split}"
                );
            }
            parser.feed(&raw[split..]);
            match parser.poll().unwrap() {
                ParseStatus::Ready(r) => assert_eq!(r, whole, "split {split}"),
                ParseStatus::NeedMore => panic!("incomplete after full input, split {split}"),
            }
        }
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
        let ParseStatus::Ready(first) = parser.poll().unwrap() else {
            panic!("first request incomplete");
        };
        assert_eq!(first.path, "/a");
        let ParseStatus::Ready(second) = parser.poll().unwrap() else {
            panic!("second request incomplete");
        };
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        assert!(parser.is_empty());
        assert!(matches!(parser.poll().unwrap(), ParseStatus::NeedMore));
    }

    #[test]
    fn connection_intent_follows_version_and_header() {
        let keep = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!keep.wants_close());
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(close.wants_close());
        let tokens = parse("GET / HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n").unwrap();
        assert!(tokens.wants_close());
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(old.wants_close());
        let old_keep = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!old_keep.wants_close());
    }

    #[test]
    fn responses_have_framing_headers() {
        let text = String::from_utf8(render_json_response(200, "{\"ok\":true}", true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn keep_alive_responses_say_so() {
        let text = String::from_utf8(render_json_response(200, "{}", false)).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
    }

    #[test]
    fn text_responses_carry_the_prometheus_content_type() {
        let text = String::from_utf8(render_text_response(200, "a_total 1\n", true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(text.contains("content-length: 10\r\n"));
        assert!(text.ends_with("a_total 1\n"));
    }
}
