//! A dependency-free HTTP/1.1 subset: enough protocol to serve and query
//! JSON endpoints, and nothing more.
//!
//! Implemented: request and status lines, headers, `Content-Length`
//! bodies, persistent connections by version and `Connection` options, and
//! hard limits on header and body size so a misbehaving peer cannot
//! balloon memory. Not implemented (messages using them are rejected, never
//! mis-parsed): chunked transfer encoding, continuation lines, trailers,
//! upgrades, HTTP/2.
//!
//! One incremental [`Parser`] frames both directions: [`RequestParser`] is
//! the reactor's per-connection read state machine, [`ResponseParser`] the
//! client's. They differ only in the start line, so requests and responses
//! obey one set of framing rules. No error path panics; the fuzz tests
//! drive both with in-memory byte soup.

use std::io::{self, Read, Write};

/// Largest accepted start line + header block, in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted message body, in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Why a message could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Protocol violation; the message is safe to echo to the client.
    Bad(String),
    /// The underlying socket failed.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, HttpError> {
    Err(HttpError::Bad(msg.into()))
}

/// The server's refusal of a `len`-byte body, when `len` is over the cap.
/// The client applies the same rule before sending.
pub(crate) fn body_over_cap(len: usize) -> Option<String> {
    (len > MAX_BODY_BYTES).then(|| format!("body of {len} bytes exceeds {MAX_BODY_BYTES}"))
}

/// First value of a header in a list of lower-cased names (`name` matched
/// case-insensitively).
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Method verb, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query string split off into [`Request::query`]).
    pub path: String,
    /// Raw query string after `?`, if any (`None` when absent; `Some("")`
    /// for a bare trailing `?`).
    pub query: Option<String>,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// May the connection carry another request after this one's response?
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// One parsed response (client side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// May the connection carry another request? A pooled client must
    /// check this before reusing the connection: replaying onto a
    /// half-closed socket is the stale keep-alive race.
    pub keep_alive: bool,
}

impl Response {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// A message kind the one [`Parser`] frames. Requests and responses differ
/// only in their start line and in whether a body length is required.
pub trait Message: Sized {
    /// Must the message declare `content-length`? A request without one
    /// has no body; a response without one would end only at EOF, which a
    /// kept-alive connection cannot frame.
    const LENGTH_REQUIRED: bool;
    /// Parse the start line into a message with no headers or body yet,
    /// its `keep_alive` set to its HTTP version's default.
    fn start(line: &str) -> Result<Self, HttpError>;
    /// The parts the parser fills: headers, body and `keep_alive`.
    fn parts(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>, &mut bool);
}

/// Check an `HTTP/1.x` version; `true` when it persists by default
/// (RFC 9112 §9.3: HTTP/1.1 and later do, HTTP/1.0 does not).
fn persists_by_default(version: &str) -> Result<bool, HttpError> {
    if !version.starts_with("HTTP/1.") {
        return bad(format!("unsupported protocol {version:?}"));
    }
    Ok(version != "HTTP/1.0")
}

impl Message for Request {
    const LENGTH_REQUIRED: bool = false;

    /// `METHOD TARGET VERSION`, with the query string split off the target.
    fn start(line: &str) -> Result<Request, HttpError> {
        let mut parts = line.split_whitespace();
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(p), Some(v), None) => (m, p, v),
                _ => return bad(format!("malformed request line {line:?}")),
            };
        let keep_alive = persists_by_default(version)?;
        // Routing matches on the path alone: split any query string off so
        // `/metrics?format=prom` reaches the `/metrics` endpoint (which then
        // reads the format knob from the query).
        let (path, query) = match target.split_once('?') {
            Some((path, query)) => (path.to_string(), Some(query.to_string())),
            None => (target.to_string(), None),
        };
        Ok(Request {
            method: method.to_string(),
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive,
        })
    }

    fn parts(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>, &mut bool) {
        (&mut self.headers, &mut self.body, &mut self.keep_alive)
    }
}

impl Message for Response {
    const LENGTH_REQUIRED: bool = true;

    /// `VERSION CODE [REASON]`, the code exactly three digits.
    fn start(line: &str) -> Result<Response, HttpError> {
        let mut parts = line.split_whitespace();
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return bad(format!("malformed status line {line:?}"));
        };
        let keep_alive = persists_by_default(version)?;
        let status = match code.parse::<u16>() {
            Ok(status) if code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()) => status,
            _ => return bad(format!("bad status code in {line:?}")),
        };
        Ok(Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive,
        })
    }

    fn parts(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>, &mut bool) {
        (&mut self.headers, &mut self.body, &mut self.keep_alive)
    }
}

/// Parse one `name: value` header line. RFC 9110 §5.1: the name is a
/// token, so whitespace before the colon (RFC 9112 §5.1) is an error, never
/// a different header that hides a framing one.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::Bad(format!("malformed header {line:?}")))?;
    let tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    if name.is_empty() || !name.bytes().all(tchar) {
        return bad(format!("malformed header name {name:?}"));
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_string()))
}

/// The framing rules, applied to a complete head: the body length, and
/// whether the connection persists after this message.
fn frame(
    headers: &[(String, String)],
    by_default: bool,
    length_required: bool,
) -> Result<(usize, bool), HttpError> {
    if header(headers, "transfer-encoding").is_some() {
        return bad("transfer-encoding is not supported");
    }
    // RFC 9112 §6.3: conflicting Content-Length values are a framing attack
    // (request smuggling, or a desynced pooled connection); refuse
    // duplicates outright rather than trusting either.
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let len = match (lengths.next(), lengths.next()) {
        (Some(_), Some(_)) => return bad("multiple content-length headers"),
        (Some((_, v)), None) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Bad(format!("bad content-length {v:?}")))?,
        (None, _) if length_required => return bad("missing content-length"),
        (None, _) => 0,
    };
    if let Some(refusal) = body_over_cap(len) {
        return bad(refusal);
    }
    // RFC 9112 §9.3: the `close` option ends the connection; otherwise
    // HTTP/1.1 persists, and HTTP/1.0 only with the `keep-alive` option.
    let (mut close, mut keep) = (false, false);
    for option in headers
        .iter()
        .filter(|(k, _)| k == "connection")
        .flat_map(|(_, v)| v.split(','))
    {
        close |= option.trim().eq_ignore_ascii_case("close");
        keep |= option.trim().eq_ignore_ascii_case("keep-alive");
    }
    Ok((len, !close && (by_default || keep)))
}

/// The incremental (resumable, non-blocking) HTTP/1.1 parser, for either
/// direction.
///
/// Bytes arrive whenever the socket is readable ([`Parser::push`]);
/// [`Parser::poll`] advances the state machine as far as the buffered
/// bytes allow and yields a complete message when one is framed,
/// `Ok(None)` when more bytes are needed, or [`HttpError::Bad`]. The
/// result does not depend on how the bytes were split. Consecutive
/// keep-alive messages flow through one parser: leftover bytes after a
/// complete message (a pipelined follow-up) stay buffered and are consumed
/// by the next `poll`.
#[derive(Debug)]
pub struct Parser<M> {
    buf: Vec<u8>,
    /// Start of the not-yet-consumed region of `buf`.
    consumed: usize,
    /// Header-byte budget remaining for the in-progress message.
    budget: usize,
    state: State<M>,
}

/// The reactor's per-connection request parser.
pub type RequestParser = Parser<Request>;
/// The client's per-connection response parser.
pub type ResponseParser = Parser<Response>;

#[derive(Debug)]
enum State<M> {
    StartLine,
    Headers(M),
    Body(M, usize),
    /// A framing error was reported; the stream is unreliable from here.
    Failed,
}

impl<M: Message> Default for Parser<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> Parser<M> {
    /// Fresh parser at a message boundary.
    pub fn new() -> Self {
        Parser {
            buf: Vec::new(),
            consumed: 0,
            budget: MAX_HEADER_BYTES,
            state: State::StartLine,
        }
    }

    /// Buffer freshly read socket bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed message — the
    /// reactor's flow-control input (stop reading when a hostile peer
    /// pumps data faster than responses drain).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Has any byte of the next message arrived? (EOF now would truncate
    /// it; at a boundary it is a clean keep-alive close.)
    pub fn mid_message(&self) -> bool {
        !matches!(self.state, State::StartLine) || self.buffered() > 0
    }

    /// Block on `r` until the next message is framed: the driver for a
    /// blocking socket. `Ok(None)` is EOF at a message boundary; EOF inside
    /// a message is [`HttpError::Bad`]. After any error,
    /// [`Parser::mid_message`] still tells whether a byte of the message
    /// had arrived.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Option<M>, HttpError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(message) = self.poll()? {
                return Ok(Some(message));
            }
            match r.read(&mut chunk) {
                Ok(0) if self.mid_message() => return bad("connection closed inside a message"),
                Ok(0) => return Ok(None),
                Ok(n) => self.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Extract the next complete line (terminated by `\n`, tolerating
    /// `\r\n`) within the header-byte budget: a line that cannot complete
    /// within the remaining budget is an error *now*, however the bytes
    /// were split.
    fn take_line(&mut self) -> Result<Option<String>, HttpError> {
        let avail = &self.buf[self.consumed..];
        match avail.iter().position(|&b| b == b'\n') {
            Some(nl) if nl < self.budget => {
                self.budget -= nl + 1;
                let line = avail[..nl].strip_suffix(b"\r").unwrap_or(&avail[..nl]);
                let line = std::str::from_utf8(line)
                    .map_err(|_| HttpError::Bad("header line is not UTF-8".into()))?
                    .to_string();
                self.consumed += nl + 1;
                Ok(Some(line))
            }
            None if avail.len() < self.budget => Ok(None),
            _ => bad(format!("headers exceed {MAX_HEADER_BYTES} bytes")),
        }
    }

    /// Advance as far as the buffered bytes allow. `Ok(Some(_))` yields one
    /// complete message and resets to the next message boundary;
    /// `Ok(None)` means more bytes are needed. After an `Err` the
    /// connection must be torn down — HTTP framing is unreliable past a
    /// parse failure, so the parser latches into a failed state.
    pub fn poll(&mut self) -> Result<Option<M>, HttpError> {
        let result = self.poll_inner();
        if result.is_err() {
            self.state = State::Failed;
        }
        result
    }

    fn poll_inner(&mut self) -> Result<Option<M>, HttpError> {
        loop {
            match std::mem::replace(&mut self.state, State::StartLine) {
                State::StartLine => match self.take_line()? {
                    None => return Ok(None),
                    Some(line) => self.state = State::Headers(M::start(&line)?),
                },
                State::Headers(mut message) => match self.take_line()? {
                    None => {
                        self.state = State::Headers(message);
                        return Ok(None);
                    }
                    Some(line) if line.is_empty() => {
                        let (headers, _, keep_alive) = message.parts();
                        let (len, persists) = frame(headers, *keep_alive, M::LENGTH_REQUIRED)?;
                        *keep_alive = persists;
                        self.state = State::Body(message, len);
                    }
                    Some(line) => {
                        message.parts().0.push(parse_header_line(&line)?);
                        self.state = State::Headers(message);
                    }
                },
                State::Body(mut message, len) => {
                    if self.buffered() < len {
                        self.state = State::Body(message, len);
                        return Ok(None);
                    }
                    *message.parts().1 = self.buf[self.consumed..self.consumed + len].to_vec();
                    self.consumed += len;
                    // Message boundary: compact the buffer (leftover bytes
                    // are a pipelined follow-up) and reset the budget.
                    self.buf.drain(..self.consumed);
                    self.consumed = 0;
                    self.budget = MAX_HEADER_BYTES;
                    return Ok(Some(message));
                }
                State::Failed => {
                    self.state = State::Failed;
                    return bad("stream already failed");
                }
            }
        }
    }
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

/// Write one response with the given `content-type` (the JSON endpoints
/// send `application/json`; the Prometheus exposition is `text/plain`).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Append one request, head and body, to `out`: the client sends it in
/// one write.
pub fn write_request(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: lopc-serve\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .expect("in-memory write");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push everything, then poll; EOF after the input.
    fn parse<M: Message>(mut bytes: &[u8]) -> Result<Option<M>, HttpError> {
        Parser::new().read_from(&mut bytes)
    }

    fn request(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        parse(bytes)
    }

    fn response(bytes: &[u8]) -> Result<Option<Response>, HttpError> {
        parse(bytes)
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            request(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let req = request(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive);
    }

    /// RFC 9112 §9.3, for requests and responses alike: HTTP/1.1 persists
    /// unless the options include `close`; HTTP/1.0 persists only if they
    /// include `keep-alive`. Options are a case-insensitive list, possibly
    /// spread over several `Connection` headers.
    #[test]
    fn keep_alive_follows_version_and_connection_options() {
        for (version, connection, persists) in [
            ("HTTP/1.1", "", true),
            ("HTTP/1.1", "connection: close\r\n", false),
            ("HTTP/1.1", "connection: Close, TE\r\n", false),
            ("HTTP/1.1", "connection: TE ,close\r\n", false),
            ("HTTP/1.1", "connection: te\r\nconnection: close\r\n", false),
            ("HTTP/1.1", "connection: keep-alive\r\n", true),
            ("HTTP/1.1", "connection: closed, upgrade\r\n", true),
            ("HTTP/1.0", "", false),
            ("HTTP/1.0", "connection: Keep-Alive\r\n", true),
            ("HTTP/1.0", "connection: TE, keep-alive\r\n", true),
            ("HTTP/1.0", "connection: keep-alive, close\r\n", false),
            ("HTTP/1.0", "connection: TE\r\n", false),
        ] {
            let req = format!("GET / {version}\r\n{connection}\r\n");
            let resp = format!("{version} 200 OK\r\n{connection}content-length: 0\r\n\r\n");
            let case = format!("{version} with {connection:?}");
            assert_eq!(
                request(req.as_bytes()).unwrap().unwrap().keep_alive,
                persists,
                "request {case}"
            );
            assert_eq!(
                response(resp.as_bytes()).unwrap().unwrap().keep_alive,
                persists,
                "response {case}"
            );
        }
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = request(b"GET / HTTP/1.1\nHost: x\n\n").unwrap().unwrap();
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn query_strings_are_split_from_the_path() {
        let req = request(b"GET /metrics?pretty=1&x=2 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query.as_deref(), Some("pretty=1&x=2"));
        // A bare '?' leaves an empty query, same path.
        let req = request(b"GET /v1/predict? HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.query.as_deref(), Some(""));
        // No '?': no query at all.
        let req = request(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query, None);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let smuggle = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello";
        assert!(matches!(request(smuggle), Err(HttpError::Bad(_))));
        // Even duplicates that agree are refused: framing must be
        // unambiguous.
        let dup = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(request(dup), Err(HttpError::Bad(_))));
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(request(b"").unwrap().is_none());
        assert!(response(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_error_without_panic() {
        for bytes in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length\t: 77\r\n\r\n",
            b"GET / HTTP/1.1\r\n\tx: folded\r\n\r\n",
            b"GET / HTTP/1.1\r\nx(y): z\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\ntrunc",
            b"\xff\xfe GET / HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(request(bytes), Err(HttpError::Bad(_))),
                "{:?} must be rejected",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn oversized_bodies_and_headers_rejected() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(request(huge.as_bytes()).is_err());
        let huge = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(response(huge.as_bytes()).is_err());
        assert_eq!(body_over_cap(MAX_BODY_BYTES), None);
        let mut long_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            long_headers.push_str(&format!("x-filler-{i}: {}\r\n", "y".repeat(32)));
        }
        long_headers.push_str("\r\n");
        assert!(request(long_headers.as_bytes()).is_err());
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", "{\"ok\":true}", true).unwrap();
        let resp = response(&wire).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"ok\":true}");
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert!(
            resp.keep_alive,
            "keep-alive response must check out reusable"
        );
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
    }

    #[test]
    fn request_round_trip() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/predict?x=1", b"{}");
        let req = request(&wire).unwrap().unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/predict")
        );
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive);
    }

    #[test]
    fn response_connection_close_checks_out_not_reusable() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", "{}", false).unwrap();
        let resp = response(&wire).unwrap().unwrap();
        assert!(!resp.keep_alive, "connection: close must fail the checkout");
        // Case-insensitive, whitespace-tolerant; absence defaults to reuse.
        let close = b"HTTP/1.1 200 OK\r\nConnection:  CLOSE \r\ncontent-length: 0\r\n\r\n";
        assert!(!response(close).unwrap().unwrap().keep_alive);
        let bare = b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n";
        assert!(response(bare).unwrap().unwrap().keep_alive);
    }

    #[test]
    fn malformed_responses_error_without_panic() {
        for bytes in [
            &b"HTTP/1.1\r\n\r\n"[..],
            b"NOTHTTP 200 OK\r\n\r\n",
            b"HTTP/1.1 xyz OK\r\n\r\n",
            b"HTTP/1.1 +20 OK\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n", // no content-length
            b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab",
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\ncontent-length: 2\r\n\r\nab",
            b"HTTP/1.1 200 OK\r\ncontent-length\t: 2\r\n\r\nab",
        ] {
            assert!(
                matches!(response(bytes), Err(HttpError::Bad(_))),
                "{:?} must be rejected",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn reasons_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 422, 500, 501] {
            assert_ne!(reason(code), "Unknown");
        }
        assert_eq!(reason(599), "Unknown");
    }
}
