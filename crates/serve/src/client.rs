//! A minimal blocking HTTP client for the service — the in-repo test
//! client the smoke suite, the integration tests, the CI smoke job, and
//! the cluster tier's node-to-node calls use (the build container has no
//! curl crate, and shelling out would not be portable).
//!
//! One [`Client`] owns one keep-alive connection; requests on it are
//! sequential. For concurrency, open one client per thread.
//!
//! # Hardening
//!
//! The client is the building block of the cluster router, so it must not
//! wedge on a sick peer:
//!
//! * **Connect timeout** — dialing uses [`TcpStream::connect_timeout`]
//!   ([`ClientConfig::connect_timeout`]); an unresponsive address fails in
//!   bounded time instead of blocking for the kernel's SYN-retry eternity.
//! * **Read timeout** — every read carries
//!   [`ClientConfig::read_timeout`]; a peer that accepts and goes silent
//!   costs one timeout, not a hung thread.
//! * **Bounded retry with jittered backoff** — transient transport errors
//!   ([`ClientError::is_retryable`]) reconnect and retry up to
//!   [`RetryPolicy::attempts`] times total, sleeping an exponentially
//!   growing, jittered backoff between attempts so a recovering server is
//!   not met by synchronized client stampedes.
//! * **Never retry after a partial response** — once any byte of the
//!   response has arrived, a failure leaves the request's effect
//!   unknowable *and* the response unreconstructable, so the error
//!   surfaces immediately. The rule reads the response parser's state: a
//!   failure while it holds no byte of the response (EOF or a read error
//!   before the first byte) is the stale keep-alive race, the server
//!   closing the idle connection under us, and the request is replayed on
//!   a fresh connection.
//! * **Over-cap bodies are refused locally** — a body over
//!   [`http::MAX_BODY_BYTES`] fails as the server's own 400, before any
//!   dial: the server refuses the head and closes while the body is still
//!   being written, so the client would see only a reset and retry.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::codec::{prediction_from_str, predictions_from_str, write_scenario, MAX_REL_ERR_FIELD};
use crate::http::{self, HttpError, ResponseParser};
use crate::json::{parse, write_num, Json};
use lopc_core::{Prediction, Scenario};

/// Append `max_rel_err` as the last member of the request object in `body`
/// when it is non-zero (zero is the wire default, and omitting it keeps
/// exact-mode requests identical to pre-interpolation clients).
fn with_tolerance(mut body: String, max_rel_err: f64) -> String {
    if max_rel_err != 0.0 {
        body.pop(); // the object's closing brace
        body.push_str(",\"");
        body.push_str(MAX_REL_ERR_FIELD);
        body.push_str("\":");
        write_num(&mut body, max_rel_err);
        body.push('}');
    }
    body
}

/// A response's body as text: non-2xx becomes [`ClientError::Status`].
fn success_text(status: u16, body: Vec<u8>) -> Result<String, ClientError> {
    let text = String::from_utf8(body)
        .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))?;
    if !(200..300).contains(&status) {
        return Err(ClientError::Status(status, text));
    }
    Ok(text)
}

/// Client-side failure: transport, protocol, or an error status.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The response could not be parsed.
    Protocol(String),
    /// The server answered with a non-2xx status.
    Status(u16, String),
}

impl ClientError {
    /// Is this the kind of failure a fresh connection could cure?
    ///
    /// Transport-level errors — refused/reset/aborted connections, broken
    /// pipes, timeouts, unexpected EOF — are transient by nature: the
    /// server may be restarting, the keep-alive connection may have been
    /// reaped, the network may have blipped. Protocol errors and error
    /// statuses are *answers*: the server received the request and
    /// responded, so replaying it would repeat the same outcome (or worse,
    /// double-apply it).
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::NotConnected
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::Interrupted
                    | io::ErrorKind::UnexpectedEof
            ),
            ClientError::Protocol(_) | ClientError::Status(..) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Status(code, body) => write!(f, "status {code}: {body}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Io(e) => ClientError::Io(e),
            HttpError::Bad(m) => ClientError::Protocol(m),
        }
    }
}

/// Retry budget for transient transport errors.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// No retries at all (the cluster router does its own failover and
    /// must observe a dead peer quickly, not after a retry storm).
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `retry` (1-based), exponential with
    /// full jitter in `[½, 1]` of the nominal value.
    fn backoff(&self, retry: u32) -> Duration {
        let nominal = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_backoff);
        // Jitter without a rand dependency: hash the clock's nanoseconds.
        let noise = {
            let ns = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.subsec_nanos() as u64);
            let mut h = ns.wrapping_mul(0x9e3779b97f4a7c15);
            h ^= h >> 31;
            (h % 512) as f64 / 1024.0 // [0, 0.5)
        };
        nominal.mul_f64(0.5 + noise)
    }
}

/// Connection tunables; the defaults suit tests, the CLI, and in-cluster
/// peers on a LAN.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Bound on any single read (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Transient-error retry budget.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
        }
    }
}

/// One live connection: the socket and the parser framing its responses.
struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
}

impl Conn {
    fn dial(addr: SocketAddr, config: &ClientConfig) -> Result<Conn, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        // Request/response over one connection: never trade latency for
        // Nagle batching.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        Ok(Conn {
            stream,
            parser: ResponseParser::new(),
        })
    }
}

/// One keep-alive connection to a running server (re-dialed transparently
/// after transient errors, within the retry budget).
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Conn>,
}

/// How far a request got before failing — decides retry safety.
/// Crate-visible because the cluster router's pipelined wave applies the
/// same never-replay-after-a-response-byte gate per connection.
pub(crate) enum AttemptError {
    /// Nothing of the response was consumed; the request may be replayed.
    BeforeResponse(ClientError),
    /// Response bytes were consumed (or the response itself was the
    /// failure): never replay.
    AfterResponse(ClientError),
}

/// The wire body of a batch request over borrowed lanes.
pub(crate) fn batch_request_body(scenarios: &[&Scenario], max_rel_err: f64) -> String {
    let mut body = String::with_capacity(128 * scenarios.len() + 48);
    body.push_str("{\"scenarios\":[");
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write_scenario(&mut body, s);
    }
    body.push_str("]}");
    with_tolerance(body, max_rel_err)
}

/// Decode a batch response: non-2xx becomes [`ClientError::Status`], a
/// 2xx must carry the `"predictions"` array.
pub(crate) fn batch_predictions_from_response(
    status: u16,
    body: Vec<u8>,
) -> Result<Vec<Prediction>, ClientError> {
    let text = success_text(status, body)?;
    predictions_from_str(&text).map_err(|e| ClientError::Protocol(e.to_string()))
}

impl Client {
    /// Connect to the server at `addr` with default timeouts and retries.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeouts/retry policy.
    pub fn connect_with(addr: SocketAddr, config: ClientConfig) -> Result<Self, ClientError> {
        let conn = Conn::dial(addr, &config)?;
        Ok(Client {
            addr,
            config,
            conn: Some(conn),
        })
    }

    /// The server address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Issue one request; returns `(status, body bytes)`: one pipelined
    /// send and its receive.
    ///
    /// Transient transport failures reconnect and retry (with jittered
    /// backoff) up to the configured attempt budget — except after any
    /// response byte has been consumed, where retrying could double-apply
    /// the request; those errors surface immediately.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), ClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let failure = match self.pipeline_send(method, path, body) {
                Ok(()) => match self.pipeline_recv() {
                    Ok(reply) => return Ok(reply),
                    Err(failure) => failure,
                },
                // Dialing or writing failed: nothing of a response exists.
                Err(e) => AttemptError::BeforeResponse(e),
            };
            // Both halves drop the connection on failure, so a retry
            // redials.
            let (err, replayable) = match failure {
                AttemptError::BeforeResponse(e) => (e, true),
                AttemptError::AfterResponse(e) => (e, false),
            };
            if !replayable || !err.is_retryable() || attempt >= self.config.retry.attempts {
                return Err(err);
            }
            std::thread::sleep(self.config.retry.backoff(attempt));
        }
    }

    /// Pipelining, send half: write one request on the current connection
    /// (dialing it first if needed) *without* waiting for the response.
    /// The cluster router uses this to put every per-owner sub-batch in
    /// flight before reading any reply — the servers overlap their work
    /// while the client is still writing. Must be paired with
    /// [`Client::pipeline_recv`]; interleaving other requests in between
    /// would desynchronize the connection. A failure drops the connection;
    /// a body over the cap fails as the server's 400, before any dial.
    pub(crate) fn pipeline_send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(), ClientError> {
        if let Some(refusal) = http::body_over_cap(body.len()) {
            return Err(ClientError::Status(400, refusal));
        }
        if self.conn.is_none() {
            self.conn = Some(Conn::dial(self.addr, &self.config)?);
        }
        let conn = self.conn.as_mut().expect("connection just dialed");
        let mut out = Vec::with_capacity(body.len() + 128);
        http::write_request(&mut out, method, path, body);
        if let Err(e) = conn.stream.write_all(&out) {
            self.conn = None;
            return Err(e.into());
        }
        Ok(())
    }

    /// Pipelining, receive half: block for the response to the oldest
    /// un-answered [`Client::pipeline_send`]. The retry-safety split is
    /// the caller's to honor: a [`AttemptError::BeforeResponse`] failure
    /// consumed nothing and a retryable one may be replayed on a fresh
    /// connection (the stale keep-alive race); an
    /// [`AttemptError::AfterResponse`] failure must surface. Any failure,
    /// and a `connection: close` response, drops the connection.
    pub(crate) fn pipeline_recv(&mut self) -> Result<(u16, Vec<u8>), AttemptError> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(AttemptError::BeforeResponse(ClientError::Io(
                io::Error::new(io::ErrorKind::NotConnected, "no connection to receive on"),
            )));
        };
        let failure = match conn.parser.read_from(&mut conn.stream) {
            Ok(Some(resp)) => {
                if !resp.keep_alive {
                    // The server declared this connection over; keeping
                    // it would make the next request hit the stale
                    // keep-alive race deterministically.
                    self.conn = None;
                }
                return Ok((resp.status, resp.body));
            }
            Ok(None) => ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )),
            Err(e) => e.into(),
        };
        // No byte of this response buffered: nothing was consumed, so the
        // request is safely replayable (the stale keep-alive race — the
        // server idle-closed the connection while the request was in
        // flight).
        let replayable = !conn.parser.mid_message();
        self.conn = None;
        Err(if replayable {
            AttemptError::BeforeResponse(failure)
        } else {
            AttemptError::AfterResponse(failure)
        })
    }

    /// Whether a connection is open, so the next request reuses it rather
    /// than dialing a fresh one.
    pub(crate) fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Issue one request and parse the JSON body; non-2xx becomes
    /// [`ClientError::Status`].
    pub fn request_json(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Json, ClientError> {
        let (status, body) = self.request(method, path, body)?;
        parse(&success_text(status, body)?).map_err(ClientError::Protocol)
    }

    /// `POST /v1/predict` for one scenario (exact mode).
    pub fn predict(&mut self, scenario: &Scenario) -> Result<Prediction, ClientError> {
        self.predict_within(scenario, 0.0)
    }

    /// `POST /v1/predict` with a `max_rel_err` tolerance: `0` is exact
    /// mode; a positive bound permits certified grid interpolation.
    pub fn predict_within(
        &mut self,
        scenario: &Scenario,
        max_rel_err: f64,
    ) -> Result<Prediction, ClientError> {
        let mut body = String::with_capacity(128);
        write_scenario(&mut body, scenario);
        let body = with_tolerance(body, max_rel_err);
        let (status, body) = self.request("POST", "/v1/predict", body.as_bytes())?;
        prediction_from_str(&success_text(status, body)?)
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `POST /v1/predict/batch` for a scenario list (exact mode).
    pub fn predict_batch(
        &mut self,
        scenarios: &[Scenario],
    ) -> Result<Vec<Prediction>, ClientError> {
        self.predict_batch_within(scenarios, 0.0)
    }

    /// `POST /v1/predict/batch` with a `max_rel_err` tolerance applied to
    /// every scenario in the batch.
    pub fn predict_batch_within(
        &mut self,
        scenarios: &[Scenario],
        max_rel_err: f64,
    ) -> Result<Vec<Prediction>, ClientError> {
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        self.predict_batch_refs(&refs, max_rel_err)
    }

    /// [`Client::predict_batch_within`] over borrowed lanes. The cluster
    /// router partitions one caller batch into per-owner sub-batches; this
    /// signature lets it ship each sub-batch without cloning a single
    /// `Scenario` on the hot path.
    pub fn predict_batch_refs(
        &mut self,
        scenarios: &[&Scenario],
        max_rel_err: f64,
    ) -> Result<Vec<Prediction>, ClientError> {
        let body = batch_request_body(scenarios, max_rel_err);
        let (status, body) = self.request("POST", "/v1/predict/batch", body.as_bytes())?;
        batch_predictions_from_response(status, body)
    }

    /// Bound how long [`Client::wait_for_eof`] (or any read) blocks.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.config.read_timeout = dur;
        match &self.conn {
            Some(conn) => conn.stream.set_read_timeout(dur),
            None => Ok(()),
        }
    }

    /// Block until the server closes the connection. `Ok(true)` is a clean
    /// EOF at a response boundary (how the server's keep-alive idle
    /// timeout manifests client-side); `Ok(false)` means unexpected bytes
    /// arrived instead.
    pub fn wait_for_eof(&mut self) -> io::Result<bool> {
        use std::io::Read;
        let Some(conn) = self.conn.as_mut() else {
            // The connection is already gone (torn down by an earlier
            // error): indistinguishable from EOF.
            return Ok(true);
        };
        let mut byte = [0u8; 1];
        Ok(conn.parser.buffered() == 0 && conn.stream.read(&mut byte)? == 0)
    }

    /// `GET /metrics`.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.request_json("GET", "/metrics", b"")
    }

    /// `GET /metrics?format=prom`: the Prometheus text exposition.
    pub fn metrics_prometheus(&mut self) -> Result<String, ClientError> {
        let (status, body) = self.request("GET", "/metrics?format=prom", b"")?;
        let text = String::from_utf8(body)
            .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))?;
        if status != 200 {
            return Err(ClientError::Status(status, text));
        }
        Ok(text)
    }
}
