//! The prediction server: `workers` epoll reactors, each running its own
//! connections' requests inline, dispatching four endpoints over the
//! scenario cache.
//!
//! | Endpoint | Body | Response |
//! |---|---|---|
//! | `POST /v1/predict` | one scenario object | one prediction object |
//! | `POST /v1/predict/batch` | `{"scenarios": [...]}` | `{"predictions": [...]}` |
//! | `GET /metrics` | — | counters, cache hit rate, p50/p99 latency |
//! | `GET /v1/cluster` | — | ring topology (DESIGN.md §15) |
//!
//! Every answer comes from this node's own caches: a handler never opens a
//! connection to another node.
//!
//! Threading model: `workers` **reactor** threads (see the `reactor`
//! module) share the listener and are dealt its connections in turn;
//! each multiplexes its connections over epoll — accepting, reading,
//! incrementally parsing and writing, all non-blocking — and runs every
//! complete request's handler itself, then writes the response. There is
//! no worker pool and no request queue. Idle keep-alive connections
//! therefore cost a few kilobytes of reactor state instead of a blocked
//! thread: the concurrent-connection ceiling is the fd limit, not the
//! thread count. Both predict endpoints take one path: a single request
//! is a one-lane batch. The scenario list goes through
//! [`InterpCache::predict_batch`](crate::interp::InterpCache): a lane
//! that consults a certified cell is interpolated, and every other lane is
//! its own exact solve — a cache hit when this node already solved that
//! very scenario, else [`lopc_core::scenario::solve`].
//!
//! Status codes: `200` success, `400` malformed HTTP/JSON/schema, `404`
//! unknown path, `405` wrong method, `422` well-formed but unsolvable
//! scenario (model validation/solver failure), `500` never intentionally.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::OnceLock;

use crate::cache::SolutionCache;
use crate::cluster::ClusterState;
use crate::codec::{predict_request, write_prediction, BodyError};
use crate::http::{write_response, Request};
use crate::interp::InterpCache;
use crate::json::Json;
use crate::metrics::{CacheCounters, ClusterCounters, Endpoint, Metrics};
use crate::reactor::{Reactor, Shared};

/// Server tunables; the defaults suit tests and the quickstart binary.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Serving threads: reactors, each running its own connections'
    /// requests inline (0 = available parallelism).
    pub workers: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Cache capacity per shard.
    pub cache_capacity_per_shard: usize,
    /// Close a keep-alive connection after this long with no request.
    pub idle_timeout: Duration,
    /// Addresses of the other cluster nodes (empty = single node). Every
    /// node must be configured with the same member set — the
    /// consistent-hash ring is derived from it (DESIGN.md §15). A node
    /// never contacts them; it publishes the members in `GET /v1/cluster`
    /// for routing clients.
    pub peers: Vec<String>,
    /// The address this node advertises as its ring identity. Defaults to
    /// the bound address — override it when binding `0.0.0.0` or an
    /// ephemeral port, since every member must name this node the same.
    pub advertise: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_shards: 16,
            cache_capacity_per_shard: 256,
            idle_timeout: Duration::from_secs(30),
            peers: Vec::new(),
            advertise: None,
        }
    }
}

/// Shared server state (cache + metrics), also usable without a socket —
/// `handle` drives the dispatcher directly, which is how the unit tests
/// exercise routing.
pub struct Service {
    interp: InterpCache,
    metrics: Metrics,
    /// Cluster tier, when enabled (always is for socket-backed servers;
    /// bare `Service` unit tests run without one).
    cluster: OnceLock<ClusterState>,
}

/// One computed response.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body (compact JSON, or Prometheus text).
    pub body: String,
    /// `content-type` of the body.
    pub content_type: &'static str,
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply {
            status: 200,
            body,
            content_type: "application/json",
        }
    }

    fn text(body: String) -> Reply {
        Reply {
            status: 200,
            body,
            content_type: "text/plain; version=0.0.4",
        }
    }

    fn error(status: u16, msg: impl std::fmt::Display) -> Reply {
        Reply {
            status,
            body: Json::Object(vec![("error".into(), Json::Str(msg.to_string()))]).to_compact(),
            content_type: "application/json",
        }
    }
}

impl Service {
    /// Fresh service with the given cache geometry (the interpolation cell
    /// index reuses the same shard count and per-shard capacity).
    pub fn new(cache_shards: usize, cache_capacity_per_shard: usize) -> Self {
        Service {
            interp: InterpCache::new(
                SolutionCache::new(cache_shards, cache_capacity_per_shard),
                cache_shards,
                cache_capacity_per_shard,
            ),
            metrics: Metrics::new(),
            cluster: OnceLock::new(),
        }
    }

    /// Attach the cluster tier: publishes the topology endpoint. One-shot;
    /// later calls are ignored.
    pub fn enable_cluster(&self, state: ClusterState) {
        let _ = self.cluster.set(state);
    }

    /// The cluster state, when [`Service::enable_cluster`] has run.
    pub fn cluster(&self) -> Option<&ClusterState> {
        self.cluster.get()
    }

    /// The exact solution cache (bench/tests read its counters).
    pub fn cache(&self) -> &SolutionCache {
        self.interp.cache()
    }

    /// The interpolation layer (cell counters).
    pub fn interp(&self) -> &InterpCache {
        &self.interp
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.cache().hits(),
            misses: self.cache().misses(),
            hit_rate: self.cache().hit_rate(),
            interp_hits: self.interp.interp_hits(),
            interp_fallbacks: self.interp.interp_fallbacks(),
            interp_cells_built: self.interp.cells_built(),
        }
    }

    /// Cluster counters for `/metrics` (a one-node shape when clustering
    /// is not enabled, so the schema never changes).
    pub fn cluster_counters(&self) -> ClusterCounters {
        match self.cluster.get() {
            Some(c) => ClusterCounters {
                nodes: c.ring().len() as u64,
                vnodes_per_node: c.ring().vnodes() as u64,
            },
            None => ClusterCounters {
                nodes: 1,
                vnodes_per_node: 0,
            },
        }
    }

    /// Route one request to its endpoint, recording metrics. The short form
    /// of [`Service::handle_request`] for callers without a query string or
    /// `Accept` header (unit tests, simple tools).
    pub fn handle(&self, method: &str, path: &str, body: &[u8]) -> Reply {
        self.handle_request(method, path, None, None, body)
    }

    /// Route one request to its endpoint, recording metrics.
    ///
    /// `query` is the raw query string (no `?`); `accept` the request's
    /// `Accept` header. `GET /metrics` renders the Prometheus text
    /// exposition instead of JSON when the query contains `format=prom` or
    /// the `Accept` header asks for `text/plain`.
    pub fn handle_request(
        &self,
        method: &str,
        path: &str,
        query: Option<&str>,
        accept: Option<&str>,
        body: &[u8],
    ) -> Reply {
        let start = Instant::now();
        // Path decides 404 vs 405: any method other than the endpoint's own
        // on a known path is 405, only unknown paths are 404.
        let (endpoint, reply, scenarios) = match (path, method) {
            ("/v1/predict", "POST") => {
                let (r, n) = self.predict(body, false);
                (Endpoint::Predict, r, n)
            }
            ("/v1/predict/batch", "POST") => {
                let (r, n) = self.predict(body, true);
                (Endpoint::Batch, r, n)
            }
            ("/metrics", "GET") => {
                let prom_query = query
                    .map(|q| q.split('&').any(|kv| kv == "format=prom"))
                    .unwrap_or(false);
                let prom_accept = accept
                    .map(|a| a.split(',').any(|m| m.trim().starts_with("text/plain")))
                    .unwrap_or(false);
                let reply = if prom_query || prom_accept {
                    Reply::text(
                        self.metrics
                            .to_prometheus(&self.cache_counters(), &self.cluster_counters()),
                    )
                } else {
                    Reply::ok(
                        self.metrics
                            .to_json(&self.cache_counters(), &self.cluster_counters())
                            .to_compact(),
                    )
                };
                (Endpoint::Metrics, reply, 0)
            }
            ("/v1/cluster", "GET") => {
                let reply = match self.cluster.get() {
                    Some(c) => Reply::ok(c.topology_json().to_compact()),
                    None => Reply::error(404, "clustering is not enabled"),
                };
                (Endpoint::Other, reply, 0)
            }
            ("/v1/predict" | "/v1/predict/batch" | "/metrics" | "/v1/cluster", _) => (
                Endpoint::Other,
                Reply::error(405, format!("{method} not allowed on {path}")),
                0,
            ),
            _ => (
                Endpoint::Other,
                Reply::error(404, format!("no such endpoint {path}")),
                0,
            ),
        };
        self.metrics.record(
            endpoint,
            reply.status,
            start.elapsed().as_nanos() as u64,
            scenarios,
        );
        reply
    }

    /// `POST /v1/predict` (`batch = false`) and `POST /v1/predict/batch`
    /// (`batch = true`) share one path: a single request is a one-lane
    /// batch whose scenario is the whole body. The body is decoded straight
    /// into model-validated lanes — malformed is 400, well-formed but
    /// unsolvable 422, before anything touches the cache — then answered
    /// by one [`InterpCache::predict_batch`] call, and the predictions are
    /// written straight into the response body. The first failing lane
    /// (smallest index) reports the error; batch errors name that index.
    fn predict(&self, body: &[u8], batch: bool) -> (Reply, u64) {
        let at = |i: usize| {
            if batch {
                format!(" at index {i}")
            } else {
                String::new()
            }
        };
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return (Reply::error(400, "body is not UTF-8"), 0),
        };
        let (max_rel_err, scenarios) = match predict_request(text, batch) {
            Ok(request) => request,
            Err(e) => {
                let (status, msg) = match e {
                    BodyError::Json(e) => (400, format!("invalid JSON: {e}")),
                    BodyError::Tolerance(e) => (400, e.to_string()),
                    BodyError::NotBatch => (400, "body must be {\"scenarios\": [...]}".into()),
                    BodyError::Decode(i, e) => (400, format!("invalid scenario{}: {e}", at(i))),
                    BodyError::Invalid(i, e) => (422, format!("invalid parameters{}: {e}", at(i))),
                };
                return (Reply::error(status, msg), 0);
            }
        };
        // A prediction renders in about 180 bytes.
        let mut out = String::with_capacity(192 * scenarios.len() + 32);
        if batch {
            out.push_str("{\"predictions\":[");
        }
        for (i, result) in self
            .interp
            .predict_batch(&scenarios, max_rel_err)
            .into_iter()
            .enumerate()
        {
            match result {
                Ok(p) => {
                    if i > 0 {
                        out.push(',');
                    }
                    write_prediction(&mut out, &p);
                }
                Err(e) => {
                    return (
                        Reply::error(422, format!("unsolvable scenario{}: {e}", at(i))),
                        0,
                    )
                }
            }
        }
        if batch {
            out.push_str("]}");
        }
        (Reply::ok(out), scenarios.len() as u64)
    }
}

/// A running server; dropping the handle leaks the threads, so call
/// [`ServerHandle::shutdown`] (tests) or hold it forever (the binary).
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shared: Arc<Shared>,
    reactors: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (cache counters, metrics).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stop the server: shutdown is an *event*, not a poll. Flag + eventfd
    /// wake every reactor out of `epoll_wait` (one still running a request
    /// finishes it first); each closes its connections and exits. Every
    /// thread is joined on return.
    pub fn shutdown(self) {
        self.shared.stop();
        for reactor in self.reactors {
            let _ = reactor.join();
        }
    }
}

/// Compute one request's complete response bytes into `out` (cleared
/// first). `false` when the handler panicked: the reactor then drops the
/// connection — a panic costs one connection, not a serving thread.
pub(crate) fn respond(service: &Service, req: &Request, out: &mut Vec<u8>) -> bool {
    out.clear();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let reply = service.handle_request(
            &req.method,
            &req.path,
            req.query.as_deref(),
            req.header("accept"),
            &req.body,
        );
        // RFC 9110 §9.3.2: responses to HEAD must carry no body, or a
        // conforming client desyncs on the kept-alive connection.
        let body = if req.method == "HEAD" {
            ""
        } else {
            &reply.body
        };
        write_response(out, reply.status, reply.content_type, body, req.keep_alive)
            .expect("in-memory write");
    }))
    .is_ok()
}

/// Bind and start a server.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    start_on(listener, config)
}

/// Start a server on an already-bound listener. Splitting the bind from
/// the start lets multi-node tests bind every listener first (learning the
/// ephemeral ports) and only then start the nodes with each other's
/// addresses as peers.
pub fn start_on(listener: TcpListener, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let service = Arc::new(Service::new(
        config.cache_shards,
        config.cache_capacity_per_shard,
    ));
    // The cluster tier is always on — with no peers it is a one-node ring,
    // but `/v1/cluster` still serves the topology so routing clients work
    // against any deployment.
    let self_addr = config.advertise.clone().unwrap_or_else(|| addr.to_string());
    service.enable_cluster(ClusterState::new(self_addr, &config.peers));
    // Many-connection serving is fd-bound; lift the soft limit as far as
    // the environment allows (best effort — C10K needs ~10k fds).
    let _ = crate::sys::raise_nofile_limit(65536);

    let reactors_n = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        config.workers
    };
    let shared = Arc::new(Shared::new(reactors_n)?);
    let listener = Arc::new(listener);
    let reactors = (0..reactors_n)
        .map(|id| {
            Reactor::new(
                id,
                Arc::clone(&listener),
                Arc::clone(&service),
                Arc::clone(&shared),
                config.idle_timeout,
            )
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let reactors = reactors
        .into_iter()
        .map(|reactor| std::thread::spawn(move || reactor.run()))
        .collect();

    Ok(ServerHandle {
        addr,
        service,
        shared,
        reactors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use lopc_core::{Machine, Scenario};

    fn service() -> Service {
        Service::new(4, 64)
    }

    fn a2a_body(w: f64) -> String {
        format!(
            r#"{{"kind":"all_to_all","machine":{{"p":32,"st":25.0,"so":200.0,"c2":0.0}},"w":{w}}}"#
        )
    }

    #[test]
    fn predict_round_trips_through_dispatcher() {
        let svc = service();
        let reply = svc.handle("POST", "/v1/predict", a2a_body(1000.0).as_bytes());
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = parse(&reply.body).unwrap();
        let direct = lopc_core::scenario::solve(&Scenario::AllToAll {
            machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
            w: 1000.0,
        })
        .unwrap();
        assert_eq!(doc.get("r").unwrap().as_num(), Some(direct.r));
        assert_eq!(doc.get("x").unwrap().as_num(), Some(direct.x));
    }

    #[test]
    fn batch_matches_singles_and_counts_scenarios() {
        let svc = service();
        let body = format!(
            r#"{{"scenarios":[{},{},{}]}}"#,
            a2a_body(100.0),
            a2a_body(500.0),
            a2a_body(100.0)
        );
        let reply = svc.handle("POST", "/v1/predict/batch", body.as_bytes());
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = parse(&reply.body).unwrap();
        let preds = doc.get("predictions").unwrap().as_array().unwrap();
        assert_eq!(preds.len(), 3);
        // Repeated scenario: identical answer (and a cache hit).
        assert_eq!(preds[0].get("r"), preds[2].get("r"));
        assert!(svc.cache().hits() >= 1);
        assert_eq!(svc.metrics().scenarios_solved(), 3);
    }

    #[test]
    fn error_statuses() {
        let svc = service();
        assert_eq!(svc.handle("GET", "/nope", b"").status, 404);
        assert_eq!(svc.handle("GET", "/v1/predict", b"").status, 405);
        assert_eq!(svc.handle("POST", "/metrics", b"").status, 405);
        // Known path + any unexpected method is 405, never 404.
        assert_eq!(svc.handle("PUT", "/v1/predict", b"").status, 405);
        assert_eq!(svc.handle("DELETE", "/metrics", b"").status, 405);
        assert_eq!(svc.handle("HEAD", "/v1/predict/batch", b"").status, 405);
        assert_eq!(svc.handle("POST", "/v1/predict", b"not json").status, 400);
        assert_eq!(svc.handle("POST", "/v1/predict", b"\xff\xfe").status, 400);
        assert_eq!(svc.handle("POST", "/v1/predict", b"{}").status, 400);
        // RFC 8259 numbers: no leading zero.
        let leading_zero =
            r#"{"kind":"all_to_all","machine":{"p":32,"st":25,"so":200,"c2":0},"w":01}"#;
        assert_eq!(
            svc.handle("POST", "/v1/predict", leading_zero.as_bytes())
                .status,
            400
        );
        assert_eq!(
            svc.handle("POST", "/v1/predict/batch", b"{\"nope\":1}")
                .status,
            400
        );
        // Well-formed but unsolvable: P = 1.
        let bad = r#"{"kind":"all_to_all","machine":{"p":1,"st":1,"so":1,"c2":1},"w":1}"#;
        assert_eq!(
            svc.handle("POST", "/v1/predict", bad.as_bytes()).status,
            422
        );
        // Batch reports the failing index.
        let batch = format!(r#"{{"scenarios":[{},{bad}]}}"#, a2a_body(10.0));
        let reply = svc.handle("POST", "/v1/predict/batch", batch.as_bytes());
        assert_eq!(reply.status, 422);
        assert!(reply.body.contains("index 1"), "{}", reply.body);
    }

    #[test]
    fn metrics_endpoint_reflects_traffic() {
        let svc = service();
        svc.handle("POST", "/v1/predict", a2a_body(1.0).as_bytes());
        svc.handle("POST", "/v1/predict", a2a_body(1.0).as_bytes());
        svc.handle("GET", "/nope", b"");
        let reply = svc.handle("GET", "/metrics", b"");
        assert_eq!(reply.status, 200);
        let doc = parse(&reply.body).unwrap();
        assert_eq!(
            doc.get("requests")
                .unwrap()
                .get("predict")
                .unwrap()
                .as_num(),
            Some(2.0)
        );
        assert_eq!(
            doc.get("cache").unwrap().get("hits").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(
            doc.get("cache").unwrap().get("hit_rate").unwrap().as_num(),
            Some(0.5)
        );
        assert!(doc
            .get("latency_ns")
            .unwrap()
            .get("p50")
            .unwrap()
            .as_num()
            .is_some());
    }

    #[test]
    fn cell_and_cluster_endpoints_route_correctly() {
        use crate::codec::scenario_to_json;
        let svc = service();
        // Nodes exchange no cells: the former transfer paths are unknown.
        for method in ["GET", "POST", "PUT"] {
            let reply = svc.handle(method, "/v1/cell/0-20-a", b"");
            assert_eq!(reply.status, 404, "{method}: {}", reply.body);
            assert!(reply.body.contains("no such endpoint"), "{}", reply.body);
        }
        // A cell document under the key of a real cell, whose template
        // (P = 16) does not match that key (P = 32). Such a body once failed
        // verification and pinned the key to exact answers; now nothing
        // reads it, and the cell index stays empty.
        let q = Scenario::AllToAll {
            machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
            w: 777.7,
        };
        let brackets: Vec<_> = q
            .interp_axes()
            .unwrap()
            .iter()
            .map(|a| a.kind.bracket(a.value).unwrap())
            .collect();
        let mut words = vec![0u64, 32];
        for b in &brackets {
            words.extend([b.lo.to_bits(), b.hi.to_bits()]);
        }
        let key: Vec<String> = words.iter().map(|w| format!("{w:x}")).collect();
        let key = key.join("-");
        let mismatched = Scenario::AllToAll {
            machine: Machine::new(16, 25.0, 200.0).with_c2(0.0),
            w: 777.7,
        };
        let doc = Json::Object(vec![
            ("key".into(), Json::Str(key.clone())),
            ("template".into(), scenario_to_json(&mismatched)),
            ("cert".into(), Json::Num(1e-2)),
            (
                "brackets".into(),
                Json::Array(
                    brackets
                        .iter()
                        .map(|b| {
                            Json::Object(vec![
                                ("lo".into(), Json::Num(b.lo)),
                                ("hi".into(), Json::Num(b.hi)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("corners".into(), Json::Array(Vec::new())),
        ]);
        let path = format!("/v1/cell/{key}");
        let reply = svc.handle("POST", &path, doc.to_compact().as_bytes());
        assert_eq!(reply.status, 404, "{}", reply.body);
        assert_eq!(svc.interp().cells(), 0, "a POST touched the cell index");
        // A tolerant request in that cell builds it and interpolates.
        let tolerant = r#"{"kind":"all_to_all","machine":{"p":32,"st":25.0,"so":200.0,"c2":0.0},"w":777.7,"max_rel_err":0.01}"#;
        let reply = svc.handle("POST", "/v1/predict", tolerant.as_bytes());
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(svc.interp().cells_built(), 1);
        assert_eq!(svc.interp().interp_hits(), 1, "the cell was not used");
        let (_, served) = svc.interp().predict_traced(&q, 1e-2).unwrap();
        assert!(matches!(served, crate::interp::Served::Interpolated { .. }));
        // A bare Service has no cluster state: topology 404s, method 405s.
        assert_eq!(svc.handle("GET", "/v1/cluster", b"").status, 404);
        assert_eq!(svc.handle("POST", "/v1/cluster", b"").status, 405);
    }

    #[test]
    fn cluster_topology_round_trips_through_the_endpoint() {
        use crate::cluster::{ClusterState, VNODES};
        let a = service();
        a.enable_cluster(ClusterState::new("127.0.0.1:1".into(), &[]));
        let reply = a.handle("GET", "/v1/cluster", b"");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let topo = parse(&reply.body).unwrap();
        assert_eq!(topo.get("self").unwrap().as_str(), Some("127.0.0.1:1"));
        assert_eq!(topo.get("nodes").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(topo.get("vnodes").unwrap().as_num(), Some(VNODES as f64));
    }

    #[test]
    fn metrics_include_cluster_section() {
        let svc = service();
        let reply = svc.handle("GET", "/metrics", b"");
        let doc = parse(&reply.body).unwrap();
        let cluster = doc.get("cluster").unwrap();
        assert_eq!(cluster.get("nodes").unwrap().as_num(), Some(1.0));
        assert_eq!(cluster.get("vnodes").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn batch_of_one_and_empty_batch() {
        let svc = service();
        let one = format!(r#"{{"scenarios":[{}]}}"#, a2a_body(64.0));
        assert_eq!(
            svc.handle("POST", "/v1/predict/batch", one.as_bytes())
                .status,
            200
        );
        let empty = r#"{"scenarios":[]}"#;
        let reply = svc.handle("POST", "/v1/predict/batch", empty.as_bytes());
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, r#"{"predictions":[]}"#);
    }
}
