//! Service metrics: request/response counters and a lock-free latency
//! histogram yielding p50/p99 estimates.
//!
//! Everything is plain atomics so the hot path never takes a lock;
//! `/metrics` renders a point-in-time snapshot as JSON. Latencies go into
//! power-of-two nanosecond buckets (bucket `i` covers `[2^i, 2^(i+1))` ns),
//! and quantiles are read back as the geometric midpoint of the bucket the
//! cumulative count crosses — at most a 2× ranging error, which is all a
//! serving dashboard needs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 63 absorbs everything ≥ 2^63 ns.
const BUCKETS: usize = 64;

/// Latency histogram over power-of-two nanosecond buckets.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, ns: u64) {
        let bucket = (63 - ns.max(1).leading_zeros()) as usize;
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Estimate the `q`-quantile (`0 < q <= 1`) in nanoseconds, or `None`
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)).
                return Some(2f64.powi(i as i32) * std::f64::consts::SQRT_2);
            }
        }
        unreachable!("rank <= total");
    }
}

/// Endpoints the service distinguishes in its counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/predict`
    Predict,
    /// `POST /v1/predict/batch`
    Batch,
    /// `GET /metrics`
    Metrics,
    /// Anything else (404/405/400 paths).
    Other,
}

/// Point-in-time snapshot of the cache/interpolation counters, passed into
/// the renderers by the server (which owns the caches).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheCounters {
    /// Exact-cache hits.
    pub hits: u64,
    /// Exact-cache misses (= exact solves performed).
    pub misses: u64,
    /// Exact-cache hit fraction in `[0, 1]`.
    pub hit_rate: f64,
    /// Scenarios answered by certified interpolation.
    pub interp_hits: u64,
    /// Scenarios that asked for interpolation but were served exactly.
    pub interp_fallbacks: u64,
    /// Interpolation cells built (corner + probe solve batches).
    pub interp_cells_built: u64,
}

/// Point-in-time snapshot of the cluster tier (DESIGN.md §15), passed into
/// the renderers by the server (which owns the
/// [`ClusterState`](crate::cluster::ClusterState)). A peerless node reports a
/// one-node ring — the schema never changes shape with the deployment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClusterCounters {
    /// Ring members, including this node.
    pub nodes: u64,
    /// Virtual points per node on the ring.
    pub vnodes_per_node: u64,
}

/// Process-global service metrics; share by reference.
#[derive(Debug, Default)]
pub struct Metrics {
    predict: AtomicU64,
    batch: AtomicU64,
    metrics: AtomicU64,
    other: AtomicU64,
    ok_2xx: AtomicU64,
    client_err_4xx: AtomicU64,
    server_err_5xx: AtomicU64,
    scenarios_solved: AtomicU64,
    latency: Histogram,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    conns_idle_closed: AtomicU64,
    /// Requests currently being handled (gauge).
    dispatched_now: AtomicU64,
    reactor_wakeups: AtomicU64,
    reactor_events: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request.
    pub fn record(&self, endpoint: Endpoint, status: u16, latency_ns: u64, scenarios: u64) {
        match endpoint {
            Endpoint::Predict => &self.predict,
            Endpoint::Batch => &self.batch,
            Endpoint::Metrics => &self.metrics,
            Endpoint::Other => &self.other,
        }
        .fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.ok_2xx,
            400..=499 => &self.client_err_4xx,
            _ => &self.server_err_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.scenarios_solved
            .fetch_add(scenarios, Ordering::Relaxed);
        self.latency.record(latency_ns);
    }

    /// Requests seen in total.
    pub fn requests_total(&self) -> u64 {
        [&self.predict, &self.batch, &self.metrics, &self.other]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Scenarios answered (batch requests count each element).
    pub fn scenarios_solved(&self) -> u64 {
        self.scenarios_solved.load(Ordering::Relaxed)
    }

    /// The reactor accepted a connection.
    pub fn conn_opened(&self) {
        self.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// The reactor tore a connection down (`idle` when the keep-alive idle
    /// timeout fired, rather than peer close / protocol error / shutdown).
    pub fn conn_closed(&self, idle: bool) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
        if idle {
            self.conns_idle_closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A reactor started handling a parsed request.
    pub fn conn_dispatched(&self) {
        self.dispatched_now.fetch_add(1, Ordering::Relaxed);
    }

    /// The request's handler returned.
    pub fn conn_undispatched(&self) {
        self.dispatched_now.fetch_sub(1, Ordering::Relaxed);
    }

    /// One reactor `epoll_wait` return delivering `events` events.
    pub fn reactor_wakeup(&self, events: u64) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        self.reactor_events.fetch_add(events, Ordering::Relaxed);
    }

    /// Connections accepted since start (counter). Tests assert on this to
    /// prove a client's connection pool reuses its warm connection instead
    /// of redialing per request.
    pub fn opened_connections_total(&self) -> u64 {
        self.conns_opened.load(Ordering::Relaxed)
    }

    /// Connections currently open (gauge).
    pub fn open_connections(&self) -> u64 {
        self.conns_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.conns_closed.load(Ordering::Relaxed))
    }

    /// Open connections with no request in flight (gauge): the keep-alive
    /// population parked in the reactors, costing no thread.
    pub fn idle_connections(&self) -> u64 {
        self.open_connections()
            .saturating_sub(self.dispatched_now.load(Ordering::Relaxed))
    }

    /// Connections closed by the idle timeout, in total.
    pub fn idle_timeouts(&self) -> u64 {
        self.conns_idle_closed.load(Ordering::Relaxed)
    }

    /// Snapshot as the `/metrics` JSON document (cache and cluster
    /// counters are passed in by the server, which owns the caches and the
    /// cluster state).
    pub fn to_json(&self, cache: &CacheCounters, cluster: &ClusterCounters) -> crate::Json {
        use crate::Json;
        let load = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        let q = |q: f64| match self.latency.quantile(q) {
            None => Json::Null,
            Some(ns) => Json::Num(ns),
        };
        Json::Object(vec![
            (
                "requests".into(),
                Json::Object(vec![
                    ("predict".into(), load(&self.predict)),
                    ("predict_batch".into(), load(&self.batch)),
                    ("metrics".into(), load(&self.metrics)),
                    ("other".into(), load(&self.other)),
                    ("total".into(), Json::Num(self.requests_total() as f64)),
                ]),
            ),
            (
                "responses".into(),
                Json::Object(vec![
                    ("ok_2xx".into(), load(&self.ok_2xx)),
                    ("client_error_4xx".into(), load(&self.client_err_4xx)),
                    ("server_error_5xx".into(), load(&self.server_err_5xx)),
                ]),
            ),
            ("scenarios_solved".into(), load(&self.scenarios_solved)),
            (
                "cache".into(),
                Json::Object(vec![
                    ("hits".into(), Json::Num(cache.hits as f64)),
                    ("misses".into(), Json::Num(cache.misses as f64)),
                    ("hit_rate".into(), Json::Num(cache.hit_rate)),
                ]),
            ),
            (
                "interp".into(),
                Json::Object(vec![
                    ("hits".into(), Json::Num(cache.interp_hits as f64)),
                    ("fallbacks".into(), Json::Num(cache.interp_fallbacks as f64)),
                    (
                        "cells_built".into(),
                        Json::Num(cache.interp_cells_built as f64),
                    ),
                ]),
            ),
            (
                "connections".into(),
                Json::Object(vec![
                    ("open".into(), Json::Num(self.open_connections() as f64)),
                    ("idle".into(), Json::Num(self.idle_connections() as f64)),
                    ("opened_total".into(), load(&self.conns_opened)),
                    ("closed_total".into(), load(&self.conns_closed)),
                    ("idle_timeouts_total".into(), load(&self.conns_idle_closed)),
                ]),
            ),
            (
                "reactor".into(),
                Json::Object(vec![
                    ("wakeups_total".into(), load(&self.reactor_wakeups)),
                    ("events_total".into(), load(&self.reactor_events)),
                ]),
            ),
            (
                "cluster".into(),
                Json::Object(vec![
                    ("nodes".into(), Json::Num(cluster.nodes as f64)),
                    ("vnodes".into(), Json::Num(cluster.vnodes_per_node as f64)),
                ]),
            ),
            (
                "latency_ns".into(),
                Json::Object(vec![("p50".into(), q(0.50)), ("p99".into(), q(0.99))]),
            ),
        ])
    }

    /// Snapshot in the Prometheus text exposition format (version 0.0.4):
    /// the same counters as [`Metrics::to_json`], rendered as one
    /// `lopc_*`-prefixed family per concept so standard scrapers consume
    /// them without an adapter. Served for `GET /metrics?format=prom` or an
    /// `Accept: text/plain` request.
    pub fn to_prometheus(&self, cache: &CacheCounters, cluster: &ClusterCounters) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(2048);
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut family = |name: &str, help: &str, kind: &str, samples: &[(String, f64)]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in samples {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        };
        family(
            "lopc_requests_total",
            "Requests seen, by endpoint.",
            "counter",
            &[
                ("{endpoint=\"predict\"}".into(), load(&self.predict) as f64),
                (
                    "{endpoint=\"predict_batch\"}".into(),
                    load(&self.batch) as f64,
                ),
                ("{endpoint=\"metrics\"}".into(), load(&self.metrics) as f64),
                ("{endpoint=\"other\"}".into(), load(&self.other) as f64),
            ],
        );
        family(
            "lopc_responses_total",
            "Responses sent, by status class.",
            "counter",
            &[
                ("{class=\"2xx\"}".into(), load(&self.ok_2xx) as f64),
                ("{class=\"4xx\"}".into(), load(&self.client_err_4xx) as f64),
                ("{class=\"5xx\"}".into(), load(&self.server_err_5xx) as f64),
            ],
        );
        family(
            "lopc_scenarios_solved_total",
            "Scenarios answered (batch elements counted individually).",
            "counter",
            &[("".into(), load(&self.scenarios_solved) as f64)],
        );
        family(
            "lopc_cache_hits_total",
            "Exact solution-cache hits.",
            "counter",
            &[("".into(), cache.hits as f64)],
        );
        family(
            "lopc_cache_misses_total",
            "Exact solution-cache misses (solves performed).",
            "counter",
            &[("".into(), cache.misses as f64)],
        );
        family(
            "lopc_cache_hit_rate",
            "Exact solution-cache hit fraction.",
            "gauge",
            &[("".into(), cache.hit_rate)],
        );
        family(
            "lopc_interp_hits_total",
            "Scenarios answered by certified grid interpolation.",
            "counter",
            &[("".into(), cache.interp_hits as f64)],
        );
        family(
            "lopc_interp_fallbacks_total",
            "Interpolation requests served exactly instead.",
            "counter",
            &[("".into(), cache.interp_fallbacks as f64)],
        );
        family(
            "lopc_interp_cells_built_total",
            "Interpolation cells built (corner+probe solve batches).",
            "counter",
            &[("".into(), cache.interp_cells_built as f64)],
        );
        family(
            "lopc_open_connections",
            "Connections currently open.",
            "gauge",
            &[("".into(), self.open_connections() as f64)],
        );
        family(
            "lopc_idle_connections",
            "Open connections with no request in flight.",
            "gauge",
            &[("".into(), self.idle_connections() as f64)],
        );
        family(
            "lopc_connections_opened_total",
            "Connections accepted by the reactor.",
            "counter",
            &[("".into(), load(&self.conns_opened) as f64)],
        );
        family(
            "lopc_connections_closed_total",
            "Connections torn down.",
            "counter",
            &[("".into(), load(&self.conns_closed) as f64)],
        );
        family(
            "lopc_idle_timeouts_total",
            "Connections closed by the keep-alive idle timeout.",
            "counter",
            &[("".into(), load(&self.conns_idle_closed) as f64)],
        );
        family(
            "lopc_reactor_wakeups_total",
            "Reactor epoll_wait returns.",
            "counter",
            &[("".into(), load(&self.reactor_wakeups) as f64)],
        );
        family(
            "lopc_reactor_events_total",
            "Readiness events delivered to the reactor.",
            "counter",
            &[("".into(), load(&self.reactor_events) as f64)],
        );
        family(
            "lopc_cluster_ring_nodes",
            "Consistent-hash ring members, including this node.",
            "gauge",
            &[("".into(), cluster.nodes as f64)],
        );
        let quantiles: Vec<(String, f64)> = [(0.5, "0.5"), (0.99, "0.99")]
            .iter()
            .filter_map(|&(q, label)| {
                self.latency
                    .quantile(q)
                    .map(|ns| (format!("{{quantile=\"{label}\"}}"), ns))
            })
            .collect();
        family(
            "lopc_request_latency_ns",
            "Request latency estimate in nanoseconds (pow2-bucket histogram).",
            "gauge",
            &quantiles,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::default();
        h.record(0); // clamps into bucket 0
        h.record(1);
        h.record(1023);
        h.record(1024);
        assert_eq!(h.count(), 4);
        // p50 over {1, 1, 512-1023, 1024}: rank 2 lands in bucket 0.
        assert!(h.quantile(0.5).unwrap() < 2.0);
        // p100 lands in the 1024 bucket: sqrt(2)*1024.
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 > 1024.0 && p100 < 2048.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert!(Histogram::default().quantile(0.5).is_none());
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::default();
        for i in 0..1000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p99);
        // p99 of ~1ms-uniform data sits within 2x of 990_000 ns.
        assert!(p99 > 495_000.0 && p99 < 1_980_000.0, "p99 = {p99}");
    }

    #[test]
    fn metrics_counters_and_snapshot() {
        let m = Metrics::new();
        m.record(Endpoint::Predict, 200, 1000, 1);
        m.record(Endpoint::Batch, 200, 5000, 32);
        m.record(Endpoint::Metrics, 200, 100, 0);
        m.record(Endpoint::Other, 404, 50, 0);
        m.record(Endpoint::Predict, 400, 80, 0);
        assert_eq!(m.requests_total(), 5);
        assert_eq!(m.scenarios_solved(), 33);
        let counters = CacheCounters {
            hits: 10,
            misses: 5,
            hit_rate: 10.0 / 15.0,
            interp_hits: 7,
            interp_fallbacks: 2,
            interp_cells_built: 3,
        };
        let doc = m.to_json(&counters, &ClusterCounters::default());
        let req = doc.get("requests").unwrap();
        assert_eq!(req.get("predict").unwrap().as_num(), Some(2.0));
        assert_eq!(req.get("total").unwrap().as_num(), Some(5.0));
        let resp = doc.get("responses").unwrap();
        assert_eq!(resp.get("ok_2xx").unwrap().as_num(), Some(3.0));
        assert_eq!(resp.get("client_error_4xx").unwrap().as_num(), Some(2.0));
        assert_eq!(
            doc.get("cache").unwrap().get("hits").unwrap().as_num(),
            Some(10.0)
        );
        assert_eq!(
            doc.get("interp").unwrap().get("hits").unwrap().as_num(),
            Some(7.0)
        );
        assert!(doc
            .get("latency_ns")
            .unwrap()
            .get("p99")
            .unwrap()
            .as_num()
            .is_some());
    }

    #[test]
    fn connection_gauges_track_reactor_lifecycle() {
        let m = Metrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_opened();
        assert_eq!(m.open_connections(), 3);
        assert_eq!(m.idle_connections(), 3);
        m.conn_dispatched();
        assert_eq!(m.idle_connections(), 2);
        m.conn_undispatched();
        assert_eq!(m.idle_connections(), 3);
        m.conn_closed(false);
        m.conn_closed(true); // idle timeout
        assert_eq!(m.open_connections(), 1);
        assert_eq!(m.idle_timeouts(), 1);
        m.reactor_wakeup(5);
        m.reactor_wakeup(0);
        let doc = m.to_json(&CacheCounters::default(), &ClusterCounters::default());
        let conns = doc.get("connections").unwrap();
        assert_eq!(conns.get("open").unwrap().as_num(), Some(1.0));
        assert_eq!(conns.get("idle").unwrap().as_num(), Some(1.0));
        assert_eq!(conns.get("opened_total").unwrap().as_num(), Some(3.0));
        assert_eq!(
            conns.get("idle_timeouts_total").unwrap().as_num(),
            Some(1.0)
        );
        let reactor = doc.get("reactor").unwrap();
        assert_eq!(reactor.get("wakeups_total").unwrap().as_num(), Some(2.0));
        assert_eq!(reactor.get("events_total").unwrap().as_num(), Some(5.0));
        let text = m.to_prometheus(&CacheCounters::default(), &ClusterCounters::default());
        assert!(text.contains("lopc_open_connections 1"));
        assert!(text.contains("lopc_idle_connections 1"));
        assert!(text.contains("lopc_idle_timeouts_total 1"));
        assert!(text.contains("lopc_reactor_wakeups_total 2"));
    }

    #[test]
    fn prometheus_exposition_renders_every_family() {
        let m = Metrics::new();
        m.record(Endpoint::Predict, 200, 1000, 1);
        m.record(Endpoint::Other, 404, 50, 0);
        let counters = CacheCounters {
            hits: 4,
            misses: 2,
            hit_rate: 4.0 / 6.0,
            interp_hits: 3,
            interp_fallbacks: 1,
            interp_cells_built: 2,
        };
        let cluster = ClusterCounters {
            nodes: 3,
            vnodes_per_node: 64,
        };
        let text = m.to_prometheus(&counters, &cluster);
        for needle in [
            "# TYPE lopc_requests_total counter",
            "lopc_requests_total{endpoint=\"predict\"} 1",
            "lopc_responses_total{class=\"4xx\"} 1",
            "lopc_scenarios_solved_total 1",
            "lopc_cache_hits_total 4",
            "lopc_cache_misses_total 2",
            "# TYPE lopc_cache_hit_rate gauge",
            "lopc_interp_hits_total 3",
            "lopc_interp_fallbacks_total 1",
            "lopc_interp_cells_built_total 2",
            "lopc_request_latency_ns{quantile=\"0.5\"}",
            "lopc_cluster_ring_nodes 3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(name.starts_with("lopc_"), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn cluster_schema_is_deployment_independent() {
        // A peerless node still exposes the cluster family and the full
        // JSON section — scrapers never see the schema change shape.
        let m = Metrics::new();
        let text = m.to_prometheus(&CacheCounters::default(), &ClusterCounters::default());
        assert!(
            text.contains("# TYPE lopc_cluster_ring_nodes gauge"),
            "missing the ring family in:\n{text}"
        );
        let doc = m.to_json(&CacheCounters::default(), &ClusterCounters::default());
        let cluster = doc.get("cluster").unwrap();
        for key in ["nodes", "vnodes"] {
            assert!(cluster.get(key).unwrap().as_num().is_some(), "{key}");
        }
    }
}
