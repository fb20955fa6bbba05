//! End-to-end smoke over a real socket: start the server on an ephemeral
//! port, exercise every endpoint through the in-repo [`Client`], and pin
//! the response schemas. The CI smoke job runs exactly this suite, so
//! non-2xx answers and schema drift fail there, not in production.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use lopc_core::{GeneralModel, Machine, Scenario};
use lopc_serve::codec::PREDICTION_FIELDS;
use lopc_serve::http::ResponseParser;
use lopc_serve::json::{parse, Json};
use lopc_serve::server::{start, ServerConfig};
use lopc_serve::Client;

fn machine() -> Machine {
    Machine::new(32, 25.0, 200.0).with_c2(0.0)
}

fn start_server() -> lopc_serve::ServerHandle {
    start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Keys of an object, in order.
fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Object(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("expected an object, got {v:?}"),
    }
}

#[test]
fn all_endpoints_round_trip_over_a_socket() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Single predict, all five scenario kinds.
    let scenarios = vec![
        Scenario::AllToAll {
            machine: machine(),
            w: 1000.0,
        },
        Scenario::ClientServer {
            machine: machine(),
            w: 1000.0,
            ps: None,
        },
        Scenario::ForkJoin {
            machine: machine(),
            w: 2000.0,
            k: 4,
        },
        Scenario::SharedMemory {
            machine: machine(),
            w: 800.0,
        },
        Scenario::General(GeneralModel::client_server(machine(), 700.0, 3)),
    ];
    for s in &scenarios {
        let p = client
            .predict(s)
            .unwrap_or_else(|e| panic!("{}: {e}", s.kind()));
        let direct = lopc_core::scenario::solve(s).unwrap();
        assert!(
            lopc_serve::predictions_identical(&p, &direct),
            "{}: served {p:?} != library {direct:?}",
            s.kind()
        );
    }

    // Batch returns one prediction per scenario, in order.
    let batch = client.predict_batch(&scenarios).expect("batch");
    assert_eq!(batch.len(), scenarios.len());
    for (s, p) in scenarios.iter().zip(&batch) {
        let direct = lopc_core::scenario::solve(s).unwrap();
        assert!(
            lopc_serve::predictions_identical(p, &direct),
            "{}",
            s.kind()
        );
    }

    // Cluster topology is served even by a peerless single node.
    let topo = client
        .request_json("GET", "/v1/cluster", b"")
        .expect("cluster topology");
    let self_addr = server.addr().to_string();
    assert_eq!(topo.get("self").unwrap().as_str(), Some(self_addr.as_str()));
    assert_eq!(topo.get("nodes").unwrap().as_array().unwrap().len(), 1);
    assert_eq!(keys(&topo), vec!["self", "nodes", "vnodes"]);

    // Metrics reflect the traffic this test generated.
    let metrics = client.metrics().expect("metrics");
    let requests = metrics.get("requests").expect("requests");
    assert_eq!(requests.get("predict").unwrap().as_num(), Some(5.0));
    assert_eq!(requests.get("predict_batch").unwrap().as_num(), Some(1.0));
    let cache = metrics.get("cache").expect("cache");
    // The batch repeated all five scenarios: every one was a hit.
    assert_eq!(cache.get("hits").unwrap().as_num(), Some(5.0));
    assert_eq!(cache.get("misses").unwrap().as_num(), Some(5.0));

    server.shutdown();
}

#[test]
fn response_schemas_do_not_drift() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Prediction schema: exactly the documented fields, in order.
    let body = r#"{"kind":"all_to_all","machine":{"p":32,"st":25,"so":200,"c2":0},"w":1000}"#;
    let doc = client
        .request_json("POST", "/v1/predict", body.as_bytes())
        .expect("predict");
    assert_eq!(keys(&doc), PREDICTION_FIELDS.to_vec());

    // Batch schema: {"predictions": [prediction...]}.
    let batch_body = format!(r#"{{"scenarios":[{body}]}}"#);
    let doc = client
        .request_json("POST", "/v1/predict/batch", batch_body.as_bytes())
        .expect("batch");
    assert_eq!(keys(&doc), vec!["predictions"]);
    let preds = doc.get("predictions").unwrap().as_array().unwrap();
    assert_eq!(keys(&preds[0]), PREDICTION_FIELDS.to_vec());

    // Metrics schema: stable top-level sections and their key fields.
    let doc = client.metrics().expect("metrics");
    assert_eq!(
        keys(&doc),
        vec![
            "requests",
            "responses",
            "scenarios_solved",
            "cache",
            "interp",
            "connections",
            "reactor",
            "cluster",
            "latency_ns"
        ]
    );
    assert_eq!(
        keys(doc.get("requests").unwrap()),
        vec!["predict", "predict_batch", "metrics", "other", "total"]
    );
    assert_eq!(
        keys(doc.get("responses").unwrap()),
        vec!["ok_2xx", "client_error_4xx", "server_error_5xx"]
    );
    assert_eq!(
        keys(doc.get("cache").unwrap()),
        vec!["hits", "misses", "hit_rate"]
    );
    assert_eq!(
        keys(doc.get("interp").unwrap()),
        vec!["hits", "fallbacks", "cells_built"]
    );
    assert_eq!(
        keys(doc.get("connections").unwrap()),
        vec![
            "open",
            "idle",
            "opened_total",
            "closed_total",
            "idle_timeouts_total"
        ]
    );
    assert_eq!(
        keys(doc.get("reactor").unwrap()),
        vec!["wakeups_total", "events_total"]
    );
    assert_eq!(keys(doc.get("cluster").unwrap()), vec!["nodes", "vnodes"]);
    assert_eq!(keys(doc.get("latency_ns").unwrap()), vec!["p50", "p99"]);
    // The client's own connection is open (and mid-request, so not idle).
    let conns = doc.get("connections").unwrap();
    assert!(conns.get("open").unwrap().as_num().unwrap() >= 1.0);

    server.shutdown();
}

/// The Prometheus text exposition: reachable via both the query knob and
/// content negotiation, and its family names must not drift (a scraper
/// config references them by exact name).
#[test]
fn prometheus_exposition_schema_does_not_drift() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Generate a little traffic so counters are non-trivial.
    let body = r#"{"kind":"all_to_all","machine":{"p":32,"st":25,"so":200,"c2":0},"w":1000}"#;
    client
        .request_json("POST", "/v1/predict", body.as_bytes())
        .expect("predict");

    let text = client.metrics_prometheus().expect("prom metrics");
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(
        families,
        vec![
            "lopc_requests_total",
            "lopc_responses_total",
            "lopc_scenarios_solved_total",
            "lopc_cache_hits_total",
            "lopc_cache_misses_total",
            "lopc_cache_hit_rate",
            "lopc_interp_hits_total",
            "lopc_interp_fallbacks_total",
            "lopc_interp_cells_built_total",
            "lopc_open_connections",
            "lopc_idle_connections",
            "lopc_connections_opened_total",
            "lopc_connections_closed_total",
            "lopc_idle_timeouts_total",
            "lopc_reactor_wakeups_total",
            "lopc_reactor_events_total",
            "lopc_cluster_ring_nodes",
            "lopc_request_latency_ns",
        ]
    );
    assert!(text.contains("lopc_requests_total{endpoint=\"predict\"} 1"));

    // Content negotiation: Accept: text/plain reaches the same renderer.
    let (status, body) = {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\naccept: text/plain\r\n\r\n")
            .unwrap();
        let resp = ResponseParser::new()
            .read_from(&mut stream)
            .unwrap()
            .expect("a response");
        (resp.status, String::from_utf8(resp.body).unwrap())
    };
    assert_eq!(status, 200);
    assert!(body.starts_with("# HELP lopc_requests_total"), "{body}");

    // The JSON document stays the default.
    let doc = client.metrics().expect("json metrics");
    assert!(doc.get("requests").is_some());

    server.shutdown();
}

/// Interpolation enabled over a real socket: `max_rel_err` reaches the
/// interp layer, answers stay within tolerance, the interp counters move,
/// and a bad tolerance is rejected with 400.
#[test]
fn interpolated_requests_over_a_socket() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    // A small off-grid W sweep with a 1e-3 budget.
    let scenarios: Vec<Scenario> = (0..40)
        .map(|i| Scenario::AllToAll {
            machine: machine(),
            w: 701.3 + 7.0 * i as f64,
        })
        .collect();
    let served = client
        .predict_batch_within(&scenarios, 1e-3)
        .expect("batch");
    for (s, p) in scenarios.iter().zip(&served) {
        let exact = lopc_core::scenario::solve(s).unwrap();
        let resid = lopc_serve::interp::rel_resid(p, &exact);
        assert!(resid <= 1e-3, "{}: residual {resid}", s.kind());
    }
    let svc = server.service();
    assert!(svc.interp().interp_hits() > 0, "sweep must interpolate");
    assert!(
        svc.cache().misses() < scenarios.len() as u64,
        "sweep must cost fewer solves than points"
    );

    // Single requests accept the field too.
    let single = client
        .predict_within(&scenarios[0], 1e-3)
        .expect("single predict");
    let exact = lopc_core::scenario::solve(&scenarios[0]).unwrap();
    assert!(lopc_serve::interp::rel_resid(&single, &exact) <= 1e-3);

    // Metrics surface the interp counters.
    let metrics = client.metrics().expect("metrics");
    let interp = metrics.get("interp").expect("interp section");
    assert!(interp.get("hits").unwrap().as_num().unwrap() > 0.0);

    // Malformed tolerances are a 400, not a silent exact solve.
    let bad = r#"{"kind":"all_to_all","machine":{"p":32,"st":25,"so":200,"c2":0},"w":1000,"max_rel_err":-0.5}"#;
    let (status, _) = client
        .request("POST", "/v1/predict", bad.as_bytes())
        .unwrap();
    assert_eq!(status, 400);
    let bad = r#"{"scenarios":[],"max_rel_err":2.0}"#;
    let (status, _) = client
        .request("POST", "/v1/predict/batch", bad.as_bytes())
        .unwrap();
    assert_eq!(status, 400);

    server.shutdown();
}

#[test]
fn http_errors_are_clean_json_not_hangs() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    let (status, body) = client.request("GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    assert!(parse(std::str::from_utf8(&body).unwrap())
        .unwrap()
        .get("error")
        .is_some());

    let (status, _) = client.request("POST", "/v1/predict", b"{oops").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("GET", "/v1/predict", b"").unwrap();
    assert_eq!(status, 405);

    // Unsolvable scenario -> 422 with an error body; connection stays
    // usable afterwards (keep-alive survives application errors).
    let bad = r#"{"kind":"all_to_all","machine":{"p":1,"st":1,"so":1,"c2":1},"w":1}"#;
    let (status, _) = client
        .request("POST", "/v1/predict", bad.as_bytes())
        .unwrap();
    assert_eq!(status, 422);
    let metrics = client.metrics().expect("connection still alive");
    assert!(metrics.get("responses").is_some());

    // Query strings route to the path's endpoint, not 404.
    let (status, _) = client.request("GET", "/metrics?pretty=1", b"").unwrap();
    assert_eq!(status, 200);

    // Unexpected methods on known paths are 405, and HEAD responses carry
    // no body — the connection stays in sync afterwards.
    let (status, body) = client.request("HEAD", "/v1/predict", b"").unwrap();
    assert_eq!(status, 405);
    assert!(body.is_empty(), "HEAD response must have no body");
    let (status, _) = client.request("PUT", "/metrics", b"").unwrap();
    assert_eq!(status, 405);
    assert!(client.metrics().is_ok(), "framing survived HEAD and PUT");

    server.shutdown();
}

/// A `SharedMemory` `P` out of range is a 422 that names the bound, single
/// or batch lane, and the node answers the next request on the same
/// connection.
#[test]
fn shared_memory_p_out_of_range_is_a_422() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let lane = |p: &str| {
        format!(r#"{{"kind":"shared_memory","machine":{{"p":{p},"st":1,"so":1,"c2":1}},"w":1}}"#)
    };
    for (p, bound) in [
        ("1000000000000000", "p must be <= 2^20"),
        ("1048577", "p must be <= 2^20"),
        ("0", "p must be >= 2"),
        ("1", "p must be >= 2"),
    ] {
        let (status, body) = client
            .request("POST", "/v1/predict", lane(p).as_bytes())
            .unwrap();
        assert_eq!(status, 422, "p = {p}");
        assert!(String::from_utf8_lossy(&body).contains(bound), "p = {p}");
        let batch = format!(r#"{{"scenarios":[{},{}]}}"#, lane("16"), lane(p));
        let (status, body) = client
            .request("POST", "/v1/predict/batch", batch.as_bytes())
            .unwrap();
        assert_eq!(status, 422, "batch, p = {p}");
        assert!(
            String::from_utf8_lossy(&body).contains("at index 1"),
            "p = {p}"
        );
    }
    let s = Scenario::SharedMemory {
        machine: machine(),
        w: 800.0,
    };
    let p = client.predict(&s).expect("the node still answers");
    let direct = lopc_core::scenario::solve(&s).unwrap();
    assert!(lopc_serve::predictions_identical(&p, &direct));
    server.shutdown();
}

/// RFC 9112 §9.3 over a socket: an HTTP/1.0 request without the
/// `keep-alive` option, or any request whose `Connection` options include
/// `close`, is answered with `connection: close` and then EOF — not held
/// open until the idle timeout. An HTTP/1.0 request that asks for
/// keep-alive gets it, and its connection serves a second request.
#[test]
fn http_1_0_requests_get_connection_close_then_eof() {
    let server = start_server();
    for (head, persists) in [
        ("GET /v1/cluster HTTP/1.0\r\n\r\n", false),
        (
            "GET /v1/cluster HTTP/1.1\r\nconnection: close, TE\r\n\r\n",
            false,
        ),
        (
            "GET /v1/cluster HTTP/1.0\r\nconnection: TE, keep-alive\r\n\r\n",
            true,
        ),
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Far below the 30 s idle timeout: a connection wrongly held open
        // fails the read instead of stalling the test.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut parser = ResponseParser::new();
        for _ in 0..if persists { 2 } else { 1 } {
            stream.write_all(head.as_bytes()).unwrap();
            let resp = parser.read_from(&mut stream).unwrap().expect("a response");
            assert_eq!(resp.status, 200, "{head:?}");
            let connection = if persists { "keep-alive" } else { "close" };
            assert_eq!(resp.header("connection"), Some(connection), "{head:?}");
            assert_eq!(resp.keep_alive, persists, "{head:?}");
        }
        if !persists {
            let eof = parser.read_from(&mut stream);
            assert!(
                matches!(eof, Ok(None)),
                "{head:?}: expected EOF, got {eof:?}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_are_served_in_parallel_workers() {
    let server = start_server();
    let addr = server.addr();
    let ws: Vec<f64> = (0..8).map(|i| 100.0 + 37.0 * i as f64).collect();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let ws = &ws;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (i, &w) in ws.iter().enumerate() {
                    let scenario = Scenario::AllToAll {
                        machine: machine(),
                        w: w + (((t + i) % 2) as f64) * 0.5,
                    };
                    let p = client.predict(&scenario).expect("predict");
                    let direct = lopc_core::scenario::solve(&scenario).unwrap();
                    assert!(lopc_serve::predictions_identical(&p, &direct));
                }
            });
        }
    });
    let svc = server.service();
    assert_eq!(svc.metrics().requests_total(), 32);
    assert!(svc.cache().hits() > 0, "repeated scenarios must hit");
    server.shutdown();
}
