//! Client hardening: the failure-mode contract of [`lopc_serve::Client`].
//!
//! The client is the building block of the cluster router, so its behaviour
//! against sick servers is load-bearing: dialing must fail in bounded time,
//! transient transport errors must retry within a bounded budget, the
//! stale keep-alive race must be replayed transparently — and nothing may
//! ever be replayed after a response byte has been consumed, because a
//! second application of the request could diverge from the first answer.
//!
//! Every fake server here is a plain `TcpListener` driven from a thread,
//! so each test controls exactly how far the HTTP exchange proceeds.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lopc_core::{GeneralModel, Machine, Scenario};
use lopc_serve::cluster::{route_hash, VNODES};
use lopc_serve::http::{RequestParser, MAX_BODY_BYTES};
use lopc_serve::interp::rel_resid;
use lopc_serve::server::{start, start_on, ServerConfig};
use lopc_serve::{
    predictions_identical, Client, ClientConfig, ClientError, ClusterClient, HashRing, RetryPolicy,
};

fn scenario() -> Scenario {
    Scenario::AllToAll {
        machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
        w: 1000.0,
    }
}

/// A server that accepts every connection and instantly hangs up, counting
/// the dials.
fn door_slammer() -> (SocketAddr, Arc<AtomicU32>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accepts = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&accepts);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            counter.fetch_add(1, Ordering::SeqCst);
            drop(stream);
        }
    });
    (addr, accepts)
}

/// A port with nothing behind it: bind, read the address, drop the
/// listener. Dialing it must fail *fast* (connection refused), not block.
#[test]
fn connect_fails_fast_when_nothing_listens() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let started = Instant::now();
    let result = Client::connect(addr);
    let elapsed = started.elapsed();
    assert!(result.is_err(), "connect to a dead port must fail");
    assert!(
        elapsed < Duration::from_secs(1),
        "refused connect took {elapsed:?} — connect must not block"
    );
}

/// An unresponsive address (non-routable test network, RFC 5737) must
/// resolve within the configured connect timeout — this is the bound that
/// keeps a router thread from wedging on a black-holed peer for the
/// kernel's SYN-retry eternity. The *outcome* depends on the environment
/// (a true black hole times out; some sandboxes answer "unreachable"
/// instantly or even intercept the dial) — the contract under test is the
/// time bound, never blocking.
#[test]
fn connect_timeout_bounds_dialing_a_black_hole() {
    let addr: SocketAddr = "192.0.2.1:9".parse().expect("test-net address");
    let config = ClientConfig {
        connect_timeout: Duration::from_millis(250),
        retry: RetryPolicy::none(),
        ..ClientConfig::default()
    };
    let started = Instant::now();
    let result = Client::connect_with(addr, config);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "dialing a black hole took {elapsed:?} with a 250ms connect timeout \
         (outcome was err={})",
        result.is_err()
    );
}

/// The stale keep-alive race: the server idle-closes our connection, and
/// the next request sees EOF before any response byte. That is the one
/// always-safe replay — the client must redial and succeed without the
/// caller noticing.
#[test]
fn stale_keepalive_connections_are_replayed_transparently() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(100),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let first = client.predict(&scenario()).expect("first predict");
    // Outlive the server's idle timeout: the reactor reaps our connection.
    std::thread::sleep(Duration::from_millis(400));
    let second = client
        .predict(&scenario())
        .expect("predict after idle-close must replay on a fresh connection");
    assert_eq!(first.r.to_bits(), second.r.to_bits());
    server.shutdown();
}

/// A server that accepts and instantly hangs up: every attempt fails
/// before a response byte, so the retry budget is spent exactly — the
/// accept count equals `RetryPolicy::attempts`, and the surfaced error is
/// the retryable transport error, not a protocol mirage.
#[test]
fn transient_errors_retry_exactly_the_configured_budget() {
    let (addr, accepts) = door_slammer();
    let config = ClientConfig {
        retry: RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
        },
        ..ClientConfig::default()
    };
    // The dial itself is accept #1; the request then burns the budget.
    let mut client = Client::connect_with(addr, config).expect("dial succeeds via backlog");
    let err = client
        .request("POST", "/v1/predict", b"{}")
        .expect_err("a door-slamming server must exhaust the retry budget");
    assert!(
        err.is_retryable(),
        "budget exhaustion must surface the transport error, got: {err}"
    );
    // Wait for the server thread to have counted the last accept.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        3,
        "3 attempts must dial exactly 3 times — no more, no fewer"
    );
}

/// The partial-response gate: the server sends response *headers* and two
/// body bytes, then goes silent. The subsequent read timeout is a
/// retryable error *kind*, but response bytes have been consumed — the
/// client must surface the failure immediately instead of replaying the
/// request (the accept count stays 1).
#[test]
fn never_retries_after_a_partial_response() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accepts = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&accepts);
    std::thread::spawn(move || {
        for _ in 0..4 {
            let Ok((mut stream, _)) = listener.accept() else {
                break;
            };
            counter.fetch_add(1, Ordering::SeqCst);
            // Consume the request header so the client's write succeeds.
            let mut sink = [0u8; 512];
            let _ = stream.read(&mut sink);
            // Promise 10 body bytes, deliver 2, then hold the socket open.
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhi");
            let _ = stream.flush();
            std::thread::sleep(Duration::from_secs(5));
        }
    });

    let config = ClientConfig {
        read_timeout: Some(Duration::from_millis(200)),
        retry: RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
        },
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, config).expect("connect");
    let started = Instant::now();
    let err = client
        .request("POST", "/v1/predict", b"{}")
        .expect_err("a truncated response must fail");
    let elapsed = started.elapsed();
    match &err {
        ClientError::Io(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "expected a mid-response read timeout, got: {e}"
        ),
        other => panic!("expected an Io timeout, got: {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "one timeout's worth of waiting, not a retry storm: {elapsed:?}"
    );
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        1,
        "a partially consumed response must never be replayed"
    );
}

/// Ambiguous response framing — two different `content-length`s, or
/// `transfer-encoding: chunked` — could desync a pooled connection. The
/// client fails the request as a protocol error, never replays it (the
/// fake server accepts once), and hangs up (the fake server reads EOF).
#[test]
fn ambiguous_response_framing_fails_without_replay() {
    for reply in [
        "HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 7\r\n\r\n{}",
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepts = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&accepts);
        let (hung_up, saw_eof) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for mut stream in listener.incoming().flatten() {
                counter.fetch_add(1, Ordering::SeqCst);
                let mut parser = RequestParser::new();
                if let Ok(Some(_)) = parser.read_from(&mut stream) {
                    let _ = stream.write_all(reply.as_bytes());
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    let _ = hung_up.send(matches!(parser.read_from(&mut stream), Ok(None)));
                }
            }
        });
        let config = ClientConfig {
            read_timeout: Some(Duration::from_secs(2)),
            retry: RetryPolicy {
                attempts: 3,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
            },
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, config).expect("connect");
        let err = client
            .request("GET", "/metrics", b"")
            .expect_err("ambiguous framing must fail");
        assert!(matches!(err, ClientError::Protocol(_)), "{reply:?}: {err}");
        let eof = saw_eof.recv_timeout(Duration::from_secs(10));
        assert_eq!(eof, Ok(true), "{reply:?}: the client kept the connection");
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "{reply:?} was replayed");
    }
}

/// The server refuses an over-cap head and closes while the body is still
/// being written, so a client that sent it would see only a reset, which
/// it retries. The client applies the server's rule itself: a 60-lane
/// `General` P=64 batch (5.1 MB), direct or routed, fails with the
/// server's 400 and wording without dialing (neither node's
/// `opened_connections_total` moves), and the router marks no node down.
#[test]
fn an_over_cap_batch_is_the_servers_400_without_a_dial() {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let nodes: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let config = ServerConfig {
                workers: 1,
                peers: vec![addrs[1 - i].clone()],
                advertise: Some(addrs[i].clone()),
                ..ServerConfig::default()
            };
            start_on(listener, config).expect("start node")
        })
        .collect();
    let router = ClusterClient::connect(nodes[0].addr()).expect("router");
    let mut direct = Client::connect(nodes[0].addr()).expect("connect");
    direct
        .metrics()
        .expect("the direct connection is registered");
    // Lanes owned by node 0, so the routed wave sends them as one
    // over-cap sub-batch.
    let home = Some(addrs[0].as_str());
    let batch: Vec<Scenario> = (0..)
        .map(|i| {
            let machine = Machine::new(64, 25.0, 200.0).with_c2(0.0);
            Scenario::General(GeneralModel::homogeneous_all_to_all(
                machine,
                1000.0 + i as f64,
            ))
        })
        .filter(|s| router.owner_of(s) == home)
        .take(60)
        .collect();
    let opened = || {
        nodes
            .iter()
            .map(|n| n.service().metrics().opened_connections_total())
            .collect::<Vec<_>>()
    };
    let before = opened();
    let refused = |how: &str, err: ClientError| {
        let ClientError::Status(400, m) = &err else {
            panic!("{how}: expected the server's 400, got {err}");
        };
        let len = m
            .strip_prefix("body of ")
            .and_then(|m| m.strip_suffix(&format!(" bytes exceeds {MAX_BODY_BYTES}")))
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("{how}: not the server's wording: {m:?}"));
        assert!(len > MAX_BODY_BYTES, "{how}: {m}");
        assert!(!err.is_retryable(), "{how}: a status is an answer");
    };
    refused(
        "direct",
        direct.predict_batch(&batch).expect_err("over cap"),
    );
    refused(
        "routed",
        router.predict_batch(&batch).expect_err("over cap"),
    );
    assert_eq!(opened(), before, "an over-cap batch dialed a node");
    assert!(
        batch.iter().all(|s| router.owner_of(s) == home),
        "the router marked the lanes' owner down"
    );
    // The direct connection survives, and the router still routes.
    direct.metrics().expect("direct connection still serves");
    assert_eq!(opened(), before, "the direct client redialed");
    let small = scenario();
    let served = router.predict(&small).expect("routed single");
    let library = lopc_core::scenario::solve(&small).expect("library solve");
    assert!(predictions_identical(&served, &library));
    for node in nodes {
        node.shutdown();
    }
}

/// The router keeps one warm keep-alive connection per node: a burst of
/// routed batches must ride that pooled connection, never redial per
/// sub-batch. The server's accept counter is the witness — one accept for
/// the topology fetch, one for the pooled route connection, and not a
/// single one more across ten batches.
#[test]
fn routed_batches_reuse_the_pooled_connection() {
    let server = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let router = ClusterClient::connect(server.addr()).expect("router");
    let scenarios: Vec<Scenario> = (0..16)
        .map(|i| Scenario::AllToAll {
            machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
            w: 100.0 * (i + 1) as f64,
        })
        .collect();
    for _ in 0..10 {
        router.predict_batch(&scenarios).expect("routed batch");
    }
    let opened = server.service().metrics().opened_connections_total();
    assert_eq!(
        opened, 2,
        "ten routed batches opened {opened} connections — expected exactly \
         the topology fetch plus one pooled route connection"
    );
    server.shutdown();
}

/// Half-open re-probe is single-flight: when a dead member's cooldown
/// expires, exactly one request across every concurrent caller dials it;
/// the rest fail over to the survivors without waiting. A door-slamming
/// dead node counts its accepts — with four threads hammering the router
/// for many cooldown windows, the count stays at "one probe per window",
/// not "every in-flight request at every expiry" (the thundering herd this
/// test pins down).
#[test]
fn half_open_reprobe_is_single_flight_under_contention() {
    // The dead member: accepts and instantly hangs up, counting dials.
    let (dead_addr, accepts) = door_slammer();
    let dead_addr = dead_addr.to_string();

    // Two live nodes whose topology includes the dead member.
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let nodes: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers = vec![addrs[1 - i].clone(), dead_addr.clone()];
            start_on(
                listener,
                ServerConfig {
                    workers: 2,
                    peers,
                    advertise: Some(addrs[i].clone()),
                    ..ServerConfig::default()
                },
            )
            .expect("start node")
        })
        .collect();

    let config = ClientConfig {
        retry: RetryPolicy::none(),
        ..ClientConfig::default()
    };
    let seed = nodes[0].addr();
    let mut router = ClusterClient::connect_with(seed, config).expect("router");
    let cooldown = Duration::from_millis(50);
    router.set_cooldown(cooldown);
    let router = Arc::new(router);

    // Hammer from four threads across a parameter spread wide enough that
    // plenty of lanes are owned by the dead member.
    let deadline = Instant::now() + Duration::from_millis(400);
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let mut served = 0u32;
                while Instant::now() < deadline {
                    for i in 0..8 {
                        let s = Scenario::AllToAll {
                            machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
                            w: 100.0 * (t * 8 + i + 1) as f64,
                        };
                        router
                            .predict(&s)
                            .expect("failover must absorb the dead member");
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();
    let served: u32 = workers.into_iter().map(|h| h.join().expect("worker")).sum();

    let dials = accepts.load(Ordering::SeqCst);
    // First contact may race every thread (the member starts out "up");
    // after that, each ~50ms window admits exactly one probe. 400ms of
    // hammering is ~8 windows — allow generous scheduling slop, but stay
    // far below the hundreds a per-request herd would produce.
    assert!(dials >= 1, "the dead member was never probed");
    assert!(
        dials <= 30,
        "{dials} dials of the dead member in ~8 cooldown windows — \
         half-open re-probe is stampeding instead of single-flight"
    );
    assert!(served > 0, "hammer threads never completed a request");
    for n in nodes {
        n.shutdown();
    }
}

/// A routed wave replays a sub-batch only on a connection pooled before
/// the wave: that is the stale keep-alive race. When a connection the wave
/// dialed itself fails before a response byte, the member itself is sick,
/// so its lanes fail over to a survivor at once instead of redialing the
/// member through the client's retry budget. With the default retry
/// policy, one routed single and one routed batch against a
/// door-slamming member each dial it exactly once.
#[test]
fn routed_waves_never_replay_on_a_freshly_dialed_connection() {
    let (dead, accepts) = door_slammer();
    let dead = dead.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let live_addr = listener.local_addr().expect("addr").to_string();
    let live = start_on(
        listener,
        ServerConfig {
            workers: 2,
            peers: vec![dead.clone()],
            advertise: Some(live_addr),
            ..ServerConfig::default()
        },
    )
    .expect("start node");
    let lanes: Vec<Scenario> = (0..16)
        .map(|i| Scenario::AllToAll {
            machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
            w: 100.0 * (i + 1) as f64,
        })
        .collect();
    // A fresh router per request: every member starts out up, with no
    // connection pooled.
    let router = || ClusterClient::connect(live.addr()).expect("router");
    let probe = router();
    let single = lanes
        .iter()
        .find(|s| probe.owner_of(s) == Some(dead.as_str()))
        .expect("the door-slammer owns some lane");
    // Dials of the door-slammer since `before`. The kernel completes a
    // dial before the accept loop counts it, so wait for the first count
    // and then for any stragglers.
    let dials_since = |before: u32| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while accepts.load(Ordering::SeqCst) == before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        accepts.load(Ordering::SeqCst) - before
    };

    let before = accepts.load(Ordering::SeqCst);
    let served = router().predict(single).expect("the single fails over");
    let library = lopc_core::scenario::solve(single).expect("library solve");
    assert!(predictions_identical(&served, &library));
    assert_eq!(
        dials_since(before),
        1,
        "a routed single redialed its failed owner"
    );

    let before = accepts.load(Ordering::SeqCst);
    let served = router()
        .predict_batch(&lanes)
        .expect("the batch fails over");
    for (s, p) in lanes.iter().zip(&served) {
        let library = lopc_core::scenario::solve(s).expect("library solve");
        assert!(predictions_identical(p, &library));
    }
    assert_eq!(
        dials_since(before),
        1,
        "a routed batch redialed its failed owner"
    );
    live.shutdown();
}

/// Error statuses are answers, not failures: they must not be retried
/// (the server would see the request twice) and must decode into
/// [`ClientError::Status`] with the body attached.
#[test]
fn error_statuses_are_answers_not_retries() {
    let server = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client
        .request_json("POST", "/v1/predict", b"{\"kind\":\"nope\"}")
        .expect_err("an unknown kind must be a 4xx");
    match &err {
        ClientError::Status(code, body) => {
            assert_eq!(*code, 400, "body: {body}");
            assert!(!err.is_retryable(), "a status is an answer — never retry");
        }
        other => panic!("expected Status, got: {other}"),
    }
    server.shutdown();
}

/// Nodes share nothing: a node answers tolerant requests for cells homed
/// at a peer from cells it builds itself, and never contacts the peer. The
/// peer here accepts and never answers, so any dial to it would stall a
/// serving thread; instead every lane is answered within 1 s and within
/// tolerance of the library, and the hung listener sees no accept.
#[test]
fn a_hung_cell_home_is_never_contacted() {
    const TOL: f64 = 1e-3;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let hung = listener.local_addr().expect("addr").to_string();
    let accepts = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&accepts);
    std::thread::spawn(move || {
        // Hold every connection open; never read, never reply.
        let mut held = Vec::new();
        for stream in listener.incoming() {
            counter.fetch_add(1, Ordering::SeqCst);
            held.push(stream);
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let node_addr = listener.local_addr().expect("addr").to_string();
    let node = start_on(
        listener,
        ServerConfig {
            workers: 2,
            peers: vec![hung.clone()],
            advertise: Some(node_addr.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("start node");
    // Tolerant lanes in four distinct cells, each homed at the hung peer.
    let ring = HashRing::new(vec![hung.clone(), node_addr], VNODES);
    let mut cells = Vec::new();
    let homed: Vec<Scenario> = (0..400)
        .map(|i| Scenario::AllToAll {
            machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
            w: 100.0 * 1.05f64.powi(i),
        })
        .filter(|s| {
            let cell = route_hash(s, TOL);
            let home = &ring.nodes()[ring.owner(cell).expect("non-empty ring")];
            let fresh = *home == hung && !cells.contains(&cell);
            cells.push(cell);
            fresh
        })
        .take(4)
        .collect();
    assert_eq!(homed.len(), 4, "too few cells homed at the hung peer");

    let mut client = Client::connect(node.addr()).expect("connect");
    for s in &homed {
        let started = Instant::now();
        let served = client.predict_within(s, TOL).expect("tolerant predict");
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "a lane homed at a hung peer took {took:?}"
        );
        let exact = lopc_core::scenario::solve(s).expect("library solve");
        let err = rel_resid(&served, &exact);
        assert!(err <= TOL, "answer off by {err:.2e}");
    }
    assert_eq!(node.service().interp().cells_built(), 4);
    // The kernel completes a dial before the accept loop counts it.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        0,
        "the node contacted the hung home of a cell"
    );
    node.shutdown();
}
