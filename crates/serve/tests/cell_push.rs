//! Cell pushes stay off the request path.
//!
//! A node that builds a cell homed at a peer offers it to that home in the
//! background. Two properties keep that push from costing the request
//! that built the cell: a pull (the next miss asking a home for a cell)
//! never waits behind a push, and a node runs at most one push thread per
//! peer, draining that peer's queue in order over a connection of its own.
//!
//! This is its own test binary so the process thread count read from
//! `/proc/self/status` sees only this test's threads.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lopc_core::{Machine, Scenario};
use lopc_serve::cluster::{route_hash, VNODES};
use lopc_serve::http::{write_response, RequestParser};
use lopc_serve::interp::rel_resid;
use lopc_serve::server::{start_on, ServerConfig};
use lopc_serve::{Client, HashRing};

/// How long the fake home takes to accept one pushed cell.
const PUSH_DELAY: Duration = Duration::from_millis(20);

/// Threads in this process, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// One connection of the fake home: every `GET` is a 404 at once (it holds
/// no cells), every `POST` is accepted after [`PUSH_DELAY`] and counted.
fn serve_fake_home(mut stream: TcpStream, posts: &AtomicU32) {
    let mut parser = RequestParser::new();
    while let Ok(Some(request)) = parser.read_from(&mut stream) {
        let (status, body) = if request.method == "POST" {
            std::thread::sleep(PUSH_DELAY);
            posts.fetch_add(1, Ordering::SeqCst);
            (200, r#"{"imported":true}"#)
        } else {
            (404, r#"{"error":"no resident cell"}"#)
        };
        // One write per response, as the server makes: a head and a body
        // written apart would meet Nagle's algorithm and a delayed ACK.
        let mut out = Vec::new();
        write_response(&mut out, status, "application/json", body, true).expect("in-memory write");
        if stream.write_all(&out).is_err() {
            return;
        }
    }
}

#[test]
fn pushes_never_hold_up_pulls_and_share_one_thread_per_peer() {
    const TOL: f64 = 1e-3;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let home = listener.local_addr().expect("addr").to_string();
    let posts = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&posts);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || serve_fake_home(stream, &counter));
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let node_addr = listener.local_addr().expect("addr").to_string();
    let node = start_on(
        listener,
        ServerConfig {
            workers: 1,
            peers: vec![home.clone()],
            advertise: Some(node_addr.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("start node");

    // 64 tolerant lanes in 64 distinct cells, every one homed at the fake.
    let ring = HashRing::new(vec![home.clone(), node_addr], VNODES);
    let mut cells = Vec::new();
    let mut lanes = Vec::new();
    'search: for st in [25.0, 31.0, 47.0, 63.0] {
        for c2 in [0.0, 0.5, 1.0] {
            for i in 0..60 {
                let s = Scenario::AllToAll {
                    machine: Machine::new(32, st, 200.0).with_c2(c2),
                    w: 100.0 * 1.12f64.powi(i),
                };
                let cell = route_hash(&s, TOL);
                let owner = ring.owner(cell).expect("non-empty ring");
                if ring.nodes()[owner] == home && !cells.contains(&cell) {
                    cells.push(cell);
                    lanes.push(s);
                    if lanes.len() == 64 {
                        break 'search;
                    }
                }
            }
        }
    }
    assert_eq!(lanes.len(), 64, "too few distinct cells homed at the fake");

    let mut client = Client::connect(node.addr()).expect("connect");
    let before = threads();
    let started = Instant::now();
    let served = client
        .predict_batch_within(&lanes, TOL)
        .expect("tolerant batch");
    let took = started.elapsed();
    let mut peak = threads();
    for (s, p) in lanes.iter().zip(&served) {
        let exact = lopc_core::scenario::solve(s).expect("library solve");
        assert!(rel_resid(p, &exact) <= TOL, "a lane is out of tolerance");
    }
    assert!(
        took < Duration::from_millis(250),
        "the batch waited on its own pushes: {took:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while posts.load(Ordering::SeqCst) < 64 && Instant::now() < deadline {
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        posts.load(Ordering::SeqCst),
        64,
        "every built cell is pushed to its home"
    );
    assert!(
        peak <= before + 4,
        "pushes ran on {} extra threads",
        peak - before
    );
    assert_eq!(
        node.service().interp().cells_built(),
        64,
        "each lane built its own cell"
    );
    node.shutdown();
}
