//! The two rules that make inline request handling safe.
//!
//! Every serving thread is a reactor that runs its own connections'
//! requests inline, so a long handler holds up exactly the connections its
//! reactor owns. Two rules bound that:
//!
//! * connections are dealt across the reactors in accept order, so a
//!   long batch on one connection never delays the next-accepted
//!   connection's requests;
//! * a connection is served at most one request per loop pass, so a peer
//!   that pipelines a deep backlog cannot starve the other connections on
//!   its reactor.
//!
//! Both tests time a server against solving work, so they run one at a
//! time: on a small host, one test's solves would otherwise take the CPU
//! the other's server needs.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lopc_core::{GeneralModel, Machine, Scenario};
use lopc_serve::codec::scenario_to_json;
use lopc_serve::http::{write_request, ResponseParser, MAX_BODY_BYTES};
use lopc_serve::server::{start, ServerConfig, ServerHandle};
use lopc_serve::{predictions_identical, Client};

/// Held for the whole of each test.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Spin until one of the server's connections has a request in its
/// handler (the `idle` gauge drops below `open`).
fn wait_for_a_request_in_flight(server: &ServerHandle) {
    let metrics = server.service().metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.idle_connections() == metrics.open_connections() {
        assert!(Instant::now() < deadline, "no request ever started");
        std::thread::yield_now();
    }
}

/// An exact closed-form single.
fn single(i: usize) -> Scenario {
    Scenario::AllToAll {
        machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
        w: 1000.0 + 7.0 * i as f64,
    }
}

/// A `General` lane: an Appendix-A AMVA over `p` nodes, distinct per `w`.
fn general(p: usize, w: f64) -> Scenario {
    let machine = Machine::new(p, 25.0, 200.0).with_c2(0.0);
    Scenario::General(GeneralModel::homogeneous_all_to_all(machine, w))
}

/// A `SharedMemory` lane over 4096 nodes: a one-node solve whose
/// iterations each cost O(P), in 78 bytes of JSON, distinct per `w`.
fn shared_memory(w: f64) -> Scenario {
    Scenario::SharedMemory {
        machine: Machine::new(4096, 25.0, 200.0).with_c2(0.0),
        w,
    }
}

/// How many `lane`s take about `target` to solve in this build profile,
/// timed over 16 library solves (one solve alone can read twice its
/// steady-state time).
fn lanes_taking(target: Duration, lane: impl Fn(f64) -> Scenario) -> usize {
    let started = Instant::now();
    for i in 0..16 {
        lopc_core::scenario::solve(&lane(900.0 + i as f64)).expect("library solve");
    }
    (target.as_secs_f64() * 16.0 / started.elapsed().as_secs_f64()).ceil() as usize
}

/// With two reactors, connections c0 and c1 (accepted back to back) land
/// on different ones: a batch on c0 that takes at least 50 ms to solve
/// delays none of c1's exact singles. A server that puts both connections
/// on one reactor answers them after the batch.
#[test]
fn a_long_batch_never_delays_the_next_connection() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut c0 = Client::connect(server.addr()).expect("connect c0");
    let mut c1 = Client::connect(server.addr()).expect("connect c1");
    // Size the batch to ~100 ms of solving in this build profile; its body
    // stays far under the server's cap in either profile.
    let lanes = lanes_taking(Duration::from_millis(100), shared_memory);
    let batch: Vec<Scenario> = (0..lanes)
        .map(|i| shared_memory(1000.0 + i as f64))
        .collect();
    let body: usize = batch
        .iter()
        .map(|s| scenario_to_json(s).to_compact().len() + 1)
        .sum();
    assert!(
        body < MAX_BODY_BYTES,
        "a {body}-byte batch is over the body cap"
    );

    let long = std::thread::spawn(move || {
        let sent = Instant::now();
        let answers = c0.predict_batch(&batch).expect("c0 batch");
        assert_eq!(answers.len(), batch.len());
        (sent, Instant::now())
    });
    wait_for_a_request_in_flight(&server);
    let mut answered = Vec::new();
    for i in 0..8 {
        let s = single(i);
        let p = c1.predict(&s).expect("c1 single");
        answered.push(Instant::now());
        let exact = lopc_core::scenario::solve(&s).expect("library solve");
        assert!(predictions_identical(&p, &exact));
    }
    let (sent, batch_done) = long.join().expect("c0 thread");
    assert!(
        batch_done - sent >= Duration::from_millis(50),
        "the batch took only {:?}; the test proves nothing",
        batch_done - sent
    );
    for (i, at) in answered.iter().enumerate() {
        assert!(
            *at < batch_done,
            "single {i} on c1 waited for c0's batch ({:?} after it)",
            *at - batch_done
        );
    }
    server.shutdown();
}

/// With one reactor, c0 writes 32 pipelined `General` batches in one
/// write, then c1 sends one single: c1 is answered after at most two of
/// c0's batches. A reactor that drains every buffered request of a
/// connection in one pass answers c1 only once c0's backlog (or its
/// socket buffer) runs out.
#[test]
fn a_pipelined_backlog_gets_one_request_per_pass() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut c1 = Client::connect(server.addr()).expect("connect c1");
    c1.metrics().expect("c1 is registered");
    let c0 = TcpStream::connect(server.addr()).expect("connect c0");
    // Size each batch to ~20 ms of solving in this build profile: c1's
    // request must reach the reactor within two of them, so a batch must
    // outlast the scheduling delays of c1's thread.
    let per_batch = lanes_taking(Duration::from_millis(20), |w| general(4, w));
    let mut backlog = Vec::new();
    for b in 0..32 {
        let lanes: Vec<String> = (0..per_batch)
            .map(|i| {
                let w = 1000.0 + (per_batch * b + i) as f64;
                scenario_to_json(&general(4, w)).to_compact()
            })
            .collect();
        let body = format!(r#"{{"scenarios":[{}]}}"#, lanes.join(","));
        write_request(&mut backlog, "POST", "/v1/predict/batch", body.as_bytes());
    }
    // The backlog outgrows the socket buffers, so the write completes only
    // as the server consumes it: write from a thread of its own.
    let mut writer = c0.try_clone().expect("clone c0");
    let writing = std::thread::spawn(move || writer.write_all(&backlog).expect("write"));
    wait_for_a_request_in_flight(&server);

    let s = single(0);
    let p = c1.predict(&s).expect("c1 single");
    // Everything counted but c1's two requests is one of c0's batches.
    let batches = server.service().metrics().requests_total() - 2;
    assert!(
        batches <= 2,
        "c1 was answered after {batches} of c0's batches"
    );
    let exact = lopc_core::scenario::solve(&s).expect("library solve");
    assert!(predictions_identical(&p, &exact));

    let mut parser = ResponseParser::new();
    for b in 0..32 {
        let response = parser.read_from(&mut &c0).expect("c0 reply");
        assert_eq!(response.map(|r| r.status), Some(200), "batch {b}");
    }
    writing.join().expect("writer thread");
    server.shutdown();
}
