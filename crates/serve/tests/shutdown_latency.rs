//! Regression gate on server shutdown latency.
//!
//! Shutdown is an *event*: the flag plus an eventfd doorbell wake every
//! reactor out of `epoll_wait`; each finishes the request it is running,
//! if any, closes its connections and exits, and the handle joins them.
//! There is no poll interval anywhere on the path, so shutdown must
//! complete — every thread joined — well inside 50 ms even with a thousand
//! idle keep-alive connections parked in the reactors. If
//! this assert starts failing, something on the shutdown path has regressed
//! into waiting on a timeout; fix that rather than loosening the bound —
//! slow shutdown breaks test suites and rolling restarts alike.

use std::time::{Duration, Instant};

use lopc_core::{Machine, Scenario};
use lopc_serve::server::{start, ServerConfig};
use lopc_serve::Client;

const BOUND: Duration = Duration::from_millis(50);

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn idle_server_shuts_down_quickly() {
    let server = start(config()).expect("bind");
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < BOUND,
        "idle shutdown took {took:?} (bound {BOUND:?})"
    );
}

#[test]
fn shutdown_with_idle_keepalive_connections() {
    let server = start(config()).expect("bind");
    // Connections mid-keep-alive: they cost a reactor a slab slot each,
    // never a thread, and shutdown closes them without waiting.
    let scenario = Scenario::AllToAll {
        machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
        w: 1000.0,
    };
    let mut clients = Vec::new();
    for _ in 0..2 {
        let mut c = Client::connect(server.addr()).expect("connect");
        c.predict(&scenario).expect("predict");
        clients.push(c); // keep the connection open and idle
    }
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < BOUND,
        "shutdown with idle keep-alive connections took {took:?} (bound {BOUND:?})"
    );
    drop(clients);
}

#[test]
fn shutdown_with_a_thousand_idle_connections() {
    let server = start(config()).expect("bind");
    let addr = server.addr();
    // A C10K-style population: 1000 established, idle, keep-alive
    // connections. Event-driven teardown closes them all inside the bound;
    // under the old thread-per-connection core this many idle peers was
    // structurally impossible to even hold with 2 workers.
    let conns: Vec<std::net::TcpStream> = (0..1000)
        .map(|i| std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")))
        .collect();
    // Let the reactor finish accepting the tail of the burst.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.service().metrics().open_connections() < 1000 {
        assert!(
            Instant::now() < deadline,
            "reactor never accepted 1000 conns"
        );
        std::thread::yield_now();
    }
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < BOUND,
        "shutdown with 1000 idle connections took {took:?} (bound {BOUND:?})"
    );
    // Every peer sees the close as a clean EOF, not a hang.
    for (i, conn) in conns.into_iter().enumerate() {
        use std::io::Read;
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let n = (&conn)
            .read(&mut buf)
            .unwrap_or_else(|e| panic!("conn #{i}: {e}"));
        assert_eq!(n, 0, "conn #{i}: expected EOF, got a byte");
    }
}

#[test]
fn shutdown_races_batch_dispatch_without_hanging() {
    // Shutdown while a batch runs inline: the doorbell can land in the
    // same epoll batch as the request's readability, or while the reactor
    // is inside the batch's handler. Either way the reactor finishes that
    // one request, sees the flag, closes its connections and exits — it
    // must never wait on work it will not run itself. The window is
    // microseconds wide, so hammer the interleaving.
    use std::io::Write;
    let lanes: Vec<String> = (0..64)
        .map(|i| {
            format!(
                r#"{{"kind":"all_to_all","machine":{{"p":32,"st":25.0,"so":200.0,"c2":0.0}},"w":{}.0}}"#,
                77 + i
            )
        })
        .collect();
    let body = format!(r#"{{"scenarios":[{}]}}"#, lanes.join(","));
    let request = format!(
        "POST /v1/predict/batch HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    for round in 0..40 {
        let server = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("bind");
        let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(request.as_bytes()).expect("write");
        // Deliberately no synchronisation: the request's readability and
        // the shutdown doorbell race into the same epoll batch.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("round {round}: shutdown hung on an inline batch"));
        drop(conn);
    }
}

#[test]
fn shutdown_after_traffic_bursts() {
    let server = start(config()).expect("bind");
    let addr = server.addr();
    // A burst of short-lived connections that have already closed: stale
    // slab slots must not delay shutdown.
    for _ in 0..8 {
        let mut c = Client::connect(addr).expect("connect");
        let _ = c.metrics().expect("metrics");
    }
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < BOUND,
        "post-burst shutdown took {took:?} (bound {BOUND:?})"
    );
}
