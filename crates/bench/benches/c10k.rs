//! C10K: the readiness-based server core under a massive idle keep-alive
//! population (persisted as the `c10k` section of `BENCH_sim.json`).
//!
//! The LoPC thesis in serving clothes: idle *waiting* connections must not
//! contend for the *computing* resource (serving threads). The old
//! thread-per-connection core capped concurrent connections at the thread
//! count; the epoll reactors park idle connections as a few hundred bytes
//! of slab state. This bench measures exactly that decoupling:
//!
//! * `c10k/active_baseline` — p99 single-request latency, 4 closed-loop
//!   clients, **zero** idle connections;
//! * `c10k/active_under_idle` — the same 4 clients with `LOPC_C10K_CONNS`
//!   (default 10 000) established idle keep-alive connections parked on
//!   the same server (4 reactor threads throughout);
//! * derived: requests/s for both phases, p99 ratio (acceptance: ≤ 2×),
//!   sustained idle connection count, and resident memory per idle
//!   connection.
//!
//! The client ends of the idle population live in a re-exec'd *child
//! process* (`LOPC_C10K_CHILD` mode below): the parent's fd budget then
//! pays one fd per idle connection (the server end) instead of two, which
//! is what lets 10 000 connections fit under a 20 000 hard `RLIMIT_NOFILE`
//! that the container refuses to raise. The harness still scales the
//! target down (with a loud note) if even that cannot fit.

use lopc_bench::baseline::{self, Section};
use lopc_core::{Machine, Scenario};
use lopc_serve::server::{start, ServerConfig};
use lopc_serve::Client;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const ACTIVE_CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 2000;
const WORKERS: usize = 4;

fn scenario_pool() -> Vec<Scenario> {
    let machine = Machine::new(32, 25.0, 200.0).with_c2(0.0);
    (0..64)
        .map(|i| Scenario::AllToAll {
            machine,
            w: 100.0 * (i + 1) as f64,
        })
        .collect()
}

/// Run the 4-client closed-loop phase; returns (total_wall, sorted
/// per-request latencies).
fn active_phase(addr: std::net::SocketAddr, pool: &[Scenario]) -> (Duration, Vec<Duration>) {
    let t0 = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ACTIVE_CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect active client");
                    let mut local = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for i in 0..REQUESTS_PER_CLIENT {
                        let s = &pool[(t * 17 + i * 7) % pool.len()];
                        let q0 = Instant::now();
                        black_box(client.predict(s).expect("predict").r);
                        local.push(q0.elapsed());
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("active client panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    latencies.sort();
    (wall, latencies)
}

fn p99(sorted: &[Duration]) -> Duration {
    sorted[(sorted.len() * 99) / 100 - 1]
}

/// Resident set size of this process, in bytes (`VmRSS` from
/// `/proc/self/status`).
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Child mode: hold `count` idle keep-alive connections to `addr` open,
/// announce readiness on stdout, and exit when the parent closes stdin.
fn run_child(spec: &str) {
    let (addr, count) = spec.split_once(' ').expect("spec is 'addr count'");
    let count: usize = count.parse().expect("count");
    let addr: std::net::SocketAddr = addr.parse().expect("addr");
    let _ = lopc_serve::sys::raise_nofile_limit(count as u64 + 256);
    let _conns: Vec<TcpStream> = (0..count)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect #{i}: {e}")))
        .collect();
    println!("ready");
    // Park until the parent is done (stdin EOF), keeping every socket open.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
}

fn main() {
    if let Ok(spec) = std::env::var("LOPC_C10K_CHILD") {
        run_child(&spec);
        return;
    }

    let target_conns: usize = std::env::var("LOPC_C10K_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);

    // One fd per idle connection (the server end — the client ends live in
    // the child process), plus headroom for the active clients, listener,
    // epoll, and stdio.
    let want_fds = target_conns as u64 + 256;
    let limit = lopc_serve::sys::raise_nofile_limit(want_fds).unwrap_or(0);
    let idle_conns = if limit < want_fds {
        let fit = (limit.saturating_sub(256)) as usize;
        println!(
            "[c10k] NOFILE limit {limit} cannot hold {target_conns} conns; \
             scaling down to {fit}"
        );
        fit
    } else {
        target_conns
    };

    let server = start(ServerConfig {
        workers: WORKERS,
        // The idle population must survive the whole run un-reaped.
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let pool = scenario_pool();

    // Warm the cache so both phases measure the serving path, not solves.
    {
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(
            client.predict_batch(&pool).expect("warm-up").len(),
            pool.len()
        );
    }

    // Phase 1: active load, zero idle connections.
    let (base_wall, base_lat) = active_phase(addr, &pool);
    let base_p99 = p99(&base_lat);
    let total_reqs = (ACTIVE_CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let base_rps = total_reqs / base_wall.as_secs_f64();
    println!(
        "[c10k] baseline (0 idle conns): {base_rps:.0} req/s, p99 {:.1} us",
        base_p99.as_secs_f64() * 1e6
    );

    // Phase 2: park the idle population, held by a child process so its
    // client-side fds come out of a separate budget.
    let rss_before = rss_bytes();
    let mut child = std::process::Command::new(std::env::current_exe().expect("current_exe"))
        .env("LOPC_C10K_CHILD", format!("{addr} {idle_conns}"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn idle-connection holder");
    {
        let mut ready = String::new();
        BufReader::new(child.stdout.as_mut().expect("child stdout"))
            .read_line(&mut ready)
            .expect("child readiness");
        assert_eq!(ready.trim(), "ready", "child failed to park connections");
    }
    let accept_deadline = Instant::now() + Duration::from_secs(30);
    while (server.service().metrics().open_connections() as usize) < idle_conns {
        assert!(
            Instant::now() < accept_deadline,
            "reactor accepted only {} of {idle_conns} idle conns",
            server.service().metrics().open_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let rss_after = rss_bytes();
    let bytes_per_conn = match (rss_before, rss_after) {
        (Some(b), Some(a)) if idle_conns > 0 => {
            Some((a.saturating_sub(b)) as f64 / idle_conns as f64)
        }
        _ => None,
    };
    println!(
        "[c10k] parked {idle_conns} idle keep-alive connections on {WORKERS} reactors{}",
        bytes_per_conn
            .map(|b| format!(", ~{b:.0} bytes server RSS per conn"))
            .unwrap_or_default()
    );

    // Phase 3: the same active load with the idle population parked.
    let (idle_wall, idle_lat) = active_phase(addr, &pool);
    let idle_p99 = p99(&idle_lat);
    let idle_rps = total_reqs / idle_wall.as_secs_f64();
    let open_during = server.service().metrics().open_connections();
    println!(
        "[c10k] under {idle_conns} idle conns: {idle_rps:.0} req/s, p99 {:.1} us \
         ({open_during} conns open)",
        idle_p99.as_secs_f64() * 1e6
    );

    // Acceptance: the idle population must actually be held, and p99 of
    // active traffic must stay within 2x of the idle-free baseline (with a
    // 10 us floor so scheduler noise on a near-zero baseline cannot flap
    // the gate).
    assert!(
        open_during as usize >= idle_conns,
        "idle population collapsed: {open_during} open < {idle_conns}"
    );
    let floor = Duration::from_micros(10);
    assert!(
        idle_p99 <= base_p99.max(floor) * 2,
        "p99 under idle load {idle_p99:?} exceeds 2x baseline {base_p99:?}"
    );

    // Shutdown with the whole idle population still parked: event-driven
    // teardown must stay fast at C10K scale.
    let t0 = Instant::now();
    server.shutdown();
    println!(
        "[c10k] shutdown with {idle_conns} idle conns parked took {:?}",
        t0.elapsed()
    );
    drop(child.stdin.take()); // stdin EOF: child exits and drops its sockets
    let _ = child.wait();

    // -- Persist the baseline ----------------------------------------------
    let mut section = Section::new("c10k");
    section.entry(
        "c10k/active_baseline",
        base_wall.as_nanos() as f64,
        Some(total_reqs as u64),
    );
    section.entry(
        "c10k/active_under_idle",
        idle_wall.as_nanos() as f64,
        Some(total_reqs as u64),
    );
    section.derived("idle_connections_held", idle_conns as f64);
    section.derived("baseline_rps", base_rps);
    section.derived("under_idle_rps", idle_rps);
    section.derived("baseline_p99_us", base_p99.as_secs_f64() * 1e6);
    section.derived("under_idle_p99_us", idle_p99.as_secs_f64() * 1e6);
    section.derived(
        "p99_ratio",
        idle_p99.as_secs_f64() / base_p99.max(floor).as_secs_f64(),
    );
    if let Some(b) = bytes_per_conn {
        section.derived("rss_bytes_per_idle_conn", b);
    }
    match baseline::update(&baseline::default_path(), section) {
        Ok(path) => println!("[c10k] baseline written to {}", path.display()),
        Err(e) => eprintln!("[c10k] could not write baseline: {e}"),
    }
}
