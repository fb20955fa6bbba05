//! Serving-layer performance: load-generates a running `lopc-serve`
//! instance over real sockets and records the serving-throughput baseline.
//!
//! Measured (persisted as the `serve_perf` section of `BENCH_sim.json`):
//!
//! * `serve_batch/warm` — one `POST /v1/predict/batch` of the full mixed
//!   scenario pool against a warmed cache: the repeated-sweep fast path;
//! * `serve_batch/cold` — the same batch shape but every scenario fresh
//!   (unique quantized key), so each entry pays its full model solve;
//! * `serve_single/warm` — single `POST /v1/predict` requests round-robin
//!   over the pool on one keep-alive connection: per-request overhead;
//! * `serve_mixed/open_loop_4clients` — four concurrent clients issuing
//!   single mixed requests (16 each per iteration): the contended path
//!   through accept, the reactors, and cache shards;
//!
//! plus the derived headlines `cache_hit_speedup` (cold ns / warm ns for
//! the identical batch shape — the acceptance criterion requires > 1×),
//! `batch_rps_warm`, and `mixed_rps`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lopc_bench::baseline::{self, Section};
use lopc_core::{GeneralModel, Machine, Scenario};
use lopc_serve::server::{start, ServerConfig};
use lopc_serve::Client;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// The mixed scenario pool: every variant, sweep-like parameter spreads.
/// `epoch` shifts every machine's wire latency `St` by its (integer)
/// value, so each epoch produces a pool of entirely new cache keys —
/// integers below 1e5 survive the cache's 6-significant-digit key
/// quantization exactly, and no bench run comes near 1e5 epochs.
fn pool(epoch: u64) -> Vec<Scenario> {
    let st = epoch as f64;
    let m32 = Machine::new(32, 25.0 + st, 200.0).with_c2(0.0);
    let m16 = Machine::new(16, 50.0 + st, 131.0).with_c2(1.0);
    let mut scenarios = Vec::with_capacity(64);
    for i in 0..24 {
        scenarios.push(Scenario::AllToAll {
            machine: m32,
            w: 100.0 * (i + 1) as f64,
        });
    }
    for i in 0..16 {
        scenarios.push(Scenario::ClientServer {
            machine: m16,
            w: 500.0 + 50.0 * i as f64,
            ps: Some(1 + (i % 8)),
        });
    }
    for i in 0..8 {
        scenarios.push(Scenario::ForkJoin {
            machine: m32,
            w: 2000.0 + 10.0 * i as f64,
            k: 1 + (i % 4) as u32,
        });
    }
    for i in 0..8 {
        scenarios.push(Scenario::SharedMemory {
            machine: m16,
            w: 800.0 + 25.0 * i as f64,
        });
    }
    for i in 0..8 {
        scenarios.push(Scenario::General(GeneralModel::multi_hop(
            m16,
            300.0 + 40.0 * i as f64,
            1 + (i % 3) as u32,
        )));
    }
    scenarios
}

fn bench(c: &mut Criterion) {
    let server = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let warm_pool = pool(0);
    let n = warm_pool.len() as u64;

    // Warm the cache once, and sanity-check the serving path end to end.
    {
        let mut client = Client::connect(addr).expect("connect");
        let served = client.predict_batch(&warm_pool).expect("warm-up batch");
        assert_eq!(served.len(), warm_pool.len());
        for (s, p) in warm_pool.iter().zip(&served) {
            let direct = lopc_core::scenario::solve(s).unwrap();
            assert!(
                lopc_serve::predictions_identical(p, &direct),
                "served != library for {}",
                s.kind()
            );
        }
    }

    let mut g = c.benchmark_group("serve_batch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    g.bench_function("warm", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| black_box(client.predict_batch(&warm_pool).expect("batch").len()))
    });
    // Cold: every iteration asks for a pool nobody has asked for before
    // (see `pool` for why epochs can never collide in cache-key space).
    let cold_epoch = AtomicU64::new(1);
    g.bench_function("cold", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| {
            let fresh = pool(cold_epoch.fetch_add(1, Ordering::Relaxed));
            black_box(client.predict_batch(&fresh).expect("batch").len())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("serve_single");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1));
    let cursor = AtomicU64::new(0);
    g.bench_function("warm", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| {
            let i = cursor.fetch_add(1, Ordering::Relaxed) as usize % warm_pool.len();
            black_box(client.predict(&warm_pool[i]).expect("predict").r)
        })
    });
    g.finish();

    // Open-loop mixed workload: 4 clients, 16 single requests each per
    // iteration, all against the warmed pool.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 16;
    let mut g = c.benchmark_group("serve_mixed");
    g.sample_size(10);
    g.throughput(Throughput::Elements((CLIENTS * PER_CLIENT) as u64));
    g.bench_function("open_loop_4clients", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..CLIENTS {
                    let pool = &warm_pool;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        for i in 0..PER_CLIENT {
                            let s = &pool[(t * PER_CLIENT + i * 7) % pool.len()];
                            black_box(client.predict(s).expect("predict").r);
                        }
                    });
                }
            })
        })
    });
    g.finish();

    // -- Persist the baseline ----------------------------------------------
    let records = criterion::take_results();
    let mut section = Section::new("serve_perf");
    for r in &records {
        section.entry(
            format!("{}/{}", r.group, r.id),
            r.ns_per_iter,
            r.elements_per_iter,
        );
    }
    let ns_of = |group: &str, id: &str| {
        records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| r.ns_per_iter)
    };
    if let (Some(cold), Some(warm)) = (ns_of("serve_batch", "cold"), ns_of("serve_batch", "warm")) {
        let speedup = cold / warm;
        section.derived("cache_hit_speedup", speedup);
        section.derived("batch_rps_warm", n as f64 / warm * 1e9);
        println!(
            "[serve_perf] cache-hit speedup (cold/warm batch): {speedup:.2}x, \
             warm batch throughput {:.0} scenarios/s",
            n as f64 / warm * 1e9
        );
        assert!(
            speedup > 1.0,
            "repeated-query workload must beat cold solves (got {speedup:.2}x)"
        );
    }
    if let Some(mixed) = ns_of("serve_mixed", "open_loop_4clients") {
        let rps = (CLIENTS * PER_CLIENT) as f64 / mixed * 1e9;
        section.derived("mixed_rps", rps);
        println!("[serve_perf] mixed open-loop throughput: {rps:.0} requests/s");
    }
    if let Some(single) = ns_of("serve_single", "warm") {
        println!(
            "[serve_perf] single-request latency (warm cache): {:.1} us",
            single / 1e3
        );
    }
    let hit_rate = server.service().cache().hit_rate();
    section.derived("final_cache_hit_rate", hit_rate);
    println!("[serve_perf] final cache hit rate over the whole run: {hit_rate:.3}");

    match baseline::update(&baseline::default_path(), section) {
        Ok(path) => println!("[serve_perf] baseline written to {}", path.display()),
        Err(e) => eprintln!("[serve_perf] could not write baseline: {e}"),
    }
    server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
