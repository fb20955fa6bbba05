//! Conservative parallel simulation bench: per-thread scaling of
//! `lopc_sim::par::run_par` against the sequential engine at two machine
//! sizes, after asserting the runs are bit-identical in release (the
//! pre-flight is the gate — DESIGN.md §13). P=4096 is the lockstep
//! lattice shape (constant `W`, `So`, `St`) whose window edges land on
//! tied events. Speedup is recorded, not gated: CI runners are shared and
//! have few cores, so their timings are too noisy to compare.
//!
//! Results are persisted as the `par_sim` section of `BENCH_sim.json` at
//! the repository root so every run extends the perf baseline that later
//! PRs compare against.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lopc_bench::baseline::{self, Section};
use lopc_dist::ServiceTime;
use lopc_sim::{
    run_par, run_with_scheduler, DestChooser, ParOptions, Scheduler, SimConfig, StopCondition,
    ThreadSpec,
};
use std::hint::black_box;

/// Homogeneous all-to-all machine sized for the parallel engine: enough
/// nodes that each of 4 LPs holds a big per-LP calendar population.
fn sim_cfg(p: usize, cycles: u64) -> SimConfig {
    SimConfig {
        p,
        net_latency: 25.0,
        request_handler: ServiceTime::constant(200.0),
        reply_handler: ServiceTime::constant(200.0),
        threads: vec![
            ThreadSpec {
                work: Some(ServiceTime::constant(512.0)),
                dest: DestChooser::UniformOther,
                hops: 1,
                fanout: 1,
            };
            p
        ],
        protocol_processor: false,
        latency_dist: None,
        stop: StopCondition::CyclesPerThread { n: cycles },
        seed: 42,
    }
}

fn bench(c: &mut Criterion) {
    const THREADS: [usize; 3] = [1, 2, 4];
    const LPS: usize = 4;
    let sizes: [(usize, u64); 2] = [(4096, 4), (65536, 2)];

    let mut g = c.benchmark_group("par_sim");
    for &(p, cycles) in &sizes {
        let cfg = sim_cfg(p, cycles);

        // Pre-flight: the parallel runs being timed are the sequential run,
        // bit for bit — otherwise the throughput comparison is meaningless.
        let reference = run_with_scheduler(&cfg, Scheduler::Calendar).unwrap();
        for threads in THREADS {
            let opts = ParOptions {
                lps: LPS,
                threads,
                scheduler: Some(Scheduler::Calendar),
                trace: false,
            };
            let par = run_par(&cfg, &opts).unwrap();
            assert_eq!(
                par, reference,
                "parallel run diverged at P={p} threads={threads}"
            );
        }
        println!(
            "[par_sim] P={p}: {} events/run, mean R = {:.1}",
            reference.events, reference.aggregate.mean_r
        );

        g.sample_size(10);
        g.throughput(Throughput::Elements(reference.events));
        g.bench_function(format!("seq_p{p}"), |b| {
            b.iter(|| {
                black_box(
                    run_with_scheduler(&cfg, Scheduler::Calendar)
                        .unwrap()
                        .events,
                )
            })
        });
        for threads in THREADS {
            let opts = ParOptions {
                lps: LPS,
                threads,
                scheduler: Some(Scheduler::Calendar),
                trace: false,
            };
            g.bench_function(format!("par_t{threads}_p{p}"), |b| {
                b.iter(|| black_box(run_par(&cfg, &opts).unwrap().events))
            });
        }
    }
    g.finish();

    // -- Persist the baseline ----------------------------------------------
    let records = criterion::take_results();
    let mut section = Section::new("par_sim");
    let ns_of = |id: &str| {
        records
            .iter()
            .find(|r| r.group == "par_sim" && r.id == id)
            .map(|r| r.ns_per_iter)
    };
    for r in &records {
        section.entry(
            format!("{}/{}", r.group, r.id),
            r.ns_per_iter,
            r.elements_per_iter,
        );
    }
    for &(p, _) in &sizes {
        if let Some(seq) = ns_of(&format!("seq_p{p}")) {
            for threads in THREADS {
                if let Some(par) = ns_of(&format!("par_t{threads}_p{p}")) {
                    let s = seq / par;
                    section.derived(format!("par_speedup_t{threads}_p{p}"), s);
                    println!("[par_sim] P={p} threads={threads}: {s:.2}x vs sequential");
                }
            }
        }
    }
    match baseline::update(&baseline::default_path(), section) {
        Ok(path) => println!("[par_sim] baseline written to {}", path.display()),
        Err(e) => eprintln!("[par_sim] could not write baseline: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
