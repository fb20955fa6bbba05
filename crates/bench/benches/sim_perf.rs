//! Simulator performance bench: event throughput of the discrete-event
//! engine under both pending-event schedulers (calendar queue vs binary
//! heap), the raw scheduler hold-model microbenchmark, and the work-stealing
//! replication path.
//!
//! That both schedulers simulate the `sim_full` machines identically, whole
//! reports bit for bit, is the test
//! `default_scheduler_matches_both_explicit_schedulers` in
//! `crates/sim/tests/differential.rs`; this bench only times them.
//!
//! Results are persisted as the `sim_perf` section of `BENCH_sim.json` at
//! the repository root (format documented in the README) so every run
//! extends the perf baseline that later PRs compare against.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lopc_bench::baseline::{self, Section};
use lopc_dist::{Distribution, ServiceTime};
use lopc_sim::{
    run_replications, run_with_scheduler, BinaryHeapQueue, CalendarQueue, DestChooser, EventQueue,
    Keyed, Scheduler, SimConfig, StopCondition, ThreadSpec,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// `sim_full` machines as `(P, fanout)`: `P × fanout` events are pending.
const SIM_FULL: &[(usize, u32)] = &[(32, 1), (64, 1), (256, 2), (1024, 4)];
/// `queue_hold` steady-state populations.
const HOLD_N: &[usize] = &[32, 64, 1024, 16384, 131072, 1048576];

/// Homogeneous all-to-all machine; `fanout` scales the number of in-flight
/// messages (and therefore pending events) per node.
fn sim_cfg(p: usize, fanout: u32) -> SimConfig {
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
                fanout,
            };
            p
        ],
        protocol_processor: false,
        latency_dist: None,
        stop: StopCondition::CyclesPerThread { n: 24 },
        seed: 42,
    }
}

/// One hold-model item; the scheduler microbench's event stand-in. The
/// payload pads the item to the size of the engine's internal event record
/// (56 bytes: time, sequence, node and event kind) so scheduler data
/// movement is modelled realistically: both queues move whole items, not
/// just keys — the heap queue's run shifts and its heap sifts `(key, item)`
/// pairs, and the calendar queue sorts its bags in place.
#[derive(Clone, Copy)]
struct HoldItem {
    t: f64,
    seq: u64,
    _payload: [u64; 5],
}
impl HoldItem {
    fn new(t: f64, seq: u64) -> Self {
        HoldItem {
            t,
            seq,
            _payload: [0; 5],
        }
    }
}
impl Keyed for HoldItem {
    fn time(&self) -> f64 {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Classic calendar-queue evaluation workload (Brown 1988): keep the queue
/// at a steady population `n`; each operation pops the earliest item and
/// re-schedules it an exponential hold time later.
fn hold_ops<Q: EventQueue<HoldItem>>(
    q: &mut Q,
    seq: &mut u64,
    rng: &mut SmallRng,
    hold: &ServiceTime,
    ops: usize,
) -> f64 {
    let mut last = 0.0;
    for _ in 0..ops {
        let it = q.pop().expect("steady-state queue never empties");
        last = it.t;
        *seq += 1;
        q.push(HoldItem::new(it.t + hold.sample(rng), *seq));
    }
    last
}

fn prefill<Q: EventQueue<HoldItem>>(q: &mut Q, n: usize, rng: &mut SmallRng, hold: &ServiceTime) {
    for seq in 0..n as u64 {
        q.push(HoldItem::new(hold.sample(rng), seq));
    }
}

fn bench(c: &mut Criterion) {
    // -- End-to-end engine throughput, both schedulers, growing P ----------
    // P = 32 and 64 hold about 32 and 64 pending events, the two sides of
    // `ADAPTIVE_HEAP_MAX_PENDING` (P = 64 peaks at 66, past the heap
    // queue's run bound).
    let mut g = c.benchmark_group("sim_full");
    for &(p, fanout) in SIM_FULL {
        let cfg = sim_cfg(p, fanout);
        let report = run_with_scheduler(&cfg, Scheduler::Calendar).unwrap();
        println!(
            "[sim_perf] P={p} fanout={fanout}: {} events/run, mean R = {:.1}",
            report.events, report.aggregate.mean_r
        );
        g.throughput(Throughput::Elements(report.events));
        g.sample_size(10);
        g.bench_function(format!("calendar_p{p}"), |b| {
            b.iter(|| {
                black_box(
                    run_with_scheduler(&cfg, Scheduler::Calendar)
                        .unwrap()
                        .events,
                )
            })
        });
        g.bench_function(format!("heap_p{p}"), |b| {
            b.iter(|| {
                black_box(
                    run_with_scheduler(&cfg, Scheduler::BinaryHeap)
                        .unwrap()
                        .events,
                )
            })
        });
    }
    g.finish();

    // -- Raw scheduler throughput (hold model) -----------------------------
    // Steady-state population n models the pending-event set: n = 32 and 64
    // are the small machines the engine runs the heap queue on (its sorted
    // run), the rest a large-P sweep, where the heap pays O(log n) per op and
    // the calendar queue stays O(1) amortized.
    let mut g = c.benchmark_group("queue_hold");
    const HOLD_OPS: usize = 4096;
    let hold = ServiceTime::exponential(1000.0);
    for &n in HOLD_N {
        g.throughput(Throughput::Elements(HOLD_OPS as u64));
        g.sample_size(10);
        g.bench_function(format!("calendar_n{n}"), |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            let mut q = CalendarQueue::new();
            prefill(&mut q, n, &mut rng, &hold);
            let mut seq = n as u64;
            b.iter(|| black_box(hold_ops(&mut q, &mut seq, &mut rng, &hold, HOLD_OPS)))
        });
        g.bench_function(format!("heap_n{n}"), |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            let mut q = BinaryHeapQueue::new();
            prefill(&mut q, n, &mut rng, &hold);
            let mut seq = n as u64;
            b.iter(|| black_box(hold_ops(&mut q, &mut seq, &mut rng, &hold, HOLD_OPS)))
        });
    }
    g.finish();

    // -- Work-stealing replication path ------------------------------------
    let mut g = c.benchmark_group("replications");
    g.sample_size(10);
    let cfg = sim_cfg(32, 1);
    g.bench_function("worksteal_8x_p32", |b| {
        b.iter(|| black_box(run_replications(&cfg, 8).unwrap().reports.len()))
    });
    g.finish();

    // -- Persist the baseline ----------------------------------------------
    let records = criterion::take_results();
    let mut section = Section::new("sim_perf");
    let ns_of = |group: &str, id: &str| {
        records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| r.ns_per_iter)
    };
    for r in &records {
        section.entry(
            format!("{}/{}", r.group, r.id),
            r.ns_per_iter,
            r.elements_per_iter,
        );
    }
    for &(p, _) in SIM_FULL {
        if let (Some(heap), Some(cal)) = (
            ns_of("sim_full", &format!("heap_p{p}")),
            ns_of("sim_full", &format!("calendar_p{p}")),
        ) {
            let s = heap / cal;
            section.derived(format!("sim_speedup_calendar_vs_heap_p{p}"), s);
            println!("[sim_perf] end-to-end calendar vs heap at P={p}: {s:.2}x");
        }
    }
    for &n in HOLD_N {
        if let (Some(heap), Some(cal)) = (
            ns_of("queue_hold", &format!("heap_n{n}")),
            ns_of("queue_hold", &format!("calendar_n{n}")),
        ) {
            let s = heap / cal;
            section.derived(format!("queue_speedup_calendar_vs_heap_n{n}"), s);
            println!("[sim_perf] scheduler event throughput (hold, n={n}): calendar {s:.2}x heap");
        }
    }
    match baseline::update(&baseline::default_path(), section) {
        Ok(path) => println!("[sim_perf] baseline written to {}", path.display()),
        Err(e) => eprintln!("[sim_perf] could not write baseline: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
