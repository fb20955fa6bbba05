//! Differential tests: the calendar-queue scheduler must be observationally
//! equivalent to the binary-heap reference.
//!
//! Two layers, both over randomized inputs (the vendored proptest stand-in
//! seeds each test deterministically, so failures are reproducible):
//!
//! 1. **Queue level** — arbitrary push/pop interleavings with adversarial
//!    time patterns (uniform, bursty ties, exponential, far-future
//!    outliers, tied lattice holds) must pop in the identical `(time, seq)`
//!    order from both [`CalendarQueue`] and [`BinaryHeapQueue`].
//! 2. **Engine level** — full simulations under both schedulers must
//!    produce bit-identical reports (event counts, mean response, makespan,
//!    per-node cycles) for randomly drawn configurations across both stop
//!    conditions, fork-join fanout, multi-hop forwarding, and the
//!    protocol-processor variant; and whole reports must match, with the
//!    adaptive default as well, on the constant-time machines the
//!    `sim_perf` bench times, up to P = 1024.

use lopc_dist::ServiceTime;
use lopc_sim::{
    run_with_scheduler, BinaryHeapQueue, CalendarQueue, DestChooser, Engine, EventQueue, Keyed,
    Scheduler, SimConfig, SimReport, StopCondition, ThreadSpec,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug, PartialEq)]
struct Item {
    t: f64,
    seq: u64,
}
impl Keyed for Item {
    fn time(&self) -> f64 {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Draw the next event time for the given adversarial pattern.
fn next_time(pattern: usize, rng: &mut SmallRng, last_popped: f64) -> f64 {
    match pattern % 6 {
        // Uniform over a wide range (no relation to the current position).
        0 => rng.random::<f64>() * 1e5,
        // Bursty ties: a coarse lattice, many simultaneous events.
        1 => (rng.random::<f64>() * 40.0).floor() * 250.0,
        // Hold-model style: just after whatever popped last.
        2 => last_popped + rng.random::<f64>() * 100.0,
        // Mostly near-term with rare far-future outliers (overflow path).
        3 => {
            if rng.random::<f64>() < 0.05 {
                1e9 + rng.random::<f64>() * 1e9
            } else {
                rng.random::<f64>() * 1000.0
            }
        }
        // Tiny dense cluster: stresses the width estimator's tie handling.
        4 => 500.0 + (rng.random::<f64>() * 4.0).floor(),
        // Tied lattice hold: the engine's constant network latency, handler
        // and work times, where a delay that is a multiple of the wheel's
        // year lands in the bucket being drained.
        _ => last_popped + [25.0, 200.0, 512.0][(rng.random::<f64>() * 3.0) as usize],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random push/pop interleavings pop identically from both queues.
    #[test]
    fn queue_pop_order_matches_heap(
        seed in 0u64..1_000_000,
        ops in 10usize..2000,
        pattern in 0usize..6,
        pop_bias in 0usize..3,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut seq = 0u64;
        let mut last_popped = 0.0;
        for _ in 0..ops {
            // pop_bias skews the mix so runs drain, grow, and oscillate.
            let do_pop = rng.random::<f64>() < [0.3, 0.5, 0.7][pop_bias];
            if do_pop {
                let a = cal.pop().map(|i: Item| (i.t, i.seq));
                let b = heap.pop().map(|i: Item| (i.t, i.seq));
                prop_assert_eq!(a, b, "mid-run pop diverged (seed {})", seed);
                if let Some((t, _)) = a {
                    last_popped = t;
                }
            } else {
                let item = Item { t: next_time(pattern, &mut rng, last_popped), seq };
                seq += 1;
                cal.push(item);
                heap.push(item);
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Full drain must agree element-wise and come out sorted.
        let mut prev: Option<(f64, u64)> = None;
        loop {
            let a = cal.pop().map(|i: Item| (i.t, i.seq));
            let b = heap.pop().map(|i: Item| (i.t, i.seq));
            prop_assert_eq!(a, b, "drain diverged (seed {})", seed);
            match a {
                None => break,
                Some(k) => {
                    if let Some(p) = prev {
                        prop_assert!(p < k, "drain not sorted: {:?} then {:?}", p, k);
                    }
                    prev = Some(k);
                }
            }
        }
        prop_assert!(cal.is_empty() && heap.is_empty());
    }
}

/// Build a randomized-but-valid configuration from drawn knobs.
#[allow(clippy::too_many_arguments)] // mirrors the proptest draw list
fn drawn_config(
    p: usize,
    w: f64,
    so: f64,
    dist_kind: usize,
    fanout: u32,
    hops: u32,
    pp: bool,
    horizon_mode: bool,
    seed: u64,
) -> SimConfig {
    let service = |mean: f64| match dist_kind % 3 {
        0 => ServiceTime::constant(mean),
        1 => ServiceTime::exponential(mean),
        _ => ServiceTime::with_cv2(mean, 2.0),
    };
    SimConfig {
        p,
        net_latency: 25.0,
        request_handler: service(so),
        reply_handler: service(so),
        threads: vec![
            ThreadSpec {
                work: Some(service(w.max(1.0))),
                dest: DestChooser::UniformOther,
                hops,
                fanout,
            };
            p
        ],
        protocol_processor: pp,
        latency_dist: None,
        stop: if horizon_mode {
            StopCondition::Horizon {
                warmup: 2_000.0,
                end: 20_000.0,
            }
        } else {
            StopCondition::CyclesPerThread { n: 25 }
        },
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full simulations are bit-identical under both schedulers.
    #[test]
    fn engine_reports_identical_across_schedulers(
        p in 2usize..33,
        w in 0.0..2000.0f64,
        so in 1.0..400.0f64,
        dist_kind in 0usize..3,
        fanout in 1u32..4,
        hops in 1u32..3,
        pp_and_mode in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let cfg = drawn_config(
            p, w, so, dist_kind, fanout, hops,
            pp_and_mode & 1 == 1,
            pp_and_mode & 2 == 2,
            seed,
        );
        let cal = run_with_scheduler(&cfg, Scheduler::Calendar).unwrap();
        let heap = run_with_scheduler(&cfg, Scheduler::BinaryHeap).unwrap();
        prop_assert_eq!(cal.events, heap.events, "event counts diverged");
        prop_assert_eq!(cal.makespan, heap.makespan, "makespan diverged");
        prop_assert_eq!(
            cal.aggregate.mean_r,
            heap.aggregate.mean_r,
            "mean R diverged (not even by one ULP)"
        );
        prop_assert_eq!(cal.aggregate.total_cycles, heap.aggregate.total_cycles);
        prop_assert_eq!(cal.aggregate.throughput, heap.aggregate.throughput);
        for (a, b) in cal.nodes.iter().zip(&heap.nodes) {
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(a.requests_served, b.requests_served);
            prop_assert_eq!(a.mean_r, b.mean_r);
            prop_assert_eq!(a.qq, b.qq);
            prop_assert_eq!(a.u_compute, b.u_compute);
        }
    }
}

/// `sim_perf`'s `sim_full` machines as `(P, fanout)`: `P × fanout` events
/// are pending. P = 32 stays in the heap queue's sorted run, P = 64 (up to
/// 66 pending) crosses into its heap, and P = 1024 at fanout 4 starts
/// 4,096 tied events, the geometry where a delay equals the calendar
/// wheel's year.
const SIM_FULL: &[(usize, u32)] = &[(32, 1), (64, 1), (256, 2), (1024, 4)];

/// Homogeneous all-to-all machine with constant work, handlers and wires,
/// so every event time sits on a lattice and ties abound; `fanout` scales
/// the pending-event population. The same machine `sim_perf` times.
fn sim_full_config(p: usize, fanout: u32) -> SimConfig {
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

/// A direct sequential [`Engine`] run. `run_with_scheduler` is routed
/// through the parallel engine under `LOPC_TEST_THREADS`, so it cannot
/// serve as the reference.
fn sequential(cfg: &SimConfig, scheduler: Scheduler) -> SimReport {
    Engine::with_scheduler(cfg.clone(), scheduler)
        .unwrap()
        .run_to_completion()
}

/// `run` (the adaptive default), the calendar queue and the heap queue
/// produce the same whole report, every float bit for bit. The default is
/// the heap queue up to `ADAPTIVE_HEAP_MAX_PENDING` pending events (the
/// exponential P = 16 machine and `sim_full`'s P = 32) and the calendar
/// queue above, so the cases exercise both of its choices.
#[test]
fn default_scheduler_matches_both_explicit_schedulers() {
    let mut configs = vec![drawn_config(16, 500.0, 131.0, 1, 1, 1, false, true, 7)];
    configs.extend(
        SIM_FULL
            .iter()
            .map(|&(p, fanout)| sim_full_config(p, fanout)),
    );
    for cfg in &configs {
        let (p, fanout) = (cfg.p, cfg.threads[0].fanout);
        let cal = sequential(cfg, Scheduler::Calendar);
        let heap = sequential(cfg, Scheduler::BinaryHeap);
        // `assert!` rather than `assert_eq!`: a P = 1024 report's Debug
        // dump would bury the message.
        assert!(cal == heap, "schedulers diverged at P={p} fanout={fanout}");
        let default = lopc_sim::run(cfg).unwrap();
        assert!(
            default == cal,
            "the default scheduler diverged at P={p} fanout={fanout}"
        );
    }
}
