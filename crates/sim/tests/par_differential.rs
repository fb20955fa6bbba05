//! Differential equivalence: the conservative parallel engine must be
//! **bit-identical** to the sequential engine — same [`SimReport`] down to
//! the last ULP of every statistic, same per-cycle trace — for every
//! partition (LP count), every worker count, and both pending-event
//! schedulers.
//!
//! This is the proof that LP partitioning, global-window synchronization,
//! per-node counter-split RNG streams, and partition-independent event keys
//! compose into an engine whose *outputs* carry no trace of *how* they were
//! computed (DESIGN.md §13). The suite follows the PR-2 differential
//! discipline: randomized-but-valid configurations drawn by the vendored
//! proptest stand-in (deterministic seeding → reproducible failures), with
//! `assert_eq!` on whole reports rather than tolerance bands.
//!
//! Coverage axes per drawn case:
//! - topology: homogeneous all-to-all, client-server (dedicated server
//!   nodes), and a fixed ring — the partition boundaries cut each of these
//!   differently;
//! - wire latency: constant, sampled with a positive floor (uniform), and
//!   sampled with a zero floor (exponential — exercises the sequential
//!   fallback for zero lookahead);
//! - LP counts {1, 2, 4, 8} × worker counts {1, 2, 4} × both schedulers;
//! - both stop conditions, fork-join fanout, multi-hop forwarding, the
//!   protocol-processor variant;
//! - the environment knobs: seeds are shifted by `LOPC_TEST_SEED_OFFSET`
//!   (via [`lopc_sim::validate::test_seed`]), so the CI matrix proves the
//!   equivalence is seed-independent, not tuned.
//!
//! A deterministic grid adds a lattice schedule (constant `W`, `So` and
//! `St`) whose window edges all land on tied events, and the same lattice
//! runs at the `par_sim` bench's sizes, P = 4096 and 65,536.

use lopc_dist::ServiceTime;
use lopc_sim::validate::test_seed;
use lopc_sim::{
    run_par, DestChooser, Engine, ParOptions, Scheduler, SimConfig, SimReport, StopCondition,
    ThreadSpec,
};
use proptest::prelude::*;

/// The sequential reference run: a direct [`Engine`] (never routed through
/// `LOPC_TEST_THREADS`, which retargets the convenience entry points to the
/// parallel engine — the reference must stay genuinely sequential).
fn sequential(cfg: &SimConfig, scheduler: Scheduler) -> SimReport {
    Engine::with_scheduler(cfg.clone(), scheduler)
        .unwrap()
        .with_cycle_trace()
        .run_to_completion()
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
    pp_and_mode: usize,
    topology: usize,
    latency_kind: usize,
    seed: u64,
) -> SimConfig {
    let service = |mean: f64| match dist_kind % 3 {
        0 => ServiceTime::constant(mean),
        1 => ServiceTime::exponential(mean),
        _ => ServiceTime::with_cv2(mean, 2.0),
    };
    let worker = |dest: DestChooser| ThreadSpec {
        work: Some(service(w.max(1.0))),
        dest,
        hops,
        fanout,
    };
    let threads: Vec<ThreadSpec> = match topology % 3 {
        // Homogeneous all-to-all.
        0 => vec![worker(DestChooser::UniformOther); p],
        // Client-server: the first quarter (at least one node) serves, the
        // rest direct every request at the servers. Server nodes carry no
        // initial events, so their LPs fill purely through the channels.
        1 => {
            let servers = (p / 4).max(1).min(p - 1);
            let pool: Vec<usize> = (0..servers).collect();
            let mut v = vec![ThreadSpec::server(); servers];
            v.resize(p, worker(DestChooser::UniformAmong(pool)));
            v
        }
        // Ring: node k always requests from k+1 — every adjacent partition
        // boundary is a hot channel.
        _ => (0..p)
            .map(|k| worker(DestChooser::Fixed((k + 1) % p)))
            .collect(),
    };
    SimConfig {
        p,
        net_latency: 25.0,
        request_handler: service(so),
        reply_handler: service(so),
        threads,
        protocol_processor: pp_and_mode & 1 == 1,
        latency_dist: match latency_kind % 3 {
            0 => None,
            // Positive floor: parallel path with sampled wires.
            1 => Some(ServiceTime::uniform(15.0, 35.0)),
            // Zero floor: zero lookahead, sequential-fallback path.
            _ => Some(ServiceTime::exponential(25.0)),
        },
        stop: if pp_and_mode & 2 == 2 {
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

    /// The tentpole assertion: for random configurations, partitions, and
    /// worker pools, the parallel report — every node summary, every pooled
    /// statistic, the event count, the makespan, the full cycle trace — is
    /// the sequential report, bit for bit.
    #[test]
    fn par_reports_identical_to_sequential(
        p in 2usize..25,
        w in 0.0..2000.0f64,
        so in 1.0..400.0f64,
        dist_kind in 0usize..3,
        fanout in 1u32..4,
        hops in 1u32..3,
        pp_and_mode in 0usize..4,
        topology in 0usize..3,
        latency_kind in 0usize..3,
        lps_pick in 0usize..4,
        threads_pick in 0usize..3,
        scheduler_pick in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let cfg = drawn_config(
            p, w, so, dist_kind, fanout, hops, pp_and_mode,
            topology, latency_kind, test_seed(seed),
        );
        let scheduler = [Scheduler::Calendar, Scheduler::BinaryHeap][scheduler_pick];
        let reference = sequential(&cfg, scheduler);
        let opts = ParOptions {
            lps: [1, 2, 4, 8][lps_pick],
            threads: [1, 2, 4][threads_pick],
            scheduler: Some(scheduler),
            trace: true,
        };
        let par = run_par(&cfg, &opts).unwrap();
        prop_assert_eq!(
            par, reference,
            "parallel/sequential divergence: lps {} threads {} scheduler {:?}",
            opts.lps, opts.threads, scheduler
        );
    }
}

/// The deterministic grid: fixed configurations, every combination of
/// lps × threads × scheduler, each equal to its sequential reference.
///
/// Besides an exponential fork-join configuration, the grid runs a lattice:
/// constant `W` = 500, `So` = 100 and `St` = 25 put every event time on a
/// multiple of 25, so every window edge `M + L` lands on tied events, under
/// both stop conditions. An LP that also took the events at the edge
/// would run ahead of a peer's message arriving there.
#[test]
fn full_grid_on_fixed_config_matches() {
    let lattice = |mode| drawn_config(10, 500.0, 100.0, 0, 1, 1, mode, 0, 0, test_seed(97));
    let configs = [
        drawn_config(10, 500.0, 131.0, 1, 2, 2, 2, 0, 0, test_seed(97)),
        lattice(0),
        lattice(2),
    ];
    for (c, cfg) in configs.iter().enumerate() {
        for scheduler in [Scheduler::Calendar, Scheduler::BinaryHeap] {
            let reference = sequential(cfg, scheduler);
            for lps in [1, 2, 4, 8] {
                for threads in [1, 2, 4] {
                    let opts = ParOptions {
                        lps,
                        threads,
                        scheduler: Some(scheduler),
                        trace: true,
                    };
                    assert_eq!(
                        run_par(cfg, &opts).unwrap(),
                        reference,
                        "config {c} lps {lps} threads {threads} scheduler {scheduler:?}"
                    );
                }
            }
        }
    }
}

/// `par_sim`'s machines at its sizes: an all-to-all lattice (constant
/// `W` = 512, `So` = 200 and `St` = 25) at P = 4096 for 4 cycles, whose
/// window edges land on tied events, and at P = 65,536 for 2, each on
/// 4 LPs at 1, 2 and 4 threads under the calendar queue.
#[test]
fn bench_sized_lattice_matches_sequential() {
    for (p, cycles) in [(4096, 4), (65536, 2)] {
        let cfg = SimConfig {
            p,
            net_latency: 25.0,
            request_handler: ServiceTime::constant(200.0),
            reply_handler: ServiceTime::constant(200.0),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(512.0)); p],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::CyclesPerThread { n: cycles },
            seed: test_seed(42),
        };
        let reference = sequential(&cfg, Scheduler::Calendar);
        for threads in [1, 2, 4] {
            let opts = ParOptions {
                lps: 4,
                threads,
                scheduler: Some(Scheduler::Calendar),
                trace: true,
            };
            // `assert!` rather than `assert_eq!`: a report's Debug dump at
            // this size would bury the message.
            assert!(
                run_par(&cfg, &opts).unwrap() == reference,
                "parallel run diverged at P={p} threads={threads}"
            );
        }
    }
}

/// Per-node RNG streams are split by node id, not by LP: the drawn stream
/// for node k is identical whether k shares a core with all, some, or none
/// of the other nodes. (If streams were split per LP, every lps value would
/// produce a different — internally consistent — simulation, and this test
/// plus the proptest above would fail.)
#[test]
fn rng_streams_are_partition_independent() {
    let cfg = drawn_config(9, 800.0, 90.0, 1, 1, 1, 0, 2, 1, test_seed(31));
    let reference = sequential(&cfg, Scheduler::Calendar);
    // 3 LPs of 3 nodes vs 9 LPs of 1 node: maximally different groupings.
    for lps in [3, 9] {
        let opts = ParOptions {
            lps,
            threads: 2,
            scheduler: Some(Scheduler::Calendar),
            trace: true,
        };
        assert_eq!(run_par(&cfg, &opts).unwrap(), reference, "lps {lps}");
    }
}

/// The convenience entry points honour `LOPC_TEST_THREADS` (the CI matrix
/// sets it suite-wide); whatever the environment says, their reports equal
/// the direct sequential engine's.
#[test]
fn env_threads_routing_stays_bit_identical() {
    let cfg = drawn_config(8, 600.0, 120.0, 2, 1, 1, 3, 1, 0, test_seed(55));
    let via_env = lopc_sim::run_traced(&cfg).unwrap();
    let reference = sequential(
        &cfg,
        lopc_sim::validate::env_scheduler().unwrap_or_default(),
    );
    assert_eq!(via_env, reference);
}
