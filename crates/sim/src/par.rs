//! Conservative parallel discrete-event simulation (the `lopc_sim::par`
//! engine).
//!
//! The node set is partitioned into contiguous blocks, one per **logical
//! process** (LP); each LP is a private `Core` — its own nodes with their
//! CPU-completion slots (a CPU event never leaves its LP), its own queue of
//! messages in flight to them, its own clock. LPs synchronize in rounds over one global safe window
//! (Nicol's YAWNS protocol):
//!
//! 1. **Lookahead.** Every cross-node event is a message arrival paying at
//!    least [`lookahead`] time units `L` of wire delay (`net_latency`, or
//!    the infimum of the latency distribution).
//! 2. **Post.** At the end of a round every LP posts the earliest of its
//!    next pending event and the events it sent to other LPs that round.
//!    `M` is the minimum over the posted values.
//! 3. **Window.** In the next round every LP first takes delivery of the
//!    messages sent to it, merged into its queue in one batch, then
//!    processes its events strictly below `M + L`, and hands its output for
//!    each other LP to that LP's channel.
//!
//! The window is safe: an event not yet delivered was created by an event
//! at a time `>= M` and pays at least `L` on the wire, so nothing can
//! arrive below `M + L`. That holds only because the posted values count
//! the events in flight; without them `M` could skip a message on its way.
//! Each LP also processes every event below `M + L`, so `M` grows by at
//! least `L` per round and the protocol cannot deadlock. Rounds repeat
//! until `M` passes the horizon (or is `+∞`, in makespan mode: every slot,
//! queue and channel is empty). Posted values and channels are
//! double-buffered by round parity, so one barrier per round separates a
//! round's writes from the next round's reads. A worker that panics
//! releases the barrier as it unwinds, so the run fails instead of
//! hanging. A zero-lookahead configuration (a latency distribution that can
//! sample 0) falls back to the sequential engine.
//!
//! **Determinism.** Parallel runs are *bit-identical* to sequential ones —
//! same [`SimReport`], same cycle trace — for any LP count and any worker
//! count, because event outcomes never depend on the partition: every node
//! draws from its own counter-split RNG stream, event tie-breaks are keyed
//! by `(creating node, per-node counter)`, and reports are assembled in
//! node order (DESIGN.md §13). `tests/par_differential.rs` proves this
//! across random topologies × LP counts × thread counts × schedulers.
//!
//! # Example
//!
//! ```
//! use lopc_sim::{par, SimConfig, StopCondition, ThreadSpec};
//! use lopc_dist::ServiceTime;
//!
//! let cfg = SimConfig {
//!     p: 32,
//!     net_latency: 25.0,
//!     request_handler: ServiceTime::exponential(100.0),
//!     reply_handler: ServiceTime::exponential(100.0),
//!     threads: vec![ThreadSpec::worker(ServiceTime::exponential(500.0)); 32],
//!     protocol_processor: false,
//!     latency_dist: None,
//!     stop: StopCondition::CyclesPerThread { n: 10 },
//!     seed: 42,
//! };
//! let opts = par::ParOptions {
//!     lps: 4,
//!     threads: 2,
//!     ..Default::default()
//! };
//! let parallel = par::run_par(&cfg, &opts).unwrap();
//! let sequential = lopc_sim::run(&cfg).unwrap();
//! assert_eq!(parallel, sequential); // bit-identical, not approximately
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::config::{ConfigError, SimConfig, StopCondition, Time};
use crate::engine::{finalize_report, Core, Engine, Ev};
use crate::sched::Scheduler;
use crate::stats::SimReport;
use lopc_dist::Distribution;

/// The conservative lookahead of a configuration: the minimum time any
/// cross-node interaction takes. Every inter-node event is a message
/// arrival delayed by the wire, so this is `net_latency` for constant
/// latency, or the infimum of the latency distribution
/// ([`Distribution::min_value`]) when wire times are sampled.
///
/// A zero lookahead (e.g. exponential wire times) gives no window in which
/// LPs could run apart, and [`run_par`] falls back to the sequential
/// engine.
pub fn lookahead(cfg: &SimConfig) -> f64 {
    match &cfg.latency_dist {
        None => cfg.net_latency,
        Some(d) => d.min_value(),
    }
}

/// Options for [`run_par`]. `Default` (all zeros / `None`) sizes both the
/// LP count and the worker pool from the machine's available parallelism.
#[derive(Clone, Debug, Default)]
pub struct ParOptions {
    /// Number of logical processes to partition the nodes into (contiguous
    /// blocks of `p / lps` nodes). `0` picks the worker count (at least 2);
    /// values above `p` are clamped to `p`. `1` runs sequentially.
    pub lps: usize,
    /// OS worker threads driving the LPs (each owns a fixed contiguous
    /// block of LPs for the whole run). `0` picks the available
    /// parallelism; clamped to the LP count.
    pub threads: usize,
    /// The [`Scheduler`] force for every LP's queue. `None` resolves like
    /// the sequential engine: the `LOPC_TEST_SCHEDULER` force if set, else
    /// the default, under which each LP's queue adapts to its own
    /// population.
    pub scheduler: Option<Scheduler>,
    /// Record the pooled per-cycle response-time trace
    /// ([`SimReport::cycle_trace`]), exactly as
    /// [`Engine::with_cycle_trace`] would.
    pub trace: bool,
}

/// How a parallel run synchronized. Both counts depend only on the
/// simulation, never on thread timing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct RoundStats {
    /// Rounds the run took (one barrier wait each).
    pub(crate) rounds: usize,
    /// Sum over rounds of the busiest LP's processed-event count.
    pub(crate) busiest_events: u64,
}

#[inline]
fn load_time(a: &AtomicU64) -> Time {
    // Barriers order every store before every load; Relaxed suffices.
    f64::from_bits(a.load(Ordering::Relaxed))
}

/// The round barrier, which a failing worker releases.
///
/// `std::sync::Barrier` does not poison: a worker that panics never
/// arrives, and the others would wait for it forever. Here each worker
/// holds a [`FailOnUnwind`] guard, which marks the barrier failed as its
/// thread unwinds; every waiter then returns `false` and its worker stops,
/// so `thread::scope` can return and the run re-raises the panic.
struct RoundBarrier {
    workers: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    /// Workers waiting in the current round.
    arrived: usize,
    /// Rounds released so far.
    round: u64,
    failed: bool,
}

impl RoundBarrier {
    fn new(workers: usize) -> Self {
        RoundBarrier {
            workers,
            state: Mutex::new(BarrierState {
                arrived: 0,
                round: 0,
                failed: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Block until every worker has arrived, and return `true`; or return
    /// `false` once a worker has failed. The lock is never held across
    /// anything that can panic, so a poisoned state is still consistent.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.failed {
            return false;
        }
        state.arrived += 1;
        if state.arrived == self.workers {
            state.arrived = 0;
            state.round += 1;
            self.cvar.notify_all();
            return true;
        }
        let round = state.round;
        let state = self
            .cvar
            .wait_while(state, |s| s.round == round && !s.failed)
            .unwrap_or_else(PoisonError::into_inner);
        state.round != round
    }

    fn fail(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.failed = true;
        self.cvar.notify_all();
    }
}

/// Marks its barrier failed when dropped by a panicking thread.
struct FailOnUnwind<'a>(&'a RoundBarrier);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test fault hook: `Some((lp, round))` makes the worker that runs LP
    /// `lp` panic in that round, after taking delivery and before
    /// processing. Read by `run_rounds` on the calling thread, so parallel
    /// tests do not see each other's faults.
    static FAULT: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

/// Run one simulation on the conservative parallel engine.
///
/// Produces a report bit-identical to
/// `Engine::new(cfg)?.run_to_completion()` (plus the cycle trace when
/// `opts.trace` is set) for **any** `lps`/`threads` combination — the
/// partition and the worker pool are pure performance knobs. Falls back to
/// the sequential engine when the partition degenerates (`lps <= 1` after
/// clamping) or the configuration has zero lookahead.
pub fn run_par(cfg: &SimConfig, opts: &ParOptions) -> Result<SimReport, ConfigError> {
    Ok(run_rounds(cfg, opts)?.0)
}

/// [`run_par`], also returning its [`RoundStats`] (all zero when it fell
/// back to the sequential engine).
pub(crate) fn run_rounds(
    cfg: &SimConfig,
    opts: &ParOptions,
) -> Result<(SimReport, RoundStats), ConfigError> {
    cfg.validate()?;
    let la = lookahead(cfg);
    let threads_req = if opts.threads == 0 {
        lopc_solver::steal::worker_count(cfg.p)
    } else {
        opts.threads
    };
    let n = if opts.lps == 0 {
        threads_req.max(2)
    } else {
        opts.lps
    }
    .min(cfg.p);
    let threads = threads_req.clamp(1, n);
    let scheduler = opts
        .scheduler
        .or_else(crate::validate::env_scheduler)
        .unwrap_or_default();

    if n <= 1 || la <= 0.0 {
        // The degenerate partition: the sequential engine.
        let engine = Engine::with_scheduler(cfg.clone(), scheduler)?;
        let engine = if opts.trace {
            engine.with_cycle_trace()
        } else {
            engine
        };
        return Ok((engine.run_to_completion(), RoundStats::default()));
    }

    let done = |m: Time| match cfg.stop {
        StopCondition::Horizon { end, .. } => m > end,
        StopCondition::CyclesPerThread { .. } => m == f64::INFINITY,
    };

    let shared = Arc::new(cfg.clone());
    let mut cores: Vec<Core> = (0..n)
        .map(|lp| Core::new(shared.clone(), lp, n, scheduler, opts.trace))
        .collect();
    // Round r reads what round r − 1 posted and sent from slot (r + 1) % 2
    // and writes its own to slot r % 2, so no slot is read and written in
    // the same round; slot 1 starts with each LP's first event time, as if
    // posted by round −1. Channels are indexed `src · n + dst`.
    let posted: [Vec<AtomicU64>; 2] = [0, 1].map(|_| (0..n).map(|_| AtomicU64::new(0)).collect());
    for (slot, core) in posted[1].iter().zip(&mut cores) {
        slot.store(core.next_time().to_bits(), Ordering::Relaxed);
    }
    let channels: [Vec<Mutex<Vec<Ev>>>; 2] =
        [0, 1].map(|_| (0..n * n).map(|_| Mutex::new(Vec::new())).collect());
    let barrier = RoundBarrier::new(threads);
    #[cfg(test)]
    let fault = FAULT.get();

    // Per LP, in LP order: the events it processed in each round.
    let loads: Vec<Vec<u64>> = std::thread::scope(|s| {
        let (posted, channels, barrier, done) = (&posted, &channels, &barrier, &done);
        let mut rest = cores.as_mut_slice();
        let mut workers = Vec::with_capacity(threads);
        for t in 0..threads {
            // Worker t owns LPs [t·n/threads, (t+1)·n/threads).
            let first = t * n / threads;
            let (mine, tail) = rest.split_at_mut((t + 1) * n / threads - first);
            rest = tail;
            workers.push(s.spawn(move || {
                let _guard = FailOnUnwind(barrier);
                let mut loads = vec![Vec::new(); mine.len()];
                let mut inbox = Vec::new();
                for round in 0usize.. {
                    let (cur, prev) = (round % 2, (round + 1) % 2);
                    // Every worker reads the same posted values, so all
                    // agree on `m` and stop in the same round.
                    let m = posted[prev]
                        .iter()
                        .map(load_time)
                        .fold(f64::INFINITY, f64::min);
                    if done(m) {
                        break;
                    }
                    for ((lp, core), load) in (first..).zip(mine.iter_mut()).zip(&mut loads) {
                        for src in (0..n).filter(|&src| src != lp) {
                            inbox.append(
                                &mut channels[prev][src * n + lp]
                                    .lock()
                                    .expect("a simulation worker panicked"),
                            );
                        }
                        core.receive(&mut inbox);
                        #[cfg(test)]
                        if fault == Some((lp, round)) {
                            panic!("injected fault in LP {lp}, round {round}");
                        }
                        let before = core.events();
                        core.process_until(m + la);
                        load.push(core.events() - before);
                        // The receiver drained this slot last round, so the
                        // outbox swaps with an empty Vec: no event is copied.
                        let sent = core.flush_outboxes(|dst, out| {
                            let mut outbound = channels[cur][lp * n + dst]
                                .lock()
                                .expect("a simulation worker panicked");
                            debug_assert!(outbound.is_empty());
                            std::mem::swap(&mut *outbound, out);
                        });
                        posted[cur][lp]
                            .store(core.next_time().min(sent).to_bits(), Ordering::Relaxed);
                    }
                    if !barrier.wait() {
                        break; // another worker panicked: let the scope end
                    }
                }
                loads
            }));
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a simulation worker panicked"))
            .collect()
    });

    let rounds = loads[0].len();
    let stats = RoundStats {
        rounds,
        busiest_events: (0..rounds)
            .map(|r| loads.iter().map(|l| l[r]).max().unwrap_or(0))
            .sum(),
    };
    Ok((finalize_report(cores), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StopCondition, ThreadSpec};
    use lopc_dist::ServiceTime;

    fn base(p: usize, stop: StopCondition) -> SimConfig {
        SimConfig {
            p,
            net_latency: 25.0,
            request_handler: ServiceTime::exponential(100.0),
            reply_handler: ServiceTime::exponential(100.0),
            threads: vec![ThreadSpec::worker(ServiceTime::exponential(500.0)); p],
            protocol_processor: false,
            latency_dist: None,
            stop,
            seed: 4242,
        }
    }

    fn seq(cfg: &SimConfig, trace: bool) -> SimReport {
        let e = Engine::new(cfg.clone()).unwrap();
        let e = if trace { e.with_cycle_trace() } else { e };
        e.run_to_completion()
    }

    #[test]
    fn lookahead_contract_per_latency_family() {
        let mut cfg = base(4, StopCondition::CyclesPerThread { n: 1 });
        assert_eq!(lookahead(&cfg), 25.0, "constant wire = net_latency");
        cfg.latency_dist = Some(ServiceTime::uniform(15.0, 35.0));
        assert_eq!(lookahead(&cfg), 15.0, "uniform wire = lower endpoint");
        cfg.latency_dist = Some(ServiceTime::exponential(25.0));
        assert_eq!(lookahead(&cfg), 0.0, "exponential wire has no lookahead");
    }

    /// The headline determinism guarantee, unit-test sized: repartitioning
    /// the same configuration across 1..=8 LPs (including a count that does
    /// not divide `p`) changes nothing — not one bit of the report.
    #[test]
    fn repartitioning_is_invisible() {
        for stop in [
            StopCondition::CyclesPerThread { n: 20 },
            StopCondition::Horizon {
                warmup: 2_000.0,
                end: 20_000.0,
            },
        ] {
            let cfg = base(10, stop);
            let reference = seq(&cfg, true);
            for lps in [1, 2, 3, 4, 8] {
                let opts = ParOptions {
                    lps,
                    threads: 2,
                    trace: true,
                    ..Default::default()
                };
                let par = run_par(&cfg, &opts).unwrap();
                assert_eq!(par, reference, "lps = {lps}, stop = {stop:?}");
            }
        }
    }

    /// Worker-pool size is a pure performance knob.
    #[test]
    fn thread_count_is_invisible() {
        let cfg = base(
            8,
            StopCondition::Horizon {
                warmup: 1_000.0,
                end: 15_000.0,
            },
        );
        let reference = seq(&cfg, false);
        for threads in [1, 2, 3, 4, 8] {
            let opts = ParOptions {
                lps: 4,
                threads,
                ..Default::default()
            };
            assert_eq!(
                run_par(&cfg, &opts).unwrap(),
                reference,
                "threads = {threads}"
            );
        }
    }

    /// Sampled wire times with a positive infimum keep a positive lookahead;
    /// the parallel path must still match bit-for-bit.
    #[test]
    fn sampled_latency_with_positive_floor_matches() {
        let mut cfg = base(6, StopCondition::CyclesPerThread { n: 15 });
        cfg.latency_dist = Some(ServiceTime::uniform(15.0, 35.0));
        let reference = seq(&cfg, false);
        let opts = ParOptions {
            lps: 3,
            threads: 2,
            ..Default::default()
        };
        assert_eq!(run_par(&cfg, &opts).unwrap(), reference);
    }

    /// Zero lookahead falls back to the sequential engine (trivially equal,
    /// but the path must exist and not deadlock in round logic).
    #[test]
    fn zero_lookahead_falls_back_to_sequential() {
        let mut cfg = base(6, StopCondition::CyclesPerThread { n: 10 });
        cfg.latency_dist = Some(ServiceTime::exponential(25.0));
        let reference = seq(&cfg, false);
        let opts = ParOptions {
            lps: 4,
            threads: 4,
            ..Default::default()
        };
        assert_eq!(run_par(&cfg, &opts).unwrap(), reference);
    }

    /// Tiny per-LP queues (one node per LP, a handful of events each) walk
    /// the calendar queue's low-occupancy edge paths; force Calendar on
    /// every LP and cross-check against both the heap-par and sequential
    /// runs. Constant service times make the schedule tie-heavy on top.
    #[test]
    fn per_lp_calendar_small_queues_match_heap_and_sequential() {
        let mut cfg = base(6, StopCondition::CyclesPerThread { n: 25 });
        cfg.request_handler = ServiceTime::constant(100.0);
        cfg.reply_handler = ServiceTime::constant(100.0);
        for t in &mut cfg.threads {
            t.work = Some(ServiceTime::constant(500.0));
            t.fanout = 3;
        }
        let reference = seq(&cfg, false);
        for scheduler in [Scheduler::Calendar, Scheduler::BinaryHeap] {
            let opts = ParOptions {
                lps: 6, // one node per LP
                threads: 2,
                scheduler: Some(scheduler),
                ..Default::default()
            };
            assert_eq!(
                run_par(&cfg, &opts).unwrap(),
                reference,
                "scheduler = {scheduler:?}"
            );
        }
    }

    /// Defaults: lps/threads resolve from the machine, clamped sanely, and
    /// oversubscription (more LPs than nodes, more threads than LPs) clamps
    /// instead of panicking.
    #[test]
    fn oversubscribed_options_clamp() {
        let cfg = base(4, StopCondition::CyclesPerThread { n: 5 });
        let reference = seq(&cfg, false);
        let opts = ParOptions {
            lps: 64,     // > p: clamped to 4
            threads: 64, // > lps: clamped
            ..Default::default()
        };
        assert_eq!(run_par(&cfg, &opts).unwrap(), reference);
        assert_eq!(
            run_par(&cfg, &ParOptions::default()).unwrap(),
            reference,
            "all-default options must also match"
        );
    }

    /// Client-server topologies put pure servers (no initial events) on
    /// some LPs: their queues start empty and fill only through inter-LP
    /// channels.
    #[test]
    fn server_only_lps_fill_through_channels() {
        let mut cfg = base(
            8,
            StopCondition::Horizon {
                warmup: 1_000.0,
                end: 12_000.0,
            },
        );
        cfg.threads[0] = ThreadSpec::server();
        cfg.threads[1] = ThreadSpec::server();
        for t in cfg.threads.iter_mut().skip(2) {
            t.dest = crate::routing::DestChooser::UniformAmong(vec![0, 1]);
        }
        let reference = seq(&cfg, true);
        // lps = 4 puts nodes {0,1} (both servers) alone on LP 0.
        let opts = ParOptions {
            lps: 4,
            threads: 3,
            trace: true,
            ..Default::default()
        };
        assert_eq!(run_par(&cfg, &opts).unwrap(), reference);
        assert!(reference.nodes[0].requests_served > 0);
    }

    /// A worker that panics in mid-round fails the run instead of hanging
    /// it: the other worker waits at the round barrier, which the failing
    /// one releases as it unwinds. The run goes on its own thread under a
    /// watchdog, so a hang fails the test within seconds.
    #[test]
    fn a_panicking_worker_fails_the_run() {
        let cfg = base(8, StopCondition::CyclesPerThread { n: 50 });
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            FAULT.set(Some((1, 3)));
            let opts = ParOptions {
                lps: 2,
                threads: 2,
                ..Default::default()
            };
            let run = std::panic::catch_unwind(|| run_par(&cfg, &opts));
            let _ = tx.send(run.is_err());
        });
        let failed = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("run_par hung after a worker panicked");
        assert!(failed, "the injected fault must fail the run");
    }

    /// The global window keeps both LPs busy on the lockstep schedule the
    /// paper validates on (`perfbench`'s big-run shape: constant `W` = 512,
    /// `So` = 200, `St` = 25). The busiest LP's events summed over rounds,
    /// over the mean LP's, read 1.12–1.19 across 40 seeds; a per-LP window
    /// (each LP running to its own inbound bound, capped at `M + 2L`) made
    /// the LPs take turns and read 1.14–1.59, above 1.25 on most seeds.
    #[test]
    fn global_window_balances_lockstep_lps() {
        let mut cfg = base(256, StopCondition::CyclesPerThread { n: 4 });
        cfg.request_handler = ServiceTime::constant(200.0);
        cfg.reply_handler = ServiceTime::constant(200.0);
        for t in &mut cfg.threads {
            t.work = Some(ServiceTime::constant(512.0));
        }
        let opts = ParOptions {
            lps: 2,
            threads: 2,
            ..Default::default()
        };
        let ratios: Vec<f64> = [42, 7, 0xabcdef, 1, 2, 3]
            .into_iter()
            .map(|seed| {
                cfg.seed = crate::validate::test_seed(seed);
                let (report, stats) = run_rounds(&cfg, &opts).unwrap();
                assert!(stats.rounds > 0, "two LPs run in rounds");
                stats.busiest_events as f64 * 2.0 / report.events as f64
            })
            .collect();
        assert!(
            ratios.iter().all(|&r| r <= 1.25),
            "busiest ÷ mean LP events per seed: {ratios:.3?}"
        );
    }
}
