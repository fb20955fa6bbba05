//! `sim_contention`: the simulator's two uses.
//!
//! * **Big run** — a P=4096 all-to-all machine (the `par_sim` shape), run
//!   alternately on the sequential engine (`run`) and the conservative
//!   parallel engine (`run_par` with default options). Every parallel
//!   report must equal the sequential one bit for bit.
//! * **Validation** — a P=32 `Hotspot` model-vs-simulator check through
//!   `Validation::run` (`run_until_precision` to ±3 %, the path `figures`
//!   takes), whose verdict must pass; plus single replications of the same
//!   configuration, each timed, as the light operation.

use std::time::{Duration, Instant};

use lopc_core::Machine;
use lopc_dist::ServiceTime;
use lopc_sim::{
    run as run_seq, run_par, BinaryHeapQueue, CalendarQueue, DestChooser, EventQueue, Keyed,
    ParOptions, Scheduler, SimConfig, SimReport, StopCondition, ThreadSpec, Validation,
};
use lopc_workloads::{Hotspot, Window};

use crate::common::{median, micros, nproc, quantile, repeated_setup, Rng, Sheet, Tracer};

const BIG_P: usize = 4096;
const BIG_CYCLES: u64 = 4;
const SMALL_P: usize = 32;
/// Model-vs-simulator equivalence margin for the hotspot verdict.
const MARGIN: f64 = 0.10;
const SETUPS: usize = 7;
/// Single replications per thread per round.
const REPS_PER_THREAD: usize = 3;
/// Replication rounds per mode for the tracing overhead.
const TRACED_ROUNDS: usize = 20;

/// Everything the workload runs, derived from the seed.
struct Inputs {
    big: SimConfig,
    hotspot: SimConfig,
    prediction: f64,
}

/// The configurations are fixed, so every seed costs the same; the seed
/// picks the simulations' random streams.
fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let big = SimConfig {
        p: BIG_P,
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
            BIG_P
        ],
        protocol_processor: false,
        latency_dist: None,
        stop: StopCondition::CyclesPerThread { n: BIG_CYCLES },
        seed: rng.next_u64(),
    };
    let machine = Machine::new(SMALL_P, 25.0, 150.0).with_c2(0.0);
    let wl = Hotspot::new(machine, 1600.0, 0.1).with_window(Window::quick());
    let prediction = wl.model().solve().expect("hotspot model solves").mean_r();
    Inputs {
        big,
        hotspot: wl.sim_config(rng.next_u64() >> 16),
        prediction,
    }
}

/// Thread-weighted mean response: the statistic the model predicts.
fn thread_mean(r: &SimReport) -> f64 {
    let rs: Vec<f64> = r
        .nodes
        .iter()
        .filter(|n| n.cycles > 0)
        .map(|n| n.mean_r)
        .collect();
    rs.iter().sum::<f64>() / rs.len() as f64
}

pub fn run(seed: u64, seconds: f64, trace: bool, sheet: &mut Sheet) {
    let epoch = Instant::now();
    // Set-up: configurations and the model prediction from the seed, then
    // one warm-up run on each engine.
    let (inp, setup_s) = repeated_setup(
        SETUPS,
        || {
            let inp = inputs(seed);
            let seq = run_seq(&inp.big).expect("warm-up run");
            let par = run_par(&inp.big, &ParOptions::default()).expect("warm-up run");
            assert!(seq == par, "run_par differs from run in warm-up");
            inp
        },
        drop,
    );
    sheet.set("setup_s", setup_s);
    let mut tracer = std::mem::replace(&mut sheet.tracer, Tracer::new(false, epoch));
    let mut off = Tracer::new(false, epoch);

    // Rounds of: one big run on each engine, a few single replications,
    // one validation to its verdict. Interleaving spreads every kind of
    // sample over the whole run.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut seq, mut par, mut reps, mut small_events) = (vec![], vec![], vec![], vec![]);
    let (mut val_s, mut val_reps) = (Vec::new(), Vec::new());
    let validation = Validation::equivalence(MARGIN);
    let mut events = 0u64;
    let mut i = 0u64;
    while i < 3 || Instant::now() < deadline {
        let (a, ta) = off.span("sim.run", i, None, || run_seq(&inp.big));
        let (b, tb) = off.span("sim.run_par", i, None, || {
            run_par(&inp.big, &ParOptions::default())
        });
        sheet.attempted += 2;
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {
                if i > 0 && a.events != events {
                    sheet.fail("big-run event count changed between identical runs");
                }
                events = a.events;
            }
            (Ok(_), Ok(_)) => sheet.fail("run_par report differs from run"),
            (a, b) => sheet.fail(format!("big run failed: {:?} / {:?}", a.err(), b.err())),
        }
        seq.push(ta.as_secs_f64());
        par.push(tb.as_secs_f64());

        let base = inp.hotspot.seed + 1_000_000 + reps.len() as u64;
        for (r, took) in replications(&inp.hotspot, base, &mut off) {
            sheet.attempted += 1;
            match r {
                Ok(events) => small_events.push(events as f64),
                Err(e) => sheet.fail(format!("replication failed: {e}")),
            }
            reps.push(took);
        }

        let mut cfg = inp.hotspot.clone();
        cfg.seed = inp.hotspot.seed + 1000 * i;
        let (verdict, took) = tracer.span("sim.validate", i, None, || {
            validation.run(&cfg, inp.prediction, thread_mean)
        });
        sheet.attempted += 1;
        match verdict {
            Ok((report, replications)) => {
                if !report.passed {
                    sheet.fail(format!("hotspot verdict failed: {report}"));
                }
                val_reps.push(replications.reports.len() as f64);
            }
            Err(e) => sheet.fail(format!("hotspot validation: {e}")),
        }
        val_s.push(took.as_secs_f64());
        i += 1;
    }
    let (seq_s, par_s) = (median(&seq), median(&par));
    let ev = events as f64;
    sheet.set("seq_events_per_s", ev / seq_s);
    sheet.set("par_events_per_s", ev / par_s);
    sheet.set("throughput_per_s", 2.0 * ev / (seq_s + par_s));
    sheet.set("sim.events", ev);
    let rep_p50 = median(&reps);
    sheet.set("light_p50_us", rep_p50);
    sheet.set("light_p95_us", quantile(&reps, 0.95));
    let validate_s = median(&val_s);
    sheet.set("validate_s", validate_s);
    sheet.set("heavy_p50_us", validate_s * 1e6);
    sheet.set("validate.reps", median(&val_reps));
    sheet.set("validate.rep_ms", validate_s * 1e3 / median(&val_reps));
    println!(
        "sim_contention: {i} rounds: big runs of {events} events, {} replications",
        reps.len()
    );

    if trace {
        // One-thread partitioned run: the partition's gain without threads.
        let one = ParOptions {
            threads: 1,
            ..ParOptions::default()
        };
        let mut par1 = Vec::new();
        for j in 0..3 {
            let (r, took) = tracer.span("sim.run_par_1thread", j, None, || run_par(&inp.big, &one));
            sheet.attempted += 1;
            if !matches!(&r, Ok(r) if r.events == events) {
                sheet.fail("one-thread parallel run differs");
            }
            par1.push(took.as_secs_f64());
        }
        let par1_s = median(&par1);
        sheet.set("par.partition_gain", seq_s / par1_s);
        sheet.set("par.thread_gain", par1_s / par_s);

        // Event-queue hold time at both runs' pending populations.
        let big_pending = inp.big.pending_hint();
        let small_pending = inp.hotspot.pending_hint();
        let hold = |pending: usize, heap: bool| {
            if heap {
                hold_ns(BinaryHeapQueue::new(), pending, seed)
            } else {
                hold_ns(CalendarQueue::new(), pending, seed)
            }
        };
        let (cal_big, heap_big) = (hold(big_pending, false), hold(big_pending, true));
        let (cal_small, heap_small) = (hold(small_pending, false), hold(small_pending, true));
        sheet.set("sched.hold_ns.calendar", cal_big);
        sheet.set("sched.hold_ns.heap", heap_big);
        sheet.set("sched.hold_ns.calendar.small", cal_small);
        sheet.set("sched.hold_ns.heap.small", heap_small);
        // Estimate: one hold (pop + push) per event, at the hold time of
        // the queue the engine picks for that population.
        let chosen = |pending: usize, cal: f64, heap: f64| match Scheduler::auto_for(pending) {
            Scheduler::Calendar => cal,
            Scheduler::BinaryHeap => heap,
        };
        sheet.set(
            "sched.est_share",
            ev * chosen(big_pending, cal_big, heap_big) / (seq_s * 1e9),
        );
        sheet.set(
            "sched.est_share.small",
            median(&small_events) * chosen(small_pending, cal_small, heap_small) / (rep_p50 * 1e3),
        );

        // Replication rounds alternately with and without spans; the
        // traced p50 over the untraced one is the tracing overhead.
        let mut by_mode: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for j in 0..2 * TRACED_ROUNDS {
            let traced = !j.is_multiple_of(2);
            let base = inp.hotspot.seed + 2_000_000 + (j * nproc() * REPS_PER_THREAD) as u64;
            let rec = if traced { &mut tracer } else { &mut off };
            for (r, took) in replications(&inp.hotspot, base, rec) {
                sheet.attempted += 1;
                if let Err(e) = r {
                    sheet.fail(format!("replication failed: {e}"));
                }
                by_mode[traced as usize].push(took);
            }
        }
        sheet.set("trace.overhead", median(&by_mode[1]) / median(&by_mode[0]));
    }
    sheet.tracer = tracer;
}

/// One round of single replications of `hot`, `nproc` at a time as the
/// validation runs them, seeds from `base`; each with its event count (or
/// error) and wall time in microseconds.
fn replications(
    hot: &SimConfig,
    base: u64,
    tracer: &mut Tracer,
) -> Vec<(Result<u64, String>, f64)> {
    let (results, spans): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..nproc())
            .map(|t| {
                let mut rec = tracer.child();
                s.spawn(move || {
                    let mut cfg = hot.clone();
                    let out: Vec<_> = (0..REPS_PER_THREAD)
                        .map(|j| {
                            cfg.seed = base + (t * REPS_PER_THREAD + j) as u64;
                            let (r, took) = rec.span("sim.rep", cfg.seed, None, || run_seq(&cfg));
                            (r.map(|r| r.events).map_err(|e| e.to_string()), micros(took))
                        })
                        .collect();
                    (out, rec)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replication thread"))
            .unzip()
    });
    for rec in spans {
        tracer.absorb(rec);
    }
    results.into_iter().flatten().collect()
}

/// An event-queue item: fire time and tie-break sequence.
struct Item(f64, u64);

impl Keyed for Item {
    fn time(&self) -> f64 {
        self.0
    }
    fn seq(&self) -> u64 {
        self.1
    }
}

/// Mean time of one hold (pop the earliest, push it back later) through
/// the `EventQueue` trait at a steady population of `pending` items.
fn hold_ns(mut q: impl EventQueue<Item>, pending: usize, seed: u64) -> f64 {
    const HOLDS: usize = 400_000;
    let mut rng = Rng::new(seed ^ pending as u64);
    let mut seq = 0u64;
    for _ in 0..pending.max(1) {
        q.push(Item(rng.unit() * 1000.0, seq));
        seq += 1;
    }
    let run = |q: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..HOLDS {
            q();
        }
        t.elapsed()
    };
    let took: Duration = run(&mut || {
        let Item(t, _) = q.pop().expect("steady population");
        q.push(Item(t + rng.unit() * 1000.0, seq));
        seq += 1;
    });
    took.as_secs_f64() * 1e9 / HOLDS as f64
}
