//! Every dispatched event is live: a compute end, a message arriving, or a
//! handler end that the simulation needed.
//!
//! In makespan mode every cycle completes. A cycle of a thread with
//! `fanout` requests of `hops` handler visits is exactly one compute end
//! plus, per request, an arrival and a handler end at each of the `hops`
//! servers and at the origin for the reply. So a run's event count is
//! `Σᵢ cyclesᵢ × (1 + fanout · (2 · hops + 2))`, and any dispatched event
//! that changes nothing, such as a compute end left behind by a preemption,
//! breaks the equality. Both engines must meet it, across machine sizes,
//! fan-outs, multi-hop forwarding, the protocol processor, constant and
//! exponential times, and sampled wires.

use lopc_dist::ServiceTime;
use lopc_sim::validate::test_seed;
use lopc_sim::{
    run_par, DestChooser, Engine, ParOptions, SimConfig, SimReport, StopCondition, ThreadSpec,
};
use proptest::prelude::*;

/// The events a completed run must have dispatched, no more.
fn live_events(cfg: &SimConfig, report: &SimReport) -> u64 {
    cfg.threads
        .iter()
        .zip(&report.nodes)
        .map(|(spec, node)| {
            let per_request = 2 * spec.hops as u64 + 2;
            node.cycles * (1 + spec.fanout as u64 * per_request)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_dispatched_event_is_live(
        p in 2usize..40,
        fanout in 1u32..4,
        hops in 1u32..4,
        protocol_processor in 0usize..2,
        exponential in 0usize..2,
        wire in 0usize..3,
        cycles in 1u64..30,
        lps in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let time = |mean: f64| {
            if exponential == 1 {
                ServiceTime::exponential(mean)
            } else {
                ServiceTime::constant(mean)
            }
        };
        let cfg = SimConfig {
            p,
            net_latency: 25.0,
            request_handler: time(150.0),
            reply_handler: time(150.0),
            threads: vec![
                ThreadSpec {
                    work: Some(time(600.0)),
                    dest: DestChooser::UniformOther,
                    hops,
                    fanout,
                };
                p
            ],
            protocol_processor: protocol_processor == 1,
            latency_dist: match wire {
                0 => None,
                1 => Some(ServiceTime::uniform(15.0, 35.0)),
                _ => Some(ServiceTime::exponential(25.0)),
            },
            stop: StopCondition::CyclesPerThread { n: cycles },
            seed: test_seed(seed),
        };
        let sequential = Engine::new(cfg.clone()).unwrap().run_to_completion();
        prop_assert_eq!(sequential.aggregate.total_cycles, p as u64 * cycles);
        prop_assert_eq!(sequential.events, live_events(&cfg, &sequential));
        let opts = ParOptions {
            lps,
            threads: 2,
            ..Default::default()
        };
        let parallel = run_par(&cfg, &opts).unwrap();
        prop_assert_eq!(parallel.events, live_events(&cfg, &parallel));
    }
}
