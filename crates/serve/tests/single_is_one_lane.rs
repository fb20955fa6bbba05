//! `POST /v1/predict` is a one-lane `POST /v1/predict/batch`.
//!
//! Two fresh services receive the same request sequence — one as singles,
//! the other with every scenario wrapped as the only lane of a batch — and
//! each pair of replies is compared as it lands: same status, predictions
//! bit-identical, and the same effect on every cache counter (exact hits
//! and misses, interpolation hits and fallbacks, cells built). Work one
//! path does that the other skips — a speculative cell build, a second
//! lookup — shows up as a counter delta.

use lopc_core::{GeneralModel, Machine, Prediction, Scenario};
use lopc_serve::{
    parse, prediction_from_json, predictions_identical, scenario_to_json, Json, Service,
};

/// The counters a prediction may move, in the order [`counters`] reads
/// them.
const COUNTERS: [&str; 5] = [
    "hits",
    "misses",
    "interp_hits",
    "interp_fallbacks",
    "cells_built",
];

fn counters(svc: &Service) -> [u64; 5] {
    let (cache, interp) = (svc.cache(), svc.interp());
    [
        cache.hits(),
        cache.misses(),
        interp.interp_hits(),
        interp.interp_fallbacks(),
        interp.cells_built(),
    ]
}

/// What one request did: its status, its prediction (on a 200), and the
/// counter deltas it caused.
struct Outcome {
    status: u16,
    prediction: Option<Prediction>,
    deltas: [u64; 5],
}

fn send(svc: &Service, path: &str, body: &str) -> Outcome {
    let before = counters(svc);
    let reply = svc.handle("POST", path, body.as_bytes());
    let after = counters(svc);
    let prediction = (reply.status == 200).then(|| {
        let doc = parse(&reply.body).expect("a 200 body is JSON");
        let lane = match doc.get("predictions").and_then(Json::as_array) {
            Some([one]) => one.clone(),
            Some(many) => panic!("{} predictions for one lane", many.len()),
            None => doc,
        };
        prediction_from_json(&lane).expect("a prediction object")
    });
    Outcome {
        status: reply.status,
        prediction,
        deltas: std::array::from_fn(|i| after[i] - before[i]),
    }
}

/// Two services fed the same requests: `singles` through `/v1/predict`,
/// `batches` through `/v1/predict/batch` with one lane per request.
struct Pair {
    singles: Service,
    batches: Service,
}

impl Pair {
    fn new() -> Self {
        Pair {
            singles: Service::new(4, 64),
            batches: Service::new(4, 64),
        }
    }

    /// Send `lane` (one scenario object, possibly malformed) at
    /// `max_rel_err` (`0` leaves the field out) both ways, assert the two
    /// outcomes agree, and return the status.
    fn check(&self, lane: Json, max_rel_err: f64, case: &str) -> u16 {
        let body = |mut fields: Vec<(String, Json)>| {
            if max_rel_err > 0.0 {
                fields.push(("max_rel_err".into(), Json::Num(max_rel_err)));
            }
            Json::Object(fields).to_compact()
        };
        let Json::Object(fields) = lane.clone() else {
            panic!("{case}: a lane is a JSON object");
        };
        let single = send(&self.singles, "/v1/predict", &body(fields));
        let batch = send(
            &self.batches,
            "/v1/predict/batch",
            &body(vec![("scenarios".into(), Json::Array(vec![lane]))]),
        );
        assert_eq!(single.status, batch.status, "{case}: status");
        assert_eq!(
            single.deltas, batch.deltas,
            "{case}: deltas of {COUNTERS:?}"
        );
        match (&single.prediction, &batch.prediction) {
            (Some(a), Some(b)) => assert!(predictions_identical(a, b), "{case}: {a:?} vs {b:?}"),
            (None, None) => {}
            _ => unreachable!("equal statuses, so both answered or neither did"),
        }
        single.status
    }
}

/// Every variant at a machine and `W` on the interpolation grid, or
/// (`on_grid == false`) off it on every continuous axis.
fn variants(on_grid: bool) -> Vec<Scenario> {
    let (m, w) = if on_grid {
        (Machine::new(32, 25.0, 200.0).with_c2(0.0), 1000.0)
    } else {
        (Machine::new(32, 27.3, 213.7).with_c2(0.3), 1037.3)
    };
    vec![
        Scenario::AllToAll { machine: m, w },
        Scenario::SharedMemory { machine: m, w },
        Scenario::ClientServer {
            machine: m,
            w,
            ps: None,
        },
        Scenario::ForkJoin {
            machine: m,
            w,
            k: 2,
        },
        Scenario::General(GeneralModel::client_server(
            Machine::new(8, m.s_l, m.s_o).with_c2(m.c2),
            w,
            2,
        )),
    ]
}

#[test]
fn every_variant_and_tolerance_answers_alike() {
    let pair = Pair::new();
    for on_grid in [true, false] {
        for tol in [0.0, 1e-3, 5e-2] {
            for s in variants(on_grid) {
                let case = format!("{} on_grid={on_grid} max_rel_err={tol}", s.kind());
                // Twice: the cold request and its warm repeat.
                for _ in 0..2 {
                    assert_eq!(pair.check(scenario_to_json(&s), tol, &case), 200, "{case}");
                }
            }
        }
    }
}

#[test]
fn a_tolerant_sweep_builds_the_same_cells_either_way() {
    let pair = Pair::new();
    let m = Machine::new(32, 25.0, 200.0).with_c2(0.0);
    for i in 0..64 {
        let s = Scenario::AllToAll {
            machine: m,
            w: 700.0 + 13.7 * i as f64,
        };
        let case = format!("sweep point {i}");
        assert_eq!(pair.check(scenario_to_json(&s), 1e-3, &case), 200, "{case}");
    }
    let interp = pair.singles.interp();
    assert!(interp.interp_hits() > 0, "the sweep never interpolated");
}

#[test]
fn malformed_and_unsolvable_lanes_fail_alike() {
    let pair = Pair::new();
    let lane = |text: &str| parse(text).expect("test lanes are JSON");
    let machine = r#""machine":{"p":32,"st":25,"so":200,"c2":0}"#;
    let malformed = [
        r#"{"kind":"nope"}"#.to_string(),
        r#"{"kind":"all_to_all","w":1000}"#.to_string(),
        format!(r#"{{"kind":"all_to_all",{machine},"w":"fast"}}"#),
        format!(r#"{{"kind":"fork_join",{machine},"w":1000}}"#),
    ];
    for (i, text) in malformed.iter().enumerate() {
        for tol in [0.0, 5e-2] {
            let case = format!("malformed lane {i} at {tol}");
            assert_eq!(pair.check(lane(text), tol, &case), 400, "{case}");
        }
    }
    // A tolerance outside [0, 1] is malformed on both endpoints.
    let case = "tolerance above 1";
    let ok = scenario_to_json(&variants(true)[0]);
    assert_eq!(pair.check(ok, 2.0, case), 400, "{case}");
    let unsolvable = [
        r#"{"kind":"all_to_all","machine":{"p":1,"st":1,"so":1,"c2":1},"w":1}"#,
        r#"{"kind":"client_server","machine":{"p":4,"st":1,"so":1,"c2":1},"w":10,"ps":4}"#,
    ];
    for (i, text) in unsolvable.iter().enumerate() {
        for tol in [0.0, 5e-2] {
            let case = format!("unsolvable lane {i} at {tol}");
            assert_eq!(pair.check(lane(text), tol, &case), 422, "{case}");
        }
    }
}
