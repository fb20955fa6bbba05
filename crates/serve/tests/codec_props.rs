//! Codec properties: the wire path against the `Json` tree.
//!
//! The predict endpoints and the client decode and encode straight between
//! bytes and `Scenario` / `Prediction` values (the codec's crate-private
//! wire path); the `Json` tree functions stay as the public API. Those tree
//! functions are the oracle here:
//!
//! 1. the wire writers render exactly the bytes the tree renders;
//! 2. the wire readers decode exactly what `parse` plus the tree decoders
//!    decode — the same bits, or the same first error;
//! 3. hand-written bodies pin the rules the tree path has always followed
//!    (the first of duplicate keys wins, unknown keys are ignored, ...);
//! 4. corrupted bodies get from `Service::handle` the status and error the
//!    tree path gives.
//!
//! The wire functions are crate-private, so this suite compiles the codec's
//! own sources in as modules and calls them directly (their unit tests run
//! here a second time).

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

#[allow(dead_code)]
#[path = "../src/codec.rs"]
mod codec;

mod support;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use codec::{
    max_rel_err_from_json, predict_request, prediction_from_json, prediction_from_str,
    prediction_to_json, predictions_from_str, scenario_from_json, scenario_to_json,
    write_prediction, write_scenario, BodyError, DecodeError,
};
use json::{parse, Json};
use lopc_core::{GeneralModel, Machine, Prediction, Scenario};
use lopc_serve::Service;
use support::corrupt;

// -- generators -------------------------------------------------------------

/// A float the wire must carry exactly: mostly ordinary values in
/// `[lo, hi)` (half of them integral), sometimes ±0, a subnormal, or an
/// integer at or past the emitter's 9e15 switch to exponent form.
fn wire_f64(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    match rng.random_range(0..10usize) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(rng.random_range(1..1u64 << 52)),
        3 => [
            9e15 - 1.0,
            9e15,
            9e15 + 2.0,
            2f64.powi(53) + 2.0,
            1e16,
            1e300,
        ][rng.random_range(0..6usize)],
        4 | 5 => rng.random_range(lo..hi).trunc(),
        _ => rng.random_range(lo..hi),
    }
}

/// A random scenario of any variant; parameters may be model-invalid.
fn random_scenario(rng: &mut SmallRng) -> Scenario {
    let machine = Machine {
        p: rng.random_range(2..12usize),
        s_l: wire_f64(rng, 0.0, 500.0),
        s_o: wire_f64(rng, 1.0, 1000.0),
        c2: wire_f64(rng, 0.0, 4.0),
    };
    let w = wire_f64(rng, 0.0, 5000.0);
    match rng.random_range(0..5usize) {
        0 => Scenario::AllToAll { machine, w },
        1 => Scenario::ClientServer {
            machine,
            w,
            ps: rng.random_bool(0.5).then(|| rng.random_range(1..machine.p)),
        },
        2 => Scenario::ForkJoin {
            machine,
            w,
            k: rng.random_range(1..8u32),
        },
        3 => Scenario::SharedMemory { machine, w },
        _ => {
            let mut model = GeneralModel::homogeneous_all_to_all(machine, w);
            if rng.random_bool(0.3) {
                model = model.with_protocol_processor();
            }
            for i in 0..machine.p {
                if rng.random_bool(0.3) {
                    model.w[i] = None;
                } else {
                    model.w[i] = Some(wire_f64(rng, 0.0, 5000.0));
                }
                for j in 0..machine.p {
                    if rng.random_bool(0.2) {
                        model.v[i][j] = wire_f64(rng, 0.0, 1.0);
                    }
                }
            }
            Scenario::General(model)
        }
    }
}

/// A random prediction: any component may be NaN (`null` on the wire).
fn random_prediction(rng: &mut SmallRng) -> Prediction {
    let mut x = || {
        if rng.random_bool(0.15) {
            f64::NAN
        } else {
            let x = wire_f64(rng, 0.0, 1e6);
            if rng.random_bool(0.2) {
                -x
            } else {
                x
            }
        }
    };
    let (r, x_, rw, rq, ry, contention) = (x(), x(), x(), x(), x(), x());
    let count = |rng: &mut SmallRng| match rng.random_range(0..4usize) {
        0 => rng.random_range(0..100usize),
        1 => 9_000_000_000_000_000 + rng.random_range(0..3usize),
        _ => rng.random_range(0..10_000usize),
    };
    Prediction {
        r,
        x: x_,
        rw,
        rq,
        ry,
        contention,
        ps: rng.random_bool(0.5).then(|| count(rng)),
        iterations: count(rng),
    }
}

/// A `max_rel_err` member value, valid or not (`None` = absent).
fn random_tolerance(rng: &mut SmallRng) -> Option<Json> {
    match rng.random_range(0..8usize) {
        0 | 1 => None,
        2 => Some(Json::Null),
        3 => Some(Json::Num(-0.0)),
        4 => Some(Json::Num(1.5)),
        5 => Some(Json::Str("x".into())),
        _ => Some(Json::Num(
            [0.0, 1e-3, 5e-2, 1.0][rng.random_range(0..4usize)],
        )),
    }
}

/// Render `v` compactly or pretty-printed (whitespace between every token).
fn render(v: &Json, rng: &mut SmallRng) -> String {
    if rng.random_bool(0.5) {
        v.to_compact()
    } else {
        v.to_pretty()
    }
}

/// Shuffle an object's members so `kind` (or `scenarios`) may come last.
fn shuffled(v: Json, rng: &mut SmallRng) -> Json {
    match v {
        Json::Object(mut kv) => {
            for i in (1..kv.len()).rev() {
                kv.swap(i, rng.random_range(0..i + 1));
            }
            Json::Object(kv)
        }
        other => other,
    }
}

fn with_member(v: Json, key: &str, value: Option<Json>) -> Json {
    match (v, value) {
        (Json::Object(mut kv), Some(value)) => {
            kv.push((key.into(), value));
            Json::Object(kv)
        }
        (v, _) => v,
    }
}

/// A single body: one scenario object, maybe with a tolerance, in any
/// member order.
fn single_body(rng: &mut SmallRng) -> String {
    let s = scenario_to_json(&random_scenario(rng));
    let v = with_member(s, "max_rel_err", random_tolerance(rng));
    let v = shuffled(v, rng);
    render(&v, rng)
}

/// A batch body of 0–5 lanes, maybe with a tolerance and an unknown
/// member, in any member order.
fn batch_body(rng: &mut SmallRng) -> String {
    let lanes = (0..rng.random_range(0..6usize))
        .map(|_| shuffled(scenario_to_json(&random_scenario(rng)), rng))
        .collect();
    let v = Json::Object(vec![("scenarios".into(), Json::Array(lanes))]);
    let v = with_member(v, "max_rel_err", random_tolerance(rng));
    let extra = rng.random_bool(0.3).then(|| Json::Array(vec![Json::Null]));
    let v = shuffled(with_member(v, "extra", extra), rng);
    render(&v, rng)
}

// -- oracles ----------------------------------------------------------------

/// Why a predict body is refused, with every error as text.
#[derive(Debug, PartialEq)]
enum Refusal {
    Json(String),
    Tolerance(String),
    NotBatch,
    Decode(usize, String),
    Invalid(usize, String),
}

type Request = Result<(f64, Vec<Scenario>), Refusal>;

/// The wire decoder's verdict on a predict body.
fn wire_request(text: &str, batch: bool) -> Request {
    predict_request(text, batch).map_err(|e| match e {
        BodyError::Json(e) => Refusal::Json(e),
        BodyError::Tolerance(e) => Refusal::Tolerance(e.0),
        BodyError::NotBatch => Refusal::NotBatch,
        BodyError::Decode(i, e) => Refusal::Decode(i, e.0),
        BodyError::Invalid(i, e) => Refusal::Invalid(i, e.to_string()),
    })
}

/// The tree path's verdict: `parse`, then the tolerance, then the
/// `scenarios` array, then each lane decoded and validated in order.
fn tree_request(text: &str, batch: bool) -> Request {
    let doc = parse(text).map_err(Refusal::Json)?;
    let tol = max_rel_err_from_json(&doc).map_err(|e| Refusal::Tolerance(e.0))?;
    let items = if batch {
        doc.get("scenarios")
            .and_then(Json::as_array)
            .ok_or(Refusal::NotBatch)?
    } else {
        std::slice::from_ref(&doc)
    };
    let mut lanes = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let s = scenario_from_json(item).map_err(|e| Refusal::Decode(i, e.0))?;
        s.validate()
            .map_err(|e| Refusal::Invalid(i, e.to_string()))?;
        lanes.push(s);
    }
    Ok((tol, lanes))
}

/// Debug text shows every bit that matters: `-0.0` prints with its sign.
fn assert_same<T: std::fmt::Debug>(wire: &T, tree: &T, input: &str) {
    assert_eq!(format!("{wire:?}"), format!("{tree:?}"), "on {input}");
}

fn tree_predictions(text: &str) -> Result<Vec<Prediction>, DecodeError> {
    let doc = parse(text).map_err(DecodeError)?;
    doc.get("predictions")
        .and_then(Json::as_array)
        .ok_or_else(|| DecodeError("missing \"predictions\" array".into()))?
        .iter()
        .map(prediction_from_json)
        .collect()
}

fn tree_prediction(text: &str) -> Result<Prediction, DecodeError> {
    prediction_from_json(&parse(text).map_err(DecodeError)?)
}

// -- 1. writers -------------------------------------------------------------

#[test]
fn writers_render_the_tree_bytes() {
    let mut rng = SmallRng::seed_from_u64(0xc0dec);
    for _ in 0..2000 {
        let s = random_scenario(&mut rng);
        let mut wire = String::new();
        write_scenario(&mut wire, &s);
        assert_eq!(wire, scenario_to_json(&s).to_compact(), "{s:?}");

        let p = random_prediction(&mut rng);
        let mut wire = String::new();
        write_prediction(&mut wire, &p);
        assert_eq!(wire, prediction_to_json(&p).to_compact(), "{p:?}");
    }
}

// -- 2. readers -------------------------------------------------------------

#[test]
fn request_decoder_matches_the_tree() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut decoded = [0usize; 2];
    for round in 0..3000 {
        let batch = round % 2 == 1;
        let text = if batch {
            batch_body(&mut rng)
        } else {
            single_body(&mut rng)
        };
        let wire = wire_request(&text, batch);
        let tree = tree_request(&text, batch);
        assert_same(&wire, &tree, &text);
        // The other endpoint's reading of the same text must agree too.
        assert_same(
            &wire_request(&text, !batch),
            &tree_request(&text, !batch),
            &text,
        );
        decoded[usize::from(batch)] += usize::from(wire.is_ok());
    }
    // Most generated lanes are valid, so both endpoints decode often.
    assert!(decoded.iter().all(|&n| n > 300), "{decoded:?}");
}

#[test]
fn prediction_readers_match_the_tree() {
    let mut rng = SmallRng::seed_from_u64(0xbeef);
    for _ in 0..1000 {
        let preds: Vec<Prediction> = (0..rng.random_range(0..5usize))
            .map(|_| random_prediction(&mut rng))
            .collect();
        let v = Json::Object(vec![(
            "predictions".into(),
            Json::Array(preds.iter().map(prediction_to_json).collect()),
        )]);
        let text = render(&v, &mut rng);
        assert_same(
            &predictions_from_str(&text),
            &tree_predictions(&text),
            &text,
        );
        if let Some(p) = preds.first() {
            let text = render(&prediction_to_json(p), &mut rng);
            assert_same(&prediction_from_str(&text), &tree_prediction(&text), &text);
        }
    }
    // Malformed responses fail alike.
    for text in [
        "",
        "{",
        "[]",
        "{}",
        r#"{"predictions":{}}"#,
        r#"{"predictions":[{}]}"#,
        r#"{"predictions":[{"r":"x"}]}"#,
        r#"{"predictions":[{"r":1,"x":1,"rw":1,"rq":1,"ry":1,"contention":1,"iterations":1}]}"#,
        r#"{"predictions":[{"r":1,"x":1,"rw":1,"rq":1,"ry":1,"contention":1,"ps":-1,"iterations":1}]}"#,
        r#"{"predictions":[]} x"#,
    ] {
        assert_same(&predictions_from_str(text), &tree_predictions(text), text);
        assert_same(&prediction_from_str(text), &tree_prediction(text), text);
    }
}

// -- 3. rules ---------------------------------------------------------------

const MACHINE: &str = r#""machine":{"p":32,"st":25,"so":200,"c2":0}"#;

fn a2a(w: f64) -> Scenario {
    Scenario::AllToAll {
        machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
        w,
    }
}

/// Decode `text` on both paths; they must agree, and the wire's answer is
/// returned for the rule's own assertion.
fn both(text: &str, batch: bool) -> Request {
    let wire = wire_request(text, batch);
    assert_same(&wire, &tree_request(text, batch), text);
    wire
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let text = format!(r#"{{"kind":"all_to_all",{MACHINE},"w":1,"w":2,"kind":"nope"}}"#);
    assert_eq!(both(&text, false), Ok((0.0, vec![a2a(1.0)])));
    let text =
        r#"{"kind":"all_to_all","machine":{"p":32,"p":2,"st":25,"so":200,"c2":0,"c2":"x"},"w":1}"#;
    assert_eq!(both(text, false), Ok((0.0, vec![a2a(1.0)])));
    let text = format!(
        r#"{{"scenarios":[{{"kind":"all_to_all",{MACHINE},"w":3}}],"max_rel_err":0.5,"scenarios":1,"max_rel_err":9}}"#
    );
    assert_eq!(both(&text, true), Ok((0.5, vec![a2a(3.0)])));
}

#[test]
fn unknown_keys_are_ignored() {
    let text = format!(
        r#"{{"note":{{"deep":[1,{{"x":null}}]}},"kind":"all_to_all",{MACHINE},"w":1,"zzz":"é"}}"#
    );
    assert_eq!(both(&text, false), Ok((0.0, vec![a2a(1.0)])));
}

#[test]
fn escaped_keys_and_values_decode() {
    let text = r#"{"\u006bind":"all\u005fto_all","m\u0061chine":{"p":32,"st":25,"so":200,"c2":0},"\u0077":1,"n\\ote":"\"\/\n\té"}"#;
    assert_eq!(both(text, false), Ok((0.0, vec![a2a(1.0)])));
}

/// Strings follow RFC 8259 §7 wherever they sit: `\b`, `\f` and surrogate
/// pairs decode; lone or reversed surrogates, `\u` without four hex digits
/// and raw control bytes are syntax errors.
#[test]
fn strings_follow_rfc_8259() {
    let lane = |extra: &str| format!(r#"{{"kind":"all_to_all",{MACHINE},"w":1,{extra}}}"#);
    for (body, status) in [
        // A key spelled with `\b` is a key no scenario has: ignored.
        (lane(r#""\bw":2"#), 200),
        (lane(r#""note":"\f\ud83d\ude00""#), 200),
        // A raw tab inside an ignored string field.
        (lane("\"note\":\"a\tb\""), 400),
        (lane("\"note\":\"\\n\u{0}\""), 400),
        (lane(r#""note":"\ud83d""#), 400),
        (lane(r#""note":"\ude00\ud83d""#), 400),
        (lane(r#""note":"\u+041""#), 400),
    ] {
        let decoded = both(&body, false);
        if status == 200 {
            assert_eq!(decoded, Ok((0.0, vec![a2a(1.0)])), "{body}");
        } else {
            assert!(
                matches!(decoded, Err(Refusal::Json(_))),
                "{body}: {decoded:?}"
            );
        }
        let reply = Service::new(4, 64).handle("POST", "/v1/predict", body.as_bytes());
        assert_eq!(reply.status, status, "{body}: {}", reply.body);
    }
}

#[test]
fn whitespace_may_sit_anywhere() {
    let text = " \n{ \"kind\" :\t\"all_to_all\" ,\r\n \"machine\" : { \"p\" : 32 , \"st\" : 25 , \"so\" : 200 , \"c2\" : 0 } , \"w\" : 1 } \n";
    assert_eq!(both(text, false), Ok((0.0, vec![a2a(1.0)])));
    let text = " { \"scenarios\" : [ \n ] , \"max_rel_err\" : 0.25 } ";
    assert_eq!(both(text, true), Ok((0.25, vec![])));
}

#[test]
fn kind_may_come_after_the_other_fields() {
    let text = format!(r#"{{{MACHINE},"w":1,"max_rel_err":0.01,"kind":"all_to_all"}}"#);
    assert_eq!(both(&text, false), Ok((0.01, vec![a2a(1.0)])));
    let general = Scenario::General(GeneralModel::client_server(
        Machine::new(4, 10.0, 100.0),
        500.0,
        1,
    ));
    let Json::Object(mut kv) = scenario_to_json(&general) else {
        unreachable!("a scenario encodes as an object")
    };
    kv.rotate_left(1);
    let text = Json::Object(kv).to_compact();
    assert!(text.ends_with(r#""kind":"general"}"#), "{text}");
    assert_eq!(both(&text, false), Ok((0.0, vec![general])));
}

#[test]
fn a_field_the_kind_ignores_may_hold_any_type() {
    let text = format!(
        r#"{{"kind":"all_to_all",{MACHINE},"w":1,"v":"x","ps":[1],"k":{{"a":1}},"protocol_processor":7}}"#
    );
    assert_eq!(both(&text, false), Ok((0.0, vec![a2a(1.0)])));
}

#[test]
fn max_rel_err_inside_a_batch_lane_is_ignored() {
    let text =
        format!(r#"{{"scenarios":[{{"kind":"all_to_all",{MACHINE},"w":1,"max_rel_err":5}}]}}"#);
    assert_eq!(both(&text, true), Ok((0.0, vec![a2a(1.0)])));
    // On a single, the same member is the request's tolerance.
    let single = format!(r#"{{"kind":"all_to_all",{MACHINE},"w":1,"max_rel_err":5}}"#);
    assert!(matches!(both(&single, false), Err(Refusal::Tolerance(_))));
}

#[test]
fn errors_keep_the_tree_precedence() {
    let lane = format!(r#"{{"kind":"all_to_all",{MACHINE},"w":1}}"#);
    let bad_lane = r#"{"kind":"all_to_all","machine":{"p":1,"st":1,"so":1,"c2":1},"w":"x"}"#;
    let invalid_lane = r#"{"kind":"all_to_all","machine":{"p":1,"st":1,"so":1,"c2":1},"w":1}"#;
    for (text, want) in [
        // A syntax error anywhere beats every schema error before it.
        (
            format!(r#"{{"scenarios":[{bad_lane}],"max_rel_err":2,"x":01}}"#),
            "json",
        ),
        // A bad tolerance beats the lanes, wherever it sits.
        (
            format!(r#"{{"scenarios":[{bad_lane}],"max_rel_err":2}}"#),
            "tolerance",
        ),
        (
            format!(r#"{{"scenarios":{lane},"max_rel_err":2}}"#),
            "tolerance",
        ),
        (format!(r#"{{"scenarios":{lane}}}"#), "not batch"),
        // The lowest-index lane reports, a decode error or a validation one.
        (
            format!(r#"{{"scenarios":[{lane},{invalid_lane},{bad_lane}]}}"#),
            "invalid 1",
        ),
        (
            format!(r#"{{"scenarios":[{lane},{bad_lane},{invalid_lane}]}}"#),
            "decode 1",
        ),
    ] {
        let got = both(&text, true);
        let kind = match &got {
            Err(Refusal::Json(_)) => "json".to_string(),
            Err(Refusal::Tolerance(_)) => "tolerance".into(),
            Err(Refusal::NotBatch) => "not batch".into(),
            Err(Refusal::Invalid(i, _)) => format!("invalid {i}"),
            Err(Refusal::Decode(i, _)) => format!("decode {i}"),
            Ok(_) => "ok".into(),
        };
        assert_eq!(kind, want, "{text}: {got:?}");
    }
}

// -- 4. statuses through the service ----------------------------------------

/// The tree path's reply to a predict body: status and error text (empty
/// on success). Lanes are answered as the service answers them, by one
/// `predict_batch` call on a fresh cache.
fn tree_reply(body: &[u8], batch: bool) -> (u16, String) {
    let at = |i: usize| {
        if batch {
            format!(" at index {i}")
        } else {
            String::new()
        }
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, "body is not UTF-8".into());
    };
    let (tol, lanes) = match tree_request(text, batch) {
        Ok(request) => request,
        Err(Refusal::Json(e)) => return (400, format!("invalid JSON: {e}")),
        Err(Refusal::Tolerance(e)) => return (400, e),
        Err(Refusal::NotBatch) => return (400, "body must be {\"scenarios\": [...]}".into()),
        Err(Refusal::Decode(i, e)) => return (400, format!("invalid scenario{}: {e}", at(i))),
        Err(Refusal::Invalid(i, e)) => return (422, format!("invalid parameters{}: {e}", at(i))),
    };
    let answers = Service::new(4, 64).interp().predict_batch(&lanes, tol);
    for (i, answer) in answers.into_iter().enumerate() {
        if let Err(e) = answer {
            return (422, format!("unsolvable scenario{}: {e}", at(i)));
        }
    }
    (200, String::new())
}

#[test]
fn corrupted_bodies_get_the_tree_status() {
    let mut rng = SmallRng::seed_from_u64(0xc0c0);
    let fixed = [
        format!(r#"{{"kind":"client_server",{MACHINE},"w":1000.0,"ps":3}}"#),
        format!(
            r#"{{"scenarios":[{{"kind":"all_to_all",{MACHINE},"w":64}},{{"kind":"shared_memory",{MACHINE},"w":-0.0}}],"max_rel_err":0.01}}"#
        ),
    ];
    let mut statuses = std::collections::BTreeMap::new();
    for round in 0..3000 {
        let batch = round % 2 == 1;
        let base = match round % 5 {
            0 | 1 => fixed[usize::from(batch)].clone(),
            _ if batch => batch_body(&mut rng),
            _ => single_body(&mut rng),
        };
        let body = corrupt(base.as_bytes(), &mut rng);
        let path = if batch {
            "/v1/predict/batch"
        } else {
            "/v1/predict"
        };
        let reply = Service::new(4, 64).handle("POST", path, &body);
        let (status, error) = tree_reply(&body, batch);
        let shown = String::from_utf8_lossy(&body);
        assert_eq!(reply.status, status, "{shown}: {}", reply.body);
        *statuses.entry(status).or_insert(0) += 1;
        if status == 200 {
            // The served bytes are the tree encoding of what they carry.
            let doc = parse(&reply.body).expect("a 200 body is JSON");
            let again = match doc.get("predictions") {
                Some(Json::Array(items)) => Json::Object(vec![(
                    "predictions".into(),
                    Json::Array(
                        items
                            .iter()
                            .map(|p| prediction_to_json(&prediction_from_json(p).unwrap()))
                            .collect(),
                    ),
                )]),
                _ => prediction_to_json(&prediction_from_json(&doc).unwrap()),
            };
            assert_eq!(reply.body, again.to_compact(), "{shown}");
        } else {
            let served = parse(&reply.body).expect("an error body is JSON");
            assert_eq!(
                served.get("error").and_then(Json::as_str),
                Some(error.as_str()),
                "{shown}"
            );
        }
    }
    // The corruptions reach every status, not just syntax errors.
    for status in [200, 400, 422] {
        assert!(
            statuses.get(&status).is_some_and(|&n| n > 10),
            "{statuses:?}"
        );
    }
}
