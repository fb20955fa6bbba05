//! Codec properties: the wire functions against an independent oracle.
//!
//! The predict endpoints and the client decode and encode straight between
//! bytes and `Scenario` / `Prediction` values, through the codec's
//! crate-private wire functions. Their judge is `support/oracle.rs`: an
//! RFC 8259 reader and writer and the schema over them, written apart from
//! `json.rs` and `codec.rs` and sharing no code with them.
//!
//! 1. the wire writers render exactly the oracle's bytes;
//! 2. the wire readers decode exactly what the oracle decodes: the same
//!    bits, the same schema or model error, or a syntax error on both
//!    sides (whose wording is the tokenizer's own, so it is not compared);
//! 3. hand-written bodies pin the schema's rules (the first of duplicate
//!    keys wins, unknown keys are ignored, ...);
//! 4. corrupted bodies get from `Service::handle` the oracle's reply: its
//!    status, and the exact bytes of a 200, the exact text of a schema or
//!    model error, or the `invalid JSON:` prefix of a syntax error.
//!
//! The order of errors is the wire contract itself: a syntax error
//! anywhere, then a bad tolerance, then a missing `scenarios` array, then
//! the lowest lane's decode or validation error.
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

#[path = "support/oracle.rs"]
mod oracle;
mod support;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use codec::{
    predict_request, prediction_from_str, predictions_from_str, write_prediction, write_scenario,
    BodyError, DecodeError,
};
use lopc_core::{GeneralModel, Machine, Prediction, Scenario};
use lopc_serve::Service;
use oracle::{Refusal, Value};
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
fn random_tolerance(rng: &mut SmallRng) -> Option<Value> {
    match rng.random_range(0..8usize) {
        0 | 1 => None,
        2 => Some(Value::Null),
        3 => Some(Value::Number(-0.0)),
        4 => Some(Value::Number(1.5)),
        5 => Some(Value::Text("x".into())),
        _ => Some(Value::Number(
            [0.0, 1e-3, 5e-2, 1.0][rng.random_range(0..4usize)],
        )),
    }
}

/// Write `v` compactly or with random whitespace at every gap, and now and
/// then with every string character written as a `\u` escape.
fn render(v: &Value, rng: &mut SmallRng) -> String {
    let spaced = rng.random_bool(0.5);
    let escape_all = rng.random_bool(0.2);
    let mut gap = |out: &mut String| {
        if spaced {
            for _ in 0..rng.random_range(0..3usize) {
                out.push([' ', '\t', '\n', '\r'][rng.random_range(0..4usize)]);
            }
        }
    };
    let mut out = String::new();
    gap(&mut out);
    oracle::write(&mut out, v, &mut gap, escape_all);
    gap(&mut out);
    out
}

/// Shuffle an object's members so `kind` (or `scenarios`) may come last.
fn shuffled(v: Value, rng: &mut SmallRng) -> Value {
    match v {
        Value::Map(mut members) => {
            for i in (1..members.len()).rev() {
                members.swap(i, rng.random_range(0..i + 1));
            }
            Value::Map(members)
        }
        other => other,
    }
}

fn with_member(v: Value, key: &str, value: Option<Value>) -> Value {
    match (v, value) {
        (Value::Map(mut members), Some(value)) => {
            members.push((key.into(), value));
            Value::Map(members)
        }
        (v, _) => v,
    }
}

/// A single body: one scenario object, maybe with a tolerance, in any
/// member order.
fn single_body(rng: &mut SmallRng) -> String {
    let s = oracle::scenario_value(&random_scenario(rng));
    let v = with_member(s, "max_rel_err", random_tolerance(rng));
    let v = shuffled(v, rng);
    render(&v, rng)
}

/// A batch body of 0–5 lanes, maybe with a tolerance and an unknown
/// member, in any member order.
fn batch_body(rng: &mut SmallRng) -> String {
    let lanes = (0..rng.random_range(0..6usize))
        .map(|_| shuffled(oracle::scenario_value(&random_scenario(rng)), rng))
        .collect();
    let v = Value::Map(vec![("scenarios".into(), Value::List(lanes))]);
    let v = with_member(v, "max_rel_err", random_tolerance(rng));
    let extra = rng.random_bool(0.3).then(|| Value::List(vec![Value::Null]));
    let v = shuffled(with_member(v, "extra", extra), rng);
    render(&v, rng)
}

// -- verdicts ---------------------------------------------------------------

type Request = Result<(f64, Vec<Scenario>), Refusal>;

/// The wire decoder's verdict on a predict body, in the oracle's terms.
fn wire_request(text: &str, batch: bool) -> Request {
    predict_request(text, batch).map_err(|e| match e {
        BodyError::Json(_) => Refusal::Syntax,
        BodyError::Tolerance(e) => Refusal::Tolerance(e.0),
        BodyError::NotBatch => Refusal::NotBatch,
        BodyError::Decode(i, e) => Refusal::Decode(i, e.0),
        BodyError::Invalid(i, e) => Refusal::Invalid(i, e.to_string()),
    })
}

/// Debug text shows every bit that matters: `-0.0` prints with its sign.
fn assert_same<T: std::fmt::Debug>(wire: &T, oracle: &T, input: &str) {
    assert_eq!(format!("{wire:?}"), format!("{oracle:?}"), "on {input}");
}

/// Hold a response reader's verdict on `text` to the oracle's: the same
/// bits or the same schema error, and an error wherever the oracle finds
/// a syntax error.
fn judge<T: std::fmt::Debug>(
    wire: Result<T, DecodeError>,
    text: &str,
    decode: impl FnOnce(&Value) -> Result<T, String>,
) {
    match oracle::read(text) {
        Ok(doc) => assert_same(&wire.map_err(|e| e.0), &decode(&doc), text),
        Err(why) => assert!(wire.is_err(), "{text}: the oracle refuses it ({why})"),
    }
}

// -- 1. writers -------------------------------------------------------------

#[test]
fn writers_render_the_tree_bytes() {
    let mut rng = SmallRng::seed_from_u64(0xc0dec);
    for _ in 0..2000 {
        let s = random_scenario(&mut rng);
        let mut wire = String::new();
        write_scenario(&mut wire, &s);
        assert_eq!(wire, oracle::compact(&oracle::scenario_value(&s)), "{s:?}");

        let p = random_prediction(&mut rng);
        let mut wire = String::new();
        write_prediction(&mut wire, &p);
        assert_eq!(
            wire,
            oracle::compact(&oracle::prediction_value(&p)),
            "{p:?}"
        );
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
        assert_same(&wire, &oracle::request(&text, batch), &text);
        // The other endpoint's reading of the same text must agree too.
        assert_same(
            &wire_request(&text, !batch),
            &oracle::request(&text, !batch),
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
        let v = Value::Map(vec![(
            "predictions".into(),
            Value::List(preds.iter().map(oracle::prediction_value).collect()),
        )]);
        let text = render(&v, &mut rng);
        judge(predictions_from_str(&text), &text, oracle::predictions_of);
        if let Some(p) = preds.first() {
            let text = render(&oracle::prediction_value(p), &mut rng);
            judge(prediction_from_str(&text), &text, oracle::prediction_of);
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
        judge(predictions_from_str(text), text, oracle::predictions_of);
        judge(prediction_from_str(text), text, oracle::prediction_of);
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

/// Decode `text` with the wire decoder and the oracle; they must agree,
/// and the wire's answer is returned for the rule's own assertion.
fn both(text: &str, batch: bool) -> Request {
    let wire = wire_request(text, batch);
    assert_same(&wire, &oracle::request(text, batch), text);
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
                matches!(decoded, Err(Refusal::Syntax)),
                "{body}: {decoded:?}"
            );
        }
        let reply = Service::new(4, 64).handle("POST", "/v1/predict", body.as_bytes());
        assert_eq!(reply.status, status, "{body}: {}", reply.body);
    }
}

/// The stated limits, on both sides: a value inside 128 containers is
/// read and one inside 129 is refused; a number that overflows `f64` is
/// refused, and one that underflows reads as zero.
#[test]
fn nesting_and_number_limits_agree() {
    // The lane object is the first container; `note` nests the rest.
    let nested = |arrays: usize| {
        let note = format!("{}0{}", "[".repeat(arrays), "]".repeat(arrays));
        format!(r#"{{"kind":"all_to_all",{MACHINE},"w":1,"note":{note}}}"#)
    };
    assert_eq!(both(&nested(127), false), Ok((0.0, vec![a2a(1.0)])));
    assert_eq!(both(&nested(128), false), Err(Refusal::Syntax));
    let w = |w: &str| format!(r#"{{"kind":"all_to_all",{MACHINE},"w":{w}}}"#);
    assert_eq!(both(&w("1e308"), false), Ok((0.0, vec![a2a(1e308)])));
    assert_eq!(both(&w("1e-400"), false), Ok((0.0, vec![a2a(0.0)])));
    for overflow in ["1e309", "-1.8e308"] {
        assert_eq!(both(&w(overflow), false), Err(Refusal::Syntax));
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
    let Value::Map(mut members) = oracle::scenario_value(&general) else {
        unreachable!("a scenario encodes as an object")
    };
    members.rotate_left(1);
    let text = oracle::compact(&Value::Map(members));
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

/// The wire contract's order of errors: syntax, tolerance, `scenarios`,
/// then the lowest lane's decode or validation error.
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
            Err(Refusal::Syntax) => "json".to_string(),
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

/// What the service must answer to a predict body.
enum Expected {
    /// 200 with exactly these bytes.
    Body(String),
    /// An error body whose `"error"` is exactly this text.
    Error(u16, String),
    /// A 400 whose `"error"` starts `invalid JSON: `.
    Syntax,
}

/// The oracle's reply to a predict body. Lanes are answered as the
/// service answers them, by one `predict_batch` call on a fresh cache.
fn oracle_reply(body: &[u8], batch: bool) -> Expected {
    let at = |i: usize| {
        if batch {
            format!(" at index {i}")
        } else {
            String::new()
        }
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return Expected::Error(400, "body is not UTF-8".into());
    };
    let (tol, lanes) = match oracle::request(text, batch) {
        Ok(request) => request,
        Err(refusal) => {
            let (status, e) = match refusal {
                Refusal::Syntax => return Expected::Syntax,
                Refusal::Tolerance(e) => (400, e),
                Refusal::NotBatch => (400, "body must be {\"scenarios\": [...]}".into()),
                Refusal::Decode(i, e) => (400, format!("invalid scenario{}: {e}", at(i))),
                Refusal::Invalid(i, e) => (422, format!("invalid parameters{}: {e}", at(i))),
            };
            return Expected::Error(status, e);
        }
    };
    let mut answers = Vec::new();
    let served = Service::new(4, 64).interp().predict_batch(&lanes, tol);
    for (i, answer) in served.into_iter().enumerate() {
        match answer {
            Ok(p) => answers.push(oracle::prediction_value(&p)),
            Err(e) => return Expected::Error(422, format!("unsolvable scenario{}: {e}", at(i))),
        }
    }
    let reply = if batch {
        Value::Map(vec![("predictions".into(), Value::List(answers))])
    } else {
        answers.remove(0)
    };
    Expected::Body(oracle::compact(&reply))
}

/// `base` with a control byte inserted inside one of its strings, which
/// RFC 8259 forbids: a tab, line feed or carriage return (whitespace
/// everywhere else), or any other byte below 0x20.
fn control_in_string(base: &str, rng: &mut SmallRng) -> Vec<u8> {
    // Offsets inside a string: after its opening quote, up to and
    // including its closing one.
    let mut inside = Vec::new();
    let (mut open, mut escaped) = (false, false);
    for (i, b) in base.bytes().enumerate() {
        if open {
            inside.push(i);
        }
        if escaped {
            escaped = false;
        } else if open && b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            open = !open;
        }
    }
    let mut bytes = base.as_bytes().to_vec();
    let control =
        [b'\t', b'\n', b'\r', rng.random_range(0..0x20u32) as u8][rng.random_range(0..4usize)];
    bytes.insert(inside[rng.random_range(0..inside.len())], control);
    bytes
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
        let body = if rng.random_bool(0.25) {
            control_in_string(&base, &mut rng)
        } else {
            corrupt(base.as_bytes(), &mut rng)
        };
        let path = if batch {
            "/v1/predict/batch"
        } else {
            "/v1/predict"
        };
        let reply = Service::new(4, 64).handle("POST", path, &body);
        let shown = String::from_utf8_lossy(&body);
        let error = || match oracle::read(&reply.body).map(|doc| doc.member("error").cloned()) {
            Ok(Some(Value::Text(e))) => e,
            _ => panic!("{shown}: not an error body: {}", reply.body),
        };
        let status = match oracle_reply(&body, batch) {
            Expected::Body(want) => {
                assert_eq!((reply.status, &reply.body), (200, &want), "{shown}");
                200
            }
            Expected::Error(status, want) => {
                assert_eq!(reply.status, status, "{shown}: {}", reply.body);
                assert_eq!(error(), want, "{shown}");
                status
            }
            Expected::Syntax => {
                assert_eq!(reply.status, 400, "{shown}: {}", reply.body);
                let e = error();
                assert!(e.starts_with("invalid JSON: "), "{shown}: {e}");
                400
            }
        };
        *statuses.entry(status).or_insert(0) += 1;
    }
    // The corruptions reach every status, not just syntax errors.
    for status in [200, 400, 422] {
        assert!(
            statuses.get(&status).is_some_and(|&n| n > 10),
            "{statuses:?}"
        );
    }
}
