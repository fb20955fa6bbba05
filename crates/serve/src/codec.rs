//! Wire codec: [`Scenario`] and [`Prediction`] to and from [`Json`].
//!
//! The schema mirrors `lopc_core::scenario` field for field:
//!
//! ```json
//! {"kind": "all_to_all",    "machine": {"p": 32, "st": 25.0, "so": 200.0, "c2": 0.0}, "w": 1000.0}
//! {"kind": "client_server", "machine": {...}, "w": 1000.0, "ps": 5}
//! {"kind": "fork_join",     "machine": {...}, "w": 2000.0, "k": 4}
//! {"kind": "shared_memory", "machine": {...}, "w": 800.0}
//! {"kind": "general",       "machine": {...}, "w": [800.0, null, ...],
//!                           "v": [[0.0, ...], ...], "protocol_processor": false}
//! ```
//!
//! `ps` is optional (omitted = solve at the eq. 6.8 optimum); in the
//! `general` variant `null` entries of `w` mark idle server threads.
//! Predictions encode every [`Prediction`] field, with `NaN` components as
//! `null`:
//!
//! ```json
//! {"r": 1523.4, "x": 0.021, "rw": 1015.2, "rq": 255.1, "ry": 203.1,
//!  "contention": 73.4, "ps": null, "iterations": 38}
//! ```
//!
//! Numbers use shortest-round-trip formatting, so decode(encode(x)) is
//! bit-identical — served predictions equal direct library calls exactly.

use crate::json::Json;
use lopc_core::{GeneralModel, Machine, Prediction, Scenario};

/// Why a document could not be decoded into a scenario or prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(msg.into()))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    v.get(key)
        .ok_or_else(|| DecodeError(format!("missing field {key:?}")))
}

fn num(v: &Json, key: &str) -> Result<f64, DecodeError> {
    field(v, key)?
        .as_num()
        .ok_or_else(|| DecodeError(format!("field {key:?} must be a number")))
}

fn uint(v: &Json, key: &str) -> Result<u64, DecodeError> {
    let x = num(v, key)?;
    if x < 0.0 || x.fract() != 0.0 || x > 9e15 {
        return err(format!("field {key:?} must be a non-negative integer"));
    }
    Ok(x as u64)
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

/// Encode a [`Machine`] as `{"p", "st", "so", "c2"}`.
pub fn machine_to_json(m: &Machine) -> Json {
    Json::Object(vec![
        ("p".into(), Json::Num(m.p as f64)),
        ("st".into(), Json::Num(m.s_l)),
        ("so".into(), Json::Num(m.s_o)),
        ("c2".into(), Json::Num(m.c2)),
    ])
}

/// Decode a [`Machine`].
pub fn machine_from_json(v: &Json) -> Result<Machine, DecodeError> {
    Ok(Machine {
        p: uint(v, "p")? as usize,
        s_l: num(v, "st")?,
        s_o: num(v, "so")?,
        c2: num(v, "c2")?,
    })
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// Encode a [`Scenario`] into its wire object.
pub fn scenario_to_json(s: &Scenario) -> Json {
    let mut kv: Vec<(String, Json)> = vec![("kind".into(), Json::Str(s.kind().into()))];
    match s {
        Scenario::AllToAll { machine, w } | Scenario::SharedMemory { machine, w } => {
            kv.push(("machine".into(), machine_to_json(machine)));
            kv.push(("w".into(), Json::Num(*w)));
        }
        Scenario::ClientServer { machine, w, ps } => {
            kv.push(("machine".into(), machine_to_json(machine)));
            kv.push(("w".into(), Json::Num(*w)));
            if let Some(ps) = ps {
                kv.push(("ps".into(), Json::Num(*ps as f64)));
            }
        }
        Scenario::ForkJoin { machine, w, k } => {
            kv.push(("machine".into(), machine_to_json(machine)));
            kv.push(("w".into(), Json::Num(*w)));
            kv.push(("k".into(), Json::Num(*k as f64)));
        }
        Scenario::General(model) => {
            kv.push(("machine".into(), machine_to_json(&model.machine)));
            kv.push((
                "w".into(),
                Json::Array(
                    model
                        .w
                        .iter()
                        .map(|w| w.map_or(Json::Null, Json::Num))
                        .collect(),
                ),
            ));
            kv.push((
                "v".into(),
                Json::Array(
                    model
                        .v
                        .iter()
                        .map(|row| Json::Array(row.iter().map(|&x| Json::Num(x)).collect()))
                        .collect(),
                ),
            ));
            kv.push((
                "protocol_processor".into(),
                Json::Bool(model.protocol_processor),
            ));
        }
    }
    Json::Object(kv)
}

/// Decode a wire object into a [`Scenario`].
pub fn scenario_from_json(v: &Json) -> Result<Scenario, DecodeError> {
    let kind = field(v, "kind")?
        .as_str()
        .ok_or_else(|| DecodeError("field \"kind\" must be a string".into()))?;
    let machine = machine_from_json(field(v, "machine")?)?;
    match kind {
        "all_to_all" => Ok(Scenario::AllToAll {
            machine,
            w: num(v, "w")?,
        }),
        "shared_memory" => Ok(Scenario::SharedMemory {
            machine,
            w: num(v, "w")?,
        }),
        "client_server" => {
            let ps = match v.get("ps") {
                None | Some(Json::Null) => None,
                Some(_) => Some(uint(v, "ps")? as usize),
            };
            Ok(Scenario::ClientServer {
                machine,
                w: num(v, "w")?,
                ps,
            })
        }
        "fork_join" => {
            let k = uint(v, "k")?;
            if k > u32::MAX as u64 {
                return err("field \"k\" out of range");
            }
            Ok(Scenario::ForkJoin {
                machine,
                w: num(v, "w")?,
                k: k as u32,
            })
        }
        "general" => {
            let w = field(v, "w")?
                .as_array()
                .ok_or_else(|| DecodeError("field \"w\" must be an array".into()))?
                .iter()
                .map(|x| match x {
                    Json::Null => Ok(None),
                    Json::Num(w) => Ok(Some(*w)),
                    _ => err("\"w\" entries must be numbers or null"),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let rows = field(v, "v")?
                .as_array()
                .ok_or_else(|| DecodeError("field \"v\" must be an array".into()))?;
            let mut vmat = Vec::with_capacity(rows.len());
            for row in rows {
                let row = row
                    .as_array()
                    .ok_or_else(|| DecodeError("\"v\" rows must be arrays".into()))?
                    .iter()
                    .map(|x| {
                        x.as_num()
                            .ok_or_else(|| DecodeError("\"v\" entries must be numbers".into()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                vmat.push(row);
            }
            let protocol_processor = match v.get("protocol_processor") {
                None => false,
                Some(x) => x.as_bool().ok_or_else(|| {
                    DecodeError("\"protocol_processor\" must be a boolean".into())
                })?,
            };
            Ok(Scenario::General(GeneralModel {
                machine,
                w,
                v: vmat,
                protocol_processor,
            }))
        }
        other => err(format!("unknown scenario kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Request options
// ---------------------------------------------------------------------------

/// Name of the optional tolerance field accepted by `POST /v1/predict`
/// (alongside the scenario fields) and by `POST /v1/predict/batch`
/// (top-level, next to `"scenarios"`).
pub const MAX_REL_ERR_FIELD: &str = "max_rel_err";

/// Decode the optional `max_rel_err` tolerance from a request document.
///
/// Absent or `null` means exact mode (`0.0`). A present value must be a
/// finite number in `[0, 1]` — a *relative* error bound above 100 % is
/// certainly a client bug, and rejecting it early (400) beats serving
/// nonsense.
pub fn max_rel_err_from_json(v: &Json) -> Result<f64, DecodeError> {
    match v.get(MAX_REL_ERR_FIELD) {
        None | Some(Json::Null) => Ok(0.0),
        Some(Json::Num(x)) if x.is_finite() && (0.0..=1.0).contains(x) => Ok(*x),
        Some(_) => err(format!(
            "field {MAX_REL_ERR_FIELD:?} must be a number in [0, 1]"
        )),
    }
}

// ---------------------------------------------------------------------------
// Prediction
// ---------------------------------------------------------------------------

/// Every key of the prediction wire object, in order — the schema-drift
/// check in the smoke suite asserts responses carry exactly these.
pub const PREDICTION_FIELDS: [&str; 8] =
    ["r", "x", "rw", "rq", "ry", "contention", "ps", "iterations"];

/// Encode a [`Prediction`] (`NaN` components become `null`).
pub fn prediction_to_json(p: &Prediction) -> Json {
    Json::Object(vec![
        ("r".into(), Json::Num(p.r)),
        ("x".into(), Json::Num(p.x)),
        ("rw".into(), Json::Num(p.rw)),
        ("rq".into(), Json::Num(p.rq)),
        ("ry".into(), Json::Num(p.ry)),
        ("contention".into(), Json::Num(p.contention)),
        (
            "ps".into(),
            p.ps.map_or(Json::Null, |ps| Json::Num(ps as f64)),
        ),
        ("iterations".into(), Json::Num(p.iterations as f64)),
    ])
}

fn num_or_nan(v: &Json, key: &str) -> Result<f64, DecodeError> {
    match field(v, key)? {
        Json::Null => Ok(f64::NAN),
        Json::Num(x) => Ok(*x),
        _ => err(format!("field {key:?} must be a number or null")),
    }
}

/// Decode a [`Prediction`] (`null` components become `NaN`).
pub fn prediction_from_json(v: &Json) -> Result<Prediction, DecodeError> {
    Ok(Prediction {
        r: num_or_nan(v, "r")?,
        x: num_or_nan(v, "x")?,
        rw: num_or_nan(v, "rw")?,
        rq: num_or_nan(v, "rq")?,
        ry: num_or_nan(v, "ry")?,
        contention: num_or_nan(v, "contention")?,
        ps: match field(v, "ps")? {
            Json::Null => None,
            _ => Some(uint(v, "ps")? as usize),
        },
        iterations: uint(v, "iterations")? as usize,
    })
}

/// `NaN`-aware prediction equality: components are equal when both are `NaN`
/// or bit-for-bit equal. This is the relation the serve-vs-library
/// integration test asserts.
pub fn predictions_identical(a: &Prediction, b: &Prediction) -> bool {
    fn eq(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }
    eq(a.r, b.r)
        && eq(a.x, b.x)
        && eq(a.rw, b.rw)
        && eq(a.rq, b.rq)
        && eq(a.ry, b.ry)
        && eq(a.contention, b.contention)
        && a.ps == b.ps
        && a.iterations == b.iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn machine() -> Machine {
        Machine::new(32, 25.0, 200.0).with_c2(0.0)
    }

    fn sample_scenarios() -> Vec<Scenario> {
        vec![
            Scenario::AllToAll {
                machine: machine(),
                w: 1000.0,
            },
            Scenario::ClientServer {
                machine: machine(),
                w: 512.5,
                ps: Some(5),
            },
            Scenario::ClientServer {
                machine: machine(),
                w: 512.5,
                ps: None,
            },
            Scenario::ForkJoin {
                machine: machine(),
                w: 2000.0,
                k: 4,
            },
            Scenario::SharedMemory {
                machine: machine(),
                w: 800.0,
            },
            Scenario::General(GeneralModel::client_server(machine(), 700.0, 3)),
            Scenario::General(
                GeneralModel::multi_hop(machine(), 300.0, 2).with_protocol_processor(),
            ),
        ]
    }

    #[test]
    fn scenario_round_trip() {
        for s in sample_scenarios() {
            let doc = scenario_to_json(&s).to_compact();
            let back = scenario_from_json(&parse(&doc).unwrap()).unwrap();
            assert_eq!(back, s, "{doc}");
        }
    }

    #[test]
    fn prediction_round_trip_is_bit_identical() {
        for s in sample_scenarios() {
            let p = lopc_core::scenario::solve(&s).unwrap();
            let doc = prediction_to_json(&p).to_compact();
            let back = prediction_from_json(&parse(&doc).unwrap()).unwrap();
            assert!(predictions_identical(&p, &back), "{doc}");
        }
    }

    #[test]
    fn nan_components_encode_as_null() {
        let s = Scenario::General(GeneralModel::client_server(machine(), 700.0, 3));
        let doc = prediction_to_json(&lopc_core::scenario::solve(&s).unwrap()).to_compact();
        assert!(doc.contains("\"rw\":null"), "{doc}");
    }

    #[test]
    fn decode_rejects_malformed_scenarios() {
        for doc in [
            r#"{}"#,
            r#"{"kind": "nope", "machine": {"p":4,"st":1,"so":1,"c2":1}, "w": 1}"#,
            r#"{"kind": "all_to_all", "w": 1}"#,
            r#"{"kind": "all_to_all", "machine": {"p":4,"st":1,"so":1,"c2":1}}"#,
            r#"{"kind": "all_to_all", "machine": {"p":4.5,"st":1,"so":1,"c2":1}, "w": 1}"#,
            r#"{"kind": "all_to_all", "machine": {"p":-4,"st":1,"so":1,"c2":1}, "w": 1}"#,
            r#"{"kind": "fork_join", "machine": {"p":4,"st":1,"so":1,"c2":1}, "w": 1}"#,
            r#"{"kind": "client_server", "machine": {"p":4,"st":1,"so":1,"c2":1}, "w": 1, "ps": "x"}"#,
            r#"{"kind": "general", "machine": {"p":2,"st":1,"so":1,"c2":1}, "w": 1, "v": []}"#,
            r#"{"kind": "general", "machine": {"p":2,"st":1,"so":1,"c2":1}, "w": [1, "x"], "v": []}"#,
            r#"[1, 2]"#,
        ] {
            let v = parse(doc).unwrap();
            assert!(scenario_from_json(&v).is_err(), "{doc}");
        }
    }

    #[test]
    fn max_rel_err_decoding() {
        let doc = |s: &str| parse(s).unwrap();
        assert_eq!(max_rel_err_from_json(&doc("{}")), Ok(0.0));
        assert_eq!(
            max_rel_err_from_json(&doc(r#"{"max_rel_err":null}"#)),
            Ok(0.0)
        );
        assert_eq!(max_rel_err_from_json(&doc(r#"{"max_rel_err":0}"#)), Ok(0.0));
        assert_eq!(
            max_rel_err_from_json(&doc(r#"{"max_rel_err":0.001}"#)),
            Ok(0.001)
        );
        assert_eq!(max_rel_err_from_json(&doc(r#"{"max_rel_err":1}"#)), Ok(1.0));
        for bad in [
            r#"{"max_rel_err":-0.1}"#,
            r#"{"max_rel_err":1.5}"#,
            r#"{"max_rel_err":"x"}"#,
            r#"{"max_rel_err":true}"#,
        ] {
            assert!(max_rel_err_from_json(&doc(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn ps_null_and_absent_both_mean_optimal() {
        let with_null = parse(
            r#"{"kind":"client_server","machine":{"p":8,"st":1,"so":1,"c2":1},"w":1,"ps":null}"#,
        )
        .unwrap();
        let s = scenario_from_json(&with_null).unwrap();
        assert_eq!(
            s,
            Scenario::ClientServer {
                machine: Machine::new(8, 1.0, 1.0),
                w: 1.0,
                ps: None
            }
        );
    }
}
