//! Wire codec: [`Scenario`] and [`Prediction`] to and from JSON.
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
//!
//! Two implementations of the schema live here:
//!
//! * **The wire path** (crate-private): `predict_request` decodes a
//!   predict body straight from its bytes into the tolerance and validated
//!   [`Scenario`]s, `write_scenario` / `write_prediction` append the wire
//!   objects straight to a `String`, and `prediction_from_str` /
//!   `predictions_from_str` read a response straight into [`Prediction`]s.
//!   They run on the one tokenizer ([`crate::json`]'s `Tokens`) and build
//!   no [`Json`] value. The server's predict endpoints and the client use
//!   only these.
//! * **The tree API** (public): [`scenario_to_json`], [`scenario_from_json`],
//!   [`prediction_to_json`], [`prediction_from_json`] and
//!   [`max_rel_err_from_json`] convert to and from [`Json`] values.
//!   `perfbench/` calls them, and the tests use them as the oracle the
//!   wire path must match byte for byte, bit for bit and error for error.

use std::borrow::Cow;

use crate::json::{write_num, Json, Token, Tokens};
use lopc_core::{GeneralModel, Machine, ModelError, Prediction, Scenario};

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
    to_uint(num(v, key)?, key)
}

fn to_uint(x: f64, key: &str) -> Result<u64, DecodeError> {
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

// ---------------------------------------------------------------------------
// The wire path: bytes straight to values and back
// ---------------------------------------------------------------------------
//
// Members are read in document order into one slot per key, the first of
// duplicate keys winning as `Json::get` finds it, and checked once the
// whole document has been read, in the order the tree decoders check
// them. So a body gets the tree path's first error: a syntax error
// anywhere beats every schema error, whatever order the members come in.

/// The keys of the machine object, in order.
const MACHINE_FIELDS: [&str; 4] = ["p", "st", "so", "c2"];

/// A member's value as a numeric field sees it.
#[derive(Clone, Copy)]
enum Num {
    Null,
    Val(f64),
    /// Any other value (already skipped).
    Other,
}

/// Classify a value whose start was `token`, skipping the rest of it.
fn to_num<'a>(t: &mut Tokens<'a>, token: Token<'a>, depth: usize) -> Result<Num, String> {
    Ok(match token {
        Token::Null => Num::Null,
        Token::Num(x) => Num::Val(x),
        other => {
            t.skip(other, depth)?;
            Num::Other
        }
    })
}

fn read_num(t: &mut Tokens<'_>, depth: usize) -> Result<Num, String> {
    let token = t.value(depth)?;
    to_num(t, token, depth)
}

fn need(slot: Option<Num>, key: &str) -> Result<f64, DecodeError> {
    match slot {
        None => err(format!("missing field {key:?}")),
        Some(Num::Val(x)) => Ok(x),
        Some(_) => err(format!("field {key:?} must be a number")),
    }
}

fn need_uint(slot: Option<Num>, key: &str) -> Result<u64, DecodeError> {
    to_uint(need(slot, key)?, key)
}

/// Read a member's value into `slot`, or skip it when an earlier member
/// of the same key already filled the slot.
fn first<'a, T>(
    slot: &mut Option<T>,
    t: &mut Tokens<'a>,
    depth: usize,
    read: impl FnOnce(&mut Tokens<'a>, usize) -> Result<T, String>,
) -> Result<(), String> {
    match slot {
        Some(_) => t.skip_value(depth),
        None => {
            *slot = Some(read(t, depth)?);
            Ok(())
        }
    }
}

/// Read a value `depth` deep, passing each member to `f` when it is an
/// object. Any other value reads as an object with no members, as
/// [`Json::get`] finds none in it.
fn read_members<'a>(
    t: &mut Tokens<'a>,
    depth: usize,
    f: impl FnMut(&mut Tokens<'a>, Cow<'a, str>) -> Result<(), String>,
) -> Result<(), String> {
    match t.value(depth)? {
        Token::Object => t.members(f),
        other => t.skip(other, depth),
    }
}

/// Read the items of the array just opened `depth` deep with `read`,
/// keeping the first item error; items after it are only skipped.
fn read_list<'a, T, E>(
    t: &mut Tokens<'a>,
    depth: usize,
    mut read: impl FnMut(&mut Tokens<'a>, usize) -> Result<Result<T, E>, String>,
) -> Result<Result<Vec<T>, E>, String> {
    let mut list = Ok(Vec::new());
    t.items(|t| {
        let Ok(items) = &mut list else {
            return t.skip_value(depth + 1);
        };
        match read(t, depth + 1)? {
            Ok(item) => items.push(item),
            Err(e) => list = Err(e),
        }
        Ok(())
    })?;
    Ok(list)
}

/// Read all of `text` with `read`: its result, once nothing trails the
/// document, or the syntax error.
fn read_document<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Tokens<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut t = Tokens::new(text);
    let value = read(&mut t)?;
    t.end()?;
    Ok(value)
}

fn read_machine(t: &mut Tokens<'_>, depth: usize) -> Result<Result<Machine, DecodeError>, String> {
    let mut f = [None; 4];
    read_members(t, depth, |t, key| {
        match MACHINE_FIELDS.iter().position(|k| key == *k) {
            Some(i) => first(&mut f[i], t, depth + 1, read_num),
            None => t.skip_value(depth + 1),
        }
    })?;
    let [p, st, so, c2] = f;
    let machine = || {
        Ok(Machine {
            p: need_uint(p, "p")? as usize,
            s_l: need(st, "st")?,
            s_o: need(so, "so")?,
            c2: need(c2, "c2")?,
        })
    };
    Ok(machine())
}

/// `w` as read: a number for every kind but `general`, whose `w` is a
/// list (`null` marking an idle thread).
enum W {
    Scalar(Num),
    List(Result<Vec<Option<f64>>, DecodeError>),
}

fn read_w(t: &mut Tokens<'_>, depth: usize) -> Result<W, String> {
    Ok(match t.value(depth)? {
        Token::Array => W::List(read_list(t, depth, |t, d| {
            Ok(match read_num(t, d)? {
                Num::Null => Ok(None),
                Num::Val(x) => Ok(Some(x)),
                Num::Other => err("\"w\" entries must be numbers or null"),
            })
        })?),
        other => W::Scalar(to_num(t, other, depth)?),
    })
}

fn read_v(t: &mut Tokens<'_>, depth: usize) -> Result<Result<Vec<Vec<f64>>, DecodeError>, String> {
    match t.value(depth)? {
        Token::Array => read_list(t, depth, |t, d| match t.value(d)? {
            Token::Array => read_list(t, d, |t, d| {
                Ok(match read_num(t, d)? {
                    Num::Val(x) => Ok(x),
                    _ => err("\"v\" entries must be numbers"),
                })
            }),
            other => t.skip(other, d).map(|()| err("\"v\" rows must be arrays")),
        }),
        other => t
            .skip(other, depth)
            .map(|()| err("field \"v\" must be an array")),
    }
}

/// The members of one scenario object. `max_rel_err` is read too: a
/// single request carries it beside the scenario fields.
#[derive(Default)]
struct ScenarioFields<'a> {
    kind: Option<Option<Cow<'a, str>>>,
    machine: Option<Result<Machine, DecodeError>>,
    w: Option<W>,
    v: Option<Result<Vec<Vec<f64>>, DecodeError>>,
    ps: Option<Num>,
    k: Option<Num>,
    protocol_processor: Option<Option<bool>>,
    max_rel_err: Option<Num>,
}

fn read_scenario<'a>(t: &mut Tokens<'a>, depth: usize) -> Result<ScenarioFields<'a>, String> {
    let mut f = ScenarioFields::default();
    let d = depth + 1;
    read_members(t, depth, |t, key| match &*key {
        "kind" => first(&mut f.kind, t, d, |t, d| match t.value(d)? {
            Token::Str(kind) => Ok(Some(kind)),
            other => t.skip(other, d).map(|()| None),
        }),
        "machine" => first(&mut f.machine, t, d, read_machine),
        "w" => first(&mut f.w, t, d, read_w),
        "v" => first(&mut f.v, t, d, read_v),
        "ps" => first(&mut f.ps, t, d, read_num),
        "k" => first(&mut f.k, t, d, read_num),
        "protocol_processor" => first(&mut f.protocol_processor, t, d, |t, d| {
            match t.value(d)? {
                Token::Bool(b) => Ok(Some(b)),
                other => t.skip(other, d).map(|()| None),
            }
        }),
        MAX_REL_ERR_FIELD => first(&mut f.max_rel_err, t, d, read_num),
        _ => t.skip_value(d),
    })?;
    Ok(f)
}

impl ScenarioFields<'_> {
    /// The scenario, checked as [`scenario_from_json`] checks its object.
    fn scenario(self) -> Result<Scenario, DecodeError> {
        let kind = match self.kind {
            None => return err("missing field \"kind\""),
            Some(None) => return err("field \"kind\" must be a string"),
            Some(Some(kind)) => kind,
        };
        let machine = self
            .machine
            .unwrap_or_else(|| err("missing field \"machine\""))?;
        let w = |w: &Option<W>| {
            let w = match w {
                None => None,
                Some(W::Scalar(x)) => Some(*x),
                Some(W::List(_)) => Some(Num::Other),
            };
            need(w, "w")
        };
        match &*kind {
            "all_to_all" => Ok(Scenario::AllToAll {
                machine,
                w: w(&self.w)?,
            }),
            "shared_memory" => Ok(Scenario::SharedMemory {
                machine,
                w: w(&self.w)?,
            }),
            "client_server" => {
                let ps = match self.ps {
                    None | Some(Num::Null) => None,
                    ps => Some(need_uint(ps, "ps")? as usize),
                };
                Ok(Scenario::ClientServer {
                    machine,
                    w: w(&self.w)?,
                    ps,
                })
            }
            "fork_join" => {
                let k = need_uint(self.k, "k")?;
                if k > u32::MAX as u64 {
                    return err("field \"k\" out of range");
                }
                Ok(Scenario::ForkJoin {
                    machine,
                    w: w(&self.w)?,
                    k: k as u32,
                })
            }
            "general" => {
                let w = match self.w {
                    None => return err("missing field \"w\""),
                    Some(W::List(w)) => w?,
                    Some(W::Scalar(_)) => return err("field \"w\" must be an array"),
                };
                let v = self.v.unwrap_or_else(|| err("missing field \"v\""))?;
                let protocol_processor = match self.protocol_processor {
                    None => false,
                    Some(Some(b)) => b,
                    Some(None) => return err("\"protocol_processor\" must be a boolean"),
                };
                Ok(Scenario::General(GeneralModel {
                    machine,
                    w,
                    v,
                    protocol_processor,
                }))
            }
            other => err(format!("unknown scenario kind {other:?}")),
        }
    }
}

/// The tolerance, checked as [`max_rel_err_from_json`] checks it.
fn tolerance(slot: Option<Num>) -> Result<f64, DecodeError> {
    match slot {
        None | Some(Num::Null) => Ok(0.0),
        Some(Num::Val(x)) if x.is_finite() && (0.0..=1.0).contains(&x) => Ok(x),
        Some(_) => err(format!(
            "field {MAX_REL_ERR_FIELD:?} must be a number in [0, 1]"
        )),
    }
}

/// Why a predict body was refused. The variants are in the order the
/// checks apply; a body gets the first that fails.
#[derive(Debug)]
pub(crate) enum BodyError {
    /// Not a JSON document (400).
    Json(String),
    /// A bad `max_rel_err` (400).
    Tolerance(DecodeError),
    /// A batch body without a `"scenarios"` array (400).
    NotBatch,
    /// Lane `i` is not a scenario (400).
    Decode(usize, DecodeError),
    /// Lane `i` is a scenario the model rejects (422).
    Invalid(usize, ModelError),
}

/// Lane `i`, decoded and model-validated.
fn lane(i: usize, fields: ScenarioFields<'_>) -> Result<Scenario, BodyError> {
    let s = fields.scenario().map_err(|e| BodyError::Decode(i, e))?;
    s.validate().map_err(|e| BodyError::Invalid(i, e))?;
    Ok(s)
}

type Lanes = (Option<Num>, Result<Vec<Scenario>, BodyError>);

/// A single body: one scenario object, which may carry `max_rel_err`.
fn read_single(t: &mut Tokens<'_>) -> Result<Lanes, String> {
    let mut fields = read_scenario(t, 0)?;
    let tol = fields.max_rel_err.take();
    Ok((tol, lane(0, fields).map(|s| vec![s])))
}

/// A batch body: `{"scenarios": [...]}` with a top-level `max_rel_err`
/// (a lane's own `max_rel_err` is ignored).
fn read_batch(t: &mut Tokens<'_>) -> Result<Lanes, String> {
    let (mut tol, mut lanes) = (None, None);
    read_members(t, 0, |t, key| match &*key {
        MAX_REL_ERR_FIELD => first(&mut tol, t, 1, read_num),
        "scenarios" => first(&mut lanes, t, 1, |t, d| match t.value(d)? {
            Token::Array => {
                let mut i = 0;
                read_list(t, d, |t, d| {
                    let lane = lane(i, read_scenario(t, d)?);
                    i += 1;
                    Ok(lane)
                })
            }
            other => t.skip(other, d).map(|()| Err(BodyError::NotBatch)),
        }),
        _ => t.skip_value(1),
    })?;
    Ok((tol, lanes.unwrap_or(Err(BodyError::NotBatch))))
}

/// Decode a `POST /v1/predict` body (`batch = false`) or a
/// `POST /v1/predict/batch` body into its `max_rel_err` and its
/// model-validated lanes, in one pass over the text. Errors are the tree
/// path's (`parse`, [`max_rel_err_from_json`], [`scenario_from_json`],
/// `Scenario::validate`), checked in the same order.
pub(crate) fn predict_request(text: &str, batch: bool) -> Result<(f64, Vec<Scenario>), BodyError> {
    let (tol, lanes) = read_document(text, |t| if batch { read_batch(t) } else { read_single(t) })
        .map_err(BodyError::Json)?;
    let tol = tolerance(tol).map_err(BodyError::Tolerance)?;
    Ok((tol, lanes?))
}

/// Append `s`'s wire object to `out`: the bytes
/// `scenario_to_json(s).to_compact()` renders.
pub(crate) fn write_scenario(out: &mut String, s: &Scenario) {
    let machine = match s {
        Scenario::AllToAll { machine, .. }
        | Scenario::ClientServer { machine, .. }
        | Scenario::ForkJoin { machine, .. }
        | Scenario::SharedMemory { machine, .. } => machine,
        Scenario::General(model) => &model.machine,
    };
    out.push_str("{\"kind\":\"");
    out.push_str(s.kind());
    out.push_str("\",\"machine\":");
    write_fields(
        out,
        &MACHINE_FIELDS,
        [machine.p as f64, machine.s_l, machine.s_o, machine.c2],
    );
    out.push_str(",\"w\":");
    match s {
        Scenario::AllToAll { w, .. } | Scenario::SharedMemory { w, .. } => write_num(out, *w),
        Scenario::ClientServer { w, ps, .. } => {
            write_num(out, *w);
            if let Some(ps) = ps {
                out.push_str(",\"ps\":");
                write_num(out, *ps as f64);
            }
        }
        Scenario::ForkJoin { w, k, .. } => {
            write_num(out, *w);
            out.push_str(",\"k\":");
            write_num(out, *k as f64);
        }
        Scenario::General(model) => {
            write_list(out, &model.w, |out, w| {
                write_num(out, w.unwrap_or(f64::NAN))
            });
            out.push_str(",\"v\":");
            write_list(out, &model.v, |out, row| {
                write_list(out, row, |out, &x| write_num(out, x))
            });
            out.push_str(",\"protocol_processor\":");
            out.push_str(if model.protocol_processor {
                "true"
            } else {
                "false"
            });
        }
    }
    out.push('}');
}

/// Append `p`'s wire object to `out`: the bytes
/// `prediction_to_json(p).to_compact()` renders.
pub(crate) fn write_prediction(out: &mut String, p: &Prediction) {
    write_fields(
        out,
        &PREDICTION_FIELDS,
        [
            p.r,
            p.x,
            p.rw,
            p.rq,
            p.ry,
            p.contention,
            p.ps.map_or(f64::NAN, |ps| ps as f64),
            p.iterations as f64,
        ],
    );
}

/// Append `{"key": x, ...}`; non-finite values are `null`.
fn write_fields<const N: usize>(out: &mut String, keys: &[&str; N], values: [f64; N]) {
    for (i, (key, x)) in keys.iter().zip(values).enumerate() {
        out.push_str(if i == 0 { "{\"" } else { ",\"" });
        out.push_str(key);
        out.push_str("\":");
        write_num(out, x);
    }
    out.push('}');
}

fn write_list<T>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

fn read_prediction(
    t: &mut Tokens<'_>,
    depth: usize,
) -> Result<Result<Prediction, DecodeError>, String> {
    let mut f = [None; 8];
    read_members(t, depth, |t, key| {
        match PREDICTION_FIELDS.iter().position(|k| key == *k) {
            Some(i) => first(&mut f[i], t, depth + 1, read_num),
            None => t.skip_value(depth + 1),
        }
    })?;
    // As `prediction_from_json` checks: `null` is NaN, and `ps` must be
    // present even when null.
    let num_or_nan = |i: usize| match f[i] {
        None => err(format!("missing field {:?}", PREDICTION_FIELDS[i])),
        Some(Num::Null) => Ok(f64::NAN),
        Some(Num::Val(x)) => Ok(x),
        Some(Num::Other) => err(format!(
            "field {:?} must be a number or null",
            PREDICTION_FIELDS[i]
        )),
    };
    let prediction = || {
        Ok(Prediction {
            r: num_or_nan(0)?,
            x: num_or_nan(1)?,
            rw: num_or_nan(2)?,
            rq: num_or_nan(3)?,
            ry: num_or_nan(4)?,
            contention: num_or_nan(5)?,
            ps: match f[6] {
                None => return err("missing field \"ps\""),
                Some(Num::Null) => None,
                ps => Some(need_uint(ps, "ps")? as usize),
            },
            iterations: need_uint(f[7], "iterations")? as usize,
        })
    };
    Ok(prediction())
}

/// Decode a `POST /v1/predict` response body.
pub(crate) fn prediction_from_str(text: &str) -> Result<Prediction, DecodeError> {
    read_document(text, |t| read_prediction(t, 0)).map_err(DecodeError)?
}

/// Decode a `POST /v1/predict/batch` response body,
/// `{"predictions": [...]}`.
pub(crate) fn predictions_from_str(text: &str) -> Result<Vec<Prediction>, DecodeError> {
    let list = read_document(text, |t| {
        let mut list = None;
        read_members(t, 0, |t, key| match &*key {
            "predictions" => first(&mut list, t, 1, |t, d| match t.value(d)? {
                Token::Array => read_list(t, d, read_prediction).map(Some),
                other => t.skip(other, d).map(|()| None),
            }),
            _ => t.skip_value(1),
        })?;
        Ok(list)
    })
    .map_err(DecodeError)?;
    list.flatten()
        .unwrap_or_else(|| err("missing \"predictions\" array"))
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
