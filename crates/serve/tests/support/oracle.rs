//! An oracle for the predict schema that shares no code with the service:
//! an RFC 8259 reader and writer over their own value type, and the
//! scenario, prediction and request schema over that type.
//!
//! It is written from RFC 8259 and from DESIGN.md §11, not from the
//! service's tokenizer or codec, so a fault in either shows up as a
//! disagreement. The limits are the service's stated ones:
//!
//! * a value inside more than 128 arrays or objects is refused;
//! * a number whose value overflows `f64` is refused;
//! * a `\u` escape of a surrogate must be a high one followed by an
//!   escaped low one;
//! * in an object, the first of duplicate keys wins.
//!
//! Numbers are written with std alone: an integral value below 9e15 as an
//! integer (`-0.0` as `-0`), any other finite value as `format!("{x:?}")`.
//! Schema errors carry the service's exact wording; syntax errors carry
//! only this reader's own note of where reading stopped.

use std::str::FromStr;

use lopc_core::{GeneralModel, Machine, Prediction, Scenario};

/// A value of an RFC 8259 text.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Value>),
    /// Members in document order, duplicates kept.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`; any value but an object has none.
    pub fn member(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

// -- reading ------------------------------------------------------------------

/// A value inside more containers than this is refused.
const MAX_NESTING: usize = 128;

/// Read a whole text: one value with only whitespace around it.
pub fn read(text: &str) -> Result<Value, String> {
    let mut r = Reader { text, at: 0 };
    let value = r.value(0)?;
    r.space();
    if r.at < text.len() {
        return Err(r.fail("text after the value"));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn fail(&self, what: &str) -> String {
        format!("byte {}: {what}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    /// RFC 8259 §2: whitespace is space, tab, line feed and carriage return.
    fn space(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// A value inside `depth` containers, after any whitespace.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_NESTING {
            return Err(self.fail("nested too deep"));
        }
        self.space();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Text),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.literal(),
        }
    }

    /// RFC 8259 §3: `true`, `false` and `null`, in lower case.
    fn literal(&mut self) -> Result<Value, String> {
        for (word, value) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.text[self.at..].starts_with(word) {
                self.at += word.len();
                return Ok(value);
            }
        }
        Err(self.fail("expected a value"))
    }

    /// RFC 8259 §4: `{` [ member *( `,` member ) ] `}`, where a member is a
    /// string, `:` and a value.
    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.at += 1;
        let mut members = Vec::new();
        self.space();
        if self.eat(b'}') {
            return Ok(Value::Map(members));
        }
        loop {
            self.space();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected a key"));
            }
            let key = self.string()?;
            self.space();
            if !self.eat(b':') {
                return Err(self.fail("expected ':'"));
            }
            members.push((key, self.value(depth + 1)?));
            self.space();
            if self.eat(b'}') {
                return Ok(Value::Map(members));
            }
            if !self.eat(b',') {
                return Err(self.fail("expected ',' or '}'"));
            }
        }
    }

    /// RFC 8259 §5: `[` [ value *( `,` value ) ] `]`.
    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.space();
        if self.eat(b']') {
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.space();
            if self.eat(b']') {
                return Ok(Value::List(items));
            }
            if !self.eat(b',') {
                return Err(self.fail("expected ',' or ']'"));
            }
        }
    }

    /// RFC 8259 §6: an optional `-`, then `0` or a digit 1–9 followed by
    /// digits, then an optional `.` with digits, then an optional `e` or
    /// `E` with an optional sign and digits.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        self.eat(b'-');
        if !self.eat(b'0') {
            if !matches!(self.peek(), Some(b'1'..=b'9')) {
                return Err(self.fail("expected a digit"));
            }
            self.digits();
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.fail("expected a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.fail("expected an exponent digit"));
            }
        }
        let x = f64::from_str(&self.text[start..self.at]).map_err(|e| self.fail(&e.to_string()))?;
        if x.is_infinite() {
            return Err(self.fail("number overflows f64"));
        }
        Ok(Value::Number(x))
    }

    /// Skip ASCII digits and count them.
    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    /// RFC 8259 §7, from the opening quote: any character from U+0020 up
    /// but `"` and `\` stands for itself, and an escape for the one it
    /// names.
    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.at..].chars().next() else {
                return Err(self.fail("unterminated string"));
            };
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => out.push(self.escape()?),
                c if c < ' ' => return Err(self.fail("control character in a string")),
                c => out.push(c),
            }
        }
    }

    /// The character an escape names, after its backslash: one of
    /// `" \ / b f n r t`, or `u` and four hex digits.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                return self.code_point();
            }
            _ => return Err(self.fail("unknown escape")),
        };
        self.at += 1;
        Ok(c)
    }

    /// The code point of a `\u` escape, after its `u`. A character past
    /// U+FFFF is a high surrogate escape followed by a low one.
    fn code_point(&mut self) -> Result<char, String> {
        let unpaired = |r: &Self| Err(r.fail("unpaired surrogate"));
        let code = match self.hex4()? {
            high @ 0xd800..=0xdbff => {
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return unpaired(self);
                }
                match self.hex4()? {
                    low @ 0xdc00..=0xdfff => 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00),
                    _ => return unpaired(self),
                }
            }
            0xdc00..=0xdfff => return unpaired(self),
            code => code,
        };
        Ok(char::from_u32(code).expect("surrogates are handled above"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(d @ b'0'..=b'9') => d - b'0',
                Some(d @ b'a'..=b'f') => d - b'a' + 10,
                Some(d @ b'A'..=b'F') => d - b'A' + 10,
                _ => return Err(self.fail("expected four hex digits")),
            };
            code = code * 16 + u32::from(digit);
            self.at += 1;
        }
        Ok(code)
    }
}

// -- writing ------------------------------------------------------------------

/// `v` as compact text.
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    write(&mut out, v, &mut |_| {}, false);
    out
}

/// Append `v` to `out`, calling `gap` on each side of every bracket,
/// comma and colon (where whitespace may go). With `escape_all`, every
/// character of every string is written as a `\u` escape.
pub fn write(out: &mut String, v: &Value, gap: &mut dyn FnMut(&mut String), escape_all: bool) {
    fn punct(out: &mut String, c: char, gap: &mut dyn FnMut(&mut String)) {
        gap(out);
        out.push(c);
        gap(out);
    }
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => number(out, *x),
        Value::Text(s) => string(out, s, escape_all),
        Value::List(items) => {
            punct(out, '[', gap);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    punct(out, ',', gap);
                }
                write(out, item, gap, escape_all);
            }
            punct(out, ']', gap);
        }
        Value::Map(members) => {
            punct(out, '{', gap);
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    punct(out, ',', gap);
                }
                string(out, key, escape_all);
                punct(out, ':', gap);
                write(out, value, gap, escape_all);
            }
            punct(out, '}', gap);
        }
    }
}

/// A finite number as the service writes it.
fn number(out: &mut String, x: f64) {
    assert!(x.is_finite(), "RFC 8259 has no {x}");
    if x.fract() == 0.0 && x.abs() < 9e15 {
        if x.is_sign_negative() && x == 0.0 {
            out.push('-');
        }
        out.push_str(&(x as i64).to_string());
    } else {
        out.push_str(&format!("{x:?}"));
    }
}

fn string(out: &mut String, s: &str, escape_all: bool) {
    out.push('"');
    for c in s.chars() {
        if escape_all || c < ' ' {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else {
            if c == '"' || c == '\\' {
                out.push('\\');
            }
            out.push(c);
        }
    }
    out.push('"');
}

// -- the schema (DESIGN.md §11) ----------------------------------------------

/// A number member: RFC 8259 has no NaN or infinities, so those are `null`.
fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(x)
    } else {
        Value::Null
    }
}

fn map(members: Vec<(&str, Value)>) -> Value {
    Value::Map(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A scenario's wire object: `kind`, `machine`, then the kind's own fields.
pub fn scenario_value(s: &Scenario) -> Value {
    let (kind, m) = match s {
        Scenario::AllToAll { machine, .. } => ("all_to_all", machine),
        Scenario::ClientServer { machine, .. } => ("client_server", machine),
        Scenario::ForkJoin { machine, .. } => ("fork_join", machine),
        Scenario::SharedMemory { machine, .. } => ("shared_memory", machine),
        Scenario::General(model) => ("general", &model.machine),
    };
    let machine = map(vec![
        ("p", num(m.p as f64)),
        ("st", num(m.s_l)),
        ("so", num(m.s_o)),
        ("c2", num(m.c2)),
    ]);
    let mut members = vec![("kind", Value::Text(kind.into())), ("machine", machine)];
    match s {
        Scenario::AllToAll { w, .. } | Scenario::SharedMemory { w, .. } => {
            members.push(("w", num(*w)));
        }
        Scenario::ClientServer { w, ps, .. } => {
            members.push(("w", num(*w)));
            if let Some(ps) = ps {
                members.push(("ps", num(*ps as f64)));
            }
        }
        Scenario::ForkJoin { w, k, .. } => {
            members.push(("w", num(*w)));
            members.push(("k", num(f64::from(*k))));
        }
        Scenario::General(model) => {
            let w = model.w.iter().map(|w| w.map_or(Value::Null, num));
            let v = model
                .v
                .iter()
                .map(|row| Value::List(row.iter().map(|&x| num(x)).collect()));
            members.push(("w", Value::List(w.collect())));
            members.push(("v", Value::List(v.collect())));
            members.push(("protocol_processor", Value::Bool(model.protocol_processor)));
        }
    }
    map(members)
}

/// A prediction's wire object: every field, `NaN` and `None` as `null`.
pub fn prediction_value(p: &Prediction) -> Value {
    map(vec![
        ("r", num(p.r)),
        ("x", num(p.x)),
        ("rw", num(p.rw)),
        ("rq", num(p.rq)),
        ("ry", num(p.ry)),
        ("contention", num(p.contention)),
        ("ps", p.ps.map_or(Value::Null, |ps| num(ps as f64))),
        ("iterations", num(p.iterations as f64)),
    ])
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.member(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn number_field(v: &Value, key: &str) -> Result<f64, String> {
    match field(v, key)? {
        Value::Number(x) => Ok(*x),
        _ => Err(format!("field {key:?} must be a number")),
    }
}

/// A count: an integral number from 0 to 9e15.
fn count(v: &Value, key: &str) -> Result<u64, String> {
    let x = number_field(v, key)?;
    if x >= 0.0 && x.fract() == 0.0 && x <= 9e15 {
        Ok(x as u64)
    } else {
        Err(format!("field {key:?} must be a non-negative integer"))
    }
}

/// Decode a scenario object, or say why not: the first failing check of
/// `kind`, `machine` (`p`, `st`, `so`, `c2`), a known kind, then the
/// kind's own fields in the order the variant lists them.
pub fn scenario_of(v: &Value) -> Result<Scenario, String> {
    let Value::Text(kind) = field(v, "kind")? else {
        return Err("field \"kind\" must be a string".into());
    };
    let m = field(v, "machine")?;
    let machine = Machine {
        p: count(m, "p")? as usize,
        s_l: number_field(m, "st")?,
        s_o: number_field(m, "so")?,
        c2: number_field(m, "c2")?,
    };
    let w = || number_field(v, "w");
    Ok(match kind.as_str() {
        "all_to_all" => Scenario::AllToAll { machine, w: w()? },
        "shared_memory" => Scenario::SharedMemory { machine, w: w()? },
        "client_server" => {
            let ps = match v.member("ps") {
                None | Some(Value::Null) => None,
                Some(_) => Some(count(v, "ps")? as usize),
            };
            Scenario::ClientServer {
                machine,
                w: w()?,
                ps,
            }
        }
        "fork_join" => {
            let k = u32::try_from(count(v, "k")?).map_err(|_| "field \"k\" out of range")?;
            Scenario::ForkJoin {
                machine,
                w: w()?,
                k,
            }
        }
        "general" => {
            let Value::List(w) = field(v, "w")? else {
                return Err("field \"w\" must be an array".into());
            };
            let w = w
                .iter()
                .map(|x| match x {
                    Value::Null => Ok(None),
                    Value::Number(x) => Ok(Some(*x)),
                    _ => Err("\"w\" entries must be numbers or null"),
                })
                .collect::<Result<_, _>>()?;
            let Value::List(rows) = field(v, "v")? else {
                return Err("field \"v\" must be an array".into());
            };
            let v_matrix = rows
                .iter()
                .map(|row| match row {
                    Value::List(row) => row
                        .iter()
                        .map(|x| match x {
                            Value::Number(x) => Ok(*x),
                            _ => Err("\"v\" entries must be numbers"),
                        })
                        .collect(),
                    _ => Err("\"v\" rows must be arrays"),
                })
                .collect::<Result<_, _>>()?;
            let protocol_processor = match v.member("protocol_processor") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err("\"protocol_processor\" must be a boolean".into()),
            };
            Scenario::General(GeneralModel {
                machine,
                w,
                v: v_matrix,
                protocol_processor,
            })
        }
        other => return Err(format!("unknown scenario kind {other:?}")),
    })
}

/// Decode a prediction object, or say why not (fields in wire order).
pub fn prediction_of(v: &Value) -> Result<Prediction, String> {
    let component = |key: &str| match field(v, key)? {
        Value::Null => Ok(f64::NAN),
        Value::Number(x) => Ok(*x),
        _ => Err(format!("field {key:?} must be a number or null")),
    };
    Ok(Prediction {
        r: component("r")?,
        x: component("x")?,
        rw: component("rw")?,
        rq: component("rq")?,
        ry: component("ry")?,
        contention: component("contention")?,
        ps: match field(v, "ps")? {
            Value::Null => None,
            _ => Some(count(v, "ps")? as usize),
        },
        iterations: count(v, "iterations")? as usize,
    })
}

/// Decode a batch response, `{"predictions": [...]}`.
pub fn predictions_of(doc: &Value) -> Result<Vec<Prediction>, String> {
    match doc.member("predictions") {
        Some(Value::List(items)) => items.iter().map(prediction_of).collect(),
        _ => Err("missing \"predictions\" array".into()),
    }
}

/// Why a predict body is refused, in the order the checks apply.
#[derive(Debug, PartialEq)]
pub enum Refusal {
    /// Not an RFC 8259 text within the limits above (400).
    Syntax,
    /// `max_rel_err` is present, not `null`, and not a number in `[0, 1]` (400).
    Tolerance(String),
    /// A batch body without a `scenarios` array (400).
    NotBatch,
    /// Lane `i` is not a scenario (400).
    Decode(usize, String),
    /// Lane `i` is a scenario the model rejects (422).
    Invalid(usize, String),
}

/// The predict contract: a single body (`batch = false`) is one scenario
/// object that may carry `max_rel_err`; a batch body is `{"scenarios":
/// [...]}` with `max_rel_err` beside the array. A body gets the first
/// failing check of: its syntax, its tolerance, its `scenarios` array,
/// then the lowest lane's decode or validation error.
pub fn request(text: &str, batch: bool) -> Result<(f64, Vec<Scenario>), Refusal> {
    let doc = read(text).map_err(|_| Refusal::Syntax)?;
    let tolerance = match doc.member("max_rel_err") {
        None | Some(Value::Null) => 0.0,
        Some(Value::Number(x)) if (0.0..=1.0).contains(x) => *x,
        Some(_) => {
            let why = "field \"max_rel_err\" must be a number in [0, 1]";
            return Err(Refusal::Tolerance(why.into()));
        }
    };
    let lanes = if batch {
        match doc.member("scenarios") {
            Some(Value::List(items)) => items.as_slice(),
            _ => return Err(Refusal::NotBatch),
        }
    } else {
        std::slice::from_ref(&doc)
    };
    let mut scenarios = Vec::with_capacity(lanes.len());
    for (i, lane) in lanes.iter().enumerate() {
        let s = scenario_of(lane).map_err(|e| Refusal::Decode(i, e))?;
        s.validate()
            .map_err(|e| Refusal::Invalid(i, e.to_string()))?;
        scenarios.push(s);
    }
    Ok((tolerance, scenarios))
}
