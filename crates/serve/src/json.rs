//! The workspace's shared hand-rolled JSON: one tokenizer, one number
//! emitter, and the [`Json`] value tree built on them.
//!
//! The build container has no serde, so JSON support is written out by hand.
//! It started life inside `lopc_bench::baseline` (the `BENCH_sim.json`
//! persistence layer) and moved here when the serving layer needed the same
//! machinery for its wire format; `lopc_bench::baseline` now re-uses this
//! module, so there is exactly one JSON implementation in the tree.
//!
//! Two layers share it:
//!
//! * **The wire path.** `Tokens` is the one tokenizer: a cursor over a
//!   document's bytes that reads punctuation, strings (borrowed when they
//!   hold no escape), numbers and literals, and skips any value. The
//!   grammar, its error texts and the nesting bound live here once. The
//!   predict endpoints and the client decode straight from it and encode
//!   through `write_num` (see `codec`); no [`Json`] value is built.
//! * **The tree API.** [`parse`] builds a [`Json`] value on the same
//!   tokenizer, and [`Json::to_compact`] / [`Json::to_pretty`] render one.
//!   `/metrics`, `/v1/cluster`, error bodies, `BENCH_sim.json`, `perfbench/`
//!   and the tests use it.
//!
//! Subset implemented: objects, arrays, strings, finite numbers, booleans,
//! `null`. Numbers follow RFC 8259's grammar on input and are emitted with
//! Rust's shortest-round-trip formatting, so `parse(render(x))` is `x`
//! bit for bit for every finite `f64`, `-0.0` included — the property that
//! lets the service return *identical* numbers to a direct library call
//! (and that the proptest round-trip suite pins). Non-finite numbers cannot
//! be represented; the emitter writes `null` for them and the scenario
//! codec treats `null` as `NaN` where a component is undefined.
//!
//! The tokenizer never panics on malformed input — every error path returns
//! `Err` (the fuzz tests feed it mutated and truncated documents).

use std::borrow::Cow;
use std::fmt::Write as _;

/// JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Number (non-finite values render as `null`).
    Num(f64),
    /// String (only `"` and `\` and control characters are escaped).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True when this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Render as a pretty-printed document (two-space indentation).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out
    }

    /// Render compactly (no newlines) — the wire format of the service.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact(&mut out);
        out
    }

    /// Append the pretty form to `out` at the given indentation level.
    pub fn render(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => render_str(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.render(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Object(kv) => {
                if kv.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in kv.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    render_str(out, k);
                    out.push_str(": ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < kv.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    fn render_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => render_str(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact(out);
                }
                out.push(']');
            }
            Json::Object(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(out, k);
                    out.push(':');
                    v.render_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// The one number emitter: integral values below 9e15 as integers, others
/// in shortest round-trip form, non-finite values as `null`.
pub(crate) fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; the codec layer maps null back to NaN.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9e15 {
        // `as i64` drops the sign of -0.0.
        if x == 0.0 && x.is_sign_negative() {
            out.push('-');
        }
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:?}");
    }
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            // RFC 8259: all other control characters must be \u-escaped or
            // the document is invalid JSON.
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document into a [`Json`] tree.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut t = Tokens::new(text);
    let value = parse_value(&mut t, 0)?;
    t.end()?;
    Ok(value)
}

fn parse_value(t: &mut Tokens<'_>, depth: usize) -> Result<Json, String> {
    Ok(match t.value(depth)? {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Num(x) => Json::Num(x),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::Object => {
            let mut kv = Vec::new();
            t.members(|t, key| {
                kv.push((key.into_owned(), parse_value(t, depth + 1)?));
                Ok(())
            })?;
            Json::Object(kv)
        }
        Token::Array => {
            let mut items = Vec::new();
            t.items(|t| {
                items.push(parse_value(t, depth + 1)?);
                Ok(())
            })?;
            Json::Array(items)
        }
    })
}

/// Nesting bound: malformed input cannot recurse the parser off the stack.
const MAX_DEPTH: usize = 128;

/// The start of one value, as [`Tokens::value`] reads it: a whole scalar,
/// or the opening bracket of a container whose contents come next.
pub(crate) enum Token<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    /// `{` was consumed; read the members with [`Tokens::members`].
    Object,
    /// `[` was consumed; read the items with [`Tokens::items`].
    Array,
}

/// The one JSON tokenizer: a cursor over a document.
///
/// A reader calls [`Tokens::value`] where a value must start, passing its
/// nesting depth (0 for the document itself, one more per enclosing
/// container), then either reads the container it opened with
/// [`Tokens::members`] / [`Tokens::items`] or discards the rest with
/// [`Tokens::skip`]; [`Tokens::end`] checks nothing trails the document.
/// Every error is a syntax error, worded the same for every reader.
pub(crate) struct Tokens<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Tokens<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Tokens { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let b = self.text.as_bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// Skip whitespace and consume `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes().get(self.pos) == Some(&c);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Read the start of a value `depth` containers deep.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Token<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        let rest = &self.text.as_bytes()[self.pos..];
        let (token, len) = match rest.first() {
            None => return Err("unexpected end of input".into()),
            Some(b'{') => (Token::Object, 1),
            Some(b'[') => (Token::Array, 1),
            Some(b'"') => return self.string().map(Token::Str),
            Some(b'-' | b'0'..=b'9') => return self.number().map(Token::Num),
            Some(b't') if rest.starts_with(b"true") => (Token::Bool(true), 4),
            Some(b'f') if rest.starts_with(b"false") => (Token::Bool(false), 5),
            Some(b'n') if rest.starts_with(b"null") => (Token::Null, 4),
            Some(_) => return Err(format!("unexpected byte at {}", self.pos)),
        };
        self.pos += len;
        Ok(token)
    }

    /// Read the members of the object [`Tokens::value`] just opened: `f`
    /// gets each key and must consume that member's value.
    pub(crate) fn members(
        &mut self,
        mut f: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = match self.text.as_bytes().get(self.pos) {
                Some(b'"') => self.string()?,
                None => return Err("unexpected end of input".into()),
                Some(_) => return Err(format!("expected a string key at byte {}", self.pos)),
            };
            if !self.eat(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            f(self, key)?;
            if self.eat(b'}') {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or '}}' at byte {}", self.pos));
            }
        }
    }

    /// Read the items of the array [`Tokens::value`] just opened: each
    /// call of `f` must consume one item.
    pub(crate) fn items(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            f(self)?;
            if self.eat(b']') {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.pos));
            }
        }
    }

    /// Skip one whole value `depth` containers deep, checking its syntax.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), String> {
        let token = self.value(depth)?;
        self.skip(token, depth)
    }

    /// Skip the rest of a value `depth` deep whose start was `token`.
    pub(crate) fn skip(&mut self, token: Token<'a>, depth: usize) -> Result<(), String> {
        match token {
            Token::Object => self.members(|t, _| t.skip_value(depth + 1)),
            Token::Array => self.items(|t| t.skip_value(depth + 1)),
            _ => Ok(()),
        }
    }

    /// Check that only whitespace follows the document.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// A string, at its opening quote, by RFC 8259 §7. Borrowed from the
    /// document unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let b = self.text.as_bytes();
        let start = self.pos + 1;
        let stop = |from: usize| {
            b[from..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .map_or(b.len(), |i| from + i)
        };
        // Quotes, backslashes and control bytes are ASCII, so every cut
        // below falls on a character boundary of the (valid UTF-8) document.
        let mut pos = stop(start);
        if b.get(pos) == Some(&b'"') {
            self.pos = pos + 1;
            return Ok(Cow::Borrowed(&self.text[start..pos]));
        }
        let mut s = String::from(&self.text[start..pos]);
        loop {
            match b.get(pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos = pos + 1;
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    pos += 1;
                    match b.get(pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = hex4(b, pos + 1)?;
                            pos += 4;
                            // A code point past the BMP is a high surrogate
                            // escape followed by a low one.
                            if (0xd800..0xdc00).contains(&code) {
                                let low = match b.get(pos + 1..pos + 3) {
                                    Some(b"\\u") => hex4(b, pos + 3)?,
                                    _ => 0,
                                };
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(format!("unpaired surrogate \\u{code:04x}"));
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                pos += 6;
                            }
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("unpaired surrogate \\u{code:04x}"))?,
                            );
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    pos += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("unescaped control byte {c:#04x} in string"));
                }
                Some(_) => {
                    let end = stop(pos);
                    s.push_str(&self.text[pos..end]);
                    pos = end;
                }
            }
        }
    }

    /// A number, at its first byte, by RFC 8259 §6:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<f64, String> {
        let b = self.text.as_bytes();
        let start = self.pos;
        let digits = |mut i: usize| {
            while b.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            i
        };
        let bad = || format!("bad number at byte {start}");
        let mut i = start + usize::from(b[start] == b'-');
        i = match b.get(i) {
            Some(b'0') => i + 1,
            Some(b'1'..=b'9') => digits(i + 1),
            _ => return Err(bad()),
        };
        if b.get(i) == Some(&b'.') {
            let end = digits(i + 1);
            if end == i + 1 {
                return Err(bad());
            }
            i = end;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let end = digits(i);
            if end == i {
                return Err(bad());
            }
            i = end;
        }
        let s = &self.text[start..i];
        let x = s
            .parse::<f64>()
            .map_err(|e| format!("bad number {s:?}: {e}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number {s:?}"));
        }
        self.pos = i;
        Ok(x)
    }
}

/// The four ASCII hex digits of a `\u` escape, starting at byte `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |code, &d| {
        let digit = char::from(d).to_digit(16);
        Ok(code * 16 + digit.ok_or_else(|| format!("bad \\u escape at byte {at}"))?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let v = Json::Object(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x \"y\" \\z \t \r \n \u{1} é".into())),
            (
                "c".into(),
                Json::Array(vec![Json::Bool(true), Json::Null, Json::Num(-3.0)]),
            ),
            ("d".into(), Json::Object(vec![])),
            ("e".into(), Json::Array(vec![])),
        ]);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("+").is_err());
        assert!(parse("1e999").is_err(), "overflow to inf must be rejected");
        // RFC 8259 §6 number grammar.
        for lax in ["1.", ".5", "+1", "01", "1.e5"] {
            assert!(parse(lax).is_err(), "{lax}");
            assert!(parse(&format!("[{lax}]")).is_err(), "[{lax}]");
        }
    }

    /// RFC 8259 §7: the two-character escapes include `\b` and `\f`, a code
    /// point past the BMP is a surrogate pair, `\u` takes exactly four hex
    /// digits, and control characters must be escaped.
    #[test]
    fn strings_follow_rfc_8259() {
        for (doc, want) in [
            (r#""a\bb\fc""#, "a\u{8}b\u{c}c"),
            (r#""\ud83d\ude00""#, "😀"),
            (r#""x\uD83D\uDE00y""#, "x😀y"),
            (r#""\u00e9\u0041""#, "éA"),
            ("\"\u{7f}é\"", "\u{7f}é"),
        ] {
            assert_eq!(parse(doc), Ok(Json::Str(want.into())), "{doc}");
        }
        for doc in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00é""#,
            r#""\u12""#,
            "\"a\tb\"",
            "\"a\u{0}b\"",
            "\"\\n\tb\"",
            "\"\\n\u{1f}\"",
        ] {
            assert!(parse(doc).is_err(), "{doc:?} must be rejected");
            // A string is one code path wherever it sits.
            assert!(parse(&format!("{{{doc}:1}}")).is_err(), "key {doc:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let doc = "[".repeat(100_000);
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn numbers_round_trip_precisely() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            123456789.0,
            1.25e-9,
            6.02e23,
            0.1 + 0.2,
        ] {
            let mut s = String::new();
            Json::Num(x).render(&mut s, 0);
            let back = parse(&s).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"s": "x", "b": true, "a": [1, 2], "n": null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("n").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_num(), None);
    }
}
