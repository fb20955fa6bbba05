//! The workspace's shared hand-rolled JSON: one tokenizer, one number
//! emitter, and the [`Json`] value tree built on them.
//!
//! The build container has no serde, so JSON support is written out by hand.
//! It started life inside `lopc_bench::baseline` (the `BENCH_sim.json`
//! persistence layer) and moved here when the serving layer needed the same
//! machinery for its wire format; `lopc_bench::baseline` now re-uses this
//! module, so there is exactly one JSON implementation in the tree.
//!
//! * **The tokenizer.** `Tokens` is a cursor over a document's bytes that
//!   reads punctuation, strings (borrowed when they hold no escape),
//!   numbers and literals, and skips any value. The grammar, its error
//!   texts and the nesting bound live here once. The scenario schema
//!   (`codec`) decodes straight from it and encodes through `write_num`,
//!   so the predict path builds no [`Json`] value.
//! * **The value tree.** [`parse`] builds a [`Json`] value on the same
//!   tokenizer, and [`Json::to_compact`] / [`Json::to_pretty`] render one.
//!   `/metrics`, `/v1/cluster`, error bodies, `BENCH_sim.json` and the
//!   codec's `Json` adapters use it.
//!
//! Subset implemented: objects, arrays, strings, finite numbers, booleans,
//! `null`. Numbers follow RFC 8259's grammar on input and are emitted in
//! shortest round-trip form by this module's own writer (a Ryu-style digit
//! search whose output is byte-identical to `format!("{x:?}")`, at about
//! half its cost), so `parse(render(x))` is `x`
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
/// in shortest round-trip form, non-finite values as `null`. The bytes are
/// `format!("{}", x as i64)` (with `-0.0` as `-0`) and `format!("{x:?}")`
/// respectively; `crates/serve/tests/number_table.rs` pins both against std.
pub(crate) fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; the codec layer maps null back to NaN.
        out.push_str("null");
        return;
    }
    let mut buf = [0u8; 32];
    let abs = x.abs();
    // `abs as u64` truncates, so the round trip holds iff `x` is integral.
    let len = if abs < 9e15 && (abs as u64) as f64 == abs {
        let sign = usize::from(x.is_sign_negative());
        buf[0] = b'-';
        let v = abs as u64;
        let len = digit_count(v);
        put_digits(&mut buf[sign..sign + len], v);
        sign + len
    } else {
        write_shortest(&mut buf, x)
    };
    out.push_str(std::str::from_utf8(&buf[..len]).expect("ASCII digits"));
}

/// Write `x`'s `{:?}` form (finite, nonzero `x`) into `buf`, returning its
/// length: the shortest digits that round-trip, as a decimal when
/// `1e-4 <= |x| < 1e16` and in exponent form (`1e16`, `2.5e-5`) otherwise.
fn write_shortest(buf: &mut [u8; 32], x: f64) -> usize {
    let mut n = usize::from(x.is_sign_negative());
    buf[0] = b'-';
    let abs = x.abs();
    let (digits, e10) = shortest_digits(abs.to_bits());
    let len = digit_count(digits);
    // The decimal point sits `point` digits into the digit string.
    let point = len as i32 + e10;
    if !(1e-4..1e16).contains(&abs) {
        // d.ddde-x: write the digits one place right, then move the first
        // one left over the point.
        put_digits(&mut buf[n + 1..n + 1 + len], digits);
        buf[n] = buf[n + 1];
        n += 1;
        if len > 1 {
            buf[n] = b'.';
            n += len;
        }
        buf[n] = b'e';
        n += 1;
        let exp = point - 1;
        if exp < 0 {
            buf[n] = b'-';
            n += 1;
        }
        let exp = u64::from(exp.unsigned_abs());
        let elen = digit_count(exp);
        put_digits(&mut buf[n..n + elen], exp);
        n + elen
    } else if point <= 0 {
        // 0.000ddd
        let zeros = (2 - point) as usize;
        buf[n..n + zeros].fill(b'0');
        buf[n + 1] = b'.';
        n += zeros;
        put_digits(&mut buf[n..n + len], digits);
        n + len
    } else if (point as usize) < len {
        // ddd.ddd: write the digits, then move the fraction one place right.
        let at = n + point as usize;
        put_digits(&mut buf[n..n + len], digits);
        for i in (at..n + len).rev() {
            buf[i + 1] = buf[i];
        }
        buf[at] = b'.';
        n + len + 1
    } else {
        // ddd000.0
        put_digits(&mut buf[n..n + len], digits);
        let end = n + point as usize;
        buf[n + len..end].fill(b'0');
        buf[end..end + 2].copy_from_slice(b".0");
        end + 2
    }
}

/// Decimal digits of `v` (1 for 0).
fn digit_count(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Fill `buf` with the last `buf.len()` decimal digits of `v` (which must
/// have no more), zero-padded. Eight digits take one 64-bit division and
/// then two independent four-digit halves, so the chain of dependent
/// divisions stays short.
fn put_digits(buf: &mut [u8], mut v: u64) {
    let mut i = buf.len();
    while i >= 8 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        put_pairs(&mut buf[i - 8..i - 4], low / 10_000);
        put_pairs(&mut buf[i - 4..i], low % 10_000);
        i -= 8;
    }
    let mut v = v as u32;
    if i >= 4 {
        put_pairs(&mut buf[i - 4..i], v % 10_000);
        v /= 10_000;
        i -= 4;
    }
    if i >= 2 {
        put_pairs(&mut buf[i - 2..i], v % 100);
        v /= 100;
        i -= 2;
    }
    if i == 1 {
        buf[0] = b'0' + v as u8;
    }
}

/// Write `v < 10^buf.len()` into the two or four bytes of `buf`.
fn put_pairs(buf: &mut [u8], v: u32) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let (hi, lo) = ((v / 100) as usize * 2, (v % 100) as usize * 2);
    let n = buf.len();
    buf[n - 2..].copy_from_slice(&PAIRS[lo..lo + 2]);
    if n == 4 {
        buf[..2].copy_from_slice(&PAIRS[hi..hi + 2]);
    }
}

// -- shortest round-trip digits ----------------------------------------------
//
// Ryu (Adams, "Ryū: fast float-to-string conversion", PLDI 2018): scale the
// double and the two ends of its rounding interval by one 128-bit power of
// five, then drop decimal digits while the interval still holds a shorter
// number. The power-of-five tables are computed at compile time below with
// a small fixed-width bigint.

/// Bits kept of each `5^i` (and of each `2^k / 5^i`) in the tables.
const POW5_BITS: i32 = 125;
/// `5^i` for `i < 326`, scaled to exactly [`POW5_BITS`] bits, as `[lo, hi]`.
static POW5: [[u64; 2]; 326] = pow5_table();
/// `floor(2^(bitlen(5^i) - 1 + POW5_BITS) / 5^i) + 1` for `i < 342`.
static POW5_INV: [[u64; 2]; 342] = pow5_inv_table();

/// Bits `[shift, shift + 128)` of the little-endian bigint `big`.
const fn window<const N: usize>(big: &[u64; N], shift: usize) -> u128 {
    let mut out = 0u128;
    let mut bit = 0;
    while bit < 128 {
        let at = shift + bit;
        if at / 64 < N && (big[at / 64] >> (at % 64)) & 1 == 1 {
            out |= 1 << bit;
        }
        bit += 1;
    }
    out
}

const fn pow5_table() -> [[u64; 2]; 326] {
    let mut out = [[0; 2]; 326];
    let mut pow = [0u64; 12]; // 5^325 < 2^755
    pow[0] = 1;
    let mut i = 0;
    while i < out.len() {
        let len = pow5_bits(i as i32);
        let top = if len >= POW5_BITS {
            window(&pow, (len - POW5_BITS) as usize)
        } else {
            window(&pow, 0) << (POW5_BITS - len)
        };
        out[i] = [top as u64, (top >> 64) as u64];
        // pow *= 5
        let mut carry = 0;
        let mut j = 0;
        while j < pow.len() {
            let t = pow[j] as u128 * 5 + carry;
            pow[j] = t as u64;
            carry = t >> 64;
            j += 1;
        }
        i += 1;
    }
    out
}

const fn pow5_inv_table() -> [[u64; 2]; 342] {
    // quot = floor(2^K / 5^i), carried from one i to the next by dividing
    // by 5 (floor(floor(a) / 5) = floor(a / 5)); K covers the largest
    // numerator, 2^(bitlen(5^341) - 1 + POW5_BITS) = 2^916.
    const K: usize = 1000;
    let mut out = [[0; 2]; 342];
    let mut quot = [0u64; 16];
    quot[K / 64] = 1 << (K % 64);
    let mut i = 0;
    while i < out.len() {
        let numerator_bits = (pow5_bits(i as i32) - 1 + POW5_BITS) as usize;
        let inv = window(&quot, K - numerator_bits) + 1;
        out[i] = [inv as u64, (inv >> 64) as u64];
        // quot /= 5
        let mut rem = 0;
        let mut j = quot.len();
        while j > 0 {
            j -= 1;
            let t = (rem << 64) | quot[j] as u128;
            quot[j] = (t / 5) as u64;
            rem = t % 5;
        }
        i += 1;
    }
    out
}

/// `ceil(log2(5^e))`, the bit length of `5^e`, for `0 <= e <= 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `(m · mul) >> j` for a 128-bit `mul`, `j >= 64`.
fn mul_shift(m: u64, mul: [u64; 2], j: i32) -> u64 {
    let lo = m as u128 * mul[0] as u128;
    let hi = m as u128 * mul[1] as u128;
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, e10)` with `digits · 10^e10` inside the
/// rounding interval of the positive finite double with bit pattern
/// `bits`, nearest to it, ties rounded up as std's `{:?}` rounds them.
fn shortest_digits(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = (bits >> 52) as i32;
    // Two extra bits so the interval ends are integers too.
    let (e2, m2) = if exponent == 0 {
        (1 - 1023 - 52 - 2, mantissa)
    } else {
        (exponent - 1023 - 52 - 2, (1 << 52) | mantissa)
    };
    // Round-half-even parsing accepts the interval ends of an even mantissa.
    let accept_ends = m2 & 1 == 0;
    let mv = 4 * m2;
    // The interval below a power of two is half as wide.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    let (mut vr, mut vp, mut vm, e10);
    // Whether the lower end, scaled, is exactly `vm` (no digits dropped).
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let mul = POW5_INV[q as usize];
        let j = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 21 {
            // At most one of mp, mv, mm is a multiple of 5.
            if mv.is_multiple_of(5) {
                // mv exact: only matters for round-half-even, which std's
                // `{:?}` does not do.
            } else if accept_ends {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let mul = POW5[i as usize];
        let j = q as i32 - (pow5_bits(i) - POW5_BITS);
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 1 {
            // mm has one trailing zero bit iff mm_shift is 1; mp always has.
            if accept_ends {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while a shorter number still fits in [vm, vp], two at a
    // time first (most doubles shed two or three).
    let mut removed = 0;
    let mut last = 0;
    if vp / 100 > vm / 100 {
        vm_exact &= vm.is_multiple_of(100);
        last = vr % 100 / 10;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed = 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm.is_multiple_of(10);
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        // The lower end is itself a shorter number and may be taken.
        while vm.is_multiple_of(10) {
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round vr to nearest (an exact half rounds up), and step inside the
    // interval when vr is its excluded lower end.
    let up = (vr == vm && !(accept_ends && vm_exact)) || last >= 5;
    (vr + u64::from(up), e10 + removed)
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
