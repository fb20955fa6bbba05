//! Numbers on the wire, checked against std alone.
//!
//! `codec_props` compares the wire path with the `Json` tree, but both are
//! built on the same `json.rs`, so a fault in the number writer or the
//! tokenizer moves both sides at once. Here every expectation comes from
//! the standard library instead:
//!
//! * what a literal means is `str::parse::<f64>`'s bits;
//! * what a number renders as is `format!("{}", x as i64)` for integral
//!   values below 9e15 (with `-0.0` as `-0`) and `format!("{x:?}")`
//!   otherwise, `null` when not finite;
//! * a literal outside RFC 8259's grammar (or one that overflows) is a 400.
//!
//! The table runs through `Service::handle` (decode, solve, encode) and
//! through the writer (`Json::Num`). The writer's oracle adds random bit
//! patterns: a debug-sized count under `cargo test`, at least 10^7 in
//! release (`cargo test --release --test number_table`).

use lopc_core::{Machine, Prediction, Scenario};
use lopc_serve::{parse, Json, Service};

/// Valid JSON number literals at the edges of the writer and the parser.
const TABLE: &[&str] = &[
    "0",
    "-0",
    "0.0",
    "-0.0",
    // The smallest subnormal, spelled shortest and long.
    "5e-324",
    "4.9406564584124654e-324",
    // The largest subnormal and the smallest normal.
    "2.225073858507201e-308",
    "2.2250738585072014e-308",
    "1.7976931348623157e308",
    "-1.7976931348623157e308",
    // 2^53 - 1, 2^53, 2^53 + 1 (parses to 2^53), 2^53 + 2.
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "9007199254740994",
    // The writer's integer cut-over at 9e15.
    "8999999999999999",
    "9e15",
    "9000000000000000",
    "9000000000000001",
    "-9000000000000001",
    "9999999999999998",
    // The switch to exponent form at 1e16.
    "1e16",
    "10000000000000000",
    "1.0000000000000002e16",
    "123456789012345680",
    // The switch to exponent form below 1e-4.
    "1e-5",
    "0.00001",
    "1e-4",
    "0.0001",
    "9.999999999999999e-5",
    "0.00010000000000000002",
    // 0.1 + 0.2 and its neighbours.
    "0.1",
    "0.2",
    "0.30000000000000004",
    "0.3",
    "0.1000000000000000055511151231257827",
    // 17 significant digits.
    "1.2345678901234567",
    "12345678901234567",
    "2.718281828459045",
    "3.141592653589793",
    "123456789.12345679",
    "1.7976931348623157e-300",
    // Exact halves at 17 digits: std breaks these ties upward.
    "1100000000000000.25",
    "2251799813685247.75",
    // Exponent spellings.
    "1E5",
    "1e+5",
    "-1.5E-7",
    "25",
    "777.7",
];

/// Literals RFC 8259 does not allow, or that overflow to infinity.
const LAX: &[&str] = &[
    "1.",
    ".5",
    "+1",
    "01",
    "-01",
    "1.e5",
    "1e",
    "1e+",
    "-",
    "--1",
    "0x10",
    "1_000",
    "Infinity",
    "-Infinity",
    "NaN",
    "1e999",
    "-1e999",
];

/// The bytes std says the writer must produce for `x`.
fn std_bytes(x: f64) -> String {
    if !x.is_finite() {
        "null".into()
    } else if x.fract() == 0.0 && x.abs() < 9e15 {
        let sign = if x.is_sign_negative() { "-" } else { "" };
        format!("{sign}{}", (x as i64).unsigned_abs())
    } else {
        format!("{x:?}")
    }
}

/// Render `x` through the writer and check it against std: the bytes, and
/// that std and the tokenizer both read them back to `x`'s bits.
fn check_writer(x: f64) {
    let got = Json::Num(x).to_compact();
    let want = std_bytes(x);
    assert_eq!(got, want, "bits {:#018x}", x.to_bits());
    if x.is_finite() {
        assert_eq!(
            want.parse::<f64>().unwrap().to_bits(),
            x.to_bits(),
            "{want}"
        );
        let back = parse(&got).unwrap().as_num().unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{got}");
    }
}

fn machine() -> Machine {
    Machine::new(8, 25.0, 200.0).with_c2(0.0)
}

const MACHINE: &str = r#""machine":{"p":8,"st":25,"so":200,"c2":0}"#;

/// The response body std says a prediction encodes to.
fn std_prediction(p: &Prediction) -> String {
    let fields = [
        ("r", p.r),
        ("x", p.x),
        ("rw", p.rw),
        ("rq", p.rq),
        ("ry", p.ry),
        ("contention", p.contention),
        ("ps", p.ps.map_or(f64::NAN, |ps| ps as f64)),
        ("iterations", p.iterations as f64),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, x)| format!("\"{k}\":{}", std_bytes(*x)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[test]
fn the_table_renders_std_bytes() {
    for literal in TABLE {
        let x: f64 = literal.parse().unwrap();
        check_writer(x);
        check_writer(-x);
    }
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        check_writer(x);
    }
}

#[test]
fn the_table_through_the_service() {
    // One node for the whole table: the exact cache answers a row only
    // with the solve of the very `W` it decodes to, so neighbours such as
    // 2^53 - 1 and 2^53 each get their own.
    let service = Service::new(4, 64);
    for literal in TABLE {
        let x: f64 = literal.parse().unwrap();
        let body = format!(r#"{{"kind":"all_to_all",{MACHINE},"w":{literal}}}"#);
        let reply = service.handle("POST", "/v1/predict", body.as_bytes());
        // The answer is the library's answer for the scenario std decodes.
        let scenario = Scenario::AllToAll {
            machine: machine(),
            w: x,
        };
        let want = scenario
            .validate()
            .and_then(|()| lopc_core::scenario::solve(&scenario));
        match want {
            Ok(p) => {
                assert_eq!(reply.status, 200, "{literal}: {}", reply.body);
                assert_eq!(reply.body, std_prediction(&p), "{literal}");
            }
            Err(e) => assert_eq!(reply.status, 422, "{literal} ({e}): {}", reply.body),
        }
        // The same literal inside a batch lane and as the tolerance.
        let batch = format!(r#"{{"scenarios":[{body}]}}"#);
        let reply = service.handle("POST", "/v1/predict/batch", batch.as_bytes());
        assert_ne!(reply.status, 400, "{literal}: {}", reply.body);
        let tolerant =
            format!(r#"{{"kind":"all_to_all",{MACHINE},"w":1000,"max_rel_err":{literal}}}"#);
        let reply = service.handle("POST", "/v1/predict", tolerant.as_bytes());
        let status = if (0.0..=1.0).contains(&x) { 200 } else { 400 };
        assert_eq!(
            reply.status, status,
            "max_rel_err {literal}: {}",
            reply.body
        );
    }
}

#[test]
fn lax_numbers_are_400() {
    let service = Service::new(4, 64);
    for literal in LAX {
        let single = format!(r#"{{"kind":"all_to_all",{MACHINE},"w":{literal}}}"#);
        let batch = format!(r#"{{"scenarios":[{single}]}}"#);
        let tolerant =
            format!(r#"{{"kind":"all_to_all",{MACHINE},"w":1,"max_rel_err":{literal}}}"#);
        for (path, body) in [
            ("/v1/predict", &single),
            ("/v1/predict/batch", &batch),
            ("/v1/predict", &tolerant),
        ] {
            let reply = service.handle("POST", path, body.as_bytes());
            assert_eq!(reply.status, 400, "{body}: {}", reply.body);
        }
    }
}

/// SplitMix64: the random bit patterns of the writer's oracle.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The writer against `format!("{x:?}")`: the table, every power of two
/// and of ten, the neighbours of each, exact halves at 16–17 digits (ties),
/// integers past 2^53, short decimals, and uniformly random bit patterns.
#[test]
fn writer_matches_std_on_edges_and_random_bits() {
    let random = if cfg!(debug_assertions) {
        600_000
    } else {
        10_000_000
    };
    let with_neighbours = |x: f64| {
        let b = x.to_bits();
        for bits in [b.saturating_sub(1), b, b + 1] {
            check_writer(f64::from_bits(bits));
        }
    };
    for literal in TABLE {
        with_neighbours(literal.parse().unwrap());
    }
    for e in -1074..=1023 {
        with_neighbours(2f64.powi(e));
    }
    for e in -323..=308 {
        with_neighbours(format!("1e{e}").parse().unwrap());
    }
    let mut rng = SplitMix(0x1234_5678);
    for _ in 0..random / 20 {
        // m / 2^k with 16–17 digits: the exact decimal ends in 5 one digit
        // past the shortest length, a tie std rounds up.
        let m = (1u64 << 50) + rng.next() % (3 << 50);
        let k = 1 + rng.next() % 4;
        check_writer(m as f64 / (1u64 << k) as f64);
        // Integers past 2^53 and short decimals.
        check_writer((rng.next() >> (rng.next() % 11)) as f64);
        let short = format!(
            "{}e{}",
            rng.next() % 1_000_000,
            (rng.next() % 80) as i64 - 40
        );
        check_writer(short.parse::<f64>().unwrap());
    }
    let mut checked = 0;
    while checked < random {
        let x = f64::from_bits(rng.next());
        if x.is_finite() {
            check_writer(x);
            checked += 1;
        }
    }
}
