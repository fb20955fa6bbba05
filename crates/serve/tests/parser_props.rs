//! Parser hardening: property round-trips and malformed-input fuzz for the
//! serving layer's decoders.
//!
//! Two claims, each load-bearing for an internet-facing parser:
//!
//! 1. **Round-trip**: for any JSON value the emitter can produce,
//!    `parse(render(v)) == v` — including bit-exact `f64`s — and for any
//!    scenario, `decode(encode(s)) == s`. This is what makes served
//!    predictions identical to library calls.
//! 2. **No panics**: arbitrary byte soup — random garbage, truncations, and
//!    single-byte corruptions of *valid* documents — makes every decoder
//!    (JSON, scenario codec, the HTTP parser in both directions) return an
//!    error or a different valid parse, never panic. Each fuzz case runs the
//!    decoder inside `catch_unwind` so a panic fails the test with the
//!    offending input attached.
//!
//! And for HTTP, a third: a parse does not depend on how TCP splits the
//! bytes. Dripping a message in at every chunk size and at every two-piece
//! split gives exactly what pushing it whole and polling once gives.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lopc_core::{GeneralModel, Machine, Scenario};
use lopc_serve::http::{
    write_request, write_response, HttpError, Message, Parser, Request, RequestParser, Response,
    ResponseParser,
};
use lopc_serve::json::{parse, Json};
use lopc_serve::{scenario_from_json, scenario_to_json};

mod support;
use support::corrupt;

/// A random JSON value: depth-bounded, with finite numbers drawn across
/// magnitudes (including exact integers, the emitter's special case).
fn random_json(rng: &mut SmallRng, depth: usize) -> Json {
    let choice = if depth == 0 {
        rng.random_range(0..4usize) // leaves only
    } else {
        rng.random_range(0..6usize)
    };
    match choice {
        0 => Json::Null,
        1 => Json::Bool(rng.random::<f64>() < 0.5),
        2 => {
            let mag = rng.random_range(-12.0..15.0f64);
            let x = (rng.random::<f64>() - 0.5) * 10f64.powf(mag);
            // Mix in exact integers half the time.
            Json::Num(if rng.random::<f64>() < 0.5 {
                x.trunc()
            } else {
                x
            })
        }
        3 => {
            let len = rng.random_range(0..12usize);
            Json::Str(
                (0..len)
                    .map(|_| {
                        // Printable ASCII, escapes, a control char, and a
                        // multi-byte char.
                        match rng.random_range(0..8usize) {
                            0 => '"',
                            1 => '\\',
                            2 => '\n',
                            3 => '\u{1}',
                            4 => 'é',
                            _ => (b'a' + rng.random_range(0..26usize) as u8) as char,
                        }
                    })
                    .collect(),
            )
        }
        4 => {
            let len = rng.random_range(0..5usize);
            Json::Array((0..len).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.random_range(0..5usize);
            Json::Object(
                (0..len)
                    .map(|i| (format!("k{i}"), random_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// A random valid scenario (parameters may be model-invalid — the codec
/// must round-trip them regardless; validation is the solver's job).
fn random_scenario(rng: &mut SmallRng) -> Scenario {
    let machine = Machine::new(
        rng.random_range(2..64usize),
        rng.random_range(0.0..500.0f64),
        rng.random_range(0.0..1000.0f64),
    )
    .with_c2(rng.random_range(0.0..4.0f64));
    let w = rng.random_range(0.0..5000.0f64);
    match rng.random_range(0..5usize) {
        0 => Scenario::AllToAll { machine, w },
        1 => Scenario::ClientServer {
            machine,
            w,
            ps: if rng.random::<f64>() < 0.5 {
                None
            } else {
                Some(rng.random_range(1..machine.p))
            },
        },
        2 => Scenario::ForkJoin {
            machine,
            w,
            k: rng.random_range(1..8u32),
        },
        3 => Scenario::SharedMemory { machine, w },
        _ => {
            let mut model = GeneralModel::homogeneous_all_to_all(machine, w);
            if rng.random::<f64>() < 0.3 {
                model = model.with_protocol_processor();
            }
            if rng.random::<f64>() < 0.5 {
                model.w[0] = None;
                for x in &mut model.v[0] {
                    *x = 0.0;
                }
            }
            Scenario::General(model)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Value → JSON text → value, both renderers.
    #[test]
    fn json_round_trip(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let v = random_json(&mut rng, 3);
        let pretty = parse(&v.to_pretty());
        prop_assert!(pretty.is_ok(), "pretty parse failed: {:?}", pretty);
        prop_assert_eq!(pretty.unwrap(), v.clone());
        let compact = parse(&v.to_compact());
        prop_assert!(compact.is_ok(), "compact parse failed: {:?}", compact);
        prop_assert_eq!(compact.unwrap(), v);
    }

    /// Scenario → wire object → scenario, exactly.
    #[test]
    fn scenario_round_trip(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = random_scenario(&mut rng);
        let doc = scenario_to_json(&s).to_compact();
        let parsed = parse(&doc);
        prop_assert!(parsed.is_ok(), "{}", doc);
        let back = scenario_from_json(&parsed.unwrap());
        prop_assert!(back.is_ok(), "{}", doc);
        prop_assert_eq!(back.unwrap(), s);
    }
}

/// Run a decoder on hostile input, converting panics into test failures.
fn assert_no_panic<T>(input: &[u8], what: &str, f: impl Fn(&[u8]) -> T + std::panic::UnwindSafe) {
    let owned = input.to_vec();
    let result = std::panic::catch_unwind(move || {
        f(&owned);
    });
    assert!(
        result.is_ok(),
        "{what} panicked on {:?}",
        String::from_utf8_lossy(input)
    );
}

#[test]
fn json_and_codec_fuzz_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x10bc);
    let mut seeds: Vec<Vec<u8>> = (0..20)
        .map(|i| {
            let mut vr = SmallRng::seed_from_u64(i);
            let s = random_scenario(&mut vr);
            scenario_to_json(&s).to_compact().into_bytes()
        })
        .collect();
    seeds.push(
        br#"{"kind":"all_to_all","machine":{"p":32,"st":25,"so":200,"c2":0},"w":1000}"#.to_vec(),
    );
    for round in 0..2000 {
        let base = &seeds[round % seeds.len()];
        let mutated = if round % 10 == 0 {
            // Pure garbage rounds.
            (0..rng.random_range(0..64usize))
                .map(|_| rng.random_range(0..256usize) as u8)
                .collect()
        } else {
            corrupt(base, &mut rng)
        };
        assert_no_panic(&mutated, "json/scenario decoder", |bytes| {
            if let Ok(text) = std::str::from_utf8(bytes) {
                if let Ok(doc) = parse(text) {
                    let _ = scenario_from_json(&doc);
                }
            }
        });
    }
}

#[test]
fn http_parsers_fuzz_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x477);
    let request =
        b"POST /v1/predict HTTP/1.1\r\nhost: x\r\ncontent-length: 13\r\n\r\n{\"kind\":\"x\"}!";
    let response =
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
    for round in 0..2000 {
        let (base, is_request): (&[u8], bool) = if round % 2 == 0 {
            (request, true)
        } else {
            (response, false)
        };
        let mutated = if round % 10 == 0 {
            (0..rng.random_range(0..96usize))
                .map(|_| rng.random_range(0..256usize) as u8)
                .collect()
        } else {
            corrupt(base, &mut rng)
        };
        // Both directions run through the one parser: pushed whole with
        // EOF after the input, and dripped a byte at a time.
        if is_request {
            assert_no_panic(&mutated, "http request parser", |mut bytes| {
                let _ = drip::<Request>(bytes, 1);
                let _ = RequestParser::new().read_from(&mut bytes);
            });
        } else {
            assert_no_panic(&mutated, "http response parser", |mut bytes| {
                let _ = drip::<Response>(bytes, 1);
                let _ = ResponseParser::new().read_from(&mut bytes);
            });
        }
    }
}

// -- drip vs push-all -----------------------------------------------------
//
// The reactor and the client feed the one incremental parser whatever
// fragments their sockets deliver. A parse must not depend on that split:
// dripping the bytes in, polling after every piece, must give exactly what
// pushing them all and polling once gives, or served behaviour would
// depend on TCP segmentation.

/// The oracle: every byte pushed, then one poll.
fn push_all<M: Message>(input: &[u8]) -> Result<Option<M>, HttpError> {
    let mut parser = Parser::new();
    parser.push(input);
    parser.poll()
}

/// Feed `input` in `chunk`-byte pieces, polling after every piece;
/// `Ok(None)` means the input ran out mid-message.
fn drip<M: Message>(input: &[u8], chunk: usize) -> Result<Option<M>, HttpError> {
    let mut parser = Parser::new();
    for piece in input.chunks(chunk.max(1)) {
        parser.push(piece);
        match parser.poll() {
            Ok(None) => continue,
            done => return done,
        }
    }
    Ok(None)
}

/// Feed `input` in two pieces split at byte `at`, polling after each.
fn split<M: Message>(input: &[u8], at: usize) -> Result<Option<M>, HttpError> {
    let mut parser = Parser::new();
    parser.push(&input[..at]);
    match parser.poll() {
        Ok(None) => {
            parser.push(&input[at..]);
            parser.poll()
        }
        done => done,
    }
}

/// Assert a split parse of `input` equals the push-all oracle: the same
/// message, field for field and byte for byte, or the same error, word for
/// word.
fn assert_matches_oracle<M: Message + PartialEq + std::fmt::Debug>(
    how: &str,
    input: &[u8],
    got: Result<Option<M>, HttpError>,
) {
    let oracle = push_all::<M>(input);
    match (&oracle, &got) {
        (Ok(a), Ok(b)) => assert_eq!(
            a,
            b,
            "{how}: parses differ on {:?}",
            String::from_utf8_lossy(input)
        ),
        (Err(HttpError::Bad(a)), Err(HttpError::Bad(b))) => assert_eq!(
            a,
            b,
            "{how}: error wording differs on {:?}",
            String::from_utf8_lossy(input)
        ),
        _ => panic!(
            "{how}: push-all {oracle:?} vs {got:?} on {:?}",
            String::from_utf8_lossy(input)
        ),
    }
}

fn valid_request_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = (0..10u64)
        .map(|i| {
            let mut vr = SmallRng::seed_from_u64(i);
            let body = scenario_to_json(&random_scenario(&mut vr)).to_compact();
            let mut wire = Vec::new();
            write_request(&mut wire, "POST", "/v1/predict", body.as_bytes());
            wire
        })
        .collect();
    corpus.push(b"GET /metrics HTTP/1.1\r\n\r\n".to_vec());
    corpus.push(
        b"GET /metrics?format=prom HTTP/1.1\r\naccept: text/plain\r\nconnection: close\r\n\r\n"
            .to_vec(),
    );
    corpus.push(b"GET / HTTP/1.1\nhost: x\n\n".to_vec()); // bare-LF lines
    corpus.push(b"HEAD /v1/predict? HTTP/1.1\r\nx: \xc3\xa9\r\n\r\n".to_vec());
    corpus.push(b"GET /v1/cluster HTTP/1.0\r\nConnection: TE, Keep-Alive\r\n\r\n".to_vec());
    corpus
}

fn malformed_request_corpus() -> Vec<Vec<u8>> {
    [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET /\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / HTTP/1.1 extra\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
        b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
        b"POST / HTTP/1.1\r\ncontent-length\t: 77\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello",
        b"GET / HTTP/1.1\r\ntrunc",
        b"\xff\xfe GET / HTTP/1.1\r\n\r\n",
        b"",
    ]
    .iter()
    .map(|b| b.to_vec())
    .collect()
}

fn valid_response_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = (0..10u64)
        .map(|i| {
            let mut vr = SmallRng::seed_from_u64(i);
            let body = scenario_to_json(&random_scenario(&mut vr)).to_compact();
            let mut wire = Vec::new();
            write_response(&mut wire, 200, "application/json", &body, i % 3 != 0)
                .expect("in-memory write");
            wire
        })
        .collect();
    corpus.push(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n".to_vec());
    corpus.push(b"HTTP/1.1 204\r\ncontent-length: 0\r\n\r\n".to_vec()); // no reason
    corpus.push(b"HTTP/1.0 200 OK\nconnection: keep-alive\ncontent-length: 2\n\n{}".to_vec());
    corpus.push(
        b"HTTP/1.1 500 Internal Server Error\r\nx: \xc3\xa9\r\ncontent-length: 1\r\n\r\n!".to_vec(),
    );
    corpus
}

fn malformed_response_corpus() -> Vec<Vec<u8>> {
    [
        &b"HTTP/1.1\r\n\r\n"[..],
        b"NOTHTTP 200 OK\r\ncontent-length: 0\r\n\r\n",
        b"HTTP/2 200 OK\r\ncontent-length: 0\r\n\r\n",
        b"HTTP/1.1 xyz OK\r\ncontent-length: 0\r\n\r\n",
        b"HTTP/1.1 2000 OK\r\ncontent-length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nabc",
        b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nab\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\ncontent-length\t: 2\r\n\r\nab",
        b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab",
        b"HTTP/1.1 200 OK\r\ncontent-length: 99999999\r\n\r\n",
        b"HTTP/1.1 200 OK\r\ntrunc",
        b"",
    ]
    .iter()
    .map(|b| b.to_vec())
    .collect()
}

fn request_corpus() -> Vec<Vec<u8>> {
    let mut corpus = valid_request_corpus();
    corpus.extend(malformed_request_corpus());
    corpus
}

fn response_corpus() -> Vec<Vec<u8>> {
    let mut corpus = valid_response_corpus();
    corpus.extend(malformed_response_corpus());
    corpus
}

/// Every corpus message, valid or not, dripped at every chunk size from
/// one byte (every byte boundary a resume point) to the whole input.
#[test]
fn drip_matches_push_all_at_every_chunk_size() {
    for input in request_corpus() {
        for chunk in 1..=input.len().max(1) {
            assert_matches_oracle(
                &format!("chunk={chunk}"),
                &input,
                drip::<Request>(&input, chunk),
            );
        }
    }
    for input in response_corpus() {
        for chunk in 1..=input.len().max(1) {
            assert_matches_oracle(
                &format!("chunk={chunk}"),
                &input,
                drip::<Response>(&input, chunk),
            );
        }
    }
}

/// Two-piece splits at *every* position: the resume happens exactly once,
/// at each possible boundary (start line, header, separator, body).
#[test]
fn drip_matches_push_all_for_every_two_piece_split() {
    for input in request_corpus() {
        for at in 0..=input.len() {
            assert_matches_oracle(&format!("split={at}"), &input, split::<Request>(&input, at));
        }
    }
    for input in response_corpus() {
        for at in 0..=input.len() {
            assert_matches_oracle(
                &format!("split={at}"),
                &input,
                split::<Response>(&input, at),
            );
        }
    }
    // Under the oracle, the valid corpora are complete messages and the
    // malformed ones never are.
    for input in valid_request_corpus() {
        assert!(matches!(push_all::<Request>(&input), Ok(Some(_))));
    }
    for input in valid_response_corpus() {
        assert!(matches!(push_all::<Response>(&input), Ok(Some(_))));
    }
    for input in malformed_request_corpus() {
        assert!(!matches!(push_all::<Request>(&input), Ok(Some(_))));
    }
    for input in malformed_response_corpus() {
        assert!(!matches!(push_all::<Response>(&input), Ok(Some(_))));
    }
}

/// Random corruptions of valid requests, dripped at several chunk sizes:
/// every mutation classifies as it does pushed whole.
#[test]
fn corrupted_requests_classify_identically_under_drip() {
    let mut rng = SmallRng::seed_from_u64(0xd21b);
    let corpus = valid_request_corpus();
    for round in 0..1500 {
        let mutated = corrupt(&corpus[round % corpus.len()], &mut rng);
        for chunk in [1, 3, 17] {
            assert_matches_oracle(
                &format!("chunk={chunk}"),
                &mutated,
                drip::<Request>(&mutated, chunk),
            );
        }
    }
}

/// The same for responses.
#[test]
fn corrupted_responses_classify_identically_under_drip() {
    let mut rng = SmallRng::seed_from_u64(0x5e5b);
    let corpus = valid_response_corpus();
    for round in 0..1500 {
        let mutated = corrupt(&corpus[round % corpus.len()], &mut rng);
        for chunk in [1, 3, 17] {
            assert_matches_oracle(
                &format!("chunk={chunk}"),
                &mutated,
                drip::<Response>(&mutated, chunk),
            );
        }
    }
}

/// Pipelined keep-alive traffic: several messages dripped a byte at a time
/// through one parser come out identical to polling the whole stream
/// pushed at once, for requests and responses alike.
#[test]
fn pipelined_requests_drip_out_in_order() {
    fn assert_pipelines<M: Message + PartialEq + std::fmt::Debug>(corpus: &[Vec<u8>]) {
        let stream: Vec<u8> = corpus.iter().flatten().copied().collect();
        let mut parser = Parser::<M>::new();
        parser.push(&stream);
        let mut oracle = Vec::new();
        while let Some(message) = parser.poll().expect("valid stream") {
            oracle.push(message);
        }
        assert_eq!(oracle.len(), corpus.len());

        let mut parser = Parser::<M>::new();
        let mut dripped = Vec::new();
        for byte in &stream {
            parser.push(std::slice::from_ref(byte));
            while let Some(message) = parser.poll().expect("valid stream") {
                dripped.push(message);
            }
        }
        assert_eq!(dripped, oracle);
        assert!(!parser.mid_message(), "stream must end at a boundary");
    }
    assert_pipelines::<Request>(&valid_request_corpus());
    assert_pipelines::<Response>(&valid_response_corpus());
}

/// Corruptions of a *valid* scenario document must decode, or fail with an
/// error — and whenever they decode, re-encoding must round-trip (no
/// half-parsed state).
#[test]
fn corrupted_scenarios_decode_or_error_cleanly() {
    let mut rng = SmallRng::seed_from_u64(7);
    let base = br#"{"kind":"client_server","machine":{"p":16,"st":50.0,"so":131.0,"c2":0.0},"w":1000.0,"ps":3}"#;
    let mut decoded = 0u32;
    for _ in 0..3000 {
        let mutated = corrupt(base, &mut rng);
        if let Ok(text) = std::str::from_utf8(&mutated) {
            if let Ok(doc) = parse(text) {
                if let Ok(s) = scenario_from_json(&doc) {
                    decoded += 1;
                    let again =
                        scenario_from_json(&parse(&scenario_to_json(&s).to_compact()).unwrap());
                    assert_eq!(again.unwrap(), s);
                }
            }
        }
    }
    // Some corruptions (e.g. digit flips) still decode — that's fine, they
    // are different but valid requests. The point is nothing in between.
    assert!(
        decoded > 0,
        "corruption harness too aggressive to be useful"
    );
}
