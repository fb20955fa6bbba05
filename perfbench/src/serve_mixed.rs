//! `serve_mixed`: one in-process node on its default `ServerConfig`, two
//! client connections.
//!
//! * Connection A sends exact single `POST /v1/predict` requests on an
//!   open-loop Poisson schedule, each timed from its due time. Singles come
//!   from a Zipf-popular closed-form pool larger than the default 4096-entry
//!   cache: most are repeats, some are float-noise near-repeats in a hot
//!   entry's 6-significant-digit bucket, some are fresh keys.
//! * Connection B sends 64-lane exact batches (pool, `General` and fresh
//!   lanes) on its own open-loop schedule, so they take the worker-pool and
//!   SoA-solver path while the singles run.
//! * A closed-loop saturation phase on both connections follows.
//!
//! The traced run adds open-loop slices alternately with and without spans,
//! then replays requests of the same mix through the public functions of
//! each serving layer in pipeline order.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lopc_core::{GeneralModel, Machine, Prediction, Scenario};
use lopc_serve::cache::CacheKey;
use lopc_serve::codec::{
    max_rel_err_from_json, prediction_from_json, prediction_to_json, scenario_from_json,
    scenario_to_json,
};
use lopc_serve::http::{write_response, RequestParser};
use lopc_serve::server::{start, ServerConfig, ServerHandle};
use lopc_serve::{parse, predictions_identical, Client, Json};

use crate::common::{
    median, micros, nanos, quantile, relocate, repeated_setup, Rng, Sheet, Tracer, Zipf,
};

/// Closed-form pool size: half again the default cache (16 shards x 256).
const POOL: usize = 6144;
/// Near-repeats target the hottest ranks only.
const HOT: usize = 256;
const ZIPF_S: f64 = 1.0;
/// Few enough that the `General` lanes stay cache-resident.
const GENERAL_POOL: usize = 16;
/// Lanes per batch: pool, `General` and fresh.
const BATCH_POOL_LANES: usize = 40;
const BATCH_GENERAL_LANES: usize = 8;
const BATCH_FRESH_LANES: usize = 16;
/// Open-loop offered load.
const SINGLE_RATE: f64 = 2000.0;
const BATCH_RATE: f64 = 100.0;
/// Single mix: the rest are plain pool repeats.
const NEAR_SHARE: f64 = 0.12;
const FRESH_SHARE: f64 = 0.06;
/// Fresh key `k` has `W = 30000 + k % 500000` and `St = 100 + k / 500000`:
/// integers below 1e6 survive the cache's 6-digit quantization, and the
/// pool's `W` and `St` stay below both, so no two keys share a bucket.
const FRESH_W0: u64 = 30_000;
const FRESH_PER_ST: u64 = 500_000;
/// Every n-th response is kept and checked against the library.
const CHECK_EVERY: usize = 4;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 7;
/// Open-loop + saturation slices per run, and the traced run's open-loop
/// slices per mode (with and without spans).
const SLICES: usize = 10;
const TRACED_SLICES: usize = 3;

/// One lane: its scenario, its wire encoding (made once, so the load
/// generator only concatenates), and for pool entries and their
/// near-repeats the pool rank whose cache bucket it shares.
#[derive(Clone)]
struct Lane {
    scenario: Arc<Scenario>,
    json: Arc<str>,
    bucket: Option<usize>,
}

impl Lane {
    fn new(scenario: Scenario, bucket: Option<usize>) -> Lane {
        Lane {
            json: scenario_to_json(&scenario).to_compact().into(),
            scenario: Arc::new(scenario),
            bucket,
        }
    }
}

/// A request to send: due offset (open loop), lanes, wire body.
struct Planned {
    due: Duration,
    lanes: Arc<[Lane]>,
    body: String,
}

/// What came back for one request.
struct Outcome {
    lanes: Arc<[Lane]>,
    sent: Instant,
    from_due: Duration,
    from_send: Duration,
    /// The generator's own lateness: send time past the later of the due
    /// time and the previous reply.
    lag: Duration,
    /// `Ok(body)` for a checked 2xx reply, `Ok(empty)` for an unchecked
    /// one, `Err` for a transport error or non-2xx status.
    reply: Result<Vec<u8>, String>,
}

struct Inputs {
    pool: Vec<Lane>,
    general: Vec<Lane>,
    zipf: Zipf,
}

fn closed_form(rng: &mut Rng, w: f64) -> Scenario {
    let variant = rng.range(0, 4);
    // `SharedMemory` solves through the per-node general model, whose cost
    // grows with `P`; at P=16 a miss costs tens of microseconds, not
    // hundreds, so a miss served inline cannot stall the reactor for long.
    let p = if variant == 3 {
        16
    } else {
        *rng.pick(&[16usize, 32, 64])
    };
    let machine = Machine::new(p, rng.range(10, 100) as f64, rng.range(50, 400) as f64)
        .with_c2(*rng.pick(&[0.0, 0.5, 1.0]));
    match variant {
        0 => Scenario::AllToAll { machine, w },
        1 => Scenario::ClientServer {
            machine,
            w,
            ps: Some(rng.range(1, 9) as usize),
        },
        2 => Scenario::ForkJoin {
            machine,
            w,
            k: rng.range(1, 5) as u32,
        },
        _ => Scenario::SharedMemory { machine, w },
    }
}

/// The same scenario with its `W` scaled by `1 + j * 1e-9`: a float-noise
/// near-repeat that quantizes into the same cache bucket.
fn near_repeat(s: &Scenario, j: usize) -> Scenario {
    relocate(s, |[w, st, so, c2]| {
        [w * (1.0 + j as f64 * 1e-9), st, so, c2]
    })
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut keys = HashSet::new();
        let mut pool = Vec::with_capacity(POOL);
        while pool.len() < POOL {
            let w = rng.range(100, 20_000) as f64;
            let s = closed_form(&mut rng, w);
            if keys.insert(CacheKey::of(&s)) {
                pool.push(Lane::new(s, Some(pool.len())));
            }
        }
        let general = (0..GENERAL_POOL)
            .map(|i| {
                let machine = Machine::new(8, rng.range(20, 40) as f64, rng.range(100, 200) as f64)
                    .with_c2((i % 2) as f64);
                let model = GeneralModel::multi_hop(
                    machine,
                    rng.range(1000, 2000) as f64,
                    1 + (i % 3) as u32,
                );
                Lane::new(Scenario::General(model), None)
            })
            .collect();
        Inputs {
            pool,
            general,
            zipf: Zipf::new(POOL, ZIPF_S),
        }
    }

    fn pool_lane(&self, rng: &mut Rng) -> Lane {
        self.pool[self.zipf.sample(rng)].clone()
    }

    /// A never-seen key. The two connections draw from disjoint counters
    /// (even and odd), so `fresh` advances by two.
    fn fresh_lane(rng: &mut Rng, fresh: &mut u64) -> Lane {
        let k = *fresh;
        *fresh += 2;
        let s = closed_form(rng, (FRESH_W0 + k % FRESH_PER_ST) as f64);
        let st = (100 + k / FRESH_PER_ST) as f64;
        Lane::new(relocate(&s, |[w, _, so, c2]| [w, st, so, c2]), None)
    }

    fn single(&self, rng: &mut Rng, fresh: &mut u64) -> Lane {
        let u = rng.unit();
        if u < FRESH_SHARE {
            return Self::fresh_lane(rng, fresh);
        }
        if u < FRESH_SHARE + NEAR_SHARE {
            let r = loop {
                let r = self.zipf.sample(rng);
                if r < HOT {
                    break r;
                }
            };
            let j = rng.range(1, 3) as usize;
            return Lane::new(near_repeat(&self.pool[r].scenario, j), Some(r));
        }
        self.pool_lane(rng)
    }

    fn batch(&self, rng: &mut Rng, fresh: &mut u64) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = (0..BATCH_POOL_LANES).map(|_| self.pool_lane(rng)).collect();
        lanes.extend((0..BATCH_GENERAL_LANES).map(|_| rng.pick(&self.general).clone()));
        lanes.extend((0..BATCH_FRESH_LANES).map(|_| Self::fresh_lane(rng, fresh)));
        // Interleave deterministically so lane kinds are not in blocks.
        for i in (1..lanes.len()).rev() {
            lanes.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
        lanes
    }

    /// Every scenario whose cache bucket is pool rank `r`'s.
    fn mates(&self, r: usize) -> [Scenario; 3] {
        let s = &self.pool[r].scenario;
        [(**s).clone(), near_repeat(s, 1), near_repeat(s, 2)]
    }
}

/// `{"scenarios":[...]}` from the lanes' encodings.
fn batch_body(lanes: &[Lane]) -> String {
    let mut body =
        String::with_capacity(16 + lanes.iter().map(|l| l.json.len() + 1).sum::<usize>());
    body.push_str("{\"scenarios\":[");
    for (i, lane) in lanes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&lane.json);
    }
    body.push_str("]}");
    body
}

/// Open-loop plan of Poisson arrivals at `rate` over `span`.
fn plan(
    span: Duration,
    rate: f64,
    rng: &mut Rng,
    mut make: impl FnMut(&mut Rng) -> (Vec<Lane>, String),
) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut due = rng.exp_gap(rate);
    while due < span {
        let (lanes, body) = make(rng);
        out.push(Planned {
            due,
            lanes: lanes.into(),
            body,
        });
        due += rng.exp_gap(rate);
    }
    out
}

/// Sleep, then spin briefly, until `t`.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

fn send(client: &mut Client, path: &str, body: &str, keep: bool) -> Result<Vec<u8>, String> {
    match client.request("POST", path, body.as_bytes()) {
        Ok((status, bytes)) if (200..300).contains(&status) => {
            Ok(if keep { bytes } else { Vec::new() })
        }
        Ok((status, bytes)) => Err(format!(
            "{path}: status {status}: {}",
            String::from_utf8_lossy(&bytes)
        )),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Drive one connection through an open-loop plan. Stops early (leaving
/// the rest unsent) only if it falls more than two seconds behind.
fn open_loop(
    client: &mut Client,
    path: &'static str,
    span_name: &'static str,
    plan: &[Planned],
    start: Instant,
    tracer: &mut Tracer,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(plan.len());
    let mut prev_done = start;
    for (i, item) in plan.iter().enumerate() {
        let due = start + item.due;
        wait_until(due);
        let sent = Instant::now();
        if sent > due + Duration::from_secs(2) {
            break;
        }
        let lag = sent.saturating_duration_since(due.max(prev_done));
        let (reply, _) = tracer.span(span_name, i as u64, None, || {
            send(client, path, &item.body, i.is_multiple_of(CHECK_EVERY))
        });
        let done = Instant::now();
        prev_done = done;
        out.push(Outcome {
            lanes: item.lanes.clone(),
            sent,
            from_due: done - due,
            from_send: done - sent,
            lag,
            reply,
        });
    }
    out
}

/// Drive one connection closed-loop until `deadline`; returns the sampled
/// and failed outcomes, the scenarios answered, and the requests sent.
fn closed_loop(
    client: &mut Client,
    deadline: Instant,
    mut next: impl FnMut() -> Vec<Lane>,
    batch: bool,
) -> (Vec<Outcome>, u64, u64) {
    let path = if batch {
        "/v1/predict/batch"
    } else {
        "/v1/predict"
    };
    let (mut out, mut answered) = (Vec::new(), 0u64);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let lanes = next();
        let body = if batch {
            batch_body(&lanes)
        } else {
            lanes[0].json.to_string()
        };
        let keep = i.is_multiple_of(CHECK_EVERY * 8);
        let sent = Instant::now();
        let reply = send(client, path, &body, keep);
        let took = sent.elapsed();
        if reply.is_ok() {
            answered += lanes.len() as u64;
        }
        if keep || reply.is_err() {
            out.push(Outcome {
                lanes: lanes.into(),
                sent,
                from_due: took,
                from_send: took,
                lag: Duration::ZERO,
                reply,
            });
        }
        i += 1;
    }
    (out, answered, i as u64)
}

/// Checks replies against the library; the answers of each hot bucket's
/// mates are solved once.
struct Oracle<'a> {
    inputs: &'a Inputs,
    mates: HashMap<usize, Vec<Prediction>>,
    mate_answers: u64,
}

impl Oracle<'_> {
    /// `Ok` when `got` is the library's answer for the lane. A pool entry
    /// or near-repeat may carry the answer of any scenario of its cache
    /// bucket (the cache stores the first arrival's solve); those are
    /// counted in `mate_answers`.
    fn check(&mut self, lane: &Lane, got: &Prediction) -> Result<(), String> {
        let own = lopc_core::scenario::solve(&lane.scenario)
            .map_err(|e| format!("library cannot solve {}: {e}", lane.scenario.kind()))?;
        if predictions_identical(got, &own) {
            return Ok(());
        }
        if let Some(r) = lane.bucket {
            let inputs = self.inputs;
            let mates = self.mates.entry(r).or_insert_with(|| {
                inputs
                    .mates(r)
                    .iter()
                    .filter_map(|s| lopc_core::scenario::solve(s).ok())
                    .collect()
            });
            if mates.iter().any(|m| predictions_identical(got, m)) {
                self.mate_answers += 1;
                return Ok(());
            }
        }
        Err(format!(
            "{} answer differs from the library: served r={} library r={}",
            lane.scenario.kind(),
            got.r,
            own.r
        ))
    }

    /// Count attempts and failures of `outcomes`, checking kept replies.
    fn verify(&mut self, sheet: &mut Sheet, outcomes: &[Outcome]) {
        for o in outcomes {
            let body = match &o.reply {
                Err(e) => {
                    sheet.fail(e.clone());
                    continue;
                }
                Ok(b) if b.is_empty() => continue,
                Ok(b) => b,
            };
            let doc = match std::str::from_utf8(body)
                .map_err(|e| e.to_string())
                .and_then(parse)
            {
                Ok(d) => d,
                Err(e) => {
                    sheet.fail(format!("unparseable reply: {e}"));
                    continue;
                }
            };
            let preds: Result<Vec<Prediction>, String> = match doc.get("predictions") {
                Some(Json::Array(items)) => items
                    .iter()
                    .map(|v| prediction_from_json(v).map_err(|e| e.to_string()))
                    .collect(),
                Some(_) => Err("predictions is not an array".into()),
                None => prediction_from_json(&doc)
                    .map(|p| vec![p])
                    .map_err(|e| e.to_string()),
            };
            match preds {
                Ok(preds) if preds.len() == o.lanes.len() => {
                    if let Some(e) = o
                        .lanes
                        .iter()
                        .zip(&preds)
                        .find_map(|(lane, p)| self.check(lane, p).err())
                    {
                        sheet.fail(e);
                    }
                }
                Ok(preds) => sheet.fail(format!(
                    "{} predictions for {} lanes",
                    preds.len(),
                    o.lanes.len()
                )),
                Err(e) => sheet.fail(format!("undecodable reply: {e}")),
            }
        }
    }
}

fn us(outcomes: &[Outcome], f: impl Fn(&Outcome) -> Duration) -> Vec<f64> {
    outcomes.iter().map(|o| micros(f(o))).collect()
}

/// What the open-loop phases leave once their replies are checked: the
/// latencies, and the traffic the generator actually offered.
#[derive(Default)]
struct OpenStats {
    single_due: Vec<f64>,
    batch_due: Vec<f64>,
    single_send: Vec<f64>,
    batch_send: Vec<f64>,
    single_lag: Vec<f64>,
    batch_lag: Vec<f64>,
    /// Singles that were near-repeats, fresh keys, or sent while a batch
    /// was in flight on the other connection.
    near: u64,
    fresh: u64,
    overlapped: u64,
    /// Scenarios sent, time with a batch in flight, and time measured.
    offered: u64,
    batch_busy: Duration,
    span: Duration,
    /// The node's cache lookups during the open-loop phases.
    hits: u64,
    misses: u64,
}

impl OpenStats {
    fn add(&mut self, inputs: &Inputs, span: Duration, singles: &[Outcome], batches: &[Outcome]) {
        self.span += span;
        self.single_due.extend(us(singles, |o| o.from_due));
        self.batch_due.extend(us(batches, |o| o.from_due));
        self.single_send.extend(us(singles, |o| o.from_send));
        self.batch_send.extend(us(batches, |o| o.from_send));
        self.single_lag.extend(us(singles, |o| o.lag));
        self.batch_lag.extend(us(batches, |o| o.lag));
        self.offered += singles.len() as u64;
        for b in batches {
            self.offered += b.lanes.len() as u64;
            self.batch_busy += b.from_send;
        }
        // Both lists are in send order, and batches on one connection never
        // overlap one another.
        let mut j = 0;
        for s in singles {
            let lane = &s.lanes[0];
            match lane.bucket {
                None => self.fresh += 1,
                Some(r) if !Arc::ptr_eq(&lane.scenario, &inputs.pool[r].scenario) => self.near += 1,
                Some(_) => {}
            }
            while j < batches.len() && batches[j].sent + batches[j].from_send <= s.sent {
                j += 1;
            }
            if j < batches.len() && batches[j].sent <= s.sent {
                self.overlapped += 1;
            }
        }
    }
}

/// A running node with its two connections.
struct Rig {
    server: ServerHandle,
    a: Client,
    b: Client,
}

/// Start the node, connect, and warm the cache with the pool's 4096
/// hottest entries (coldest first, so the hottest are most recent) and
/// the `General` pool.
fn set_up(inputs: &Inputs) -> Rig {
    let server = start(ServerConfig::default()).expect("start the server");
    let addr: SocketAddr = server.addr();
    let mut a = Client::connect(addr).expect("connect A");
    let b = Client::connect(addr).expect("connect B");
    let warm: Vec<Lane> = (0..4096)
        .rev()
        .map(|r| inputs.pool[r].clone())
        .chain(inputs.general.iter().cloned())
        .collect();
    for chunk in warm.chunks(64) {
        send(&mut a, "/v1/predict/batch", &batch_body(chunk), false).expect("warm-up batch");
    }
    Rig { server, a, b }
}

/// Both open-loop schedules for one phase of `span`.
fn plans(inputs: &Inputs, rng: &mut Rng, fresh: &mut u64, span: Duration) -> [Vec<Planned>; 2] {
    let singles = plan(span, SINGLE_RATE, rng, |rng| {
        let lane = inputs.single(rng, fresh);
        let body = lane.json.to_string();
        (vec![lane], body)
    });
    let batches = plan(span, BATCH_RATE, rng, |rng| {
        let lanes = inputs.batch(rng, fresh);
        let body = batch_body(&lanes);
        (lanes, body)
    });
    [singles, batches]
}

/// Run both connections through their plans concurrently.
fn open_phase(
    rig: &mut Rig,
    plans: &[Vec<Planned>; 2],
    traced: bool,
    epoch: Instant,
) -> (Vec<Outcome>, Vec<Outcome>, Tracer) {
    let start = Instant::now() + Duration::from_millis(5);
    let (a, b) = (&mut rig.a, &mut rig.b);
    let (mut ta, mut tb) = (Tracer::new(traced, epoch), Tracer::new(traced, epoch));
    let (singles, batches) = std::thread::scope(|s| {
        let ta = &mut ta;
        let tb = &mut tb;
        let hb = s
            .spawn(move || open_loop(b, "/v1/predict/batch", "client.batch", &plans[1], start, tb));
        let singles = open_loop(a, "/v1/predict", "client.single", &plans[0], start, ta);
        (singles, hb.join().expect("batch generator"))
    });
    ta.absorb(tb);
    (singles, batches, ta)
}

/// Closed-loop saturation on both connections for `span`; returns the
/// sampled and failed outcomes, the scenarios answered per second, and
/// the requests sent.
fn saturate(
    rig: &mut Rig,
    inputs: &Inputs,
    rngs: [&mut Rng; 2],
    fresh: [&mut u64; 2],
    span: Duration,
) -> (Vec<Outcome>, f64, u64) {
    let start = Instant::now();
    let deadline = start + span;
    let (a, b) = (&mut rig.a, &mut rig.b);
    let [rng_a, rng_b] = rngs;
    let [fresh_a, fresh_b] = fresh;
    let ((mut out, n_a, sent_a), (out_b, n_b, sent_b)) = std::thread::scope(|s| {
        let hb = s.spawn(move || closed_loop(b, deadline, || inputs.batch(rng_b, fresh_b), true));
        let ra = closed_loop(a, deadline, || vec![inputs.single(rng_a, fresh_a)], false);
        (ra, hb.join().expect("batch saturator"))
    });
    out.extend(out_b);
    let rate = (n_a + n_b) as f64 / start.elapsed().as_secs_f64();
    (out, rate, sent_a + sent_b)
}

pub fn run(seed: u64, seconds: f64, trace: bool, sheet: &mut Sheet) {
    let epoch = Instant::now();
    // The run alternates open-loop and saturation slices, so both kinds of
    // sample span the whole run and a slow stretch of a shared machine
    // lands in several slices rather than in one phase.
    let slice = seconds / SLICES as f64;
    let open_span = Duration::from_secs_f64(slice * 0.65);
    let sat_span = Duration::from_secs_f64(slice * 0.35);

    // Inputs from the seed; then the timed set-up: a node, two
    // connections, a warm cache.
    let inputs = Inputs::new(seed);
    let (mut rig, setup_s) =
        repeated_setup(SETUPS, || set_up(&inputs), |rig| rig.server.shutdown());
    sheet.set("setup_s", setup_s);

    // Each slice's plans are made just before it and its replies checked
    // just after it, so what the run holds does not grow with throughput.
    let mut rng = Rng::new(seed ^ 0xa5a5);
    let mut fresh = 0u64;
    let mut rng_b = Rng::new(seed ^ 0x5a5a);
    let mut fresh_b = 1u64;
    let mut oracle = Oracle {
        inputs: &inputs,
        mates: HashMap::new(),
        mate_answers: 0,
    };
    let cache_counts = |rig: &Rig| {
        let cache = rig.server.service().cache();
        (cache.hits(), cache.misses())
    };
    let mut open = OpenStats::default();
    let (mut slice_p95, mut slice_p99) = (Vec::new(), Vec::new());
    let (mut rates, mut sat_sent) = (Vec::new(), 0u64);
    for _ in 0..SLICES {
        let plan = plans(&inputs, &mut rng, &mut fresh, open_span);
        let planned = (plan[0].len() + plan[1].len()) as u64;
        let (hits0, misses0) = cache_counts(&rig);
        let (s, b, _) = open_phase(&mut rig, &plan, false, epoch);
        let (hits1, misses1) = cache_counts(&rig);
        open.hits += hits1 - hits0;
        open.misses += misses1 - misses0;
        let due = us(&s, |o| o.from_due);
        slice_p95.push(quantile(&due, 0.95));
        slice_p99.push(quantile(&due, 0.99));
        let sent = (s.len() + b.len()) as u64;
        sheet.attempted += planned;
        if sent < planned {
            sheet.failed += planned - sent;
            sheet.note(format!("{} planned requests never sent", planned - sent));
        }
        open.add(&inputs, open_span, &s, &b);
        oracle.verify(sheet, &s);
        oracle.verify(sheet, &b);

        let (out, rate, sent) = saturate(
            &mut rig,
            &inputs,
            [&mut rng, &mut rng_b],
            [&mut fresh, &mut fresh_b],
            sat_span,
        );
        sheet.attempted += sent;
        oracle.verify(sheet, &out);
        rates.push(rate);
        sat_sent += sent;
    }
    println!(
        "serve_mixed: per-slice single p99 (us) {:?}, saturated scenarios/s {:?}",
        slice_p99.iter().map(|x| x.round()).collect::<Vec<_>>(),
        rates.iter().map(|x| x.round()).collect::<Vec<_>>()
    );
    let metrics_doc = rig.a.metrics().ok();

    let single_p50 = median(&open.single_due);
    // Medians across slices of each slice's p95, p99 and saturated rate: a
    // host stall of a few milliseconds queues every request behind it, and
    // the median keeps the few slices it lands in from setting the figure.
    let single_p99 = median(&slice_p99);
    let per_s = median(&rates);
    // The gated p50s are timed from send. On a shared host, a stretch of
    // stalls backs up connection A's open-loop queue, and across runs the
    // p50 from due time then moved 2x where the p50 from send moved 10 %.
    // The figures from due time are `single_p50_us` and `batch_p50_us`.
    sheet.set("light_p50_us", median(&open.single_send));
    sheet.set("light_p95_us", median(&slice_p95));
    sheet.set("heavy_p50_us", median(&open.batch_send));
    sheet.set("single_p50_us", single_p50);
    sheet.set("single_p99_us", single_p99);
    sheet.set("batch_p50_us", median(&open.batch_due));
    sheet.set("batch_p99_us", quantile(&open.batch_due, 0.99));
    sheet.set("throughput_per_s", per_s);
    sheet.set("scenarios_per_s", per_s);
    // The traffic regime the chosen rates and shares produced.
    let open_s = open.span.as_secs_f64();
    let n_singles = open.single_due.len().max(1) as f64;
    sheet.set(
        "loadgen.offered_share",
        open.offered as f64 / open_s / per_s,
    );
    sheet.set(
        "loadgen.batch_busy_share",
        open.batch_busy.as_secs_f64() / open_s,
    );
    sheet.set(
        "loadgen.single_overlap_share",
        open.overlapped as f64 / n_singles,
    );
    sheet.set("loadgen.near_share", open.near as f64 / n_singles);
    sheet.set("loadgen.fresh_share", open.fresh as f64 / n_singles);
    let lag_p99 = quantile(&open.single_lag, 0.99);
    sheet.set("loadgen.lag_p99_us", lag_p99);
    sheet.set("loadgen.lag_p99_batch_us", quantile(&open.batch_lag, 0.99));
    let generator_bound = lag_p99 > 0.2 * single_p99;
    sheet.set("loadgen.generator_bound", generator_bound as u8 as f64);
    if generator_bound {
        sheet.note(format!(
            "generator-bound run: generator lag p99 {lag_p99:.1} us is over a fifth of \
             the single p99 {single_p99:.1} us"
        ));
    }
    let lookups = (open.hits + open.misses).max(1);
    sheet.set("cache.hit_rate", open.hits as f64 / lookups as f64);
    if let Some(doc) = &metrics_doc {
        let num = |a: &str, b: &str| {
            doc.get(a)
                .and_then(|v| v.get(b))
                .and_then(Json::as_num)
                .unwrap_or(0.0)
        };
        let wakeups = num("reactor", "wakeups_total");
        sheet.set(
            "reactor.wakeups_per_request",
            wakeups / num("requests", "total").max(1.0),
        );
        sheet.set(
            "reactor.events_per_wakeup",
            num("reactor", "events_total") / wakeups.max(1.0),
        );
    } else {
        sheet.fail("GET /metrics failed");
    }
    println!(
        "serve_mixed: {} singles, {} batches open-loop, {sat_sent} requests saturated, {SLICES} slices",
        open.single_due.len(),
        open.batch_due.len(),
    );

    if trace {
        // Open-loop slices on fresh inputs of the same mix, alternately
        // with and without spans; the traced p50 over the untraced one is
        // the tracing overhead.
        let mut by_mode: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for k in 0..2 * TRACED_SLICES {
            let traced = k % 2 == 1;
            let slice_plans = plans(&inputs, &mut rng, &mut fresh, open_span);
            let (s, b, tracer) = open_phase(&mut rig, &slice_plans, traced, epoch);
            sheet.tracer.absorb(tracer);
            sheet.attempted += (s.len() + b.len()) as u64;
            oracle.verify(sheet, &s);
            oracle.verify(sheet, &b);
            by_mode[traced as usize].extend(us(&s, |o| o.from_due));
        }
        sheet.set("trace.overhead", median(&by_mode[1]) / median(&by_mode[0]));

        let send_single = median(&open.single_send) * 1e3;
        let send_batch = median(&open.batch_send) * 1e3;
        replay(
            &inputs,
            &rig.server,
            &mut rng,
            &mut fresh,
            sheet,
            send_single,
            send_batch,
        );
    }
    sheet.set("cache.bucket_mate_answers", oracle.mate_answers as f64);
    rig.server.shutdown();
}

fn http_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: lopc-serve\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Serve raw request bytes the way the server does between its socket
/// read and write: incremental parse, `Service::handle_request`, response
/// bytes.
fn serve_bytes(server: &ServerHandle, bytes: &[u8]) -> Result<(u16, String), String> {
    let mut parser = RequestParser::new();
    parser.push(bytes);
    let req = parser
        .poll()
        .map_err(|e| e.to_string())?
        .ok_or("incomplete request")?;
    let reply = server.service().handle_request(
        &req.method,
        &req.path,
        req.query.as_deref(),
        req.header("accept"),
        &req.body,
    );
    let mut out = Vec::with_capacity(reply.body.len() + 128);
    write_response(
        &mut out,
        reply.status,
        reply.content_type,
        &reply.body,
        true,
    )
    .map_err(|e| e.to_string())?;
    Ok((reply.status, reply.body))
}

/// Replay requests of the serve_mixed mix through each layer's public
/// functions, in pipeline order, against the live node's cache.
fn replay(
    inputs: &Inputs,
    server: &ServerHandle,
    rng: &mut Rng,
    fresh: &mut u64,
    sheet: &mut Sheet,
    client_single_ns: f64,
    client_batch_ns: f64,
) {
    const SINGLES: usize = 4000;
    const BATCHES: usize = 60;
    let mut stage: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut sums, mut service) = (Vec::new(), Vec::new());
    let cache = server.service().cache();
    let mut tracer = std::mem::replace(&mut sheet.tracer, Tracer::new(false, Instant::now()));

    for i in 0..SINGLES {
        let lane = inputs.single(rng, fresh);
        let bytes = http_request("/v1/predict", &lane.json);
        let req_id = 1_000_000 + i as u64;
        let root = tracer.begin("replay.single", req_id, None);
        let mut t = |name: &'static str, d: Duration| stage.entry(name).or_default().push(nanos(d));
        let (req, d) = tracer.span("http.parse", req_id, root, || {
            let mut p = RequestParser::new();
            p.push(&bytes);
            p.poll()
        });
        t("http.parse_ns", d);
        let mut sum = d;
        let req = match req {
            Ok(Some(r)) => r,
            other => {
                sheet.fail(format!("replay parse: {other:?}"));
                continue;
            }
        };
        let (doc, d) = tracer.span("json.parse", req_id, root, || {
            std::str::from_utf8(&req.body)
                .map_err(|e| e.to_string())
                .and_then(parse)
        });
        t("json.parse_ns", d);
        sum += d;
        let Ok(doc) = doc else {
            sheet.fail("replay: body is not JSON");
            continue;
        };
        let (scenario, d) = tracer.span("codec.decode", req_id, root, || {
            let _ = max_rel_err_from_json(&doc).map_err(|e| e.to_string())?;
            let s = scenario_from_json(&doc).map_err(|e| e.to_string())?;
            s.validate().map_err(|e| e.to_string())?;
            Ok::<_, String>(s)
        });
        t("codec.decode_ns", d);
        sum += d;
        let Ok(scenario) = scenario else {
            sheet.fail("replay: scenario does not decode");
            continue;
        };
        let (hit, d) = tracer.span("cache.lookup", req_id, root, || cache.lookup(&scenario));
        t("cache.lookup_ns", d);
        sum += d;
        let prediction = match hit {
            Some(p) => p,
            None => {
                let (p, d) = tracer.span("solve.single", req_id, root, || {
                    lopc_core::scenario::solve(&scenario)
                });
                t("solve.single_ns", d);
                sum += d;
                match p {
                    Ok(p) => p,
                    Err(e) => {
                        sheet.fail(format!("replay solve: {e}"));
                        continue;
                    }
                }
            }
        };
        let (body, d) = tracer.span("codec.encode", req_id, root, || {
            prediction_to_json(&prediction).to_compact()
        });
        t("codec.encode_ns", d);
        sum += d;
        let (_, d) = tracer.span("http.write", req_id, root, || {
            let mut out = Vec::with_capacity(body.len() + 128);
            write_response(&mut out, 200, "application/json", &body, true).map(|_| out)
        });
        t("http.write_ns", d);
        sum += d;
        tracer.end(root);
        // The same request through the server's own pipeline; same cache
        // state, so the same answer.
        let (reply, d) = tracer.span("service.single", req_id, None, || {
            serve_bytes(server, &bytes)
        });
        service.push(nanos(d));
        sums.push(nanos(sum));
        sheet.attempted += 1;
        match reply {
            Ok((200, served)) if served == body => {}
            other => sheet.fail(format!(
                "replayed single disagrees with its stages: {other:?}"
            )),
        }
    }

    let (mut batch_service, mut lane_ns) = (Vec::new(), Vec::new());
    for i in 0..BATCHES {
        let lanes = inputs.batch(rng, fresh);
        let bytes = http_request("/v1/predict/batch", &batch_body(&lanes));
        let req_id = 2_000_000 + i as u64;
        let missing: Vec<Scenario> = lanes
            .iter()
            .filter(|l| cache.lookup(&l.scenario).is_none())
            .map(|l| (*l.scenario).clone())
            .collect();
        if !missing.is_empty() {
            let (_, d) = tracer.span("solve.batch", req_id, None, || {
                lopc_core::scenario::solve_batch(&missing)
            });
            lane_ns.push(nanos(d) / missing.len() as f64);
        }
        let (reply, d) = tracer.span("service.batch", req_id, None, || {
            serve_bytes(server, &bytes)
        });
        batch_service.push(nanos(d));
        sheet.attempted += 1;
        if !matches!(reply, Ok((200, _))) {
            sheet.fail(format!("replayed batch failed: {reply:?}"));
        }
    }
    sheet.tracer = tracer;

    for (name, xs) in &stage {
        sheet.set(name, median(xs));
    }
    let service_single = median(&service);
    let service_batch = median(&batch_service);
    sheet.set("service.single_ns", service_single);
    sheet.set("service.batch_ns", service_batch);
    sheet.set("solve.batch_lane_ns", median(&lane_ns));
    sheet.set(
        "service.unattributed_share",
        (service_single - median(&sums)) / service_single,
    );
    sheet.set("transport.single_ns", client_single_ns - service_single);
    sheet.set("transport.batch_ns", client_batch_ns - service_batch);
}
