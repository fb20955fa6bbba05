//! Shared plumbing: the seeded generator, sample statistics, the in-memory
//! span recorder, process memory, and the metric sheet every workload
//! fills.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lopc_core::Scenario;

/// SplitMix64: small, fast, and fully determined by the workload seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64) as usize]
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate` per
    /// second.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Closed-form scenario `s` with its continuous axes `[W, St, So, C²]`
/// mapped by `f`, through the library's own axis relocation.
pub fn relocate(s: &Scenario, f: impl FnOnce([f64; 4]) -> [f64; 4]) -> Scenario {
    let axes = s
        .interp_axes()
        .expect("closed-form scenario")
        .map(|a| a.value);
    s.with_axis_values(f(axes)).expect("closed-form scenario")
}

/// The `q`-quantile (`0..=1`) of `xs` by nearest rank; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn nanos(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Time `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Available parallelism: the cap on generator threads, client
/// connections and cluster nodes.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `setup` `times` times, keeping the last result; returns it with the
/// median set-up time in seconds. Earlier results are handed to `teardown`.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let (value, took) = timed(&mut setup);
        secs.push(took.as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// One recorded span: a call into one layer's public function, made from
/// this benchmark's own code.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request (or one batch, or one simulation) share this.
    pub req: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder. Disabled recorders cost one branch per span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// Spans kept per recorder; later spans still time, but are not stored.
const MAX_SPANS: usize = 200_000;

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its result and duration. The
    /// duration is measured whether or not the recorder is enabled.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        if self.enabled && self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                req,
                parent,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
        (out, dur)
    }

    /// Open a span that encloses later ones (their `parent`); close it with
    /// [`Tracer::end`]. `None` when the recorder is disabled or full.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled || self.spans.len() >= MAX_SPANS {
            return None;
        }
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.spans[i].dur_ns = now - self.spans[i].start_ns;
        }
    }

    /// A recorder for another thread, on the same clock and switch.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    pub fn absorb(&mut self, other: Tracer) {
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        let base = self.spans.len();
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }
}

/// What one workload run produced: operation counts, named metric values,
/// free-form notes, and the spans of a traced run.
pub struct Sheet {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Sheet {
    pub fn new(tracer: Tracer) -> Sheet {
        Sheet {
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
            tracer,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        let note = note.into();
        eprintln!("note: {note}");
        self.notes.push(note);
    }

    /// Count one failed or wrong operation, keeping the first few reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.note(format!("FAILED: {}", why.into()));
        }
    }
}
