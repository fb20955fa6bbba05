//! The LoPC same-box benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mixed|cluster_sweep|sim_contention> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks every sampled answer against the library, writes a
//! run record (and, traced, its spans) under `--out`, and prints one JSON
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics of a
//! separate traced run. README.md defines every metric.

mod cluster_sweep;
mod common;
mod serve_mixed;
mod sim_contention;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use common::{Sheet, Tracer};
use lopc_serve::Json;

/// The workloads and why each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "serve_mixed",
        "open-loop exact singles (Zipf pool larger than the cache, near-repeats, fresh keys) \
         contending with 64-lane General+fresh batches on one node, then saturation",
    ),
    (
        "cluster_sweep",
        "closed-loop tolerant 64-point sweeps through ClusterClient on an nproc-node ring: \
         cells built, pushed, prefetched, read and pulled",
    ),
    (
        "sim_contention",
        "P=4096 run on the sequential and parallel engines, plus P=32 hotspot \
         model-vs-sim validation through run_until_precision",
    ),
];

/// End-to-end metrics, reported by every workload (`--trace 0`). What the
/// light and heavy operation is differs per workload; see README.md.
pub const END_TO_END: [(&str, &str); 5] = [
    ("light_p50_us", "us"),
    ("heavy_p50_us", "us"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A workload reports 0 for a layer it
/// does not exercise.
pub const PER_LAYER: [(&str, &str); 58] = [
    // The light operation's tail, and the end-to-end figures of each
    // workload under their own names.
    ("light_p95_us", "us"),
    ("single_p50_us", "us"),
    ("single_p99_us", "us"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("scenarios_per_s", "1/s"),
    ("seq_events_per_s", "1/s"),
    ("par_events_per_s", "1/s"),
    ("validate_s", "s"),
    ("fail_share", "ratio"),
    ("trace.overhead", "ratio"),
    // serve_mixed, replayed in-process.
    ("http.parse_ns", "ns"),
    ("json.parse_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("cache.lookup_ns", "ns"),
    ("cache.hit_rate", "ratio"),
    ("solve.single_ns", "ns"),
    ("solve.batch_lane_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("http.write_ns", "ns"),
    ("service.single_ns", "ns"),
    ("service.batch_ns", "ns"),
    ("service.unattributed_share", "ratio"),
    ("transport.single_ns", "ns"),
    ("transport.batch_ns", "ns"),
    ("reactor.wakeups_per_request", "ratio"),
    ("reactor.events_per_wakeup", "ratio"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.lag_p99_batch_us", "us"),
    ("loadgen.generator_bound", "flag"),
    // The traffic regime the open-loop rates and mix produced.
    ("loadgen.offered_share", "ratio"),
    ("loadgen.batch_busy_share", "ratio"),
    ("loadgen.single_overlap_share", "ratio"),
    ("loadgen.near_share", "ratio"),
    ("loadgen.fresh_share", "ratio"),
    ("cache.bucket_mate_answers", "count"),
    // cluster_sweep.
    ("interp.hit_share", "ratio"),
    ("interp.cells_built", "count"),
    ("interp.cells_prefetched", "count"),
    ("cluster.cells_shipped", "count"),
    ("cluster.cells_received", "count"),
    ("cluster.cells_rejected", "count"),
    ("cluster.import_accept_share", "ratio"),
    ("cache.solves_per_point", "ratio"),
    ("route.owner_batch_ns", "ns"),
    ("route.overhead_ns", "ns"),
    ("client.conns_opened", "count"),
    // sim_contention.
    ("sim.events", "count"),
    // Queue hold times at the big run's pending population, and at the
    // validation run's (`.small`).
    ("sched.hold_ns.calendar", "ns"),
    ("sched.hold_ns.heap", "ns"),
    ("sched.hold_ns.calendar.small", "ns"),
    ("sched.hold_ns.heap.small", "ns"),
    ("sched.est_share", "ratio"),
    ("sched.est_share.small", "ratio"),
    ("par.partition_gain", "ratio"),
    ("par.thread_gain", "ratio"),
    ("validate.reps", "count"),
    ("validate.rep_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            WORKLOADS.map(|(w, _)| w),
            args.workload
        ));
    }
    Ok(args)
}

/// Run a command and return its trimmed standard output, if it succeeds.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The machine and source this run measured.
fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout of its own: a plain source tree must
    // not pick up some enclosing repository. `--no-optional-locks` keeps
    // `status` from rewriting the index.
    let (rev, dirty) = if Path::new(".git").exists() {
        let rev = command_output("git", &["rev-parse", "HEAD"]);
        let dirty = command_output("git", &["--no-optional-locks", "status", "--porcelain"])
            .map(|s| Json::Bool(!s.is_empty()));
        (
            rev.map_or(Json::Null, Json::Str),
            dirty.unwrap_or(Json::Null),
        )
    } else {
        (Json::Str("none (not a git checkout)".into()), Json::Null)
    };
    Json::Object(vec![
        ("nproc".into(), Json::Num(common::nproc() as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("kernel".into(), Json::Str(kernel)),
        ("rustc".into(), Json::Str(rustc)),
        ("git_rev".into(), rev),
        ("git_dirty".into(), dirty),
    ])
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::Object(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

fn metrics_json<'a>(sheet: &Sheet, names: impl Iterator<Item = &'a (&'a str, &'a str)>) -> Json {
    Json::Object(
        names
            .map(|&(name, unit)| {
                // JSON has no NaN or infinity; a ratio over an empty sample
                // reads 0, like a layer the workload does not exercise.
                let v = sheet
                    .values
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (name.to_owned(), metric_json(v, unit))
            })
            .collect(),
    )
}

/// Write the run record (and the spans of a traced run) under `out`.
fn write_record(args: &Args, reason: &str, fp: Json, sheet: &Sheet) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let record = Json::Object(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("why".into(), Json::Str(reason.into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("fingerprint".into(), fp),
        ("attempted".into(), Json::Num(sheet.attempted as f64)),
        ("failed".into(), Json::Num(sheet.failed as f64)),
        ("end_to_end".into(), metrics_json(sheet, END_TO_END.iter())),
        ("per_layer".into(), metrics_json(sheet, PER_LAYER.iter())),
        (
            "notes".into(),
            Json::Array(sheet.notes.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    std::fs::write(
        args.out.join(format!("{stem}.json")),
        record.to_pretty() + "\n",
    )?;
    if args.trace {
        let mut lines = String::new();
        for s in &sheet.tracer.spans {
            let span = Json::Object(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("req".into(), Json::Num(s.req as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("dur_ns".into(), Json::Num(s.dur_ns as f64)),
            ]);
            lines.push_str(&span.to_compact());
            lines.push('\n');
        }
        std::fs::write(args.out.join(format!("{stem}.spans.jsonl")), lines)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let reason = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map(|(_, why)| *why)
        .expect("validated workload");
    let fp = fingerprint();
    println!(
        "workload: {} (seed {}) — {reason}",
        args.workload, args.seed
    );
    println!("fingerprint: {}", fp.to_compact());

    let epoch = Instant::now();
    let mut sheet = Sheet::new(Tracer::new(args.trace, epoch));
    match args.workload.as_str() {
        "serve_mixed" => serve_mixed::run(args.seed, args.seconds, args.trace, &mut sheet),
        "cluster_sweep" => cluster_sweep::run(args.seed, args.seconds, args.trace, &mut sheet),
        "sim_contention" => sim_contention::run(args.seed, args.seconds, args.trace, &mut sheet),
        _ => unreachable!("validated workload"),
    }
    sheet.set("peak_rss_mb", common::peak_rss_mb());
    for (name, _) in END_TO_END {
        match sheet.values.get(name) {
            Some(v) if v.is_finite() && *v > 0.0 => {}
            _ => sheet.fail(format!("end-to-end metric {name} was not measured")),
        }
    }
    let attempted = sheet.attempted.max(1);
    sheet.set("fail_share", sheet.failed as f64 / attempted as f64);

    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = sheet.values.get(name) {
            println!("  {name:<30} {v:>16.4} {unit}");
        }
    }
    if let Err(e) = write_record(&args, reason, fp, &sheet) {
        eprintln!("perfbench: cannot write the run record: {e}");
        return ExitCode::from(1);
    }

    let correct = sheet.failed == 0;
    let metrics = if args.trace {
        metrics_json(&sheet, PER_LAYER.iter())
    } else {
        metrics_json(&sheet, END_TO_END.iter())
    };
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(sheet.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
