//! The `figures` binary, run as a user runs it, and the reproduction record.
//!
//! `figures_binary_regenerates_experiments` is the smoke test: quick mode
//! runs and produces well-formed output. (Deep assertions live in each
//! experiment's own unit tests.)
//!
//! `reproduction_record_is_unchanged` pins this revision's results across
//! revisions. It recomputes `tests/reproduction_record.txt` and fails on any
//! difference:
//!
//! * the FNV-1a 64 digest of every CSV that `figures --quick` writes, and
//!   its stdout (tables, charts and headlines; the `[csv] <path>` lines
//!   dropped and trailing spaces trimmed);
//! * each run's event count and, apart, the FNV-1a 64 digest of
//!   `format!("{report:?}")` with `events` zeroed, for the `SimReport`s of
//!   a fixed configuration × seed grid;
//! * the `f64` bits of `scenario::solve` over a grid of all five variants,
//!   error payloads included.
//!
//! Every seed is fixed: nothing here reads `LOPC_TEST_SEED_OFFSET`, so each
//! leg of the CI seed × scheduler × threads matrix must reproduce the
//! record, and so must a release build. A change that moves results on
//! purpose rewrites the record with
//!
//! ```text
//! LOPC_RECORD_REWRITE=1 cargo test -p lopc-bench --test figures_smoke reproduction_record
//! ```
//!
//! and says in CHANGES.md which lines moved and why. Only this test reads
//! `LOPC_RECORD_REWRITE`. Cargo builds the binary these tests run.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use lopc_core::general::GeneralModel;
use lopc_core::scenario::{solve, Scenario};
use lopc_core::Machine;
use lopc_dist::ServiceTime;
use lopc_sim::{
    run, run_replications, run_traced, DestChooser, SimConfig, SimReport, StopCondition, ThreadSpec,
};
use lopc_workloads::{Hotspot, Window};

#[test]
fn figures_binary_regenerates_experiments() {
    let out_dir = std::env::temp_dir().join(format!("lopc_figures_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    // The cheapest pure-model experiments keep the smoke test fast; the
    // simulation-heavy ones run in the reproduction record below.
    for exp in ["fig5_1", "rule_of_thumb"] {
        let output = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--quick", "--exp", exp, "--out"])
            .arg(&out_dir)
            .output()
            .expect("figures runs");
        assert!(
            output.status.success(),
            "figures --exp {exp} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(exp), "output names the experiment");
        assert!(stdout.contains("headlines:"), "output has headlines");
    }
    // fig5_1 writes a CSV.
    let wrote_csv = std::fs::read_dir(&out_dir)
        .map(|d| d.count() > 0)
        .unwrap_or(false);
    assert!(wrote_csv, "figures wrote CSV output");
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// The checked-in record.
const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/reproduction_record.txt");

/// How to rewrite the record.
const REWRITE: &str =
    "LOPC_RECORD_REWRITE=1 cargo test -p lopc-bench --test figures_smoke reproduction_record";

#[test]
fn reproduction_record_is_unchanged() {
    let got = reproduction_record();
    if std::env::var_os("LOPC_RECORD_REWRITE").is_some() {
        std::fs::write(RECORD, got).expect("record written");
        return;
    }
    let want = std::fs::read_to_string(RECORD).expect("the record is checked in");
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let mut diff = String::new();
    let mut shown = 0;
    for i in 0..got_lines.len().max(want_lines.len()) {
        let (g, w) = (got_lines.get(i), want_lines.get(i));
        if g != w && shown < 20 {
            shown += 1;
            let _ = writeln!(diff, "line {}:\n  record: {w:?}\n  now:    {g:?}", i + 1);
        }
    }
    panic!(
        "results moved against tests/reproduction_record.txt (first {shown} differing \
         lines below). If the change is meant to move results, rewrite the record with \
         `{REWRITE}` and say in CHANGES.md which lines moved and why.\n{diff}"
    );
}

/// 64-bit FNV-1a: stable across platforms, toolchains and runs, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The whole record: figures' CSV digests, the simulator and solver grids,
/// then figures' stdout.
fn reproduction_record() -> String {
    // The figures run is the slowest part; the grids run meanwhile.
    let figures = std::thread::spawn(figures_quick);
    let mut out = format!(
        "# Reproduction record: the bits this revision's results are made of.\n\
         # Checked by reproduction_record_is_unchanged (crates/bench/tests/figures_smoke.rs).\n\
         # Rewrite: {REWRITE}\n"
    );
    let sims = sim_grid();
    let solves = solve_grid();
    let (csvs, stdout) = figures.join().expect("figures run");
    out.push_str("\n[figures --quick: FNV-1a 64 of each CSV]\n");
    for (name, digest) in csvs {
        let _ = writeln!(out, "{name} {digest:016x}");
    }
    out.push_str("\n[simulator: event count and FNV-1a 64 of format!(\"{:?}\") per SimReport]\n");
    out.push_str(&sims);
    out.push_str("\n[scenario::solve: bits of r x rw rq ry contention, then ps and iterations]\n");
    out.push_str(&solves);
    out.push_str("\n[figures --quick: stdout, [csv] lines dropped, trailing spaces trimmed]\n");
    out.push_str(&stdout);
    out
}

/// Run `figures --quick` over every experiment; return each CSV's digest
/// in file-name order, and the stdout without its `[csv] <path>` lines.
fn figures_quick() -> (Vec<(String, u64)>, String) {
    let dir = std::env::temp_dir().join(format!("lopc_record_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "--out"])
        .arg(&dir)
        .output()
        .expect("figures runs");
    assert!(
        output.status.success(),
        "figures --quick failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("figures prints UTF-8");
    let mut csv_lines = 0;
    let mut kept = String::new();
    for line in stdout.lines() {
        if line.trim_start().starts_with("[csv] ") {
            csv_lines += 1;
        } else {
            kept.push_str(line.trim_end());
            kept.push('\n');
        }
    }
    let mut csvs: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .expect("figures wrote its CSVs")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            (file_name(&path), fnv1a(&std::fs::read(&path).expect("CSV")))
        })
        .collect();
    csvs.sort();
    assert_eq!(csvs.len(), csv_lines, "one CSV per [csv] line");
    let _ = std::fs::remove_dir_all(&dir);
    (csvs, kept)
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .expect("a file")
        .to_string_lossy()
        .into_owned()
}

/// A homogeneous machine: `St` = 25, every thread a worker sending
/// `fanout` requests of `hops` handler visits to uniform other nodes.
fn machine(
    p: usize,
    work: ServiceTime,
    handler: ServiceTime,
    fanout: u32,
    hops: u32,
    stop: StopCondition,
) -> SimConfig {
    SimConfig {
        p,
        net_latency: 25.0,
        request_handler: handler.clone(),
        reply_handler: handler,
        threads: vec![
            ThreadSpec {
                work: Some(work),
                dest: DestChooser::UniformOther,
                hops,
                fanout,
            };
            p
        ],
        protocol_processor: false,
        latency_dist: None,
        stop,
        seed: 0,
    }
}

/// One record line per report: label, seed, event count, and the digest of
/// the rest of the report, so a change that moves only event counts moves
/// only `events=` fields.
fn sim_line(out: &mut String, label: &str, report: &SimReport, seed: u64) {
    let rest = SimReport {
        events: 0,
        ..report.clone()
    };
    let digest = fnv1a(format!("{rest:?}").as_bytes());
    let _ = writeln!(
        out,
        "{label} seed={seed} events={} report={digest:016x}",
        report.events
    );
}

/// The simulator grid. Messages in flight run from a handful to 4,096,
/// with constant and sampled wire times.
fn sim_grid() -> String {
    let mut out = String::new();
    let horizon = StopCondition::Horizon {
        warmup: 10_000.0,
        end: 60_000.0,
    };
    let exp = ServiceTime::exponential;
    let mut grid: Vec<(String, SimConfig, &[u64])> = Vec::new();
    // `sim_perf`'s `sim_full` machines: constant W = 512, So = 200, St = 25.
    for (p, fanout) in [(32, 1), (64, 1), (256, 2), (1024, 4)] {
        let cfg = machine(
            p,
            ServiceTime::constant(512.0),
            ServiceTime::constant(200.0),
            fanout,
            1,
            StopCondition::CyclesPerThread { n: 24 },
        );
        grid.push((format!("sim_full p={p} fanout={fanout}"), cfg, &[42]));
    }
    // Fork-join at P = 32: 64, 128 and 256 requests in flight.
    for k in [2, 4, 8] {
        let cfg = machine(32, exp(1000.0), exp(150.0), k, 1, horizon);
        grid.push((format!("fork_join p=32 k={k}"), cfg, &[1, 2]));
    }
    // The protocol-processor variant, and multi-hop forwarding.
    let mut pp = machine(16, exp(400.0), exp(150.0), 1, 1, horizon);
    pp.protocol_processor = true;
    grid.push(("protocol_processor p=16".into(), pp, &[1, 2]));
    let hops = machine(16, exp(800.0), exp(100.0), 1, 3, horizon);
    grid.push(("multi_hop p=16 hops=3".into(), hops, &[1, 2]));
    // Exponential handlers with sampled wires: a positive floor, and none.
    for (label, wire) in [
        ("uniform(15,35)", ServiceTime::uniform(15.0, 35.0)),
        ("exponential(25)", exp(25.0)),
    ] {
        let mut cfg = machine(12, exp(600.0), exp(120.0), 1, 1, horizon);
        cfg.latency_dist = Some(wire);
        grid.push((format!("wire={label} p=12"), cfg, &[1, 2]));
    }
    // Client-server: two pure servers, ten clients, makespan mode.
    let mut cs = machine(
        12,
        exp(500.0),
        ServiceTime::with_cv2(131.0, 2.0),
        1,
        1,
        StopCondition::CyclesPerThread { n: 40 },
    );
    for (k, t) in cs.threads.iter_mut().enumerate() {
        if k < 2 {
            *t = ThreadSpec::server();
        } else {
            t.dest = DestChooser::UniformAmong(vec![0, 1]);
        }
    }
    grid.push(("client_server p=12 ps=2".into(), cs, &[1, 2]));
    for (label, mut cfg, seeds) in grid {
        for &seed in seeds {
            cfg.seed = seed;
            sim_line(&mut out, &label, &run(&cfg).expect("valid config"), seed);
        }
    }
    // A traced run carries its per-cycle series in the report.
    let mut traced = machine(8, exp(500.0), exp(100.0), 1, 1, horizon);
    traced.seed = 3;
    let report = run_traced(&traced).expect("valid config");
    sim_line(&mut out, "traced p=8", &report, 3);
    // `sim_contention`'s P = 32 `Hotspot` replication, three replications.
    let hot = Hotspot::new(Machine::new(32, 25.0, 150.0).with_c2(0.0), 1600.0, 0.1)
        .with_window(Window::quick())
        .sim_config(2024);
    let reps = run_replications(&hot, 3).expect("valid config");
    for (i, report) in reps.reports.iter().enumerate() {
        sim_line(
            &mut out,
            "hotspot p=32 replication",
            report,
            2024 + i as u64,
        );
    }
    out
}

/// The solver grid: every variant, valid and invalid, one line each.
fn solve_grid() -> String {
    let m = |p: usize, so: f64, c2: f64| Machine::new(p, 25.0, so).with_c2(c2);
    let mut grid: Vec<(String, Scenario)> = Vec::new();
    for p in [2, 32, 1024] {
        for c2 in [0.0, 1.0, 2.0] {
            for w in [0.0, 100.0, 1000.0, 1e5] {
                let machine = m(p, 200.0, c2);
                grid.push((
                    format!("all_to_all p={p} c2={c2} w={w}"),
                    Scenario::AllToAll { machine, w },
                ));
            }
        }
    }
    for ps in [None, Some(1), Some(16), Some(31), Some(0), Some(32)] {
        grid.push((
            format!("client_server p=32 ps={ps:?}"),
            Scenario::ClientServer {
                machine: m(32, 131.0, 1.0),
                w: 2000.0,
                ps,
            },
        ));
    }
    for k in [0, 1, 2, 8] {
        grid.push((
            format!("fork_join p=32 k={k}"),
            Scenario::ForkJoin {
                machine: m(32, 150.0, 0.0),
                w: 1000.0,
                k,
            },
        ));
    }
    let general = [
        (
            "homogeneous p=8",
            GeneralModel::homogeneous_all_to_all(m(8, 200.0, 1.0), 800.0),
        ),
        (
            "client_server p=8 ps=2",
            GeneralModel::client_server(m(8, 131.0, 0.0), 1000.0, 2),
        ),
        (
            "multi_hop p=8 hops=2",
            GeneralModel::multi_hop(m(8, 100.0, 2.0), 600.0, 2),
        ),
        (
            "protocol_processor p=8",
            GeneralModel::homogeneous_all_to_all(m(8, 200.0, 1.0), 800.0).with_protocol_processor(),
        ),
        ("w of the wrong length", {
            let mut g = GeneralModel::homogeneous_all_to_all(m(8, 200.0, 1.0), 800.0);
            g.w.pop();
            g
        }),
    ];
    for (label, model) in general {
        grid.push((format!("general {label}"), Scenario::General(model)));
    }
    for p in [2, 32, 1024, (1 << 20) + 1] {
        grid.push((
            format!("shared_memory p={p}"),
            Scenario::SharedMemory {
                machine: m(p, 200.0, 1.0),
                w: 1000.0,
            },
        ));
    }
    // Invalid parameters and a degenerate machine.
    grid.push((
        "all_to_all p=1".into(),
        Scenario::AllToAll {
            machine: m(1, 200.0, 0.0),
            w: 1000.0,
        },
    ));
    grid.push((
        "all_to_all w=-1".into(),
        Scenario::AllToAll {
            machine: m(32, 200.0, 0.0),
            w: -1.0,
        },
    ));
    grid.push((
        "all_to_all w=NaN".into(),
        Scenario::AllToAll {
            machine: m(32, 200.0, 0.0),
            w: f64::NAN,
        },
    ));
    grid.push((
        "all_to_all all costs zero".into(),
        Scenario::AllToAll {
            machine: Machine::new(32, 0.0, 0.0),
            w: 0.0,
        },
    ));
    let mut out = String::new();
    for (label, scenario) in grid {
        let _ = match solve(&scenario) {
            Ok(p) => writeln!(
                out,
                "{label}: {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} ps={:?} iterations={}",
                p.r.to_bits(),
                p.x.to_bits(),
                p.rw.to_bits(),
                p.rq.to_bits(),
                p.ry.to_bits(),
                p.contention.to_bits(),
                p.ps,
                p.iterations
            ),
            Err(e) => writeln!(out, "{label}: error {e:?}"),
        };
    }
    out
}
