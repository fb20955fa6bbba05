//! Per-query cost of the certified interpolation sweep path: a 400-point
//! `AllToAll` W sweep answered from warm cells at a 1e-3 tolerance, cell
//! builds done before the measured loop (the `interp_err` section of
//! `BENCH_sim.json`).
//!
//! The calibration of the certificate's `SAFETY_FACTOR` and `CERT_FLOOR`
//! over this W grid is the test `calibration_sweep_certificates_are_sound`
//! in `crates/serve/tests/interp_props.rs`; this bench only times.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lopc_bench::baseline::{self, Section};
use lopc_core::{Machine, Scenario};
use lopc_serve::cache::SolutionCache;
use lopc_serve::interp::InterpCache;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    const POINTS: usize = 400;
    let m32 = Machine::new(32, 25.0, 200.0).with_c2(0.0);
    // 50 .. ~12,800 cycles, geometric, offset by 0.3 % so the points land
    // inside cells rather than on corners.
    let ratio = (12_800.0f64 / 50.0).powf(1.0 / (POINTS as f64 - 1.0));
    let scenarios: Vec<Scenario> = (0..POINTS)
        .map(|i| Scenario::AllToAll {
            machine: m32,
            w: 50.0 * 1.003 * ratio.powi(i as i32),
        })
        .collect();

    let mut g = c.benchmark_group("interp_sweep");
    g.sample_size(10);
    g.throughput(Throughput::Elements(POINTS as u64));
    g.bench_function("all_to_all_warm", |b| {
        let cache = InterpCache::new(SolutionCache::new(8, 4096), 8, 1024);
        // Build the cells once; the measured loop is the steady state.
        for s in &scenarios {
            let _ = cache.predict(s, 1e-3);
        }
        b.iter(|| {
            let mut acc = 0.0;
            for s in &scenarios {
                acc += black_box(cache.predict(s, 1e-3).expect("predict").r);
            }
            black_box(acc)
        })
    });
    g.finish();

    let mut section = Section::new("interp_err");
    for r in &criterion::take_results() {
        section.entry(
            format!("{}/{}", r.group, r.id),
            r.ns_per_iter,
            r.elements_per_iter,
        );
    }
    match baseline::update(&baseline::default_path(), section) {
        Ok(path) => println!("[interp_err] baseline written to {}", path.display()),
        Err(e) => eprintln!("[interp_err] could not write baseline: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
