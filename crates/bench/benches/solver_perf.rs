//! Solver strategy bench: bisection vs secant vs damped fixed-point on the
//! §5.3 `F[R] = R` equation (the quartic the thesis solves numerically).
//! That the three find the same root is the unit test
//! `root_finders_agree_on_the_fixed_point` in `crates/core/src/all_to_all.rs`.
//!
//! Results are persisted as the `solver_perf` section of `BENCH_sim.json`
//! at the repository root (format documented in the README).

use criterion::{criterion_group, criterion_main, Criterion};
use lopc_bench::baseline::{self, Section};
use lopc_bench::params::fig5_machine;
use lopc_core::AllToAll;
use lopc_solver::{bisect, secant, solve_damped, FixedPointOptions};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let model = AllToAll::new(fig5_machine(), 512.0);
    let lo = model.contention_free();
    let hi = model.upper_bound();

    let mut g = c.benchmark_group("solver_perf");
    g.bench_function("bisection", |b| {
        b.iter(|| {
            black_box(
                bisect(|r| model.eval_f(r) - r, black_box(lo), hi + 1.0, 1e-10, 200)
                    .unwrap()
                    .x,
            )
        })
    });
    g.bench_function("secant", |b| {
        b.iter(|| {
            black_box(
                secant(|r| model.eval_f(r) - r, black_box(lo) + 1.0, hi, 1e-9, 100)
                    .unwrap()
                    .x,
            )
        })
    });
    g.bench_function("damped_fixed_point", |b| {
        b.iter(|| {
            black_box(
                solve_damped(
                    vec![black_box(lo) + 1.0],
                    |x, out| out[0] = model.eval_f(x[0]),
                    &FixedPointOptions {
                        damping: 0.5,
                        tol: 1e-12,
                        max_iter: 100_000,
                    },
                )
                .unwrap()
                .x[0],
            )
        })
    });
    g.finish();

    let mut section = Section::new("solver_perf");
    for r in criterion::take_results() {
        section.entry(
            format!("{}/{}", r.group, r.id),
            r.ns_per_iter,
            r.elements_per_iter,
        );
    }
    match baseline::update(&baseline::default_path(), section) {
        Ok(path) => println!("[solver_perf] baseline written to {}", path.display()),
        Err(e) => eprintln!("[solver_perf] could not write baseline: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
