//! Pins `Scenario::SharedMemory` to its reference: the full Appendix A model
//! `GeneralModel::homogeneous_all_to_all(machine, w).with_protocol_processor()`,
//! whose `3P`-entry state and P×P visit matrix the scenario's one-node solve
//! replaces.
//!
//! Over a grid of machines and work values, `scenario::solve`, a one-lane
//! `scenario::solve_batch` and `Scenario::validate` must equal the reference
//! bit for bit: every `f64` field through `to_bits`, the iteration count,
//! and errors with their payload.

use lopc_core::scenario::{solve, solve_batch, Scenario};
use lopc_core::{GeneralModel, Machine, ModelError, Prediction};

/// The reference answer: the general model, read off node 0 (every node is
/// identical), with the machine's throughput summed over all nodes.
fn reference(machine: Machine, w: f64) -> Result<Prediction, ModelError> {
    let sol = GeneralModel::homogeneous_all_to_all(machine, w)
        .with_protocol_processor()
        .solve()?;
    Ok(Prediction {
        r: sol.r[0],
        x: sol.system_throughput(),
        rw: sol.rw[0],
        rq: sol.rq[0],
        ry: sol.ry[0],
        contention: sol.r[0] - machine.contention_free_response(w),
        ps: None,
        iterations: sol.iterations,
    })
}

/// Bitwise comparison; returns a description of the first divergence.
fn same(
    got: &Result<Prediction, ModelError>,
    want: &Result<Prediction, ModelError>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            for (name, gv, wv) in [
                ("r", g.r, w.r),
                ("x", g.x, w.x),
                ("rw", g.rw, w.rw),
                ("rq", g.rq, w.rq),
                ("ry", g.ry, w.ry),
                ("contention", g.contention, w.contention),
            ] {
                if gv.to_bits() != wv.to_bits() {
                    return Err(format!("{name}: {gv:?} vs reference {wv:?}"));
                }
            }
            if g.ps != w.ps || g.iterations != w.iterations {
                return Err(format!(
                    "ps/iterations: {:?}/{} vs reference {:?}/{}",
                    g.ps, g.iterations, w.ps, w.iterations
                ));
            }
            Ok(())
        }
        (Err(g), Err(w)) if g == w => Ok(()),
        (g, w) => Err(format!("{g:?} vs reference {w:?}")),
    }
}

/// Every entry point against the reference for one machine.
fn check(machine: Machine, w: f64) {
    let s = Scenario::SharedMemory { machine, w };
    let want = reference(machine, w);
    let valid = GeneralModel::homogeneous_all_to_all(machine, w)
        .with_protocol_processor()
        .validate();
    assert_eq!(s.validate(), valid, "validate: {s:?}");
    same(&solve(&s), &want).unwrap_or_else(|e| panic!("solve {s:?}: {e}"));
    let batch = solve_batch(std::slice::from_ref(&s));
    same(&batch[0], &want).unwrap_or_else(|e| panic!("solve_batch {s:?}: {e}"));
}

/// The grid over one `P`: St × So × C² × W, with `W = −1` invalid and
/// `St = So = W = 0` degenerate. The reference costs O(P²) per iteration,
/// so each (St, So) pair runs on a thread of its own.
fn grid(p: usize) {
    std::thread::scope(|scope| {
        for st in [0.0, 25.0] {
            for so in [0.0, 200.0, 777.7] {
                scope.spawn(move || {
                    for c2 in [0.0, 1.0, 2.5] {
                        for w in [0.0, 800.0, 5000.0, -1.0] {
                            check(Machine::new(p, st, so).with_c2(c2), w);
                        }
                    }
                });
            }
        }
    });
}

#[test]
fn small_machines_match_the_general_model() {
    for p in [2, 3, 16, 64] {
        grid(p);
    }
}

#[test]
fn p_257_matches_the_general_model() {
    grid(257);
}

#[test]
fn p_1024_matches_the_general_model() {
    grid(1024);
}

/// Parameters at the edge of `f64`'s range, where the iteration meets
/// infinities and subnormal throughputs.
#[test]
fn extreme_parameters_match_the_general_model() {
    for (st, so, w) in [
        (0.0, 1e308, 0.0),
        (1e308, 1e308, 1e308),
        (0.0, 6e307, 0.0),
        (1e-300, 1e-300, 0.0),
        (0.0, 5e-324, 0.0),
        (25.0, 200.0, 1e300),
    ] {
        for c2 in [0.0, 1.0, 1e300] {
            for p in [2, 5, 64] {
                check(Machine::new(p, st, so).with_c2(c2), w);
            }
        }
    }
}
