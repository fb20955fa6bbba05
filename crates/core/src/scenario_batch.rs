//! Batched scenario solving: many [`Scenario`]s to joint convergence through
//! the structure-of-arrays kernels of `lopc_solver::batch`.
//!
//! [`solve_batch`] is pinned **lane-for-lane bit-identical** to calling
//! [`scenario::solve`](crate::scenario::solve) on each scenario in order
//! (the `batch_differential` integration suite enforces this across every
//! variant, lane count and lane order). The speedup comes purely from
//! instruction-level parallelism: each solver round evaluates the recursion
//! for *all* still-active lanes back to back, so the long division chains
//! that dominate a scalar solve (each ~20+ cycles of latency, serially
//! dependent through the bracket/bisect control flow) overlap across lanes
//! instead of stalling the pipeline one lane at a time.
//!
//! How lanes are routed:
//!
//! * `AllToAll`, `ForkJoin` and `ClientServer` reduce to a scalar root-find
//!   on `g(R) = F[R] − R`; same-variant lanes share one
//!   [`bracket_bisect_many`] call whose evaluation callback reads the lane
//!   parameters from flat arrays (the compiler-vectorizable inner loop).
//! * `ClientServer { ps: None }` expands to the two integer splits
//!   bracketing the eq. 6.8 continuous optimum — both ride the same batch
//!   as ordinary lanes and the winner is picked afterwards by the exact
//!   comparison the scalar `optimal_servers` performs.
//! * `General` lanes iterate under [`solve_damped_many`], which keeps every
//!   lane's state in one flat buffer and retires lanes independently at
//!   their own convergence iteration.
//! * Lanes that never reach an iterative kernel in the scalar path
//!   (validation failures, degenerate models, `So = 0` closed forms) are
//!   answered by the scalar dispatch directly — those paths are O(1), so
//!   batching them buys nothing and reusing `solve` keeps the equivalence
//!   trivially exact.
//! * `SharedMemory` lanes are answered by the scalar dispatch too. Their
//!   solve iterates one node's three unknowns, and each iteration is two
//!   serial sums of `P − 1` terms; as 3-entry [`solve_damped_many`] lanes
//!   they measured slower than scalar solves (DESIGN.md §14).
//!
//! Lane failures (no bracket, budget exhaustion, NaN breakdown) retire only
//! their own lane; every other lane completes normally. An exhausted damped
//! lane reports [`SolverError::Exhausted`] with its last iterate and a
//! contraction flag, so callers can retry just that lane with a larger
//! budget instead of re-running the whole batch.
//!
//! # Example
//!
//! ```
//! use lopc_core::scenario::{solve, solve_batch, Scenario};
//! use lopc_core::Machine;
//!
//! let machine = Machine::new(32, 25.0, 200.0).with_c2(0.0);
//! let lanes: Vec<Scenario> = (0..8)
//!     .map(|i| Scenario::AllToAll { machine, w: 250.0 * i as f64 })
//!     .collect();
//! let batch = solve_batch(&lanes);
//! for (scenario, batched) in lanes.iter().zip(&batch) {
//!     assert_eq!(batched, &solve(scenario));
//! }
//! ```

use crate::all_to_all::AllToAll;
use crate::client_server::{ClientServer, CsPoint};
use crate::error::ModelError;
use crate::fork_join::ForkJoin;
use crate::general::GeneralModel;
use crate::params::Machine;
use crate::scenario::{solve, Prediction, Scenario};
use lopc_solver::{bracket_bisect_many, solve_damped_many, BracketBisectSpec, SolverError};

/// Where a scenario's answer comes from after the kernels run.
enum Pending {
    /// Resolved in the pre-pass (closed form, entry-check error, or a
    /// `SharedMemory` lane).
    Direct,
    /// All-to-all root lane.
    A2a(usize),
    /// Fork-join root lane.
    Fj(usize),
    /// Client-server lane at a fixed split.
    Cs { ps: usize, lane: usize },
    /// Client-server at the optimal split: two candidate lanes, winner
    /// chosen by the scalar `optimal_servers` comparison.
    CsOpt {
        lo: usize,
        hi: usize,
        lo_lane: usize,
        hi_lane: usize,
    },
    /// General-model damped fixed-point lane.
    Damped(usize),
}

/// SoA parameter arrays for one bracket/bisect lane group. Unused arrays
/// stay empty (`k` for non-fork-join groups, `pc`/`ps` outside
/// client-server).
#[derive(Default)]
struct RootLanes {
    specs: Vec<BracketBisectSpec>,
    w: Vec<f64>,
    st: Vec<f64>,
    so: Vec<f64>,
    beta: Vec<f64>,
    k: Vec<f64>,
    pc: Vec<f64>,
    ps: Vec<f64>,
}

/// Dense (active-set-ordered) copies of a lane group's parameter columns.
///
/// The batched evaluator receives the active lanes each round; indexing the
/// SoA columns through that lane list is a gather, which blocks the
/// auto-vectorization the whole design is after. This helper keeps
/// j-indexed copies of the columns, re-compacted only on the rounds where
/// the active set actually changed (each lane retires once, so the total
/// copy volume is O(rounds-with-retirement × active), trivial next to the
/// model evaluations) — every other round the evaluator runs straight
/// contiguous loops that the compiler turns into `vdivpd`-bound SIMD.
/// Exactly-rounded IEEE ops are bit-identical whether issued as scalars or
/// vector lanes, so this changes nothing about the results.
struct DenseCols<const N: usize> {
    seen: Vec<u32>,
    cols: [Vec<f64>; N],
}

impl<const N: usize> DenseCols<N> {
    fn new() -> Self {
        DenseCols {
            seen: Vec::new(),
            cols: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Refresh the dense columns for this round's active lanes; returns
    /// them j-indexed, aligned with the evaluator's `xs`/`out`.
    fn refresh(&mut self, lanes: &[u32], src: [&[f64]; N]) -> &[Vec<f64>; N] {
        if self.seen != lanes {
            self.seen.clear();
            self.seen.extend_from_slice(lanes);
            for (col, s) in self.cols.iter_mut().zip(src) {
                col.clear();
                col.extend(lanes.iter().map(|&l| s[l as usize]));
            }
        }
        &self.cols
    }
}

/// Register a client-server lane at split `ps`, replaying the spec the
/// scalar `throughput` hands to `bracket_upward`/`bisect`.
fn push_cs(g: &mut RootLanes, model: &ClientServer, ps: usize) -> usize {
    let m = model.machine;
    let lower = model.w + 2.0 * m.s_l + 2.0 * m.s_o;
    let lane = g.specs.len();
    g.specs.push(BracketBisectSpec {
        lo: lower - 1e-12,
        initial_step: lower.max(m.s_o),
        max_doublings: 200,
        tol: 1e-10 * lower.max(1.0),
        max_iter: 200,
    });
    g.w.push(model.w);
    g.st.push(m.s_l);
    g.so.push(m.s_o);
    g.beta.push(m.beta());
    g.pc.push((m.p - ps) as f64);
    g.ps.push(ps as f64);
    lane
}

/// The §6 Prediction shape (mirrors the scalar dispatch exactly).
fn cs_prediction(machine: &Machine, w: f64, ps: usize, pt: CsPoint) -> Prediction {
    Prediction {
        r: pt.r,
        x: pt.x,
        rw: w,
        rq: pt.rq,
        ry: machine.s_o,
        contention: pt.r - machine.contention_free_response(w),
        ps: Some(ps),
        iterations: 0,
    }
}

/// Solve many scenarios as one batch.
///
/// Returns one result per input lane, in input order. Equivalent to
/// `scenarios.iter().map(solve).collect()` bit for bit — including which
/// lanes fail and with which error — but substantially faster for large
/// homogeneous batches (parameter sweeps, interpolation-cell corner sets,
/// service cache-miss bursts).
pub fn solve_batch(scenarios: &[Scenario]) -> Vec<Result<Prediction, ModelError>> {
    let n = scenarios.len();
    let mut out: Vec<Option<Result<Prediction, ModelError>>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<Pending> = Vec::with_capacity(n);

    let mut a2a = RootLanes::default();
    let mut fj = RootLanes::default();
    let mut cs = RootLanes::default();
    let mut damped_models: Vec<&GeneralModel> = Vec::new();
    let mut damped_x0s: Vec<Vec<f64>> = Vec::new();

    // Pre-pass: replay each scenario's scalar entry checks; route lanes that
    // would reach an iterative kernel into their group, answer the rest
    // through the scalar dispatch (closed forms and errors are O(1)).
    for (i, s) in scenarios.iter().enumerate() {
        let p = match s {
            Scenario::AllToAll { machine, w } => {
                let model = AllToAll::new(*machine, *w);
                if model.validate().is_err() || machine.s_o == 0.0 {
                    out[i] = Some(solve(s));
                    Pending::Direct
                } else {
                    let lower = model.contention_free();
                    let lane = a2a.specs.len();
                    a2a.specs.push(BracketBisectSpec {
                        lo: lower,
                        initial_step: (4.0 + machine.c2) * machine.s_o,
                        max_doublings: 64,
                        tol: 1e-10 * lower.max(1.0),
                        max_iter: 200,
                    });
                    a2a.w.push(*w);
                    a2a.st.push(machine.s_l);
                    a2a.so.push(machine.s_o);
                    a2a.beta.push(machine.beta());
                    Pending::A2a(lane)
                }
            }
            Scenario::ForkJoin { machine, w, k } => {
                let model = ForkJoin::new(*machine, *w, *k);
                if model.validate().is_err() || machine.s_o == 0.0 {
                    out[i] = Some(solve(s));
                    Pending::Direct
                } else {
                    let lower = model.contention_free();
                    let lane = fj.specs.len();
                    fj.specs.push(BracketBisectSpec {
                        lo: lower,
                        initial_step: (4.0 + machine.c2) * *k as f64 * machine.s_o,
                        max_doublings: 96,
                        tol: 1e-10 * lower.max(1.0),
                        max_iter: 200,
                    });
                    fj.w.push(*w);
                    fj.st.push(machine.s_l);
                    fj.so.push(machine.s_o);
                    fj.beta.push(machine.beta());
                    fj.k.push(*k as f64);
                    Pending::Fj(lane)
                }
            }
            Scenario::ClientServer { machine, w, ps } => {
                let model = ClientServer::new(*machine, *w);
                let valid = model.validate().is_ok();
                match ps {
                    Some(ps_req) => {
                        if !valid || *ps_req == 0 || *ps_req >= machine.p || machine.s_o == 0.0 {
                            out[i] = Some(solve(s));
                            Pending::Direct
                        } else {
                            let lane = push_cs(&mut cs, &model, *ps_req);
                            Pending::Cs { ps: *ps_req, lane }
                        }
                    }
                    None => {
                        if !valid || machine.s_o == 0.0 {
                            out[i] = Some(solve(s));
                            Pending::Direct
                        } else {
                            let cont = model.optimal_servers_continuous();
                            let lo = (cont.floor() as usize).clamp(1, machine.p - 1);
                            let hi = (cont.ceil() as usize).clamp(1, machine.p - 1);
                            if lo == hi {
                                let lane = push_cs(&mut cs, &model, lo);
                                Pending::Cs { ps: lo, lane }
                            } else {
                                let lo_lane = push_cs(&mut cs, &model, lo);
                                let hi_lane = push_cs(&mut cs, &model, hi);
                                Pending::CsOpt {
                                    lo,
                                    hi,
                                    lo_lane,
                                    hi_lane,
                                }
                            }
                        }
                    }
                }
            }
            Scenario::General(model) => match model.initial_state() {
                Err(_) => {
                    out[i] = Some(solve(s));
                    Pending::Direct
                }
                Ok(x0) => {
                    let lane = damped_models.len();
                    damped_models.push(model);
                    damped_x0s.push(x0);
                    Pending::Damped(lane)
                }
            },
            Scenario::SharedMemory { .. } => {
                out[i] = Some(solve(s));
                Pending::Direct
            }
        };
        pending.push(p);
    }

    // The three root-find groups. The inner loops are branch-free except
    // for the final infinity select, and read lane parameters from flat
    // arrays: each round evaluates every active lane back to back, which
    // is where the cross-lane ILP comes from. Where the scalar `eval_f`
    // early-returns ∞, the full formula is computed anyway and the select
    // discards it — `∞ − r` reproduces the scalar `g` exactly, and any
    // NaN in the discarded intermediate never escapes.
    let mut a2a_dense = DenseCols::<4>::new();
    let mut a2a_roots: Vec<_> = bracket_bisect_many(&a2a.specs, |lanes, xs, out| {
        let [w, st, so, beta] = a2a_dense.refresh(lanes, [&a2a.w, &a2a.st, &a2a.so, &a2a.beta]);
        // Equal-length subslices: lets the compiler drop the bounds checks
        // and vectorize the loop (`vdivpd` throughput is the whole point).
        let m = lanes.len();
        let (xs, out) = (&xs[..m], &mut out[..m]);
        let (w, st, so, beta) = (&w[..m], &st[..m], &so[..m], &beta[..m]);
        for j in 0..m {
            let r = xs[j];
            let (w, st, so, beta) = (w[j], st[j], so[j], beta[j]);
            let a = so / r;
            let det = 1.0 - a - a * a;
            let rq = so * (1.0 + 2.0 * beta * a + a + beta * a * a) / det;
            let ry = so * (1.0 + beta * a + beta * a * a) / det;
            let rw = (w + so * rq / r) / (1.0 - a);
            let f = rw + 2.0 * st + rq + ry;
            let bad = (r <= so) | (det <= 0.0);
            out[j] = (if bad { f64::INFINITY } else { f }) - r;
        }
    })
    .into_iter()
    .map(Some)
    .collect();

    let mut fj_dense = DenseCols::<5>::new();
    let mut fj_roots: Vec<_> = bracket_bisect_many(&fj.specs, |lanes, xs, out| {
        let [w, st, so, beta, k] =
            fj_dense.refresh(lanes, [&fj.w, &fj.st, &fj.so, &fj.beta, &fj.k]);
        let m = lanes.len();
        let (xs, out) = (&xs[..m], &mut out[..m]);
        let (w, st, so, beta, k) = (&w[..m], &st[..m], &so[..m], &beta[..m], &k[..m]);
        for j in 0..m {
            let r = xs[j];
            let (w, st, so, beta, k) = (w[j], st[j], so[j], beta[j], k[j]);
            let a = so / r;
            let det = (1.0 - k * a) * (1.0 - (k - 1.0) * a) - k * k * a * a;
            let rhs_q = so * (1.0 + 2.0 * beta * k * a);
            let rhs_y = so * (1.0 + beta * (2.0 * k - 1.0) * a);
            let rq = (rhs_q * (1.0 - (k - 1.0) * a) + k * a * rhs_y) / det;
            let ry = ((1.0 - k * a) * rhs_y + k * a * rhs_q) / det;
            let rw = (w + k * a * rq) / (1.0 - k * a);
            let f = rw + 2.0 * st + rq + k * ry;
            let bad = (r <= so) | (k * a >= 1.0) | (det <= 0.0);
            out[j] = (if bad { f64::INFINITY } else { f }) - r;
        }
    })
    .into_iter()
    .map(Some)
    .collect();

    let mut cs_dense = DenseCols::<6>::new();
    let mut cs_roots: Vec<_> = bracket_bisect_many(&cs.specs, |lanes, xs, out| {
        let [w, st, so, beta, pc, ps] =
            cs_dense.refresh(lanes, [&cs.w, &cs.st, &cs.so, &cs.beta, &cs.pc, &cs.ps]);
        let m = lanes.len();
        let (xs, out) = (&xs[..m], &mut out[..m]);
        let (w, st, so, beta) = (&w[..m], &st[..m], &so[..m], &beta[..m]);
        let (pc, ps) = (&pc[..m], &ps[..m]);
        for j in 0..m {
            let r = xs[j];
            let (w, st, so, beta) = (w[j], st[j], so[j], beta[j]);
            let lambda = pc[j] / (ps[j] * r);
            let denom = 1.0 - lambda * so;
            let rq = so * (1.0 + beta * lambda * so) / denom;
            let rq_sel = if denom <= 0.0 { f64::INFINITY } else { rq };
            out[j] = w + 2.0 * st + rq_sel + so - r;
        }
    })
    .into_iter()
    .map(Some)
    .collect();

    let mut damped_results: Vec<_> = solve_damped_many(
        &damped_x0s,
        |l, x, out| damped_models[l].apply_f(x, out),
        &GeneralModel::fixed_point_options(),
    )
    .into_iter()
    .map(Some)
    .collect();

    // Fan the lane results back out to their scenarios, building each
    // Prediction through the same decomposition helpers the scalar solve
    // uses.
    for (i, p) in pending.iter().enumerate() {
        match p {
            Pending::Direct => {}
            Pending::A2a(lane) => {
                let (machine, w) = match &scenarios[i] {
                    Scenario::AllToAll { machine, w } => (machine, w),
                    _ => unreachable!("lane routing is per-variant"),
                };
                let model = AllToAll::new(*machine, *w);
                out[i] = Some(match a2a_roots[*lane].take().expect("lane used once") {
                    Ok(root) => {
                        let sol = model.decompose_at(root);
                        Ok(Prediction {
                            r: sol.r,
                            x: machine.p as f64 * sol.x_per_node,
                            rw: sol.rw,
                            rq: sol.rq,
                            ry: sol.ry,
                            contention: sol.contention,
                            ps: None,
                            iterations: sol.iterations,
                        })
                    }
                    Err(e) => Err(ModelError::from(e)),
                });
            }
            Pending::Fj(lane) => {
                let (machine, w, k) = match &scenarios[i] {
                    Scenario::ForkJoin { machine, w, k } => (machine, w, k),
                    _ => unreachable!("lane routing is per-variant"),
                };
                let model = ForkJoin::new(*machine, *w, *k);
                out[i] = Some(match fj_roots[*lane].take().expect("lane used once") {
                    Ok(root) => {
                        let sol = model.decompose_at(root);
                        Ok(Prediction {
                            r: sol.r,
                            x: machine.p as f64 / sol.r,
                            rw: sol.rw,
                            rq: sol.rq,
                            ry: sol.ry,
                            contention: sol.r - model.contention_free(),
                            ps: None,
                            iterations: sol.iterations,
                        })
                    }
                    Err(e) => Err(ModelError::from(e)),
                });
            }
            Pending::Cs { ps, lane } => {
                let (machine, w) = match &scenarios[i] {
                    Scenario::ClientServer { machine, w, .. } => (machine, w),
                    _ => unreachable!("lane routing is per-variant"),
                };
                let model = ClientServer::new(*machine, *w);
                out[i] = Some(match cs_roots[*lane].take().expect("lane used once") {
                    Ok(root) => Ok(cs_prediction(machine, *w, *ps, model.point_at(*ps, root))),
                    Err(e) => Err(ModelError::from(e)),
                });
            }
            Pending::CsOpt {
                lo,
                hi,
                lo_lane,
                hi_lane,
            } => {
                let (machine, w) = match &scenarios[i] {
                    Scenario::ClientServer { machine, w, .. } => (machine, w),
                    _ => unreachable!("lane routing is per-variant"),
                };
                let model = ClientServer::new(*machine, *w);
                let lo_res = cs_roots[*lo_lane]
                    .take()
                    .expect("lane used once")
                    .map(|root| model.point_at(*lo, root));
                let hi_res = cs_roots[*hi_lane]
                    .take()
                    .expect("lane used once")
                    .map(|root| model.point_at(*hi, root));
                // Error order matches scalar optimal_servers: throughput(lo)
                // is queried first, so its failure wins.
                out[i] = Some((|| {
                    let pt_lo = lo_res.map_err(ModelError::from)?;
                    let pt_hi = hi_res.map_err(ModelError::from)?;
                    let (ps, pt) = if pt_lo.x >= pt_hi.x {
                        (*lo, pt_lo)
                    } else {
                        (*hi, pt_hi)
                    };
                    Ok(cs_prediction(machine, *w, ps, pt))
                })());
            }
            Pending::Damped(lane) => {
                out[i] = Some(
                    match damped_results[*lane].take().expect("lane used once") {
                        Ok(conv) => {
                            let sol = damped_models[*lane].decompose(&conv.x, conv.iterations);
                            Ok(Prediction {
                                r: sol.mean_r(),
                                x: sol.system_throughput(),
                                rw: f64::NAN,
                                rq: f64::NAN,
                                ry: f64::NAN,
                                contention: f64::NAN,
                                ps: None,
                                iterations: sol.iterations,
                            })
                        }
                        Err(e) => Err(ModelError::from(e)),
                    },
                );
            }
        }
    }

    out.into_iter()
        .map(|r| r.expect("every lane resolved"))
        .collect()
}

/// Lane-level suppressed-error check used by tests and callers that want to
/// know whether an error is an exhaustion worth retrying individually.
pub fn is_retryable(e: &ModelError) -> bool {
    matches!(
        e,
        ModelError::Solver(SolverError::Exhausted {
            contracting: true,
            ..
        })
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(32, 25.0, 200.0).with_c2(0.0)
    }

    /// Bitwise equality: NaN components (General-model lanes) must match
    /// too, which `PartialEq` on f64 cannot express.
    fn assert_same(
        b: &Result<Prediction, ModelError>,
        a: &Result<Prediction, ModelError>,
        s: &Scenario,
    ) {
        match (b, a) {
            (Ok(b), Ok(a)) => {
                for (name, bv, av) in [
                    ("r", b.r, a.r),
                    ("x", b.x, a.x),
                    ("rw", b.rw, a.rw),
                    ("rq", b.rq, a.rq),
                    ("ry", b.ry, a.ry),
                    ("contention", b.contention, a.contention),
                ] {
                    assert_eq!(bv.to_bits(), av.to_bits(), "{name} differs for {s:?}");
                }
                assert_eq!(b.ps, a.ps);
                assert_eq!(b.iterations, a.iterations);
            }
            (Err(b), Err(a)) => assert_eq!(b, a, "errors differ for {s:?}"),
            (b, a) => panic!("Ok/Err mismatch for {s:?}: batched {b:?} vs scalar {a:?}"),
        }
    }

    fn assert_lane_identical(s: &Scenario) {
        let scalar = solve(s);
        let batched = solve_batch(std::slice::from_ref(s));
        assert_eq!(batched.len(), 1);
        assert_same(&batched[0], &scalar, s);
    }

    #[test]
    fn mixed_batch_matches_scalar_lane_for_lane() {
        let m = machine();
        let scenarios = vec![
            Scenario::AllToAll {
                machine: m,
                w: 1000.0,
            },
            Scenario::ClientServer {
                machine: m,
                w: 700.0,
                ps: Some(5),
            },
            Scenario::ClientServer {
                machine: m,
                w: 700.0,
                ps: None,
            },
            Scenario::ForkJoin {
                machine: m,
                w: 2000.0,
                k: 4,
            },
            Scenario::General(GeneralModel::client_server(m, 800.0, 4)),
            Scenario::SharedMemory {
                machine: m,
                w: 800.0,
            },
            // Closed forms and errors ride along untouched.
            Scenario::AllToAll {
                machine: Machine::new(8, 10.0, 0.0),
                w: 100.0,
            },
            Scenario::AllToAll {
                machine: m,
                w: -1.0,
            },
        ];
        let batched = solve_batch(&scenarios);
        for (s, b) in scenarios.iter().zip(&batched) {
            assert_same(b, &solve(s), s);
        }
        for s in &scenarios {
            assert_lane_identical(s);
        }
    }

    #[test]
    fn empty_batch() {
        assert!(solve_batch(&[]).is_empty());
    }

    #[test]
    fn cs_optimal_split_picks_the_scalar_winner() {
        // Sweep W so the continuous optimum crosses several integer splits;
        // the chosen ps must match optimal_servers exactly every time.
        for i in 0..40 {
            let w = 50.0 + 97.0 * i as f64;
            let s = Scenario::ClientServer {
                machine: machine(),
                w,
                ps: None,
            };
            let b = &solve_batch(std::slice::from_ref(&s))[0];
            let a = solve(&s);
            assert_eq!(b, &a, "W={w}");
        }
    }

    #[test]
    fn retryable_classification() {
        assert!(is_retryable(&ModelError::Solver(SolverError::Exhausted {
            x: vec![1.0],
            iterations: 10,
            residual: 0.1,
            contracting: true,
        })));
        assert!(!is_retryable(&ModelError::Solver(SolverError::Exhausted {
            x: vec![1.0],
            iterations: 10,
            residual: 0.1,
            contracting: false,
        })));
        assert!(!is_retryable(&ModelError::Degenerate("zero")));
    }
}
