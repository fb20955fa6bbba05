//! The unified scenario API: one request representation and one entry point
//! for every LoPC model variant.
//!
//! The four model types ([`AllToAll`], [`ClientServer`], [`GeneralModel`],
//! [`ForkJoin`]) each expose their own constructor and solution type — the
//! right interface for writing analysis code, but the wrong one for a
//! serving layer, a cache, or any caller that receives "a prediction
//! request" at runtime. [`Scenario`] is the closed data description of such
//! a request, [`Prediction`] the common result shape, and [`solve`] the
//! single dispatch that maps one to the other. `lopc-serve` builds its wire
//! schema, cache keys and endpoints directly on these types, and the bench
//! experiments use the same dispatch so the service answers are the
//! library's answers by construction.
//!
//! # Example
//!
//! ```
//! use lopc_core::scenario::{solve, Scenario};
//! use lopc_core::Machine;
//!
//! let machine = Machine::new(32, 25.0, 200.0).with_c2(0.0);
//! let pred = solve(&Scenario::AllToAll { machine, w: 1000.0 }).unwrap();
//! // Identical to AllToAll::new(machine, 1000.0).solve().
//! assert!(pred.r > machine.contention_free_response(1000.0));
//! ```

use crate::all_to_all::AllToAll;
use crate::client_server::ClientServer;
use crate::error::ModelError;
use crate::fork_join::ForkJoin;
use crate::general::{GeneralModel, SharedMemoryModel};
use crate::params::Machine;

/// One prediction request: which model variant, with which parameters.
///
/// The enum is the single source of truth for the serving layer's wire
/// schema (`lopc-serve` encodes exactly these fields) and for cache-key
/// derivation, so new variants added here flow to the service by extending
/// one `match` per layer.
#[derive(Clone, Debug, PartialEq)]
pub enum Scenario {
    /// Homogeneous all-to-all (§5 closed form).
    AllToAll {
        /// Architectural parameters.
        machine: Machine,
        /// Work between requests.
        w: f64,
    },
    /// Work-pile client–server (§6) at an explicit split, or at the eq. 6.8
    /// optimum when `ps` is `None`.
    ClientServer {
        /// Architectural parameters (`P` is the total node count).
        machine: Machine,
        /// Work per chunk.
        w: f64,
        /// Server count; `None` solves at the optimal allocation.
        ps: Option<usize>,
    },
    /// Fork-join fan-out of `k` overlapped requests per cycle (§7 extension).
    ForkJoin {
        /// Architectural parameters.
        machine: Machine,
        /// Work between request batches.
        w: f64,
        /// Requests per cycle.
        k: u32,
    },
    /// The full Appendix A per-node AMVA with arbitrary routing.
    General(GeneralModel),
    /// Shared-memory variant (§5.1): homogeneous all-to-all on a machine
    /// with per-node protocol processors (`Rw = W`).
    ///
    /// It is the general model's
    /// `homogeneous_all_to_all(machine, w).with_protocol_processor()`,
    /// answered bit for bit, but solved on one node's state: every node is
    /// identical, so each fixed-point iteration costs O(P), not O(P²).
    /// `P` above [`MAX_SHARED_MEMORY_P`](crate::general::MAX_SHARED_MEMORY_P)
    /// (2²⁰) is an invalid parameter.
    SharedMemory {
        /// Architectural parameters.
        machine: Machine,
        /// Work between requests.
        w: f64,
    },
}

impl Scenario {
    /// Short stable name of the variant (wire `"kind"` field, metrics
    /// labels).
    pub fn kind(&self) -> &'static str {
        match self {
            Scenario::AllToAll { .. } => "all_to_all",
            Scenario::ClientServer { .. } => "client_server",
            Scenario::ForkJoin { .. } => "fork_join",
            Scenario::General(_) => "general",
            Scenario::SharedMemory { .. } => "shared_memory",
        }
    }

    /// Validate without solving (the service rejects bad requests early).
    pub fn validate(&self) -> Result<(), ModelError> {
        match self {
            Scenario::AllToAll { machine, w } => AllToAll::new(*machine, *w).validate(),
            Scenario::ClientServer { machine, w, ps } => {
                let model = ClientServer::new(*machine, *w);
                model.validate()?;
                if let Some(ps) = ps {
                    if *ps == 0 || *ps >= machine.p {
                        return Err(ModelError::InvalidParameter("ps must be in 1..=P-1"));
                    }
                }
                Ok(())
            }
            Scenario::ForkJoin { machine, w, k } => ForkJoin::new(*machine, *w, *k).validate(),
            Scenario::General(model) => model.validate(),
            Scenario::SharedMemory { machine, w } => SharedMemoryModel::new(*machine, *w).map(drop),
        }
    }
}

// ---------------------------------------------------------------------------
// Parameter-space metadata (axes, ranges, grid snapping)
// ---------------------------------------------------------------------------

/// Number of continuous axes of an interpolation-eligible scenario.
///
/// Every closed-form variant (`AllToAll`, `ClientServer`, `ForkJoin`,
/// `SharedMemory`) is smooth in exactly these four parameters: `W`, `St`,
/// `So`, `C²`. The `General` variant's parameter space has data-dependent
/// dimension (per-node work vector plus a routing matrix) and is excluded
/// from grid interpolation.
pub const INTERP_AXES: usize = 4;

/// One continuous axis of the LoPC parameter space.
///
/// The axis kind fixes the *reference grid* used by interpolating caches:
/// a shared, query-independent lattice, so that every caller snapping the
/// same value obtains the same cell. Cycle-valued axes (`Work`, `Latency`,
/// `Overhead`) use a per-decade mantissa lattice with 2–5 % relative
/// spacing whose points include the round values machine specs are quoted
/// in (25, 200, 1000, …); the dimensionless `Cv2` axis uses a linear
/// lattice of exactly representable `1/8` steps covering the practical
/// `C² ∈ [0, 4]` range and beyond.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// Work between requests `W` (cycles).
    Work,
    /// Wire latency `St` (cycles).
    Latency,
    /// Handler dispatch cost `So` (cycles).
    Overhead,
    /// Squared coefficient of variation `C²` (dimensionless).
    Cv2,
}

/// One axis value of a concrete scenario: which axis, and where on it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AxisValue {
    /// Which axis.
    pub kind: AxisKind,
    /// The scenario's coordinate on it.
    pub value: f64,
}

/// A grid bracket around one coordinate: the nearest reference-grid points
/// with `lo <= x <= hi`. `lo == hi` means the coordinate *is* a grid point
/// (a degenerate axis — interpolation weight collapses to a single corner).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AxisBracket {
    /// Largest grid point `<= x` (bit pattern is part of cell identity).
    pub lo: f64,
    /// Smallest grid point `>= x`.
    pub hi: f64,
}

impl AxisBracket {
    /// True when the coordinate sits exactly on the grid.
    pub fn is_degenerate(&self) -> bool {
        self.lo == self.hi
    }

    /// Linear interpolation weight of `x` inside the bracket (0 at `lo`,
    /// 1 at `hi`; 0 for degenerate brackets).
    pub fn weight(&self, x: f64) -> f64 {
        if self.is_degenerate() {
            0.0
        } else {
            ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
        }
    }
}

/// Mantissa lattice shared by the cycle-valued axes: ~2–5 % relative steps
/// whose points include the round mantissas (1.0, 1.5, 2.0, 2.5, 5.0, …)
/// that machine parameters are usually quoted in.
fn mantissas() -> &'static [f64] {
    use std::sync::OnceLock;
    static M: OnceLock<Vec<f64>> = OnceLock::new();
    M.get_or_init(|| {
        let mut v = Vec::with_capacity(75);
        // 1.00 .. 1.95 in 0.05 steps (2.6–5 % relative).
        v.extend((0..20).map(|i| 1.0 + i as f64 * 0.05));
        // 2.0 .. 4.9 in 0.1 steps (2–5 %).
        v.extend((0..30).map(|i| 2.0 + i as f64 * 0.1));
        // 5.0 .. 9.8 in 0.2 steps (2–4 %).
        v.extend((0..25).map(|i| 5.0 + i as f64 * 0.2));
        v
    })
}

/// Relative tolerance for "is exactly on the grid": float noise from sweep
/// generators (`1000.0000001`) must land on the grid point, genuinely
/// distinct parameters must not.
const ON_GRID_REL_TOL: f64 = 1e-9;

/// Linear step of the `Cv2` lattice (exactly representable, so grid points
/// `k/8` are exact binary fractions and `C² ∈ {0, 0.5, 1, 2}` are on-grid).
const CV2_STEP: f64 = 0.125;

impl AxisKind {
    /// Short stable axis name (metrics labels, bench reports).
    pub fn name(&self) -> &'static str {
        match self {
            AxisKind::Work => "w",
            AxisKind::Latency => "st",
            AxisKind::Overhead => "so",
            AxisKind::Cv2 => "c2",
        }
    }

    /// The validated parameter range of this axis: every model variant
    /// accepts exactly `[0, ∞)` on all four axes, and the cycle time `R`
    /// is monotone non-decreasing in each of them (more work, longer
    /// wires, costlier handlers, or burstier service never *reduce* it —
    /// throughput `X` correspondingly never rises). Grid cells therefore
    /// never straddle a validity boundary: any bracket of an in-range
    /// coordinate is itself in range, which is what lets an interpolating
    /// cache solve corner scenarios without re-validating.
    pub fn valid_range(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    /// Bracket `x` between reference-grid points.
    ///
    /// Returns `None` when `x` cannot be placed on the grid: non-finite,
    /// negative, or at a magnitude extreme (`|x|` outside `10^±300`) where
    /// the lattice arithmetic itself would lose precision. `x = 0` is a
    /// grid point of every axis by definition.
    pub fn bracket(&self, x: f64) -> Option<AxisBracket> {
        if !x.is_finite() || x < 0.0 {
            return None;
        }
        if x == 0.0 {
            return Some(AxisBracket { lo: 0.0, hi: 0.0 });
        }
        let (lo, hi) = match self {
            AxisKind::Cv2 => {
                let k = (x / CV2_STEP).floor();
                (k * CV2_STEP, (k + 1.0) * CV2_STEP)
            }
            _ => {
                let e = x.log10().floor() as i32;
                if !(-300..=300).contains(&e) {
                    return None;
                }
                let dec = 10f64.powi(e);
                // Guard the decade against log/floor rounding at decade
                // boundaries: m must land in [1, 10).
                let (dec, e) = if x / dec < 1.0 {
                    (10f64.powi(e - 1), e - 1)
                } else if x / dec >= 10.0 {
                    (10f64.powi(e + 1), e + 1)
                } else {
                    (dec, e)
                };
                let m = x / dec;
                let table = mantissas();
                let i = match table.binary_search_by(|p| p.partial_cmp(&m).unwrap()) {
                    Ok(i) => i,
                    Err(0) => 0,
                    Err(i) => i - 1,
                };
                let lo = table[i] * dec;
                let hi = match table.get(i + 1) {
                    Some(&next) => next * dec,
                    None => 10f64.powi(e + 1),
                };
                (lo, hi)
            }
        };
        // Collapse onto an endpoint when x is within float noise of it.
        // The tolerance is *relative* to the grid point; only the C² axis
        // (whose lattice includes 0) needs an absolute floor — applying it
        // to cycle axes would swallow whole cells at magnitudes below the
        // step size.
        let near = |g: f64| {
            let scale = match self {
                AxisKind::Cv2 => g.abs().max(CV2_STEP),
                _ => g.abs(),
            };
            (x - g).abs() <= ON_GRID_REL_TOL * scale
        };
        if near(lo) {
            return Some(AxisBracket { lo, hi: lo });
        }
        if near(hi) {
            return Some(AxisBracket { lo: hi, hi });
        }
        debug_assert!(lo < x && x < hi, "bracket invariant: {lo} < {x} < {hi}");
        Some(AxisBracket { lo, hi })
    }
}

impl Scenario {
    /// The scenario's continuous axes, in canonical order
    /// `[W, St, So, C²]`, or `None` for variants that are not
    /// interpolation-eligible (`General`: data-dependent dimension).
    ///
    /// Together with [`Scenario::with_axis_values`] this is the complete
    /// parameter-space metadata an interpolating cache needs: enumerate the
    /// coordinates, snap each onto its [`AxisKind`] reference grid, and
    /// re-materialise corner/probe scenarios at grid coordinates. Discrete
    /// parameters (`P`, `ps`, `k`, the variant itself) are cell identity,
    /// never interpolated over.
    pub fn interp_axes(&self) -> Option<[AxisValue; INTERP_AXES]> {
        let (machine, w) = match self {
            Scenario::AllToAll { machine, w }
            | Scenario::SharedMemory { machine, w }
            | Scenario::ClientServer { machine, w, .. }
            | Scenario::ForkJoin { machine, w, .. } => (machine, *w),
            Scenario::General(_) => return None,
        };
        Some([
            AxisValue {
                kind: AxisKind::Work,
                value: w,
            },
            AxisValue {
                kind: AxisKind::Latency,
                value: machine.s_l,
            },
            AxisValue {
                kind: AxisKind::Overhead,
                value: machine.s_o,
            },
            AxisValue {
                kind: AxisKind::Cv2,
                value: machine.c2,
            },
        ])
    }

    /// The same scenario relocated to new axis coordinates
    /// `[W, St, So, C²]` (discrete parameters untouched), or `None` for
    /// ineligible variants.
    pub fn with_axis_values(&self, v: [f64; INTERP_AXES]) -> Option<Scenario> {
        let relocate = |machine: &Machine| Machine {
            p: machine.p,
            s_l: v[1],
            s_o: v[2],
            c2: v[3],
        };
        match self {
            Scenario::AllToAll { machine, .. } => Some(Scenario::AllToAll {
                machine: relocate(machine),
                w: v[0],
            }),
            Scenario::SharedMemory { machine, .. } => Some(Scenario::SharedMemory {
                machine: relocate(machine),
                w: v[0],
            }),
            Scenario::ClientServer { machine, ps, .. } => Some(Scenario::ClientServer {
                machine: relocate(machine),
                w: v[0],
                ps: *ps,
            }),
            Scenario::ForkJoin { machine, k, .. } => Some(Scenario::ForkJoin {
                machine: relocate(machine),
                w: v[0],
                k: *k,
            }),
            Scenario::General(_) => None,
        }
    }
}

/// The common shape of a solved scenario: the Figure 4-4 response-time
/// decomposition plus throughput, for whichever variant produced it.
///
/// Components a variant does not define are `NaN` (`rw`/`rq`/`ry` for the
/// multi-thread [`GeneralModel`] report only node-0 — the mean over nodes is
/// in `r`); consumers must treat `NaN` as "not applicable", and the serve
/// JSON codec encodes it as `null`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Mean cycle response time `R` (mean over active threads for the
    /// general model).
    pub r: f64,
    /// System throughput `X` (cycles per unit time over the whole machine).
    pub x: f64,
    /// Compute residence `Rw`.
    pub rw: f64,
    /// Request-handler response `Rq`.
    pub rq: f64,
    /// Reply-handler response `Ry`.
    pub ry: f64,
    /// Contention cost `R − (contention-free R)`.
    pub contention: f64,
    /// Servers used (client-server scenarios only, else `None`).
    pub ps: Option<usize>,
    /// Solver iterations.
    pub iterations: usize,
}

/// Solve one scenario through the variant's own entry point.
///
/// This is *the* dispatch: every number it returns is computed by the same
/// code path a direct library call would take, so service answers and
/// library answers are bit-identical (the `serve_vs_library` integration
/// test pins this).
pub fn solve(scenario: &Scenario) -> Result<Prediction, ModelError> {
    match scenario {
        Scenario::AllToAll { machine, w } => {
            let sol = AllToAll::new(*machine, *w).solve()?;
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
        Scenario::ClientServer { machine, w, ps } => {
            let model = ClientServer::new(*machine, *w);
            let ps = match ps {
                Some(ps) => *ps,
                None => model.optimal_servers()?,
            };
            let pt = model.throughput(ps)?;
            // Clients compute uninterrupted (Rw = W) and handle exactly one
            // reply per cycle (Ry = So) in the §6 analysis.
            Ok(Prediction {
                r: pt.r,
                x: pt.x,
                rw: *w,
                rq: pt.rq,
                ry: machine.s_o,
                contention: pt.r - machine.contention_free_response(*w),
                ps: Some(ps),
                iterations: 0,
            })
        }
        Scenario::ForkJoin { machine, w, k } => {
            let sol = ForkJoin::new(*machine, *w, *k).solve()?;
            Ok(Prediction {
                r: sol.r,
                x: machine.p as f64 / sol.r,
                rw: sol.rw,
                rq: sol.rq,
                ry: sol.ry,
                contention: sol.r - ForkJoin::new(*machine, *w, *k).contention_free(),
                ps: None,
                iterations: sol.iterations,
            })
        }
        Scenario::General(model) => {
            let sol = model.solve()?;
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
        Scenario::SharedMemory { machine, w } => {
            let sol = SharedMemoryModel::new(*machine, *w)?.solve()?;
            Ok(Prediction {
                r: sol.r,
                x: sol.x,
                // The protocol processor never interrupts the computation.
                rw: *w,
                rq: sol.rq,
                ry: sol.ry,
                contention: sol.r - machine.contention_free_response(*w),
                ps: None,
                iterations: sol.iterations,
            })
        }
    }
}

/// Solve many scenarios: one result per input, in input order, each the
/// [`solve`] of its scenario.
pub fn solve_batch(scenarios: &[Scenario]) -> Vec<Result<Prediction, ModelError>> {
    scenarios.iter().map(solve).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(32, 25.0, 200.0).with_c2(0.0)
    }

    /// The dispatch is the direct call, number for number.
    #[test]
    fn all_to_all_matches_direct() {
        let s = Scenario::AllToAll {
            machine: machine(),
            w: 1000.0,
        };
        let p = solve(&s).unwrap();
        let direct = AllToAll::new(machine(), 1000.0).solve().unwrap();
        assert_eq!(p.r, direct.r);
        assert_eq!(p.rw, direct.rw);
        assert_eq!(p.rq, direct.rq);
        assert_eq!(p.ry, direct.ry);
        assert_eq!(p.contention, direct.contention);
        assert_eq!(p.x, 32.0 * direct.x_per_node);
    }

    #[test]
    fn client_server_explicit_split_matches_direct() {
        let s = Scenario::ClientServer {
            machine: machine(),
            w: 1000.0,
            ps: Some(5),
        };
        let p = solve(&s).unwrap();
        let direct = ClientServer::new(machine(), 1000.0).throughput(5).unwrap();
        assert_eq!(p.r, direct.r);
        assert_eq!(p.x, direct.x);
        assert_eq!(p.rq, direct.rq);
        assert_eq!(p.ps, Some(5));
    }

    #[test]
    fn client_server_default_split_is_the_optimum() {
        let s = Scenario::ClientServer {
            machine: machine(),
            w: 1000.0,
            ps: None,
        };
        let p = solve(&s).unwrap();
        let opt = ClientServer::new(machine(), 1000.0)
            .optimal_servers()
            .unwrap();
        assert_eq!(p.ps, Some(opt));
        assert_eq!(
            p.x,
            ClientServer::new(machine(), 1000.0)
                .throughput(opt)
                .unwrap()
                .x
        );
    }

    #[test]
    fn fork_join_matches_direct() {
        let s = Scenario::ForkJoin {
            machine: machine(),
            w: 2000.0,
            k: 4,
        };
        let p = solve(&s).unwrap();
        let direct = ForkJoin::new(machine(), 2000.0, 4).solve().unwrap();
        assert_eq!(p.r, direct.r);
        assert_eq!(p.rq, direct.rq);
        assert_eq!(p.ry, direct.ry);
    }

    #[test]
    fn general_matches_direct() {
        let model = GeneralModel::client_server(machine(), 800.0, 4);
        let s = Scenario::General(model.clone());
        let p = solve(&s).unwrap();
        let direct = model.solve().unwrap();
        assert_eq!(p.r, direct.mean_r());
        assert_eq!(p.x, direct.system_throughput());
        assert!(p.rw.is_nan() && p.rq.is_nan() && p.ry.is_nan());
    }

    #[test]
    fn shared_memory_is_the_protocol_processor_variant() {
        let s = Scenario::SharedMemory {
            machine: machine(),
            w: 800.0,
        };
        let p = solve(&s).unwrap();
        let direct = GeneralModel::homogeneous_all_to_all(machine(), 800.0)
            .with_protocol_processor()
            .solve()
            .unwrap();
        assert_eq!(p.r, direct.r[0]);
        // Protocol processor: compute is never interrupted.
        assert!((p.rw - 800.0).abs() < 1e-9);
        // And it beats the message-passing variant.
        let mp = solve(&Scenario::AllToAll {
            machine: machine(),
            w: 800.0,
        })
        .unwrap();
        assert!(p.r < mp.r);
    }

    /// `SharedMemory` `P` outside `2..=2²⁰` is an invalid parameter at every
    /// entry point: no debug-build overflow, no endless O(P) solve.
    #[test]
    fn shared_memory_p_out_of_range_is_invalid() {
        use crate::general::MAX_SHARED_MEMORY_P;
        for (p, msg) in [
            (0, "p must be >= 2"),
            (1, "p must be >= 2"),
            (MAX_SHARED_MEMORY_P + 1, "p must be <= 2^20"),
            (1_000_000_000_000_000, "p must be <= 2^20"),
        ] {
            let s = Scenario::SharedMemory {
                machine: Machine::new(p, 1.0, 1.0),
                w: 1.0,
            };
            let want = Err(ModelError::InvalidParameter(msg));
            assert_eq!(s.validate(), want, "validate, p={p}");
            assert_eq!(solve(&s).map(drop), want, "solve, p={p}");
            let batch = solve_batch(std::slice::from_ref(&s));
            assert_eq!(batch[0].clone().map(drop), want, "solve_batch, p={p}");
        }
        let at_cap = Scenario::SharedMemory {
            machine: Machine::new(MAX_SHARED_MEMORY_P, 1.0, 1.0),
            w: 1.0,
        };
        assert_eq!(at_cap.validate(), Ok(()));
    }

    /// A machine whose P×P visit matrix would take 80 GB solves on one
    /// node's state.
    #[test]
    fn shared_memory_solves_a_large_machine() {
        let m = Machine::new(100_000, 25.0, 200.0).with_c2(0.0);
        let s = Scenario::SharedMemory {
            machine: m,
            w: 1000.0,
        };
        assert_eq!(s.validate(), Ok(()));
        let p = solve(&s).unwrap();
        assert_eq!(p.rw, 1000.0);
        assert!(p.r > m.contention_free_response(1000.0));
        assert!((p.x * p.r / 100_000.0 - 1.0).abs() < 1e-9, "X = P/R");
    }

    #[test]
    fn kinds_are_stable() {
        let m = machine();
        assert_eq!(
            Scenario::AllToAll { machine: m, w: 1.0 }.kind(),
            "all_to_all"
        );
        assert_eq!(
            Scenario::ClientServer {
                machine: m,
                w: 1.0,
                ps: None
            }
            .kind(),
            "client_server"
        );
        assert_eq!(
            Scenario::ForkJoin {
                machine: m,
                w: 1.0,
                k: 2
            }
            .kind(),
            "fork_join"
        );
        assert_eq!(
            Scenario::General(GeneralModel::homogeneous_all_to_all(m, 1.0)).kind(),
            "general"
        );
        assert_eq!(
            Scenario::SharedMemory { machine: m, w: 1.0 }.kind(),
            "shared_memory"
        );
    }

    #[test]
    fn round_machine_parameters_sit_on_the_grid() {
        // The canonical machines of the thesis quantize onto lattice points,
        // so sweeps over W at a fixed machine get degenerate machine axes
        // (1-D cells, two corners) instead of full 4-D cells.
        for (kind, x) in [
            (AxisKind::Latency, 25.0),
            (AxisKind::Overhead, 200.0),
            (AxisKind::Work, 1000.0),
            (AxisKind::Work, 500.0),
            (AxisKind::Latency, 50.0),
            (AxisKind::Cv2, 0.0),
            (AxisKind::Cv2, 1.0),
            (AxisKind::Cv2, 2.0),
            (AxisKind::Cv2, 0.5),
        ] {
            let b = kind.bracket(x).unwrap();
            assert!(
                b.is_degenerate(),
                "{}={x} must be on-grid, got {b:?}",
                kind.name()
            );
            assert_eq!(b.lo, x);
        }
    }

    #[test]
    fn float_noise_collapses_onto_the_grid_point() {
        let b = AxisKind::Work.bracket(1000.0000001).unwrap();
        assert!(b.is_degenerate());
        assert_eq!(b.lo, 1000.0);
    }

    #[test]
    fn off_grid_values_get_proper_brackets() {
        for (kind, x) in [
            (AxisKind::Work, 131.0),
            (AxisKind::Work, 777.7),
            (AxisKind::Latency, 33.3),
            (AxisKind::Cv2, 1.3),
            (AxisKind::Work, 0.00123),
            (AxisKind::Work, 123456.7),
        ] {
            let b = kind.bracket(x).unwrap();
            assert!(b.lo < x && x < b.hi, "{}={x}: {b:?}", kind.name());
            assert!(!b.is_degenerate());
            let t = b.weight(x);
            assert!(t > 0.0 && t < 1.0);
            // Brackets are tight: 2–5 % relative on cycle axes, one linear
            // step on C².
            if kind == AxisKind::Cv2 {
                assert!((b.hi - b.lo - 0.125).abs() < 1e-12);
            } else {
                let rel = (b.hi - b.lo) / b.lo;
                assert!(
                    rel > 0.015 && rel < 0.055,
                    "{}={x}: step {rel}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn bracket_is_consistent_across_the_cell() {
        // Every x inside a cell brackets to the same (lo, hi) — the property
        // that makes cells shared between queries.
        let b = AxisKind::Work.bracket(777.7).unwrap();
        for f in [0.05, 0.3, 0.7, 0.95] {
            let x = b.lo + f * (b.hi - b.lo);
            let bx = AxisKind::Work.bracket(x).unwrap();
            if bx.is_degenerate() {
                // Only possible within float tolerance of an endpoint.
                assert!(bx.lo == b.lo || bx.lo == b.hi);
            } else {
                assert_eq!((bx.lo, bx.hi), (b.lo, b.hi), "x={x}");
            }
        }
    }

    #[test]
    fn tiny_magnitudes_keep_proper_brackets() {
        // Regression: the degeneracy tolerance is relative to the grid
        // point, so a mid-cell value at tiny magnitude must NOT collapse
        // onto a corner (an absolute floor here once swallowed whole cells
        // below ~1e-8).
        let b = AxisKind::Work.bracket(5.1e-9).unwrap();
        assert!(!b.is_degenerate(), "5.1e-9 sits mid-cell: {b:?}");
        assert!(b.lo < 5.1e-9 && 5.1e-9 < b.hi);
        // While genuine float noise at the same magnitude still snaps.
        let g = AxisKind::Work.bracket(5e-9 * (1.0 + 1e-12)).unwrap();
        assert!(g.is_degenerate());
    }

    #[test]
    fn zero_and_extremes() {
        let z = AxisKind::Work.bracket(0.0).unwrap();
        assert!(z.is_degenerate() && z.lo == 0.0);
        assert!(AxisKind::Work.bracket(f64::NAN).is_none());
        assert!(AxisKind::Work.bracket(-1.0).is_none());
        assert!(AxisKind::Work.bracket(1e305).is_none());
        assert!(AxisKind::Work.bracket(1e-305).is_none());
        // Decade boundary from below: bracket of 9.99e2 spans into 1e3.
        let b = AxisKind::Work.bracket(999.0).unwrap();
        assert_eq!(b.hi, 1000.0);
        assert!((b.lo - 980.0).abs() < 1e-9);
    }

    #[test]
    fn axes_enumerate_and_relocate() {
        let s = Scenario::ForkJoin {
            machine: machine(),
            w: 2000.0,
            k: 4,
        };
        let axes = s.interp_axes().unwrap();
        assert_eq!(axes[0].kind, AxisKind::Work);
        assert_eq!(axes[0].value, 2000.0);
        assert_eq!(axes[1].value, 25.0);
        assert_eq!(axes[2].value, 200.0);
        assert_eq!(axes[3].value, 0.0);
        let moved = s.with_axis_values([1500.0, 30.0, 210.0, 1.0]).unwrap();
        match moved {
            Scenario::ForkJoin { machine, w, k } => {
                assert_eq!(w, 1500.0);
                assert_eq!(machine.s_l, 30.0);
                assert_eq!(machine.s_o, 210.0);
                assert_eq!(machine.c2, 1.0);
                assert_eq!(machine.p, 32);
                assert_eq!(k, 4, "discrete parameters are never relocated");
            }
            other => panic!("variant changed: {other:?}"),
        }
        // General is ineligible.
        let g = Scenario::General(GeneralModel::homogeneous_all_to_all(machine(), 100.0));
        assert!(g.interp_axes().is_none());
        assert!(g.with_axis_values([1.0, 1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let bad_machine = Machine::new(1, 25.0, 200.0);
        assert!(Scenario::AllToAll {
            machine: bad_machine,
            w: 1.0
        }
        .validate()
        .is_err());
        assert!(Scenario::ClientServer {
            machine: machine(),
            w: 1.0,
            ps: Some(32)
        }
        .validate()
        .is_err());
        assert!(Scenario::ForkJoin {
            machine: machine(),
            w: 1.0,
            k: 0
        }
        .validate()
        .is_err());
        assert!(Scenario::AllToAll {
            machine: machine(),
            w: -1.0
        }
        .validate()
        .is_err());
        // Solving a bad scenario errors the same way.
        assert!(solve(&Scenario::AllToAll {
            machine: machine(),
            w: f64::NAN
        })
        .is_err());
    }
}
