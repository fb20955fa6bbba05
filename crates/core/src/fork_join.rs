//! **Extension (§7 future work):** non-blocking, overlapped communication via
//! fork-join fan-out.
//!
//! The thesis closes by proposing to extend LoPC "to model non-blocking
//! requests" (citing Heidelberger & Trivedi's treatment of asynchronous
//! tasks). This module implements the simplest useful member of that family:
//! each thread computes `W`, then issues `k` requests *simultaneously* to
//! uniformly random nodes and blocks until **all** `k` replies have been
//! handled (a fork-join barrier per cycle). `k = 1` is exactly the blocking
//! model of §5.
//!
//! The AMVA treatment follows the §5 recipe with the rates scaled by the
//! batch size (`λq = λy = k/R` per node), plus two structural changes:
//!
//! * an arriving **reply** can now queue behind its sibling replies; the
//!   self-exclusion that zeroed the reply-queue term in eq. 5.6 becomes a
//!   `(k−1)/k` factor;
//! * the cycle's communication phase overlaps the `k` request round-trips
//!   but the `k` reply handlers **serialise** on the home CPU, so the cycle
//!   closes after `Rq + k·Ry` (the request-overlap / reply-drain
//!   approximation):
//!
//! ```text
//! a  = So/R
//! Rq·(1 − k·a) − k·a·Ry          = So(1 + 2βk·a)
//! −k·a·Rq + Ry·(1 − (k−1)·a)    = So(1 + β(2k−1)·a)
//! Rw = (W + k·a·Rq) / (1 − k·a)                       (BKT)
//! F[R] = Rw + 2·St + Rq + k·Ry
//! ```
//!
//! This is an *approximation*, not a theorem from the thesis; the
//! `pipelining` bench and the integration tests report its measured accuracy
//! against the simulator (typically within ~10 % for moderate `k`, degrading
//! as the home node saturates with reply processing).

use crate::error::ModelError;
use crate::params::Machine;
use lopc_solver::{bisect, bracket_upward, Root};

/// Homogeneous all-to-all with per-cycle fan-out `k` (fork-join).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForkJoin {
    /// Architectural parameters.
    pub machine: Machine,
    /// Average work between request batches.
    pub w: f64,
    /// Requests issued per cycle.
    pub k: u32,
}

/// Solution of the fork-join model.
#[derive(Clone, Copy, Debug)]
pub struct ForkJoinSolution {
    /// Cycle response time.
    pub r: f64,
    /// Compute residence (`Rw`).
    pub rw: f64,
    /// Per-request server response (`Rq`).
    pub rq: f64,
    /// Per-reply home response (`Ry`).
    pub ry: f64,
    /// Request-handler utilisation per node (`k·So/R`).
    pub uq: f64,
    /// Requests per cycle per node = `k/R`.
    pub x_requests: f64,
    /// Bisection iterations.
    pub iterations: usize,
}

impl ForkJoin {
    /// Fork-join model with fan-out `k ≥ 1`.
    pub fn new(machine: Machine, w: f64, k: u32) -> Self {
        ForkJoin { machine, w, k }
    }

    /// Parameter validation.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.machine.validate()?;
        if self.k == 0 {
            return Err(ModelError::InvalidParameter("k must be >= 1"));
        }
        if self.k as usize >= self.machine.p {
            return Err(ModelError::InvalidParameter(
                "fan-out must be smaller than the machine",
            ));
        }
        if !self.w.is_finite() || self.w < 0.0 {
            return Err(ModelError::InvalidParameter("w must be finite and >= 0"));
        }
        Ok(())
    }

    /// Contention-free cycle cost with full request overlap:
    /// `W + 2St + So + k·So` (one request round-trip visible, `k` serial
    /// reply handlers).
    pub fn contention_free(&self) -> f64 {
        self.w + 2.0 * self.machine.s_l + self.machine.s_o * (1.0 + self.k as f64)
    }

    /// Fully-serialised upper reference: `k` blocking round-trips
    /// (`W + k·(2St + 2So)`) **without** contention — what a program doing
    /// the requests one at a time would pay at minimum.
    pub fn serial_reference(&self) -> f64 {
        self.w + self.k as f64 * (2.0 * self.machine.s_l + 2.0 * self.machine.s_o)
    }

    /// Evaluate the recursion `F[R]` (∞ at or below saturation).
    pub fn eval_f(&self, r: f64) -> f64 {
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let k = self.k as f64;
        if so == 0.0 {
            return self.w + 2.0 * st;
        }
        if r <= so {
            return f64::INFINITY;
        }
        let a = so / r;
        if k * a >= 1.0 {
            return f64::INFINITY;
        }
        let det = (1.0 - k * a) * (1.0 - (k - 1.0) * a) - k * k * a * a;
        if det <= 0.0 {
            return f64::INFINITY;
        }
        let beta = self.machine.beta();
        let rhs_q = so * (1.0 + 2.0 * beta * k * a);
        let rhs_y = so * (1.0 + beta * (2.0 * k - 1.0) * a);
        let rq = (rhs_q * (1.0 - (k - 1.0) * a) + k * a * rhs_y) / det;
        let ry = ((1.0 - k * a) * rhs_y + k * a * rhs_q) / det;
        let rw = (self.w + k * a * rq) / (1.0 - k * a);
        rw + 2.0 * st + rq + k * ry
    }

    /// Solve for the fixed point.
    pub fn solve(&self) -> Result<ForkJoinSolution, ModelError> {
        self.validate()?;
        let so = self.machine.s_o;
        let k = self.k as f64;
        let lower = self.contention_free();
        if lower == 0.0 {
            return Err(ModelError::Degenerate("zero-cost cycle"));
        }
        if so == 0.0 {
            let r = self.w + 2.0 * self.machine.s_l;
            return Ok(ForkJoinSolution {
                r,
                rw: self.w,
                rq: 0.0,
                ry: 0.0,
                uq: 0.0,
                x_requests: k / r,
                iterations: 0,
            });
        }
        let g = |r: f64| self.eval_f(r) - r;
        let hi = bracket_upward(g, lower, (4.0 + self.machine.c2) * k * so, 96)?;
        let root = bisect(g, lower, hi, 1e-10 * lower.max(1.0), 200)?;
        Ok(self.decompose_at(root))
    }

    /// Recompose the solution at a solved fixed point of `F[R] − R`.
    fn decompose_at(&self, root: Root) -> ForkJoinSolution {
        let so = self.machine.s_o;
        let k = self.k as f64;
        let r = root.x;
        let a = so / r;
        let det = (1.0 - k * a) * (1.0 - (k - 1.0) * a) - k * k * a * a;
        let beta = self.machine.beta();
        let rhs_q = so * (1.0 + 2.0 * beta * k * a);
        let rhs_y = so * (1.0 + beta * (2.0 * k - 1.0) * a);
        let rq = (rhs_q * (1.0 - (k - 1.0) * a) + k * a * rhs_y) / det;
        let ry = ((1.0 - k * a) * rhs_y + k * a * rhs_q) / det;
        let rw = (self.w + k * a * rq) / (1.0 - k * a);
        ForkJoinSolution {
            r,
            rw,
            rq,
            ry,
            uq: k * a,
            x_requests: k / r,
            iterations: root.iterations,
        }
    }

    /// Speedup of overlapping over issuing the same `k` requests as serial
    /// blocking cycles (each with `W/k` work, solved with the contended §5
    /// model): `R_serial / R_forkjoin`. Greater than 1 whenever hiding
    /// round-trips wins; approaches 1 as `W` dominates the cycle.
    pub fn speedup_vs_serial(&self) -> Result<f64, ModelError> {
        let r = self.solve()?.r;
        let serial = crate::all_to_all::AllToAll::new(self.machine, self.w / self.k as f64)
            .solve()?
            .r
            * self.k as f64;
        Ok(serial / r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_to_all::AllToAll;

    fn machine() -> Machine {
        Machine::new(32, 25.0, 200.0).with_c2(0.0)
    }

    /// k = 1 must agree exactly with the §5 blocking model.
    #[test]
    fn k1_reduces_to_blocking_model() {
        for &w in &[0.0, 100.0, 1000.0] {
            for &c2 in &[0.0, 1.0, 2.0] {
                let m = machine().with_c2(c2);
                let fj = ForkJoin::new(m, w, 1).solve().unwrap();
                let a2a = AllToAll::new(m, w).solve().unwrap();
                assert!(
                    (fj.r - a2a.r).abs() < 1e-6 * a2a.r,
                    "W={w} C2={c2}: fork-join {} vs blocking {}",
                    fj.r,
                    a2a.r
                );
            }
        }
    }

    /// R grows with k, but far slower than k blocking round trips: the whole
    /// point of overlapping.
    #[test]
    fn overlap_beats_serial() {
        let w = 2000.0;
        let r1 = ForkJoin::new(machine(), w, 1).solve().unwrap().r;
        for k in [2u32, 4, 8] {
            let fj = ForkJoin::new(machine(), w, k);
            let rk = fj.solve().unwrap().r;
            assert!(rk > r1, "more requests cost more");
            // A serial program would pay ~k·(2St+2So) of communication.
            let serial = AllToAll::new(machine(), w / k as f64).solve().unwrap().r * k as f64;
            assert!(
                rk < serial,
                "k={k}: fork-join {rk} must beat serialised {serial}"
            );
        }
    }

    /// Utilisation scales with k and stays subcritical.
    #[test]
    fn utilisation_scales_with_k() {
        let w = 4000.0;
        let u2 = ForkJoin::new(machine(), w, 2).solve().unwrap().uq;
        let u6 = ForkJoin::new(machine(), w, 6).solve().unwrap().uq;
        assert!(u6 > 2.0 * u2, "u6={u6} vs u2={u2}");
        assert!(u6 < 1.0);
    }

    /// Overlapping beats serial issue whenever communication is a material
    /// part of the cycle, and the advantage fades as W dominates.
    #[test]
    fn speedup_vs_serial_behaviour() {
        let comm_bound = ForkJoin::new(machine(), 500.0, 4)
            .speedup_vs_serial()
            .unwrap();
        let work_bound = ForkJoin::new(machine(), 20_000.0, 4)
            .speedup_vs_serial()
            .unwrap();
        assert!(
            comm_bound > 1.15,
            "communication-bound speedup {comm_bound}"
        );
        assert!(work_bound < comm_bound);
        assert!(work_bound > 0.95, "work-bound speedup {work_bound}");
        // k = 1 is the identity.
        let k1 = ForkJoin::new(machine(), 500.0, 1)
            .speedup_vs_serial()
            .unwrap();
        assert!((k1 - 1.0).abs() < 1e-9);
    }

    /// Validation errors.
    #[test]
    fn validation() {
        assert!(ForkJoin::new(machine(), 1.0, 0).solve().is_err());
        assert!(ForkJoin::new(machine(), 1.0, 32).solve().is_err());
        assert!(ForkJoin::new(machine(), -1.0, 2).solve().is_err());
        // Zero-handler degenerate case.
        let m = Machine::new(8, 10.0, 0.0);
        let sol = ForkJoin::new(m, 100.0, 3).solve().unwrap();
        assert_eq!(sol.r, 120.0);
    }

    /// The fixed point satisfies F[R*] = R*.
    #[test]
    fn solution_is_fixed_point() {
        let fj = ForkJoin::new(machine(), 1500.0, 4);
        let sol = fj.solve().unwrap();
        assert!((fj.eval_f(sol.r) - sol.r).abs() < 1e-6);
    }
}
