//! Homogeneous all-to-all communication: the closed-form LoPC analysis of §5.
//!
//! Every node computes for `W` on average, then sends a blocking request to a
//! uniformly random other node. By symmetry, requests and replies each arrive
//! at every node at rate `1/R`, which collapses the Appendix A system to one
//! scalar recursion `F[R]` (eq. 5.11). `F` is continuous and strictly
//! decreasing for `R` above the contention-free cost, so it has a unique
//! stable fixed point `R*` bounded by (eq. 5.12, for `C² = 0`):
//!
//! ```text
//! W + 2·St + 2·So  <  R*  <  W + 2·St + 3.46·So
//! ```
//!
//! The derivation, for general `C²` with `β = (C²−1)/2` and `a = So/R`
//! (per-node arrival rate of requests and of replies is `1/R`, so
//! `Uq = Uy = a` and `Qq = Rq/R`, `Qy = Ry/R`):
//!
//! ```text
//! Rq = So(1 + Qq + Qy + β(Uq + Uy))      (eq. 5.9)
//! Ry = So(1 + Qq + β·Uq)                 (eq. 5.10)
//! Rw = (W + So·Qq) / (1 − Uq)            (eq. 5.7, BKT)
//! F[R] = Rw + 2·St + Rq + Ry             (eq. 4.1)
//! ```
//!
//! At fixed `R` the first two equations are linear in `(Rq, Ry)`:
//!
//! ```text
//! Rq = So(1 + βa + a + 2βa + βa² − βa − a·... )    — solved exactly below:
//! Rq = So(1 + 2βa + a + βa²) / (1 − a − a²)
//! Ry = So(1 + βa + βa²)      / (1 − a − a²)
//! ```
//!
//! For `C² = 0` (`β = −1/2`) this reproduces the quartic of eq. 5.11 with the
//! same denominators (`R − So` and `R² − R·So − So²`), and its fixed point at
//! `W = St = 0` is `≈ 3.455·So` — the paper's 3.46 constant.

use crate::error::ModelError;
use crate::params::Machine;
use lopc_solver::{bisect, bracket_upward, Root};

/// The homogeneous all-to-all model (§5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllToAll {
    /// Architectural parameters.
    pub machine: Machine,
    /// Average work between requests, `W`.
    pub w: f64,
}

/// Solution of the all-to-all model: the response-time decomposition of
/// Figure 4-4 plus the derived queueing quantities of Table 4.1.
#[derive(Clone, Copy, Debug)]
pub struct AllToAllSolution {
    /// Total compute/request cycle response time `R*`.
    pub r: f64,
    /// Compute residence time `Rw` (work + handler interference).
    pub rw: f64,
    /// Request-handler response time `Rq` (service + queueing).
    pub rq: f64,
    /// Reply-handler response time `Ry`.
    pub ry: f64,
    /// Average request-handler population per node `Qq`.
    pub qq: f64,
    /// Average reply-handler population per node `Qy`.
    pub qy: f64,
    /// Utilisation by request handlers `Uq`.
    pub uq: f64,
    /// Utilisation by reply handlers `Uy`.
    pub uy: f64,
    /// Per-node throughput `1/R` (system throughput is `P/R`).
    pub x_per_node: f64,
    /// Total contention cost `C = R − (W + 2St + 2So)`.
    pub contention: f64,
    /// Bisection iterations used.
    pub iterations: usize,
}

impl AllToAllSolution {
    /// Contention suffered by the computation thread (`Rw − W`).
    pub fn contention_rw(&self, w: f64) -> f64 {
        self.rw - w
    }

    /// Queueing delay suffered by request handlers (`Rq − So`).
    pub fn contention_rq(&self, s_o: f64) -> f64 {
        self.rq - s_o
    }

    /// Queueing delay suffered by reply handlers (`Ry − So`).
    pub fn contention_ry(&self, s_o: f64) -> f64 {
        self.ry - s_o
    }
}

impl AllToAll {
    /// Model for `machine` with average inter-request work `w`.
    pub fn new(machine: Machine, w: f64) -> Self {
        AllToAll { machine, w }
    }

    /// Parameter validation.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.machine.validate()?;
        if !self.w.is_finite() || self.w < 0.0 {
            return Err(ModelError::InvalidParameter("w must be finite and >= 0"));
        }
        Ok(())
    }

    /// The contention-free cycle cost `W + 2·St + 2·So` — the lower bound of
    /// eq. 5.12 and the naive LogP prediction.
    pub fn contention_free(&self) -> f64 {
        self.machine.contention_free_response(self.w)
    }

    /// The upper bound of eq. 5.12: `W + 2·St + κ(C²)·So`, where `κ` is the
    /// normalised worst-case response (`κ(0) ≈ 3.46`, the paper's constant).
    pub fn upper_bound(&self) -> f64 {
        self.w + 2.0 * self.machine.s_l + upper_bound_constant(self.machine.c2) * self.machine.s_o
    }

    /// The §5.3 rule of thumb: contention costs about one extra handler, so
    /// `R ≈ W + 2·St + 3·So`.
    pub fn rule_of_thumb(&self) -> f64 {
        self.w + 2.0 * self.machine.s_l + 3.0 * self.machine.s_o
    }

    /// Evaluate the recursion `F[R]` (eq. 5.11 generalised to any `C²`).
    ///
    /// Returns `f64::INFINITY` when `R` is at or below the saturation point
    /// (`R² − R·So − So² ≤ 0` or `R ≤ So`), where the queueing equations have
    /// no physical solution — convenient for bracketing.
    pub fn eval_f(&self, r: f64) -> f64 {
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        if so == 0.0 {
            return self.w + 2.0 * st;
        }
        if r <= so {
            return f64::INFINITY;
        }
        let a = so / r;
        let det = 1.0 - a - a * a; // > 0  <=>  r² − r·So − So² > 0
        if det <= 0.0 {
            return f64::INFINITY;
        }
        let beta = self.machine.beta();
        let rq = so * (1.0 + 2.0 * beta * a + a + beta * a * a) / det;
        let ry = so * (1.0 + beta * a + beta * a * a) / det;
        // BKT: Rw = (W + So·Qq)/(1 − Uq) with Qq = Rq/R, Uq = a.
        let rw = (self.w + so * rq / r) / (1.0 - a);
        rw + 2.0 * st + rq + ry
    }

    /// Solve `F[R] = R` for the unique fixed point and decompose it.
    pub fn solve(&self) -> Result<AllToAllSolution, ModelError> {
        self.validate()?;
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let lower = self.contention_free();

        // Degenerate cases first.
        if lower == 0.0 {
            return Err(ModelError::Degenerate(
                "w, s_l and s_o are all zero: cycle time is 0",
            ));
        }
        if so == 0.0 {
            // No handlers => no contention; R = W + 2·St exactly.
            let r = self.w + 2.0 * st;
            return Ok(AllToAllSolution {
                r,
                rw: self.w,
                rq: 0.0,
                ry: 0.0,
                qq: 0.0,
                qy: 0.0,
                uq: 0.0,
                uy: 0.0,
                x_per_node: 1.0 / r,
                contention: 0.0,
                iterations: 0,
            });
        }

        // g(R) = F(R) − R is strictly decreasing with g(lower) > 0; bracket
        // above and bisect. The generous initial step covers the whole
        // feasible contention range (κ ≤ 4·So for any C² ≤ ~8).
        let g = |r: f64| self.eval_f(r) - r;
        let hi = bracket_upward(g, lower, (4.0 + self.machine.c2) * so, 64)?;
        let root = bisect(g, lower, hi, 1e-10 * lower.max(1.0), 200)?;
        Ok(self.decompose_at(root))
    }

    /// Recompute the Figure 4-4 decomposition at a solved fixed point of
    /// `F[R] − R`.
    fn decompose_at(&self, root: Root) -> AllToAllSolution {
        let so = self.machine.s_o;
        let r = root.x;
        let a = so / r;
        let det = 1.0 - a - a * a;
        let beta = self.machine.beta();
        let rq = so * (1.0 + 2.0 * beta * a + a + beta * a * a) / det;
        let ry = so * (1.0 + beta * a + beta * a * a) / det;
        let rw = (self.w + so * rq / r) / (1.0 - a);
        AllToAllSolution {
            r,
            rw,
            rq,
            ry,
            qq: rq / r,
            qy: ry / r,
            uq: a,
            uy: a,
            x_per_node: 1.0 / r,
            contention: r - self.contention_free(),
            iterations: root.iterations,
        }
    }

    /// Total application runtime for `n` requests per node (`n·R*`).
    pub fn total_runtime(&self, n: u64) -> Result<f64, ModelError> {
        Ok(n as f64 * self.solve()?.r)
    }
}

/// The worst-case normalised response `κ(C²)`: the fixed point of the
/// recursion with `W = St = 0` and `So = 1`, i.e. the constant in the upper
/// bound `R* < W + 2·St + κ·So` (eq. 5.12). `κ(0) ≈ 3.455` — the thesis
/// rounds it to 3.46; `κ(1) ≈ 3.93`.
pub fn upper_bound_constant(c2: f64) -> f64 {
    let m = Machine::new(2, 0.0, 1.0).with_c2(c2);
    let model = AllToAll::new(m, 0.0);
    model
        .solve()
        .map(|s| s.r)
        .expect("normalised model always solvable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig52_machine() -> Machine {
        Machine::new(32, 25.0, 200.0).with_c2(0.0)
    }

    /// The paper's headline constant: κ(0) rounds to 3.46.
    #[test]
    fn kappa_zero_is_the_papers_346() {
        let k = upper_bound_constant(0.0);
        assert!(
            (3.40..=3.46).contains(&k),
            "κ(0) = {k} should round to the paper's 3.46"
        );
        // 3.46 is a strict upper bound: F[3.46] < 3.46 (checked in §5.3).
        let m = Machine::new(2, 0.0, 1.0).with_c2(0.0);
        let model = AllToAll::new(m, 0.0);
        assert!(model.eval_f(3.46) < 3.46);
    }

    /// κ grows with variability (≈6 % from C²=0 to C²=1 per Figure 5-1).
    #[test]
    fn kappa_monotone_in_c2() {
        let k0 = upper_bound_constant(0.0);
        let k1 = upper_bound_constant(1.0);
        let k2 = upper_bound_constant(2.0);
        assert!(k0 < k1 && k1 < k2, "κ: {k0}, {k1}, {k2}");
        assert!((3.8..=4.1).contains(&k1), "κ(1) = {k1}");
    }

    /// eq. 5.12: the fixed point lies strictly inside the bounds across a
    /// wide W sweep.
    #[test]
    fn bounds_hold_across_w_sweep() {
        for &w in &[0.0, 2.0, 8.0, 32.0, 128.0, 512.0, 2048.0] {
            let model = AllToAll::new(fig52_machine(), w);
            let sol = model.solve().unwrap();
            assert!(
                sol.r > model.contention_free(),
                "W={w}: R={} <= lower bound {}",
                sol.r,
                model.contention_free()
            );
            assert!(
                sol.r <= model.upper_bound() + 1e-6,
                "W={w}: R={} > upper bound {}",
                sol.r,
                model.upper_bound()
            );
        }
    }

    /// The fixed point satisfies F[R*] = R*.
    #[test]
    fn solution_is_a_fixed_point() {
        let model = AllToAll::new(fig52_machine(), 512.0);
        let sol = model.solve().unwrap();
        assert!((model.eval_f(sol.r) - sol.r).abs() < 1e-6);
        // And the decomposition is internally consistent.
        let recomposed = sol.rw + 2.0 * 25.0 + sol.rq + sol.ry;
        assert!((recomposed - sol.r).abs() < 1e-6);
    }

    /// Bisection, the secant method and the damped fixed point find the
    /// same root of the §5.3 equation `F[R] = R`, to 1e-9 relative. They
    /// agree to about 1e-12; a secant that returns its previous iterate
    /// instead of its last one is about 4e-8 off.
    #[test]
    fn root_finders_agree_on_the_fixed_point() {
        use lopc_solver::{secant, solve_damped, FixedPointOptions};
        let model = AllToAll::new(fig52_machine(), 512.0);
        let lo = model.contention_free();
        let hi = model.upper_bound();
        let r_bis = bisect(|r| model.eval_f(r) - r, lo, hi + 1.0, 1e-10, 200)
            .unwrap()
            .x;
        let r_sec = secant(|r| model.eval_f(r) - r, lo + 1.0, hi, 1e-9, 100)
            .unwrap()
            .x;
        let r_fp = solve_damped(
            vec![lo + 1.0],
            |x, out| out[0] = model.eval_f(x[0]),
            &FixedPointOptions {
                damping: 0.5,
                tol: 1e-12,
                max_iter: 100_000,
            },
        )
        .unwrap()
        .x[0];
        let agrees = |r: f64| ((r - r_bis) / r_bis).abs() < 1e-9;
        assert!(
            agrees(r_sec) && agrees(r_fp),
            "bisection {r_bis} / secant {r_sec} / fixed point {r_fp}"
        );
    }

    /// F is strictly decreasing above the contention-free point.
    #[test]
    fn f_is_decreasing() {
        let model = AllToAll::new(fig52_machine(), 100.0);
        let lo = model.contention_free();
        let mut prev = model.eval_f(lo + 1.0);
        for i in 1..60 {
            let r = lo + 1.0 + i as f64 * 10.0;
            let cur = model.eval_f(r);
            assert!(cur < prev, "F must decrease: F({r}) = {cur} >= {prev}");
            prev = cur;
        }
    }

    /// As W → ∞ the relative contention vanishes but the absolute contention
    /// approaches one handler time from above... (rule of thumb, §5.3).
    #[test]
    fn rule_of_thumb_accuracy() {
        for &w in &[200.0, 1000.0, 4000.0] {
            let model = AllToAll::new(fig52_machine(), w);
            let sol = model.solve().unwrap();
            let rot = model.rule_of_thumb();
            // Rule of thumb within ~half a handler of the exact solution.
            assert!(
                (sol.r - rot).abs() < 0.5 * 200.0,
                "W={w}: R={} vs rule of thumb {rot}",
                sol.r
            );
        }
    }

    /// R is monotone increasing in W, So and St.
    #[test]
    fn monotonicity() {
        let base = AllToAll::new(fig52_machine(), 300.0).solve().unwrap().r;
        let more_w = AllToAll::new(fig52_machine(), 400.0).solve().unwrap().r;
        let more_so = AllToAll::new(Machine::new(32, 25.0, 250.0).with_c2(0.0), 300.0)
            .solve()
            .unwrap()
            .r;
        let more_st = AllToAll::new(Machine::new(32, 50.0, 200.0).with_c2(0.0), 300.0)
            .solve()
            .unwrap()
            .r;
        assert!(more_w > base);
        assert!(more_so > base);
        assert!(more_st > base);
    }

    /// Contention increases with C² (Figure 5-1).
    #[test]
    fn contention_increases_with_c2() {
        let mut prev = 0.0;
        for i in 0..=8 {
            let c2 = i as f64 * 0.25;
            let m = Machine::new(32, 25.0, 512.0).with_c2(c2);
            let sol = AllToAll::new(m, 1000.0).solve().unwrap();
            assert!(
                sol.contention > prev,
                "contention must grow with C²: {} at C²={c2}",
                sol.contention
            );
            prev = sol.contention;
        }
    }

    /// Zero-handler machine degenerates to pure wire + work.
    #[test]
    fn zero_handler_cost() {
        let m = Machine::new(8, 25.0, 0.0);
        let sol = AllToAll::new(m, 100.0).solve().unwrap();
        assert_eq!(sol.r, 150.0);
        assert_eq!(sol.contention, 0.0);
    }

    /// Fully degenerate model is an error.
    #[test]
    fn fully_degenerate_rejected() {
        let m = Machine::new(8, 0.0, 0.0);
        assert!(matches!(
            AllToAll::new(m, 0.0).solve(),
            Err(ModelError::Degenerate(_))
        ));
    }

    /// W = 0 is the worst case: utilisation near saturation but finite R.
    #[test]
    fn w_zero_solves() {
        let model = AllToAll::new(fig52_machine(), 0.0);
        let sol = model.solve().unwrap();
        assert!(sol.r > model.contention_free());
        assert!(sol.uq < 1.0);
        // Queue of about one handler throughout the system (§5.3 intuition).
        assert!(sol.qq > 0.3 && sol.qq < 1.5, "Qq = {}", sol.qq);
    }

    /// Invalid parameters rejected.
    #[test]
    fn validation() {
        assert!(AllToAll::new(Machine::new(1, 0.0, 1.0), 1.0)
            .solve()
            .is_err());
        assert!(AllToAll::new(fig52_machine(), -1.0).solve().is_err());
        assert!(AllToAll::new(fig52_machine(), f64::NAN).solve().is_err());
    }

    /// Solution accessors decompose contention by component.
    #[test]
    fn contention_component_accessors() {
        let model = AllToAll::new(fig52_machine(), 100.0);
        let sol = model.solve().unwrap();
        let total = sol.contention_rw(100.0) + sol.contention_rq(200.0) + sol.contention_ry(200.0);
        assert!((total - sol.contention).abs() < 1e-6);
        assert!(sol.contention_rw(100.0) >= 0.0);
        assert!(sol.contention_rq(200.0) >= 0.0);
        assert!(sol.contention_ry(200.0) >= 0.0);
    }
}
