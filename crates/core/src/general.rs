//! The general LoPC model (Appendix A): per-node AMVA with an arbitrary
//! routing matrix, multi-hop requests, idle server threads, and the
//! protocol-processor (shared-memory) variant.
//!
//! For each thread `c` with work `W_c` and visit fractions `V[c][k]`
//! (`Σ_k V[c][k]` may exceed 1 for multi-hop requests):
//!
//! ```text
//! X_c   = 1 / R_c                                        (A.1)
//! X_ck  = V[c][k] · X_c                                  (A.2)
//! Uq_k  = So · Σ_c X_ck          Uy_k = X_k · So         (A.3, A.4)
//! Qq_k  = Rq_k · Σ_c X_ck        Qy_k = X_k · Ry_k       (A.5, A.6)
//! Rq_k  = So(1 + Qq_k + Qy_k + β(Uq_k + Uy_k))           (A.7 + §5.2)
//! Ry_k  = So(1 + Qq_k + β·Uq_k)                          (A.8 + §5.2)
//! Rw_c  = (W_c + So·Qq_c)/(1 − Uq_c)   (or W_c with a protocol processor)
//! R_c   = Rw_c + Σ_k V[c][k](St + Rq_k) + St + Ry_c      (A.10)
//! ```
//!
//! solved by damped fixed-point iteration (`lopc_solver::solve_damped`).

use crate::error::ModelError;
use crate::params::Machine;
use lopc_solver::{solve_damped, FixedPointOptions, SolverError};

/// Largest `P` a [`Scenario::SharedMemory`](crate::Scenario::SharedMemory)
/// accepts: 2²⁰, the simulator's node limit. Its solve costs O(P) per
/// fixed-point iteration, so an unbounded `P` from a request would hold a
/// serving thread for ever.
pub const MAX_SHARED_MEMORY_P: usize = 1 << 20;

/// The general model input.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneralModel {
    /// Architectural parameters.
    pub machine: Machine,
    /// Per-node thread work `W_c`; `None` marks an idle (pure server)
    /// thread that never issues requests.
    pub w: Vec<Option<f64>>,
    /// Visit fractions: `v[c][k]` is the mean number of times one of thread
    /// `c`'s requests is served at node `k` per cycle. Row sums may exceed 1
    /// (multi-hop). Rows of idle threads must be all zero.
    pub v: Vec<Vec<f64>>,
    /// Model a per-node protocol processor: handlers never interrupt the
    /// computation thread (`Rw = W`, §5.1).
    pub protocol_processor: bool,
}

/// Per-node / per-thread solution of the general model (Table 4.1).
#[derive(Clone, Debug)]
pub struct GeneralSolution {
    /// Cycle response time per thread (`NaN` for idle threads).
    pub r: Vec<f64>,
    /// Throughput per thread (0 for idle threads).
    pub x: Vec<f64>,
    /// Compute residence per thread (`NaN` for idle threads).
    pub rw: Vec<f64>,
    /// Request-handler response per node.
    pub rq: Vec<f64>,
    /// Reply-handler response per node.
    pub ry: Vec<f64>,
    /// Request-handler utilisation per node.
    pub uq: Vec<f64>,
    /// Reply-handler utilisation per node.
    pub uy: Vec<f64>,
    /// Request-handler population per node.
    pub qq: Vec<f64>,
    /// Reply-handler population per node.
    pub qy: Vec<f64>,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl GeneralSolution {
    /// System throughput `Σ_c X_c` (requests per cycle).
    pub fn system_throughput(&self) -> f64 {
        self.x.iter().sum()
    }

    /// Mean response time over active threads.
    pub fn mean_r(&self) -> f64 {
        let active: Vec<f64> = self.r.iter().copied().filter(|r| r.is_finite()).collect();
        if active.is_empty() {
            f64::NAN
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }
}

impl GeneralModel {
    /// Homogeneous all-to-all instance: every thread works `w` and sends to
    /// every other node uniformly (`V[c][k] = 1/(P−1)`). Solving this must
    /// agree with the §5 closed form — a cross-check the tests enforce.
    pub fn homogeneous_all_to_all(machine: Machine, w: f64) -> Self {
        let p = machine.p;
        let frac = 1.0 / (p - 1) as f64;
        let v = (0..p)
            .map(|c| {
                (0..p)
                    .map(|k| if k == c { 0.0 } else { frac })
                    .collect::<Vec<_>>()
            })
            .collect();
        GeneralModel {
            machine,
            w: vec![Some(w); p],
            v,
            protocol_processor: false,
        }
    }

    /// Client-server instance: nodes `0..ps` are idle servers, the rest are
    /// clients doing `w` between uniform requests to the servers (§6).
    pub fn client_server(machine: Machine, w: f64, ps: usize) -> Self {
        let p = machine.p;
        assert!(ps >= 1 && ps < p, "ps must be in 1..p");
        let frac = 1.0 / ps as f64;
        let mut w_vec = vec![None; p];
        let mut v = vec![vec![0.0; p]; p];
        for c in ps..p {
            w_vec[c] = Some(w);
            for row in v[c].iter_mut().take(ps) {
                *row = frac;
            }
        }
        GeneralModel {
            machine,
            w: w_vec,
            v,
            protocol_processor: false,
        }
    }

    /// Multi-hop instance: like all-to-all but each request is served at
    /// `hops` nodes before the reply (uniform forwarding), so every row sums
    /// to `hops`.
    pub fn multi_hop(machine: Machine, w: f64, hops: u32) -> Self {
        let mut model = Self::homogeneous_all_to_all(machine, w);
        for row in &mut model.v {
            for x in row.iter_mut() {
                *x *= hops as f64;
            }
        }
        model
    }

    /// Enable the protocol-processor variant (§5.1).
    pub fn with_protocol_processor(mut self) -> Self {
        self.protocol_processor = true;
        self
    }

    /// Validate shapes and ranges.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.machine.validate()?;
        let p = self.machine.p;
        if self.w.len() != p {
            return Err(ModelError::InvalidParameter("w must have length p"));
        }
        if self.v.len() != p {
            return Err(ModelError::InvalidParameter("v must be p x p"));
        }
        let mut any_active = false;
        for (c, row) in self.v.iter().enumerate() {
            if row.len() != p {
                return Err(ModelError::InvalidParameter("v must be p x p"));
            }
            for &x in row {
                if !x.is_finite() || x < 0.0 {
                    return Err(ModelError::InvalidParameter(
                        "visit fractions must be finite and >= 0",
                    ));
                }
            }
            if row[c] != 0.0 {
                return Err(ModelError::InvalidParameter(
                    "threads must not request from their own node",
                ));
            }
            match self.w[c] {
                Some(w) => {
                    if !w.is_finite() || w < 0.0 {
                        return Err(ModelError::InvalidParameter("w must be finite and >= 0"));
                    }
                    if row.iter().sum::<f64>() <= 0.0 {
                        return Err(ModelError::InvalidParameter(
                            "active threads need at least one destination",
                        ));
                    }
                    any_active = true;
                }
                None => {
                    if row.iter().any(|&x| x != 0.0) {
                        return Err(ModelError::InvalidParameter(
                            "idle threads must have an all-zero visit row",
                        ));
                    }
                }
            }
        }
        if !any_active {
            return Err(ModelError::InvalidParameter("no active threads"));
        }
        Ok(())
    }

    /// Solve the Appendix A system.
    pub fn solve(&self) -> Result<GeneralSolution, ModelError> {
        let x0 = self.initial_state()?;
        let mut scratch = Scratch::new(self.machine.p);
        let conv = solve_damped(
            x0,
            |state, out| self.apply_f(state, out, &mut scratch),
            &Self::fixed_point_options(),
        )?;
        Ok(self.decompose(&conv.x, conv.iterations))
    }

    /// The damping schedule of the Appendix A iteration, shared by
    /// [`GeneralModel::solve`] and the one-node `SharedMemory` solve.
    fn fixed_point_options() -> FixedPointOptions {
        FixedPointOptions {
            damping: 0.5,
            tol: 1e-11,
            max_iter: 200_000,
        }
    }

    /// Entry checks plus the contention-free initial state: everything the
    /// scalar solve does before its first fixed-point iteration.
    ///
    /// State layout: `[rq[0..p] | ry[0..p] | r[0..p]]`; idle threads keep a
    /// pinned r of 1.0 that nothing reads.
    fn initial_state(&self) -> Result<Vec<f64>, ModelError> {
        self.validate()?;
        let p = self.machine.p;
        let so = self.machine.s_o;
        let st = self.machine.s_l;

        // Contention-free initial response per active thread.
        let init_r = |c: usize| -> f64 {
            let hops: f64 = self.v[c].iter().sum();
            self.w[c].unwrap_or(0.0) + hops * (st + so) + st + so
        };
        // Degenerate: a zero-cost cycle has no steady state.
        for c in 0..p {
            if self.w[c].is_some() && init_r(c) <= 0.0 {
                return Err(ModelError::Degenerate("zero-cost cycle"));
            }
        }

        let mut x0 = vec![so.max(1e-12); 2 * p];
        for c in 0..p {
            x0.push(if self.w[c].is_some() { init_r(c) } else { 1.0 });
        }
        Ok(x0)
    }

    /// One application of the Appendix A map `F` at `state`, written into
    /// `out`: the function handed to `solve_damped`. `scratch`
    /// holds the per-node throughputs and request rates across calls, so
    /// an iteration allocates nothing.
    #[allow(clippy::needless_range_loop)] // indexing several parallel arrays
    fn apply_f(&self, state: &[f64], out: &mut [f64], scratch: &mut Scratch) {
        let p = self.machine.p;
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let beta = self.machine.beta();
        let eps = 1e-9;
        let (rq, rest) = state.split_at(p);
        let (ry, r) = rest.split_at(p);
        let Scratch { x, lambda_q } = scratch;

        // Throughputs.
        x.fill(0.0);
        for c in 0..p {
            if self.w[c].is_some() {
                x[c] = 1.0 / r[c].max(eps);
            }
        }
        // Arrival rates of requests (lambda_q) and replies (lambda_y).
        lambda_q.fill(0.0);
        for c in 0..p {
            if x[c] > 0.0 {
                for k in 0..p {
                    lambda_q[k] += self.v[c][k] * x[c];
                }
            }
        }
        for k in 0..p {
            let lq = lambda_q[k];
            let ly = x[k];
            let uqk = so * lq;
            let uyk = so * ly;
            let qqk = rq[k] * lq;
            let qyk = ry[k] * ly;
            out[k] = so * (1.0 + qqk + qyk + beta * (uqk + uyk));
            out[p + k] = so * (1.0 + qqk + beta * uqk);
        }
        for c in 0..p {
            out[2 * p + c] = match self.w[c] {
                None => 1.0,
                Some(w) => {
                    let lq = lambda_q[c];
                    let uqc = (so * lq).min(1.0 - eps);
                    let qqc = rq[c] * lq;
                    let rw = if self.protocol_processor {
                        w
                    } else {
                        (w + so * qqc) / (1.0 - uqc)
                    };
                    let mut total = rw + st + ry[c];
                    for k in 0..p {
                        let vck = self.v[c][k];
                        if vck > 0.0 {
                            total += vck * (st + rq[k]);
                        }
                    }
                    total
                }
            };
        }
    }

    /// Unpack a converged state vector and recompute the derived quantities
    /// at the fixed point.
    #[allow(clippy::needless_range_loop)] // indexing several parallel arrays
    fn decompose(&self, state: &[f64], iterations: usize) -> GeneralSolution {
        let p = self.machine.p;
        let so = self.machine.s_o;
        let eps = 1e-9;
        let rq = state[..p].to_vec();
        let ry = state[p..2 * p].to_vec();
        let mut r = vec![f64::NAN; p];
        let mut x = vec![0.0; p];
        let mut rw = vec![f64::NAN; p];
        for c in 0..p {
            if self.w[c].is_some() {
                r[c] = state[2 * p + c];
                x[c] = 1.0 / r[c];
            }
        }
        let mut lambda_q = vec![0.0; p];
        for c in 0..p {
            if x[c] > 0.0 {
                for k in 0..p {
                    lambda_q[k] += self.v[c][k] * x[c];
                }
            }
        }
        let mut uq = vec![0.0; p];
        let mut uy = vec![0.0; p];
        let mut qq = vec![0.0; p];
        let mut qy = vec![0.0; p];
        for k in 0..p {
            uq[k] = so * lambda_q[k];
            uy[k] = so * x[k];
            qq[k] = rq[k] * lambda_q[k];
            qy[k] = ry[k] * x[k];
        }
        for c in 0..p {
            if let Some(w) = self.w[c] {
                rw[c] = if self.protocol_processor {
                    w
                } else {
                    (w + so * qq[c]) / (1.0 - uq[c].min(1.0 - eps))
                };
            }
        }

        GeneralSolution {
            r,
            x,
            rw,
            rq,
            ry,
            uq,
            uy,
            qq,
            qy,
            iterations,
        }
    }
}

/// Per-node buffers [`GeneralModel::apply_f`] reuses across iterations.
struct Scratch {
    /// Throughput `X_c` of each thread.
    x: Vec<f64>,
    /// Request arrival rate `λq_k` at each node.
    lambda_q: Vec<f64>,
}

impl Scratch {
    fn new(p: usize) -> Self {
        Scratch {
            x: vec![0.0; p],
            lambda_q: vec![0.0; p],
        }
    }
}

/// The shared-memory (§5.1) instance of the general model —
/// `GeneralModel::homogeneous_all_to_all(machine, w).with_protocol_processor()`
/// — solved on one node's state `[rq, ry, r]` instead of the `3P` state, with
/// no visit matrix.
///
/// **Why one node is exact.** Every node of that model is identical, and
/// [`GeneralModel::apply_f`] maps a state whose nodes all share `(rq, ry, r)`
/// to one whose nodes again all do, so the `3P` iteration never leaves the
/// diagonal:
///
/// * `x = 1/max(r, ε)` is the same for every thread, so every `λq[k]` is the
///   same fold of `P − 1` identical terms `frac · x`, `frac = 1/(P−1)` (the
///   `v[k][k] · x = 0` term adds nothing);
/// * every `r` row adds `P − 1` identical terms `frac · (St + rq)` to the
///   same start `W + St + ry`;
/// * `solve_damped`'s residual is a max-norm and its damping element-wise,
///   so the 3-entry run takes the `3P`-entry run's steps exactly;
/// * the prediction needs only `r`, `rq`, `ry`, `rw = W`, and the system
///   throughput as a sum of `P` copies of `1/r`.
///
/// So replaying the general model's arithmetic term by term on one node gives
/// its bits, its iteration count and its errors. Each Σ stays a loop of
/// `P − 1` additions in the same order: `(P − 1) · term` rounds differently.
/// The map here must change whenever [`GeneralModel::apply_f`] does; the
/// `shared_memory_reference` test pins the two together.
#[derive(Debug)]
pub(crate) struct SharedMemoryModel {
    machine: Machine,
    w: f64,
    /// Every off-diagonal visit fraction, `1/(P−1)`.
    frac: f64,
}

/// The solution of a [`SharedMemoryModel`]: one node's, which is every
/// node's.
pub(crate) struct SharedMemorySolution {
    /// Cycle response time.
    pub r: f64,
    /// System throughput `Σ_c X_c`.
    pub x: f64,
    /// Request-handler response.
    pub rq: f64,
    /// Reply-handler response.
    pub ry: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl SharedMemoryModel {
    /// The general model's entry checks — the machine first, then `W` —
    /// plus the [`MAX_SHARED_MEMORY_P`] cap.
    pub(crate) fn new(machine: Machine, w: f64) -> Result<Self, ModelError> {
        machine.validate()?;
        if machine.p > MAX_SHARED_MEMORY_P {
            return Err(ModelError::InvalidParameter("p must be <= 2^20"));
        }
        if !w.is_finite() || w < 0.0 {
            return Err(ModelError::InvalidParameter("w must be finite and >= 0"));
        }
        Ok(SharedMemoryModel {
            machine,
            w,
            frac: 1.0 / (machine.p - 1) as f64,
        })
    }

    /// [`GeneralModel::initial_state`] on one node: `[rq, ry, r]`.
    fn initial_state(&self) -> Result<Vec<f64>, ModelError> {
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let hops: f64 = std::iter::repeat_n(self.frac, self.machine.p - 1).sum();
        let init_r = self.w + hops * (st + so) + st + so;
        if init_r <= 0.0 {
            return Err(ModelError::Degenerate("zero-cost cycle"));
        }
        Ok(vec![so.max(1e-12), so.max(1e-12), init_r])
    }

    /// [`GeneralModel::apply_f`] on one node.
    fn apply_f(&self, state: &[f64], out: &mut [f64]) {
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let beta = self.machine.beta();
        let eps = 1e-9;
        let (rq, ry, r) = (state[0], state[1], state[2]);

        let x = 1.0 / r.max(eps);
        // λq and the `r` row: two folds of P − 1 identical terms.
        let (dq, dr) = (self.frac * x, self.frac * (st + rq));
        let mut lq = 0.0;
        let mut total = self.w + st + ry;
        for _ in 1..self.machine.p {
            lq += dq;
            total += dr;
        }
        let ly = x;
        let uqk = so * lq;
        let uyk = so * ly;
        let qqk = rq * lq;
        let qyk = ry * ly;
        out[0] = so * (1.0 + qqk + qyk + beta * (uqk + uyk));
        out[1] = so * (1.0 + qqk + beta * uqk);
        out[2] = total;
    }

    /// Solve under the general model's damping schedule.
    pub(crate) fn solve(&self) -> Result<SharedMemorySolution, ModelError> {
        self.solve_with(&GeneralModel::fixed_point_options())
    }

    /// Solve under `opts`; an exhausted run reports the general model's
    /// `3P`-entry iterate `[rq×P | ry×P | r×P]`.
    fn solve_with(&self, opts: &FixedPointOptions) -> Result<SharedMemorySolution, ModelError> {
        let p = self.machine.p;
        let x0 = self.initial_state()?;
        match solve_damped(x0, |state, out| self.apply_f(state, out), opts) {
            Ok(conv) => {
                let (rq, ry, r) = (conv.x[0], conv.x[1], conv.x[2]);
                Ok(SharedMemorySolution {
                    r,
                    x: std::iter::repeat_n(1.0 / r, p).sum(),
                    rq,
                    ry,
                    iterations: conv.iterations,
                })
            }
            Err(SolverError::Exhausted {
                x,
                iterations,
                residual,
                contracting,
            }) => Err(ModelError::Solver(SolverError::Exhausted {
                x: x.iter().flat_map(|&v| std::iter::repeat_n(v, p)).collect(),
                iterations,
                residual,
                contracting,
            })),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_to_all::AllToAll;
    use crate::client_server::ClientServer;

    fn machine() -> Machine {
        Machine::new(16, 25.0, 200.0).with_c2(0.0)
    }

    /// The general model restricted to the homogeneous pattern must agree
    /// with the §5 closed form.
    #[test]
    fn matches_all_to_all_closed_form() {
        for &w in &[0.0, 100.0, 1000.0] {
            for &c2 in &[0.0, 1.0, 2.0] {
                let m = machine().with_c2(c2);
                let general = GeneralModel::homogeneous_all_to_all(m, w).solve().unwrap();
                let closed = AllToAll::new(m, w).solve().unwrap();
                let r_general = general.r[0];
                assert!(
                    (r_general - closed.r).abs() / closed.r < 1e-6,
                    "W={w} C²={c2}: general {} vs closed {}",
                    r_general,
                    closed.r
                );
            }
        }
    }

    /// All threads identical => identical per-node solution.
    #[test]
    fn homogeneous_solution_is_symmetric() {
        let sol = GeneralModel::homogeneous_all_to_all(machine(), 500.0)
            .solve()
            .unwrap();
        for k in 1..16 {
            assert!((sol.r[k] - sol.r[0]).abs() < 1e-8);
            assert!((sol.rq[k] - sol.rq[0]).abs() < 1e-8);
            assert!((sol.uq[k] - sol.uq[0]).abs() < 1e-8);
        }
    }

    /// The general model's client-server instance must agree with the §6
    /// scalar recursion.
    #[test]
    fn matches_client_server_recursion() {
        let m = Machine::new(32, 50.0, 131.0).with_c2(0.0);
        let w = 1000.0;
        for ps in [1usize, 4, 8, 16, 24] {
            let general = GeneralModel::client_server(m, w, ps).solve().unwrap();
            let scalar = ClientServer::new(m, w).throughput(ps).unwrap();
            let x_general = general.system_throughput();
            assert!(
                (x_general - scalar.x).abs() / scalar.x < 1e-6,
                "ps={ps}: general X={x_general} vs scalar {}",
                scalar.x
            );
            // Server quantities agree too.
            assert!((general.rq[0] - scalar.rq).abs() / scalar.rq < 1e-6);
            assert!((general.qq[0] - scalar.qs).abs() < 1e-6);
        }
    }

    /// Multi-hop: each extra hop adds at least (St + So) to the cycle.
    #[test]
    fn multi_hop_grows_with_hops() {
        let m = machine();
        let r1 = GeneralModel::multi_hop(m, 500.0, 1).solve().unwrap().r[0];
        let r2 = GeneralModel::multi_hop(m, 500.0, 2).solve().unwrap().r[0];
        let r3 = GeneralModel::multi_hop(m, 500.0, 3).solve().unwrap().r[0];
        assert!(r2 - r1 >= 225.0 - 1e-6, "r2-r1 = {}", r2 - r1);
        assert!(r3 - r2 >= 225.0 - 1e-6);
    }

    /// Protocol processor removes compute interference: Rw == W, and the
    /// cycle is never slower than the message-passing variant.
    #[test]
    fn protocol_processor_rw_is_w() {
        let m = machine().with_c2(1.0);
        let w = 400.0;
        let mp = GeneralModel::homogeneous_all_to_all(m, w).solve().unwrap();
        let pp = GeneralModel::homogeneous_all_to_all(m, w)
            .with_protocol_processor()
            .solve()
            .unwrap();
        assert!((pp.rw[0] - w).abs() < 1e-9);
        assert!(mp.rw[0] > w, "message passing must show interference");
        assert!(pp.r[0] < mp.r[0]);
    }

    /// Hotspot: a node that receives extra traffic shows higher utilisation
    /// and queueing than its peers.
    #[test]
    fn hotspot_asymmetry() {
        let m = machine();
        let p = m.p;
        // 50% of every thread's requests go to node 0, rest uniform.
        let mut model = GeneralModel::homogeneous_all_to_all(m, 500.0);
        for c in 1..p {
            for k in 0..p {
                if k != c {
                    model.v[c][k] = if k == 0 { 0.5 } else { 0.5 / (p - 2) as f64 };
                }
            }
        }
        let sol = model.solve().unwrap();
        assert!(sol.uq[0] > 2.0 * sol.uq[1], "hotspot utilisation");
        assert!(sol.qq[0] > sol.qq[1], "hotspot queueing");
        // Node 0's own thread suffers the most compute interference.
        assert!(sol.rw[0] > sol.rw[1]);
    }

    /// Little's law self-consistency at the fixed point: Qq = λq · Rq.
    #[test]
    fn littles_law_at_fixed_point() {
        let sol = GeneralModel::homogeneous_all_to_all(machine(), 300.0)
            .solve()
            .unwrap();
        for k in 0..16 {
            let lambda_q = sol.uq[k] / 200.0; // Uq = So λ
            assert!((sol.qq[k] - lambda_q * sol.rq[k]).abs() < 1e-9);
        }
    }

    /// Validation catches malformed inputs.
    #[test]
    fn validation_errors() {
        let m = machine();
        let mut bad = GeneralModel::homogeneous_all_to_all(m, 100.0);
        bad.v[0][0] = 0.5; // self-visit
        assert!(bad.solve().is_err());

        let mut bad = GeneralModel::homogeneous_all_to_all(m, 100.0);
        bad.w[3] = None; // idle thread with non-zero row
        assert!(bad.solve().is_err());

        let mut bad = GeneralModel::homogeneous_all_to_all(m, 100.0);
        bad.v.pop();
        assert!(bad.solve().is_err());

        let mut bad = GeneralModel::homogeneous_all_to_all(m, 100.0);
        for w in &mut bad.w {
            *w = None;
        }
        for row in &mut bad.v {
            row.iter_mut().for_each(|x| *x = 0.0);
        }
        assert!(bad.solve().is_err());
    }

    /// A run cut off by its budget reports what the general model's run
    /// reports, its `3P`-entry last iterate included.
    #[test]
    fn shared_memory_exhaustion_reports_the_general_iterate() {
        for (p, c2, w) in [(2, 0.0, 0.0), (16, 1.0, 800.0), (64, 2.5, 5000.0)] {
            let m = Machine::new(p, 25.0, 200.0).with_c2(c2);
            let general = GeneralModel::homogeneous_all_to_all(m, w).with_protocol_processor();
            for max_iter in [1, 5, 17] {
                let opts = FixedPointOptions {
                    max_iter,
                    ..GeneralModel::fixed_point_options()
                };
                let mut scratch = Scratch::new(p);
                let want = solve_damped(
                    general.initial_state().unwrap(),
                    |state, out| general.apply_f(state, out, &mut scratch),
                    &opts,
                )
                .unwrap_err();
                assert!(matches!(want, SolverError::Exhausted { .. }));
                let got = SharedMemoryModel::new(m, w)
                    .unwrap()
                    .solve_with(&opts)
                    .err();
                assert_eq!(
                    got,
                    Some(ModelError::Solver(want)),
                    "p={p} max_iter={max_iter}"
                );
            }
        }
    }

    /// Idle threads report NaN response and zero throughput.
    #[test]
    fn idle_threads_have_no_cycle() {
        let m = Machine::new(8, 10.0, 100.0);
        let sol = GeneralModel::client_server(m, 500.0, 2).solve().unwrap();
        assert!(sol.r[0].is_nan());
        assert!(sol.r[1].is_nan());
        assert_eq!(sol.x[0], 0.0);
        assert!(sol.r[2].is_finite());
        assert!(sol.mean_r().is_finite());
    }
}
