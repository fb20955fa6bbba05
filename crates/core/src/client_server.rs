//! Client–server work-pile analysis (§6): throughput for any client/server
//! split and the closed-form optimal number of servers.
//!
//! The machine is partitioned into `Pc` clients (which do the work) and
//! `Ps = P − Pc` servers (which hand out chunks). Clients never receive
//! requests (`Rw = W`, `Ry = So`); servers never compute or receive replies
//! (`Qy = Uy = 0` at servers). The cycle is then
//!
//! ```text
//! R = W + 2·St + Rq + So                                    (eq. 6.7)
//! ```
//!
//! with the server response `Rq` given by Bard's approximation. At the
//! throughput-optimal split, the mean number of customers per server is
//! exactly 1, giving the closed forms
//!
//! ```text
//! Rs  = So · (1 + sqrt((C²+1)/2))                           (eq. 6.6)
//! Ps* = P·Rs / (R + Rs)
//!     = P·(1 + sqrt((C²+1)/2))·So
//!       ───────────────────────────────────────────        (eq. 6.8)
//!       W + 2·St + (3 + 2·sqrt((C²+1)/2))·So
//! ```
//!
//! For arbitrary `Ps`, the same AMVA equations yield a scalar fixed point in
//! `R` (server arrival rate `λ = Pc/(Ps·R)`):
//!
//! ```text
//! Rq = So(1 + λ·Rq + β·λ·So) / 1   =>   Rq = So(1 + β·λ·So)/(1 − λ·So)
//! ```
//!
//! solved by bisection; throughput is `X = Pc/R` (chunks per cycle per
//! machine). The naive LogP bounds shown dotted in Figure 6-2 are
//! `X ≤ Ps/So` (server saturation) and `X ≤ Pc/(W + 2·St + 2·So)`
//! (contention-free clients).

use crate::error::ModelError;
use crate::params::Machine;
use lopc_solver::{bisect, bracket_upward};

/// The work-pile client-server model (§6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientServer {
    /// Architectural parameters (`P` is the total node count to split).
    pub machine: Machine,
    /// Average work per chunk at a client, `W`.
    pub w: f64,
}

/// Model solution at one client/server split.
#[derive(Clone, Copy, Debug)]
pub struct CsPoint {
    /// Servers in this configuration.
    pub ps: usize,
    /// Clients (`P − Ps`).
    pub pc: usize,
    /// System throughput `X = Pc/R` (chunks per cycle).
    pub x: f64,
    /// Client cycle response time `R`.
    pub r: f64,
    /// Server response time `Rq` (service + queueing).
    pub rq: f64,
    /// Mean customers at each server `Qs = λ·Rq`.
    pub qs: f64,
    /// Server utilisation `Us = λ·So`.
    pub us: f64,
}

impl ClientServer {
    /// Model for `machine` with per-chunk work `w`.
    pub fn new(machine: Machine, w: f64) -> Self {
        ClientServer { machine, w }
    }

    /// Parameter validation.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.machine.validate()?;
        if self.machine.p < 2 {
            return Err(ModelError::InvalidParameter("need at least 2 nodes"));
        }
        if !self.w.is_finite() || self.w < 0.0 {
            return Err(ModelError::InvalidParameter("w must be finite and >= 0"));
        }
        Ok(())
    }

    /// Server response time at the optimal allocation (eq. 6.6):
    /// `Rs = So·(1 + sqrt((C²+1)/2))`.
    pub fn server_response_at_optimum(&self) -> f64 {
        self.machine.s_o * (1.0 + ((self.machine.c2 + 1.0) / 2.0).sqrt())
    }

    /// The continuous optimal server count of eq. 6.8.
    pub fn optimal_servers_continuous(&self) -> f64 {
        let rs = self.server_response_at_optimum();
        // R at the optimum (eq. 6.7 with Rq = Rs).
        let r = self.w + 2.0 * self.machine.s_l + rs + self.machine.s_o;
        self.machine.p as f64 * rs / (r + rs)
    }

    /// The best integer server count: round eq. 6.8 to the neighbour with the
    /// higher modelled throughput, clamped to `1..=P−1`.
    pub fn optimal_servers(&self) -> Result<usize, ModelError> {
        self.validate()?;
        let cont = self.optimal_servers_continuous();
        let p = self.machine.p;
        let lo = (cont.floor() as usize).clamp(1, p - 1);
        let hi = (cont.ceil() as usize).clamp(1, p - 1);
        if lo == hi {
            return Ok(lo);
        }
        let x_lo = self.throughput(lo)?.x;
        let x_hi = self.throughput(hi)?.x;
        Ok(if x_lo >= x_hi { lo } else { hi })
    }

    /// Solve the model at a particular server count `ps ∈ 1..=P−1`.
    pub fn throughput(&self, ps: usize) -> Result<CsPoint, ModelError> {
        self.validate()?;
        let p = self.machine.p;
        if ps == 0 || ps >= p {
            return Err(ModelError::InvalidParameter("ps must be in 1..=P-1"));
        }
        let pc = p - ps;
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let beta = self.machine.beta();
        let lower = self.w + 2.0 * st + 2.0 * so;
        if lower == 0.0 {
            return Err(ModelError::Degenerate("all costs zero"));
        }

        if so == 0.0 {
            let r = self.w + 2.0 * st;
            return Ok(CsPoint {
                ps,
                pc,
                x: pc as f64 / r,
                r,
                rq: 0.0,
                qs: 0.0,
                us: 0.0,
            });
        }

        // Server response at a given client cycle time R.
        let rq_of = |r: f64| -> f64 {
            let lambda = pc as f64 / (ps as f64 * r);
            let denom = 1.0 - lambda * so;
            if denom <= 0.0 {
                return f64::INFINITY;
            }
            so * (1.0 + beta * lambda * so) / denom
        };
        let g = |r: f64| self.w + 2.0 * st + rq_of(r) + so - r;

        let hi = bracket_upward(g, lower - 1e-12, lower.max(so), 200)?;
        let r = bisect(g, lower - 1e-12, hi, 1e-10 * lower.max(1.0), 200)?.x;
        let rq = rq_of(r);
        let lambda = pc as f64 / (ps as f64 * r);
        Ok(CsPoint {
            ps,
            pc,
            x: pc as f64 / r,
            r,
            rq,
            qs: lambda * rq,
            us: lambda * so,
        })
    }

    /// Model throughput at every split `ps = 1..=P−1` (Figure 6-2's curve).
    pub fn sweep(&self) -> Result<Vec<CsPoint>, ModelError> {
        (1..self.machine.p).map(|ps| self.throughput(ps)).collect()
    }

    /// LogP optimistic bound: server saturation, `X ≤ Ps/So`.
    pub fn logp_server_bound(&self, ps: usize) -> f64 {
        if self.machine.s_o == 0.0 {
            f64::INFINITY
        } else {
            ps as f64 / self.machine.s_o
        }
    }

    /// LogP optimistic bound: contention-free clients,
    /// `X ≤ Pc/(W + 2·St + 2·So)`.
    pub fn logp_client_bound(&self, ps: usize) -> f64 {
        let pc = (self.machine.p - ps) as f64;
        pc / (self.w + 2.0 * self.machine.s_l + 2.0 * self.machine.s_o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig62_machine() -> Machine {
        // Figure 6-2: 32 nodes, handler time 131 cycles.
        Machine::new(32, 50.0, 131.0).with_c2(0.0)
    }

    /// eq. 6.6 closed forms: Rs = 2·So for exponential, ≈1.707·So for
    /// constant handlers.
    #[test]
    fn server_response_closed_form() {
        let exp = ClientServer::new(Machine::new(32, 0.0, 100.0), 0.0);
        assert!((exp.server_response_at_optimum() - 200.0).abs() < 1e-9);
        let cst = ClientServer::new(Machine::new(32, 0.0, 100.0).with_c2(0.0), 0.0);
        assert!((cst.server_response_at_optimum() - 100.0 * (1.0 + 0.5f64.sqrt())).abs() < 1e-9);
    }

    /// At the continuous optimum of eq. 6.8, the modelled mean queue per
    /// server is ≈ 1 — the §6 optimality criterion.
    #[test]
    fn queue_length_is_one_at_optimum() {
        let model = ClientServer::new(fig62_machine(), 1000.0);
        let ps = model.optimal_servers().unwrap();
        let pt = model.throughput(ps).unwrap();
        assert!(
            (pt.qs - 1.0).abs() < 0.35,
            "Qs at modelled optimum should be near 1, got {}",
            pt.qs
        );
    }

    /// The eq. 6.8 optimum maximises the modelled throughput curve (within
    /// one server of the grid argmax).
    #[test]
    fn closed_form_matches_sweep_argmax() {
        for &w in &[200.0, 1000.0, 4000.0] {
            for &c2 in &[0.0, 1.0] {
                let model = ClientServer::new(fig62_machine().with_c2(c2), w);
                let sweep = model.sweep().unwrap();
                let argmax = sweep.iter().max_by(|a, b| a.x.total_cmp(&b.x)).unwrap().ps;
                let closed = model.optimal_servers().unwrap();
                assert!(
                    (argmax as i64 - closed as i64).abs() <= 1,
                    "W={w} C²={c2}: sweep argmax {argmax} vs closed form {closed}"
                );
            }
        }
    }

    /// Throughput rises then falls across the split (Figure 6-2's shape).
    #[test]
    fn throughput_curve_is_unimodal() {
        let model = ClientServer::new(fig62_machine(), 1000.0);
        let xs: Vec<f64> = model.sweep().unwrap().iter().map(|p| p.x).collect();
        let peak = xs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        for i in 1..=peak {
            assert!(xs[i] >= xs[i - 1] - 1e-12, "rising to the peak");
        }
        for i in peak + 1..xs.len() {
            assert!(xs[i] <= xs[i - 1] + 1e-12, "falling after the peak");
        }
    }

    /// The model never exceeds either LogP optimistic bound.
    #[test]
    fn logp_bounds_dominate_model() {
        let model = ClientServer::new(fig62_machine(), 1000.0);
        for pt in model.sweep().unwrap() {
            assert!(pt.x <= model.logp_server_bound(pt.ps) + 1e-12);
            assert!(pt.x <= model.logp_client_bound(pt.ps) + 1e-12);
        }
    }

    /// More variable handlers need more servers (eq. 6.8 is increasing in C²
    /// through Rs).
    #[test]
    fn optimum_grows_with_c2() {
        let w = 1000.0;
        let p0 = ClientServer::new(fig62_machine().with_c2(0.0), w).optimal_servers_continuous();
        let p1 = ClientServer::new(fig62_machine().with_c2(1.0), w).optimal_servers_continuous();
        let p4 = ClientServer::new(fig62_machine().with_c2(4.0), w).optimal_servers_continuous();
        assert!(p0 < p1 && p1 < p4, "{p0} {p1} {p4}");
    }

    /// More work per chunk means fewer servers needed.
    #[test]
    fn optimum_shrinks_with_w() {
        let m = fig62_machine();
        let small = ClientServer::new(m, 100.0).optimal_servers_continuous();
        let large = ClientServer::new(m, 10_000.0).optimal_servers_continuous();
        assert!(large < small);
    }

    /// Saturated servers: with tiny W and one server, utilisation nears 1
    /// and the response time stays finite (closed network).
    #[test]
    fn single_server_saturation() {
        let model = ClientServer::new(fig62_machine(), 10.0);
        let pt = model.throughput(1).unwrap();
        assert!(pt.us > 0.9 && pt.us < 1.0, "Us = {}", pt.us);
        assert!(pt.r.is_finite());
        // Throughput pinned at the server bound.
        assert!(pt.x <= model.logp_server_bound(1));
        assert!(pt.x > 0.9 * model.logp_server_bound(1));
    }

    /// ps bounds are enforced.
    #[test]
    fn ps_bounds() {
        let model = ClientServer::new(fig62_machine(), 100.0);
        assert!(model.throughput(0).is_err());
        assert!(model.throughput(32).is_err());
        assert!(model.throughput(31).is_ok());
    }

    /// Degenerate and invalid parameter handling.
    #[test]
    fn validation() {
        assert!(ClientServer::new(Machine::new(1, 0.0, 1.0), 1.0)
            .optimal_servers()
            .is_err());
        assert!(ClientServer::new(fig62_machine(), -5.0).sweep().is_err());
        let zero_handler = ClientServer::new(Machine::new(8, 10.0, 0.0), 100.0);
        let pt = zero_handler.throughput(2).unwrap();
        assert_eq!(pt.rq, 0.0);
        assert_eq!(pt.r, 120.0);
    }

    /// The solved point is a true fixed point of eq. 6.7.
    #[test]
    fn solution_is_fixed_point() {
        let model = ClientServer::new(fig62_machine(), 700.0);
        let pt = model.throughput(7).unwrap();
        let recomposed = model.w + 2.0 * model.machine.s_l + pt.rq + model.machine.s_o;
        assert!((recomposed - pt.r).abs() < 1e-6);
        // Little's law at the server: Qs = λ·Rq.
        let lambda = pt.pc as f64 / (pt.ps as f64 * pt.r);
        assert!((pt.qs - lambda * pt.rq).abs() < 1e-9);
    }
}
