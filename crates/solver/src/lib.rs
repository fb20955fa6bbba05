//! Numerical substrate for the LoPC model.
//!
//! The thesis notes (§5.3) that "solving the model … requires solving a
//! quartic equation. Typically the simplest way to do this is to use an
//! equation solver to find a numerical solution." This crate is that
//! equation solver:
//!
//! * [`bisect`] — robust root finding for the scalar fixed-point equation
//!   `F[R] = R` of the homogeneous all-to-all model (§5.3) and the
//!   client-server response-time recursion (§6). `F` is continuous and
//!   strictly decreasing above the contention-free bound, so `g(R)=F(R)−R`
//!   has a unique bracketed root.
//! * [`solve_damped`] — damped simultaneous fixed-point iteration for the
//!   general Appendix A AMVA system (one equation set per node), which is not
//!   scalar.
//! * [`argmax_usize`] — integer grid argmax used for the optimal-server
//!   search in §6.
//! * [`par_map`] — embarrassingly-parallel parameter sweeps (std scoped
//!   threads) used by the benchmark harness to regenerate figures quickly;
//! * [`steal::WorkQueue`] — the work-stealing index distribution underneath
//!   `par_map` (and the simulator's replication runner), which keeps skewed
//!   sweeps balanced across cores.

pub mod bisection;
pub mod error;
pub mod fixed_point;
pub mod grid;
pub mod secant;
pub mod steal;
pub mod sweep;

pub use bisection::{bisect, bracket_upward, Root};
pub use error::SolverError;
pub use fixed_point::{solve_damped, Convergence, FixedPointOptions};
pub use grid::{argmax_usize, ArgmaxResult};
pub use secant::secant;
pub use steal::WorkQueue;
pub use sweep::par_map;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_round_trip() {
        // Solve x = 10/x  =>  x = sqrt(10), two ways.
        let f = |x: f64| 10.0 / x;
        let root = bisect(|x| f(x) - x, 1.0, 10.0, 1e-12, 200).unwrap();
        assert!((root.x - 10f64.sqrt()).abs() < 1e-9);

        let conv = solve_damped(
            vec![1.0],
            |x, out| out[0] = f(x[0]),
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert!((conv.x[0] - 10f64.sqrt()).abs() < 1e-8);
    }
}
