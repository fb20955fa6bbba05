//! The LoPC model: **Lo**gP + **C**ontention.
//!
//! LoPC (Frank, 1997) predicts the total runtime of fine-grain message-
//! passing programs *including contention for processor resources*, from the
//! same parameters a LogP analysis produces:
//!
//! | LoPC | LogP | Meaning |
//! |------|------|---------|
//! | `St` | `L`  | average wire time (latency) in the interconnect |
//! | `So` | `o`  | average cost of message dispatch (interrupt + handler) |
//! | —    | `g`  | peak processor-to-network bandwidth gap (assumed 0) |
//! | `P`  | `P`  | number of processors |
//! | `C²` | —    | squared coefficient of variation of handler service time (optional) |
//!
//! plus the per-algorithm parameters `W` (average work between blocking
//! requests) and `n` (requests per node). See [`Machine`] and [`Algorithm`].
//!
//! Three model variants are provided:
//!
//! * [`AllToAll`] — the homogeneous all-to-all pattern of §5, solved in
//!   closed form via the scalar recursion `F[R]` (eq. 5.11), with the tight
//!   bounds of eq. 5.12 (`W + 2St + 2So < R* < W + 2St + 3.46·So` for
//!   `C² = 0`) and the "contention ≈ one extra handler" rule of thumb;
//! * [`ClientServer`] — the work-pile analysis of §6, including the optimal
//!   server count of eq. 6.8 and throughput for any server allocation;
//! * [`GeneralModel`] — the full per-node AMVA of Appendix A with arbitrary
//!   routing matrices, multi-hop requests, idle (server) threads, and the
//!   shared-memory **protocol processor** variant (`Rw = W`, §5.1);
//! * [`ForkJoin`] — the §7 *future work* extension: non-blocking fan-out of
//!   `k` overlapped requests per cycle (an explicit approximation, validated
//!   empirically; see the module docs).
//!
//! All variants rest on the same three approximations: Bard's approximation
//! to the Arrival Theorem, the BKT preempt-resume priority approximation for
//! compute-thread interference, and the residual-life `(C²−1)/2 · U`
//! correction for non-exponential handlers (§5.2).
//!
//! The [`scenario`] module unifies the four variants behind one data type:
//! [`Scenario`] describes a prediction request, [`scenario::solve`] returns
//! the common [`Prediction`] shape — the entry point the `lopc-serve`
//! prediction service and the bench experiments dispatch through.
//!
//! # Quickstart
//!
//! ```
//! use lopc_core::{Machine, AllToAll};
//!
//! // 32 processors, wire time 25 cycles, handlers of 200 cycles, constant
//! // service (C² = 0) — the Figure 5-2 configuration.
//! let machine = Machine::new(32, 25.0, 200.0).with_c2(0.0);
//! let model = AllToAll::new(machine, 1000.0); // W = 1000 cycles of work
//! let sol = model.solve().unwrap();
//!
//! // The fixed point obeys the paper's bounds.
//! assert!(sol.r > model.contention_free());
//! assert!(sol.r < model.upper_bound() + 1e-9);
//! // ... and contention costs about one extra handler.
//! assert!((sol.contention - 200.0).abs() < 100.0);
//! ```

pub mod all_to_all;
pub mod client_server;
pub mod error;
pub mod fork_join;
pub mod general;
pub mod logp;
pub mod params;
pub mod scenario;

pub use all_to_all::{AllToAll, AllToAllSolution};
pub use client_server::{ClientServer, CsPoint};
pub use error::ModelError;
pub use fork_join::{ForkJoin, ForkJoinSolution};
pub use general::{GeneralModel, GeneralSolution};
pub use logp::LogPParams;
pub use params::{Algorithm, Machine};
pub use scenario::{solve, solve_batch, Prediction, Scenario};

#[cfg(test)]
mod tests {
    use super::*;

    /// The doc example, kept as a real test.
    #[test]
    fn quickstart_holds() {
        let machine = Machine::new(32, 25.0, 200.0).with_c2(0.0);
        let model = AllToAll::new(machine, 1000.0);
        let sol = model.solve().unwrap();
        assert!(sol.r > model.contention_free());
        assert!(sol.r < model.upper_bound() + 1e-9);
        assert!((sol.contention - 200.0).abs() < 100.0);
    }
}
