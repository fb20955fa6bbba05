//! Damped simultaneous fixed-point iteration for vector systems.
//!
//! The general LoPC model (Appendix A) is a system `x = F(x)` over the
//! per-node response times and queue lengths. AMVA systems of this shape are
//! contractive near the solution but can oscillate when iterated naively;
//! under-relaxation (`x ← (1−α)x + αF(x)`) restores monotone convergence.

use crate::SolverError;

/// Options controlling [`solve_damped`].
#[derive(Clone, Copy, Debug)]
pub struct FixedPointOptions {
    /// Relaxation factor `α ∈ (0, 1]`; 1 is undamped.
    pub damping: f64,
    /// Convergence tolerance on the max-norm of the relative update.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        FixedPointOptions {
            damping: 0.5,
            tol: 1e-10,
            max_iter: 100_000,
        }
    }
}

/// Result of a converged fixed-point iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct Convergence {
    /// The fixed point.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final max-norm relative residual.
    pub residual: f64,
}

/// Iterate `x ← (1−α)x + α·F(x)` to convergence.
///
/// `f(x, out)` must write `F(x)` into `out` (same length as `x`). The
/// iteration stops when `max_i |F(x)_i − x_i| / max(|x_i|, 1)` falls below
/// `opts.tol`.
///
/// # Example
///
/// A two-variable coupled system of the shape the Appendix A AMVA model
/// produces (`x₀ = 1 + x₁/2`, `x₁ = 1 + x₀/2`, fixed point at `(2, 2)`):
///
/// ```
/// use lopc_solver::{solve_damped, FixedPointOptions};
///
/// let conv = solve_damped(
///     vec![0.0, 0.0],
///     |x, out| {
///         out[0] = 1.0 + x[1] / 2.0;
///         out[1] = 1.0 + x[0] / 2.0;
///     },
///     &FixedPointOptions::default(),
/// )
/// .unwrap();
/// assert!((conv.x[0] - 2.0).abs() < 1e-8);
/// assert!((conv.x[1] - 2.0).abs() < 1e-8);
/// ```
pub fn solve_damped<F>(
    x0: Vec<f64>,
    mut f: F,
    opts: &FixedPointOptions,
) -> Result<Convergence, SolverError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    if x0.is_empty() {
        return Err(SolverError::InvalidInput("empty state vector"));
    }
    if !(opts.damping > 0.0 && opts.damping <= 1.0) {
        return Err(SolverError::InvalidInput("damping must be in (0, 1]"));
    }
    let mut x = x0;
    let mut fx = vec![0.0; x.len()];
    let mut residual = f64::INFINITY;
    let mut prev_residual = f64::INFINITY;
    for iter in 0..opts.max_iter {
        f(&x, &mut fx);
        prev_residual = residual;
        residual = 0.0f64;
        for i in 0..x.len() {
            if fx[i].is_nan() {
                return Err(SolverError::NumericalBreakdown { at: x[i] });
            }
            let denom = x[i].abs().max(1.0);
            residual = residual.max((fx[i] - x[i]).abs() / denom);
        }
        if residual < opts.tol {
            return Ok(Convergence {
                x,
                iterations: iter,
                residual,
            });
        }
        for i in 0..x.len() {
            x[i] = (1.0 - opts.damping) * x[i] + opts.damping * fx[i];
        }
    }
    // Budget exhausted: hand back the last iterate rather than discarding
    // the work, and tell the caller whether the residual was still falling
    // (a slow contraction a retry with a larger budget would finish) or not
    // (oscillation/divergence — retrying is pointless).
    Err(SolverError::Exhausted {
        x,
        iterations: opts.max_iter,
        residual,
        contracting: residual < prev_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_contraction_converges() {
        // x = cos(x): Dottie number ≈ 0.739085.
        let c = solve_damped(
            vec![0.0],
            |x, out| out[0] = x[0].cos(),
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert!((c.x[0] - 0.739_085_133_2).abs() < 1e-8);
    }

    #[test]
    fn oscillating_map_needs_damping() {
        // x = 10/x oscillates undamped (period 2); damping fixes it.
        let opts = FixedPointOptions {
            damping: 0.5,
            tol: 1e-12,
            max_iter: 10_000,
        };
        let c = solve_damped(vec![1.0], |x, out| out[0] = 10.0 / x[0], &opts).unwrap();
        assert!((c.x[0] - 10f64.sqrt()).abs() < 1e-9);

        let undamped = FixedPointOptions {
            damping: 1.0,
            tol: 1e-12,
            max_iter: 1_000,
        };
        let e = solve_damped(vec![1.0], |x, out| out[0] = 10.0 / x[0], &undamped);
        assert!(e.is_err(), "undamped iteration should oscillate forever");
    }

    #[test]
    fn exhaustion_returns_last_iterate_and_contraction_flag() {
        // A genuine contraction cut off early: the flag says "keep going"
        // and the iterate is partway to the fixed point.
        let opts = FixedPointOptions {
            damping: 0.5,
            tol: 1e-12,
            max_iter: 3,
        };
        let e = solve_damped(vec![0.0], |x, out| out[0] = x[0].cos(), &opts).unwrap_err();
        match e {
            SolverError::Exhausted {
                x,
                iterations,
                residual,
                contracting,
            } => {
                assert_eq!(iterations, 3);
                assert!(contracting, "cosine map contracts");
                assert!(residual > 0.0 && residual.is_finite());
                assert!(x[0] > 0.0, "iterate moved off the start: {}", x[0]);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }

        // An undamped period-2 oscillation: the flag reports the *final*
        // step, so cut the budget where the residual just swung back up
        // (odd budget: the last transition is low-phase → high-phase).
        let opts = FixedPointOptions {
            damping: 1.0,
            tol: 1e-12,
            max_iter: 101,
        };
        let e = solve_damped(vec![1.0], |x, out| out[0] = 10.0 / x[0], &opts).unwrap_err();
        match e {
            SolverError::Exhausted { contracting, .. } => {
                assert!(!contracting, "residual rose in the final step");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn vector_system() {
        // x = (y+1)/2, y = (x+1)/2  =>  x = y = 1.
        let c = solve_damped(
            vec![0.0, 0.0],
            |x, out| {
                out[0] = (x[1] + 1.0) / 2.0;
                out[1] = (x[0] + 1.0) / 2.0;
            },
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert!((c.x[0] - 1.0).abs() < 1e-8);
        assert!((c.x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn empty_state_rejected() {
        let e = solve_damped(vec![], |_, _| {}, &FixedPointOptions::default()).unwrap_err();
        assert!(matches!(e, SolverError::InvalidInput(_)));
    }

    #[test]
    fn invalid_damping_rejected() {
        let opts = FixedPointOptions {
            damping: 0.0,
            ..Default::default()
        };
        let e = solve_damped(vec![1.0], |x, out| out[0] = x[0], &opts).unwrap_err();
        assert!(matches!(e, SolverError::InvalidInput(_)));
    }

    #[test]
    fn nan_breakdown_detected() {
        let e = solve_damped(
            vec![1.0],
            |_, out| out[0] = f64::NAN,
            &FixedPointOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(e, SolverError::NumericalBreakdown { .. }));
    }

    #[test]
    fn already_converged_returns_zero_iterations() {
        let c = solve_damped(
            vec![2.0],
            |x, out| out[0] = x[0],
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert_eq!(c.iterations, 0);
        assert_eq!(c.x[0], 2.0);
    }
}
