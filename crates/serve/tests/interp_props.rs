//! Property tests for the certified interpolation layer — the contract the
//! serving API makes, checked over random scenarios and random populated
//! grids:
//!
//! 1. **Certificate soundness**: whenever a prediction is served by
//!    interpolation, its true residual against the exact solve is within
//!    the cell's certified bound (and the bound is within the caller's
//!    tolerance).
//! 2. **Exactness contract**: `max_rel_err = 0` requests are bit-identical
//!    to library `scenario::solve`, no matter what interpolation traffic
//!    populated the grid first.
//! 3. **Calibration**: on the dense off-grid sweeps that calibrate
//!    [`SAFETY_FACTOR`] and [`CERT_FLOOR`], every interpolated answer is
//!    within its certificate, and every floor-certified one within the
//!    floor.
//!
//! Nothing here depends on the event scheduler (interpolation is pure
//! model arithmetic), but the suite runs under the CI scheduler × seed
//! matrix (`LOPC_TEST_SCHEDULER` ∈ {calendar, heap}) like every other
//! tier-1 test, so both scheduler configurations exercise it.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lopc_core::scenario::solve;
use lopc_core::{Machine, Scenario};
use lopc_serve::cache::SolutionCache;
use lopc_serve::interp::{rel_resid, InterpCache, Served, CERT_FLOOR, SAFETY_FACTOR};

/// Draw one random interpolation-eligible scenario. Parameters cover the
/// paper's regimes (contention-bound through compute-bound) across all
/// four closed-form variants.
fn random_scenario(rng: &mut SmallRng) -> Scenario {
    let p = rng.random_range(4usize..64);
    let st = rng.random_range(0.0..300.0f64);
    let so = rng.random_range(10.0..400.0f64);
    let c2 = rng.random_range(0.0..2.5f64);
    let w = rng.random_range(1.0..8000.0f64);
    let machine = Machine::new(p, st, so).with_c2(c2);
    match rng.random_range(0..5usize) {
        0 => Scenario::AllToAll { machine, w },
        1 => Scenario::SharedMemory { machine, w },
        2 => Scenario::ClientServer {
            machine,
            w,
            ps: Some(rng.random_range(1..p)),
        },
        3 => Scenario::ClientServer {
            machine,
            w,
            ps: None,
        },
        _ => Scenario::ForkJoin {
            machine,
            w,
            k: rng.random_range(1u32..6),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Certificate soundness on a randomly populated grid: every
    /// interpolated answer is within its certificate, every fallback is
    /// bit-identical exact.
    #[test]
    fn interpolated_predictions_respect_the_certified_bound(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cache = InterpCache::new(SolutionCache::new(4, 512), 4, 128);
        // Populate the grid with random warm-up traffic: a short sweep
        // around a random anchor, so some later queries land in built
        // cells and others in fresh ones.
        let anchor = random_scenario(&mut rng);
        if let Some(axes) = anchor.interp_axes() {
            for i in 0..12 {
                let w = axes[0].value * (0.8 + 0.04 * i as f64);
                if let Some(s) = anchor.with_axis_values([w, axes[1].value, axes[2].value, axes[3].value]) {
                    let _ = cache.predict(&s, 1e-3);
                }
            }
        }
        // Now the probes: random scenarios at random tolerances.
        for _ in 0..6 {
            let scenario = random_scenario(&mut rng);
            let tol = 10f64.powf(rng.random_range(-5.0..-1.0f64));
            let served = cache.predict_traced(&scenario, tol);
            let exact = solve(&scenario);
            match (served, exact) {
                (Ok((p, Served::Interpolated { certified_rel_err })), Ok(e)) => {
                    prop_assert!(
                        certified_rel_err <= tol,
                        "served above tolerance: cert {certified_rel_err} > tol {tol}"
                    );
                    prop_assert!(
                        certified_rel_err >= CERT_FLOOR,
                        "certificate below floor: {certified_rel_err}"
                    );
                    let resid = rel_resid(&p, &e);
                    prop_assert!(
                        resid <= certified_rel_err,
                        "true residual {resid} exceeds certificate {certified_rel_err} for {scenario:?}"
                    );
                }
                (Ok((p, Served::Exact)), Ok(e)) => {
                    // Fallbacks and exact-cache hits are the library answer,
                    // bit for bit.
                    prop_assert!(
                        lopc_serve::predictions_identical(&p, &e),
                        "exact path drifted for {scenario:?}: {p:?} != {e:?}"
                    );
                }
                (Err(_), Err(_)) => {} // unsolvable either way
                (served, exact) => {
                    return Err(proptest::TestCaseError::fail(format!(
                        "served {served:?} disagrees with library {exact:?} for {scenario:?}"
                    )));
                }
            }
        }
    }

    /// The exactness contract: `max_rel_err = 0` is bit-identical to the
    /// library, even on a grid fully populated by interpolation traffic
    /// for the *same* scenarios.
    #[test]
    fn zero_tolerance_is_bit_identical_to_library_solve(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cache = InterpCache::new(SolutionCache::new(4, 512), 4, 128);
        for _ in 0..8 {
            let scenario = random_scenario(&mut rng);
            // Populate cells (and possibly serve interpolations) first.
            let _ = cache.predict(&scenario, 1e-2);
            let served = cache.predict_traced(&scenario, 0.0);
            let exact = solve(&scenario);
            match (served, exact) {
                (Ok((p, mode)), Ok(e)) => {
                    prop_assert_eq!(mode, Served::Exact);
                    prop_assert!(
                        lopc_serve::predictions_identical(&p, &e),
                        "{:?}: served {:?} != library {:?}",
                        &scenario, &p, &e
                    );
                }
                (Err(_), Err(_)) => {}
                (served, exact) => {
                    return Err(proptest::TestCaseError::fail(format!(
                        "served {served:?} disagrees with library {exact:?} for {scenario:?}"
                    )));
                }
            }
        }
    }
}

/// The calibration of the certificate: six scenario families over the
/// four closed-form variants (`ClientServer` with a fixed and with the
/// optimal `ps`, and `AllToAll` also at an off-grid `C²`, which forces
/// 2-D W × C² cells), each swept over 400 geometric W points off the
/// reference grid, at a wide-open tolerance so every certifiable cell
/// serves. Every
/// interpolated answer must sit within its certificate, and every
/// floor-certified one within [`CERT_FLOOR`]. Run with `--nocapture` for
/// the worst ratios DESIGN §12 quotes: the worst true/probe residual
/// ratio is what [`SAFETY_FACTOR`] must dominate.
#[test]
fn calibration_sweep_certificates_are_sound() {
    const POINTS: usize = 400;
    let m32 = Machine::new(32, 25.0, 200.0).with_c2(0.0);
    let m16 = Machine::new(16, 50.0, 131.0).with_c2(1.0);
    // 0.3 is not a multiple of 1/8, so C² is an off-grid axis.
    let m_offgrid = Machine::new(32, 25.0, 200.0).with_c2(0.3);
    let families: [(&str, &dyn Fn(f64) -> Scenario); 6] = [
        ("all_to_all", &|w| Scenario::AllToAll { machine: m32, w }),
        ("shared_memory", &|w| Scenario::SharedMemory {
            machine: m16,
            w,
        }),
        ("client_server_fixed", &|w| Scenario::ClientServer {
            machine: m32,
            w,
            ps: Some(5),
        }),
        ("client_server_optimal", &|w| Scenario::ClientServer {
            machine: m16,
            w,
            ps: None,
        }),
        ("fork_join", &|w| Scenario::ForkJoin {
            machine: m32,
            w,
            k: 4,
        }),
        ("all_to_all_offgrid_c2", &|w| Scenario::AllToAll {
            machine: m_offgrid,
            w,
        }),
    ];
    // 50 .. ~12,800 cycles, offset by 0.3 % so the points land inside
    // cells rather than on corners.
    let ratio = (12_800.0f64 / 50.0).powf(1.0 / (POINTS as f64 - 1.0));
    let (mut worst_over_cert, mut worst_over_probe, mut worst_floored) = (0.0f64, 0.0f64, 0.0f64);
    for (kind, make) in families {
        let cache = InterpCache::new(SolutionCache::new(8, 4096), 8, 1024);
        let mut interpolated = 0;
        for i in 0..POINTS {
            let scenario = make(50.0 * 1.003 * ratio.powi(i as i32));
            let Ok((served, Served::Interpolated { certified_rel_err })) =
                cache.predict_traced(&scenario, 1.0)
            else {
                continue;
            };
            let resid = rel_resid(&served, &solve(&scenario).expect("exact solve"));
            interpolated += 1;
            worst_over_cert = worst_over_cert.max(resid / certified_rel_err);
            if certified_rel_err > CERT_FLOOR {
                // Above the floor the certificate is the worst probe
                // residual × SAFETY_FACTOR, so this ratio is exact.
                worst_over_probe = worst_over_probe.max(resid * SAFETY_FACTOR / certified_rel_err);
            } else {
                worst_floored = worst_floored.max(resid);
            }
        }
        println!("{kind:<24} {interpolated:>3}/{POINTS} interpolated");
        assert!(interpolated > 0, "{kind}: no point was interpolated");
    }
    println!(
        "worst true/cert {worst_over_cert:.3}, worst true/probe {worst_over_probe:.3} \
         (SAFETY_FACTOR = {SAFETY_FACTOR}), worst floored residual {worst_floored:.2e} \
         (CERT_FLOOR = {CERT_FLOOR:.0e})"
    );
    assert!(
        worst_over_cert <= 1.0,
        "certificate violated: a true residual exceeded its certificate {worst_over_cert:.3}x"
    );
    assert!(
        worst_floored <= CERT_FLOOR,
        "floor violated: a floor-certified cell had residual {worst_floored:.2e}"
    );
}
