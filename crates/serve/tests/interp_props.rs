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
//! 3. **Purity**: every answer is a function of its request alone. A
//!    tolerant answer is the same bits in any arrival order, under
//!    eviction and on a cold node; an exact answer is the library's.
//! 4. **Calibration**: on the dense off-grid sweeps that calibrate
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

use lopc_core::scenario::{solve, AxisBracket};
use lopc_core::{Machine, ModelError, Prediction, Scenario};
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
    random_variant(rng, Machine::new(p, st, so).with_c2(c2), w)
}

/// One of the four closed-form variants on `machine` at `w`.
fn random_variant(rng: &mut SmallRng, machine: Machine, w: f64) -> Scenario {
    let p = machine.p;
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

/// `scenario` moved to the centre of the cell it lands in, and to the
/// midpoint of each face of that cell (for a 1-D cell, its two ends).
fn centre_and_faces(scenario: &Scenario) -> Vec<Scenario> {
    let Some(axes) = scenario.interp_axes() else {
        return Vec::new();
    };
    let brackets: Option<Vec<AxisBracket>> = axes.iter().map(|a| a.kind.bracket(a.value)).collect();
    let Some(brackets) = brackets else {
        return Vec::new();
    };
    let centre: [f64; 4] = std::array::from_fn(|i| 0.5 * (brackets[i].lo + brackets[i].hi));
    let mut points = vec![centre];
    for (i, b) in brackets.iter().enumerate() {
        if !b.is_degenerate() {
            for end in [b.lo, b.hi] {
                let mut face = centre;
                face[i] = end;
                points.push(face);
            }
        }
    }
    points
        .into_iter()
        .filter_map(|v| scenario.with_axis_values(v))
        .collect()
}

/// What one request got: the prediction and the path that served it.
type Answer = Result<(Prediction, Served), ModelError>;

fn same_answer(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Ok((p, s)), Ok((q, t))) => lopc_serve::predictions_identical(p, q) && s == t,
        (Err(e), Err(f)) => e == f,
        _ => false,
    }
}

/// A small node: two shards of everything.
fn small_node() -> InterpCache {
    InterpCache::new(SolutionCache::new(2, 64), 2, 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Purity: a request's answer depends on the request alone. Each case
    /// draws two `W`-sweeps over a few cells (one on a round-valued
    /// machine, whose cells are 1-D, one anywhere), adds the centre and
    /// face midpoints of every cell a sweep point lands in, and asks some
    /// of the same scenarios in exact mode. The list is answered by four
    /// nodes: in the drawn order, in reverse, by a node that holds one
    /// cell and one exact entry (every build evicts), and by a fresh node
    /// per request. Every tolerant answer must be the same bits, by the
    /// same path, on all four; every exact answer must be the library's.
    ///
    /// A lane loop that probed the exact cache before the cell failed
    /// this: the centre of the `W`-cell around 777.7 (`AllToAll`, P = 32,
    /// St = 25, So = 200, C² = 0) at `max_rel_err` 1e-2 got
    /// r = 1436.8139291461557 on first touch, interpolated, and
    /// r = 1436.8118551839143 on the second, from the centre probe the
    /// cell's build had left in the exact cache.
    #[test]
    fn tolerant_answers_are_a_pure_function_of_the_request(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let round = Machine::new(
            [16usize, 32][rng.random_range(0..2usize)],
            25.0,
            200.0,
        )
        .with_c2(rng.random_range(0..2u32) as f64);
        let w0 = rng.random_range(100.0..5000.0f64);
        let sweeps = [random_variant(&mut rng, round, w0), random_scenario(&mut rng)];
        let mut requests: Vec<(Scenario, f64)> = Vec::new();
        for base in sweeps {
            let axes = base.interp_axes().expect("closed-form");
            let w0 = axes[0].value;
            for k in 0..rng.random_range(4..9usize) {
                let w = w0 * (1.0 + 0.015 * k as f64);
                let lane = base
                    .with_axis_values([w, axes[1].value, axes[2].value, axes[3].value])
                    .expect("closed-form");
                for s in std::iter::once(lane.clone()).chain(centre_and_faces(&lane)) {
                    let tol = [1e-3, 1e-2, 5e-2][rng.random_range(0..3usize)];
                    if rng.random_range(0..4u32) == 0 {
                        requests.push((s.clone(), 0.0));
                    }
                    requests.push((s, tol));
                }
            }
        }
        // The drawn order: a Fisher-Yates shuffle.
        for i in (1..requests.len()).rev() {
            requests.swap(i, rng.random_range(0..i + 1));
        }

        let n = requests.len();
        let ask = |node: &InterpCache, i: usize| -> Answer {
            let (s, tol) = &requests[i];
            node.predict_traced(s, *tol)
        };
        let (forward, backward) = (small_node(), small_node());
        let evicting = InterpCache::new(SolutionCache::new(1, 1), 1, 1);
        let drawn: Vec<Answer> = (0..n).map(|i| ask(&forward, i)).collect();
        let mut reversed: Vec<Answer> = (0..n).rev().map(|i| ask(&backward, i)).collect();
        reversed.reverse();
        prop_assert!(
            drawn.iter().any(|a| matches!(a, Ok((_, Served::Interpolated { .. })))),
            "no request was interpolated"
        );
        for (i, (s, tol)) in requests.iter().enumerate() {
            let answers = [
                ("drawn order", drawn[i].clone()),
                ("reversed order", reversed[i].clone()),
                ("evicting node", ask(&evicting, i)),
                ("fresh node", ask(&small_node(), i)),
            ];
            if *tol == 0.0 {
                let exact = solve(s).map(|p| (p, Served::Exact));
                for (node, got) in &answers {
                    prop_assert!(
                        same_answer(got, &exact),
                        "{node}, exact mode: {got:?} != library {exact:?} for {s:?}"
                    );
                }
            } else {
                for (node, got) in &answers[1..] {
                    prop_assert!(
                        same_answer(got, &answers[0].1),
                        "{node} at tol {tol}: {got:?} != drawn order's {:?} for {s:?}",
                        answers[0].1
                    );
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
