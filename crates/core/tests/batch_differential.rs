//! Differential suite pinning `scenario::solve_batch` bit-identical to the
//! scalar `scenario::solve`, lane for lane: every variant, mixed-variant
//! batches, lane counts {1, 7, 64, 1000}, shuffled lane orders, and error
//! lanes riding in the middle of healthy batches.
//!
//! "Bit-identical" is literal: every `f64` component is compared through
//! `to_bits`, so NaN components (the General model's unpopulated fields)
//! and signed zeros must match too, as must the error *variant and payload*
//! of failing lanes.

use lopc_core::scenario::{solve, solve_batch, Scenario};
use lopc_core::{GeneralModel, Machine, ModelError, Prediction};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bitwise lane comparison; returns a description of the first divergence.
fn same_lane(
    b: &Result<Prediction, ModelError>,
    a: &Result<Prediction, ModelError>,
) -> Result<(), String> {
    match (b, a) {
        (Ok(b), Ok(a)) => {
            for (name, bv, av) in [
                ("r", b.r, a.r),
                ("x", b.x, a.x),
                ("rw", b.rw, a.rw),
                ("rq", b.rq, a.rq),
                ("ry", b.ry, a.ry),
                ("contention", b.contention, a.contention),
            ] {
                if bv.to_bits() != av.to_bits() {
                    return Err(format!("{name}: batched {bv:?} vs scalar {av:?}"));
                }
            }
            if b.ps != a.ps {
                return Err(format!("ps: batched {:?} vs scalar {:?}", b.ps, a.ps));
            }
            if b.iterations != a.iterations {
                return Err(format!(
                    "iterations: batched {} vs scalar {}",
                    b.iterations, a.iterations
                ));
            }
            Ok(())
        }
        (Err(b), Err(a)) if b == a => Ok(()),
        (b, a) => Err(format!("batched {b:?} vs scalar {a:?}")),
    }
}

/// Batch-vs-scalar over a whole lane vector.
fn lanes_match(scenarios: &[Scenario]) -> Result<(), String> {
    let batched = solve_batch(scenarios);
    assert_eq!(batched.len(), scenarios.len());
    for (i, (s, b)) in scenarios.iter().zip(&batched).enumerate() {
        same_lane(b, &solve(s)).map_err(|e| format!("lane {i} ({}): {e}", s.kind()))?;
    }
    Ok(())
}

/// In-place Fisher–Yates with the given rng.
fn shuffle(v: &mut [Scenario], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0u32..(i as u32 + 1)) as usize;
        v.swap(i, j);
    }
}

/// One random scenario. `variant` selects among the five kinds; `cheap_amva`
/// caps the `General` machine size so 1000-lane batches stay fast in debug
/// builds (its damped fixed point is O(p²) per iteration; `SharedMemory`'s
/// one-node solve is O(p), so it draws every `p`).
fn random_scenario(rng: &mut SmallRng, variant: u32, cheap_amva: bool) -> Scenario {
    let p = match rng.random_range(0u32..3) {
        0 => 4,
        1 => 8,
        _ => 32,
    };
    let s_l = [0.0, 25.0, 50.3][rng.random_range(0u32..3) as usize];
    let s_o = [131.0, 200.0, 777.7, 95.0][rng.random_range(0u32..4) as usize];
    let c2 = [0.0, 1.0, 2.5][rng.random_range(0u32..3) as usize];
    let machine = Machine::new(p, s_l, s_o).with_c2(c2);
    let w = rng.random_range(0.0..5000.0f64);
    match variant % 5 {
        0 => Scenario::AllToAll { machine, w },
        1 => {
            let ps = if rng.random_bool(0.5) {
                None
            } else {
                Some(1 + rng.random_range(0u32..(p as u32 - 1)) as usize)
            };
            Scenario::ClientServer { machine, w, ps }
        }
        2 => {
            let k = 1 + rng.random_range(0u32..(p as u32 - 1).min(6));
            Scenario::ForkJoin { machine, w, k }
        }
        3 => {
            let m = if cheap_amva {
                Machine::new(4, s_l, s_o).with_c2(c2)
            } else {
                machine
            };
            if rng.random_bool(0.5) {
                Scenario::General(GeneralModel::homogeneous_all_to_all(m, w))
            } else {
                let servers = 1 + rng.random_range(0u32..(m.p as u32 - 1).min(3)) as usize;
                Scenario::General(GeneralModel::client_server(m, w, servers))
            }
        }
        _ => Scenario::SharedMemory { machine, w },
    }
}

/// Lanes that fail or short-circuit in the scalar path: validation errors,
/// degenerate machines, `So = 0` closed forms.
fn edge_scenario(rng: &mut SmallRng, variant: u32) -> Scenario {
    let good = Machine::new(8, 25.0, 200.0).with_c2(0.0);
    match variant % 6 {
        0 => Scenario::AllToAll {
            machine: good,
            w: -1.0,
        },
        1 => Scenario::AllToAll {
            machine: Machine::new(1, 25.0, 200.0),
            w: 10.0,
        },
        2 => Scenario::ClientServer {
            machine: good,
            w: 100.0,
            ps: Some(8),
        },
        3 => Scenario::AllToAll {
            machine: Machine::new(8, 10.0, 0.0),
            w: rng.random_range(0.0..100.0f64),
        },
        4 => Scenario::ClientServer {
            machine: Machine::new(8, 10.0, 0.0),
            w: rng.random_range(0.0..100.0f64),
            ps: None,
        },
        _ => Scenario::AllToAll {
            machine: Machine::new(8, 0.0, 0.0),
            w: 0.0,
        },
    }
}

/// Build a lane vector of the requested size: all five variants cycling,
/// with an edge-case lane every 9th slot.
fn build_lanes(count: usize, rng: &mut SmallRng) -> Vec<Scenario> {
    let cheap_amva = count >= 256;
    (0..count)
        .map(|i| {
            if i % 9 == 8 {
                edge_scenario(rng, i as u32)
            } else {
                random_scenario(rng, i as u32, cheap_amva)
            }
        })
        .collect()
}

/// The ISSUE matrix: lane counts {1, 7, 64, 1000}, each checked in build
/// order and in shuffled orders.
#[test]
fn lane_counts_and_shuffled_orders_match_scalar() {
    for &count in &[1usize, 7, 64, 1000] {
        let mut rng = SmallRng::seed_from_u64(0xC0FF_EE00 ^ count as u64);
        let mut lanes = build_lanes(count, &mut rng);
        lanes_match(&lanes).unwrap_or_else(|e| panic!("count {count}: {e}"));
        let shuffles = if count >= 256 { 1 } else { 3 };
        for round in 0..shuffles {
            shuffle(&mut lanes, &mut rng);
            lanes_match(&lanes).unwrap_or_else(|e| panic!("count {count} shuffle {round}: {e}"));
        }
    }
}

/// Every variant alone in a single-lane batch, across a parameter sweep —
/// the degenerate batch must not take a different path from the scalar.
#[test]
fn single_lane_batches_match_scalar_per_variant() {
    let mut rng = SmallRng::seed_from_u64(7);
    for variant in 0..5u32 {
        for _ in 0..12 {
            let s = random_scenario(&mut rng, variant, false);
            lanes_match(std::slice::from_ref(&s)).unwrap_or_else(|e| panic!("{s:?}: {e}"));
        }
    }
    for variant in 0..6u32 {
        let s = edge_scenario(&mut rng, variant);
        lanes_match(std::slice::from_ref(&s)).unwrap_or_else(|e| panic!("{s:?}: {e}"));
    }
}

/// A batch that is all duplicates of one scenario: every lane must carry
/// the identical answer (the serve-layer dedup relies on this).
#[test]
fn duplicate_lanes_all_carry_the_same_answer() {
    let s = Scenario::AllToAll {
        machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
        w: 1000.0,
    };
    let lanes: Vec<Scenario> = std::iter::repeat_with(|| s.clone()).take(33).collect();
    let batched = solve_batch(&lanes);
    let scalar = solve(&s);
    for b in &batched {
        same_lane(b, &scalar).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized mixed batches: any seed, any size up to 48 lanes.
    #[test]
    fn random_mixed_batches_match(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let count = 1 + rng.random_range(0u32..48) as usize;
        let lanes = build_lanes(count, &mut rng);
        let res = lanes_match(&lanes);
        prop_assert!(res.is_ok(), "seed {}: {}", seed, res.unwrap_err());
    }

    /// A W sweep through one machine — the serving layer's hottest shape —
    /// stays exact at any sweep length.
    #[test]
    fn w_sweeps_match(w0 in 0.0..2000.0f64, step in 0.1..50.0f64, n in 1u32..128) {
        let machine = Machine::new(32, 25.0, 200.0).with_c2(0.0);
        let lanes: Vec<Scenario> = (0..n)
            .map(|i| Scenario::AllToAll { machine, w: w0 + step * i as f64 })
            .collect();
        let res = lanes_match(&lanes);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}
