//! Queue order against an oracle that shares no code with the queues.
//!
//! Both [`BinaryHeapQueue`] and [`CalendarQueue`] order items by one packed
//! integer key, so comparing them with each other (`differential.rs`) cannot
//! catch a fault in that key. Here each queue is checked against a plain
//! `Vec` sorted by the `(f64, u64)` comparison the key stands for, over the
//! corners of the time domain: −0.0 next to 0.0 (equal times, so the tie
//! goes to `seq`), subnormals, times near 1e300, dense ties, and
//! populations that cross the heap queue's run/heap bound and come back.
//! Times that are not finite and non-negative must panic on push.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lopc_sim::{BinaryHeapQueue, CalendarQueue, EventQueue, Keyed};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
struct Item {
    t: f64,
    seq: u64,
}

impl Keyed for Item {
    fn time(&self) -> f64 {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// The items pending in the oracle, popped in ascending `(time, seq)` order
/// under `f64`'s own comparison.
#[derive(Default)]
struct Oracle(Vec<(f64, u64)>);

impl Oracle {
    fn push(&mut self, it: Item) {
        self.0.push((it.t, it.seq));
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        // Descending, so the earliest is last.
        self.0
            .sort_by(|a, b| b.partial_cmp(a).expect("valid times compare"));
        self.0.pop()
    }
}

/// An item's identity: the exact bits of its time (so −0.0 and 0.0 differ)
/// and its sequence number.
fn id(t: f64, seq: u64) -> (u64, u64) {
    (t.to_bits(), seq)
}

/// Draw an event time for one of the corner patterns.
fn draw_time(pattern: usize, rng: &mut SmallRng, last: f64) -> f64 {
    match pattern % 6 {
        // Signed zeros among a few small lattice times.
        0 => [0.0, -0.0, 0.0, -0.0, 1.0, 2.5][rng.random_range(0..6usize)],
        // Subnormals, the smallest normal, and zero.
        1 => match rng.random_range(0..8u32) {
            0 => 0.0,
            1 => f64::MIN_POSITIVE,
            2 => f64::from_bits(1),
            _ => f64::from_bits(rng.random_range(1..1u64 << 52)),
        },
        // Near 1e300, up to the largest finite value.
        2 => match rng.random_range(0..8u32) {
            0 => f64::MAX,
            1 => 1e300,
            _ => 1e300 * (1.0 + rng.random::<f64>()),
        },
        // Dense ties.
        3 => rng.random_range(0..4u32) as f64,
        // Hold style: just after whatever popped last.
        4 => last + (rng.random::<f64>() * 100.0).floor(),
        // Every corner at once.
        _ => {
            let p = rng.random_range(0..5usize);
            draw_time(p, rng, last)
        }
    }
}

/// Run `ops` random pushes and pops on `q` and the oracle, checking every
/// pop and the final drain. The pop probability alternates between 0.2 and
/// 0.8 every `phase` operations, so the population climbs well past the
/// heap queue's run bound and drains back. Returns the largest population.
fn check_against_oracle<Q: EventQueue<Item>>(
    mut q: Q,
    seed: u64,
    ops: usize,
    pattern: usize,
    phase: usize,
) -> Result<usize, TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::default();
    let (mut seq, mut last, mut peak) = (0u64, 0.0, 0usize);
    for op in 0..ops {
        let p_pop = if (op / phase).is_multiple_of(2) {
            0.2
        } else {
            0.8
        };
        if rng.random::<f64>() < p_pop {
            let want = oracle.pop();
            let got = q.pop().map(|i| (i.t, i.seq));
            prop_assert_eq!(
                got.map(|(t, s)| id(t, s)),
                want.map(|(t, s)| id(t, s)),
                "pop {} diverged from the oracle (seed {}, pattern {})",
                op,
                seed,
                pattern
            );
            if let Some((t, _)) = want {
                last = t;
            }
        } else {
            let it = Item {
                t: draw_time(pattern, &mut rng, last),
                seq,
            };
            // Scramble the tie order, as the engine's creator-packed
            // sequence numbers do.
            seq = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
            q.push(it);
            oracle.push(it);
        }
        prop_assert_eq!(q.len(), oracle.0.len());
        peak = peak.max(q.len());
    }
    loop {
        let want = oracle.pop();
        let got = q.pop().map(|i| (i.t, i.seq));
        prop_assert_eq!(got.map(|(t, s)| id(t, s)), want.map(|(t, s)| id(t, s)));
        if want.is_none() {
            break;
        }
    }
    prop_assert!(q.is_empty());
    Ok(peak)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings pop exactly as the oracle does, from both
    /// queues.
    #[test]
    fn both_queues_pop_in_oracle_order(
        seed in 0u64..1_000_000,
        ops in 10usize..1500,
        pattern in 0usize..6,
        phase in 20usize..300,
    ) {
        check_against_oracle(BinaryHeapQueue::new(), seed, ops, pattern, phase)?;
        check_against_oracle(CalendarQueue::new(), seed, ops, pattern, phase)?;
    }
}

/// Populations that cross the heap queue's run/heap bound upward and come
/// back, on every time pattern: the alternating phases peak well above 64
/// pending items and drain to empty.
#[test]
fn populations_cross_the_run_bound_and_back() {
    for pattern in 0..6 {
        for seed in 0..4 {
            let peak = check_against_oracle(BinaryHeapQueue::new(), seed, 2400, pattern, 400)
                .unwrap_or_else(|e| panic!("{e:?}"));
            assert!(
                peak > 100,
                "pattern {pattern}: peak {peak} never left the run"
            );
            check_against_oracle(CalendarQueue::new(), seed, 2400, pattern, 400)
                .unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

/// −0.0 and 0.0 are the same time: the tie goes to `seq`, whichever zero
/// each item carries, and each item comes back with its own sign.
#[test]
fn signed_zeros_tie_by_seq() {
    fn order<Q: EventQueue<Item>>(mut q: Q) -> Vec<(u64, u64)> {
        for (seq, t) in [(4, 0.0), (1, -0.0), (3, -0.0), (2, 0.0), (5, 1.0), (0, 0.0)] {
            q.push(Item { t, seq });
        }
        std::iter::from_fn(|| q.pop())
            .map(|i| id(i.t, i.seq))
            .collect()
    }
    let want = vec![
        id(0.0, 0),
        id(-0.0, 1),
        id(0.0, 2),
        id(-0.0, 3),
        id(0.0, 4),
        id(1.0, 5),
    ];
    assert_eq!(order(BinaryHeapQueue::new()), want);
    assert_eq!(order(CalendarQueue::new()), want);
}

/// Every push of a time that is not finite and non-negative panics, on an
/// empty queue and on one holding enough items to be past the run bound.
#[test]
fn invalid_times_panic_in_both_queues() {
    fn panics<Q: EventQueue<Item>>(new: fn() -> Q, prefill: usize, t: f64) -> bool {
        let mut q = new();
        for seq in 0..prefill as u64 {
            q.push(Item { t: seq as f64, seq });
        }
        catch_unwind(AssertUnwindSafe(|| q.push(Item { t, seq: u64::MAX }))).is_err()
    }
    let bad = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        -f64::MIN_POSITIVE,
        -f64::from_bits(1),
        -f64::MAX,
    ];
    for prefill in [0, 10, 100] {
        for t in bad {
            assert!(panics(BinaryHeapQueue::new, prefill, t), "heap took {t}");
            assert!(panics(CalendarQueue::new, prefill, t), "calendar took {t}");
        }
        for t in [0.0, -0.0, f64::from_bits(1), f64::MAX] {
            assert!(
                !panics(BinaryHeapQueue::new, prefill, t),
                "heap refused {t}"
            );
            assert!(
                !panics(CalendarQueue::new, prefill, t),
                "calendar refused {t}"
            );
        }
    }
}
