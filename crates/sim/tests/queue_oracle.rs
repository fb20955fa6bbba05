//! Queue order against an oracle that shares no code with the queues.
//!
//! [`BinaryHeapQueue`] (a sorted near run plus an unsorted far bag, and
//! Brown's wheel once a push lands below the threshold into a run longer
//! than 128 items) and [`CalendarQueue`] (the wheel alone) order items by
//! one packed integer key, and once converted the first holds its items in
//! the second, so comparing them with each other
//! (`differential.rs`) cannot catch a fault in either. Here each queue is
//! checked against a plain `Vec` sorted by the `(f64, u64)` comparison the
//! key stands for, over the corners of the time domain: −0.0 next to 0.0
//! (equal times, so the tie goes to `seq`), subnormals, times near 1e300,
//! dense ties, and populations that cross the run bound into the wheel and
//! come back. A schedule shaped like the engine's small machines before
//! their compute ends left the queue (near-term arrivals, far compute ends,
//! popped events pushed straight back) crosses the bound while the far bag
//! holds items. Times that are not finite and
//! non-negative must panic on push.

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

/// [`BinaryHeapQueue`]'s run bound: a push below the threshold into a longer
/// run moves the items into the wheel, and pops that drain the wheel to half
/// of it make a run again. Random pushes into a population above it land
/// below the threshold almost at once.
const RUN_BOUND: usize = 128;

/// Run `ops` random pushes and pops on `q` and the oracle, checking every
/// pop and the final drain. The pop probability alternates between 0.2 and
/// 0.8 every `phase` operations, so the population climbs well past the
/// run bound and drains back. Returns the largest population and the round
/// trips: how often it rose past `RUN_BOUND` and then fell to half of it.
fn check_against_oracle<Q: EventQueue<Item>>(
    mut q: Q,
    seed: u64,
    ops: usize,
    pattern: usize,
    phase: usize,
) -> Result<(usize, usize), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::default();
    let (mut seq, mut last, mut peak) = (0u64, 0.0, 0usize);
    let (mut round_trips, mut above) = (0, false);
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
        if q.len() > RUN_BOUND {
            above = true;
        } else if above && q.len() <= RUN_BOUND / 2 {
            above = false;
            round_trips += 1;
        }
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
    Ok((peak, round_trips))
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

/// Populations that cross the run bound into the wheel and come back, on
/// every time pattern: the alternating phases peak well above 128 pending
/// items and drain below 64, at least twice per run.
#[test]
fn populations_cross_the_run_bound_and_back() {
    for pattern in 0..6 {
        for seed in 0..4 {
            let (peak, round_trips) =
                check_against_oracle(BinaryHeapQueue::new(), seed, 2400, pattern, 400)
                    .unwrap_or_else(|e| panic!("{e:?}"));
            assert!(
                peak > 200 && round_trips >= 2,
                "pattern {pattern}: peak {peak}, {round_trips} round trips through the wheel"
            );
            check_against_oracle(CalendarQueue::new(), seed, 2400, pattern, 400)
                .unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

/// A queue and the oracle side by side, fed the same items.
struct Paired<Q> {
    q: Q,
    oracle: Oracle,
    seq: u64,
    /// The latest time pushed so far.
    latest: f64,
}

impl<Q: EventQueue<Item>> Paired<Q> {
    fn push(&mut self, it: Item) {
        self.q.push(it);
        self.oracle.push(it);
        self.latest = self.latest.max(it.t);
    }

    /// Push a new item at `t`, with a scrambled sequence number.
    fn push_at(&mut self, t: f64) {
        let it = Item { t, seq: self.seq };
        self.seq = self.seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.push(it);
    }

    /// What a handler run at `now` pushes: `n` items, each near or far.
    fn handler_pushes(&mut self, rng: &mut SmallRng, now: f64, n: usize) {
        for _ in 0..n {
            let jitter = if rng.random::<bool>() {
                0.0
            } else {
                rng.random::<f64>()
            };
            let u = rng.random::<f64>();
            let t = if u < 0.6 {
                now + 25.0 * rng.random_range(1..7u32) as f64 + jitter
            } else if u < 0.78 {
                now + 1600.0 + 150.0 * jitter
            } else if u < 0.96 {
                self.latest + 1.0 + 50.0 * jitter
            } else {
                now + 1e6 * (1.0 + rng.random::<f64>())
            };
            self.push_at(t);
        }
    }

    /// Pop from both, and require the same item.
    fn pop(&mut self, seed: u64) -> Item {
        let want = self.oracle.pop().expect("the schedule never drains");
        let got = self.q.pop().expect("the queue holds what the oracle does");
        assert_eq!(id(got.t, got.seq), id(want.0, want.1), "seed {seed}");
        assert_eq!(self.q.len(), self.oracle.0.len(), "seed {seed}");
        got
    }
}

/// The engine's small machines, after a P = 32 `Hotspot` (`St` = 25,
/// `So` = 150, `W` = 1600): each step pops the earliest event, pushes it
/// straight back and pops it again a quarter of the time (as `next_time`
/// and `process_until` do at a window edge), then pushes what its handler
/// would. A near push lands a few 25-unit slots past the pop, sometimes off
/// the lattice; a far push is a compute end, `W` or a little more past the
/// pop, or a new maximum outright, and one in ten is a straggler a million
/// time units out. Each of three cycles bursts past the run bound with
/// pushes alone, drains to 40, below half the bound, into a run, and holds
/// the population at 32–48. The far bag is non-empty at each burst's
/// crossing: the first burst comes before any pop, as at the engine's
/// start, so the bag holds every item and the run none; the later ones
/// follow a hold, and the bag holds their new maxima.
fn engine_shaped<Q: EventQueue<Item>>(q: Q, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p = Paired {
        q,
        oracle: Oracle::default(),
        seq: seed,
        latest: 0.0,
    };
    // Returns the popped event's time.
    let step = |p: &mut Paired<Q>, rng: &mut SmallRng, pushes: usize| {
        let ev = p.pop(seed);
        if rng.random::<f64>() < 0.25 {
            p.push(ev);
            let again = p.pop(seed);
            assert_eq!(id(again.t, again.seq), id(ev.t, ev.seq));
        }
        p.handler_pushes(rng, ev.t, pushes);
        ev.t
    };
    // The threads' first compute ends.
    for _ in 0..32 {
        let t = 1600.0 * rng.random::<f64>();
        p.push_at(t);
    }
    let mut now = 0.0;
    for _ in 0..3 {
        while p.q.len() <= RUN_BOUND + 16 {
            p.handler_pushes(&mut rng, now, 1);
        }
        while p.q.len() > 40 {
            let pushes = (rng.random::<f64>() < 0.4) as usize;
            now = step(&mut p, &mut rng, pushes);
        }
        for _ in 0..400 {
            let pushes = match p.q.len() {
                0..32 => 2,
                32..=48 => 1,
                _ => rng.random_range(0..2usize),
            };
            now = step(&mut p, &mut rng, pushes);
        }
    }
    while !p.oracle.0.is_empty() {
        p.pop(seed);
    }
    assert!(p.q.pop().is_none());
}

/// The engine-shaped schedule pops exactly as the oracle does, from both
/// queues.
#[test]
fn engine_shaped_schedules_pop_in_oracle_order() {
    for seed in 0..12 {
        engine_shaped(BinaryHeapQueue::new(), seed);
        engine_shaped(CalendarQueue::new(), seed);
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
