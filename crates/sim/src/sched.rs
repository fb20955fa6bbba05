//! The pending-event queue: the messages in flight to a core's nodes.
//!
//! The engine keeps each node's CPU completions in slots of its own
//! (`engine.rs`), so the queue holds only messages in flight, and the event
//! loop pops from it whenever its head comes before the earliest CPU
//! completion (DESIGN.md §4). Every engine builds one queue,
//! [`BinaryHeapQueue`]:
//!
//! * `(key, item)` pairs split at a threshold key into a near run and a far
//!   bag (every run key < threshold ≤ every bag key). The run is sorted
//!   earliest last, so a pop is `Vec::pop`, and a push below the threshold
//!   scans from that end to its place. A push at or above it appends to the
//!   bag, which is sorted into the run only when the run empties;
//! * [`CalendarQueue`]: a bucketed time wheel after Brown's calendar queue
//!   (CACM 31(10), 1988), `O(1)` amortized per operation, once placing
//!   pushes in the run gets dear. The design and resize policy are
//!   documented in DESIGN.md §4.
//!
//! The queue converts to the wheel on cost: when a push lands below the
//! threshold into a run longer than 128 items. Pushes in key order append
//! to the bag at any population, and that is how the sequential engine
//! sends messages under a constant wire time. The wheel turns back into a
//! run when pops drain it to 64 items. Both sit behind the [`EventQueue`]
//! trait, and [`CalendarQueue`] on its own is the queue with a run bound of
//! 0 ([`Scheduler::Calendar`]), the wheel from the first push.
//!
//! Every pop follows one **total** order: ascending `(time, seq)`, where
//! `seq` is a unique tie-break key (the engine packs the creating node and
//! its per-node event counter into it). Equal-time events therefore pop in
//! one fixed deterministic order and a simulation run is bit-reproducible
//! whichever part of the queue holds its events — the property the
//! differential proptests in `tests/differential.rs` pin down. Both parts
//! compare one integer: the time's IEEE-754 bits above `seq`. For finite,
//! non-negative times (−0.0 folded into +0.0) that integer orders exactly
//! like `(time, seq)`, so every push asserts the time is finite and
//! non-negative; `tests/queue_oracle.rs` checks both queues against a plain
//! `(f64, u64)` sort over that domain's corners.
//!
//! # Year aliasing
//!
//! The wheel repeats every *year* (`nbuckets × width` time units), so an
//! event scheduled a whole number of years ahead lands in the bucket being
//! drained. On the schedule LoPC is validated on (constant handler and work
//! times, threads in lockstep) many events tie, the width estimate finds
//! few distinct gaps, and whole-year delays are common.
//!
//! The calendar's buckets are therefore unsorted bags: a push appends. When
//! the position reaches a bucket's earliest slot, the bag is sorted and
//! becomes the queue's *run*, whose tail (that slot's items) is popped
//! while the bucket starts an empty bag; items parked for later years land
//! in that bag, and a push into the slot being drained above the run's
//! minimum waits in a small binary heap instead of being inserted into the
//! run. Neither kind of push moves the run. The earlier layout kept each
//! bucket sorted descending and, at the next pop visit, binary-inserted
//! each push at its place, so each parked event shifted the whole bucket:
//! 11.4 M moved events (about 640 MB of `memmove`) in one 85,769-event run
//! at P = 4096, when the queue still held every compute end.
//!
//! # The near run and the far bag
//!
//! A push at or above the threshold is an append, and it is sorted once,
//! when the run empties (the ladder queue's rule: Tang, Goh & Thng, ACM
//! TOMACS 15(3), 2005). Under a constant wire time every message push is a
//! new maximum, so the run is the bag reversed and no push moves anything.
//! Sampled wire times push out of order: a push below the threshold is
//! placed by the scan from the run's earliest end, which shifts the pairs
//! it passes, and the wheel takes over once those runs grow long.
//!
//! # Example
//!
//! ```
//! use lopc_sim::sched::{BinaryHeapQueue, EventQueue, Keyed};
//!
//! /// A minimal scheduled item: fire time plus insertion sequence.
//! struct Timer {
//!     at: f64,
//!     seq: u64,
//! }
//! impl Keyed for Timer {
//!     fn time(&self) -> f64 {
//!         self.at
//!     }
//!     fn seq(&self) -> u64 {
//!         self.seq
//!     }
//! }
//!
//! let mut q = BinaryHeapQueue::new();
//! q.push(Timer { at: 30.0, seq: 1 });
//! q.push(Timer { at: 10.0, seq: 2 });
//! q.push(Timer { at: 10.0, seq: 3 }); // same time: FIFO by seq
//! let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|t| t.seq).collect();
//! assert_eq!(order, [2, 3, 1]);
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::config::Time;

/// The event queue's mode, forced for the tests and the CI matrix
/// ([`crate::runner::run_with_scheduler`], `LOPC_TEST_SCHEDULER`).
///
/// Every engine builds [`BinaryHeapQueue`]: `BinaryHeap`, the default,
/// keeps its run bound, and `Calendar` sets it to 0, the wheel
/// ([`CalendarQueue`]) from the first event. Neither changes a report
/// (`tests/differential.rs`). The names stay because the perfbench harness
/// matches on them; the next benchmark change renames them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// The wheel from the first event: a run bound of 0.
    Calendar,
    /// The adaptive queue with its default run bound: what every engine
    /// builds unless forced.
    #[default]
    BinaryHeap,
}

impl Scheduler {
    /// [`Scheduler::BinaryHeap`], the queue the engine builds, for every
    /// population: the queue adapts to its actual one. Kept for the
    /// perfbench harness; the next benchmark change deletes it.
    pub fn auto_for(_pending_hint: usize) -> Scheduler {
        Scheduler::BinaryHeap
    }

    /// An empty queue under this force.
    pub(crate) fn queue<T: Keyed>(self) -> BinaryHeapQueue<T> {
        BinaryHeapQueue::with_run_max(match self {
            Scheduler::Calendar => 0,
            Scheduler::BinaryHeap => RUN_MAX,
        })
    }
}

/// A schedulable item: a fire time plus a unique sequence number used to
/// break ties deterministically.
///
/// The engine guarantees `seq` values are unique; queue behaviour is
/// unspecified (but memory-safe) if two live items share a `seq`.
pub trait Keyed {
    /// When the item fires: finite and non-negative. Both queues assert
    /// this on every push, so a NaN, infinite or negative time panics.
    fn time(&self) -> Time;
    /// Unique tie-break key; items sharing a time pop in ascending `seq`.
    fn seq(&self) -> u64;
}

/// The pending-event order as one integer: the time's bits above `seq`.
///
/// For finite non-negative times the IEEE-754 bit pattern, read as an
/// unsigned integer, rises with the value, so this key orders items exactly
/// as comparing `(time, seq)` does. The `+ 0.0` folds −0.0 into +0.0, which
/// `(time, seq)` treats as equal (the tie then goes to `seq`).
#[inline]
pub(crate) fn pack(t: Time, seq: u64) -> u128 {
    ((t + 0.0).to_bits() as u128) << 64 | seq as u128
}

/// The time a [`pack`]ed key was made from.
#[inline]
pub(crate) fn unpack_time(key: u128) -> Time {
    Time::from_bits((key >> 64) as u64)
}

/// An item's [`pack`]ed key.
#[inline]
fn key<T: Keyed>(item: &T) -> u128 {
    pack(item.time(), item.seq())
}

/// Panic unless `t` is a valid event time: the domain on which [`pack`]
/// orders like `(time, seq)`.
#[inline]
pub(crate) fn check_time(t: Time) {
    assert!(
        (0.0..Time::INFINITY).contains(&t),
        "event time {t} is not finite and non-negative"
    );
}

/// A pending-event set popping items in ascending `(time, seq)` order.
///
/// See the [module docs](self) for the implementations and a usage example.
pub trait EventQueue<T: Keyed> {
    /// Insert an item. Panics if its time is not finite and non-negative.
    fn push(&mut self, item: T);
    /// Remove and return the item with the smallest `(time, seq)` key.
    fn pop(&mut self) -> Option<T>;
    /// Number of pending items.
    fn len(&self) -> usize;
    /// True when no items are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An item with its [`key`], ordered so that `std::collections::BinaryHeap`
/// (a max-heap) pops the smallest key first.
struct Entry<T> {
    key: u128,
    item: T,
}

impl<T: Keyed> Entry<T> {
    #[inline]
    fn new(item: T) -> Self {
        Entry {
            key: key(&item),
            item,
        }
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the max-heap's "largest" is our smallest key.
        other.key.cmp(&self.key)
    }
}

// ---------------------------------------------------------------------------
// The adaptive queue: a near run and a far bag, the wheel beside them
// ---------------------------------------------------------------------------

/// Longest run [`BinaryHeapQueue::new`] places a push into, and twice the
/// population at which the wheel turns back into a run.
const RUN_MAX: usize = 128;

/// The simulator's event queue: a sorted near run plus an unsorted far bag,
/// or Brown's wheel ([`CalendarQueue`]) once placing pushes in the run gets
/// dear.
///
/// The `(key, item)` pairs sit in two `Vec`s split at a threshold key:
/// every run key < threshold ≤ every bag key.
///
/// * The **near run** is sorted descending by key, the earliest last, so a
///   pop is `Vec::pop`. A push below the threshold is placed by scanning
///   from that earliest end, and shifts only the pairs it passes.
/// * The **far bag** takes every push at or above the threshold by
///   appending, so a push that is a new maximum moves nothing. When the run
///   empties, the bag is sorted once and becomes the run, and its largest
///   key + 1 becomes the new threshold. The threshold starts at 0, so the
///   first pushes fill the bag and the first pop sorts them.
///
/// The queue converts to the wheel on cost, not on population: a push
/// below the threshold into a run longer than the bound (128 items,
/// `RUN_MAX`) would shift up to the whole run, so instead the run and the
/// bag, ascending, load the wheel, which holds every item until pops drain
/// it to half the bound. Then they are sorted back into a run, with an
/// empty bag above it. Pushes in key order, which is how the sequential
/// engine pushes messages under a constant wire time, always append to the
/// bag, so any population of them stays out of the wheel. A bound of 0
/// ([`Scheduler::Calendar`]) is [`CalendarQueue`] alone, from the first
/// push. The name stays because the perfbench harness compiles against it;
/// the next benchmark change renames it.
pub struct BinaryHeapQueue<T> {
    /// The pending pairs below `threshold`, descending by key, while the
    /// wheel is empty.
    run: Vec<Entry<T>>,
    /// The pending pairs at or above `threshold`, unsorted, while the wheel
    /// is empty.
    bag: Vec<Entry<T>>,
    /// The key that splits the run from the bag.
    threshold: u128,
    /// Every pending item from the conversion until pops drain it to
    /// `run_max / 2`, or always when `run_max` is 0; empty otherwise.
    wheel: CalendarQueue<T>,
    /// Longest run a push is placed into.
    run_max: usize,
}

impl<T: Keyed> Default for BinaryHeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Keyed> BinaryHeapQueue<T> {
    /// New empty queue with the default run bound.
    pub fn new() -> Self {
        Self::with_run_max(RUN_MAX)
    }

    /// New empty queue that places pushes into runs of at most `run_max`
    /// items, and is the wheel alone when `run_max` is 0.
    pub(crate) fn with_run_max(run_max: usize) -> Self {
        BinaryHeapQueue {
            run: Vec::new(),
            bag: Vec::new(),
            threshold: 0,
            wheel: CalendarQueue::new(),
            run_max,
        }
    }

    /// Whether pushes go to the wheel.
    #[inline]
    fn in_wheel(&self) -> bool {
        !self.wheel.is_empty() || self.run_max == 0
    }

    /// The run is empty: sort the bag into it, descending, and move the
    /// threshold past its latest key.
    fn take_bag(&mut self) {
        debug_assert!(self.run.is_empty());
        self.bag.sort_unstable_by_key(|e| Reverse(e.key));
        self.threshold = self.bag[0].key + 1;
        std::mem::swap(&mut self.run, &mut self.bag);
    }

    /// The key of the earliest pending item, or `None` when empty.
    #[inline]
    pub(crate) fn head_key(&mut self) -> Option<u128> {
        if !self.wheel.is_empty() {
            return self.wheel.head_key();
        }
        if self.run.is_empty() && !self.bag.is_empty() {
            self.take_bag();
        }
        self.run.last().map(|e| e.key)
    }

    /// Remove and return the earliest pending item if its key is below
    /// `bound`: what the engine's loop asks, with the earliest CPU
    /// completion as the bound.
    #[inline]
    pub(crate) fn pop_before(&mut self, bound: u128) -> Option<T> {
        if self.wheel.is_empty() {
            if self.head_key()? >= bound {
                return None;
            }
            return self.run.pop().map(|e| e.item);
        }
        let item = self.wheel.pop_before(bound)?;
        if self.wheel.len() <= self.run_max / 2 && !self.wheel.is_empty() {
            // Drained to half the bound: a run again, descending, with an
            // empty bag above it.
            let items = self.wheel.drain_sorted();
            self.run.extend(items.into_iter().rev().map(Entry::new));
            self.threshold = self.run[0].key + 1;
        }
        Some(item)
    }

    /// Push every item of `items`, leaving it empty, in one pass: the items
    /// at or above the threshold append to the bag, and the rest, sorted,
    /// merge into the run. A batch never converts the queue to the wheel.
    pub(crate) fn push_batch(&mut self, items: &mut Vec<T>) {
        if self.in_wheel() {
            for item in items.drain(..) {
                self.wheel.push(item);
            }
            return;
        }
        let mut low = Vec::new();
        for item in items.drain(..) {
            check_time(item.time());
            let e = Entry::new(item);
            if e.key >= self.threshold {
                self.bag.push(e);
            } else {
                low.push(e);
            }
        }
        if !low.is_empty() {
            low.sort_unstable_by_key(|e| Reverse(e.key));
            self.run.append(&mut low);
            // Two descending runs back to back: the stable sort merges them
            // in one linear pass.
            self.run.sort_by_key(|e| Reverse(e.key));
        }
    }
}

impl<T: Keyed> EventQueue<T> for BinaryHeapQueue<T> {
    fn push(&mut self, item: T) {
        if self.in_wheel() {
            self.wheel.push(item);
            return;
        }
        check_time(item.time());
        let e = Entry::new(item);
        if e.key >= self.threshold {
            self.bag.push(e);
        } else if self.run.len() <= self.run_max {
            let mut pos = self.run.len();
            while pos > 0 && self.run[pos - 1].key < e.key {
                pos -= 1;
            }
            self.run.insert(pos, e);
        } else {
            // Placing it would shift a run longer than the bound: the run,
            // then the bag above it, both ascending, fill the wheel, which
            // takes the push.
            self.bag.sort_unstable_by_key(|e| e.key);
            let run = self.run.drain(..).rev();
            let items = run.chain(self.bag.drain(..)).map(|e| e.item).collect();
            self.wheel.rebuild(items, 0.0);
            self.wheel.push(e.item);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        self.pop_before(u128::MAX)
    }

    fn len(&self) -> usize {
        self.run.len() + self.bag.len() + self.wheel.len()
    }
}

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// Smallest bucket count the wheel will shrink to.
const MIN_BUCKETS: usize = 8;
/// Consecutive head gaps sampled when estimating the bucket width.
const WIDTH_SAMPLE: usize = 256;
/// Year-empty jumps tolerated before a corrective rebuild (the width is
/// clearly mis-tuned if whole years keep coming up empty).
const MAX_JUMPS: u32 = 8;
/// Target items per bucket. Occupancy ~1 (Brown's original geometry)
/// maximizes bucket-count memory traffic; packing a few items per bucket
/// keeps each pop/push touching one short, cache-resident `Vec` instead.
const OCCUPANCY: usize = 4;
/// Bucket width in units of the mean head gap. With [`OCCUPANCY`] items per
/// bucket this keeps one year ≈ 3× the live-event span, so in-order pushes
/// land on the wheel rather than in the overflow list.
const WIDTH_GAPS: f64 = 12.0;
/// Years ahead of the position an item may be parked in the wheel before it
/// is exiled to the overflow list. A parked item is sorted again each time
/// its bucket's run is taken (once per year), whereas overflow inserts
/// memmove a sorted `Vec` — so the overflow should only catch genuinely
/// far-future events (several× the live-event span ahead).
const FAR_YEARS: u64 = 4;
/// Largest slot a time maps to: far below `u64::MAX`, the empty-bucket
/// sentinel, so a time whose slot saturates (a time near `f64::MAX`, or any
/// time under a width estimated from subnormal gaps) still lands in a real
/// slot, and the position can scan past it without overflowing.
const SLOT_MAX: u64 = 1 << 62;
/// Bucket widths are clamped to `[MIN_WIDTH, MAX_WIDTH]`, where both the
/// width and its inverse are finite and positive.
const MIN_WIDTH: Time = 1e-300;
const MAX_WIDTH: Time = 1e300;

/// One wheel bucket: an unsorted bag of items plus the slot of its earliest.
///
/// A push appends without reading the bag. The bag is only sorted when the
/// position reaches its earliest slot, and then becomes the queue's run
/// (see [`CalendarQueue`]).
struct Bucket<T> {
    items: Vec<T>,
    /// Slot of the earliest item in `items` (`u64::MAX` when empty).
    min_slot: u64,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            items: Vec::new(),
            min_slot: u64::MAX,
        }
    }
}

impl<T> Bucket<T> {
    #[inline]
    fn push(&mut self, item: T, slot: u64) {
        self.items.push(item);
        self.min_slot = self.min_slot.min(slot);
    }
}

/// Discrete slot of a timestamp at `inv_width` slots per time unit.
/// Saturates at [`SLOT_MAX`]; times are non-negative by contract.
#[inline]
fn slot_at(t: Time, inv_width: Time) -> u64 {
    ((t * inv_width) as u64).min(SLOT_MAX)
}

/// `O(1)`-amortized calendar queue: a circular bucketed time wheel with
/// dynamic resize and a sorted overflow list for far-future events
/// (Brown 1988).
///
/// Time is discretized into *slots* of `width` each; slot `s` maps to wheel
/// bucket `s mod nbuckets`, so the wheel is circular and one "year" is
/// `nbuckets · width` long. Invariants (full design discussion in
/// DESIGN.md §4):
///
/// * every pending item in the wheel has `slot ≥ cur_slot` (the current
///   position), and an item only pops when its exact slot comes up, which
///   keeps items from later years parked in their bucket without breaking
///   the global order;
/// * buckets are **unsorted bags**: a push appends in `O(1)`. When the
///   position reaches a bucket's earliest slot, the bag is sorted
///   descending and swapped in as the **run**: that slot's items are its
///   tail (the next pop is its last element), and its later years, the
///   `floor` under them, go back to the bucket before the position moves.
///   The bucket meanwhile holds an empty bag, so the pushes the engine
///   makes a year ahead — into the very bucket being drained, whenever a
///   delay is a multiple of the year — append there and never move the
///   run;
/// * while the run or `in_slot` is non-empty the current bucket holds no
///   item of `cur_slot`: a push into `cur_slot` below the run's minimum
///   (such as a popped event pushed straight back) appends to the run, and
///   one above it goes to the `in_slot` binary heap instead of being
///   inserted into the run; a pop takes the smaller of the run's last item
///   and the heap's top;
/// * items more than `FAR_YEARS` years ahead of `cur_slot` at insertion
///   time go to `overflow`, kept sorted *ascending* (far-future pushes
///   append in `O(1)`); the cached `overflow_min_slot` guard drains the
///   overflow head back into the wheel before the position can pass it;
/// * if a whole year scans empty, the position *jumps* straight to the
///   earliest pending slot; `MAX_JUMPS` consecutive jumps trigger a
///   corrective rebuild (the width no longer matches the event spacing);
/// * the wheel **rebuilds** — bucket count re-sized to the population
///   (targeting `OCCUPANCY` items per bucket for cache locality), width
///   re-estimated from the mean nonzero gap of the up-to-256 earliest items
///   (Brown's rule, scaled to the occupancy target) — when the population
///   doubles or quarters relative to the bucket capacity.
///
/// Each item is sorted with its bag once per year it stays parked. Rebuilds
/// cost `O(n log n)` but only occur on population doublings/quarterings or
/// persistent mis-tuning, so the amortized per-operation cost stays
/// constant. Pops follow ascending `(time, seq)` exactly, matching
/// [`BinaryHeapQueue`] item for item; times must be non-negative and finite.
pub struct CalendarQueue<T> {
    /// Wheel buckets (`slot & mask`), unsorted.
    buckets: Vec<Bucket<T>>,
    /// `nbuckets − 1` (bucket count is a power of two).
    mask: usize,
    /// Bucket width in time units; `inv_width = 1/width` is cached because
    /// the slot computation is on the hot path.
    width: Time,
    inv_width: Time,
    /// Current position: the slot the next pop scans first.
    cur_slot: u64,
    /// The sorted bag the run came from: `run[floor..]` holds the items of
    /// `cur_slot`, descending; `run[..floor]` its later years, which go back
    /// to their bucket before the position moves.
    run: Vec<T>,
    floor: usize,
    /// Items pushed into `cur_slot` above the run's minimum.
    in_slot: BinaryHeap<Entry<T>>,
    /// Items beyond one year of `cur_slot`, sorted ascending by `(t, seq)`.
    overflow: Vec<T>,
    /// Slot of `overflow`'s head (`u64::MAX` when empty), checked every pop.
    overflow_min_slot: u64,
    /// Items currently in the wheel, `run` and `in_slot` (`len -
    /// overflow.len()`).
    wheel_len: usize,
    /// Total pending items.
    len: usize,
    /// Consecutive pops that needed a year-empty jump (mis-tuning
    /// detector); reset by a pop that finds its item without jumping and by
    /// every rebuild.
    jumps: u32,
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Keyed> CalendarQueue<T> {
    /// New empty queue with the minimum wheel size; the wheel re-sizes
    /// itself as the population grows.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            inv_width: 1.0,
            cur_slot: 0,
            run: Vec::new(),
            floor: 0,
            in_slot: BinaryHeap::new(),
            overflow: Vec::new(),
            overflow_min_slot: u64::MAX,
            wheel_len: 0,
            len: 0,
            jumps: 0,
        }
    }

    /// Set the bucket width, clamped to `[MIN_WIDTH, MAX_WIDTH]`, and its
    /// cached inverse.
    fn set_width(&mut self, width: Time) {
        self.width = width.clamp(MIN_WIDTH, MAX_WIDTH);
        self.inv_width = 1.0 / self.width;
    }

    /// Discrete slot of a timestamp. Saturates at [`SLOT_MAX`]; times are
    /// non-negative by contract.
    #[inline]
    fn slot_of(&self, t: Time) -> u64 {
        slot_at(t, self.inv_width)
    }

    /// First slot that is too far in the future to park in the wheel.
    #[inline]
    fn far_horizon(&self) -> u64 {
        self.cur_slot
            .saturating_add((self.mask as u64 + 1) * FAR_YEARS)
    }

    /// Put an item whose slot is inside the far horizon on the wheel.
    #[inline]
    fn place(&mut self, item: T, slot: u64) {
        let bucket = &mut self.buckets[(slot & self.mask as u64) as usize];
        if slot == self.cur_slot {
            match self.run[self.floor..].last() {
                // Later in the run: inserting would shift it.
                Some(min) if key(min) < key(&item) => self.in_slot.push(Entry::new(item)),
                // A new minimum, such as a popped event pushed straight back.
                Some(_) => self.run.push(item),
                // Nothing else of this slot is pending: the item starts the
                // run.
                None if bucket.min_slot != slot => self.run.push(item),
                // The bag still holds this slot; the next pop takes both.
                None => bucket.push(item, slot),
            }
        } else {
            bucket.push(item, slot);
        }
        self.wheel_len += 1;
    }

    /// Take the current bucket's bag as the run: sorted descending, its
    /// items in `cur_slot` are its tail and its later years the floor.
    fn fill_run(&mut self) {
        debug_assert!(self.run.is_empty() && self.in_slot.is_empty());
        let (slot, inv_width) = (self.cur_slot, self.inv_width);
        let bucket = &mut self.buckets[(slot & self.mask as u64) as usize];
        let items = &mut bucket.items;
        items.sort_unstable_by_key(|x| Reverse(key(x)));
        self.floor = items.partition_point(|x| slot_at(x.time(), inv_width) != slot);
        std::mem::swap(&mut self.run, items);
        bucket.min_slot = u64::MAX;
    }

    /// Empty the run, returning each item to its bucket.
    fn lift_run(&mut self) {
        let (mask, inv_width) = (self.mask as u64, self.inv_width);
        for x in self.run.drain(..) {
            let slot = slot_at(x.time(), inv_width);
            self.buckets[(slot & mask) as usize].push(x, slot);
        }
        self.floor = 0;
    }

    /// Move the overflow head run that the wheel can now reach back onto the
    /// wheel. Called through the `overflow_min_slot` guard.
    fn drain_overflow(&mut self) {
        let horizon = self.far_horizon();
        let take = self
            .overflow
            .iter()
            .take_while(|x| self.slot_of(x.time()) < horizon)
            .count();
        let rest = self.overflow.split_off(take);
        let drained = std::mem::replace(&mut self.overflow, rest);
        for item in drained {
            let slot = self.slot_of(item.time());
            self.place(item, slot);
        }
        self.overflow_min_slot = self
            .overflow
            .first()
            .map_or(u64::MAX, |x| self.slot_of(x.time()));
    }

    /// Jump the position straight to the earliest pending slot (bucket bags
    /// and overflow head), or to `limit` if that comes first. Only called
    /// when a whole year scanned empty.
    fn jump_to_min(&mut self, limit: u64) {
        debug_assert!(self.run.is_empty() && self.in_slot.is_empty());
        self.jumps += 1;
        if self.jumps > MAX_JUMPS {
            // Persistent year-empty scans mean the width is far too small
            // for the actual event spacing (e.g. a dense head sample in an
            // otherwise sparse schedule). Widen geometrically — the boost
            // survives the rebuild's re-estimate because the rebuild takes
            // the max — so pathological schedules converge in O(log) boosts.
            self.set_width(self.width * 4.0);
            let items = self.drain_sorted();
            let boosted = self.width;
            self.rebuild(items, boosted);
            return;
        }
        let min_slot = self
            .buckets
            .iter()
            .map(|b| b.min_slot)
            .fold(self.overflow_min_slot, u64::min);
        debug_assert_ne!(min_slot, u64::MAX, "jump_to_min on an empty queue");
        self.cur_slot = min_slot.min(limit);
        if self.cur_slot >= self.overflow_min_slot {
            self.drain_overflow();
        }
    }

    /// Collect every pending item, ascending by key, and empty the queue.
    fn drain_sorted(&mut self) -> Vec<T> {
        let mut all: Vec<T> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.append(&mut b.items);
            b.min_slot = u64::MAX;
        }
        all.append(&mut self.run);
        self.floor = 0;
        all.extend(self.in_slot.drain().map(|e| e.item));
        all.append(&mut self.overflow);
        all.sort_unstable_by_key(key);
        self.len = 0;
        self.wheel_len = 0;
        self.overflow_min_slot = u64::MAX;
        all
    }

    /// Re-anchor the queue around `items` (ascending by key): re-size the
    /// wheel to the population, re-estimate the width (never below
    /// `min_width`, which carries `jump_to_min`'s geometric boost), and
    /// redistribute. The queue must be empty (see `drain_sorted`).
    fn rebuild(&mut self, items: Vec<T>, min_width: Time) {
        let n = items.len();
        let nbuckets = (n / OCCUPANCY).next_power_of_two().max(MIN_BUCKETS);
        debug_assert_eq!(self.len, 0, "rebuild runs on a drained queue");
        if nbuckets != self.buckets.len() {
            self.buckets.resize_with(nbuckets, Bucket::default);
        }
        self.mask = nbuckets - 1;
        self.jumps = 0;

        // Width heuristic: Brown's rule over the *distinct* times of the
        // earliest items — `WIDTH_GAPS` mean nonzero gaps per bucket.
        // Counting tied timestamps as gaps would collapse the width toward
        // zero on lattice-like schedules (constant service times produce
        // many simultaneous events), spreading the population over millions
        // of empty slots. All-tied (or singleton) samples keep the previous
        // width — any positive value works when every item shares one slot.
        let mut distinct_steps = 0u32;
        let mut span = 0.0;
        for w in items.windows(2).take(WIDTH_SAMPLE) {
            if w[1].time() > w[0].time() {
                distinct_steps += 1;
            }
            span = w[1].time() - items[0].time();
        }
        if distinct_steps > 0 && span > 0.0 {
            let estimate = WIDTH_GAPS * span / distinct_steps as Time;
            self.set_width(estimate.max(min_width));
        } else if min_width > self.width {
            self.set_width(min_width);
        }
        debug_assert!(self.width > 0.0 && self.width.is_finite());

        self.len = n;
        self.wheel_len = 0;
        self.overflow.clear();
        self.overflow_min_slot = u64::MAX;
        self.cur_slot = items.first().map_or(0, |x| self.slot_of(x.time()));
        let horizon = self.far_horizon();
        for item in items {
            let slot = self.slot_of(item.time());
            if slot >= horizon {
                // Source order is ascending, so appends keep the overflow
                // sorted ascending.
                self.overflow.push(item);
            } else {
                let idx = (slot & self.mask as u64) as usize;
                self.buckets[idx].push(item, slot);
                self.wheel_len += 1;
            }
        }
        self.overflow_min_slot = self
            .overflow
            .first()
            .map_or(u64::MAX, |x| self.slot_of(x.time()));
    }

    /// Grow or shrink the wheel when the population has drifted far from the
    /// bucket count (amortized-`O(1)` resize policy; DESIGN.md §4).
    #[inline]
    fn maybe_resize(&mut self) {
        let nb = self.mask + 1;
        if self.len > 2 * OCCUPANCY * nb || (nb > MIN_BUCKETS && self.len < OCCUPANCY * nb / 4) {
            let items = self.drain_sorted();
            self.rebuild(items, 0.0);
        }
    }

    /// Move the position to the earliest pending item, which is then the
    /// last of `run[floor..]` or the top of `in_slot`, and return whether a
    /// year-empty jump was needed; or return `None`, with the position at
    /// most the slot of `bound`'s time, when no item is pending up to that
    /// slot. Does nothing when the position already holds an item. The
    /// queue must not be empty.
    ///
    /// The engine bounds a pop by its earliest CPU completion, and a
    /// completion schedules messages at or after its own time, so stopping
    /// at its slot keeps those pushes from landing behind the position,
    /// which would rewind it.
    fn settle(&mut self, bound: u128) -> Option<bool> {
        debug_assert!(self.len > 0);
        if self.run.len() > self.floor || !self.in_slot.is_empty() {
            return Some(false);
        }
        // `bound`'s time is NaN for `u128::MAX`, and every item's slot is
        // below that of +∞.
        let t = unpack_time(bound);
        let limit = if t < Time::INFINITY {
            self.slot_of(t)
        } else {
            u64::MAX
        };
        if self.wheel_len == 0 {
            // Everything pending is far-future: jump straight to it.
            if self.overflow_min_slot > limit {
                return None;
            }
            self.cur_slot = self.overflow_min_slot;
            self.drain_overflow();
        }
        let nbuckets = self.mask + 1;
        let mut scanned = 0usize;
        // Whether this pop needed a year-empty jump: consecutive *jumping
        // pops* are what the MAX_JUMPS mis-tuning valve counts, so the
        // counter only resets on a pop that found its item without jumping
        // (or on a rebuild).
        let mut jumped = false;
        while self.run.len() == self.floor && self.in_slot.is_empty() {
            if !self.run.is_empty() {
                self.lift_run();
            }
            // Never let the position pass the overflow head.
            if self.cur_slot >= self.overflow_min_slot {
                self.drain_overflow();
                continue;
            }
            let idx = (self.cur_slot & self.mask as u64) as usize;
            if self.buckets[idx].min_slot == self.cur_slot {
                self.fill_run();
                break;
            }
            if self.cur_slot >= limit {
                return None;
            }
            self.cur_slot += 1;
            scanned += 1;
            if scanned >= nbuckets {
                // A whole year was empty: the next event is further out.
                jumped = true;
                self.jump_to_min(limit);
                scanned = 0;
            }
        }
        Some(jumped)
    }

    /// The earliest item's key after [`Self::settle`], and whether it is
    /// `in_slot`'s top (else the run's last item).
    #[inline]
    fn head(&self) -> (u128, bool) {
        match (self.run[self.floor..].last(), self.in_slot.peek()) {
            (Some(min), Some(h)) if h.key < key(min) => (h.key, true),
            (Some(min), _) => (key(min), false),
            (None, h) => (h.expect("settle leaves an item in front").key, true),
        }
    }

    /// The key of the earliest pending item, or `None` when empty.
    pub(crate) fn head_key(&mut self) -> Option<u128> {
        if self.len == 0 {
            return None;
        }
        self.settle(u128::MAX);
        Some(self.head().0)
    }

    /// Remove and return the earliest pending item if its key is below
    /// `bound`.
    pub(crate) fn pop_before(&mut self, bound: u128) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let jumped = self.settle(bound)?;
        let (head, from_heap) = self.head();
        if head >= bound {
            return None;
        }
        let item = if from_heap {
            self.in_slot.pop().expect("non-empty").item
        } else {
            self.run.pop().expect("non-empty")
        };
        self.wheel_len -= 1;
        self.len -= 1;
        if !jumped {
            self.jumps = 0;
        }
        self.maybe_resize();
        Some(item)
    }
}

impl<T: Keyed> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, item: T) {
        let t = item.time();
        check_time(t);
        let slot = self.slot_of(t);
        if self.len == 0 {
            // Empty queue: re-anchor the position so `t` lands on the wheel.
            self.cur_slot = slot;
        } else if slot < self.cur_slot {
            // A push behind the current position (the engine never schedules
            // into the past, but the queue is usable generically): rewind.
            // Wheel items pushed beyond one year of the new position stay
            // parked in their buckets; the slot-match rule keeps them in
            // order. The run and `in_slot` belong to the old position, so
            // their items go back to their buckets first.
            let old = self.cur_slot;
            let bucket = &mut self.buckets[(old & self.mask as u64) as usize];
            for e in self.in_slot.drain() {
                bucket.push(e.item, old);
            }
            self.lift_run();
            self.cur_slot = slot;
        }
        if slot >= self.far_horizon() {
            let k = key(&item);
            let pos = self.overflow.partition_point(|x| key(x) < k);
            self.overflow.insert(pos, item);
            self.overflow_min_slot = self.overflow_min_slot.min(slot);
        } else {
            self.place(item, slot);
        }
        self.len += 1;
        self.maybe_resize();
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        self.pop_before(u128::MAX)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[derive(Clone, Copy, Debug, PartialEq)]
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

    fn drain<Q: EventQueue<Item>>(q: &mut Q) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|i| (i.t, i.seq))
            .collect()
    }

    /// The reference for the wheel: a sorted run of any length, which
    /// shares no code with [`CalendarQueue`].
    fn run_only() -> BinaryHeapQueue<Item> {
        BinaryHeapQueue::with_run_max(usize::MAX)
    }

    /// Whether `q` holds its items in its run and bag (else in the wheel).
    fn in_run(q: &BinaryHeapQueue<Item>) -> bool {
        q.wheel.is_empty()
    }

    /// Items held out of the wheel: the run plus the bag.
    fn run_and_bag(q: &BinaryHeapQueue<Item>) -> usize {
        q.run.len() + q.bag.len()
    }

    /// The layout's invariant: the run descends, and every run key <
    /// threshold ≤ every bag key.
    fn check_layout(q: &BinaryHeapQueue<Item>) {
        assert!(q.run.windows(2).all(|w| w[0].key > w[1].key));
        assert!(q.run.iter().all(|e| e.key < q.threshold));
        assert!(q.bag.iter().all(|e| e.key >= q.threshold));
    }

    /// The run alone, the wheel alone and the adaptive queue pop `items`
    /// alike, in ascending key order.
    fn both_agree(items: Vec<Item>) {
        let mut run = run_only();
        let mut cal = CalendarQueue::new();
        let mut adaptive = BinaryHeapQueue::new();
        for &i in &items {
            run.push(i);
            cal.push(i);
            adaptive.push(i);
            assert_eq!(run.len(), cal.len());
            assert_eq!(run.len(), adaptive.len());
        }
        let a = drain(&mut run);
        assert_eq!(a, drain(&mut cal));
        assert_eq!(a, drain(&mut adaptive));
        let mut sorted = a.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, sorted, "pops must come out in ascending key order");
    }

    #[test]
    fn empty_pops_none() {
        let mut q: CalendarQueue<Item> = CalendarQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        let mut h: BinaryHeapQueue<Item> = BinaryHeapQueue::new();
        assert!(h.pop().is_none());
        let mut w: BinaryHeapQueue<Item> = Scheduler::Calendar.queue();
        assert!(w.pop().is_none());
    }

    #[test]
    fn ascending_order_small() {
        both_agree(vec![
            Item { t: 30.0, seq: 1 },
            Item { t: 10.0, seq: 2 },
            Item { t: 20.0, seq: 3 },
            Item { t: 10.0, seq: 4 },
            Item { t: 0.0, seq: 5 },
        ]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let items: Vec<Item> = (0..100).map(|s| Item { t: 5.0, seq: s }).collect();
        let mut q = CalendarQueue::new();
        for &i in &items {
            q.push(i);
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|i| i.seq).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn growth_and_shrink_preserve_order() {
        // Push enough to force several grow rebuilds, then drain through the
        // shrink path.
        let mut rng = SmallRng::seed_from_u64(7);
        let items: Vec<Item> = (0..5000)
            .map(|s| Item {
                t: rng.random::<f64>() * 1e6,
                seq: s,
            })
            .collect();
        both_agree(items);
    }

    #[test]
    fn clustered_ties_and_wide_outliers() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut items = Vec::new();
        let mut seq = 0;
        for cluster in 0..50 {
            let base = cluster as f64 * 10.0;
            for _ in 0..20 {
                items.push(Item { t: base, seq });
                seq += 1;
            }
        }
        // Far-future outliers exercise the overflow list.
        for _ in 0..100 {
            items.push(Item {
                t: 1e9 + rng.random::<f64>() * 1e9,
                seq,
            });
            seq += 1;
        }
        both_agree(items);
    }

    #[test]
    fn interleaved_hold_pattern_matches_heap() {
        // The classic hold model: pop one, push one at a later time.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut heap = run_only();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        for _ in 0..256 {
            let it = Item {
                t: rng.random::<f64>() * 100.0,
                seq,
            };
            seq += 1;
            heap.push(it);
            cal.push(it);
        }
        for _ in 0..10_000 {
            let a = heap.pop().unwrap();
            let b = cal.pop().unwrap();
            assert_eq!((a.t, a.seq), (b.t, b.seq));
            let it = Item {
                t: a.t + rng.random::<f64>() * 50.0,
                seq,
            };
            seq += 1;
            heap.push(it);
            cal.push(it);
        }
        assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    #[test]
    fn push_behind_window_start_is_handled() {
        let mut q = CalendarQueue::new();
        q.push(Item { t: 1000.0, seq: 0 });
        q.push(Item { t: 2000.0, seq: 1 });
        assert_eq!(q.pop().unwrap().seq, 0);
        // Earlier than everything ever seen (generic use; the engine never
        // schedules into the past).
        q.push(Item { t: 1.0, seq: 2 });
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = CalendarQueue::new();
        for s in 0..1000u64 {
            q.push(Item {
                t: (s % 37) as f64,
                seq: s,
            });
            assert_eq!(q.len(), s as usize + 1);
        }
        for s in (0..1000usize).rev() {
            q.pop().unwrap();
            assert_eq!(q.len(), s);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn reuse_after_drain() {
        let mut q = CalendarQueue::new();
        q.push(Item { t: 5.0, seq: 0 });
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        // The window re-anchors on the next push even at a far time.
        q.push(Item { t: 1e12, seq: 1 });
        assert_eq!(q.pop().unwrap().seq, 1);
    }

    /// Within a bound B: pushes in key order fill the bag and never convert,
    /// whatever the population (3B here). A push below the threshold into
    /// the run of 3B − 1 items converts the queue to the wheel, which stays
    /// the wheel above B / 2 and is a run again at B / 2, and a push below
    /// the threshold into that short run takes its place in it. Pops follow
    /// the key order across both conversions. Then a population hovering at
    /// B with pushes in random order crosses over both ways many times,
    /// converting at most once per B / 2 operations, and pops as the run
    /// alone does.
    #[test]
    fn run_turns_into_the_wheel_and_back() {
        const B: usize = 8;
        let mut rng = SmallRng::seed_from_u64(10);
        let mut q = BinaryHeapQueue::with_run_max(B);
        let mut reference = run_only();
        let both = |q: &mut BinaryHeapQueue<Item>, reference: &mut BinaryHeapQueue<Item>, it| {
            q.push(it);
            reference.push(it);
        };
        let pop = |q: &mut BinaryHeapQueue<Item>, reference: &mut BinaryHeapQueue<Item>| {
            let (a, b) = (q.pop(), reference.pop());
            assert_eq!(a.map(|i| (i.t, i.seq)), b.map(|i| (i.t, i.seq)));
        };
        for seq in 0..3 * B as u64 {
            both(
                &mut q,
                &mut reference,
                Item {
                    t: 10.0 * seq as f64,
                    seq,
                },
            );
            assert!(in_run(&q) && q.run.is_empty() && q.bag.len() == seq as usize + 1);
        }
        pop(&mut q, &mut reference);
        assert!(in_run(&q) && q.run.len() == 3 * B - 1 && q.bag.is_empty());
        check_layout(&q);
        let mut seq = 3 * B as u64;
        both(&mut q, &mut reference, Item { t: 15.0, seq });
        assert!(run_and_bag(&q) == 0 && q.wheel.len() == 3 * B);
        while q.len() > B / 2 + 1 {
            pop(&mut q, &mut reference);
            assert!(!in_run(&q), "still the wheel above B / 2");
        }
        pop(&mut q, &mut reference);
        assert!(in_run(&q) && q.run.len() == B / 2 && q.bag.is_empty());
        check_layout(&q);
        seq += 1;
        let below = q.run[0].key;
        both(&mut q, &mut reference, Item { t: 200.0, seq });
        assert!(in_run(&q) && q.run.len() == B / 2 + 1 && q.run[0].key == below);
        check_layout(&q);

        // Hover: pushes are likelier below B and pops above it.
        let mut walk = SmallRng::seed_from_u64(11);
        let (mut conversions, mut was_run) = (0, true);
        const OPS: usize = 20_000;
        for _ in 0..OPS {
            let p_push = if q.len() < B { 0.7 } else { 0.3 };
            if walk.random::<f64>() < p_push {
                seq += 1;
                let last = reference.run.last().map_or(0.0, |e| e.item.t);
                let t = last + (rng.random::<f64>() * 8.0).floor();
                both(&mut q, &mut reference, Item { t, seq });
            } else {
                pop(&mut q, &mut reference);
            }
            assert_eq!(q.len(), reference.len());
            if in_run(&q) != was_run {
                conversions += 1;
                was_run = !was_run;
            }
            check_layout(&q);
        }
        assert!(conversions >= 20, "only {conversions} conversions");
        assert!(
            conversions <= OPS / (B / 2) + 1,
            "{conversions} conversions in {OPS} operations"
        );
        assert_eq!(drain(&mut q), drain(&mut reference));
    }

    /// 4,096 pushes in key order, the way the sequential engine pushes
    /// messages under a constant wire time, then holds that pop the earliest
    /// and push past the latest: the queue never reaches the wheel, and pops
    /// as the run alone does.
    #[test]
    fn in_order_pushes_never_reach_the_wheel() {
        let mut q = BinaryHeapQueue::new();
        let mut reference = run_only();
        // Four pushes share each time, in ascending `seq`.
        let item = |seq: u64| Item {
            t: (seq / 4) as f64,
            seq,
        };
        for seq in 0..4096 {
            q.push(item(seq));
            reference.push(item(seq));
            assert!(in_run(&q), "push {seq} reached the wheel");
        }
        for seq in 4096..4 * 4096 {
            let (a, b) = (q.pop(), reference.pop());
            assert_eq!(a.map(|i| (i.t, i.seq)), b.map(|i| (i.t, i.seq)));
            q.push(item(seq));
            reference.push(item(seq));
            assert!(in_run(&q), "hold {seq} reached the wheel");
        }
        check_layout(&q);
        assert_eq!(drain(&mut q), drain(&mut reference));
    }

    /// A batch splits at the threshold: the items below it merge into the
    /// run, the rest append to the bag, and no batch converts the queue,
    /// however long the run. Under the wheel force a batch goes to the
    /// wheel. Pops follow the key order, bounded pops stop at their bound,
    /// and the head's key is the next pop's.
    #[test]
    fn batches_merge_in_one_pass_and_bounded_pops_stop() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut seq = 0u64;
        let mut batch = |n: usize, lo: f64, span: f64| {
            (0..n)
                .map(|_| {
                    seq += 1;
                    Item {
                        t: lo + (rng.random::<f64>() * span).floor(),
                        seq,
                    }
                })
                .collect::<Vec<_>>()
        };
        for mut q in [
            BinaryHeapQueue::with_run_max(8),
            Scheduler::Calendar.queue(),
        ] {
            let wheel_force = q.run_max == 0;
            let mut reference = run_only();
            for round in 0..50 {
                let mut items = batch(64, round as f64 * 10.0, 40.0);
                for &it in &items {
                    reference.push(it);
                }
                q.push_batch(&mut items);
                assert!(items.is_empty());
                assert_eq!(in_run(&q), !wheel_force, "a batch never converts");
                check_layout(&q);
                assert_eq!(q.len(), reference.len());
                let bound = key(&Item {
                    t: round as f64 * 10.0 + 10.0,
                    seq: 0,
                });
                loop {
                    let head = q.head_key();
                    assert_eq!(head, reference.head_key());
                    match q.pop_before(bound) {
                        Some(it) => {
                            assert!(key(&it) < bound && Some(key(&it)) == head);
                            assert_eq!(reference.pop().map(|i| i.seq), Some(it.seq));
                        }
                        None => {
                            assert!(head.is_none_or(|h| h >= bound));
                            break;
                        }
                    }
                }
                check_layout(&q);
            }
            assert_eq!(drain(&mut q), drain(&mut reference));
        }
    }

    /// A push at or above the threshold appends to the bag and leaves the
    /// run exactly as it was; a push below it takes its place in the run;
    /// and the bag becomes the run, sorted, only once the run is empty.
    #[test]
    fn far_pushes_leave_the_run_untouched() {
        let mut q = BinaryHeapQueue::new();
        let keys = |v: &[Entry<Item>]| v.iter().map(|e| e.key).collect::<Vec<_>>();
        for seq in 0..8 {
            q.push(Item {
                t: 10.0 * seq as f64,
                seq,
            });
        }
        // The threshold starts at 0: the first pushes fill the bag, and the
        // first pop sorts them into the run.
        assert!(q.run.is_empty() && q.bag.len() == 8);
        assert_eq!(q.pop().map(|i| i.seq), Some(0));
        assert!(q.bag.is_empty() && q.run.len() == 7);
        let latest = key(&Item { t: 70.0, seq: 7 });
        assert_eq!(q.threshold, latest + 1);
        check_layout(&q);

        let run = keys(&q.run);
        for (t, seq) in [(70.0, 8), (75.0, 9), (1e9, 10), (71.0, 11)] {
            q.push(Item { t, seq });
            assert_eq!(keys(&q.run), run, "a far push moved the run");
            check_layout(&q);
        }
        assert_eq!(q.bag.len(), 4);

        // Below the threshold: into the run at its place.
        q.push(Item { t: 15.0, seq: 12 });
        assert_eq!((q.run.len(), q.bag.len()), (8, 4));
        check_layout(&q);

        let order: Vec<u64> = std::iter::from_fn(|| {
            let it = q.pop();
            check_layout(&q);
            it
        })
        .map(|i| i.seq)
        .collect();
        assert_eq!(order, [1, 12, 2, 3, 4, 5, 6, 7, 8, 11, 9, 10]);
    }

    /// A bound of 0 is the wheel from the first push: the run and the bag
    /// never hold an item, neither for pushes in key order, which the
    /// default queue keeps out of the wheel at any population, nor for
    /// pushes out of order.
    #[test]
    fn calendar_force_is_the_wheel_from_the_first_event() {
        let mut q: BinaryHeapQueue<Item> = Scheduler::Calendar.queue();
        for seq in 0..200 {
            let t = if seq < 100 {
                seq as f64
            } else {
                (seq % 7) as f64
            };
            q.push(Item { t, seq });
            assert!(run_and_bag(&q) == 0 && q.wheel.len() == seq as usize + 1);
        }
        let mut last = (f64::NEG_INFINITY, 0);
        while let Some(it) = q.pop() {
            assert_eq!(run_and_bag(&q), 0);
            assert!((it.t, it.seq) > last);
            last = (it.t, it.seq);
        }
        assert!(Scheduler::default().queue::<Item>().run_max > 0);
    }

    // -----------------------------------------------------------------
    // Calendar-queue edge cases not reachable through the differential
    // suite's random interleavings.
    // -----------------------------------------------------------------

    /// A population-driven rebuild while every pending item sits in the
    /// overflow list (the wheel itself empty): `drain_sorted` over empty
    /// buckets plus `rebuild` re-anchoring from overflow-only items.
    #[test]
    fn resize_with_all_items_in_overflow() {
        let mut q = CalendarQueue::new();
        // Anchor the position at slot 0 (width 1.0, 8 buckets, horizon 32).
        q.push(Item { t: 0.0, seq: 0 });
        // Far-future items beyond FAR_YEARS years: all exiled to overflow.
        for s in 1..=64u64 {
            q.push(Item {
                t: 1_000.0 + s as f64,
                seq: s,
            });
            if s < 64 {
                assert!(
                    !q.overflow.is_empty(),
                    "far-future items must sit in overflow before the resize"
                );
            }
        }
        // The 65th push crossed the grow threshold (len > 2·OCCUPANCY·8):
        // the rebuild redistributed the overflow onto a larger wheel.
        assert!(q.buckets.len() > MIN_BUCKETS, "grow rebuild must have run");
        let popped = drain(&mut q);
        let mut expected: Vec<(f64, u64)> = (1..=64u64).map(|s| (1_000.0 + s as f64, s)).collect();
        expected.insert(0, (0.0, 0));
        assert_eq!(popped, expected);
    }

    /// Popping when the wheel is empty but the overflow is not: the position
    /// must jump straight to the overflow head and drain it, not scan years
    /// of empty buckets.
    #[test]
    fn pop_from_overflow_only_queue() {
        let mut q = CalendarQueue::new();
        q.push(Item { t: 0.0, seq: 0 });
        q.push(Item { t: 1e6, seq: 1 });
        q.push(Item { t: 2e6, seq: 2 });
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.wheel_len, 0, "remaining items should all be far-future");
        assert!(!q.overflow.is_empty());
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    /// The overflow min-slot guard: a later push *in front of* the existing
    /// overflow head must update the cached guard slot, or the position
    /// could sail past the new head and pop out of order.
    #[test]
    fn overflow_min_slot_guard_tracks_new_head() {
        let mut q = CalendarQueue::new();
        q.push(Item { t: 0.0, seq: 0 });
        q.push(Item { t: 4e6, seq: 1 }); // overflow head
        let slot_before = q.overflow_min_slot;
        q.push(Item { t: 2e6, seq: 2 }); // new, earlier overflow head
        assert!(
            q.overflow_min_slot < slot_before,
            "guard must move with the new head"
        );
        // And a push behind the *wheel* horizon but ahead of the position
        // leaves the guard alone while keeping global order.
        q.push(Item { t: 1.0, seq: 3 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|i| i.seq).collect();
        assert_eq!(order, [0, 3, 2, 1]);
    }

    /// The jump + width-boost safety valve: a schedule whose every pop needs
    /// a year-empty jump (events spaced several wheel-years apart at the
    /// current width) must trigger the corrective `×4` width boost after
    /// `MAX_JUMPS` consecutive jumping pops, after which pops stop jumping —
    /// and the order contract holds throughout.
    #[test]
    fn jump_width_boost_safety_valve() {
        let mut q = CalendarQueue::new();
        let mut heap = run_only();
        let width0 = q.width;
        // Hold pattern that never lets the queue empty (an empty queue
        // re-anchors the position on push, which gives the next pop a free
        // non-jumping hit and resets the counter): two items stay resident,
        // each new item ~1.5 wheel-years beyond the last, so every pop after
        // the first scans an empty year and jumps. The population is far
        // below any resize threshold, so only the valve can retune the
        // width.
        let year = (MIN_BUCKETS as f64) * width0;
        let mut t = 0.0;
        let mut seq = 0u64;
        let mut push_next = |q: &mut CalendarQueue<Item>, heap: &mut BinaryHeapQueue<Item>| {
            t += 1.5 * year;
            let it = Item { t, seq };
            seq += 1;
            q.push(it);
            heap.push(it);
        };
        push_next(&mut q, &mut heap);
        push_next(&mut q, &mut heap);
        let mut max_jumps_seen = 0;
        let mut boosted = false;
        for _ in 0..4 * (MAX_JUMPS as usize + 1) {
            let a = q.pop().unwrap();
            let b = heap.pop().unwrap();
            assert_eq!((a.t, a.seq), (b.t, b.seq), "order must survive boosts");
            push_next(&mut q, &mut heap);
            max_jumps_seen = max_jumps_seen.max(q.jumps);
            if q.width > width0 {
                boosted = true;
            }
        }
        assert!(
            max_jumps_seen > 0,
            "the pattern must actually provoke year-empty jumps"
        );
        assert!(
            boosted,
            "persistent jumping must trigger the width boost (width stayed {})",
            q.width
        );
        // After the boost converges, items land within a year of the
        // position: the final width spans the 1.5-year-at-width0 gap.
        assert!(q.width >= 4.0 * width0);
    }

    /// Consecutive-jump bookkeeping: a pop that finds its item without
    /// jumping resets the mis-tuning counter.
    #[test]
    fn non_jumping_pop_resets_jump_counter() {
        let mut q = CalendarQueue::new();
        let year = (MIN_BUCKETS as f64) * q.width;
        // One far item forces a jumping pop...
        q.push(Item { t: 0.0, seq: 0 });
        q.push(Item {
            t: 2.0 * year,
            seq: 1,
        });
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.jumps > 0, "the far pop should have jumped");
        // ...then two adjacent items pop without scanning a whole year.
        q.push(Item {
            t: 2.0 * year + 1.0,
            seq: 2,
        });
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.jumps, 0, "a clean pop must reset the counter");
    }

    /// Shrink at low occupancy: drain a large population down to a handful
    /// of stragglers and verify the wheel contracts (the parallel engine's
    /// per-LP queues live near this regime — a few events per LP), while
    /// the survivors still pop in key order.
    #[test]
    fn shrink_at_low_occupancy_preserves_order_and_contracts() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut q = CalendarQueue::new();
        for s in 0..4096u64 {
            q.push(Item {
                t: rng.random::<f64>() * 1e5,
                seq: s,
            });
        }
        let grown = q.buckets.len();
        assert!(grown > MIN_BUCKETS, "4096 items must grow the wheel");
        // Pop down to 3 stragglers: crosses len < OCCUPANCY·nb/4 repeatedly.
        let mut last = (f64::NEG_INFINITY, 0u64);
        while q.len() > 3 {
            let it = q.pop().unwrap();
            assert!((it.t, it.seq) > last, "order violated during shrink");
            last = (it.t, it.seq);
        }
        assert!(
            q.buckets.len() < grown,
            "wheel must shrink back toward MIN_BUCKETS (now {})",
            q.buckets.len()
        );
        let rest = drain(&mut q);
        assert_eq!(rest.len(), 3);
        assert!(rest.windows(2).all(|w| w[0] < w[1]));
    }

    /// Year aliasing, the engine's lockstep geometry: 4,096 items tied at
    /// t = 512 leave the width at 1.0 on a 512-bucket wheel, so a delay of
    /// 512 is exactly one year and parks each new item in the bucket being
    /// drained. Tie order is scrambled, as the engine's creator-packed
    /// sequence numbers are. Pops must match the sorted run item for item.
    #[test]
    fn year_aliased_holds_match_heap() {
        const YEAR: f64 = 512.0;
        let mut n = 0u64;
        let mut next = |t: f64| {
            n += 1;
            Item {
                t,
                seq: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        };
        let mut cal = CalendarQueue::new();
        let mut heap = run_only();
        for _ in 0..4096 {
            let it = next(YEAR);
            cal.push(it);
            heap.push(it);
        }
        assert_eq!(
            cal.buckets.len() as f64 * cal.width,
            YEAR,
            "the push offset must equal the wheel's year"
        );
        for i in 0..20_000 {
            let a = heap.pop().unwrap();
            let b = cal.pop().unwrap();
            assert_eq!((a.t, a.seq), (b.t, b.seq), "hold {i} diverged");
            let it = next(a.t + if i % 3 == 2 { 25.0 } else { YEAR });
            cal.push(it);
            heap.push(it);
        }
        assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    /// The tied start of `year_aliased_holds_match_heap` on the adaptive
    /// queue, with a population that crosses the run bound both ways: from
    /// `RUN_MAX` items tied at t = 512, holds that push twice grow it to
    /// three times the bound, and holds that push every other time drain it
    /// to a quarter, twice over. Delays are the year or 25, so the wheel
    /// aliases while it holds the items. Pops must match the sorted run item
    /// for item.
    #[test]
    fn tied_start_holds_cross_the_switch() {
        const YEAR: f64 = 512.0;
        let mut n = 0u64;
        let mut next = |t: f64| {
            n += 1;
            Item {
                t,
                seq: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        };
        let mut q = BinaryHeapQueue::new();
        let mut reference = run_only();
        for _ in 0..RUN_MAX {
            let it = next(YEAR);
            q.push(it);
            reference.push(it);
        }
        assert!(in_run(&q));
        let (mut holds, mut was_run, mut conversions) = (0u32, true, [0; 2]);
        let mut hold = |q: &mut BinaryHeapQueue<Item>, pushes: u32| {
            let a = reference.pop().unwrap();
            let b = q.pop().unwrap();
            assert_eq!((a.t, a.seq), (b.t, b.seq), "hold {holds} diverged");
            for k in 0..pushes {
                let it = next(a.t + if (holds + k) % 3 == 2 { 25.0 } else { YEAR });
                q.push(it);
                reference.push(it);
            }
            holds += 1;
            if in_run(q) != was_run {
                was_run = !was_run;
                conversions[was_run as usize] += 1;
            }
        };
        for _ in 0..2 {
            while q.len() < 3 * RUN_MAX {
                hold(&mut q, 2);
            }
            let mut push = false;
            while q.len() > RUN_MAX / 4 {
                hold(&mut q, push as u32);
                push = !push;
            }
        }
        assert_eq!(conversions, [2, 2], "into the wheel, back into a run");
        let rest = drain(&mut q);
        assert_eq!(rest, drain(&mut reference));
    }

    /// Pushes into the slot being drained, above its run's minimum, wait in
    /// `in_slot` and interleave with the run in key order; a push below the
    /// minimum (a popped item pushed straight back) goes straight onto the
    /// run.
    #[test]
    fn pushes_into_the_slot_being_drained_match_heap() {
        let mut cal = CalendarQueue::new();
        let mut heap = run_only();
        let mut seq = 0u64;
        for _ in 0..100 {
            let it = Item { t: 10.0, seq };
            seq += 1;
            cal.push(it);
            heap.push(it);
        }
        let mut used_heap = false;
        for _ in 0..300 {
            let a = heap.pop().unwrap();
            let b = cal.pop().unwrap();
            assert_eq!((a.t, a.seq), (b.t, b.seq));
            // Same slot (width 1.0), later in it; then push the popped
            // minimum straight back and take it again.
            let it = Item { t: a.t + 0.25, seq };
            seq += 1;
            cal.push(it);
            heap.push(it);
            used_heap |= !cal.in_slot.is_empty();
            cal.push(b);
            assert_eq!(cal.pop().map(|i| (i.t, i.seq)), Some((b.t, b.seq)));
        }
        assert!(used_heap, "the pattern must reach in_slot");
        assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    /// Tie-heavy width estimation: when the rebuild's width sample is
    /// dominated by tied timestamps (constant service times produce exactly
    /// this), the estimate must count *distinct* gaps only — a zero or
    /// collapsed width would exile everything to overflow or spin on empty
    /// buckets. Drain order must match the heap regardless.
    #[test]
    fn tie_heavy_width_estimation_stays_positive() {
        // 64 distinct times, 16-way tied each: crosses the grow threshold
        // with a width sample that is 15/16 ties.
        let mut items = Vec::new();
        let mut seq = 0;
        for step in 0..64 {
            for _ in 0..16 {
                items.push(Item {
                    t: step as f64 * 3.0,
                    seq,
                });
                seq += 1;
            }
        }
        let mut q = CalendarQueue::new();
        for &i in &items {
            q.push(i);
        }
        assert!(
            q.width.is_finite() && q.width > 0.0,
            "tie-heavy rebuild collapsed the width to {}",
            q.width
        );
        both_agree(items);

        // Degenerate: every single item at one timestamp (distinct_steps ==
        // 0 keeps the previous width, any positive value works).
        let all_tied: Vec<Item> = (0..512).map(|s| Item { t: 7.0, seq: s }).collect();
        let mut q = CalendarQueue::new();
        for &i in &all_tied {
            q.push(i);
        }
        assert!(q.width.is_finite() && q.width > 0.0);
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|i| i.seq).collect();
        assert_eq!(seqs, (0..512).collect::<Vec<_>>(), "ties pop in seq order");
    }
}
