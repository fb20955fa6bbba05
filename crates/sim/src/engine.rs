//! The discrete-event engine: nodes, messages, handlers, and the event loop.
//!
//! Semantics implemented (Chapter 2 of the thesis, and the model/simulator
//! contract recorded in DESIGN.md §5):
//!
//! * Sending a message is free; it arrives exactly `St` later (contention-
//!   free network).
//! * An arriving message **interrupts** a computing thread immediately
//!   (preempt-resume); remaining work is banked and resumed later.
//! * Handlers are **atomic**: arrivals during a handler wait in an infinite
//!   FIFO. When a handler completes, queued messages run **before** the
//!   computation thread resumes.
//! * A request handler either forwards the request (multi-hop) or sends the
//!   reply to the originator; a reply handler unblocks the local thread and
//!   ends the cycle.
//! * With `protocol_processor = true`, handlers run on a per-node coprocessor
//!   and never interrupt computation (§5.1 "Modeling Shared Memory").
//!
//! # Partition-aware core
//!
//! The event loop lives in `Core`, which owns a *contiguous block* of
//! nodes rather than all of them. The sequential [`Engine`] is a single
//! `Core` spanning `0..p`; the conservative parallel engine
//! ([`crate::par`]) runs one `Core` per logical process and ferries
//! cross-block events through per-LP outboxes. Three design rules make
//! the two modes bit-identical (DESIGN.md §13):
//!
//! * **Per-node RNG streams.** Every node draws from its own
//!   [`SmallRng`], seeded by counter-based splitting ([`stream_seed`]) of
//!   the configuration seed — never from a shared stream whose
//!   interleaving would depend on global event order.
//! * **Partition-independent event keys.** Tie-breaking uses
//!   `(creating node, per-node creation counter)` packed into the 64-bit
//!   `seq`, not a global counter, so simultaneous events sort the same way
//!   no matter which core created them.
//! * **Drain-to-empty termination.** In makespan mode the loop runs until
//!   nothing is pending, so the processed-event set does not depend on the
//!   partition.
//!
//! # Live events only
//!
//! A node's CPU runs one thing at a time, so each node has at most one
//! pending CPU completion (a compute end or a handler end), or two with a
//! protocol processor. They live in slots of a tournament tree over the
//! core's nodes (`Slots`), updated in place; the queue ([`crate::sched`])
//! holds only messages in flight. A preemption overwrites its node's slot
//! with the handler's end, so no completion is left behind to be popped
//! and dropped, and `SimReport::events` counts live dispatches only.
//! Completions take their `(t, seq)` keys from the same per-node counters
//! as messages, and the loop dispatches the earlier of the tree's root and
//! the queue's head, so events run in the same total order as when every
//! one of them was queued.

use std::collections::VecDeque;
use std::hint::select_unpredictable;
use std::sync::Arc;

use crate::config::{ConfigError, NodeId, SimConfig, StopCondition, Time};
use crate::sched::{self, BinaryHeapQueue, EventQueue, Keyed, Scheduler};
use crate::stats::{Aggregate, NodeStats, NodeSummary, SimReport, Welford};
use lopc_dist::Distribution;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Bits of the event tie-break key holding the per-node creation counter;
/// the creating node's id occupies the bits above (hence
/// [`crate::config::MAX_NODES`] = 2^(64−44) = 2²⁰).
const CTR_BITS: u32 = 44;

/// Derive the seed of RNG stream `stream` from a master seed by
/// counter-based splitting: a Weyl step by the golden-ratio increment
/// followed by the SplitMix64 finalizer. Unlike drawing seeds sequentially
/// from one RNG, stream `k`'s seed depends only on `(master, k)`, so any
/// subset of streams can be materialised independently — the property that
/// makes simulation results invariant under LP repartitioning (each node is
/// stream `k = node id`).
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Message kind: requests travel origin → server(s); the final server turns
/// the message into a reply back to the origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MsgKind {
    Request,
    Reply,
}

/// A message in flight or queued. Cycle-level bookkeeping lives on the
/// origin node (a fork-join cycle owns several messages at once); the
/// message itself carries only per-request state.
#[derive(Clone, Debug)]
pub(crate) struct Msg {
    kind: MsgKind,
    origin: NodeId,
    /// Handler visits remaining *after* the current one (multi-hop).
    hops_left: u32,
    /// Accumulated request-handler response time over all hops (`Rq`).
    rq_sum: f64,
    /// Arrival time at the node currently holding the message.
    arrived_at: Time,
}

/// What a node's CPU computes. A handler running on the CPU (no protocol
/// processor) is the node's `in_service` message, with the CPU `Idle`.
#[derive(Clone, Copy, Debug)]
enum Cpu {
    Idle,
    /// Running the computation thread, which completes at `end` unless an
    /// arriving message preempts it first.
    Compute {
        end: Time,
    },
}

/// Computation-thread state.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ThreadState {
    /// Has `remaining` work to do but the CPU is busy with handlers.
    Ready { remaining: f64 },
    /// Currently computing (CPU is `Compute`).
    Running,
    /// Request outstanding; spinning (interruptible at zero cost).
    Blocked,
    /// Finished its cycle quota (makespan mode).
    Done,
    /// A pure server: never computes, never requests.
    Absent,
}

/// Per-node state.
#[derive(Debug)]
struct Node {
    cpu: Cpu,
    thread: ThreadState,
    /// The handler unit: the CPU, or with `protocol_processor` the
    /// coprocessor. Arrivals wait in `fifo` while `in_service` runs.
    fifo: VecDeque<Msg>,
    in_service: Option<Msg>,
    // Cycle bookkeeping.
    t_cycle_start: Time,
    /// When this cycle's requests were injected.
    t_sent: Time,
    /// Replies still outstanding in the current fork-join cycle.
    outstanding: u32,
    /// Accumulated request-handler response over the cycle's requests.
    cyc_rq: f64,
    /// Accumulated reply-handler response over the cycle's replies.
    cyc_ry: f64,
    cycles_done: u64,
    /// Round-robin cursor for deterministic destination choosers.
    rr: usize,
    /// This node's private RNG stream (see [`stream_seed`]).
    rng: SmallRng,
    /// Events created by this node so far (low half of their tie-break key).
    ctr: u64,
    /// Whether the lazy warmup reset has run (first event at `t >= warmup`).
    warmup_done: bool,
    stats: NodeStats,
}

impl Node {
    fn new(rng: SmallRng) -> Self {
        Node {
            cpu: Cpu::Idle,
            thread: ThreadState::Absent,
            fifo: VecDeque::new(),
            in_service: None,
            t_cycle_start: 0.0,
            t_sent: 0.0,
            outstanding: 0,
            cyc_rq: 0.0,
            cyc_ry: 0.0,
            cycles_done: 0,
            rr: 0,
            rng,
            ctr: 0,
            warmup_done: false,
            stats: NodeStats::new(),
        }
    }
}

/// A message in flight: `msg` arrives at `node` at `t`. Ordered by
/// `(time, seq)` where `seq` packs `(creating node, per-node creation
/// counter)` — unique, FIFO per creator, and independent of the LP
/// partition, so runs are bit-reproducible in both the sequential and the
/// parallel engine. CPU completions take their keys from the same counters
/// but live in [`Slots`], not in the queue.
#[derive(Debug)]
pub(crate) struct Ev {
    pub(crate) t: Time,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    msg: Msg,
}

impl Keyed for Ev {
    fn time(&self) -> Time {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Sample a message's wire time: constant `St`, or drawn from the node's
/// stream when a latency distribution is configured (same mean, §5.2).
#[inline]
fn wire_time(cfg: &SimConfig, rng: &mut SmallRng) -> f64 {
    match &cfg.latency_dist {
        None => cfg.net_latency,
        Some(d) => d.sample(rng),
    }
}

/// The key of an empty slot: above every event key.
const EMPTY: u128 = u128::MAX;

/// The pending CPU completions of a core's nodes: one slot per node, or two
/// with a protocol processor (the handler's end and the thread's compute
/// end), each holding its event's packed `(t, seq)` key or [`EMPTY`].
///
/// A node's CPU runs one thing at a time, so it never has more than one
/// live completion per slot. The slots are the leaves of a tournament tree
/// that keeps the earliest key at its root and is updated in place in
/// `O(log P)`, the way adevs keeps each model in its schedule at most once.
/// So a preempted compute end is overwritten, never left behind as a stale
/// event.
struct Slots {
    /// `tree[1]` is the root, `tree[v] = min(tree[2v], tree[2v + 1])`, and
    /// slot `j` is the leaf `tree[leaves + j]`; unused leaves are `EMPTY`.
    /// Each key is stored as its high and low halves (see [`Slots::set`]).
    tree: Vec<[u64; 2]>,
    /// Leaf count, a power of two.
    leaves: usize,
}

/// A key as its `[high, low]` halves.
#[inline]
fn halves(key: u128) -> [u64; 2] {
    [(key >> 64) as u64, key as u64]
}

#[inline]
fn whole([hi, lo]: [u64; 2]) -> u128 {
    (hi as u128) << 64 | lo as u128
}

impl Slots {
    fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        Slots {
            tree: vec![halves(EMPTY); 2 * leaves],
            leaves,
        }
    }

    /// The earliest key of any slot (`EMPTY` when all are).
    #[inline]
    fn min(&self) -> u128 {
        whole(self.tree[1])
    }

    #[inline]
    fn get(&self, slot: usize) -> u128 {
        whole(self.tree[self.leaves + slot])
    }

    /// Set one slot and replay its path to the root.
    ///
    /// Each match's winner is data, and a branch on it mispredicts about
    /// every other level, so the compare and the select must compile to
    /// conditional moves. A `u128` compare or select compiles to a branch
    /// (27–31 ns an update at 32 leaves, against 10 ns), so both work on
    /// the key's `u64` halves. Every index is below the tree's length, a
    /// power of two, so masking by it changes none and lets the compiler
    /// drop the bounds checks.
    #[inline]
    fn set(&mut self, slot: usize, key: u128) {
        let mask = self.tree.len() - 1;
        let mut v = self.leaves + slot;
        let mut min = halves(key);
        self.tree[v] = min;
        while v > 1 {
            let sibling = self.tree[(v ^ 1) & mask];
            let lt = (sibling[0] < min[0]) | ((sibling[0] == min[0]) & (sibling[1] < min[1]));
            min = [
                select_unpredictable(lt, sibling[0], min[0]),
                select_unpredictable(lt, sibling[1], min[1]),
            ];
            v >>= 1;
            self.tree[v & mask] = min;
        }
    }
}

/// The event loop over one contiguous block of nodes: logical process `lp`
/// of `lps`, which owns nodes `[lp·p/lps, (lp+1)·p/lps)`.
///
/// The sequential [`Engine`] wraps a single core spanning every node; the
/// parallel engine ([`crate::par`]) runs one core per logical process.
/// The core's pending events are its nodes' CPU completions, in [`Slots`],
/// and the messages in flight to its nodes, in the queue; the loop
/// dispatches the earlier of the two heads. Messages addressed outside the
/// block land in the outbox of their destination LP for the parallel engine
/// to ferry ([`Core::flush_outboxes`]); messages arriving from other blocks
/// enter through [`Core::receive`]. [`Core::process_until`] enforces the
/// conservative safe-time bound.
pub(crate) struct Core {
    cfg: Arc<SimConfig>,
    /// Global id of the first owned node (`nodes[i]` is node `lo + i`).
    lo: NodeId,
    nodes: Vec<Node>,
    /// The owned nodes' CPU completions: slot `i` per node, or with a
    /// protocol processor slot `2i` for the handler and `2i + 1` for the
    /// thread.
    slots: Slots,
    /// The messages in flight to owned nodes.
    queue: BinaryHeapQueue<Ev>,
    now: Time,
    events: u64,
    /// Cycles recorded only when they *start* at or after this time.
    warmup: Time,
    /// Horizon end (None in makespan mode).
    horizon_end: Option<Time>,
    /// Per-thread cycle quota (None in horizon mode).
    max_cycles: Option<u64>,
    makespan: Time,
    /// Key of the event being dispatched; labels trace entries so per-core
    /// traces merge into the exact sequential completion order.
    cur_key: (Time, u64),
    /// When `Some`, measured cycles append `(t, seq, r)` here.
    trace: Option<Vec<(Time, u64, f64)>>,
    /// Messages addressed to nodes outside the owned block, one outbox per
    /// LP of the partition (the entry for this core's own LP stays empty).
    outboxes: Vec<Vec<Ev>>,
    /// Earliest event time put in an outbox since the last flush.
    out_min: Time,
}

impl Core {
    /// Build the core of LP `lp` of `lps` over a *validated* configuration,
    /// its queue under the `scheduler` force, and prime its threads with
    /// their first work quantum.
    pub(crate) fn new(
        cfg: Arc<SimConfig>,
        lp: usize,
        lps: usize,
        scheduler: Scheduler,
        trace: bool,
    ) -> Self {
        debug_assert!(lp < lps && lps <= cfg.p);
        let (lo, hi) = (lp * cfg.p / lps, (lp + 1) * cfg.p / lps);
        let (warmup, horizon_end, max_cycles) = match cfg.stop {
            StopCondition::Horizon { warmup, end } => (warmup, Some(end), None),
            StopCondition::CyclesPerThread { n } => (0.0, None, Some(n)),
        };
        let seed = cfg.seed;
        let nodes = (lo..hi)
            .map(|k| Node::new(SmallRng::seed_from_u64(stream_seed(seed, k as u64))))
            .collect();
        let lanes = 1 + cfg.protocol_processor as usize;
        let mut core = Core {
            cfg,
            lo,
            nodes,
            slots: Slots::new(lanes * (hi - lo)),
            queue: scheduler.queue(),
            now: 0.0,
            events: 0,
            warmup,
            horizon_end,
            max_cycles,
            makespan: 0.0,
            cur_key: (0.0, 0),
            trace: Some(Vec::new()).filter(|_| trace),
            outboxes: (0..lps).map(|_| Vec::new()).collect(),
            out_min: f64::INFINITY,
        };
        core.bootstrap();
        core
    }

    /// Prime every owned active thread with its first work quantum.
    fn bootstrap(&mut self) {
        for k in self.lo..self.lo + self.nodes.len() {
            let i = k - self.lo;
            if let Some(work) = &self.cfg.threads[k].work {
                let w = work.sample(&mut self.nodes[i].rng);
                self.nodes[i].t_cycle_start = 0.0;
                self.nodes[i].thread = ThreadState::Ready { remaining: w };
                self.start_compute(k);
            }
        }
    }

    /// True when this core owns node `k`.
    #[inline]
    fn owns(&self, k: NodeId) -> bool {
        (self.lo..self.lo + self.nodes.len()).contains(&k)
    }

    /// The next tie-break key of node `creator` (the node whose handler is
    /// running): `(creator, creator's counter)`, which does not depend on
    /// which core runs the creator.
    #[inline]
    fn next_seq(&mut self, creator: NodeId) -> u64 {
        let c = &mut self.nodes[creator - self.lo];
        c.ctr += 1;
        debug_assert!(c.ctr < (1 << CTR_BITS));
        ((creator as u64) << CTR_BITS) | c.ctr
    }

    /// The slot of owned node `k`'s handler end (`compute = false`) or
    /// compute end. Without a protocol processor both are the node's one
    /// slot: the CPU runs one or the other.
    #[inline]
    fn slot(&self, k: NodeId, compute: bool) -> usize {
        let i = k - self.lo;
        if self.cfg.protocol_processor {
            2 * i + compute as usize
        } else {
            i
        }
    }

    /// Set owned node `k`'s handler end or compute end to `t`, keyed by the
    /// node's next tie-break key. Without a protocol processor a handler end
    /// replaces the compute end of the thread it preempts.
    #[inline]
    fn set_slot(&mut self, k: NodeId, compute: bool, t: Time) {
        sched::check_time(t);
        let key = sched::pack(t, self.next_seq(k));
        let slot = self.slot(k, compute);
        self.slots.set(slot, key);
    }

    /// Send `msg` from node `creator` to arrive at `node` at `t`. Messages
    /// for nodes outside the block go to the outbox of the LP that owns
    /// them.
    #[inline]
    fn send(&mut self, creator: NodeId, t: Time, node: NodeId, msg: Msg) {
        let seq = self.next_seq(creator);
        let ev = Ev { t, seq, node, msg };
        if self.owns(node) {
            self.queue.push(ev);
        } else {
            // LP i owns [i·p/n, (i+1)·p/n), so node k's LP is the largest i
            // with i·p/n <= k, i.e. ((k + 1)·n − 1) / p.
            let lp = ((node + 1) * self.outboxes.len() - 1) / self.cfg.p;
            self.outboxes[lp].push(ev);
            self.out_min = self.out_min.min(t);
        }
    }

    /// Earliest pending event time, or `+∞` when nothing is pending (what
    /// the conservative engine posts at the end of a round, together with
    /// the earliest message it sent to another LP).
    pub(crate) fn next_time(&mut self) -> Time {
        let head = self.queue.head_key().unwrap_or(EMPTY).min(self.slots.min());
        if head == EMPTY {
            f64::INFINITY
        } else {
            sched::unpack_time(head)
        }
    }

    /// Accept the messages ferried from other cores for this round, in one
    /// batch, leaving `evs` empty.
    pub(crate) fn receive(&mut self, evs: &mut Vec<Ev>) {
        debug_assert!(evs.iter().all(|ev| self.owns(ev.node)));
        debug_assert!(
            evs.iter().all(|ev| ev.t >= self.now),
            "causality violation across LPs"
        );
        self.queue.push_batch(evs);
    }

    /// Hand every non-empty outbox to `send(destination LP, events)`, which
    /// must take the events and leave the `Vec` empty, and return the
    /// earliest time handed over (`+∞` when nothing left since the last
    /// flush).
    pub(crate) fn flush_outboxes(&mut self, mut send: impl FnMut(usize, &mut Vec<Ev>)) -> Time {
        for (lp, out) in self.outboxes.iter_mut().enumerate() {
            if !out.is_empty() {
                send(lp, out);
                debug_assert!(out.is_empty(), "send must take the events");
            }
        }
        std::mem::replace(&mut self.out_min, f64::INFINITY)
    }

    /// Events processed so far.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Process every pending event with `t < bound` (and, under a horizon,
    /// `t <= end`), in `(t, seq)` order: each step dispatches the earlier of
    /// the earliest CPU completion and the earliest message. Sequential runs
    /// pass `+∞` and stop at the horizon or when nothing is pending.
    pub(crate) fn process_until(&mut self, bound: Time) {
        // Every key below `limit` is within both limits: `t < bound`, and
        // `t <= end` is `t` below the next float after `end`.
        let limit = self
            .horizon_end
            .map_or(EMPTY, |end| sched::pack(end.next_up(), 0))
            .min(sched::pack(bound, 0));
        loop {
            let slot = self.slots.min();
            if let Some(ev) = self.queue.pop_before(slot.min(limit)) {
                self.enter(ev.t, ev.seq, ev.node);
                self.on_arrive(ev.node, ev.msg);
            } else if slot < limit {
                self.dispatch_slot(slot);
            } else {
                break;
            }
        }
    }

    /// Dispatch the CPU completion keyed `key`, the earliest in the slots:
    /// a handler end or a compute end of the node that created it.
    fn dispatch_slot(&mut self, key: u128) {
        let seq = key as u64;
        let k = (seq >> CTR_BITS) as NodeId;
        self.enter(sched::unpack_time(key), seq, k);
        let handler = if self.cfg.protocol_processor {
            self.slots.get(self.slot(k, false)) == key
        } else {
            self.nodes[k - self.lo].in_service.is_some()
        };
        if handler {
            self.on_handler_done(k);
        } else {
            self.on_compute_done(k);
        }
        // Clear the slot unless the completion refilled it (a handler that
        // starts the next one, a thread resuming in the CPU's one slot).
        let slot = self.slot(k, !handler);
        if self.slots.get(slot) == key {
            self.slots.set(slot, EMPTY);
        }
    }

    /// Advance the clock to the event keyed `(t, seq)` at node `k`, about
    /// to be dispatched.
    #[inline]
    fn enter(&mut self, t: Time, seq: u64, k: NodeId) {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.events += 1;
        self.cur_key = (t, seq);
        // Lazy warmup: the node's time-averages restart at exactly `warmup`
        // before its first post-warmup event — between its events the levels
        // are constant, so this equals an eager reset at `warmup`.
        let i = k - self.lo;
        if !self.nodes[i].warmup_done && self.warmup > 0.0 && t >= self.warmup {
            self.nodes[i].warmup_done = true;
            self.nodes[i].stats.reset_time_averages(self.warmup);
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, k: NodeId, mut msg: Msg) {
        let i = k - self.lo;
        msg.arrived_at = self.now;
        let node = &mut self.nodes[i];
        match msg.kind {
            MsgKind::Request => node.stats.nq.add(self.now, 1.0),
            MsgKind::Reply => {
                debug_assert_eq!(msg.origin, k, "reply must arrive at its origin");
                node.stats.ny.add(self.now, 1.0);
            }
        }
        debug_assert!(
            node.stats.ny.level() <= self.cfg.threads[k].fanout as f64,
            "a node holds at most `fanout` replies"
        );
        let depth = node.stats.nq.level() + node.stats.ny.level();
        node.stats.max_depth = node.stats.max_depth.max(depth as u64);

        if node.in_service.is_some() {
            node.fifo.push_back(msg);
            return;
        }
        // Preempt-resume, unless a protocol processor runs the handler
        // beside the computation: bank remaining work and run the handler
        // now, whose end replaces the compute end in the CPU's slot.
        if let (false, Cpu::Compute { end }) = (self.cfg.protocol_processor, node.cpu) {
            let remaining = (end - self.now).max(0.0);
            node.thread = ThreadState::Ready { remaining };
            node.stats.busy_compute.set(self.now, 0.0);
            node.cpu = Cpu::Idle;
        }
        self.start_handler(k, msg);
    }

    /// Run `msg`'s handler on the node's handler unit, which must be free.
    fn start_handler(&mut self, k: NodeId, msg: Msg) {
        let i = k - self.lo;
        debug_assert!(self.nodes[i].in_service.is_none());
        let service = match msg.kind {
            MsgKind::Request => self.cfg.request_handler.sample(&mut self.nodes[i].rng),
            MsgKind::Reply => self.cfg.reply_handler.sample(&mut self.nodes[i].rng),
        };
        {
            let node = &mut self.nodes[i];
            match msg.kind {
                MsgKind::Request => node.stats.busy_req.set(self.now, 1.0),
                MsgKind::Reply => node.stats.busy_rep.set(self.now, 1.0),
            }
            node.in_service = Some(msg);
        }
        self.set_slot(k, false, self.now + service);
    }

    fn on_handler_done(&mut self, k: NodeId) {
        let i = k - self.lo;
        let msg = self.nodes[i]
            .in_service
            .take()
            .expect("HandlerDone with no handler in service");
        {
            let node = &mut self.nodes[i];
            match msg.kind {
                MsgKind::Request => {
                    node.stats.busy_req.set(self.now, 0.0);
                    node.stats.nq.add(self.now, -1.0);
                }
                MsgKind::Reply => {
                    node.stats.busy_rep.set(self.now, 0.0);
                    node.stats.ny.add(self.now, -1.0);
                }
            }
        }
        self.complete_message(k, msg);

        let ready = matches!(self.nodes[i].thread, ThreadState::Ready { .. });
        let next = self.nodes[i].fifo.pop_front();
        if self.cfg.protocol_processor {
            // The coprocessor ran the handler, so the CPU is idle: a thread
            // that just became ready starts at once, beside the next
            // queued handler.
            if ready {
                self.start_compute(k);
            }
            if let Some(next) = next {
                self.start_handler(k, next);
            }
        } else if let Some(next) = next {
            // The CPU ran it: queued handlers run before the thread resumes
            // (the interference the BKT approximation charges to Rw).
            self.start_handler(k, next);
        } else if ready {
            self.start_compute(k);
        }
    }

    /// Request/reply completion: forward, reply, or end the origin's cycle.
    fn complete_message(&mut self, k: NodeId, mut msg: Msg) {
        let i = k - self.lo;
        match msg.kind {
            MsgKind::Request => {
                let response = self.now - msg.arrived_at;
                msg.rq_sum += response;
                if msg.arrived_at >= self.warmup {
                    let node = &mut self.nodes[i];
                    node.stats.rq_at_server.push(response);
                    node.stats.requests_served += 1;
                }
                let wire = wire_time(&self.cfg, &mut self.nodes[i].rng);
                if msg.hops_left > 0 {
                    msg.hops_left -= 1;
                    // Forwarding hop: uniform over the other nodes, like the
                    // multi-hop patterns of Appendix A.
                    let node = &mut self.nodes[i];
                    let next = crate::routing::DestChooser::UniformOther.pick(
                        k,
                        self.cfg.p,
                        &mut node.rng,
                        &mut node.rr,
                    );
                    self.send(k, self.now + wire, next, msg);
                } else {
                    msg.kind = MsgKind::Reply;
                    let origin = msg.origin;
                    self.send(k, self.now + wire, origin, msg);
                }
            }
            MsgKind::Reply => {
                debug_assert_eq!(msg.origin, k);
                {
                    let node = &mut self.nodes[i];
                    debug_assert!(node.outstanding > 0, "unexpected reply");
                    node.cyc_rq += msg.rq_sum;
                    node.cyc_ry += self.now - msg.arrived_at;
                    node.outstanding -= 1;
                    if node.outstanding > 0 {
                        return; // fork-join: wait for the siblings
                    }
                }
                // Last reply of the cycle: record and start the next one.
                let (r, rw, cyc_rq, cyc_ry) = {
                    let node = &self.nodes[i];
                    (
                        self.now - node.t_cycle_start,
                        node.t_sent - node.t_cycle_start,
                        node.cyc_rq,
                        node.cyc_ry,
                    )
                };
                if self.nodes[i].t_cycle_start >= self.warmup {
                    let node = &mut self.nodes[i];
                    node.stats.r.push(r);
                    node.stats.rw.push(rw);
                    node.stats.rq.push(cyc_rq);
                    node.stats.ry.push(cyc_ry);
                    node.stats.cycles += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.push((self.cur_key.0, self.cur_key.1, r));
                    }
                }
                self.nodes[i].cycles_done += 1;
                self.makespan = self.now;

                let quota_left = self
                    .max_cycles
                    .is_none_or(|n| self.nodes[i].cycles_done < n);
                if quota_left {
                    let w = self.cfg.threads[k]
                        .work
                        .as_ref()
                        .expect("reply arrived at a server node")
                        .sample(&mut self.nodes[i].rng);
                    let node = &mut self.nodes[i];
                    node.t_cycle_start = self.now;
                    node.thread = ThreadState::Ready { remaining: w };
                } else {
                    self.nodes[i].thread = ThreadState::Done;
                }
            }
        }
    }

    fn start_compute(&mut self, k: NodeId) {
        let i = k - self.lo;
        let remaining = match self.nodes[i].thread {
            ThreadState::Ready { remaining } => remaining,
            other => unreachable!("start_compute on thread in state {other:?}"),
        };
        debug_assert!(
            matches!(self.nodes[i].cpu, Cpu::Idle)
                && (self.cfg.protocol_processor
                    || (self.nodes[i].in_service.is_none() && self.nodes[i].fifo.is_empty())),
            "compute must start on an idle CPU with no handler to run"
        );
        let node = &mut self.nodes[i];
        node.thread = ThreadState::Running;
        node.cpu = Cpu::Compute {
            end: self.now + remaining,
        };
        node.stats.busy_compute.set(self.now, 1.0);
        self.set_slot(k, true, self.now + remaining);
    }

    fn on_compute_done(&mut self, k: NodeId) {
        let i = k - self.lo;
        debug_assert!(matches!(self.nodes[i].cpu, Cpu::Compute { .. }));
        debug_assert_eq!(self.nodes[i].thread, ThreadState::Running);
        {
            let node = &mut self.nodes[i];
            node.stats.busy_compute.set(self.now, 0.0);
            node.cpu = Cpu::Idle;
            node.thread = ThreadState::Blocked;
        }
        // Issue the cycle's blocking request(s); sending is free, each
        // message's wire time is St (or sampled).
        let spec = &self.cfg.threads[k];
        let hops = spec.hops;
        let fanout = spec.fanout;
        {
            let node = &mut self.nodes[i];
            node.t_sent = self.now;
            node.outstanding = fanout;
            node.cyc_rq = 0.0;
            node.cyc_ry = 0.0;
        }
        for _ in 0..fanout {
            let node = &mut self.nodes[i];
            let dst = self.cfg.threads[k]
                .dest
                .pick(k, self.cfg.p, &mut node.rng, &mut node.rr);
            debug_assert_ne!(dst, k, "requests must target another node");
            let msg = Msg {
                kind: MsgKind::Request,
                origin: k,
                hops_left: hops - 1,
                rq_sum: 0.0,
                arrived_at: 0.0,
            };
            let wire = wire_time(&self.cfg, &mut self.nodes[i].rng);
            self.send(k, self.now + wire, dst, msg);
        }
    }
}

/// Assemble the [`SimReport`] from the finished cores of one run (the
/// sequential engine passes exactly one spanning `0..p`). Cores are visited
/// in node order, so per-node summaries, the Welford merge sequence — and
/// therefore every pooled statistic — are bit-identical however the node
/// set was partitioned.
pub(crate) fn finalize_report(mut cores: Vec<Core>) -> SimReport {
    cores.sort_by_key(|c| c.lo);
    debug_assert!(!cores.is_empty());
    let warmup = cores[0].warmup;
    let horizon_end = cores[0].horizon_end;
    let makespan = cores.iter().map(|c| c.makespan).fold(0.0f64, f64::max);
    let events: u64 = cores.iter().map(|c| c.events).sum();
    let (t_end, window) = match horizon_end {
        Some(end) => (end, end - warmup),
        None => (makespan, makespan),
    };

    // Nodes whose events all predate the warmup boundary (or that never saw
    // an event) missed the lazy reset; apply it now so their time-averages
    // cover the measurement window like everyone else's.
    if warmup > 0.0 {
        for core in &mut cores {
            for node in &mut core.nodes {
                if !node.warmup_done {
                    node.warmup_done = true;
                    node.stats.reset_time_averages(warmup);
                }
            }
        }
    }

    let p_total: usize = cores.iter().map(|c| c.nodes.len()).sum();
    let mut nodes = Vec::with_capacity(p_total);
    let mut pooled_r = Welford::new();
    let mut pooled_rw = Welford::new();
    let mut pooled_rq = Welford::new();
    let mut pooled_ry = Welford::new();
    let mut total_cycles = 0u64;
    let mut sum_uq = 0.0;
    let mut sum_uy = 0.0;
    let mut sum_qq = 0.0;
    let mut sum_qy = 0.0;

    for node in cores.iter().flat_map(|c| c.nodes.iter()) {
        let s = &node.stats;
        let summary = NodeSummary {
            mean_r: s.r.mean(),
            mean_rw: s.rw.mean(),
            mean_rq: s.rq.mean(),
            mean_ry: s.ry.mean(),
            mean_rq_at_server: s.rq_at_server.mean(),
            qq: s.nq.average(t_end),
            qy: s.ny.average(t_end),
            uq: s.busy_req.average(t_end),
            uy: s.busy_rep.average(t_end),
            u_compute: s.busy_compute.average(t_end),
            cycles: s.cycles,
            requests_served: s.requests_served,
            max_depth: s.max_depth,
        };
        pooled_r.merge(&s.r);
        pooled_rw.merge(&s.rw);
        pooled_rq.merge(&s.rq);
        pooled_ry.merge(&s.ry);
        total_cycles += s.cycles;
        sum_uq += summary.uq;
        sum_uy += summary.uy;
        sum_qq += summary.qq;
        sum_qy += summary.qy;
        nodes.push(summary);
    }

    let p = nodes.len() as f64;
    let aggregate = Aggregate {
        mean_r: pooled_r.mean(),
        r_std_err: pooled_r.std_err(),
        mean_rw: pooled_rw.mean(),
        mean_rq: pooled_rq.mean(),
        mean_ry: pooled_ry.mean(),
        mean_uq: sum_uq / p,
        mean_uy: sum_uy / p,
        mean_qq: sum_qq / p,
        mean_qy: sum_qy / p,
        total_cycles,
        throughput: if window > 0.0 {
            total_cycles as f64 / window
        } else {
            0.0
        },
    };

    // Measured cycles keyed by their completing event: per-core traces are
    // already in key order, and the merged order equals the sequential
    // completion order exactly.
    let mut keyed: Vec<(Time, u64, f64)> = Vec::new();
    for core in &mut cores {
        if let Some(tr) = core.trace.take() {
            keyed.extend(tr);
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    SimReport {
        nodes,
        aggregate,
        window,
        makespan,
        events,
        cycle_trace: keyed.into_iter().map(|(_, _, r)| r).collect(),
    }
}

/// The sequential simulation engine: one `Core` spanning every node.
/// Construct with [`Engine::new`], then call [`Engine::run_to_completion`]
/// (or use the [`crate::run`] convenience).
pub struct Engine {
    core: Core,
}

impl Engine {
    /// Build an engine for a validated configuration. Its event queue
    /// ([`BinaryHeapQueue`]) adapts to its own population: a sorted near
    /// run plus an unsorted far bag while small, Brown's wheel while large.
    ///
    /// The `LOPC_TEST_SCHEDULER` environment variable (`calendar` / `heap`)
    /// forces the queue's mode for CI matrix runs; use
    /// [`Engine::with_scheduler`] to force it programmatically. Neither
    /// changes results, only speed.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        Self::with_scheduler(cfg, crate::validate::env_scheduler().unwrap_or_default())
    }

    /// Build an engine whose queue runs under the [`Scheduler`] force:
    /// `Calendar`, the wheel from the first event, or `BinaryHeap`, the
    /// adaptive default.
    ///
    /// Both produce bit-identical simulations (the differential tests in
    /// `tests/differential.rs` enforce this).
    pub fn with_scheduler(cfg: SimConfig, scheduler: Scheduler) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Engine {
            core: Core::new(Arc::new(cfg), 0, 1, scheduler, false),
        })
    }

    /// Record the per-cycle response-time series: every measured cycle
    /// (pooled over nodes, in completion order) is appended to
    /// [`SimReport::cycle_trace`]. Off by default — the trace costs one
    /// entry of memory per cycle, which a long horizon turns into real
    /// footprint, so only runs that feed `lopc_stats::batch_means` ask for
    /// it.
    pub fn with_cycle_trace(mut self) -> Self {
        self.core.trace = Some(Vec::new());
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Run until the stop condition is reached and produce the report.
    pub fn run_to_completion(mut self) -> SimReport {
        self.core.process_until(f64::INFINITY);
        debug_assert!(
            self.core.outboxes.iter().all(Vec::is_empty),
            "sequential core owns all nodes"
        );
        finalize_report(vec![self.core])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, StopCondition, ThreadSpec};
    use crate::routing::DestChooser;
    use lopc_dist::ServiceTime;

    /// Two perfectly symmetric nodes with constant everything stay in
    /// lockstep: both block at the same instant, each serves the other's
    /// request while idle, and there is never any contention. The cycle time
    /// is then exactly `W + 2·St + 2·So`.
    #[test]
    fn two_node_pingpong_is_contention_free() {
        let (w, st, so) = (500.0, 25.0, 100.0);
        let cfg = SimConfig {
            p: 2,
            net_latency: st,
            request_handler: ServiceTime::constant(so),
            reply_handler: ServiceTime::constant(so),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(w)); 2],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::CyclesPerThread { n: 50 },
            seed: 9,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let expected = w + 2.0 * st + 2.0 * so;
        assert!(
            (report.aggregate.mean_r - expected).abs() < 1e-9,
            "R = {} != {expected}",
            report.aggregate.mean_r
        );
        assert_eq!(report.aggregate.total_cycles, 100);
        // Components are exact too.
        assert!((report.aggregate.mean_rw - w).abs() < 1e-9);
        assert!((report.aggregate.mean_rq - so).abs() < 1e-9);
        assert!((report.aggregate.mean_ry - so).abs() < 1e-9);
    }

    /// Makespan of the deterministic ping-pong is n·R exactly.
    #[test]
    fn pingpong_makespan_is_n_times_r() {
        let (w, st, so, n) = (300.0, 10.0, 50.0, 20u64);
        let cfg = SimConfig {
            p: 2,
            net_latency: st,
            request_handler: ServiceTime::constant(so),
            reply_handler: ServiceTime::constant(so),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(w)); 2],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::CyclesPerThread { n },
            seed: 1,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let r = w + 2.0 * st + 2.0 * so;
        assert!(
            (report.makespan - n as f64 * r).abs() < 1e-6,
            "makespan {} != {}",
            report.makespan,
            n as f64 * r
        );
    }

    /// Component identity: R = Rw + (h+1)·St + Rq + Ry for every measured
    /// cycle, so it must hold for the means.
    #[test]
    fn response_decomposition_identity() {
        let st = 25.0;
        let cfg = SimConfig {
            p: 8,
            net_latency: st,
            request_handler: ServiceTime::exponential(100.0),
            reply_handler: ServiceTime::exponential(100.0),
            threads: vec![ThreadSpec::worker(ServiceTime::exponential(400.0)); 8],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 20_000.0,
                end: 120_000.0,
            },
            seed: 77,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let a = &report.aggregate;
        let recomposed = a.mean_rw + 2.0 * st + a.mean_rq + a.mean_ry;
        assert!(
            (a.mean_r - recomposed).abs() < 1e-6,
            "R {} != decomposition {recomposed}",
            a.mean_r
        );
    }

    /// Same seed, same report; different seed, (almost surely) different.
    #[test]
    fn determinism_by_seed() {
        let mk = |seed| {
            let cfg = SimConfig {
                p: 4,
                net_latency: 10.0,
                request_handler: ServiceTime::exponential(50.0),
                reply_handler: ServiceTime::exponential(50.0),
                threads: vec![ThreadSpec::worker(ServiceTime::exponential(200.0)); 4],
                protocol_processor: false,
                latency_dist: None,
                stop: StopCondition::Horizon {
                    warmup: 5_000.0,
                    end: 50_000.0,
                },
                seed,
            };
            Engine::new(cfg).unwrap().run_to_completion()
        };
        let a = mk(5);
        let b = mk(5);
        let c = mk(6);
        assert_eq!(a.aggregate.mean_r, b.aggregate.mean_r);
        assert_eq!(a.events, b.events);
        assert_ne!(a.aggregate.mean_r, c.aggregate.mean_r);
    }

    /// With a protocol processor the compute thread is never interrupted, so
    /// Rw == W exactly for constant work.
    #[test]
    fn protocol_processor_never_interrupts_compute() {
        let w = 300.0;
        let cfg = SimConfig {
            p: 8,
            net_latency: 10.0,
            request_handler: ServiceTime::exponential(150.0),
            reply_handler: ServiceTime::exponential(150.0),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(w)); 8],
            protocol_processor: true,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 20_000.0,
                end: 150_000.0,
            },
            seed: 3,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        assert!(
            (report.aggregate.mean_rw - w).abs() < 1e-9,
            "Rw = {} != W = {w}",
            report.aggregate.mean_rw
        );
        // But handlers still queue against each other: Rq > So on average.
        assert!(report.aggregate.mean_rq > 150.0);
    }

    /// Utilisations are probabilities.
    #[test]
    fn utilisations_bounded() {
        let cfg = SimConfig {
            p: 6,
            net_latency: 5.0,
            request_handler: ServiceTime::exponential(80.0),
            reply_handler: ServiceTime::exponential(80.0),
            threads: vec![ThreadSpec::worker(ServiceTime::exponential(100.0)); 6],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 10_000.0,
                end: 60_000.0,
            },
            seed: 12,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        for (i, n) in report.nodes.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-9).contains(&n.uq), "uq[{i}] = {}", n.uq);
            assert!((0.0..=1.0 + 1e-9).contains(&n.uy), "uy[{i}] = {}", n.uy);
            assert!(
                n.uq + n.uy + n.u_compute <= 1.0 + 1e-9,
                "CPU over-committed at node {i}"
            );
        }
    }

    /// Multi-hop requests visit h handlers and pay (h+1) wire latencies.
    #[test]
    fn multihop_decomposition() {
        let st = 20.0;
        let hops = 3u32;
        let mut threads = vec![
            ThreadSpec {
                work: Some(ServiceTime::constant(500.0)),
                dest: DestChooser::UniformOther,
                hops,
                fanout: 1,
            };
            6
        ];
        threads[0].hops = hops;
        let cfg = SimConfig {
            p: 6,
            net_latency: st,
            request_handler: ServiceTime::constant(50.0),
            reply_handler: ServiceTime::constant(50.0),
            threads,
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 10_000.0,
                end: 100_000.0,
            },
            seed: 21,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let a = &report.aggregate;
        let recomposed = a.mean_rw + (hops as f64 + 1.0) * st + a.mean_rq + a.mean_ry;
        assert!(
            (a.mean_r - recomposed).abs() < 1e-6,
            "R {} != multihop decomposition {recomposed}",
            a.mean_r
        );
        // Rq spans h handler visits: at least h·So.
        assert!(a.mean_rq >= hops as f64 * 50.0 - 1e-9);
    }

    /// Pure servers never complete cycles; clients complete all of them.
    #[test]
    fn client_server_roles() {
        let mut threads = vec![ThreadSpec::server(); 6];
        for spec in threads.iter_mut().skip(2) {
            *spec = ThreadSpec {
                work: Some(ServiceTime::exponential(400.0)),
                dest: DestChooser::UniformAmong(vec![0, 1]),
                hops: 1,
                fanout: 1,
            };
        }
        let cfg = SimConfig {
            p: 6,
            net_latency: 10.0,
            request_handler: ServiceTime::exponential(131.0),
            reply_handler: ServiceTime::exponential(131.0),
            threads,
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 20_000.0,
                end: 120_000.0,
            },
            seed: 8,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        assert_eq!(report.nodes[0].cycles, 0);
        assert_eq!(report.nodes[1].cycles, 0);
        for n in &report.nodes[2..] {
            assert!(n.cycles > 0);
        }
        // All requests land on the two servers.
        assert_eq!(
            report.nodes[2..]
                .iter()
                .map(|n| n.requests_served)
                .sum::<u64>(),
            0
        );
        assert!(report.nodes[0].requests_served > 0);
        assert!(report.nodes[1].requests_served > 0);
    }

    /// W = 0 (degenerate: thread re-requests instantly) must not wedge.
    #[test]
    fn zero_work_progresses() {
        let cfg = SimConfig {
            p: 4,
            net_latency: 10.0,
            request_handler: ServiceTime::constant(50.0),
            reply_handler: ServiceTime::constant(50.0),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(0.0)); 4],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 5_000.0,
                end: 50_000.0,
            },
            seed: 4,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        assert!(report.aggregate.total_cycles > 100);
        // R >= 2St + 2So even with no work.
        assert!(report.aggregate.mean_r >= 2.0 * 10.0 + 2.0 * 50.0 - 1e-9);
    }

    /// Stream seeds are a pure function of `(master, stream)` — counter
    /// splitting, not sequential draws — pinned by golden values so the
    /// mapping (and with it every archived simulation result) cannot drift
    /// silently. See `stream_seed`.
    #[test]
    fn stream_seed_golden_pin() {
        // SplitMix64 finalizer over master + (stream+1)·golden-gamma.
        assert_eq!(stream_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(stream_seed(42, 0), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(stream_seed(42, 1), 0x28EF_E333_B266_F103);
    }

    /// Adjacent streams (and adjacent masters) decorrelate: every pair of
    /// seeds differs, and so do the first draws of the RNGs they seed.
    #[test]
    fn stream_seeds_are_independent() {
        use rand::Rng;
        let master = 42;
        let mut seeds = Vec::new();
        for k in 0..256u64 {
            seeds.push(stream_seed(master, k));
        }
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "stream seeds must be distinct");

        // Neighbouring masters must not produce overlapping stream seeds
        // (replication i uses master seed+i).
        for k in 0..256u64 {
            assert_ne!(stream_seed(master, k), stream_seed(master + 1, k));
        }

        // And the streams themselves diverge from the first draw.
        let mut firsts: Vec<u64> = seeds
            .iter()
            .map(|&s| SmallRng::seed_from_u64(s).random::<u64>())
            .collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), seeds.len(), "first draws must be distinct");
    }

    /// The event tie-break key packs (creator, counter): distinct creators
    /// and successive events at one creator never collide, and keys order
    /// lexicographically by (creator, counter) at equal times.
    #[test]
    fn packed_event_keys_are_unique_and_fifo_per_creator() {
        let key = |node: u64, ctr: u64| (node << CTR_BITS) | ctr;
        assert!(key(0, 1) < key(0, 2), "FIFO per creator");
        assert!(
            key(0, (1 << CTR_BITS) - 1) < key(1, 1),
            "creator-major order"
        );
        assert_ne!(key(3, 7), key(7, 3));
        // The packing accommodates MAX_NODES creators.
        let top = (crate::config::MAX_NODES - 1) as u64;
        assert_eq!(key(top, 1) >> CTR_BITS, top);
    }
}
