//! The readiness-driven connection core: one reactor thread multiplexing
//! every connection over epoll, handing complete parsed requests to the
//! worker pool.
//!
//! Division of labour (see DESIGN.md §11):
//!
//! * the **reactor** owns all connection state — non-blocking sockets, the
//!   per-connection [`RequestParser`] state machine (reading → parsing →
//!   dispatched → writing), the idle-timeout timer wheel, accept and
//!   teardown. Cheap requests (small exact closed-form predictions,
//!   metrics, topology) it answers **inline** — one thread wakeup per
//!   request, exactly the hand-off count of the old thread-per-connection
//!   core (see [`offload`]).
//! * **workers** block only on the [`JobQueue`] condvar and receive the
//!   solver-heavy jobs (large, tolerant or `general` predictions, and
//!   cell transfer), so an unbounded scenario sweep never stalls the
//!   event loop. The worker writes the response bytes straight to the
//!   (non-blocking) socket — keeping the reactor off the response
//!   latency path — and posts a [`Completion`] back through the
//!   [`EventFd`] doorbell so the reactor re-arms the connection (or
//!   finishes a partial write via `EPOLLOUT`).
//! * **shutdown is an event**: flag + doorbell. The reactor closes the
//!   listener and idle connections immediately, drains in-flight
//!   completions, and exits — no polling, no sleeps.
//!
//! Connections are identified by a 64-bit token (slab index + generation)
//! carried in the epoll event payload; stale tokens from a recycled slot
//! fail the generation check and are ignored, so late completions or timer
//! entries can never touch the wrong connection. The worker's direct write
//! cannot race a teardown either: the socket is shared as an
//! `Arc<TcpStream>`, and the reactor never drops its reference while a
//! request is dispatched.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, HttpError, Request, RequestParser};
use crate::json::Json;
use crate::server::Service;
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Epoll tag for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll tag for the wake-up eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;

/// Reactor-side read chunk.
const READ_CHUNK: usize = 16 * 1024;

/// Stop reading from a busy connection (request in flight or response
/// pending) whose parser has buffered this much — flow control against a
/// peer that pumps pipelined data faster than responses drain; reading
/// resumes when the in-flight response completes or the write buffer
/// empties.
const BUSY_BUFFER_CAP: usize = 64 * 1024;

/// Most bytes one [`Reactor::pump`] call reads before yielding. Without a
/// cap, a peer that delivers data as fast as the reactor can read it
/// (localhost, fast LAN) keeps its socket perpetually readable and starves
/// every other connection. A capped pump parks the connection on the
/// re-pump list instead and resumes on the next loop iteration — after the
/// rest of the event batch has been served.
const PUMP_BUDGET: usize = 256 * 1024;

/// One complete parsed request, on its way to a worker.
pub(crate) struct Job {
    pub token: u64,
    pub stream: Arc<TcpStream>,
    pub request: Request,
}

/// Predict bodies at or under this size may run inline on the reactor
/// (see [`offload`]). ~3 KB is roughly 30 closed-form lanes — a couple
/// hundred microseconds even when every lane is a cold solve, comparable
/// to serving a handful of inline singles. The routed sub-batches a
/// [`ClusterClient`](crate::cluster::ClusterClient) fans out land well
/// under this; saving their hand-offs is what keeps a pipelined
/// multi-node wave competitive with one big single-node batch.
const INLINE_MAX_BODY: usize = 3 * 1024;

/// Should this request travel to the worker pool instead of running
/// inline on the reactor? Requests whose handler cost is unbounded:
///
/// * predictions — single or batch alike, a single being a one-lane batch
///   — whose body is *large* (over [`INLINE_MAX_BODY`]: a full scenario
///   sweep of cold solves), is *tolerant* (`max_rel_err`: a cell miss may
///   fetch from a peer over the network and re-verify with a local solve,
///   DESIGN.md §15), or contains a *general* model (an arbitrarily sized
///   Appendix-A AMVA). Small exact closed-form predictions are bounded —
///   each lane is a microseconds fixed-point solve — and run inline;
/// * cell transfer (`/v1/cell/...`) — an import runs a spot-probe solve,
///   and an export can race a slot still being built.
///
/// Stalling the reactor for milliseconds would add that stall to every
/// other connection's latency. Everything else — small exact closed-form
/// predictions, metrics, topology — is microseconds even on a cache miss,
/// and answering it inline saves two thread hand-offs per request.
fn offload(request: &Request) -> bool {
    match request.path.as_str() {
        "/v1/predict" | "/v1/predict/batch" => {
            request.body.len() > INLINE_MAX_BODY || body_forces_offload(&request.body)
        }
        path => path.starts_with("/v1/cell/"),
    }
}

/// Does a small predict body carry a token that forces worker offload —
/// `max_rel_err`, `general`, or any `\u` escape? The JSON decoder turns
/// escapes into characters, so a key spelled with one (`max\u005frel_err`)
/// would slip past a raw-byte match; the in-repo codec never writes an
/// escape into a scenario body, so treating every one as heavy costs
/// honest clients nothing. One pass with first-byte dispatch: this runs on
/// the reactor for every predict body under the inline cap. A false
/// positive (the token in some future free-form field) merely offloads;
/// misses are impossible because every other spelling of the wire keys
/// needs an escape.
fn body_forces_offload(body: &[u8]) -> bool {
    let mut rest = body;
    while let Some(&byte) = rest.first() {
        match byte {
            b'm' if rest.starts_with(b"max_rel_err") => return true,
            b'g' if rest.starts_with(b"general") => return true,
            b'\\' if rest.starts_with(b"\\u") => return true,
            _ => {}
        }
        rest = &rest[1..];
    }
    false
}

/// How a worker finished its job.
pub(crate) enum Done {
    /// Response fully written by the worker itself.
    Written { keep_alive: bool },
    /// The socket buffer filled mid-response; the reactor finishes `rest`
    /// under `EPOLLOUT`.
    Partial { rest: Vec<u8>, keep_alive: bool },
    /// The write failed (or the handler panicked); tear the connection
    /// down.
    Failed,
}

/// Worker → reactor notification for one completed job.
pub(crate) struct Completion {
    pub token: u64,
    pub done: Done,
}

/// The request hand-off queue between reactor and workers. Deliberately
/// boring — mutex, deque, condvar. Workers park immediately when the queue
/// is empty: only solver-heavy batch jobs travel through here, so the
/// futex round trip is noise against the job itself, and an idle worker
/// must never burn a core the solver threads (or the reactor, on small
/// machines) could be using.
pub(crate) struct JobQueue {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl JobQueue {
    pub fn new() -> JobQueue {
        JobQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    pub fn push(&self, job: Job) {
        self.queue
            .lock()
            .expect("job queue poisoned")
            .push_back(job);
        self.ready.notify_one();
    }

    /// Next job, or `None` once shutdown is flagged and the queue is
    /// drained.
    pub fn pop(&self, shutdown: &AtomicBool) -> Option<Job> {
        let mut q = self.queue.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).expect("job queue poisoned");
        }
    }

    /// Wake every parked worker (shutdown). Holds the queue lock so a
    /// worker between its shutdown check and its wait cannot miss the
    /// notification (the classic lost-wakeup window).
    pub fn wake_all(&self) {
        let _guard = self.queue.lock().expect("job queue poisoned");
        self.ready.notify_all();
    }

    /// Take every queued job without blocking. Shutdown only: workers exit
    /// the moment they see the flag over an empty queue, so jobs the
    /// reactor dispatched while handling its final event batch can be
    /// stranded here with nobody left to run them.
    pub fn take_all(&self) -> Vec<Job> {
        self.queue
            .lock()
            .expect("job queue poisoned")
            .drain(..)
            .collect()
    }
}

/// State shared between the reactor, the workers, and the server handle.
pub(crate) struct Shared {
    pub jobs: JobQueue,
    pub completions: Mutex<Vec<Completion>>,
    pub wake: EventFd,
    pub shutdown: AtomicBool,
}

impl Shared {
    pub fn new() -> std::io::Result<Shared> {
        Ok(Shared {
            jobs: JobQueue::new(),
            completions: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
            shutdown: AtomicBool::new(false),
        })
    }

    /// Post a completion and ring the reactor's doorbell.
    pub fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion queue poisoned")
            .push(completion);
        self.wake.signal();
    }
}

// -- timer wheel -----------------------------------------------------------

/// Wheel slots; with `tick = idle_timeout / 32` every deadline lands
/// within one lap.
const WHEEL_SLOTS: usize = 64;

/// A hashed timing wheel over connection tokens. Deadlines are quantized
/// to ticks of `idle_timeout / 32` (never finer than 1 ms, never coarser
/// than 1 s); each slot holds the entries whose deadline hashes there.
/// Expiry is *lazy*: the wheel only nominates candidates, and the reactor
/// re-checks the connection's actual `last_activity` before closing —
/// active connections are simply re-scheduled, so refreshing a timer on
/// every read costs nothing.
struct TimerWheel {
    slots: Vec<Vec<(u64, u64)>>,
    tick: Duration,
    /// Next tick index to process.
    cursor: u64,
    epoch: Instant,
    len: usize,
}

impl TimerWheel {
    fn new(idle_timeout: Duration, epoch: Instant) -> TimerWheel {
        let tick = (idle_timeout / 32)
            .max(Duration::from_millis(1))
            .min(Duration::from_secs(1));
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            tick,
            cursor: 1,
            epoch,
            len: 0,
        }
    }

    fn tick_of(&self, deadline: Instant) -> u64 {
        let since = deadline.saturating_duration_since(self.epoch);
        // Round up so an entry never fires before its deadline.
        (since.as_nanos() / self.tick.as_nanos()) as u64 + 1
    }

    fn schedule(&mut self, token: u64, deadline: Instant) {
        let tick = self.tick_of(deadline).max(self.cursor);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push((token, tick));
        self.len += 1;
    }

    /// How long until the next scheduled tick, if anything is scheduled.
    fn next_wait(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        // u64 nanosecond math: a u32 tick count wraps after ~2^32 ticks
        // (under 50 days of uptime at the 1 ms minimum tick), which would
        // put the deadline in the past and wake the reactor every tick.
        let next = self.epoch
            + Duration::from_nanos((self.tick.as_nanos() as u64).saturating_mul(self.cursor));
        Some(next.saturating_duration_since(now))
    }

    /// Advance through every tick that is now due, collecting candidate
    /// tokens. Entries scheduled for a later lap of the wheel stay put.
    fn expired(&mut self, now: Instant) -> Vec<u64> {
        let now_tick =
            (now.saturating_duration_since(self.epoch).as_nanos() / self.tick.as_nanos()) as u64;
        let mut due = Vec::new();
        while self.cursor <= now_tick {
            let slot = &mut self.slots[(self.cursor % WHEEL_SLOTS as u64) as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].1 <= self.cursor {
                    due.push(slot.swap_remove(i).0);
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            self.cursor += 1;
        }
        due
    }
}

// -- connection state ------------------------------------------------------

struct Conn {
    stream: Arc<TcpStream>,
    generation: u32,
    parser: RequestParser,
    /// Pending response bytes the reactor owns (partial worker write, or a
    /// reactor-generated 400), plus the write cursor into them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A request is in flight with a worker.
    dispatched: bool,
    /// Close once `wbuf` drains (response said `Connection: close`, or a
    /// framing error was answered).
    close_after_write: bool,
    /// Peer closed its write half; close once in-flight work drains.
    peer_eof: bool,
    /// `EPOLLOUT` currently armed.
    epollout: bool,
    /// Timer-wheel entry outstanding for this connection.
    timer_armed: bool,
    last_activity: Instant,
}

enum CloseReason {
    Normal,
    IdleTimeout,
}

/// Why the reactor stopped serving a connection event.
enum ConnFate {
    Alive,
    Closed,
}

/// How long the listener stays deregistered after the process runs out of
/// file descriptors (`EMFILE`/`ENFILE`). The pending connection keeps a
/// level-triggered listener readable, so accepting again immediately would
/// busy-spin the reactor at 100% CPU until fds free up.
const LISTENER_PAUSE: Duration = Duration::from_millis(100);

pub(crate) struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    service: Arc<Service>,
    shared: Arc<Shared>,
    idle_timeout: Duration,
    slots: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    wheel: TimerWheel,
    /// Requests currently dispatched to workers.
    in_flight: usize,
    /// Connections whose pump hit [`PUMP_BUDGET`] with data likely still
    /// queued; re-pumped each loop iteration (edge-triggered epoll will
    /// not re-announce bytes that were already readable).
    repump: Vec<u64>,
    /// When set, the listener is deregistered after fd exhaustion and
    /// re-armed once this instant passes.
    listener_resume: Option<Instant>,
}

fn token_of(index: usize, generation: u32) -> u64 {
    ((index as u64) << 32) | generation as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token >> 32) as usize, token as u32)
}

fn would_block(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock
}

impl Reactor {
    pub fn new(
        listener: TcpListener,
        service: Arc<Service>,
        shared: Arc<Shared>,
        idle_timeout: Duration,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(shared.wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        Ok(Reactor {
            epoll,
            listener,
            service,
            shared,
            idle_timeout,
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(idle_timeout, Instant::now()),
            in_flight: 0,
            repump: Vec::new(),
            listener_resume: None,
        })
    }

    /// The event loop. Runs until shutdown is flagged, then drains
    /// in-flight requests and tears everything down.
    pub fn run(mut self) {
        let mut events = vec![EpollEvent::default(); EVENT_BATCH];
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let now = Instant::now();
            self.maybe_resume_listener(now);
            let mut wait = self.wheel.next_wait(now);
            if let Some(at) = self.listener_resume {
                let until = at.saturating_duration_since(now);
                wait = Some(wait.map_or(until, |w| w.min(until)));
            }
            let timeout_ms = if !self.repump.is_empty() {
                0
            } else {
                match wait {
                    None => -1,
                    Some(d) => d.as_millis().min(i32::MAX as u128) as i32 + 1,
                }
            };
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.service.metrics().reactor_wakeup(n as u64);
            for ev in &events[..n] {
                // Copy out of the (packed) event before matching.
                let (data, ready) = (ev.data, ev.events);
                match data {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.shared.wake.drain();
                        self.process_completions();
                    }
                    token => self.conn_event(token, ready),
                }
            }
            // Budget-capped connections get their next read slice now that
            // the whole event batch has been served once.
            for token in std::mem::take(&mut self.repump) {
                if let Some(index) = self.lookup(token) {
                    self.pump(index);
                }
            }
            self.expire_idle(Instant::now());
        }
        self.drain_and_exit(&mut events);
    }

    /// Shutdown path: stop accepting, close idle connections immediately,
    /// then wait for the workers' in-flight completions before closing the
    /// rest. Workers always post a completion (even for failed writes), so
    /// this drains in bounded time with no polling.
    fn drain_and_exit(mut self, events: &mut [EpollEvent]) {
        let _ = self.epoll.del(self.listener.as_raw_fd());
        for index in 0..self.slots.len() {
            let close_now = matches!(&self.slots[index], Some(c) if !c.dispatched);
            if close_now {
                self.close(index, CloseReason::Normal);
            }
        }
        // Jobs pushed during the final event batch may have nobody to run
        // them: workers exit as soon as they observe the shutdown flag over
        // an empty queue, and that can happen before this reactor pushed
        // its last job. Run any stragglers here — the queue is mutex-owned,
        // so each job goes to exactly one executor — and post their
        // completions so the in-flight count below always reaches zero.
        for job in self.shared.jobs.take_all() {
            let done = crate::server::execute(&self.service, &job.stream, &job.request);
            self.shared.complete(Completion {
                token: job.token,
                done,
            });
        }
        while self.in_flight > 0 {
            match self.epoll.wait(events, 1000) {
                Ok(_) => {}
                Err(_) => break,
            }
            self.shared.wake.drain();
            let completions = std::mem::take(
                &mut *self
                    .shared
                    .completions
                    .lock()
                    .expect("completion queue poisoned"),
            );
            for completion in completions {
                self.in_flight -= 1;
                self.service.metrics().conn_undispatched();
                if let Some(index) = self.lookup(completion.token) {
                    self.slots[index].as_mut().expect("live slot").dispatched = false;
                    self.close(index, CloseReason::Normal);
                }
            }
        }
    }

    fn lookup(&self, token: u64) -> Option<usize> {
        let (index, generation) = split_token(token);
        match self.slots.get(index) {
            Some(Some(conn)) if conn.generation == generation => Some(index),
            _ => None,
        }
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self) {
        /// `ENFILE`: the system file table is full.
        const ENFILE: i32 = 23;
        /// `EMFILE`: the per-process fd limit is hit.
        const EMFILE: i32 = 24;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register(stream),
                Err(e) if would_block(&e) => return,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) => {
                    // Out of fds. The undrained connection keeps the
                    // (level-triggered) listener readable, so returning
                    // here would make every subsequent epoll_wait fire
                    // instantly — a 100% CPU spin for as long as fds stay
                    // exhausted. Deregister and re-arm after a pause;
                    // pending connections simply wait in the accept queue.
                    let _ = self.epoll.del(self.listener.as_raw_fd());
                    self.listener_resume = Some(Instant::now() + LISTENER_PAUSE);
                    return;
                }
                // Transient accept errors (ECONNABORTED...) consume the
                // failed attempt: drop it, keep serving.
                Err(_) => return,
            }
        }
    }

    /// Re-register a paused listener once its back-off deadline passes.
    fn maybe_resume_listener(&mut self, now: Instant) {
        let Some(at) = self.listener_resume else {
            return;
        };
        if now < at {
            return;
        }
        if self
            .epoll
            .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .is_ok()
        {
            self.listener_resume = None;
        } else {
            self.listener_resume = Some(now + LISTENER_PAUSE);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Nagle + delayed ACK stalls multi-segment JSON bodies by ~40 ms
        // per round trip; a request/response service always wants NODELAY.
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        let generation = self.generations[index];
        let token = token_of(index, generation);
        let conn = Conn {
            stream: Arc::new(stream),
            generation,
            parser: RequestParser::new(),
            wbuf: Vec::new(),
            wpos: 0,
            dispatched: false,
            close_after_write: false,
            peer_eof: false,
            epollout: false,
            timer_armed: false,
            last_activity: now,
        };
        if self
            .epoll
            .add(
                conn.stream.as_raw_fd(),
                EPOLLIN | EPOLLRDHUP | EPOLLET,
                token,
            )
            .is_err()
        {
            self.free.push(index);
            return;
        }
        self.slots[index] = Some(conn);
        self.service.metrics().conn_opened();
        self.arm_timer(index, now);
        // The socket may already hold a full request (connect + write
        // races the accept); with edge-triggered delivery that edge
        // happened before registration, so pump once now.
        self.pump(index);
    }

    fn arm_timer(&mut self, index: usize, now: Instant) {
        let conn = match &mut self.slots[index] {
            Some(c) => c,
            None => return,
        };
        if conn.timer_armed {
            return;
        }
        conn.timer_armed = true;
        let token = token_of(index, conn.generation);
        self.wheel.schedule(token, now + self.idle_timeout);
    }

    // -- teardown ----------------------------------------------------------

    fn close(&mut self, index: usize, reason: CloseReason) {
        let conn = match self.slots[index].take() {
            Some(c) => c,
            None => return,
        };
        let _ = self.epoll.del(conn.stream.as_raw_fd());
        // Dropping the reactor's Arc closes the fd once any worker still
        // holding a clone finishes; stale completions then miss the
        // generation check.
        self.generations[index] = self.generations[index].wrapping_add(1);
        self.free.push(index);
        self.service
            .metrics()
            .conn_closed(matches!(reason, CloseReason::IdleTimeout));
    }

    // -- timers ------------------------------------------------------------

    fn expire_idle(&mut self, now: Instant) {
        for token in self.wheel.expired(now) {
            let Some(index) = self.lookup(token) else {
                continue;
            };
            let conn = self.slots[index].as_mut().expect("live slot");
            conn.timer_armed = false;
            let idle_for = now.saturating_duration_since(conn.last_activity);
            let busy = conn.dispatched || conn.wpos < conn.wbuf.len();
            if !busy && idle_for >= self.idle_timeout {
                // Genuinely idle past the deadline: close. The FIN gives
                // the peer a clean EOF on its next read.
                self.close(index, CloseReason::IdleTimeout);
            } else {
                // Saw activity since scheduling (or mid-request): push the
                // deadline out from the *actual* last activity.
                let deadline = conn.last_activity.max(now) + self.idle_timeout;
                conn.timer_armed = true;
                self.wheel.schedule(token, deadline);
            }
        }
    }

    // -- I/O state machine ---------------------------------------------------

    fn conn_event(&mut self, token: u64, events: u32) {
        let Some(index) = self.lookup(token) else {
            return;
        };
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            let dispatched = self.slots[index].as_ref().expect("live slot").dispatched;
            if dispatched {
                // Let the in-flight completion find the error; closing now
                // would recycle the slot under it.
                self.slots[index].as_mut().expect("live slot").peer_eof = true;
            } else {
                self.close(index, CloseReason::Normal);
            }
            return;
        }
        if events & EPOLLOUT != 0 && matches!(self.flush(index), ConnFate::Closed) {
            return;
        }
        if events & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.pump(index);
        }
    }

    /// Read everything available, advance the parser, dispatch at most one
    /// request, and handle EOF — the per-connection state machine's main
    /// transition.
    fn pump(&mut self, index: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = PUMP_BUDGET;
        loop {
            let conn = match &mut self.slots[index] {
                Some(c) => c,
                None => return,
            };
            let busy = conn.dispatched || conn.wpos < conn.wbuf.len();
            if busy && conn.parser.buffered() > BUSY_BUFFER_CAP {
                // Flow control: leave the rest in the kernel buffer (TCP
                // backpressure); the completion/flush path resumes reading.
                // (An idle connection is never capped here — its buffered
                // bytes are an incomplete request that needs more data to
                // progress, and the parser's own header/body limits bound
                // how large it can grow.)
                break;
            }
            if budget == 0 {
                // Fairness: this pump has read its fill. The socket may
                // still hold data, and edge-triggered epoll will not
                // re-announce it, so park the connection for an explicit
                // re-pump after the rest of the event batch is served.
                self.repump.push(token_of(index, conn.generation));
                break;
            }
            match (&*conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    conn.parser.push(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if would_block(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if !conn.dispatched {
                        self.close(index, CloseReason::Normal);
                    }
                    return;
                }
            }
        }
        self.advance(index);
    }

    /// Try to turn buffered bytes into a dispatched request, then apply
    /// EOF if the connection is fully drained.
    fn advance(&mut self, index: usize) {
        loop {
            let conn = match &mut self.slots[index] {
                Some(c) => c,
                None => return,
            };
            if conn.dispatched || conn.wpos < conn.wbuf.len() || conn.close_after_write {
                return; // busy: next transition comes from a completion/flush
            }
            match conn.parser.poll() {
                Ok(Some(request)) => {
                    if offload(&request) {
                        // Solver-heavy: hand to the worker pool so a long
                        // batch never stalls the other connections.
                        conn.dispatched = true;
                        let job = Job {
                            token: token_of(index, conn.generation),
                            stream: Arc::clone(&conn.stream),
                            request,
                        };
                        self.in_flight += 1;
                        self.service.metrics().conn_dispatched();
                        self.shared.jobs.push(job);
                        return;
                    }
                    // Inline fast path: cheap requests (small exact
                    // closed-form predictions, metrics, topology) are
                    // answered on the reactor thread itself — one thread
                    // wakeup per request, no hand-off, no completion
                    // doorbell. This is what keeps warm
                    // single-request latency at thread-per-connection
                    // levels while idle connections scale past C10K.
                    let stream = Arc::clone(&conn.stream);
                    match crate::server::execute(&self.service, &stream, &request) {
                        Done::Written { keep_alive: true } => {
                            let conn = self.slots[index].as_mut().expect("live slot");
                            conn.last_activity = Instant::now();
                            continue; // next pipelined request, if buffered
                        }
                        Done::Written { keep_alive: false } | Done::Failed => {
                            self.close(index, CloseReason::Normal);
                            return;
                        }
                        Done::Partial { rest, keep_alive } => {
                            let conn = self.slots[index].as_mut().expect("live slot");
                            conn.wbuf = rest;
                            conn.wpos = 0;
                            conn.close_after_write = !keep_alive;
                            self.flush(index);
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(HttpError::Bad(msg)) => {
                    // Protocol violations get one best-effort 400, then
                    // close — framing is unreliable after a parse failure.
                    self.queue_error_close(index, &msg);
                    return;
                }
                Err(HttpError::Io(_)) => {
                    self.close(index, CloseReason::Normal);
                    return;
                }
            }
        }
        let conn = self.slots[index].as_ref().expect("live slot");
        if conn.peer_eof && !conn.dispatched && conn.wpos >= conn.wbuf.len() {
            self.close(index, CloseReason::Normal);
        }
    }

    /// Queue a reactor-generated 400 and close once it drains.
    fn queue_error_close(&mut self, index: usize, msg: &str) {
        let body = Json::Object(vec![("error".into(), Json::Str(msg.to_string()))]).to_compact();
        let mut bytes = Vec::with_capacity(128 + body.len());
        http::write_response(&mut bytes, 400, "application/json", &body, false)
            .expect("in-memory write");
        let conn = self.slots[index].as_mut().expect("live slot");
        conn.wbuf = bytes;
        conn.wpos = 0;
        conn.close_after_write = true;
        self.flush(index);
    }

    /// Push pending bytes out; arm/disarm `EPOLLOUT` as needed.
    fn flush(&mut self, index: usize) -> ConnFate {
        let conn = match &mut self.slots[index] {
            Some(c) => c,
            None => return ConnFate::Closed,
        };
        while conn.wpos < conn.wbuf.len() {
            match (&*conn.stream).write(&conn.wbuf[conn.wpos..]) {
                Ok(n) => conn.wpos += n,
                Err(e) if would_block(&e) => {
                    if !conn.epollout {
                        conn.epollout = true;
                        let token = token_of(index, conn.generation);
                        let _ = self.epoll.modify(
                            conn.stream.as_raw_fd(),
                            EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET,
                            token,
                        );
                    }
                    return ConnFate::Alive;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(index, CloseReason::Normal);
                    return ConnFate::Closed;
                }
            }
        }
        conn.wbuf.clear();
        conn.wpos = 0;
        conn.last_activity = Instant::now();
        if conn.epollout {
            conn.epollout = false;
            let token = token_of(index, conn.generation);
            let _ = self.epoll.modify(
                conn.stream.as_raw_fd(),
                EPOLLIN | EPOLLRDHUP | EPOLLET,
                token,
            );
        }
        if conn.close_after_write {
            self.close(index, CloseReason::Normal);
            return ConnFate::Closed;
        }
        // Response drained: the connection may already hold the next
        // pipelined request.
        self.pump(index);
        match self.slots[index] {
            Some(_) => ConnFate::Alive,
            None => ConnFate::Closed,
        }
    }

    // -- completions ---------------------------------------------------------

    fn process_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion queue poisoned"),
        );
        for Completion { token, done } in completions {
            self.in_flight -= 1;
            self.service.metrics().conn_undispatched();
            let Some(index) = self.lookup(token) else {
                // Connection died while the worker computed; its Arc clone
                // already closed the socket on drop.
                continue;
            };
            {
                let conn = self.slots[index].as_mut().expect("live slot");
                conn.dispatched = false;
                conn.last_activity = Instant::now();
            }
            match done {
                Done::Failed => self.close(index, CloseReason::Normal),
                Done::Written { keep_alive: false } => self.close(index, CloseReason::Normal),
                Done::Written { keep_alive: true } => {
                    // Reading may have been flow-controlled off mid-flight;
                    // resume and look for the next request.
                    self.pump(index);
                }
                Done::Partial { rest, keep_alive } => {
                    let conn = self.slots[index].as_mut().expect("live slot");
                    conn.wbuf = rest;
                    conn.wpos = 0;
                    conn.close_after_write = !keep_alive;
                    self.flush(index);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one raw request, as the reactor would have.
    fn request(method: &str, path: &str, body: &str) -> Request {
        let mut parser = RequestParser::new();
        parser.push(
            format!(
                "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        parser.poll().expect("parse").expect("complete request")
    }

    /// `text` with every `ch` spelled as a JSON unicode escape (backslash,
    /// `u`, four hex digits), which the decoder reads back as `ch`.
    fn escape(text: &str, ch: char) -> String {
        let backslash = char::from(0x5c);
        text.replace(ch, &format!("{backslash}u{:04x}", u32::from(ch)))
    }

    #[test]
    fn offload_rule_table() {
        const A2A: &str =
            r#""kind":"all_to_all","machine":{"p":32,"st":25,"so":200,"c2":0},"w":1000"#;
        const GENERAL: &str = r#""kind":"general","machine":{"p":8,"st":10,"so":100,"c2":2},"w":[300,300],"v":[[0,1],[1,0]]"#;
        let escaped_tol = format!(r#","{}":0.05"#, escape("max_rel_err", '_'));
        let escaped_general = GENERAL.replace("general", &escape("general", 'a'));
        let pad = " ".repeat(INLINE_MAX_BODY);
        // (case, scenario fields, request-level fields, offloaded?)
        let cases = [
            ("exact closed-form", A2A, "", false),
            ("tolerant", A2A, r#","max_rel_err":0.05"#, true),
            ("general", GENERAL, "", true),
            ("escaped tolerance key", A2A, &escaped_tol, true),
            ("escaped general kind", &escaped_general, "", true),
            ("over 3 KB", A2A, &pad, true),
        ];
        for (case, fields, extra, heavy) in cases {
            let single = format!("{{{fields}{extra}}}");
            let batch = format!(r#"{{"scenarios":[{{{fields}}}]{extra}}}"#);
            for (path, body) in [("/v1/predict", &single), ("/v1/predict/batch", &batch)] {
                assert_eq!(
                    offload(&request("POST", path, body)),
                    heavy,
                    "{case} on {path}"
                );
            }
        }
        // The escapes are real: the decoder reads them as the plain keys,
        // so these bodies are tolerant and General respectively.
        assert!(!escaped_tol.contains("max_rel_err"));
        assert!(!escaped_general.contains("general"));
        let doc = crate::json::parse(&format!("{{{A2A}{escaped_tol}}}")).unwrap();
        assert_eq!(crate::codec::max_rel_err_from_json(&doc), Ok(0.05));
        let doc = crate::json::parse(&format!("{{{escaped_general}}}")).unwrap();
        let scenario = crate::codec::scenario_from_json(&doc).unwrap();
        assert_eq!(scenario.kind(), "general");
        // Cell transfer always offloads; metrics and topology never do.
        assert!(offload(&request("GET", "/v1/cell/0-20-a", "")));
        assert!(offload(&request("POST", "/v1/cell/0-20-a", "{}")));
        assert!(!offload(&request("GET", "/metrics", "")));
        assert!(!offload(&request("GET", "/v1/cluster", "")));
    }

    #[test]
    fn drain_executes_jobs_stranded_after_workers_exit() {
        // Deterministic reconstruction of the shutdown race: the reactor
        // can dispatch a job while processing the event batch that
        // delivered the shutdown doorbell, after the last worker — seeing
        // the flag over a then-empty queue — has already exited. Build
        // that end state directly: one job queued, nobody to pop it, one
        // dispatch counted in flight. drain_and_exit must execute the
        // stranded job itself; if it only waited for a completion, it
        // would spin on the in-flight count forever.
        let service = Arc::new(Service::new(1, 16));
        let shared = Arc::new(Shared::new().expect("shared"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut reactor = Reactor::new(
            listener,
            Arc::clone(&service),
            Arc::clone(&shared),
            Duration::from_secs(30),
        )
        .expect("reactor");

        // A real socket pair so the stranded job has somewhere to write.
        let aux = TcpListener::bind("127.0.0.1:0").expect("bind aux");
        let client = TcpStream::connect(aux.local_addr().expect("addr")).expect("connect");
        let (server_side, _) = aux.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");

        let mut parser = RequestParser::new();
        parser.push(b"GET /metrics HTTP/1.1\r\n\r\n");
        let request = parser.poll().expect("parse").expect("complete request");

        reactor.in_flight = 1;
        shared.jobs.push(Job {
            token: token_of(0, 0),
            stream: Arc::new(server_side),
            request,
        });
        shared.shutdown.store(true, Ordering::Release);
        shared.wake.signal();

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            reactor.run();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("drain hung on the stranded job");

        // Executed, not dropped: the peer receives the response.
        use std::io::Read;
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut status = [0u8; 12];
        (&client).read_exact(&mut status).expect("read response");
        assert_eq!(&status, b"HTTP/1.1 200");
    }

    #[test]
    fn timer_wheel_next_wait_survives_u32_tick_counts() {
        let epoch = Instant::now();
        // idle_timeout of 32 ms gives the minimum 1 ms tick.
        let mut wheel = TimerWheel::new(Duration::from_millis(32), epoch);
        assert_eq!(wheel.tick, Duration::from_millis(1));
        // Past 2^32 ticks (~49.7 days of 1 ms ticks) the old u32 deadline
        // math wrapped to an instant in the past, waking the reactor every
        // tick forever.
        wheel.cursor = (1u64 << 32) + 5;
        wheel.len = 1;
        let wait = wheel.next_wait(epoch).expect("entry scheduled");
        assert!(
            wait > Duration::from_secs(40 * 24 * 3600),
            "next_wait truncated the cursor: {wait:?}"
        );
    }
}
