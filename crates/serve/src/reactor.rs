//! The readiness-driven connection core: `workers` reactor threads, each
//! multiplexing its own connections over epoll and running their requests
//! inline.
//!
//! Division of labour (see DESIGN.md §11):
//!
//! * every **reactor** owns a disjoint set of connections — non-blocking
//!   sockets, the per-connection [`RequestParser`] state machine (reading
//!   → parsing → handling → writing), the idle-timeout timer wheel,
//!   accept and teardown. It runs each complete request's handler itself
//!   and writes the response through [`Reactor::flush`]: one thread wakeup
//!   per request, no hand-off.
//! * connections are **dealt**, not hashed: every reactor polls the one
//!   listener, and the n-th accepted connection (a shared atomic ticket)
//!   belongs to reactor n mod N. A connection accepted by another reactor
//!   reaches its owner through that owner's inbox, rung by its wake
//!   [`EventFd`].
//! * no handler step waits on the network (a node never contacts another
//!   node), and one rule keeps inline handling fair: a connection is
//!   served at most one request per loop pass (pipelined follow-ups wait
//!   on the re-pump list while the other connections get their turn).
//! * **shutdown is an event**: flag + doorbells. Requests run inline, so a
//!   reactor that sees the flag has nothing in flight: it closes the
//!   listener registration and its connections, and exits — no polling,
//!   no sleeps.
//!
//! Connections are identified by a 64-bit token (slab index + generation)
//! carried in the epoll event payload; stale tokens from a recycled slot
//! fail the generation check and are ignored, so late events, re-pumps or
//! timer entries can never touch the wrong connection.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, HttpError, RequestParser};
use crate::json::Json;
use crate::server::Service;
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Epoll tag for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll tag for the reactor's wake eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;

/// Reactor-side read chunk.
const READ_CHUNK: usize = 16 * 1024;

/// Most bytes one [`Reactor::pump`] call reads before yielding. Without a
/// cap, a peer that delivers data as fast as the reactor can read it
/// (localhost, fast LAN) keeps its socket perpetually readable and starves
/// every other connection. A capped pump parks the connection on the
/// re-pump list instead and resumes on the next loop pass — after the
/// rest of the event batch has been served.
const PUMP_BUDGET: usize = 256 * 1024;

/// One reactor's mailbox: connections dealt to it by another reactor's
/// accept, and the doorbell that announces them (and shutdown).
struct Mailbox {
    wake: EventFd,
    inbox: Mutex<Vec<TcpStream>>,
}

/// State shared between the reactors and the server handle.
pub(crate) struct Shared {
    pub shutdown: AtomicBool,
    /// Accept ticket: the n-th accepted connection belongs to reactor
    /// n mod N.
    ticket: AtomicUsize,
    /// One per reactor, indexed by reactor id.
    mailboxes: Vec<Mailbox>,
}

impl Shared {
    /// Shared state for `reactors` reactors.
    pub fn new(reactors: usize) -> std::io::Result<Shared> {
        Ok(Shared {
            shutdown: AtomicBool::new(false),
            ticket: AtomicUsize::new(0),
            mailboxes: (0..reactors)
                .map(|_| {
                    Ok(Mailbox {
                        wake: EventFd::new()?,
                        inbox: Mutex::new(Vec::new()),
                    })
                })
                .collect::<std::io::Result<_>>()?,
        })
    }

    /// Flag shutdown and ring every reactor's doorbell.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        for mailbox in &self.mailboxes {
            mailbox.wake.signal();
        }
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
    stream: TcpStream,
    generation: u32,
    parser: RequestParser,
    /// Pending response bytes, plus the write cursor into them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Close once `wbuf` drains (response said `Connection: close`, or a
    /// framing error was answered).
    close_after_write: bool,
    /// Peer closed its write half; close once buffered requests drain.
    peer_eof: bool,
    /// On the re-pump list: its next turn comes from there.
    parked: bool,
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
    /// This reactor's index into the shared mailboxes.
    id: usize,
    epoll: Epoll,
    listener: Arc<TcpListener>,
    service: Arc<Service>,
    shared: Arc<Shared>,
    idle_timeout: Duration,
    slots: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    wheel: TimerWheel,
    /// Connections owed another turn: a pipelined follow-up may be
    /// buffered, or the pump hit [`PUMP_BUDGET`] with data likely still
    /// queued (edge-triggered epoll will not re-announce bytes that were
    /// already readable). Served on the next loop pass.
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
        id: usize,
        listener: Arc<TcpListener>,
        service: Arc<Service>,
        shared: Arc<Shared>,
        idle_timeout: Duration,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(shared.mailboxes[id].wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        Ok(Reactor {
            id,
            epoll,
            listener,
            service,
            shared,
            idle_timeout,
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(idle_timeout, Instant::now()),
            repump: Vec::new(),
            listener_resume: None,
        })
    }

    /// The event loop. Runs until shutdown is flagged, then tears
    /// everything down.
    pub fn run(mut self) {
        let mut events = vec![EpollEvent::default(); EVENT_BATCH];
        while !self.shared.shutdown.load(Ordering::Acquire) {
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
            // Connections parked on an earlier pass take their turn after
            // this pass's events; anything parked from here on waits for
            // the next pass, so no connection is served twice in one.
            let parked = std::mem::take(&mut self.repump);
            for ev in &events[..n] {
                // Copy out of the (packed) event before matching.
                let (data, ready) = (ev.data, ev.events);
                match data {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.take_inbox(),
                    token => self.conn_event(token, ready),
                }
            }
            for token in parked {
                if let Some(index) = self.lookup(token) {
                    self.slots[index].as_mut().expect("live slot").parked = false;
                    self.pump(index);
                }
            }
            self.expire_idle(Instant::now());
        }
        self.drain_and_exit();
    }

    /// Shutdown path: stop accepting and close every connection, including
    /// any dealt to this reactor but not yet registered. No request is in
    /// flight — handlers run on this thread — so nothing is waited for.
    fn drain_and_exit(mut self) {
        let _ = self.epoll.del(self.listener.as_raw_fd());
        for index in 0..self.slots.len() {
            self.close(index, CloseReason::Normal);
        }
        self.shared.mailboxes[self.id]
            .inbox
            .lock()
            .expect("inbox poisoned")
            .clear();
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
                Ok((stream, _)) => {
                    let owner = self.shared.ticket.fetch_add(1, Ordering::Relaxed)
                        % self.shared.mailboxes.len();
                    if owner == self.id {
                        self.register(stream);
                    } else {
                        let mailbox = &self.shared.mailboxes[owner];
                        mailbox.inbox.lock().expect("inbox poisoned").push(stream);
                        mailbox.wake.signal();
                    }
                }
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

    /// The doorbell rang: register the connections other reactors dealt
    /// to this one.
    fn take_inbox(&mut self) {
        let mailbox = &self.shared.mailboxes[self.id];
        mailbox.wake.drain();
        let dealt = std::mem::take(&mut *mailbox.inbox.lock().expect("inbox poisoned"));
        for stream in dealt {
            self.register(stream);
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
        if self
            .epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP | EPOLLET, token)
            .is_err()
        {
            self.free.push(index);
            return;
        }
        self.slots[index] = Some(Conn {
            stream,
            generation,
            parser: RequestParser::new(),
            wbuf: Vec::new(),
            wpos: 0,
            close_after_write: false,
            peer_eof: false,
            parked: false,
            epollout: false,
            timer_armed: false,
            last_activity: now,
        });
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
        // Dropping the stream closes the fd; stale tokens then miss the
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
            let busy = conn.wpos < conn.wbuf.len();
            if !busy && idle_for >= self.idle_timeout {
                // Genuinely idle past the deadline: close. The FIN gives
                // the peer a clean EOF on its next read.
                self.close(index, CloseReason::IdleTimeout);
            } else {
                // Saw activity since scheduling (or mid-response): push the
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
            self.close(index, CloseReason::Normal);
            return;
        }
        if events & EPOLLOUT != 0 && matches!(self.flush(index), ConnFate::Closed) {
            return;
        }
        // Readable, or a drained response freed the connection for its
        // next request. A parked connection gets its turn from the re-pump
        // list instead.
        if !self.slots[index].as_ref().expect("live slot").parked {
            self.pump(index);
        }
    }

    /// One turn of a connection: serve a request the parser already holds,
    /// or else read what the socket has and serve the request that
    /// completes. At most one request per turn either way, and the socket
    /// is read only when no complete request is buffered — so a
    /// connection buffers at most one read budget beyond its current
    /// request however fast its peer pipelines.
    fn pump(&mut self, index: usize) {
        if self.serve(index, false) {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = PUMP_BUDGET;
        let drained = loop {
            let Some(conn) = &mut self.slots[index] else {
                return;
            };
            if budget == 0 {
                break false;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break true;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    conn.parser.push(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if would_block(&e) => break true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(index, CloseReason::Normal);
                    return;
                }
            }
        };
        if !self.serve(index, drained) && !drained {
            // Budget spent mid-request: read on in the next pass.
            self.park(index);
        }
    }

    /// Serve the next buffered request inline, if the connection is free
    /// and one is complete; apply EOF once nothing complete is left.
    /// `drained`: the socket was just read to `EAGAIN` or EOF, so
    /// edge-triggered epoll announces any further bytes — otherwise a
    /// served connection is parked so its socket is read next pass.
    /// Returns whether this turn is over: a request was served, the
    /// connection is still writing, or it closed.
    fn serve(&mut self, index: usize, drained: bool) -> bool {
        let Some(conn) = &mut self.slots[index] else {
            return true;
        };
        if conn.wpos < conn.wbuf.len() || conn.close_after_write {
            // Still writing: the EPOLLOUT drain gives the next turn.
            return true;
        }
        let request = match conn.parser.poll() {
            Ok(Some(request)) => request,
            Ok(None) if conn.peer_eof => {
                self.close(index, CloseReason::Normal);
                return true;
            }
            Ok(None) => return false,
            Err(HttpError::Bad(msg)) => {
                // Protocol violations get one best-effort 400, then
                // close — framing is unreliable after a parse failure.
                self.queue_error_close(index, &msg);
                return true;
            }
            Err(HttpError::Io(_)) => {
                self.close(index, CloseReason::Normal);
                return true;
            }
        };
        let metrics = self.service.metrics();
        metrics.conn_dispatched();
        let answered = crate::server::respond(&self.service, &request, &mut conn.wbuf);
        metrics.conn_undispatched();
        if !answered {
            // The handler panicked: cost one connection, not the reactor.
            self.close(index, CloseReason::Normal);
            return true;
        }
        conn.wpos = 0;
        conn.close_after_write = !request.keep_alive;
        if matches!(self.flush(index), ConnFate::Alive) {
            let conn = self.slots[index].as_ref().expect("live slot");
            let more = !drained || conn.peer_eof || conn.parser.buffered() > 0;
            if more && conn.wbuf.is_empty() {
                self.park(index);
            }
        }
        true
    }

    /// Put a connection on the re-pump list for its next turn.
    fn park(&mut self, index: usize) {
        let conn = self.slots[index].as_mut().expect("live slot");
        if !conn.parked {
            conn.parked = true;
            self.repump.push(token_of(index, conn.generation));
        }
    }

    /// Queue a reactor-generated 400 and close once it drains.
    fn queue_error_close(&mut self, index: usize, msg: &str) {
        let body = Json::Object(vec![("error".into(), Json::Str(msg.to_string()))]).to_compact();
        let conn = self.slots[index].as_mut().expect("live slot");
        conn.wbuf.clear();
        http::write_response(&mut conn.wbuf, 400, "application/json", &body, false)
            .expect("in-memory write");
        conn.wpos = 0;
        conn.close_after_write = true;
        self.flush(index);
    }

    /// Push pending response bytes out — the one place a response reaches
    /// a socket — arming `EPOLLOUT` while the socket buffer is full.
    fn flush(&mut self, index: usize) -> ConnFate {
        let conn = match &mut self.slots[index] {
            Some(c) => c,
            None => return ConnFate::Closed,
        };
        while conn.wpos < conn.wbuf.len() {
            match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
                Ok(n) if n > 0 => conn.wpos += n,
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
                _ => {
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
        ConnFate::Alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
