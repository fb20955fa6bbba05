//! The cluster tier: consistent-hash sharding of the solution/
//! interpolation cache across N `lopc-serve` nodes (DESIGN.md §15).
//!
//! One node is both the throughput ceiling and a single point of failure.
//! This module removes both without weakening the exactness contract:
//!
//! * **Ring** — every node (and every routing client) builds the same
//!   [`HashRing`] over the member addresses: [`VNODES`] virtual points per
//!   node, placed by [`ring_hash`] over `"{addr}#{replica}"`. A request
//!   routes by [`route_hash`]: a tolerant request that would consult an
//!   interpolation cell routes by that cell's key
//!   ([`serving_cell_hash`]), so every lane of a sweep that lands in one
//!   cell meets the one node holding it; anything else routes by the
//!   hash of its exact cache key ([`scenario_hash`]). Either way
//!   the same request lands on the same node from any client — cache
//!   locality without coordination — as long as clients and nodes run
//!   the same build: the hash is the keys' own, not a published function.
//! * **Ownership is locality, not authority.** Every node can solve every
//!   scenario exactly; the ring only decides where cache and cell state
//!   *accumulates*. Killing a node therefore degrades capacity, never
//!   correctness: requests rehash to the survivors, which simply solve
//!   colder.
//! * **Share-nothing nodes** — each cell has one *home*, its ring owner.
//!   Routed traffic builds every cell at its home. A request that reaches
//!   another node (sent there directly, or failed over) is answered from
//!   that node's own caches, building the cell there if need be. A node
//!   never opens a connection to another node, so no handler step waits on
//!   the network, and what a node answers depends on no other node.
//! * **Node health** — the routing client detects failure lazily: the
//!   first failed request to a node marks it down for a cooldown, requests
//!   rehash to ring survivors, and once the cooldown elapses a **single**
//!   caller re-probes it (half-open: a CAS-guarded probe token admits
//!   exactly one in-flight probe; everyone else keeps routing to survivors
//!   until the probe succeeds), so recovery needs no operator action and a
//!   still-dead node never eats a whole wave.
//! * **Pipelined wave** — a routed batch partitions its lanes by owner
//!   and puts every per-owner sub-batch in flight at once: it writes them
//!   back to back over pooled per-node connections, then reads the
//!   replies in the same order, reassembling them in request order. No
//!   thread is spawned. The LoPC lesson applied to ourselves: a serial
//!   router is a contended server, and the queueing delay it
//!   manufactures is pure self-inflicted FRC. Failover stays wave-
//!   synchronous — a sub-batch that dies re-partitions its lanes onto
//!   ring survivors only after the in-flight wave completes. A routed
//!   single is a one-lane wave.
//!
//! Membership is static per process (the `--peer` flags); health is a
//! per-client judgment, not gossip — two clients may briefly disagree
//! about a flapping node, and that is fine because any node can serve any
//! key.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cache::CacheKey;
use crate::client::{
    batch_predictions_from_response, batch_request_body, AttemptError, Client, ClientConfig,
    ClientError,
};
use crate::interp::serving_cell_hash;
use crate::json::Json;
use lopc_core::{Prediction, Scenario};

/// Virtual points per node on the ring. Enough that a 3–16 node ring
/// balances within a few percent; small enough that ring construction and
/// the per-request binary search stay trivial.
pub const VNODES: usize = 64;

/// How long a node stays marked down before the next request is allowed
/// to re-probe it (half-open recovery).
pub const DEFAULT_COOLDOWN: Duration = Duration::from_secs(1);

/// Hash for ring point placement: FNV-1a over the bytes, finished with a
/// SplitMix64-style avalanche so vnode points spread uniformly even for
/// near-identical address strings.
pub fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// A consistent-hash ring with virtual nodes. Construction is
/// deterministic in the member *set* (addresses are sorted and deduped),
/// so every node and client derives the identical ring from the identical
/// membership — the property the whole tier rests on.
#[derive(Clone, Debug)]
pub struct HashRing {
    nodes: Vec<String>,
    /// `(point, node index)`, sorted by point.
    points: Vec<(u64, u32)>,
    vnodes: usize,
}

impl HashRing {
    /// Build the ring over `members` with `vnodes` virtual points each.
    pub fn new(mut members: Vec<String>, vnodes: usize) -> HashRing {
        members.sort();
        members.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for (idx, addr) in members.iter().enumerate() {
            for replica in 0..vnodes {
                points.push((
                    ring_hash(format!("{addr}#{replica}").as_bytes()),
                    idx as u32,
                ));
            }
        }
        points.sort_unstable();
        HashRing {
            nodes: members,
            points,
            vnodes,
        }
    }

    /// The member addresses, in ring (sorted) order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a ring with no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Virtual points per node.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Index (into [`HashRing::nodes`]) of the key's owner: the node of
    /// the first ring point clockwise of `key_hash`. One binary search —
    /// the batch router calls this per lane, so it must not pay the full
    /// [`HashRing::preference`] walk.
    pub fn owner(&self, key_hash: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(p, _)| p < key_hash);
        Some(self.points[start % self.points.len()].1 as usize)
    }

    /// All member indices in clockwise preference order from `key_hash`:
    /// the owner first, then each distinct successor. Callers that skip
    /// dead nodes walk this list — that *is* the "rehash to survivors"
    /// rule, and it is deterministic for a given key and liveness view.
    pub fn preference(&self, key_hash: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < key_hash);
        let mut seen = vec![false; self.nodes.len()];
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !seen[idx as usize] {
                seen[idx as usize] = true;
                order.push(idx as usize);
                if order.len() == self.nodes.len() {
                    break;
                }
            }
        }
        order
    }
}

/// The routing hash of one scenario: [`CacheKey::hash64`] of its exact
/// cache key, computed without building the key. The same value picks the
/// node's shard and slot. Float-noise neighbours are distinct keys and may
/// live on different nodes; each gets its own solve wherever it lands.
/// Shared by servers and clients — both sides must agree where a scenario
/// lives, so they must run the same build.
pub fn scenario_hash(scenario: &Scenario) -> u64 {
    CacheKey::hash_of(scenario)
}

/// The routing hash of one request (or batch lane) at `max_rel_err`: the
/// [`CellKey::hash64`](crate::interp::CellKey::hash64) of the
/// interpolation cell that would answer it, or [`scenario_hash`] when it
/// would not consult a cell. Exact mode always routes by
/// [`scenario_hash`]. One key and one hash pass per lane, with no
/// allocation; a node hashing the same lane gets the same value, so
/// router and nodes must run the same build.
pub fn route_hash(scenario: &Scenario, max_rel_err: f64) -> u64 {
    serving_cell_hash(scenario, max_rel_err).unwrap_or_else(|| scenario_hash(scenario))
}

/// How a [`Health::claim`] admitted the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Claim {
    /// The target is believed healthy; any number of callers may use it.
    Up,
    /// The target is half-open and the caller won the probe token: it is
    /// the *only* in-flight probe, and its request's outcome (via
    /// [`Health::mark_up`] / [`Health::mark_down`]) releases the token.
    Probe,
}

/// Lazy liveness for one route target: down-for-a-cooldown on transport
/// failure, half-open re-probe admission after.
///
/// The half-open state is the part that needs care under concurrency:
/// the instant a cooldown elapses, *every* concurrent caller used to be
/// allowed to re-probe — with a concurrent fan-out, a whole wave could
/// pile onto a still-dead node and stall on its connect timeouts. The
/// probe token (a CAS on `probing`) admits exactly one caller; everyone
/// else keeps treating the target as down — routing to survivors — until
/// the probe's own request succeeds and clears `down_until`.
struct Health {
    /// `Some(t)` = considered down until `t` (then half-open).
    down_until: Mutex<Option<Instant>>,
    /// Set while one half-open probe is in flight.
    probing: AtomicBool,
}

impl Health {
    fn new() -> Health {
        Health {
            down_until: Mutex::new(None),
            probing: AtomicBool::new(false),
        }
    }

    /// Could a request route here right now without stealing the probe
    /// token? (A side-effect-free peek for partitioning decisions; the
    /// actual admission happens in [`Health::claim`] at dispatch time.)
    fn selectable(&self, now: Instant) -> bool {
        match *self.down_until.lock().expect("health poisoned") {
            None => true,
            Some(t) => now >= t && !self.probing.load(Ordering::Acquire),
        }
    }

    /// Admit the caller for one request: `Up` for a healthy target,
    /// `Probe` for the single winner on a half-open one, `None` for a
    /// cooling-down target (or a half-open one whose token is taken). A
    /// claim is released by the request's outcome: every attempt must end
    /// in [`Health::mark_up`] or [`Health::mark_down`].
    fn claim(&self, now: Instant) -> Option<Claim> {
        match *self.down_until.lock().expect("health poisoned") {
            None => Some(Claim::Up),
            Some(t) if now >= t => self
                .probing
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
                .then_some(Claim::Probe),
            Some(_) => None,
        }
    }

    fn mark_up(&self) {
        *self.down_until.lock().expect("health poisoned") = None;
        self.probing.store(false, Ordering::Release);
    }

    fn mark_down(&self, cooldown: Duration) {
        *self.down_until.lock().expect("health poisoned") = Some(Instant::now() + cooldown);
        self.probing.store(false, Ordering::Release);
    }
}

/// Server-side cluster state: this node's identity and the ring it
/// publishes. One per server process. A node never contacts its peers;
/// the member list exists only for the routing clients that read it from
/// `GET /v1/cluster`.
pub struct ClusterState {
    self_addr: String,
    ring: HashRing,
}

impl ClusterState {
    /// Build the cluster state for a node advertising `self_addr`, peered
    /// with `peer_addrs`, on a ring of [`VNODES`] points per node. With no
    /// peers this is a degenerate one-node cluster — the topology endpoint
    /// and metrics stay well-formed.
    pub fn new(self_addr: String, peer_addrs: &[String]) -> ClusterState {
        let mut members: Vec<String> = peer_addrs.to_vec();
        members.push(self_addr.clone());
        ClusterState {
            self_addr,
            ring: HashRing::new(members, VNODES),
        }
    }

    /// The address this node advertises as its ring identity.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// The shared ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Always 0: nodes never exchange cells. Kept so callers written
    /// against the former node-to-node cell transfer still compile.
    pub fn cells_shipped(&self) -> u64 {
        0
    }

    /// The `GET /v1/cluster` topology document: identity, membership, and
    /// ring geometry — enough for a client to rebuild the exact ring.
    pub fn topology_json(&self) -> Json {
        Json::Object(vec![
            ("self".into(), Json::Str(self.self_addr.clone())),
            (
                "nodes".into(),
                Json::Array(
                    self.ring
                        .nodes()
                        .iter()
                        .map(|a| Json::Str(a.clone()))
                        .collect(),
                ),
            ),
            ("vnodes".into(), Json::Num(self.ring.vnodes() as f64)),
        ])
    }
}

/// The error for a batch (or single request) that found no live member.
fn no_reachable_node() -> ClientError {
    ClientError::Io(io::Error::new(
        io::ErrorKind::NotConnected,
        "no reachable cluster node",
    ))
}

/// One route target of a [`ClusterClient`]: a pooled keep-alive connection
/// (lazily dialed, redialed after a transport error) plus the client's
/// health view of the node. Both live behind shared-state cells so one
/// client can be shared by many calling threads.
struct RouteNode {
    addr: String,
    sock: Option<SocketAddr>,
    conn: Mutex<Option<Client>>,
    health: Health,
}

/// A cluster-aware client: fetches the topology from a seed node, rebuilds
/// the ring, and routes every request (and every batch lane) to the owner
/// of its [`route_hash`] — sending one pipelined wave of per-owner
/// sub-batches and reassembling the responses in request order; a single
/// request is a one-lane wave. Node failures are detected lazily (the
/// failing request reroutes to the ring survivors) and healed by a single
/// half-open probe after a cooldown. All routing methods take `&self`:
/// the client is shareable across threads.
pub struct ClusterClient {
    nodes: Vec<RouteNode>,
    ring: HashRing,
    config: ClientConfig,
    cooldown: Duration,
}

impl ClusterClient {
    /// Connect to any cluster member and learn the topology from it.
    pub fn connect(seed: SocketAddr) -> Result<ClusterClient, ClientError> {
        Self::connect_with(seed, ClientConfig::default())
    }

    /// [`ClusterClient::connect`] with explicit per-connection tunables.
    pub fn connect_with(
        seed: SocketAddr,
        config: ClientConfig,
    ) -> Result<ClusterClient, ClientError> {
        let mut seed_client = Client::connect_with(seed, config)?;
        let doc = seed_client.request_json("GET", "/v1/cluster", b"")?;
        let members: Vec<String> = doc
            .get("nodes")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("topology missing \"nodes\"".into()))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| ClientError::Protocol("node entries must be strings".into()))
            })
            .collect::<Result<_, _>>()?;
        if members.is_empty() {
            return Err(ClientError::Protocol("topology has no nodes".into()));
        }
        let vnodes = doc
            .get("vnodes")
            .and_then(Json::as_num)
            .filter(|v| (1.0..=4096.0).contains(v))
            .ok_or_else(|| ClientError::Protocol("topology missing \"vnodes\"".into()))?
            as usize;
        let ring = HashRing::new(members, vnodes);
        let nodes = ring
            .nodes()
            .iter()
            .map(|addr| RouteNode {
                addr: addr.clone(),
                sock: addr.parse().ok(),
                conn: Mutex::new(None),
                health: Health::new(),
            })
            .collect();
        Ok(ClusterClient {
            nodes,
            ring,
            config,
            cooldown: DEFAULT_COOLDOWN,
        })
    }

    /// The cluster members, in ring order.
    pub fn members(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.addr.clone()).collect()
    }

    /// Shrink (or stretch) the down-node cooldown — a knob for tests that
    /// exercise the half-open probe path without waiting out the default.
    pub fn set_cooldown(&mut self, cooldown: Duration) {
        self.cooldown = cooldown;
    }

    /// The address an exact-mode request for `scenario` routes to under
    /// the client's current liveness view (tests use this to assert
    /// rerouting).
    pub fn owner_of(&self, scenario: &Scenario) -> Option<&str> {
        let now = Instant::now();
        let hash = scenario_hash(scenario);
        self.ring
            .preference(hash)
            .into_iter()
            .find(|&i| self.nodes[i].health.selectable(now))
            .or_else(|| self.ring.owner(hash))
            .map(|i| self.nodes[i].addr.as_str())
    }

    /// Route one exact-mode prediction to its owner.
    pub fn predict(&self, scenario: &Scenario) -> Result<Prediction, ClientError> {
        self.predict_within(scenario, 0.0)
    }

    /// Route one prediction (with tolerance) to its owner: by
    /// [`route_hash`], so a tolerant request goes to the home of the cell
    /// that answers it. A single is a one-lane wave of
    /// [`ClusterClient::predict_batch_within`] — same routing, failover
    /// and replay rules.
    pub fn predict_within(
        &self,
        scenario: &Scenario,
        max_rel_err: f64,
    ) -> Result<Prediction, ClientError> {
        let mut answers = self.predict_batch_within(std::slice::from_ref(scenario), max_rel_err)?;
        Ok(answers.pop().expect("one lane"))
    }

    /// Route a batch: lanes are partitioned by owner and every sub-batch
    /// flies **concurrently** — written back to back on each owner's
    /// pooled connection, then read back in the same order (no threads),
    /// with the responses reassembled in request order by lane index. A
    /// sub-batch that dies on a failing node has its lanes re-partitioned
    /// onto the ring survivors *after* the in-flight wave completes; a
    /// [`ClientError::Status`] answer (bad request, unsolvable lane)
    /// aborts the whole batch, mirroring the single-node endpoint's
    /// semantics.
    pub fn predict_batch(&self, scenarios: &[Scenario]) -> Result<Vec<Prediction>, ClientError> {
        self.predict_batch_within(scenarios, 0.0)
    }

    /// [`ClusterClient::predict_batch`] with a tolerance applied to every
    /// lane. Lanes are placed by [`route_hash`]: each tolerant lane goes to
    /// the home of the cell that answers it.
    pub fn predict_batch_within(
        &self,
        scenarios: &[Scenario],
        max_rel_err: f64,
    ) -> Result<Vec<Prediction>, ClientError> {
        let n = scenarios.len();
        let hashes: Vec<u64> = scenarios
            .iter()
            .map(|s| route_hash(s, max_rel_err))
            .collect();
        let mut out: Vec<Option<Prediction>> = vec![None; n];
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut last_err: Option<ClientError> = None;
        // Each full round either finishes or marks at least one node
        // down, so `members + 1` rounds always suffice.
        for _round in 0..=self.nodes.len() {
            if remaining.is_empty() {
                break;
            }
            // Partition the outstanding lanes by their current owner —
            // the first selectable node in each lane's preference order.
            // A lane with no selectable member falls back to its ring
            // owner as a forced probe (the client looks fully
            // partitioned; only re-dialing heals).
            let now = Instant::now();
            // One liveness snapshot per round, not per lane: a consistent
            // partition and three mutex reads instead of sixty-four.
            // `run_wave` re-checks each target via `claim` anyway, so a
            // node dying between snapshot and send is still caught.
            let selectable: Vec<bool> = self
                .nodes
                .iter()
                .map(|node| node.health.selectable(now))
                .collect();
            let mut groups: Vec<(usize, bool, Vec<usize>)> = Vec::new();
            for &lane in &remaining {
                let hash = hashes[lane];
                // Fast path: the ring owner (one binary search) is
                // selectable — true for every lane on a healthy ring. The
                // full preference walk only runs while failing over.
                let ring_owner = self.ring.owner(hash).ok_or_else(no_reachable_node)?;
                let (owner, forced) = if selectable[ring_owner] {
                    (ring_owner, false)
                } else {
                    match self
                        .ring
                        .preference(hash)
                        .into_iter()
                        .find(|&i| selectable[i])
                    {
                        Some(i) => (i, false),
                        None => (ring_owner, true),
                    }
                };
                match groups.iter_mut().find(|(idx, _, _)| *idx == owner) {
                    Some((_, f, lanes)) => {
                        *f |= forced;
                        lanes.push(lane);
                    }
                    None => groups.push((owner, forced, vec![lane])),
                }
            }
            let mut round_failed = false;
            for (owner, lanes, result) in self.run_wave(scenarios, groups, max_rel_err) {
                match result {
                    Ok(preds) => {
                        if preds.len() != lanes.len() {
                            return Err(ClientError::Protocol(format!(
                                "node {} answered {} predictions for {} lanes",
                                self.nodes[owner].addr,
                                preds.len(),
                                lanes.len()
                            )));
                        }
                        for (lane, p) in lanes.into_iter().zip(preds) {
                            if out[lane].replace(p).is_some() {
                                return Err(ClientError::Protocol(format!(
                                    "lane {lane} was answered twice"
                                )));
                            }
                        }
                    }
                    Err(e @ ClientError::Status(..)) => return Err(e),
                    Err(e) => {
                        round_failed = true;
                        last_err = Some(e);
                    }
                }
            }
            remaining.retain(|&i| out[i].is_none());
            if !remaining.is_empty() && !round_failed {
                // No sub-batch failed yet nothing progressed: impossible
                // by construction, but never loop silently.
                return Err(ClientError::Protocol(
                    "batch routing made no progress".into(),
                ));
            }
        }
        if !remaining.is_empty() {
            // Every replica of some lane's preference list stayed down
            // through every round: surface the transport error.
            return Err(last_err.unwrap_or_else(no_reachable_node));
        }
        Ok(out.into_iter().map(|p| p.expect("checked above")).collect())
    }

    /// One concurrent wave: every per-owner sub-batch in flight at once,
    /// pipelined over the pooled connections — phase one *sends* every
    /// sub-batch (each owner's request written back to back, no waiting),
    /// phase two *receives* them in the same order. The servers overlap
    /// their work the moment their request lands, while the client is
    /// still writing the rest of the wave; no threads are spawned, so the
    /// wave costs no scheduling on small hosts (a scoped-thread variant
    /// measured ~2x *slower* on a 1-core client from spawn + timeslice
    /// thrash, and sequential round trips pay the full ping-pong latency
    /// per owner — pipelining beat both). Sub-batches borrow their lanes:
    /// the wave clones zero scenarios.
    ///
    /// Failure contract, per connection: a send-side or
    /// pre-response-byte failure on a connection that was pooled before
    /// the wave consumed nothing, so a retryable one is replayed
    /// synchronously on a fresh connection (the stale keep-alive race). A
    /// connection dialed in this wave has no such race — the node itself
    /// failed — so its error surfaces unreplayed, like any error after a
    /// response byte, and the lanes re-partition onto survivors in the
    /// next round, after the whole wave has landed.
    #[allow(clippy::type_complexity)]
    fn run_wave(
        &self,
        scenarios: &[Scenario],
        mut groups: Vec<(usize, bool, Vec<usize>)>,
        max_rel_err: f64,
    ) -> Vec<(usize, Vec<usize>, Result<Vec<Prediction>, ClientError>)> {
        // Ascending node order is the global connection-lock order:
        // concurrent batch callers acquire pool slots without deadlock.
        groups.sort_unstable_by_key(|&(owner, _, _)| owner);
        enum Sent {
            /// The request is on the wire (or at least fully buffered).
            Flying,
            /// Dialing the node failed: nothing to receive, no replay.
            DialFailed(ClientError),
            /// Writing failed: nothing of the response was consumed.
            SendFailed(ClientError),
            /// Never sent, no connection held: the body is over the cap
            /// (a 400), or the half-open probe token went to another
            /// caller between partitioning and dispatch (retryable).
            Unsent(ClientError),
        }
        // Phase one: put every sub-batch in flight.
        let mut wave = Vec::with_capacity(groups.len());
        for (owner, forced, lanes) in groups {
            let node = &self.nodes[owner];
            let sub: Vec<&Scenario> = lanes.iter().map(|&i| &scenarios[i]).collect();
            let body = batch_request_body(&sub, max_rel_err);
            // A sub-batch over the body cap is the server's 400 without a
            // dial or a claim: the node's health is not in question.
            // Otherwise claim at dispatch time, not partition time: a
            // half-open node admits exactly one probe across all
            // concurrent callers (forced groups bypass the gate — every
            // member is down and only re-dialing heals).
            let unsent = match crate::http::body_over_cap(body.len()) {
                Some(refusal) => Some(ClientError::Status(400, refusal)),
                None if !forced && node.health.claim(Instant::now()).is_none() => {
                    Some(ClientError::Io(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "node went down (or its probe was taken) mid-partition",
                    )))
                }
                None => None,
            };
            if let Some(e) = unsent {
                wave.push((owner, lanes, sub, None, false, Sent::Unsent(e)));
                continue;
            }
            let mut guard = node.conn.lock().expect("node conn poisoned");
            // Only a connection that outlived an earlier exchange can have
            // been idle-closed under this one.
            let warm = guard.as_ref().is_some_and(Client::is_connected);
            let sent = (|| {
                let Some(sock) = node.sock else {
                    return Sent::DialFailed(ClientError::Io(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("node address {:?} is not a socket address", node.addr),
                    )));
                };
                if guard.is_none() {
                    match Client::connect_with(sock, self.config) {
                        Ok(client) => *guard = Some(client),
                        Err(e) => return Sent::DialFailed(e),
                    }
                }
                let client = guard.as_mut().expect("just dialed");
                match client.pipeline_send("POST", "/v1/predict/batch", body.as_bytes()) {
                    Ok(()) => Sent::Flying,
                    Err(e) => Sent::SendFailed(e),
                }
            })();
            wave.push((owner, lanes, sub, Some(guard), warm, sent));
        }
        // Phase two: collect the responses, applying the per-connection
        // replay gate, and settle each node's health from its outcome.
        wave.into_iter()
            .map(|(owner, lanes, sub, guard, warm, sent)| {
                let node = &self.nodes[owner];
                // An unsent sub-batch never touched the node: no
                // connection, no health verdict (marking down after a
                // lost claim would clobber the *winning* prober's token).
                // A lost claim is retryable, so its lanes re-partition
                // next round; a refused body fails the batch.
                let Some(mut guard) = guard else {
                    let Sent::Unsent(e) = sent else {
                        unreachable!("only an unsent sub-batch holds no lock")
                    };
                    return (owner, lanes, Err(e));
                };
                // The stale keep-alive race: the server idle-closed a
                // pooled connection under the send. No response byte was
                // consumed, so the sub-batch replays on a fresh connection.
                let result = match (sent, guard.as_mut()) {
                    (Sent::Flying, Some(client)) => match client.pipeline_recv() {
                        Ok((status, body)) => batch_predictions_from_response(status, body),
                        Err(AttemptError::BeforeResponse(e)) if warm && e.is_retryable() => {
                            client.predict_batch_refs(&sub, max_rel_err)
                        }
                        Err(AttemptError::BeforeResponse(e) | AttemptError::AfterResponse(e)) => {
                            Err(e)
                        }
                    },
                    (Sent::SendFailed(e), Some(client)) if warm && e.is_retryable() => {
                        client.predict_batch_refs(&sub, max_rel_err)
                    }
                    (Sent::DialFailed(e) | Sent::SendFailed(e), _) => Err(e),
                    (Sent::Flying, None) | (Sent::Unsent(_), _) => {
                        unreachable!("a sent request holds a client; an unsent one holds no lock")
                    }
                };
                match &result {
                    Ok(_) | Err(ClientError::Status(..)) => node.health.mark_up(),
                    Err(_) => node.health.mark_down(self.cooldown),
                }
                (owner, lanes, result)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{}:7070", i + 1)).collect()
    }

    #[test]
    fn ring_is_deterministic_in_the_member_set() {
        let a = HashRing::new(addrs(3), VNODES);
        let mut shuffled = addrs(3);
        shuffled.reverse();
        let b = HashRing::new(shuffled, VNODES);
        assert_eq!(a.nodes(), b.nodes());
        for h in [0u64, 1, u64::MAX, 0xdeadbeef, 1 << 63] {
            assert_eq!(a.preference(h), b.preference(h));
        }
        // Duplicate members collapse.
        let mut dup = addrs(3);
        dup.extend(addrs(3));
        assert_eq!(HashRing::new(dup, VNODES).len(), 3);
    }

    #[test]
    fn ring_balances_within_reason() {
        let ring = HashRing::new(addrs(3), VNODES);
        let mut counts = [0usize; 3];
        for i in 0..30_000u64 {
            counts[ring.owner(ring_hash(&i.to_le_bytes())).unwrap()] += 1;
        }
        for &c in &counts {
            // Perfect balance is 10_000; vnode placement keeps every node
            // within a 2x band of it.
            assert!((5_000..20_000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn preference_lists_every_node_exactly_once() {
        let ring = HashRing::new(addrs(5), VNODES);
        for h in [0u64, 42, u64::MAX / 2, u64::MAX] {
            let pref = ring.preference(h);
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "preference {pref:?} at {h}");
        }
    }

    #[test]
    fn preference_is_stable_under_member_removal() {
        // Consistent hashing's point: removing one node only moves the
        // keys it owned. Simulate removal by skipping it in the walk and
        // compare against a ring built without it.
        let with = HashRing::new(addrs(4), VNODES);
        let without = HashRing::new(addrs(3), VNODES); // 10.0.0.4 gone
        let dead = with
            .nodes()
            .iter()
            .position(|a| a == "10.0.0.4:7070")
            .unwrap();
        for i in 0..2_000u64 {
            let h = ring_hash(&i.to_le_bytes());
            let survivor = with
                .preference(h)
                .into_iter()
                .find(|&idx| idx != dead)
                .map(|idx| with.nodes()[idx].clone())
                .unwrap();
            let fresh = without.nodes()[without.owner(h).unwrap()].clone();
            assert_eq!(survivor, fresh, "key {i} rehashes differently");
        }
    }

    #[test]
    fn scenario_hash_is_the_exact_key_hash() {
        use lopc_core::Machine;
        let s = |w: f64| Scenario::AllToAll {
            machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
            w,
        };
        // The exact key's hash: float noise and distinct scenarios route
        // independently.
        assert_eq!(scenario_hash(&s(1000.0)), CacheKey::of(&s(1000.0)).hash64());
        assert_ne!(scenario_hash(&s(1000.0)), scenario_hash(&s(1000.0000001)));
        assert_ne!(scenario_hash(&s(1000.0)), scenario_hash(&s(1001.0)));
    }

    #[test]
    fn topology_document_shape() {
        let state = ClusterState::new(
            "10.0.0.1:7070".into(),
            &["10.0.0.2:7070".into(), "10.0.0.3:7070".into()],
        );
        let doc = state.topology_json();
        assert_eq!(
            doc.get("self").and_then(Json::as_str),
            Some("10.0.0.1:7070")
        );
        assert_eq!(doc.get("nodes").and_then(Json::as_array).unwrap().len(), 3);
        assert_eq!(
            doc.get("vnodes").and_then(Json::as_num),
            Some(VNODES as f64)
        );
    }

    #[test]
    fn single_node_cluster_is_degenerate_but_well_formed() {
        let state = ClusterState::new("10.0.0.1:7070".into(), &[]);
        assert_eq!(state.ring().len(), 1);
        let doc = state.topology_json();
        assert_eq!(doc.get("nodes").and_then(Json::as_array).unwrap().len(), 1);
    }

    #[test]
    fn tolerant_lanes_route_by_the_cell_that_answers_them() {
        use crate::cache::SolutionCache;
        use crate::interp::{InterpCache, Served, CERT_FLOOR};
        use lopc_core::{GeneralModel, Machine};

        const TOL: f64 = 5e-2;
        let on_grid = Machine::new(32, 25.0, 200.0).with_c2(0.0);
        let off_grid = Machine::new(16, 26.3, 213.0).with_c2(0.3);
        let mut eligible = Vec::new();
        for machine in [on_grid, off_grid] {
            for w in [1000.0, 777.7] {
                eligible.push(Scenario::AllToAll { machine, w });
                eligible.push(Scenario::ClientServer {
                    machine,
                    w,
                    ps: Some(2),
                });
                eligible.push(Scenario::ForkJoin { machine, w, k: 3 });
                eligible.push(Scenario::SharedMemory { machine, w });
            }
        }
        for s in &eligible {
            // The cell a fresh node builds to answer `s` is the cell the
            // router placed `s` by.
            let node = InterpCache::new(SolutionCache::new(2, 64), 2, 64);
            let (_, served) = node.predict_traced(s, TOL).unwrap();
            assert!(
                matches!(served, Served::Interpolated { .. }),
                "{s:?} did not interpolate"
            );
            let keys = node.resident_cell_keys();
            assert_eq!(keys.len(), 1, "{s:?} built {keys:?}");
            let cell = keys[0].hash64();
            assert_eq!(route_hash(s, TOL), cell, "{s:?}");
            assert_eq!(route_hash(s, CERT_FLOOR), cell, "{s:?} at the floor");
            // Requests that never consult a cell keep the scenario key.
            for tol in [0.0, CERT_FLOOR / 2.0, f64::NAN, f64::INFINITY] {
                assert_eq!(route_hash(s, tol), scenario_hash(s), "{s:?} at {tol}");
            }
        }
        let general = Scenario::General(GeneralModel::homogeneous_all_to_all(on_grid, 300.0));
        let too_big = Scenario::AllToAll {
            machine: on_grid,
            w: 1e305,
        };
        let subnormal = Scenario::AllToAll {
            machine: on_grid,
            w: 1e-310,
        };
        for s in [general, too_big, subnormal] {
            assert_eq!(route_hash(&s, TOL), scenario_hash(&s), "{s:?}");
        }
    }

    #[test]
    fn peer_health_cooldown_and_reprobe() {
        let health = Health::new();
        assert!(health.selectable(Instant::now()));
        health.mark_down(Duration::from_secs(3600));
        // Inside the cooldown nothing may touch the node.
        assert!(!health.selectable(Instant::now()));
        assert!(health.claim(Instant::now()).is_none());
        // A re-probe is due once the cooldown has elapsed.
        let later = Instant::now() + Duration::from_secs(3601);
        assert!(health.selectable(later));
        assert_eq!(health.claim(later), Some(Claim::Probe));
        // While the probe is in flight the node is not selectable.
        assert!(!health.selectable(later));
        health.mark_up();
        assert!(health.selectable(Instant::now()));
        assert_eq!(health.claim(Instant::now()), Some(Claim::Up));
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let health = Health::new();
        health.mark_down(Duration::ZERO);
        let due = Instant::now() + Duration::from_millis(1);
        // First claimant wins the probe token; everyone else must keep
        // routing to survivors (no thundering herd onto a dead node).
        assert_eq!(health.claim(due), Some(Claim::Probe));
        assert_eq!(health.claim(due), None);
        assert!(!health.selectable(due), "a probed node is not selectable");
        // A failed probe re-arms the cooldown and frees the token for the
        // next half-open window.
        health.mark_down(Duration::ZERO);
        let again = due + Duration::from_millis(1);
        assert_eq!(health.claim(again), Some(Claim::Probe));
        // A successful probe reopens the node to everyone, up-claims are
        // unlimited.
        health.mark_up();
        assert_eq!(health.claim(again), Some(Claim::Up));
        assert_eq!(health.claim(again), Some(Claim::Up));
        assert!(health.selectable(again));
    }

    #[test]
    fn probe_token_survives_concurrent_claimants() {
        let health = Arc::new(Health::new());
        health.mark_down(Duration::ZERO);
        let due = Instant::now() + Duration::from_millis(1);
        let won: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let health = Arc::clone(&health);
                    s.spawn(move || health.claim(due).is_some() as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("claimant panicked"))
                .sum()
        });
        assert_eq!(won, 1, "exactly one of 8 racing claimants may probe");
    }
}
