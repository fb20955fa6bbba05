//! Acceptance for the cluster tier (DESIGN.md §15): N `lopc-serve` nodes
//! sharding the solution/interpolation caches by consistent hashing.
//!
//! Four contracts, end to end over real sockets:
//!
//! 1. **Topology**: every node derives the same ring from the same member
//!    set — clients and nodes agree on ownership without coordination.
//! 2. **Failure**: killing a node degrades capacity, never correctness —
//!    the routing client fails over to ring survivors and every answer
//!    stays bit-identical to the library (ownership is locality, not
//!    authority: every node can solve everything exactly).
//! 3. **Nodes share nothing**: a node answers every request from its own
//!    caches and never contacts another node. A sweep sent straight to one
//!    node builds its cells there, whichever node is their home, and no
//!    other node holds or builds any of them.
//! 4. **Cells stay home**: routed tolerant lanes go to the home of the
//!    cell that answers them, so each cell is built on exactly one node;
//!    lanes failed over from a dead home are built on a survivor.

use std::collections::{BTreeSet, HashSet};
use std::net::TcpListener;

use lopc::prelude::*;
use lopc_serve::cluster::{route_hash, VNODES};
use lopc_serve::interp::rel_resid;
use lopc_serve::server::{start_on, ServerConfig, ServerHandle};
use lopc_serve::{predictions_identical, CellKey, Client, ClusterClient, HashRing};

/// Serving threads per node in [`start_cluster`]: reactors, each running
/// its own connections' requests inline.
const WORKERS: usize = 2;

/// Bind `n` ephemeral listeners first, then start a node on each with the
/// other `n-1` as peers — the only way every node can know the full member
/// list before any of them exists.
fn start_cluster(n: usize) -> Vec<ServerHandle> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| a.clone())
                .collect();
            start_on(
                listener,
                ServerConfig {
                    workers: WORKERS,
                    peers,
                    advertise: Some(addrs[i].clone()),
                    ..ServerConfig::default()
                },
            )
            .expect("start node")
        })
        .collect()
}

/// A scenario population spread across variants and parameters — enough
/// keys that a 3-node ring assigns every node some ownership with
/// overwhelming probability.
fn population() -> Vec<Scenario> {
    let m32 = Machine::new(32, 25.0, 200.0).with_c2(0.0);
    let m16 = Machine::new(16, 50.0, 131.0).with_c2(1.0);
    let mut scenarios = Vec::new();
    for i in 0..12 {
        let w = 200.0 + 150.0 * i as f64;
        scenarios.push(Scenario::AllToAll { machine: m32, w });
        scenarios.push(Scenario::SharedMemory {
            machine: m16,
            w: w + 37.0,
        });
        scenarios.push(Scenario::ForkJoin {
            machine: m32,
            w: w + 11.0,
            k: 1 + (i % 4) as u32,
        });
        scenarios.push(Scenario::ClientServer {
            machine: m16,
            w: w + 53.0,
            ps: Some(1 + i % 8),
        });
    }
    scenarios
}

/// Sweep `k`: 64 `W` points of one machine. `k` cycles through every
/// closed-form variant, `P` ∈ {16, 32}, and on- and off-grid `St`/`C²`,
/// so the cells span one to three axes.
fn tolerant_sweep(k: usize) -> Vec<Scenario> {
    let machine = Machine::new(16 << (k % 2), [25.0, 25.7, 26.3][k % 3], 200.0)
        .with_c2([0.0, 0.3][(k / 2) % 2]);
    let w0 = 500.0 + 137.0 * k as f64;
    (0..64)
        .map(|i| {
            let w = w0 * (1.0 + i as f64 / 63.0);
            match k % 4 {
                0 => Scenario::AllToAll { machine, w },
                1 => Scenario::ClientServer {
                    machine,
                    w,
                    ps: Some(2),
                },
                2 => Scenario::ForkJoin { machine, w, k: 3 },
                _ => Scenario::SharedMemory { machine, w },
            }
        })
        .collect()
}

/// Every served lane within `tol` of its library solve.
fn assert_within(sweep: &[Scenario], served: &[Prediction], tol: f64) {
    assert_eq!(served.len(), sweep.len(), "lanes lost");
    for (s, p) in sweep.iter().zip(served) {
        let exact = lopc::model::scenario::solve(s).expect("library solve");
        let err = rel_resid(p, &exact);
        assert!(err <= tol, "{} answer off by {err:.2e}", s.kind());
    }
}

/// The address of the cell's home (its ring owner).
fn home_of<'a>(ring: &'a HashRing, key: &CellKey) -> &'a str {
    &ring.nodes()[ring.owner(key.hash64()).expect("non-empty ring")]
}

#[test]
fn every_node_publishes_the_same_topology() {
    let nodes = start_cluster(3);
    let mut rings = Vec::new();
    for handle in &nodes {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let doc = client
            .request_json("GET", "/v1/cluster", b"")
            .expect("topology");
        let members: BTreeSet<String> = doc
            .get("nodes")
            .and_then(lopc_serve::Json::as_array)
            .expect("nodes array")
            .iter()
            .map(|n| n.as_str().expect("node addr").to_owned())
            .collect();
        assert_eq!(members.len(), 3, "every node must list all 3 members");
        assert!(
            members.contains(doc.get("self").and_then(lopc_serve::Json::as_str).unwrap()),
            "a node must be a member of its own ring"
        );
        rings.push(members);
    }
    assert!(
        rings.windows(2).all(|w| w[0] == w[1]),
        "all nodes must agree on the member set"
    );
    for handle in nodes {
        handle.shutdown();
    }
}

#[test]
fn killing_a_node_degrades_capacity_never_correctness() {
    let mut nodes = start_cluster(3);
    let scenarios = population();
    let library: Vec<Prediction> = scenarios
        .iter()
        .map(|s| lopc::model::scenario::solve(s).expect("library solve"))
        .collect();

    let client = ClusterClient::connect(nodes[0].addr()).expect("cluster connect");
    assert_eq!(client.members().len(), 3);

    // The population must actually be sharded, or the kill below tests
    // nothing.
    let owners: BTreeSet<String> = scenarios
        .iter()
        .filter_map(|s| client.owner_of(s).map(str::to_owned))
        .collect();
    assert!(
        owners.len() >= 2,
        "population routes to only {owners:?} — ring is not spreading keys"
    );

    // Healthy cluster: singles and one batch, all bit-identical.
    for (s, lib) in scenarios.iter().zip(&library) {
        let served = client.predict(s).expect("predict via router");
        assert!(
            predictions_identical(&served, lib),
            "{}: routed {served:?} != library {lib:?}",
            s.kind()
        );
    }
    let batch = client.predict_batch(&scenarios).expect("routed batch");
    assert_eq!(batch.len(), library.len());
    for (served, lib) in batch.iter().zip(&library) {
        assert!(predictions_identical(served, lib));
    }

    // Kill the node that owns the first scenario — a target guaranteed to
    // force rerouting, not a bystander.
    let victim_addr = client
        .owner_of(&scenarios[0])
        .expect("first scenario has an owner")
        .to_owned();
    let victim = nodes
        .iter()
        .position(|h| h.addr().to_string() == victim_addr)
        .expect("owner is one of the started nodes");
    nodes.remove(victim).shutdown();

    // Survivors must serve the *full* keyspace, still bit-identical: zero
    // wrong answers, in singles and in the re-partitioned batch.
    for (s, lib) in scenarios.iter().zip(&library) {
        let served = client
            .predict(s)
            .expect("failover predict must reach a survivor");
        assert!(
            predictions_identical(&served, lib),
            "{} after node kill: routed {served:?} != library {lib:?}",
            s.kind()
        );
    }
    let batch = client
        .predict_batch(&scenarios)
        .expect("failover batch must be re-partitioned onto survivors");
    for (served, lib) in batch.iter().zip(&library) {
        assert!(
            predictions_identical(served, lib),
            "batch after node kill drifted from the library"
        );
    }

    for handle in nodes {
        handle.shutdown();
    }
}

/// Kill an owner *while batches are in flight*: a background thread takes
/// a node down mid-hammer, so some wave catches the exact moment its
/// sub-batch's target dies. Every batch must still come back complete and
/// bit-identical to the library — the failed sub-batch re-partitions onto
/// ring survivors, no lane is dropped, none is answered twice (the router
/// turns a double answer into a hard protocol error, so a plain `Ok` here
/// really is the single-assignment proof).
#[test]
fn killing_an_owner_mid_wave_loses_no_batch() {
    let mut nodes = start_cluster(3);
    let scenarios = population();
    let library: Vec<Prediction> = scenarios
        .iter()
        .map(|s| lopc::model::scenario::solve(s).expect("library solve"))
        .collect();

    let client = ClusterClient::connect(nodes[0].addr()).expect("cluster connect");
    client.predict_batch(&scenarios).expect("warm-up batch");

    // The victim owns the first scenario, so every wave keeps targeting
    // it until the moment it dies (the seed has no special role after
    // topology discovery — any owner works).
    let victim_addr = client
        .owner_of(&scenarios[0])
        .expect("first scenario has an owner")
        .to_owned();
    let victim = nodes
        .iter()
        .position(|h| h.addr().to_string() == victim_addr)
        .expect("owner is one of the started nodes");
    let victim = nodes.remove(victim);

    let (tx, rx) = std::sync::mpsc::channel();
    let killer = std::thread::spawn(move || {
        // Let a few waves land against the full ring first.
        std::thread::sleep(std::time::Duration::from_millis(30));
        victim.shutdown();
        let _ = tx.send(());
    });

    let mut saw_kill = false;
    for round in 0..200 {
        let batch = client
            .predict_batch(&scenarios)
            .unwrap_or_else(|e| panic!("batch round {round} failed mid-kill: {e}"));
        assert_eq!(batch.len(), library.len(), "round {round} lost lanes");
        for (served, lib) in batch.iter().zip(&library) {
            assert!(
                predictions_identical(served, lib),
                "round {round}: mid-kill batch drifted from the library"
            );
        }
        if !saw_kill && rx.try_recv().is_ok() {
            saw_kill = true;
        }
        // Keep hammering a little past the kill so post-kill waves (dead
        // pooled connection, re-partition path) are exercised too.
        if saw_kill && round >= 50 {
            break;
        }
    }
    killer.join().expect("killer thread");
    assert!(saw_kill, "the victim was never observed to die mid-hammer");

    for handle in nodes {
        handle.shutdown();
    }
}

/// With every member dead, routed calls must surface a transport error —
/// promptly, with no panic and no partial result. (The router's forced
/// re-probe of ring owners means a later call would heal if a node came
/// back; here nothing does, so every round must keep erroring.)
#[test]
fn all_owners_down_surfaces_a_transport_error() {
    let nodes = start_cluster(3);
    let scenarios = population();
    let client = ClusterClient::connect(nodes[0].addr()).expect("cluster connect");
    client.predict_batch(&scenarios).expect("warm-up batch");

    for handle in nodes {
        handle.shutdown();
    }

    for round in 0..3 {
        let err = client
            .predict_batch(&scenarios)
            .expect_err("a fully-dead cluster must fail the batch");
        assert!(
            matches!(err, lopc_serve::ClientError::Io(_)),
            "round {round}: expected a transport error, got: {err}"
        );
        let err = client
            .predict(&scenarios[0])
            .expect_err("a fully-dead cluster must fail singles too");
        assert!(
            matches!(err, lopc_serve::ClientError::Io(_)),
            "round {round}: expected a transport error, got: {err}"
        );
    }
}

/// A routed tolerant sweep builds each cell on its home alone: the nodes'
/// cell sets are disjoint.
#[test]
fn a_routed_tolerant_sweep_keeps_each_cell_on_one_node() {
    const TOL: f64 = 1e-3;
    let nodes = start_cluster(3);
    let client = ClusterClient::connect(nodes[0].addr()).expect("cluster connect");
    for k in 0..8 {
        let sweep = tolerant_sweep(k);
        let served = client
            .predict_batch_within(&sweep, TOL)
            .expect("routed tolerant sweep");
        assert_within(&sweep, &served, TOL);
    }

    let mut seen = HashSet::new();
    for node in &nodes {
        let svc = node.service();
        let cluster = svc.cluster().expect("cluster tier");
        let keys = svc.interp().resident_cell_keys();
        assert!(!keys.is_empty(), "{} holds no cells", cluster.self_addr());
        for key in keys {
            assert_eq!(
                home_of(cluster.ring(), &key),
                cluster.self_addr(),
                "a cell was built away from its home"
            );
            assert!(seen.insert(key), "a cell is resident on two nodes");
        }
    }

    for handle in nodes {
        handle.shutdown();
    }
}

/// A sweep sent straight to one node, past the router, builds its cells
/// there, whichever node is their home: every lane is within tolerance,
/// and every other node holds no cell and built none.
#[test]
fn a_sweep_sent_to_one_node_builds_its_cells_there() {
    const TOL: f64 = 1e-3;
    let nodes = start_cluster(3);
    let mut direct = Client::connect(nodes[0].addr()).expect("connect");
    for sweep in [tolerant_sweep(0), tolerant_sweep(5)] {
        let served: Vec<Prediction> = sweep
            .iter()
            .map(|s| direct.predict_within(s, TOL).expect("direct predict"))
            .collect();
        assert_within(&sweep, &served, TOL);
    }

    let builder = nodes[0].service();
    let ring = builder.cluster().expect("cluster tier").ring();
    let built = builder.interp().resident_cell_keys();
    assert_eq!(builder.interp().cells_built(), built.len() as u64);
    let me = builder.cluster().expect("cluster tier").self_addr();
    assert!(
        built.iter().any(|k| home_of(ring, k) != me),
        "no cell of the sweep is homed at another node; the test proves nothing"
    );
    for node in &nodes[1..] {
        let svc = node.service();
        let addr = svc.cluster().expect("cluster tier").self_addr();
        assert_eq!(svc.interp().cells(), 0, "{addr} holds a cell");
        assert_eq!(svc.interp().cells_built(), 0, "{addr} built a cell");
    }

    for handle in nodes {
        handle.shutdown();
    }
}

/// Kill the home of some cells in the middle of a routed tolerant sweep.
/// The router fails those lanes over to survivors, which build the dead
/// home's cells themselves and answer every lane within tolerance, with
/// no error surfacing.
#[test]
fn killing_a_cell_home_mid_tolerant_sweep_stays_within_tolerance() {
    const TOL: f64 = 1e-3;
    let mut nodes = start_cluster(3);
    let client = ClusterClient::connect(nodes[0].addr()).expect("cluster connect");
    let ring = HashRing::new(client.members(), VNODES);
    let first = tolerant_sweep(0);
    client
        .predict_batch_within(&first, TOL)
        .expect("warm-up sweep");

    // The victim is home to the cell of the first sweep's first lane.
    let victim_addr = ring.nodes()[ring.owner(route_hash(&first[0], TOL)).unwrap()].clone();
    let victim = nodes
        .iter()
        .position(|h| h.addr().to_string() == victim_addr)
        .expect("the home is one of the started nodes");
    let victim = nodes.remove(victim);
    // The killer takes the victim down while later sweeps are in flight.
    let (go, start_kill) = std::sync::mpsc::channel::<()>();
    let killer = std::thread::spawn(move || {
        start_kill.recv().expect("kill signal");
        victim.shutdown();
    });

    for k in 1..=16 {
        if k == 4 {
            go.send(()).expect("killer is waiting");
        }
        let sweep = tolerant_sweep(k);
        let served = client
            .predict_batch_within(&sweep, TOL)
            .unwrap_or_else(|e| panic!("sweep {k} failed across the kill: {e}"));
        assert_within(&sweep, &served, TOL);
    }
    killer.join().expect("killer thread");
    // Sweeps after the victim is fully down must fail over too.
    for k in 17..=24 {
        let sweep = tolerant_sweep(k);
        let served = client
            .predict_batch_within(&sweep, TOL)
            .unwrap_or_else(|e| panic!("sweep {k} failed after the kill: {e}"));
        assert_within(&sweep, &served, TOL);
    }

    let mut failed_over = 0;
    for node in &nodes {
        let cluster = node.service().cluster().expect("cluster tier");
        failed_over += node
            .service()
            .interp()
            .resident_cell_keys()
            .iter()
            .filter(|k| home_of(cluster.ring(), k) == victim_addr)
            .count();
    }
    assert!(
        failed_over > 0,
        "no cell of the dead home failed over to a survivor"
    );

    for handle in nodes {
        handle.shutdown();
    }
}
