//! Acceptance: the prediction service is the library, bit for bit.
//!
//! A mixed population of scenarios — every variant, several parameter
//! points each — is solved twice: directly through
//! `lopc_core::scenario::solve`, and through a running `lopc-serve`
//! instance over a real socket (singles and one batch). Every served
//! number must equal the library's exactly; any drift (a lossy codec, a
//! cache answering one scenario with another's solve, a divergent
//! dispatch) fails here. Float-noise neighbours of the population get
//! their own bits too, in either arrival order and on any node.

use lopc::prelude::*;
use lopc_serve::server::{start, start_on, ServerConfig, ServerHandle};
use lopc_serve::{predictions_identical, Client, ClusterClient};

fn mixed_scenarios() -> Vec<Scenario> {
    let m32 = Machine::new(32, 25.0, 200.0).with_c2(0.0);
    let m16 = Machine::new(16, 50.0, 131.0).with_c2(1.0);
    let m8 = Machine::new(8, 10.0, 100.0).with_c2(2.0);
    let mut scenarios = Vec::new();
    for &w in &[0.0, 64.0, 512.0, 2048.0] {
        scenarios.push(Scenario::AllToAll { machine: m32, w });
        scenarios.push(Scenario::SharedMemory {
            machine: m16,
            w: w + 100.0,
        });
    }
    for &ps in &[1usize, 3, 8] {
        scenarios.push(Scenario::ClientServer {
            machine: m16,
            w: 1000.0,
            ps: Some(ps),
        });
    }
    scenarios.push(Scenario::ClientServer {
        machine: m32,
        w: 700.0,
        ps: None,
    });
    // `rw` echoes `w`, so a negative zero must keep its sign on the wire.
    scenarios.push(Scenario::ClientServer {
        machine: m16,
        w: -0.0,
        ps: Some(3),
    });
    scenarios.push(Scenario::SharedMemory {
        machine: m16,
        w: -0.0,
    });
    for &k in &[1u32, 2, 4, 7] {
        scenarios.push(Scenario::ForkJoin {
            machine: m32,
            w: 2000.0,
            k,
        });
    }
    scenarios.push(Scenario::General(GeneralModel::homogeneous_all_to_all(
        m8, 300.0,
    )));
    scenarios.push(Scenario::General(GeneralModel::client_server(m8, 500.0, 2)));
    scenarios.push(Scenario::General(GeneralModel::multi_hop(m8, 400.0, 3)));
    scenarios.push(Scenario::General(
        GeneralModel::homogeneous_all_to_all(m16, 250.0).with_protocol_processor(),
    ));
    scenarios
}

#[test]
fn service_answers_equal_library_answers() {
    let scenarios = mixed_scenarios();
    assert!(
        scenarios.len() >= 20,
        "acceptance requires >= 20 mixed scenarios, have {}",
        scenarios.len()
    );
    let library: Vec<Prediction> = scenarios
        .iter()
        .map(|s| lopc::model::scenario::solve(s).expect("library solve"))
        .collect();

    let server = start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Single-request path.
    for (s, lib) in scenarios.iter().zip(&library) {
        let served = client.predict(s).expect("predict");
        assert!(
            predictions_identical(&served, lib),
            "{}: served {served:?} != library {lib:?}",
            s.kind()
        );
    }

    // Batch path: same scenarios in one request — answered from the cache
    // now, still identical (the cache stores exact solves).
    let batch = client.predict_batch(&scenarios).expect("batch");
    assert_eq!(batch.len(), library.len());
    for ((s, lib), served) in scenarios.iter().zip(&library).zip(&batch) {
        assert!(
            predictions_identical(served, lib),
            "batch {}: served {served:?} != library {lib:?}",
            s.kind()
        );
    }
    assert!(
        server.service().cache().hits() >= scenarios.len() as u64,
        "the batch repeats must have been cache hits"
    );
    server.shutdown();
}

/// The same contract through the cluster tier: a 3-node ring behind the
/// routing [`ClusterClient`] answers the same mixed population — singles
/// routed lane by lane, the batch fanned out per owner and reassembled in
/// order — bit-identically to direct library calls. Sharding must never
/// show up in the numbers.
#[test]
fn cluster_routed_answers_equal_library_answers() {
    let scenarios = mixed_scenarios();
    let library: Vec<Prediction> = scenarios
        .iter()
        .map(|s| lopc::model::scenario::solve(s).expect("library solve"))
        .collect();

    let nodes = start_cluster();
    let client = ClusterClient::connect(nodes[0].addr()).expect("cluster connect");
    assert_eq!(client.members().len(), 3, "topology must list all nodes");

    for (s, lib) in scenarios.iter().zip(&library) {
        let served = client.predict(s).expect("routed predict");
        assert!(
            predictions_identical(&served, lib),
            "{}: routed {served:?} != library {lib:?}",
            s.kind()
        );
    }

    let batch = client.predict_batch(&scenarios).expect("routed batch");
    assert_eq!(batch.len(), library.len());
    for ((s, lib), served) in scenarios.iter().zip(&library).zip(&batch) {
        assert!(
            predictions_identical(served, lib),
            "routed batch {}: served {served:?} != library {lib:?}",
            s.kind()
        );
    }

    for handle in nodes {
        handle.shutdown();
    }
}

/// Start a 3-node ring on ephemeral ports. All three listeners are bound
/// first, so each node starts knowing the other two.
fn start_cluster() -> Vec<ServerHandle> {
    let listeners: Vec<std::net::TcpListener> = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind"))
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
                    workers: 2,
                    peers,
                    advertise: Some(addrs[i].clone()),
                    ..ServerConfig::default()
                },
            )
            .expect("start node")
        })
        .collect()
}

/// Entries of [`mixed_scenarios`], each followed by a float-noise
/// neighbour: `W`, `St` or `C²` scaled by `1 + 1e-9`, or one `General`
/// routing entry `v[2][0]` nudged by as much. Each pair's library answers
/// differ in their bits, so a node that answered one with the other's
/// solve fails [`assert_own_bits`].
fn near_repeat_pairs() -> Vec<Scenario> {
    const NOISE: f64 = 1.0 + 1e-9;
    let m32 = Machine::new(32, 25.0, 200.0).with_c2(0.0);
    let m16 = Machine::new(16, 50.0, 131.0).with_c2(1.0);
    let m8 = Machine::new(8, 10.0, 100.0).with_c2(2.0);
    let general = GeneralModel::client_server(m8, 500.0, 2);
    let mut nudged = general.clone();
    nudged.v[2][0] *= NOISE;
    let pairs = [
        (
            Scenario::AllToAll {
                machine: m32,
                w: 512.0,
            },
            Scenario::AllToAll {
                machine: m32,
                w: 512.0 * NOISE,
            },
        ),
        (
            Scenario::SharedMemory {
                machine: m16,
                w: 612.0,
            },
            Scenario::SharedMemory {
                machine: Machine::new(16, 50.0 * NOISE, 131.0).with_c2(1.0),
                w: 612.0,
            },
        ),
        (
            Scenario::ClientServer {
                machine: m16,
                w: 1000.0,
                ps: Some(3),
            },
            Scenario::ClientServer {
                machine: m16.with_c2(NOISE),
                w: 1000.0,
                ps: Some(3),
            },
        ),
        (
            Scenario::ForkJoin {
                machine: m32,
                w: 2000.0,
                k: 4,
            },
            Scenario::ForkJoin {
                machine: m32,
                w: 2000.0 * NOISE,
                k: 4,
            },
        ),
        (Scenario::General(general), Scenario::General(nudged)),
    ];
    let mixed = mixed_scenarios();
    let mut lanes = Vec::new();
    for (base, near) in pairs {
        assert!(mixed.contains(&base), "{base:?} is not a mixed scenario");
        let solve = |s: &Scenario| lopc::model::scenario::solve(s).expect("library solve");
        assert!(
            !predictions_identical(&solve(&base), &solve(&near)),
            "{}: the neighbours' answers must differ",
            base.kind()
        );
        lanes.extend([base, near]);
    }
    lanes
}

/// Every served answer is the library's solve of its own lane.
fn assert_own_bits(what: &str, lanes: &[Scenario], served: &[Prediction]) {
    assert_eq!(served.len(), lanes.len(), "{what}");
    for (s, p) in lanes.iter().zip(served) {
        let lib = lopc::model::scenario::solve(s).expect("library solve");
        assert!(
            predictions_identical(p, &lib),
            "{what} {}: served {p:?} != its own library solve {lib:?} for {s:?}",
            s.kind()
        );
    }
}

/// [`near_repeat_pairs`] in both orders, each to a fresh node: one batch
/// on an empty cache, then every lane again as a single on the cache the
/// batch filled. Each answer is its own lane's solve, not its neighbour's.
#[test]
fn near_repeats_get_their_own_bits_in_any_order() {
    let lanes = near_repeat_pairs();
    let reversed: Vec<Scenario> = lanes.iter().rev().cloned().collect();
    for order in [lanes, reversed] {
        let server = start(ServerConfig::default()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let batch = client.predict_batch(&order).expect("batch");
        assert_own_bits("batch", &order, &batch);
        let singles: Vec<Prediction> = order
            .iter()
            .map(|s| client.predict(s).expect("predict"))
            .collect();
        assert_own_bits("single", &order, &singles);
        assert_eq!(
            server.service().cache().misses(),
            order.len() as u64,
            "every lane is its own key"
        );
        server.shutdown();
    }
}

/// [`near_repeat_pairs`] through the routing [`ClusterClient`], in both
/// orders, each to a fresh 3-node ring: neighbours may live on different
/// nodes, and each gets its own bits wherever it lands.
#[test]
fn cluster_routed_near_repeats_get_their_own_bits() {
    let lanes = near_repeat_pairs();
    let reversed: Vec<Scenario> = lanes.iter().rev().cloned().collect();
    for order in [lanes, reversed] {
        let nodes = start_cluster();
        let client = ClusterClient::connect(nodes[0].addr()).expect("cluster connect");
        let batch = client.predict_batch(&order).expect("routed batch");
        assert_own_bits("routed batch", &order, &batch);
        let singles: Vec<Prediction> = order
            .iter()
            .map(|s| client.predict(s).expect("routed predict"))
            .collect();
        assert_own_bits("routed single", &order, &singles);
        for handle in nodes {
            handle.shutdown();
        }
    }
}
