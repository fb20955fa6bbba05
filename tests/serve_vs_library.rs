//! Acceptance: the prediction service is the library, bit for bit.
//!
//! A mixed population of scenarios — every variant, several parameter
//! points each — is solved twice: directly through
//! `lopc_core::scenario::solve`, and through a running `lopc-serve`
//! instance over a real socket (singles and one batch). Every served
//! number must equal the library's exactly; any drift (a lossy codec, a
//! cache returning the wrong bucket, a divergent dispatch) fails here.

use lopc::prelude::*;
use lopc_serve::server::{start, start_on, ServerConfig};
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

    // Bind all three listeners first, then start each node knowing the
    // other two (ephemeral ports are only known after binding).
    let listeners: Vec<std::net::TcpListener> = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let nodes: Vec<_> = listeners
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
        .collect();

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
