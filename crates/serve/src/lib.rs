//! **lopc-serve** — the LoPC prediction service: the analytical models of
//! `lopc-core`, queryable over HTTP.
//!
//! The reproduction's models answer "given machine and algorithm
//! parameters, what runtime/throughput should I expect?" — a question that
//! arrives at sweep scale once anything (a scheduler, a capacity planner, a
//! dashboard) consumes the model online. This crate turns the library into
//! that service without any external dependency:
//!
//! * [`json`] — the workspace's shared hand-rolled JSON (one tokenizer,
//!   one number emitter, and the value tree built on them);
//!   `lopc_bench::baseline` re-uses it for `BENCH_sim.json`;
//! * [`codec`] — the wire schema for [`Scenario`](lopc_core::Scenario) and
//!   [`Prediction`](lopc_core::Prediction): the predict path decodes and
//!   encodes straight between bytes and values, and the `Json` tree
//!   functions stay as the public API and the tests' oracle;
//! * [`cache`] — the sharded LRU solution cache over quantized scenario
//!   keys, so repeated and near-identical sweep queries skip the AMVA
//!   fixed-point solve;
//! * [`interp`] — grid interpolation with certified error bounds over that
//!   cache: a request carrying `max_rel_err > 0` may be answered by
//!   multilinear interpolation between cached exact solves when the
//!   surrounding grid cell's certificate is within the tolerance (see
//!   DESIGN.md §12);
//! * [`http`] — a dependency-free HTTP/1.1 subset on `std::net`: one
//!   incremental [`Parser`](http::Parser), resumed byte by byte, frames
//!   the reactor's requests and the client's responses;
//! * [`sys`] — a thin `libc`-free shim over the raw Linux syscalls the
//!   reactor needs (`epoll_*`, `eventfd2`, `prlimit64`);
//! * [`server`] — the server and its endpoints (`POST /v1/predict`,
//!   `POST /v1/predict/batch`, `GET /metrics`, plus the cluster tier's
//!   `GET /v1/cluster`): one epoll reactor per serving thread, each dealt
//!   its share of the connections and running their requests inline, so
//!   thousands of idle keep-alive connections cost no thread;
//! * [`cluster`] — the distributed serving tier (DESIGN.md §15):
//!   consistent-hash sharding of the caches across N share-nothing nodes,
//!   and the routing [`ClusterClient`] with its lazy node failure
//!   detection;
//! * [`client`] — the in-repo blocking client (smoke tests, CI, the
//!   load-generator bench), with connect/read timeouts and bounded
//!   jittered retry.
//!
//! Served numbers are **bit-identical** to direct library calls: the
//! dispatcher is `lopc_core::scenario::solve`, the JSON number format
//! round-trips `f64` exactly, and the cache stores exact solves (see
//! DESIGN.md §11 for the quantization contract). The `serve_vs_library`
//! integration test pins this end to end.
//!
//! # Quickstart
//!
//! ```no_run
//! use lopc_serve::{client::Client, server, server::ServerConfig};
//! use lopc_core::{Machine, Scenario};
//!
//! let handle = server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let prediction = client
//!     .predict(&Scenario::AllToAll {
//!         machine: Machine::new(32, 25.0, 200.0).with_c2(0.0),
//!         w: 1000.0,
//!     })
//!     .unwrap();
//! println!("predicted R = {:.1} cycles", prediction.r);
//! handle.shutdown();
//! ```
//!
//! Or as a process: `cargo run -p lopc-serve` (see the README's serving
//! quickstart for example request/response payloads).

pub mod cache;
pub mod client;
pub mod cluster;
pub mod codec;
pub mod http;
pub mod interp;
pub mod json;
pub mod metrics;
pub(crate) mod reactor;
pub mod server;
pub mod sys;

pub use cache::SolutionCache;
pub use client::{Client, ClientConfig, ClientError, RetryPolicy};
pub use cluster::{ClusterClient, ClusterState, HashRing};
pub use codec::{
    prediction_from_json, prediction_to_json, predictions_identical, scenario_from_json,
    scenario_to_json, DecodeError,
};
pub use interp::{CellKey, InterpCache, Served};
pub use json::{parse, Json};
pub use metrics::Metrics;
pub use server::{start, start_on, Reply, ServerConfig, ServerHandle, Service};
