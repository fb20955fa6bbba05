//! The `lopc-serve` binary: bind the prediction service and run until
//! killed.
//!
//! ```text
//! cargo run -p lopc-serve [--release] -- [--addr 127.0.0.1:7070] [--workers N]
//! ```
//!
//! With no `--addr` the server binds 127.0.0.1:7070 (`--addr
//! 127.0.0.1:0` picks an ephemeral port); it prints the bound address.

use lopc_serve::server::{start, ServerConfig};

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7070".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value_for("--addr"),
            "--workers" => {
                config.workers = value_for("--workers")
                    .parse()
                    .unwrap_or_else(|_| die("--workers must be an integer"))
            }
            "--cache-shards" => {
                config.cache_shards = value_for("--cache-shards")
                    .parse()
                    .unwrap_or_else(|_| die("--cache-shards must be an integer"))
            }
            "--cache-capacity" => {
                config.cache_capacity_per_shard = value_for("--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| die("--cache-capacity must be an integer"))
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(
                    value_for("--idle-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| die("--idle-timeout-ms must be an integer")),
                )
            }
            "--peer" => config.peers.push(value_for("--peer")),
            "--advertise" => config.advertise = Some(value_for("--advertise")),
            "--help" | "-h" => {
                println!(
                    "lopc-serve: LoPC prediction service\n\n\
                     options:\n  --addr HOST:PORT    bind address (default 127.0.0.1:7070; port 0 = ephemeral)\n  \
                     --workers N         serving threads: reactors that run requests inline (default: available parallelism)\n  \
                     --cache-shards N    cache shard count (default 16)\n  \
                     --cache-capacity N  cache entries per shard (default 256)\n  \
                     --idle-timeout-ms N close keep-alive connections idle this long (default 30000)\n  \
                     --peer HOST:PORT    another ring member, published in GET /v1/cluster (repeatable; all nodes list each other)\n  \
                     --advertise H:P     ring identity to advertise (default: the bound address)"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }

    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => die(&format!("could not bind: {e}")),
    };
    let addr = handle.addr();
    println!("lopc-serve listening on http://{addr}");
    println!(
        "endpoints: POST /v1/predict | POST /v1/predict/batch | GET /metrics | GET /v1/cluster"
    );
    println!(
        "example:\n  curl -s http://{addr}/v1/predict -d \
         '{{\"kind\":\"all_to_all\",\"machine\":{{\"p\":32,\"st\":25,\"so\":200,\"c2\":0}},\"w\":1000}}'"
    );
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("lopc-serve: {msg}");
    std::process::exit(2)
}
