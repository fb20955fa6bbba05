//! `cluster_sweep`: an `nproc`-node consistent-hash ring of in-process
//! nodes on their default `ServerConfig` (apart from address and peers),
//! driven closed-loop by one `ClusterClient` with one pooled connection per
//! node.
//!
//! Work comes in passes of tolerant (`max_rel_err` = 1e-3) 64-point `W`
//! sweeps. Each pass first walks new machines, so interpolation cells are
//! built, pushed to peers and prefetched; it then revisits earlier machines
//! at a new sweep phase, so the points are new exact keys answered from
//! resident or pulled cells.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use lopc_core::{Machine, Prediction, Scenario};
use lopc_serve::interp::rel_resid;
use lopc_serve::server::{start_on, ServerConfig, ServerHandle};
use lopc_serve::{Client, ClusterClient};

use crate::common::{
    median, micros, nanos, nproc, quantile, relocate, repeated_setup, timed, Rng, Sheet, Tracer,
};

const TOLERANCE: f64 = 1e-3;
const POINTS: usize = 64;
const NEW_PER_PASS: usize = 2;
const REVISITS_PER_PASS: usize = 6;
/// Every n-th batch is checked against the library, lane by lane.
const CHECK_EVERY: usize = 4;
const SETUPS: usize = 9;
/// Passes walked during set-up.
const WARM_PASSES: usize = 3;

/// One machine's sweep: a template scenario and its `W` range.
#[derive(Clone)]
struct Sweep {
    template: Scenario,
    w0: f64,
    step: f64,
}

impl Sweep {
    /// Machine `k` of the walk. Variant and `P` cycle through every
    /// combination, so each seed gets the same mix of solve costs; the
    /// seed picks the rest.
    fn nth(k: usize, rng: &mut Rng) -> Sweep {
        let p = [16usize, 32, 64][k % 3];
        let machine = Machine::new(
            p,
            *rng.pick(&[10.0, 25.0, 50.0, 100.0]),
            *rng.pick(&[100.0, 200.0, 400.0]),
        )
        .with_c2(*rng.pick(&[0.0, 1.0]));
        let template = match (k / 3) % 4 {
            0 => Scenario::AllToAll { machine, w: 0.0 },
            1 => Scenario::ClientServer {
                machine,
                w: 0.0,
                ps: Some(rng.range(1, 9) as usize),
            },
            2 => Scenario::ForkJoin {
                machine,
                w: 0.0,
                k: rng.range(1, 5) as u32,
            },
            _ => Scenario::SharedMemory { machine, w: 0.0 },
        };
        let w0 = rng.range(500, 5000) as f64;
        Sweep {
            template,
            w0,
            step: w0 / (POINTS - 1) as f64,
        }
    }

    /// The 64 points at sweep phase `phase` in `[0, 1)`.
    fn points(&self, phase: f64) -> Vec<Scenario> {
        (0..POINTS)
            .map(|i| {
                let w = self.w0 + (i as f64 + phase) * self.step;
                relocate(&self.template, |[_, st, so, c2]| [w, st, so, c2])
            })
            .collect()
    }
}

/// The ring and its routing client.
struct Ring {
    nodes: Vec<ServerHandle>,
    router: ClusterClient,
}

fn start_ring(n: usize) -> Ring {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a node"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address").to_string())
        .collect();
    let nodes: Vec<ServerHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let config = ServerConfig {
                peers: (0..n)
                    .filter(|&j| j != i)
                    .map(|j| addrs[j].clone())
                    .collect(),
                advertise: Some(addrs[i].clone()),
                ..ServerConfig::default()
            };
            start_on(listener, config).expect("start a node")
        })
        .collect();
    let router = ClusterClient::connect(nodes[0].addr()).expect("connect the router");
    Ring { nodes, router }
}

/// Summed node counters.
#[derive(Clone, Copy, Default)]
struct Counters {
    interp_hits: u64,
    built: u64,
    prefetched: u64,
    shipped: u64,
    received: u64,
    rejected: u64,
    solves: u64,
    conns: u64,
}

impl Counters {
    fn read(nodes: &[ServerHandle]) -> Counters {
        let mut c = Counters::default();
        for node in nodes {
            let svc = node.service();
            let interp = svc.interp();
            c.interp_hits += interp.interp_hits();
            c.built += interp.cells_built();
            c.prefetched += interp.cells_prefetched();
            c.received += interp.cells_received();
            c.rejected += interp.cells_rejected();
            c.shipped += svc.cluster().map_or(0, |cl| cl.cells_shipped());
            c.solves += svc.cache().misses();
            c.conns += svc.metrics().opened_connections_total();
        }
        c
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            interp_hits: self.interp_hits - before.interp_hits,
            built: self.built - before.built,
            prefetched: self.prefetched - before.prefetched,
            shipped: self.shipped - before.shipped,
            received: self.received - before.received,
            rejected: self.rejected - before.rejected,
            solves: self.solves - before.solves,
            conns: self.conns - before.conns,
        }
    }
}

/// One routed batch and what it returned.
struct Done {
    points: Vec<Scenario>,
    took: Duration,
    new_machine: bool,
    reply: Result<Vec<Prediction>, String>,
}

/// The sweep state: machines walked so far, batches sent, the generator.
struct Walk {
    rng: Rng,
    machines: Vec<Sweep>,
    sent: u64,
}

impl Walk {
    /// The next pass: new machines first, then revisits at a new phase.
    fn pass(&mut self) -> Vec<(Vec<Scenario>, bool)> {
        let mut out = Vec::new();
        for _ in 0..NEW_PER_PASS {
            let sweep = Sweep::nth(self.machines.len(), &mut self.rng);
            out.push((sweep.points(0.5), true));
            self.machines.push(sweep);
        }
        for _ in 0..REVISITS_PER_PASS {
            let sweep = self.rng.pick(&self.machines).clone();
            let phase = self.rng.unit();
            out.push((sweep.points(phase), false));
        }
        out
    }
}

/// One pass of routed batches.
fn run_pass(router: &ClusterClient, walk: &mut Walk, tracer: &mut Tracer) -> Vec<Done> {
    walk.pass()
        .into_iter()
        .map(|(points, new_machine)| {
            walk.sent += 1;
            let (reply, took) = tracer.span("cluster.batch", walk.sent, None, || {
                router
                    .predict_batch_within(&points, TOLERANCE)
                    .map_err(|e| e.to_string())
            });
            Done {
                points,
                took,
                new_machine,
                reply,
            }
        })
        .collect()
}

/// Count failures of `done` and check every n-th batch lane by lane.
fn verify(sheet: &mut Sheet, done: &[Done]) {
    sheet.attempted += done.len() as u64;
    for (i, d) in done.iter().enumerate() {
        let preds = match &d.reply {
            Err(e) => {
                sheet.fail(format!("routed batch: {e}"));
                continue;
            }
            Ok(p) => p,
        };
        if preds.len() != d.points.len() {
            sheet.fail(format!(
                "{} answers for {} points",
                preds.len(),
                d.points.len()
            ));
            continue;
        }
        if !i.is_multiple_of(CHECK_EVERY) {
            continue;
        }
        let wrong =
            d.points
                .iter()
                .zip(preds)
                .find_map(|(s, p)| match lopc_core::scenario::solve(s) {
                    Ok(exact) => {
                        let err = rel_resid(p, &exact);
                        (err > TOLERANCE).then(|| format!("{} answer off by {err:.2e}", s.kind()))
                    }
                    Err(e) => Some(format!("library cannot solve {}: {e}", s.kind())),
                });
        if let Some(why) = wrong {
            sheet.fail(why);
        }
    }
}

fn us(done: &[Done], pick: impl Fn(&Done) -> bool) -> Vec<f64> {
    done.iter()
        .filter(|d| pick(d))
        .map(|d| micros(d.took))
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool, sheet: &mut Sheet) {
    let epoch = Instant::now();
    let n = nproc().max(2);
    // Set-up: start the ring, connect the router, and walk the first
    // machines so every node holds cells before timing starts.
    let ((ring, mut walk), setup_s) = repeated_setup(
        SETUPS,
        || {
            let ring = start_ring(n);
            let mut walk = Walk {
                rng: Rng::new(seed),
                machines: Vec::new(),
                sent: 0,
            };
            for _ in 0..WARM_PASSES {
                for (points, _) in walk.pass() {
                    ring.router
                        .predict_batch_within(&points, TOLERANCE)
                        .expect("warm-up sweep");
                }
            }
            (ring, walk)
        },
        |(old, _)| {
            for node in old.nodes {
                node.shutdown();
            }
        },
    );
    sheet.set("setup_s", setup_s);

    // Each pass is checked as soon as it completes and only its latencies
    // are kept, so what the run holds does not grow with throughput. Only
    // the passes themselves count toward `seconds` and the throughput.
    let before = Counters::read(&ring.nodes);
    let mut off = Tracer::new(false, epoch);
    let budget = Duration::from_secs_f64(seconds);
    let mut busy = Duration::ZERO;
    let (mut warm, mut cold, mut all) = (Vec::new(), Vec::new(), Vec::new());
    while busy < budget {
        let (done, took) = timed(|| run_pass(&ring.router, &mut walk, &mut off));
        busy += took;
        warm.extend(us(&done, |d| !d.new_machine));
        cold.extend(us(&done, |d| d.new_machine));
        all.extend(us(&done, |_| true));
        verify(sheet, &done);
    }
    let wall = busy.as_secs_f64();
    // Pushes run on background threads; let the last ones land.
    std::thread::sleep(Duration::from_millis(50));
    let c = Counters::read(&ring.nodes).since(before);

    let points = (all.len() * POINTS) as f64;
    sheet.set("light_p50_us", median(&warm));
    sheet.set("light_p95_us", quantile(&warm, 0.95));
    sheet.set("heavy_p50_us", median(&cold));
    sheet.set("throughput_per_s", points / wall);
    sheet.set("batch_p50_us", median(&all));
    sheet.set("batch_p99_us", quantile(&all, 0.99));
    sheet.set("scenarios_per_s", points / wall);
    sheet.set("interp.hit_share", c.interp_hits as f64 / points);
    sheet.set("interp.cells_built", c.built as f64);
    sheet.set("interp.cells_prefetched", c.prefetched as f64);
    sheet.set("cluster.cells_shipped", c.shipped as f64);
    sheet.set("cluster.cells_received", c.received as f64);
    sheet.set("cluster.cells_rejected", c.rejected as f64);
    sheet.set(
        "cluster.import_accept_share",
        if c.shipped == 0 {
            0.0
        } else {
            c.received as f64 / c.shipped as f64
        },
    );
    sheet.set("cache.solves_per_point", c.solves as f64 / points);
    sheet.set("client.conns_opened", c.conns as f64);
    println!(
        "cluster_sweep: {n} nodes, {} batches ({} new-machine), {} machines, {wall:.2} s",
        all.len(),
        cold.len(),
        walk.machines.len()
    );

    if trace {
        // Passes alternately with and without spans; the traced revisit
        // p50 over the untraced one is the tracing overhead.
        let mut by_mode: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let end = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
        let mut traced = false;
        while Instant::now() < end {
            let done = if traced {
                run_pass(&ring.router, &mut walk, &mut sheet.tracer)
            } else {
                run_pass(&ring.router, &mut walk, &mut off)
            };
            by_mode[traced as usize].extend(us(&done, |d| !d.new_machine));
            verify(sheet, &done);
            traced = !traced;
        }
        sheet.set("trace.overhead", median(&by_mode[1]) / median(&by_mode[0]));
        route(&ring, &mut walk, seconds / 2.0, sheet);
    }
    for node in ring.nodes {
        node.shutdown();
    }
}

/// Routing overhead: revisit batches through the router, and batches of
/// the same kind split by owner and sent directly to each owner with a
/// plain `Client`, in alternating order. The direct clients are open next
/// to the router's pooled connections, so this phase holds two client
/// connections per node; its one thread keeps at most one of them busy.
fn route(ring: &Ring, walk: &mut Walk, seconds: f64, sheet: &mut Sheet) {
    let mut tracer = std::mem::replace(&mut sheet.tracer, Tracer::new(false, Instant::now()));
    let mut direct: Vec<Client> = ring
        .nodes
        .iter()
        .map(|n| Client::connect(n.addr()).expect("connect a node directly"))
        .collect();
    let addrs: Vec<String> = ring.nodes.iter().map(|n| n.addr().to_string()).collect();
    let (mut routed, mut owner, mut slowest) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let sweep = walk.rng.pick(&walk.machines).clone();
        let (a, b) = (walk.rng.unit(), walk.rng.unit());
        let mut routed_batch = |tracer: &mut Tracer| {
            let points = sweep.points(a);
            let (reply, took) = tracer.span("route.routed_batch", i, None, || {
                ring.router
                    .predict_batch_within(&points, TOLERANCE)
                    .map_err(|e| e.to_string())
            });
            routed.push(micros(took));
            Done {
                points,
                took,
                new_machine: false,
                reply,
            }
        };
        let mut checked = None;
        if i.is_multiple_of(2) {
            checked = Some(routed_batch(&mut tracer));
        }
        // The same kind of batch, split by owner, each part sent directly.
        let points = sweep.points(b);
        let root = tracer.begin("route.direct", i, None);
        let mut worst = Duration::ZERO;
        for (node, addr) in addrs.iter().enumerate() {
            let part: Vec<&Scenario> = points
                .iter()
                .filter(|s| ring.router.owner_of(s) == Some(addr.as_str()))
                .collect();
            if part.is_empty() {
                continue;
            }
            let (reply, took) = tracer.span("route.owner_batch", i, root, || {
                direct[node].predict_batch_refs(&part, TOLERANCE)
            });
            sheet.attempted += 1;
            if let Err(e) = reply {
                sheet.fail(format!("direct owner batch: {e}"));
            }
            owner.push(nanos(took));
            worst = worst.max(took);
        }
        tracer.end(root);
        slowest.push(nanos(worst));
        if !i.is_multiple_of(2) {
            checked = Some(routed_batch(&mut tracer));
        }
        if let Some(d) = checked {
            verify(sheet, &[d]);
        }
        i += 1;
    }
    sheet.tracer = tracer;
    sheet.set("route.owner_batch_ns", median(&owner));
    sheet.set(
        "route.overhead_ns",
        median(&routed) * 1e3 - median(&slowest),
    );
}
