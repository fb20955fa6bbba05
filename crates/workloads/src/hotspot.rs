//! Hotspot workload: a non-homogeneous pattern where a fraction of all
//! requests target one node.
//!
//! This is the simplest pattern the §5 closed form cannot describe: the
//! hotspot node saturates first, its requests queue deeper, and its own
//! thread suffers the most interference. It exercises the per-node
//! asymmetry of the Appendix A general model.

use crate::Window;
use lopc_core::{GeneralModel, Machine};
use lopc_dist::ServiceTime;
use lopc_sim::{DestChooser, SimConfig, ThreadSpec};

/// Hotspot traffic: each request goes to node 0 with probability
/// `hot_fraction`, otherwise to a uniformly random other node.
#[derive(Clone, Debug)]
pub struct Hotspot {
    /// Architectural parameters.
    pub machine: Machine,
    /// Mean work between requests.
    pub w: f64,
    /// Probability a request targets node 0.
    pub hot_fraction: f64,
    /// Measurement window.
    pub window: Window,
}

impl Hotspot {
    /// Hotspot workload; `hot_fraction ∈ [0, 1]`.
    pub fn new(machine: Machine, w: f64, hot_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot_fraction must be a probability"
        );
        Hotspot {
            machine,
            w,
            hot_fraction,
            window: Window::default(),
        }
    }

    /// Use a custom measurement window.
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Visit fractions for the thread on node `c`.
    fn row(&self, c: usize) -> Vec<f64> {
        let p = self.machine.p;
        let mut v = vec![0.0; p];
        if c == 0 {
            // Node 0 cannot send to itself: its traffic is uniform over the
            // others.
            let f = 1.0 / (p - 1) as f64;
            for (k, slot) in v.iter_mut().enumerate().skip(1) {
                let _ = k;
                *slot = f;
            }
        } else {
            v[0] = self.hot_fraction;
            let rest = (1.0 - self.hot_fraction) / (p - 2) as f64;
            for (k, slot) in v.iter_mut().enumerate() {
                if k != 0 && k != c {
                    *slot = rest;
                }
            }
        }
        v
    }

    /// The general-model instance.
    pub fn model(&self) -> GeneralModel {
        let p = self.machine.p;
        GeneralModel {
            machine: self.machine,
            w: vec![Some(self.w); p],
            v: (0..p).map(|c| self.row(c)).collect(),
            protocol_processor: false,
        }
    }

    /// Simulator configuration with weighted destinations.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        let p = self.machine.p;
        let handler = ServiceTime::with_cv2(self.machine.s_o, self.machine.c2);
        let threads = (0..p)
            .map(|c| {
                let weights: Vec<(usize, f64)> = self
                    .row(c)
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, w)| w > 0.0)
                    .collect();
                ThreadSpec {
                    work: Some(ServiceTime::constant(self.w)),
                    dest: DestChooser::weighted(weights),
                    hops: 1,
                    fanout: 1,
                }
            })
            .collect();
        let nominal = self.machine.contention_free_response(self.w).max(1.0);
        SimConfig {
            p,
            net_latency: self.machine.s_l,
            request_handler: handler.clone(),
            reply_handler: handler,
            threads,
            protocol_processor: false,
            latency_dist: None,
            stop: self.window.to_stop(nominal),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopc_sim::run;

    fn setup(hot: f64) -> Hotspot {
        Hotspot::new(Machine::new(16, 25.0, 150.0).with_c2(0.0), 1500.0, hot)
            .with_window(Window::quick())
    }

    #[test]
    fn rows_are_stochastic() {
        let wl = setup(0.4);
        for c in 0..16 {
            let row = wl.row(c);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert_eq!(row[c], 0.0);
        }
        assert!((wl.row(3)[0] - 0.4).abs() < 1e-12);
    }

    /// Model predicts the hotspot's inflated utilisation; the simulator
    /// agrees.
    #[test]
    fn model_tracks_sim_hotspot() {
        let wl = setup(0.5);
        let sol = wl.model().solve().unwrap();
        let sim = run(&wl.sim_config(41)).unwrap();
        // Hot node sees several times the request utilisation of a cold one.
        assert!(sol.uq[0] > 3.0 * sol.uq[5]);
        assert!(sim.nodes[0].uq > 3.0 * sim.nodes[5].uq);
        // Mean response time across threads agrees within tolerance.
        let r_sim = sim.aggregate.mean_r;
        let r_model = sol.mean_r();
        let err = (r_model - r_sim).abs() / r_sim;
        assert!(
            err < 0.10,
            "model {} vs sim {} ({:.1}%)",
            r_model,
            r_sim,
            err * 100.0
        );
    }

    /// hot_fraction = 1/(P-1) reduces to the homogeneous pattern.
    #[test]
    fn uniform_fraction_is_homogeneous() {
        let p = 16usize;
        let wl = setup(1.0 / (p - 1) as f64);
        let sol = wl.model().solve().unwrap();
        let closed = lopc_core::AllToAll::new(wl.machine, wl.w).solve().unwrap();
        assert!(
            (sol.r[1] - closed.r).abs() / closed.r < 1e-3,
            "general {} vs closed {}",
            sol.r[1],
            closed.r
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_fraction_rejected() {
        setup(1.5);
    }
}
