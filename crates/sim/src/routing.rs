//! Destination selection: the executable form of the routing fractions
//! `V[c][k]` of the general model (Appendix A).

use crate::config::NodeId;
use rand::Rng;

/// How a thread (or a forwarding handler) picks the next destination.
#[derive(Clone, Debug)]
pub enum DestChooser {
    /// Uniform over all nodes except the chooser (homogeneous all-to-all,
    /// §5: `V = 1/P` of total traffic to each node).
    UniformOther,
    /// Uniform over a fixed set of nodes (work-pile clients choosing a
    /// server, §6).
    UniformAmong(Vec<NodeId>),
    /// Deterministic cyclic order over a set (matrix-vector multiply `put`s
    /// to each other node in turn, §3).
    RoundRobin(Vec<NodeId>),
    /// Always the same node.
    Fixed(NodeId),
    /// Weighted choice; weights need not be normalised (hotspot patterns
    /// exercising the non-homogeneous general model). Built by
    /// [`DestChooser::weighted`].
    Weighted(Weights),
}

/// A weighted chooser's `(destination, weight)` pairs and the weights'
/// total, summed once, in order: each pick scales its draw by it.
#[derive(Clone, Debug)]
pub struct Weights {
    pairs: Vec<(NodeId, f64)>,
    total: f64,
}

impl DestChooser {
    /// A weighted chooser over `(destination, weight)` pairs.
    pub fn weighted(pairs: Vec<(NodeId, f64)>) -> Self {
        let total = pairs.iter().map(|&(_, w)| w).sum();
        DestChooser::Weighted(Weights { pairs, total })
    }

    /// Validate against the owner node `me` and machine size `p`.
    pub fn is_valid(&self, me: NodeId, p: usize) -> bool {
        match self {
            DestChooser::UniformOther => p >= 2,
            DestChooser::UniformAmong(set) | DestChooser::RoundRobin(set) => {
                !set.is_empty() && set.iter().all(|&d| d < p && d != me)
            }
            DestChooser::Fixed(d) => *d < p && *d != me,
            DestChooser::Weighted(Weights { pairs, total }) => {
                !pairs.is_empty()
                    && pairs.iter().all(|&(d, w)| d < p && d != me && w >= 0.0)
                    && *total > 0.0
            }
        }
    }

    /// Pick the next destination. `rr` is the caller-owned round-robin
    /// cursor (ignored by the random choosers).
    pub fn pick<R: Rng + ?Sized>(
        &self,
        me: NodeId,
        p: usize,
        rng: &mut R,
        rr: &mut usize,
    ) -> NodeId {
        match self {
            DestChooser::UniformOther => {
                debug_assert!(p >= 2);
                let k = rng.random_range(0..p - 1);
                if k >= me {
                    k + 1
                } else {
                    k
                }
            }
            DestChooser::UniformAmong(set) => set[rng.random_range(0..set.len())],
            DestChooser::RoundRobin(set) => {
                let d = set[*rr % set.len()];
                *rr = (*rr + 1) % set.len();
                d
            }
            DestChooser::Fixed(d) => *d,
            DestChooser::Weighted(Weights { pairs, total }) => {
                let mut u = rng.random::<f64>() * total;
                for &(d, w) in pairs {
                    if u < w {
                        return d;
                    }
                    u -= w;
                }
                pairs[pairs.len() - 1].0
            }
        }
    }

    /// Routing fractions `V[k]` implied by this chooser — one row of the
    /// general model's visit matrix (sums to 1 for a single hop).
    pub fn visit_fractions(&self, me: NodeId, p: usize) -> Vec<f64> {
        let mut v = vec![0.0; p];
        match self {
            DestChooser::UniformOther => {
                let f = 1.0 / (p - 1) as f64;
                for (k, slot) in v.iter_mut().enumerate() {
                    if k != me {
                        *slot = f;
                    }
                }
            }
            DestChooser::UniformAmong(set) => {
                let f = 1.0 / set.len() as f64;
                for &d in set {
                    v[d] += f;
                }
            }
            DestChooser::RoundRobin(set) => {
                let f = 1.0 / set.len() as f64;
                for &d in set {
                    v[d] += f;
                }
            }
            DestChooser::Fixed(d) => v[*d] = 1.0,
            DestChooser::Weighted(Weights { pairs, total }) => {
                for &(d, w) in pairs {
                    v[d] += w / total;
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_other_never_self() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut rr = 0;
        let c = DestChooser::UniformOther;
        for _ in 0..1000 {
            let d = c.pick(3, 8, &mut rng, &mut rr);
            assert!(d < 8 && d != 3);
        }
    }

    #[test]
    fn uniform_other_covers_all_targets() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut rr = 0;
        let c = DestChooser::UniformOther;
        let mut seen = [0u32; 4];
        for _ in 0..4000 {
            seen[c.pick(0, 4, &mut rng, &mut rr)] += 1;
        }
        assert_eq!(seen[0], 0);
        for &s in &seen[1..] {
            assert!(s > 800, "roughly uniform: {seen:?}");
        }
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut rr = 0;
        let c = DestChooser::RoundRobin(vec![1, 2, 3]);
        let picks: Vec<NodeId> = (0..6).map(|_| c.pick(0, 4, &mut rng, &mut rr)).collect();
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut rr = 0;
        let c = DestChooser::weighted(vec![(1, 3.0), (2, 1.0)]);
        let mut ones = 0;
        let n = 10_000;
        for _ in 0..n {
            if c.pick(0, 3, &mut rng, &mut rr) == 1 {
                ones += 1;
            }
        }
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn visit_fractions_sum_to_one() {
        for c in [
            DestChooser::UniformOther,
            DestChooser::UniformAmong(vec![1, 2]),
            DestChooser::RoundRobin(vec![1, 2, 3]),
            DestChooser::Fixed(2),
            DestChooser::weighted(vec![(1, 2.0), (3, 2.0)]),
        ] {
            let v = c.visit_fractions(0, 4);
            let sum: f64 = v.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{c:?} sums to {sum}");
            assert_eq!(v[0], 0.0, "{c:?} must not visit self");
        }
    }

    #[test]
    fn validity_checks() {
        assert!(DestChooser::UniformOther.is_valid(0, 2));
        assert!(!DestChooser::Fixed(0).is_valid(0, 4), "self loop");
        assert!(!DestChooser::Fixed(9).is_valid(0, 4), "out of range");
        assert!(!DestChooser::UniformAmong(vec![]).is_valid(0, 4), "empty");
        assert!(
            !DestChooser::weighted(vec![(1, 0.0)]).is_valid(0, 4),
            "zero weight"
        );
    }

    #[test]
    fn fixed_always_picks_target() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut rr = 0;
        let c = DestChooser::Fixed(2);
        for _ in 0..10 {
            assert_eq!(c.pick(0, 4, &mut rng, &mut rr), 2);
        }
    }
}
