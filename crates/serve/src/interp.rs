//! Grid interpolation with certified error bounds: answer parameter sweeps
//! from sparse exact solves.
//!
//! The LoPC fixed-point models are smooth in `W`, `St`, `So` and `C²`, and
//! the dominant query shape — the sweeps behind every figure of the paper —
//! asks for thousands of *near-identical* scenarios. The exact cache answers
//! only repeats; each distinct sweep point still pays a full solve. This
//! module adds the missing layer: a **cell index** over the [`AxisKind`]
//! reference grid, answering in-cell queries by multilinear interpolation
//! between the cell's exactly solved corners — but *only* when the cell
//! carries an error certificate at least as tight as the caller's
//! tolerance.
//!
//! # Cell lifecycle
//!
//! 1. A query with `max_rel_err > 0` snaps each continuous axis onto the
//!    reference grid ([`AxisKind::bracket`]);
//!    axes sitting exactly on a
//!    grid point are *degenerate* and contribute no corners, so a `W`-sweep
//!    at a round-valued machine builds 1-D cells (two corners), not 4-D
//!    ones (sixteen).
//! 2. On first touch the cell is **built**: every corner, the cell
//!    **centre**, and (for cells spanning ≥ 2 axes) every **face
//!    midpoint** are solved exactly in one pass through the shared
//!    [`SolutionCache`], so adjacent cells reuse corners. Each probe is compared
//!    against its own interpolation; the worst observed residual, inflated
//!    by [`SAFETY_FACTOR`] and floored at [`CERT_FLOOR`], becomes the
//!    cell's certified relative error. The
//!    safety factor is calibrated by the test
//!    `calibration_sweep_certificates_are_sound` (`tests/interp_props.rs`),
//!    which sweeps all four closed-form variants and checks the
//!    certificate dominates the true worst-case in-cell residual.
//! 3. Every query in the cell, the first included, is answered by
//!    interpolation iff `certificate <= max_rel_err`; otherwise it is its
//!    own exact solve. `max_rel_err = 0` (the default) never consults the
//!    cell index at all and stays bit-identical to
//!    [`lopc_core::scenario::solve`].
//!
//! That is the one rule for every lane, and nothing is consulted before
//! the cell. A cell's corners and probes are each their own exact solve,
//! so a cell is a function of its key alone, and a tolerant answer is a
//! pure function of the request: the same bits whatever the caches hold,
//! on any node and in any arrival order. The predicate that sends a lane
//! to its cell is also the one [`serving_cell_hash`] asks.
//!
//! Cells are built only when a query lands in them — never ahead of a
//! sweep. A single request is a one-lane batch: [`InterpCache::predict`],
//! [`InterpCache::predict_traced`] and [`InterpCache::predict_batch`] all
//! run the same lane loop.
//!
//! Cells that cannot be trusted — a corner fails to solve, corners
//! disagree on the discrete optimal `ps`, or a component is `NaN` in some
//! corners but not others — get an infinite certificate: permanently
//! exact, never wrong.
//!
//! [`serving_cell_hash`] names the cell a tolerant request would consult,
//! so a cluster router can send the request to the one node that builds
//! and holds that cell (DESIGN.md §15). Nodes never exchange cells: a node
//! that gets a request for a cell it lacks builds the cell itself.
//!
//! A lane that consults a cell builds one [`CellKey`]; an exact lane builds
//! one `CacheKey`. Both live inline and carry their hash (`table` module),
//! which picks the shard and the slot. Snapping onto the grid reuses the
//! thread's last bracket per axis when the coordinate repeats, as it does
//! along a sweep. A cell's corners are its only allocation: builds and
//! interpolation work on fixed-size arrays. The cell index is a FIFO ring
//! of cells per shard, indexed by hash, that stores each key once.
//!
//! Corner solutions are **owned by the cell**, not referenced from the
//! LRU cache: a certificate can never outlive the data it certifies, and
//! the exact cache stays a pure repeat-accelerator whose eviction policy
//! needs no pinning entanglement (the cache-internals tests pin this
//! independence: hammering the LRU until the corner entries are evicted
//! must not perturb interpolated answers).

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::cache::SolutionCache;
use crate::table::{SlotIndex, Vacancy, WordHash};
use lopc_core::scenario::{AxisBracket, AxisKind, AxisValue, INTERP_AXES};
use lopc_core::{ModelError, Prediction, Scenario};

/// Multiplier applied to the worst observed probe residual to obtain the
/// certified bound. Calibrated by the test
/// `calibration_sweep_certificates_are_sound` (`tests/interp_props.rs`),
/// which prints the worst observed ratio of true in-cell residual to
/// probe residual across dense sweeps of all four closed-form variants
/// (1.001); this constant must dominate that ratio.
pub const SAFETY_FACTOR: f64 = 4.0;

/// Lower bound on any finite certificate. The probes can observe residuals
/// of zero (locally linear response) while the true in-cell error is merely
/// *small*; the floor covers those higher-order leftovers. Callers asking
/// for tolerances below the floor always get exact solves.
///
/// The floor sits at `1e-4` because the probe set captures the full
/// quadratic error structure of multilinear interpolation: in 1-D the
/// interpolation error of a smooth response peaks (to leading order) at
/// the cell centre, which the centre probe observes directly; in higher
/// dimensions curvature contributions of opposite sign can *cancel* at the
/// centre (`f = x² − y²` interpolates exactly there while being maximally
/// wrong at the face midpoints), so cell builds probe every face midpoint
/// too and certify against the worst residual over all probes.
pub const CERT_FLOOR: f64 = 1e-4;

/// How a prediction was produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Served {
    /// Exact path: solved (or exact-cache hit), bit-identical to
    /// [`lopc_core::scenario::solve`].
    Exact,
    /// Interpolated inside a certified cell.
    Interpolated {
        /// The cell's certified relative error (`<=` the request tolerance).
        certified_rel_err: f64,
    },
}

/// Words in a cell key: variant tag, `P`, `ps` or `k`, and both bracket
/// ends of every axis.
const CELL_WORDS: usize = 3 + 2 * INTERP_AXES;

/// Identity of one grid cell: variant tag, discrete parameters, and the
/// bit patterns of every axis bracket endpoint, inline and zero-padded,
/// plus their hash ([`CellKey::hash64`]). Equality compares the words;
/// [`Hash`] feeds only the stored hash.
#[derive(Clone, Debug)]
pub struct CellKey {
    hash: u64,
    words: [u64; CELL_WORDS],
}

impl PartialEq for CellKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.words == other.words
    }
}

impl Eq for CellKey {}

impl Hash for CellKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CellKey {
    fn of(scenario: &Scenario, brackets: &[AxisBracket; INTERP_AXES]) -> Option<CellKey> {
        let mut words = [0; CELL_WORDS];
        let discrete = match scenario {
            Scenario::AllToAll { machine, .. } => [0, machine.p as u64],
            Scenario::ClientServer { machine, ps, .. } => {
                words[2] = ps.map_or(u64::MAX, |ps| ps as u64);
                [1, machine.p as u64]
            }
            Scenario::ForkJoin { machine, k, .. } => {
                words[2] = *k as u64;
                [2, machine.p as u64]
            }
            Scenario::SharedMemory { machine, .. } => [4, machine.p as u64],
            Scenario::General(_) => return None,
        };
        words[..2].copy_from_slice(&discrete);
        for (i, b) in brackets.iter().enumerate() {
            words[3 + 2 * i] = b.lo.to_bits();
            words[4 + 2 * i] = b.hi.to_bits();
        }
        let mut hash = WordHash::new();
        words.iter().for_each(|&w| hash.add(w));
        Some(CellKey {
            hash: hash.finish(),
            words,
        })
    }

    /// The cell's 64-bit hash (`table::WordHash` over the key
    /// words), computed once when the key is built. It selects the local
    /// shard and slot *and* places the cell on the cluster ring — every
    /// node and router must agree on a cell's home, so routers and nodes
    /// must run the same build (DESIGN.md §15).
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

/// Where a scenario sits on the reference grid: its axis coordinates, the
/// bracket around each, and the key of the cell those brackets span.
struct Located {
    axes: [AxisValue; INTERP_AXES],
    brackets: [AxisBracket; INTERP_AXES],
    key: CellKey,
}

/// Snap `scenario` onto the reference grid. `None` for ineligible
/// variants and for coordinates that cannot be bracketed. Out-of-range
/// coordinates (possible for unvalidated direct library callers) never
/// reach the grid: cells must not straddle a validity boundary.
fn locate(scenario: &Scenario) -> Option<Located> {
    let axes = scenario.interp_axes()?;
    let mut brackets = [AxisBracket { lo: 0.0, hi: 0.0 }; INTERP_AXES];
    for (i, axis) in axes.iter().enumerate() {
        let (min, max) = axis.kind.valid_range();
        if !(min..=max).contains(&axis.value) {
            return None;
        }
        brackets[i] = bracket(i, axis)?;
    }
    let key = CellKey::of(scenario, &brackets)?;
    Some(Located {
        axes,
        brackets,
        key,
    })
}

/// `axis.kind.bracket(axis.value)` for axis `i`, reusing the bracket this
/// thread last computed for axis `i` when the value is the same. The lanes
/// of a sweep share all coordinates but one, and a bracket costs a `log10`
/// and a `powi`; `bracket` is a pure function, so the reuse is exact.
fn bracket(i: usize, axis: &AxisValue) -> Option<AxisBracket> {
    type Last = std::cell::Cell<Option<(AxisKind, u64, Option<AxisBracket>)>>;
    thread_local! {
        static LAST: [Last; INTERP_AXES] = const { [const { Last::new(None) }; INTERP_AXES] };
    }
    LAST.with(|last| match last[i].get() {
        Some((kind, bits, b)) if kind == axis.kind && bits == axis.value.to_bits() => b,
        _ => {
            let b = axis.kind.bracket(axis.value);
            last[i].set(Some((axis.kind, axis.value.to_bits(), b)));
            b
        }
    })
}

/// Where `scenario` consults the cell index at `max_rel_err`: the one
/// predicate that sends a lane to its cell. It needs a finite tolerance at
/// or above [`CERT_FLOOR`] (no certificate beats the floor, so a tighter
/// tolerance never pays for a build), an eligible variant and a
/// bracketable point. The lane loop and [`serving_cell_hash`] both ask it,
/// so a router and a node cannot disagree on which lanes consult a cell.
fn serving_cell(scenario: &Scenario, max_rel_err: f64) -> Option<Located> {
    if !max_rel_err.is_finite() || max_rel_err < CERT_FLOOR {
        return None;
    }
    locate(scenario)
}

/// The [`CellKey::hash64`] of the cell that would answer `scenario` at
/// `max_rel_err`, or `None` when the request never consults the cell index
/// (exact mode, a tolerance below [`CERT_FLOOR`], an ineligible variant,
/// or an unbracketable coordinate). The cluster router places tolerant
/// requests by this hash, so each cell is built and held by one node.
pub fn serving_cell_hash(scenario: &Scenario, max_rel_err: f64) -> Option<u64> {
    serving_cell(scenario, max_rel_err).map(|at| at.key.hash64())
}

/// The non-degenerate axes of a cell, in axis order.
#[derive(Clone, Copy, Debug)]
struct Span {
    axes: [usize; INTERP_AXES],
    len: usize,
}

impl Span {
    fn of(brackets: &[AxisBracket; INTERP_AXES]) -> Span {
        let mut span = Span {
            axes: [0; INTERP_AXES],
            len: 0,
        };
        for (i, b) in brackets.iter().enumerate() {
            if !b.is_degenerate() {
                span.axes[span.len] = i;
                span.len += 1;
            }
        }
        span
    }

    fn axes(&self) -> &[usize] {
        &self.axes[..self.len]
    }
}

/// One built cell: brackets, exactly solved corners, certificate.
#[derive(Debug)]
struct Cell {
    brackets: [AxisBracket; INTERP_AXES],
    span: Span,
    /// `2^span.len` corner solutions in bitmask order (bit `j` set = the
    /// `hi` endpoint of `span.axes()[j]`). Empty when the cell is
    /// untrusted (`cert` infinite).
    corners: Vec<Prediction>,
    /// Certified relative error; `INFINITY` = never interpolate here.
    cert: f64,
}

impl Cell {
    fn untrusted(brackets: [AxisBracket; INTERP_AXES]) -> Cell {
        Cell {
            brackets,
            span: Span::of(&brackets),
            corners: Vec::new(),
            cert: f64::INFINITY,
        }
    }

    /// Multilinear interpolation of the corner solutions at `axes`.
    fn interpolate(&self, axes: &[AxisValue; INTERP_AXES]) -> Prediction {
        let mut ts = [0.0f64; INTERP_AXES];
        for (t, &a) in ts.iter_mut().zip(self.span.axes()) {
            *t = self.brackets[a].weight(axes[a].value);
        }
        let ts = &ts[..self.span.len];
        let mut acc = [0.0f64; 6];
        let mut nan = [false; 6];
        for (mask, corner) in self.corners.iter().enumerate() {
            let mut w = 1.0;
            for (j, t) in ts.iter().enumerate() {
                w *= if mask & (1 << j) != 0 { *t } else { 1.0 - *t };
            }
            for (k, field) in corner_fields(corner).into_iter().enumerate() {
                if field.is_nan() {
                    nan[k] = true;
                } else {
                    acc[k] += w * field;
                }
            }
        }
        Prediction {
            r: if nan[0] { f64::NAN } else { acc[0] },
            x: if nan[1] { f64::NAN } else { acc[1] },
            rw: if nan[2] { f64::NAN } else { acc[2] },
            rq: if nan[3] { f64::NAN } else { acc[3] },
            ry: if nan[4] { f64::NAN } else { acc[4] },
            contention: if nan[5] { f64::NAN } else { acc[5] },
            ps: self.corners[0].ps,
            // No solver ran for this answer; 0 mirrors the closed-form
            // client-server path, which also reports 0.
            iterations: 0,
        }
    }
}

/// The six continuous prediction components, in a fixed order.
fn corner_fields(p: &Prediction) -> [f64; 6] {
    [p.r, p.x, p.rw, p.rq, p.ry, p.contention]
}

/// The certified-error metric: worst relative deviation of `approx` from
/// `exact` over the continuous components. Cycle-valued components
/// (`r`, `rw`, `rq`, `ry`, `contention`) are measured relative to
/// `max(|component|, |R|)` — they share `R`'s scale, and `contention`
/// legitimately passes near zero where a naive relative error would
/// explode; throughput `x` (a different unit, never near zero) is measured
/// relative to itself. `NaN`-pattern mismatches are infinitely wrong;
/// matching `NaN`s contribute nothing. Discrete fields (`ps`,
/// `iterations`) are excluded — `ps` agreement is enforced structurally at
/// cell build.
pub fn rel_resid(approx: &Prediction, exact: &Prediction) -> f64 {
    let scale_r = exact.r.abs();
    let pairs = [
        (approx.r, exact.r, scale_r),
        (approx.x, exact.x, exact.x.abs()),
        (approx.rw, exact.rw, exact.rw.abs().max(scale_r)),
        (approx.rq, exact.rq, exact.rq.abs().max(scale_r)),
        (approx.ry, exact.ry, exact.ry.abs().max(scale_r)),
        (
            approx.contention,
            exact.contention,
            exact.contention.abs().max(scale_r),
        ),
    ];
    let mut worst = 0.0f64;
    for (a, e, scale) in pairs {
        if a.is_nan() || e.is_nan() {
            if a.is_nan() != e.is_nan() {
                return f64::INFINITY;
            }
            continue;
        }
        let d = (a - e).abs();
        if d == 0.0 {
            continue;
        }
        if scale == 0.0 {
            return f64::INFINITY;
        }
        worst = worst.max(d / scale);
    }
    worst
}

/// One shard of the cell index: a FIFO ring of built (or building) cells
/// with a hash index over it. `Arc<OnceLock<Cell>>` gives build-once
/// semantics under concurrency — the first toucher builds (outside the
/// shard lock), racing threads block on the same slot instead of
/// duplicating the corner solves, which matters when a parallel batch
/// walks a sweep front across an empty grid.
struct CellShard {
    index: SlotIndex,
    /// Cells in insertion order around the ring; once it is full, `next`
    /// is the oldest. Eviction is FIFO. An evicted cell rebuilds for free
    /// only while its corners are still in the exact cache, and on a long
    /// sweep walk they seldom are: an in-process replay of perfbench's
    /// `cluster_sweep` (16 shards × 256 cells and exact entries per node)
    /// measured 0.25 cell builds and 0.76 exact solves per lane, because a
    /// revisit lands in a cell whose corners were evicted with it. Whether
    /// recency tracking would pay for itself is unmeasured.
    ring: Vec<(CellKey, Arc<OnceLock<Cell>>)>,
    next: usize,
    capacity: usize,
}

impl CellShard {
    fn new(capacity: usize) -> Self {
        CellShard {
            index: SlotIndex::new(capacity),
            ring: Vec::with_capacity(capacity),
            next: 0,
            capacity,
        }
    }

    fn slot(&mut self, key: &CellKey) -> Arc<OnceLock<Cell>> {
        if let Some(i) = self.index.find(key.hash, |i| self.ring[i].0 == *key) {
            return Arc::clone(&self.ring[i].1);
        }
        let slot = Arc::new(OnceLock::new());
        let entry = (key.clone(), Arc::clone(&slot));
        let (pos, i) = match self.index.vacancy(key.hash) {
            Vacancy::Free(pos) if self.ring.len() < self.capacity => {
                self.ring.push(entry);
                (pos, self.ring.len() - 1)
            }
            Vacancy::Free(_) => {
                // Evict the oldest cell. Its removal may free an earlier
                // entry of this key's window, so ask again.
                let i = self.next;
                self.next = (i + 1) % self.capacity;
                self.index.remove(self.ring[i].0.hash, i);
                self.ring[i] = entry;
                let Vacancy::Free(pos) = self.index.vacancy(key.hash) else {
                    unreachable!("a removal frees entries, never takes one")
                };
                (pos, i)
            }
            Vacancy::Full { pos, slot } => {
                // Every entry of the window is taken (only by keys crafted
                // to collide): the new cell replaces the first.
                self.ring[slot] = entry;
                (pos, slot)
            }
        };
        self.index.put(pos, key.hash, i);
        slot
    }
}

/// The interpolating cache: the sharded exact [`SolutionCache`] plus the
/// certified cell index layered over it. One instance per server; share by
/// reference.
pub struct InterpCache {
    cache: SolutionCache,
    shards: Vec<Mutex<CellShard>>,
    interp_hits: AtomicU64,
    interp_fallbacks: AtomicU64,
    cells_built: AtomicU64,
}

impl InterpCache {
    /// Wrap `cache` with a cell index of `cell_shards` independently locked
    /// shards holding up to `cells_per_shard` cells each (both clamped to
    /// at least 1).
    pub fn new(cache: SolutionCache, cell_shards: usize, cells_per_shard: usize) -> Self {
        InterpCache {
            cache,
            shards: (0..cell_shards.max(1))
                .map(|_| Mutex::new(CellShard::new(cells_per_shard.max(1))))
                .collect(),
            interp_hits: AtomicU64::new(0),
            interp_fallbacks: AtomicU64::new(0),
            cells_built: AtomicU64::new(0),
        }
    }

    /// The underlying exact cache (counters, direct exact access).
    pub fn cache(&self) -> &SolutionCache {
        &self.cache
    }

    /// Answers served by interpolation so far.
    pub fn interp_hits(&self) -> u64 {
        self.interp_hits.load(Ordering::Relaxed)
    }

    /// Requests that asked for interpolation (`max_rel_err > 0`) but were
    /// served exactly: ineligible variant, unbracketable coordinate, or a
    /// certificate wider than the tolerance.
    pub fn interp_fallbacks(&self) -> u64 {
        self.interp_fallbacks.load(Ordering::Relaxed)
    }

    /// Cells built (corner + probe solve batches performed).
    pub fn cells_built(&self) -> u64 {
        self.cells_built.load(Ordering::Relaxed)
    }

    /// Always 0: cells are built only when a query lands in them. Kept so
    /// callers written against the former sweep prefetcher still compile.
    pub fn cells_prefetched(&self) -> u64 {
        0
    }

    /// Always 0: nodes never exchange cells. Kept so callers written
    /// against the former node-to-node cell transfer still compile.
    pub fn cells_received(&self) -> u64 {
        0
    }

    /// Always 0: nodes never exchange cells. Kept so callers written
    /// against the former node-to-node cell transfer still compile.
    pub fn cells_rejected(&self) -> u64 {
        0
    }

    /// Cells currently resident across all shards.
    pub fn cells(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cell shard poisoned").ring.len())
            .sum()
    }

    /// Answer one scenario within `max_rel_err` relative tolerance.
    ///
    /// `max_rel_err <= 0` (and any non-finite value) is **exact mode**:
    /// the request never touches the cell index and the answer is
    /// bit-identical to [`lopc_core::scenario::solve`]. A positive
    /// tolerance permits interpolation when a certified cell covers the
    /// query; the certificate, not the caller, decides — an uncertifiable
    /// query silently gets the exact answer (tolerances are upper bounds,
    /// and exact always satisfies them).
    pub fn predict(&self, scenario: &Scenario, max_rel_err: f64) -> Result<Prediction, ModelError> {
        self.predict_batch(std::slice::from_ref(scenario), max_rel_err)
            .pop()
            .expect("one lane")
    }

    /// [`InterpCache::predict`], also reporting which path answered. A
    /// single is a one-lane [`InterpCache::predict_batch`]: same lane
    /// loop, same policy, same counters.
    pub fn predict_traced(
        &self,
        scenario: &Scenario,
        max_rel_err: f64,
    ) -> Result<(Prediction, Served), ModelError> {
        self.serve(std::slice::from_ref(scenario), max_rel_err, |p, served| {
            (p, served)
        })
        .pop()
        .expect("one lane")
    }

    /// Batched [`InterpCache::predict`]: every lane by the same rule. A
    /// lane that consults a cell is answered by its cell when the cell's
    /// certificate is within `max_rel_err`; every other lane is its own
    /// exact solve through the exact cache.
    pub fn predict_batch(
        &self,
        scenarios: &[Scenario],
        max_rel_err: f64,
    ) -> Vec<Result<Prediction, ModelError>> {
        self.serve(scenarios, max_rel_err, |p, _| p)
    }

    /// The one lane loop behind [`InterpCache::predict`],
    /// [`InterpCache::predict_traced`] and [`InterpCache::predict_batch`].
    /// Each answer goes out through `wrap` together with the path that
    /// produced it, so a caller that ignores the path pays nothing for it.
    fn serve<T>(
        &self,
        scenarios: &[Scenario],
        max_rel_err: f64,
        wrap: impl Fn(Prediction, Served) -> T,
    ) -> Vec<Result<T, ModelError>> {
        // NaN and infinities count as "no usable tolerance": exact mode for
        // the whole batch (the contract is per-request).
        let tolerant = max_rel_err.is_finite() && max_rel_err > 0.0;
        scenarios
            .iter()
            .map(|s| {
                if tolerant {
                    if let Some((p, served)) = self.try_interpolate(s, max_rel_err) {
                        self.interp_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(wrap(p, served));
                    }
                    self.interp_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
                self.cache.solve_keyed(s).map(|p| wrap(p, Served::Exact))
            })
            .collect()
    }

    /// The interpolation path; `None` means "serve exactly instead".
    fn try_interpolate(
        &self,
        scenario: &Scenario,
        max_rel_err: f64,
    ) -> Option<(Prediction, Served)> {
        let at = serving_cell(scenario, max_rel_err)?;
        // Build outside every lock; concurrent touchers of the same cell
        // block here instead of re-solving the corners.
        let slot = self.slot_for(&at.key);
        let cell = slot.get_or_init(|| self.build_cell(scenario, at.brackets));
        if cell.cert > max_rel_err {
            return None;
        }
        Some((
            cell.interpolate(&at.axes),
            Served::Interpolated {
                certified_rel_err: cell.cert,
            },
        ))
    }

    /// The build-once slot for `key` (creating it, and FIFO-evicting, as
    /// needed).
    fn slot_for(&self, key: &CellKey) -> Arc<OnceLock<Cell>> {
        let shard = &self.shards[(key.hash % self.shards.len() as u64) as usize];
        shard.lock().expect("cell shard poisoned").slot(key)
    }

    /// Keys of every fully built resident cell (trusted or not), in no
    /// particular order. Diagnostics and tests; the serving paths all
    /// address cells by key.
    pub fn resident_cell_keys(&self) -> Vec<CellKey> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cell shard poisoned");
            keys.extend(
                shard
                    .ring
                    .iter()
                    .filter(|(_, slot)| slot.get().is_some())
                    .map(|(key, _)| key.clone()),
            );
        }
        keys
    }

    /// Build a cell on its first touch: solve its corners and probes and
    /// derive the certificate. All `2^d + 1 + 2d` exact solves go through
    /// the exact cache in one pass, corners first, so a corner already
    /// resident is not solved again. Lanes and probe answers live in
    /// fixed-size arrays; the corners are the cell's one allocation.
    ///
    /// The probe set is the centre plus, for cells spanning two or more
    /// axes, every face midpoint: in 1-D the leading-order interpolation
    /// error peaks at the centre, but in higher dimensions curvature terms
    /// of opposite sign can cancel there while peaking on a face. The
    /// certificate covers the worst residual over all probes.
    fn build_cell(&self, template: &Scenario, brackets: [AxisBracket; INTERP_AXES]) -> Cell {
        self.cells_built.fetch_add(1, Ordering::Relaxed);
        let span = Span::of(&brackets);
        let d = span.len;

        let centre_coords: [f64; INTERP_AXES] =
            std::array::from_fn(|i| 0.5 * (brackets[i].lo + brackets[i].hi));
        let mut probe_coords = [centre_coords; 1 + 2 * INTERP_AXES];
        let mut probes = 1;
        if d >= 2 {
            for &ax in span.axes() {
                for end in [brackets[ax].lo, brackets[ax].hi] {
                    probe_coords[probes][ax] = end;
                    probes += 1;
                }
            }
        }
        let probe_coords = &probe_coords[..probes];

        // One exact solve per lane; the template is eligible, so every
        // lane relocates.
        let solve = |coords: [f64; INTERP_AXES]| {
            let lane = template
                .with_axis_values(coords)
                .expect("eligible template");
            self.cache.solve_keyed(&lane)
        };
        let mut corners: Vec<Prediction> = Vec::with_capacity(1 << d);
        let mut corner_failed = false;
        for mask in 0..(1u32 << d) {
            let mut coords: [f64; INTERP_AXES] = std::array::from_fn(|i| brackets[i].lo);
            for (j, &ax) in span.axes().iter().enumerate() {
                if mask & (1 << j) != 0 {
                    coords[ax] = brackets[ax].hi;
                }
            }
            match solve(coords) {
                Ok(p) => corners.push(p),
                // A corner outside the solvable region poisons the whole
                // cell: certificates only cover cells that are smooth
                // throughout. (The probes are still solved, as every lane
                // of a build always is.)
                Err(_) => corner_failed = true,
            }
        }
        let mut exact: [Option<Prediction>; 1 + 2 * INTERP_AXES] = [None; 1 + 2 * INTERP_AXES];
        for (slot, &coords) in exact.iter_mut().zip(probe_coords) {
            *slot = solve(coords).ok();
        }
        if corner_failed {
            return Cell::untrusted(brackets);
        }

        // Structural consistency: one discrete optimum and one NaN pattern
        // across the whole cell, or no interpolation at all.
        let first = corners[0];
        for c in &corners[1..] {
            if c.ps != first.ps || !nan_compatible(c, &first) {
                return Cell::untrusted(brackets);
            }
        }

        let cell = Cell {
            brackets,
            span,
            corners,
            cert: f64::INFINITY,
        };
        let kinds = template.interp_axes().expect("eligible template");
        let mut worst = 0.0f64;
        for (coords, exact) in probe_coords.iter().zip(exact) {
            let Some(exact) = exact else {
                // An unsolvable probe means the cell is not smooth
                // throughout: no certificate.
                return Cell::untrusted(brackets);
            };
            if exact.ps != cell.corners[0].ps {
                return Cell::untrusted(brackets);
            }
            let probe_axes: [AxisValue; INTERP_AXES] = std::array::from_fn(|i| AxisValue {
                kind: kinds[i].kind,
                value: coords[i],
            });
            worst = worst.max(rel_resid(&cell.interpolate(&probe_axes), &exact));
        }
        Cell {
            cert: (worst * SAFETY_FACTOR).max(CERT_FLOOR),
            ..cell
        }
    }
}

/// Same components defined (`NaN`) in both predictions.
fn nan_compatible(a: &Prediction, b: &Prediction) -> bool {
    corner_fields(a)
        .into_iter()
        .zip(corner_fields(b))
        .all(|(x, y)| x.is_nan() == y.is_nan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopc_core::Machine;
    use std::collections::HashSet;

    fn machine() -> Machine {
        Machine::new(32, 25.0, 200.0).with_c2(0.0)
    }

    fn a2a(w: f64) -> Scenario {
        Scenario::AllToAll {
            machine: machine(),
            w,
        }
    }

    fn interp_cache() -> InterpCache {
        InterpCache::new(SolutionCache::new(4, 256), 4, 64)
    }

    #[test]
    fn zero_tolerance_is_bit_identical_exact_mode() {
        let c = interp_cache();
        let (p, served) = c.predict_traced(&a2a(777.7), 0.0).unwrap();
        assert_eq!(served, Served::Exact);
        let direct = lopc_core::scenario::solve(&a2a(777.7)).unwrap();
        assert_eq!(p.r.to_bits(), direct.r.to_bits());
        assert_eq!(c.cells(), 0, "exact mode never touches the cell index");
        assert_eq!(c.interp_hits() + c.interp_fallbacks(), 0);
    }

    #[test]
    fn interpolated_answer_is_within_the_certificate() {
        let c = interp_cache();
        // Off-grid query; generous tolerance.
        let q = a2a(777.7);
        let (p, served) = c.predict_traced(&q, 1e-2).unwrap();
        let cert = match served {
            Served::Interpolated { certified_rel_err } => certified_rel_err,
            Served::Exact => panic!("generous tolerance must interpolate"),
        };
        assert!(cert <= 1e-2);
        assert!(cert >= CERT_FLOOR);
        let exact = lopc_core::scenario::solve(&q).unwrap();
        let resid = rel_resid(&p, &exact);
        assert!(
            resid <= cert,
            "true residual {resid} exceeds certificate {cert}"
        );
        assert_eq!(c.interp_hits(), 1);
        assert_eq!(c.cells_built(), 1);
    }

    #[test]
    fn tolerance_below_floor_falls_back_to_exact() {
        let c = interp_cache();
        let q = a2a(777.7);
        let (p, served) = c.predict_traced(&q, CERT_FLOOR / 10.0).unwrap();
        assert_eq!(served, Served::Exact);
        assert_eq!(c.interp_fallbacks(), 1);
        let direct = lopc_core::scenario::solve(&q).unwrap();
        assert_eq!(p.r.to_bits(), direct.r.to_bits());
    }

    #[test]
    fn general_variant_always_exact() {
        let c = interp_cache();
        let q = Scenario::General(lopc_core::GeneralModel::homogeneous_all_to_all(
            machine(),
            300.0,
        ));
        let (_, served) = c.predict_traced(&q, 1e-2).unwrap();
        assert_eq!(served, Served::Exact);
        assert_eq!(c.interp_fallbacks(), 1);
        assert_eq!(c.cells(), 0);
    }

    #[test]
    fn sweep_shares_cells_and_corners() {
        let c = interp_cache();
        // 100 points inside one W bracket: first query builds the cell
        // (2 corners + 1 centre = 3 solves on a degenerate machine), the
        // other 99 are free.
        let b = lopc_core::scenario::AxisKind::Work.bracket(777.7).unwrap();
        assert!(!b.is_degenerate());
        for i in 0..100 {
            let w = b.lo + (b.hi - b.lo) * (0.05 + 0.9 * i as f64 / 99.0);
            let (p, _) = c.predict_traced(&a2a(w), 1e-2).unwrap();
            let exact = lopc_core::scenario::solve(&a2a(w)).unwrap();
            assert!(rel_resid(&p, &exact) <= 1e-2, "w={w}");
        }
        assert_eq!(c.cells_built(), 1);
        assert!(
            c.cache().misses() <= 3,
            "one 1-D cell costs at most 3 exact solves, did {}",
            c.cache().misses()
        );
        assert!(c.interp_hits() >= 98);
    }

    #[test]
    fn on_grid_query_interpolates_to_the_corner_solution() {
        let c = interp_cache();
        // All four axes on-grid: the cell is a point, interpolation is the
        // exact corner answer, on first touch and on every later one.
        let q = a2a(1000.0);
        let exact = lopc_core::scenario::solve(&q).unwrap();
        for _ in 0..2 {
            let (p, served) = c.predict_traced(&q, 1e-2).unwrap();
            assert!(matches!(served, Served::Interpolated { .. }));
            assert_eq!(p.r.to_bits(), exact.r.to_bits());
        }
    }

    /// A tolerant answer is its cell's, whatever the exact cache holds:
    /// an exact entry of the same scenario does not answer it, and neither
    /// does the centre probe the cell's own build left resident (which
    /// once answered the cell centre's second touch with other bits than
    /// its first).
    #[test]
    fn tolerant_answers_ignore_resident_exact_entries() {
        let b = lopc_core::scenario::AxisKind::Work.bracket(777.7).unwrap();
        for q in [a2a(777.7), a2a(0.5 * (b.lo + b.hi))] {
            let fresh = interp_cache().predict_traced(&q, 1e-2).unwrap();
            assert!(matches!(fresh.1, Served::Interpolated { .. }), "{q:?}");
            let c = interp_cache();
            c.predict(&q, 0.0).unwrap();
            for touch in 0..2 {
                let (p, served) = c.predict_traced(&q, 1e-2).unwrap();
                assert_eq!(served, fresh.1, "{q:?}, touch {touch}");
                assert!(
                    crate::codec::predictions_identical(&p, &fresh.0),
                    "{q:?}, touch {touch}"
                );
            }
            assert_eq!(c.cells(), 1);
        }
    }

    #[test]
    fn concurrent_cell_builds_do_not_duplicate_corner_solves() {
        let c = InterpCache::new(SolutionCache::new(8, 256), 8, 64);
        let b = lopc_core::scenario::AxisKind::Work.bracket(777.7).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..50 {
                        let f = 0.05 + 0.9 * ((i * 8 + t) as f64 / 400.0);
                        let w = b.lo + (b.hi - b.lo) * f;
                        let (p, _) = c.predict_traced(&a2a(w), 1e-2).unwrap();
                        let exact = lopc_core::scenario::solve(&a2a(w)).unwrap();
                        assert!(rel_resid(&p, &exact) <= 1e-2);
                    }
                });
            }
        });
        assert_eq!(c.cells_built(), 1, "OnceLock must build the cell once");
        // Corner/centre solves may race with the cache's lost-race window,
        // but the OnceLock bounds it to one builder: 3 distinct keys.
        assert!(c.cache().misses() <= 3);
    }

    #[test]
    fn cell_eviction_keeps_answers_correct() {
        // A cell index of capacity 1: every new cell evicts the previous
        // one; answers stay within tolerance throughout.
        let c = InterpCache::new(SolutionCache::new(2, 512), 1, 1);
        for w in [111.3, 333.3, 777.7, 111.3] {
            let (p, _) = c.predict_traced(&a2a(w), 1e-2).unwrap();
            let exact = lopc_core::scenario::solve(&a2a(w)).unwrap();
            assert!(rel_resid(&p, &exact) <= 1e-2, "w={w}");
        }
        assert_eq!(c.cells(), 1);
        // The revisited cell was rebuilt — but its corners were still in
        // the exact cache, so the rebuild cost no new solves.
        assert_eq!(c.cells_built(), 4);
    }

    /// Every cell and every exact key forced onto one hash: each lane still
    /// gets its own cell's interpolation or its own exact solve, the index
    /// never grows past one window, and the counters add up.
    #[test]
    fn colliding_cells_never_answer_for_each_other() {
        const TOL: f64 = 1e-2;
        // Points in distinct W cells (and one two-axis cell), each answered
        // first by a fresh node: its cell interpolated from its own corners.
        let mut lanes: Vec<Scenario> = (0..16).map(|i| a2a(400.0 * 1.11f64.powi(i))).collect();
        lanes.push(Scenario::AllToAll {
            machine: Machine::new(32, 26.3, 200.0).with_c2(0.0),
            w: 777.7,
        });
        let want: Vec<(Prediction, Served)> = lanes
            .iter()
            .map(|q| interp_cache().predict_traced(q, TOL).unwrap())
            .collect();
        let cells: HashSet<CellKey> = lanes.iter().map(|s| locate(s).unwrap().key).collect();
        assert_eq!(cells.len(), lanes.len(), "one cell per lane");

        let _forced = crate::table::forced::Hash::to(0x5555_0000_aaaa_ffff);
        let c = InterpCache::new(SolutionCache::new(2, 256), 2, 64);
        for round in 0..3 {
            for (q, (want, want_served)) in lanes.iter().zip(&want) {
                let (p, served) = c.predict_traced(q, TOL).unwrap();
                match served {
                    Served::Interpolated { .. } => {
                        assert_eq!(served, *want_served, "{q:?}, round {round}");
                        assert_eq!(p, *want, "{q:?}, round {round}");
                    }
                    Served::Exact => {
                        let exact = lopc_core::scenario::solve(q).unwrap();
                        assert_eq!(p, exact, "{q:?}, round {round}");
                    }
                }
            }
        }
        let lanes_served = 3 * lanes.len() as u64;
        assert!(c.cells() <= crate::table::WINDOW, "{} cells", c.cells());
        for shard in &c.shards {
            let shard = shard.lock().unwrap();
            assert_eq!(shard.index.occupied(), shard.ring.len());
        }
        assert!(c.cache().len() <= crate::table::WINDOW);
        // Each cell is built at least once, and again only after a
        // colliding newcomer evicted it; no lane is counted twice.
        assert!(c.cells_built() >= cells.len() as u64);
        assert!(c.cells_built() <= lanes_served);
        assert!(c.interp_hits() + c.interp_fallbacks() <= lanes_served);
        assert!(c.interp_hits() > 0, "no lane interpolated under collisions");
    }

    #[test]
    fn rel_resid_metric() {
        let e = Prediction {
            r: 1000.0,
            x: 0.02,
            rw: 800.0,
            rq: 150.0,
            ry: 50.0,
            contention: 0.5,
            ps: None,
            iterations: 10,
        };
        assert_eq!(rel_resid(&e, &e), 0.0);
        // r off by 1 cycle: 1e-3 relative.
        let mut a = e;
        a.r = 1001.0;
        assert!((rel_resid(&a, &e) - 1e-3).abs() < 1e-12);
        // Near-zero contention is measured against R's scale, not itself.
        let mut a = e;
        a.contention = 0.6;
        assert!((rel_resid(&a, &e) - 1e-4).abs() < 1e-12);
        // Throughput is measured against itself.
        let mut a = e;
        a.x = 0.0202;
        assert!((rel_resid(&a, &e) - 0.01).abs() < 1e-9);
        // NaN-pattern mismatch is infinitely wrong; matching NaNs are fine.
        let mut a = e;
        a.rw = f64::NAN;
        assert_eq!(rel_resid(&a, &e), f64::INFINITY);
        let mut both = e;
        both.rw = f64::NAN;
        assert_eq!(rel_resid(&both, &both), 0.0);
    }

    #[test]
    fn predict_batch_exact_mode_is_bit_identical() {
        let c = interp_cache();
        let mut lanes: Vec<Scenario> = (0..20).map(|i| a2a(500.0 + 13.7 * i as f64)).collect();
        let bad = Scenario::AllToAll {
            machine: Machine::new(1, 25.0, 200.0),
            w: 10.0,
        };
        lanes.push(bad);
        let out = c.predict_batch(&lanes, 0.0);
        for (lane, r) in lanes.iter().zip(&out) {
            match (r, lopc_core::scenario::solve(lane)) {
                (Ok(p), Ok(e)) => assert_eq!(p.r.to_bits(), e.r.to_bits()),
                (Err(a), Err(b)) => assert_eq!(a, &b),
                (r, e) => panic!("batched {r:?} vs library {e:?}"),
            }
        }
        assert_eq!(c.cells(), 0, "exact mode never touches the cell index");
    }

    #[test]
    fn predict_batch_sweep_shares_cells_and_solves_misses_in_one_batch() {
        let c = interp_cache();
        let b = lopc_core::scenario::AxisKind::Work.bracket(777.7).unwrap();
        let lanes: Vec<Scenario> = (0..50)
            .map(|i| a2a(b.lo + (b.hi - b.lo) * (0.05 + 0.9 * i as f64 / 49.0)))
            .collect();
        let out = c.predict_batch(&lanes, 1e-2);
        for (lane, r) in lanes.iter().zip(&out) {
            let exact = lopc_core::scenario::solve(lane).unwrap();
            assert!(rel_resid(r.as_ref().unwrap(), &exact) <= 1e-2);
        }
        assert_eq!(c.cells_built(), 1);
        assert!(c.cache().misses() <= 3, "one 1-D cell, one batched build");
        assert!(c.interp_hits() >= 48);
        // An unsolvable lane in tolerance mode: its cell is untrusted, the
        // lane falls back to the exact batch and carries its own error.
        let bad = Scenario::AllToAll {
            machine: Machine::new(1, 25.0, 200.0),
            w: 10.0,
        };
        let out = c.predict_batch(&[lanes[0].clone(), bad], 1e-2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn cells_are_built_only_where_lanes_land() {
        // A walk over many W cells builds only cells its lanes land in —
        // nothing ahead of the sweep — whether it arrives as one batch or
        // as single requests (one-lane batches), and both build the same
        // cells.
        let lanes: Vec<Scenario> = (0..50).map(|i| a2a(700.0 + 10.0 * i as f64)).collect();
        let touched: HashSet<CellKey> = lanes.iter().map(|s| locate(s).unwrap().key).collect();
        let batch = interp_cache();
        for r in batch.predict_batch(&lanes, 5e-2) {
            r.unwrap();
        }
        let singles = interp_cache();
        for q in &lanes {
            singles.predict(q, 5e-2).unwrap();
        }
        let resident =
            |c: &InterpCache| -> HashSet<CellKey> { c.resident_cell_keys().into_iter().collect() };
        for c in [&batch, &singles] {
            assert_eq!(c.cells_built(), resident(c).len() as u64);
            assert!(
                resident(c).is_subset(&touched),
                "a cell no lane needs was built"
            );
        }
        assert_eq!(resident(&batch), resident(&singles));
    }

    #[test]
    fn two_axis_cells_probe_face_midpoints() {
        let c = interp_cache();
        // St off-grid too: the cell spans W and St (d = 2), so the build
        // batch is 4 corners + centre + 4 face midpoints.
        let q = Scenario::AllToAll {
            machine: Machine::new(32, 26.3, 200.0).with_c2(0.0),
            w: 777.7,
        };
        let (p, served) = c.predict_traced(&q, 1e-2).unwrap();
        let cert = match served {
            Served::Interpolated { certified_rel_err } => certified_rel_err,
            Served::Exact => panic!("smooth 2-D cell must certify"),
        };
        assert_eq!(c.cells_built(), 1);
        assert!(
            c.cache().misses() <= 9,
            "2-D cell build is 9 unique lanes, did {}",
            c.cache().misses()
        );
        let exact = lopc_core::scenario::solve(&q).unwrap();
        assert!(rel_resid(&p, &exact) <= cert);
    }

    /// Serve `w` from `c` as a client-server scenario on `m` (`ps = None`,
    /// so the discrete optimum may move inside a cell) and check the answer
    /// against the exact solve: within its certificate when interpolated,
    /// bit-identical otherwise. Returns whether it was interpolated.
    fn check_client_server_answer(c: &InterpCache, m: Machine, w: f64) -> bool {
        let q = Scenario::ClientServer {
            machine: m,
            w,
            ps: None,
        };
        let (p, served) = c.predict_traced(&q, 1e-2).unwrap();
        let exact = lopc_core::scenario::solve(&q).unwrap();
        match served {
            Served::Interpolated { certified_rel_err } => {
                assert!(certified_rel_err <= 1e-2);
                assert!(
                    rel_resid(&p, &exact) <= certified_rel_err,
                    "w={w}: interpolated answer outside its certificate"
                );
                true
            }
            Served::Exact => {
                assert_eq!(
                    p.r.to_bits(),
                    exact.r.to_bits(),
                    "w={w}: untrusted (or uncovered) queries stay exact"
                );
                false
            }
        }
    }

    #[test]
    fn prefetched_cells_serve_only_with_a_valid_certificate() {
        // A linear client-server sweep crosses regions where the discrete
        // optimum moves: some cells come out untrusted. A batch over the
        // sweep builds its cells ahead of the single requests that then
        // land between its points, in those same cells; a cell built
        // before its query gets no special trust.
        let c = interp_cache();
        let m = Machine::new(32, 50.0, 131.0).with_c2(1.0);
        let q = |w: f64| Scenario::ClientServer {
            machine: m,
            w,
            ps: None,
        };
        let sweep: Vec<Scenario> = (0..80).map(|i| q(400.0 + 12.5 * i as f64)).collect();
        for r in c.predict_batch(&sweep, 1e-2) {
            r.unwrap();
        }
        let built = c.cells_built();
        let cell_of = |s: &Scenario| locate(s).unwrap().key;
        let touched: HashSet<CellKey> = sweep.iter().map(cell_of).collect();
        let (mut interpolated, mut exact) = (0, 0);
        for w in (0..79).map(|i| 406.25 + 12.5 * i as f64) {
            if !touched.contains(&cell_of(&q(w))) {
                continue;
            }
            if check_client_server_answer(&c, m, w) {
                interpolated += 1;
            } else {
                exact += 1;
            }
        }
        assert_eq!(
            c.cells_built(),
            built,
            "every single lands in a cell the batch built ahead of it"
        );
        assert!(interpolated > 0, "no cell ahead of the singles certified");
        assert!(exact > 0, "no cell ahead of the singles came out untrusted");
    }

    #[test]
    fn client_server_optimal_ps_cells_agree_or_fall_back() {
        // Sweep W geometrically through a region where the optimal server
        // count moves: every answer must be within its certificate when
        // interpolated (corners agreed) and bit-identical exact otherwise
        // (corners disagreed -> untrusted cell).
        let c = interp_cache();
        let m = Machine::new(32, 50.0, 131.0).with_c2(1.0);
        for i in 0..60 {
            check_client_server_answer(&c, m, 300.0 * 1.07f64.powi(i));
        }
    }
}
