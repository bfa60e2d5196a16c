//! The grid-backed coverage plan, for static and mobile geometry alike.
//!
//! The per-frame transmit path asks the same spatial questions — who does
//! this beam cover, and from which bearing does the energy arrive —
//! millions of times, while positions, the range `R` and the beamwidth θ
//! change at most once per mobility epoch. The original plan answered
//! them from dense pairwise matrices: perfect at the paper's 30–130
//! nodes, fatal at 100k (10¹⁰ entries). A [`CoveragePlan`] now rests on a
//! [`SpatialGrid`] (cell edge ≥ the coverage reach), so both construction
//! and queries touch only the 3×3 cell neighbourhood of the transmitter:
//!
//! * **Omni neighbour lists** are materialised once per node from the
//!   grid's candidate superset — O(n · local density) build, O(n) total
//!   memory — and served as borrowed id-sorted slices, allocation-free.
//! * **Per-edge tables** hold, per omni arena slot, the distance, squared
//!   distance and arrival bearing (the reference [`Channel`]
//!   expressions): O(Σ deg) build and memory, linear in n at fixed
//!   density, instead of the old n² matrices.
//! * **Beam footprints** are not stored. A beam shares the omni disk's
//!   distance bound, so its footprint is a filter of the owner's omni
//!   slice, which the trig-free O(deg) filter in `edges` computes on each
//!   query from the cached bearings. Arbitrary-pair queries compute on
//!   demand.
//!
//! Every query is equal to its reference implementation
//! ([`Channel::covered_by`] / [`Channel::heading`] /
//! [`Channel::distance`]) by construction: the grid only ever *widens*
//! the candidate superset, the filters are the exact reference
//! predicates, and every emitted slice is ascending by id. The property
//! tests in `tests/coverage_plan.rs` and `tests/spatial_grid.rs` pin that
//! equivalence across random and adversarial topologies and beamwidths.
//!
//! # Position epochs
//!
//! [`CoveragePlan::apply_moves`] takes one epoch's moves and rebuilds the
//! whole plan in place: it re-bins the grid under its construction frame
//! and refills the omni slices and edge caches as a build does, O(Σ deg)
//! work with no footprint to recompute. The experiments and the benchmark
//! move every node in every epoch, so tracking which caches a move
//! dirtied would save them nothing. An empty move list does no work at
//! all. Clamping out-of-box movers to the border cells is monotone and
//! 1-Lipschitz in cell units, so two positions within one reach still land
//! within one cell of each other and the 3×3 superset survives arbitrary
//! excursions. The plan's contents are a pure function of the current
//! positions: `tests/dynamic_plan.rs` pins a moved plan to a fresh build
//! over the final positions, field for field.

// Transmit hot path: every indexing and `expect` site panics on a broken
// invariant, so each carries an `#[expect]` on its fn saying which one.
#![deny(clippy::indexing_slicing, clippy::expect_used)]

use dirca_geometry::{Beamwidth, Point};

use crate::channel::Channel;
use crate::edges::{arena_offset, coverage_reach, EdgeTable, NodeCoverage};
use crate::spatial::SpatialGrid;
use crate::NodeId;

/// Precomputed spatial tables for one [`Channel`] + beamwidth, backed by
/// a uniform-grid index — O(n) memory, O(local density) per query — and
/// rebuilt in place by [`CoveragePlan::apply_moves`] when nodes move.
///
/// # Example
///
/// ```
/// use dirca_geometry::{Beamwidth, Point};
/// use dirca_radio::{Channel, CoveragePlan, NodeId, TxPattern};
/// use dirca_sim::SimDuration;
///
/// let chan = Channel::new(
///     vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(0.0, 0.7)],
///     1.0,
///     SimDuration::from_micros(1),
/// )?;
/// let beam = Beamwidth::from_degrees(30.0).unwrap();
/// let plan = CoveragePlan::new(&chan, beam);
/// // Omni neighbourhoods match the reference query...
/// assert_eq!(plan.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
/// // ...and so does the footprint of a beam aimed 0 → 1.
/// let aimed = TxPattern::aimed(
///     chan.position(NodeId(0))?,
///     chan.position(NodeId(1))?,
///     beam,
/// );
/// assert_eq!(
///     plan.directional_coverage(NodeId(0), NodeId(1)),
///     chan.covered_by(NodeId(0), aimed)?,
/// );
/// # Ok::<(), dirca_radio::ChannelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoveragePlan {
    /// Current node positions: the channel's until the first move.
    positions: Vec<Point>,
    /// The channel's transmission range `R`.
    range: f64,
    beamwidth: Beamwidth,
    /// Uniform grid over `positions` with cell edge ≥ the coverage reach.
    grid: SpatialGrid,
    /// `n + 1` offsets delimiting each node's omni slice in `edges`.
    omni_offsets: Vec<u32>,
    /// Every node's omni slice (ascending id order within each) and
    /// per-edge distance, squared distance and bearing.
    edges: EdgeTable,
    /// Position-epoch work counters since construction.
    stats: InvalidationStats,
}

/// The name perfbench's mobility replay uses for the plan: mobile runs
/// are served by the same [`CoveragePlan`] as static ones.
pub type DynamicCoveragePlan = CoveragePlan;

/// Counters for the work position epochs performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalidationStats {
    /// Number of [`CoveragePlan::apply_moves`] calls.
    pub epochs: u64,
    /// Movers whose grid cell (under the construction frame) changed.
    pub rebins: u64,
    /// Node caches rebuilt: every node, on every epoch that moves one.
    pub rebuilds: u64,
}

impl PartialEq for CoveragePlan {
    /// Field-for-field table equality: positions, build parameters, and
    /// every node's neighbour list and edge geometry. Work counters and
    /// the grid are excluded — a moved plan keeps its construction frame
    /// while serving exactly a fresh build's answers.
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.range.to_bits() == other.range.to_bits()
            && self.beamwidth == other.beamwidth
            && self.omni_offsets == other.omni_offsets
            && self.edges == other.edges
    }
}

impl CoveragePlan {
    /// Builds the plan for `channel` with directional sets computed at
    /// `beamwidth`.
    ///
    /// Cost: O(n · local density) time for the grid and omni lists and
    /// one `heading_to` per edge — linear in n at fixed density, never
    /// pairwise-quadratic. Directional footprints are filtered per query.
    ///
    /// # Panics
    ///
    /// Panics if the channel holds ≥ `u32::MAX` nodes (the arena uses
    /// 32-bit offsets; a simulated channel is orders of magnitude smaller).
    pub fn new(channel: &Channel, beamwidth: Beamwidth) -> Self {
        let n = channel.len();
        assert!(
            (n as u64) < u64::from(u32::MAX),
            "coverage plan supports fewer than u32::MAX nodes"
        );
        let positions = channel.positions().to_vec();
        let range = channel.range();
        let grid = SpatialGrid::new(&positions, coverage_reach(range));
        let mut plan = CoveragePlan {
            positions,
            range,
            beamwidth,
            grid,
            omni_offsets: Vec::with_capacity(n + 1),
            edges: EdgeTable::default(),
            stats: InvalidationStats::default(),
        };
        plan.fill();
        plan
    }

    /// Same as [`CoveragePlan::new`], under the name the mobility replay
    /// in `perfbench` uses.
    pub fn from_channel(channel: &Channel, beamwidth: Beamwidth) -> Self {
        CoveragePlan::new(channel, beamwidth)
    }

    /// Refills the omni offsets and the edge table in place from the grid
    /// and the current positions.
    #[expect(
        clippy::indexing_slicing,
        reason = "`windows(2)` yields two-element slices"
    )]
    fn fill(&mut self) {
        // Materialise each node's omni neighbourhood from the grid
        // superset with the exact reference predicate, sorted: equal to
        // `Channel::covered_by(src, Omni)` output by construction (same
        // membership, and the reference emits ascending ids). Then cache
        // each edge's distance and bearing for the arrival geometry and
        // the footprint filter (see `edges`).
        let CoveragePlan {
            positions,
            range,
            grid,
            omni_offsets,
            edges,
            ..
        } = self;
        edges.clear();
        omni_offsets.clear();
        omni_offsets.push(0u32);
        for src in 0..positions.len() {
            edges.push_neighbors(grid, positions, *range, src);
            omni_offsets.push(arena_offset(edges.arena_len()));
        }
        edges.reserve_edges();
        for (src, ends) in omni_offsets.windows(2).enumerate() {
            edges.push_edges(ends[0] as usize..ends[1] as usize, positions, src);
        }
    }

    /// Applies one position epoch: `moves` lists `(node, new position)`
    /// pairs, ascending by node (the contract
    /// `dirca_topology::MobilityState::step` upholds). Updates the
    /// positions, re-bins the grid under its construction frame and
    /// refills every node's tables in place, so the plan equals a fresh
    /// [`CoveragePlan::new`] over the new positions. An empty list only
    /// ticks the epoch counter.
    ///
    /// # Panics
    ///
    /// Panics if a move names an out-of-range node.
    #[expect(
        clippy::indexing_slicing,
        reason = "a move naming an out-of-range node is a documented panic"
    )]
    pub fn apply_moves(&mut self, moves: &[(usize, Point)]) {
        self.stats.epochs += 1;
        if moves.is_empty() {
            return;
        }
        for &(id, to) in moves {
            assert!(
                id < self.positions.len(),
                "move names node {id} out of range"
            );
            if self.grid.cell_of(self.positions[id]) != self.grid.cell_of(to) {
                self.stats.rebins += 1;
            }
            self.positions[id] = to;
        }
        self.grid.rebin(&self.positions);
        self.fill();
        self.stats.rebuilds += self.positions.len() as u64;
    }

    /// The current node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The position-epoch work counters since construction (all zero for
    /// a plan that never moved).
    pub fn stats(&self) -> InvalidationStats {
        self.stats
    }

    /// Number of nodes covered by the plan.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The beamwidth directional footprints are filtered at.
    pub fn beamwidth(&self) -> Beamwidth {
        self.beamwidth
    }

    /// The underlying spatial grid (a diagnostic for tests).
    pub fn grid(&self) -> &SpatialGrid {
        &self.grid
    }

    /// Total arena entries, one per edge: Σ deg (a size diagnostic for
    /// tests and tooling).
    pub fn arena_len(&self) -> usize {
        self.edges.arena_len()
    }

    /// Approximate resident bytes of the whole plan: positions, the slice
    /// arena + offsets, the per-edge caches, and the grid index. Grows
    /// O(n + Σ deg) — linear in n at fixed density, never O(n²).
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.positions.len() * std::mem::size_of::<Point>()
            + self.omni_offsets.len() * std::mem::size_of::<u32>()
            + self.edges.index_bytes()
            + self.grid.index_bytes()
    }

    /// Node `id`'s coverage answers: neighbours, edge geometry, arrival
    /// geometry, beam footprints and strict adjacency.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "an out-of-range `id` panics on the offset read, the documented contract; in-range offsets are monotone within the table by construction"
    )]
    pub fn node(&self, id: NodeId) -> NodeCoverage<'_> {
        NodeCoverage {
            table: &self.edges,
            omni: self.omni_offsets[id.0] as usize..self.omni_offsets[id.0 + 1] as usize,
            id,
            positions: &self.positions,
            range: self.range,
            beamwidth: self.beamwidth,
        }
    }

    /// Shorthand for [`NodeCoverage::neighbors`] of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.node(id).neighbors()
    }

    /// Shorthand for [`NodeCoverage::directional_coverage_into`] from
    /// `src`: equal to [`Channel::covered_by`] with
    /// [`TxPattern::aimed`](crate::TxPattern::aimed) for any `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn directional_coverage_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        self.node(src).directional_coverage_into(dst, out);
    }

    /// Allocating convenience form of
    /// [`CoveragePlan::directional_coverage_into`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn directional_coverage(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.directional_coverage_into(src, dst, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxPattern;
    use dirca_geometry::Point;
    use dirca_sim::SimDuration;

    fn chan(points: Vec<Point>) -> Channel {
        Channel::new(points, 1.0, SimDuration::from_micros(1)).unwrap()
    }

    fn cross() -> Channel {
        chan(vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(0.0, 0.9),
            Point::new(-0.9, 0.0),
            Point::new(0.0, -0.9),
            Point::new(3.0, 3.0), // isolated
        ])
    }

    fn beam(deg: f64) -> Beamwidth {
        Beamwidth::from_degrees(deg).unwrap()
    }

    #[test]
    fn neighbors_match_reference() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(30.0));
        for i in 0..c.len() {
            assert_eq!(
                plan.neighbors(NodeId(i)),
                c.covered_by(NodeId(i), TxPattern::Omni).unwrap().as_slice(),
                "node {i}"
            );
        }
    }

    #[test]
    fn directional_sets_match_reference_for_all_aims() {
        let c = cross();
        for theta in [15.0, 90.0, 181.0, 360.0] {
            let plan = CoveragePlan::new(&c, beam(theta));
            for src in 0..c.len() {
                // Every aim — neighbour, isolated node, or self — must
                // reproduce the reference footprint.
                for dst in 0..c.len() {
                    let pattern = TxPattern::aimed(
                        c.position(NodeId(src)).unwrap(),
                        c.position(NodeId(dst)).unwrap(),
                        beam(theta),
                    );
                    assert_eq!(
                        plan.directional_coverage(NodeId(src), NodeId(dst)),
                        c.covered_by(NodeId(src), pattern).unwrap(),
                        "θ={theta} {src}→{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrices_match_reference_bit_for_bit() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(90.0));
        for a in 0..c.len() {
            for b in 0..c.len() {
                let (a, b) = (NodeId(a), NodeId(b));
                let (heading, distance) = plan.node(a).toward(b);
                assert_eq!(distance.to_bits(), c.distance(a, b).unwrap().to_bits());
                assert_eq!(
                    heading.radians().to_bits(),
                    c.heading(a, b).unwrap().radians().to_bits()
                );
            }
        }
    }

    #[test]
    fn omni_beamwidth_equals_the_neighbour_slice() {
        let c = cross();
        let plan = CoveragePlan::new(&c, Beamwidth::OMNI);
        for src in 0..c.len() {
            for &dst in plan.neighbors(NodeId(src)) {
                assert_eq!(
                    plan.directional_coverage(NodeId(src), dst),
                    plan.neighbors(NodeId(src)),
                    "360° beam must equal the omni footprint"
                );
            }
        }
    }

    #[test]
    fn adjacency_matches_strict_predicate() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(30.0));
        let mut out = Vec::new();
        for i in 0..c.len() {
            plan.node(NodeId(i)).adjacency_into(&mut out);
            // Brute-force strict oracle (the Topology::adjacency
            // predicate: d² ≤ R², no EPSILON).
            let oracle: Vec<NodeId> = (0..c.len())
                .filter(|&j| {
                    j != i
                        && c.position(NodeId(i))
                            .unwrap()
                            .distance_squared(c.position(NodeId(j)).unwrap())
                            <= 1.0
                })
                .map(NodeId)
                .collect();
            assert_eq!(out, oracle, "node {i}");
        }
    }

    #[test]
    fn plan_memory_is_linear() {
        // A constant-density field: the arena holds exactly one entry per
        // edge (no per-aim footprint is stored), and the bytes grow with
        // nodes plus edges.
        let make = |side: usize| {
            let pts: Vec<Point> = (0..side * side)
                .map(|i| Point::new((i % side) as f64 * 0.7, (i / side) as f64 * 0.7))
                .collect();
            let plan = CoveragePlan::new(&chan(pts), beam(45.0));
            let edges: usize = (0..plan.len())
                .map(|i| plan.neighbors(NodeId(i)).len())
                .sum();
            assert_eq!(plan.arena_len(), edges, "arena must hold Σ deg entries");
            (plan.len() + edges, plan.index_bytes())
        };
        let (size_small, b_small) = make(10);
        let (size_large, b_large) = make(30);
        let growth = b_large as f64 / b_small as f64;
        let linear = size_large as f64 / size_small as f64;
        assert!(
            growth <= linear,
            "bytes grew {growth:.2}× for {linear:.2}× the nodes plus edges"
        );
    }

    #[test]
    fn empty_channel_builds_an_empty_plan() {
        let c = Channel::new(vec![], 1.0, SimDuration::ZERO).unwrap();
        let plan = CoveragePlan::new(&c, beam(90.0));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.arena_len(), 0);
    }

    #[test]
    fn accessors_report_build_parameters() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(45.0));
        assert_eq!(plan.len(), 6);
        assert!(!plan.is_empty());
        assert!((plan.beamwidth().degrees() - 45.0).abs() < 1e-12);
        assert!(!plan.grid().is_empty());
        assert!(plan.index_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "node id out of range")]
    fn out_of_range_lookup_panics() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(90.0));
        let _ = plan.node(NodeId(0)).toward(NodeId(99));
    }

    fn grid_points(side: usize, pitch: f64) -> Vec<Point> {
        (0..side * side)
            .map(|i| Point::new((i % side) as f64 * pitch, (i / side) as f64 * pitch))
            .collect()
    }

    fn plan_over(points: &[Point], theta: f64) -> CoveragePlan {
        CoveragePlan::new(&chan(points.to_vec()), beam(theta))
    }

    /// Asserts a moved plan equals a plan built fresh over its current
    /// positions, table for table (so every query answers alike).
    fn assert_matches_fresh(plan: &CoveragePlan, theta: f64) {
        assert_eq!(plan, &plan_over(plan.positions(), theta));
    }

    #[test]
    fn moved_plan_matches_fresh_plan() {
        let target = grid_points(4, 0.6);
        for theta in [30.0, 120.0, 360.0] {
            let start: Vec<Point> = target.iter().rev().copied().collect();
            let mut plan = plan_over(&start, theta);
            let moves: Vec<(usize, Point)> = target.iter().copied().enumerate().collect();
            plan.apply_moves(&moves);
            assert_matches_fresh(&plan, theta);
        }
    }

    #[test]
    fn empty_moves_do_zero_cache_work() {
        let mut plan = plan_over(&grid_points(4, 0.6), 45.0);
        for _ in 0..10 {
            plan.apply_moves(&[]);
        }
        let stats = plan.stats();
        assert_eq!(stats.epochs, 10);
        assert_eq!(stats.rebins, 0, "zero-motion epochs must not re-bin");
        assert_eq!(stats.rebuilds, 0, "zero-motion epochs must not rebuild");
    }

    #[test]
    fn single_move_updates_queries() {
        let mut plan = plan_over(&grid_points(4, 0.6), 60.0);
        // Walk node 5 far away and back in several epochs.
        for target in [
            Point::new(10.0, 10.0),
            Point::new(-3.0, 4.0),
            Point::new(0.6, 0.6),
        ] {
            plan.apply_moves(&[(5, target)]);
            assert_matches_fresh(&plan, 60.0);
        }
        assert!(plan.stats().rebuilds > 0);
    }

    #[test]
    fn moves_within_a_cell_still_invalidate() {
        // A sub-cell wiggle changes distances and may change coverage even
        // though no re-bin happens.
        let mut plan = plan_over(&grid_points(3, 0.9), 90.0);
        plan.apply_moves(&[(4, Point::new(0.95, 0.9))]);
        let stats = plan.stats();
        assert_eq!(stats.rebins, 0, "same-cell move must not re-bin");
        assert!(stats.rebuilds > 0, "same-cell move must still rebuild");
        assert_matches_fresh(&plan, 90.0);
    }

    #[test]
    fn a_moving_epoch_rebuilds_every_node_once() {
        let mut plan = plan_over(&grid_points(4, 0.6), 60.0);
        plan.apply_moves(&[(1, Point::new(0.1, 0.2)), (2, Point::new(1.4, 0.1))]);
        assert_eq!(plan.stats().rebuilds, plan.len() as u64);
    }

    #[test]
    fn equality_compares_caches_not_history() {
        let points = grid_points(4, 0.6);
        let mut a = plan_over(&points, 60.0);
        // Move away and back: same final geometry, different history.
        a.apply_moves(&[(3, Point::new(5.0, 5.0))]);
        a.apply_moves(&[(3, points[3])]);
        let b = plan_over(&points, 60.0);
        assert_eq!(a, b, "round-trip move must restore cache equality");
        a.apply_moves(&[(3, Point::new(5.0, 5.0))]);
        assert_ne!(a, b);
    }

    #[test]
    fn out_of_box_excursions_stay_correct() {
        let mut plan = plan_over(&grid_points(3, 0.8), 90.0);
        let (cols, rows) = (plan.grid().cols(), plan.grid().rows());
        // March two nodes far outside the original bounding box, close to
        // each other: they must still see each other.
        plan.apply_moves(&[(0, Point::new(50.0, 50.0)), (1, Point::new(50.5, 50.0))]);
        assert_eq!(plan.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!((plan.grid().cols(), plan.grid().rows()), (cols, rows));
        assert_matches_fresh(&plan, 90.0);
    }

    #[test]
    fn empty_plan_is_well_formed() {
        let mut plan = plan_over(&[], 45.0);
        assert!(plan.is_empty());
        plan.apply_moves(&[]);
        assert_eq!(plan.stats().epochs, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_move_panics() {
        let mut plan = plan_over(&grid_points(2, 0.5), 45.0);
        plan.apply_moves(&[(99, Point::ORIGIN)]);
    }
}
