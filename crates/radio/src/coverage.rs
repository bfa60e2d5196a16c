//! Grid-backed coverage plans for static geometry.
//!
//! Node positions, the range `R`, and the beamwidth θ are immutable for
//! the lifetime of a simulation run, yet the per-frame transmit path asks
//! the same spatial questions — who does this beam cover, and from which
//! bearing does the energy arrive — millions of times. The original plan
//! answered them from dense pairwise matrices: perfect at the paper's
//! 30–130 nodes, fatal at 100k (10¹⁰ entries). A [`CoveragePlan`] now
//! rests on a [`SpatialGrid`] (cell edge ≥ the coverage reach), so both
//! construction and queries touch only the 3×3 cell neighbourhood of the
//! transmitter:
//!
//! * **Omni neighbour lists** are materialised once per node from the
//!   grid's candidate superset — O(n · local density) build, O(n) total
//!   memory — and served as borrowed id-sorted slices, allocation-free.
//! * **Per-edge tables** hold, per omni arena slot, the distance and
//!   arrival bearing (the reference [`Channel`] expressions) and the
//!   footprint of a beam aimed along the edge — a filter of the owner's
//!   omni slice, since a beam shares the omni disk's distance bound, built
//!   by the trig-free kernel shared with [`crate::DynamicCoveragePlan`].
//!   They cost O(Σ deg²) — linear in n at fixed density — instead of the
//!   old n² matrices; arbitrary-pair queries compute on demand.
//!
//! Every query is equal to its reference implementation
//! ([`Channel::covered_by`] / [`Channel::heading`] /
//! [`Channel::distance`]) by construction: the grid only ever *widens*
//! the candidate superset, the filters are the exact reference
//! predicates, and every emitted slice is ascending by id. The property
//! tests in `tests/coverage_plan.rs` and `tests/spatial_grid.rs` pin that
//! equivalence across random and adversarial topologies and beamwidths.

use dirca_geometry::Beamwidth;

use crate::channel::Channel;
use crate::edges::{arena_offset, coverage_reach, EdgeTable, NodeCoverage};
use crate::spatial::SpatialGrid;
use crate::NodeId;

/// Precomputed spatial tables for one immutable [`Channel`] + beamwidth,
/// backed by a uniform-grid index — O(n) memory, O(local density) per
/// query.
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
    /// Node positions, identical to the channel's (`positions[id]`).
    positions: Vec<dirca_geometry::Point>,
    /// The channel's transmission range `R`.
    range: f64,
    beamwidth: Beamwidth,
    /// Uniform grid over `positions` with cell edge ≥ the coverage reach.
    grid: SpatialGrid,
    /// `n + 1` offsets delimiting each node's omni slice in `edges`.
    omni_offsets: Vec<u32>,
    /// Every node's omni slice (ascending id order within each), per-edge
    /// distance, bearing and footprint, footprints appended after.
    edges: EdgeTable,
}

impl CoveragePlan {
    /// Builds the plan for `channel` with directional sets computed at
    /// `beamwidth`.
    ///
    /// Cost: O(n · local density) time for the grid and omni lists, one
    /// `heading_to` per edge, and O(Σ deg²) comparisons of cached bearings
    /// for the per-edge directional footprints — linear in n at fixed
    /// density, never pairwise-quadratic.
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

        // Materialise each node's omni neighbourhood from the grid
        // superset with the exact reference predicate, sorted: equal to
        // `Channel::covered_by(src, Omni)` output by construction (same
        // membership, and the reference emits ascending ids). Then cache
        // each edge's distance and bearing and fill its beam footprint
        // with the trig-free kernel (see `edges`): a beam shares the omni
        // disk's exact distance bound, so every footprint is a filter of
        // the owner's omni slice and the table is O(Σ deg²), not O(n²).
        let mut edges = EdgeTable::default();
        let mut omni_offsets = Vec::with_capacity(n + 1);
        omni_offsets.push(0u32);
        for src in 0..n {
            edges.push_neighbors(&grid, &positions, range, src);
            omni_offsets.push(arena_offset(edges.arena_len()));
        }
        edges.reserve_edges();
        let mut dist_sq = Vec::new();
        for (src, ends) in omni_offsets.windows(2).enumerate() {
            let omni = ends[0] as usize..ends[1] as usize;
            edges.push_edges(omni, &positions, src, beamwidth, range, &mut dist_sq);
        }

        CoveragePlan {
            positions,
            range,
            beamwidth,
            grid,
            omni_offsets,
            edges,
        }
    }

    /// Number of nodes covered by the plan.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The beamwidth the directional footprints are filtered at.
    pub fn beamwidth(&self) -> Beamwidth {
        self.beamwidth
    }

    /// The underlying spatial grid (sharding key for future
    /// partitioned-execution work, and a diagnostic for tests).
    pub fn grid(&self) -> &SpatialGrid {
        &self.grid
    }

    /// Total arena entries (a size diagnostic for tests and tooling).
    pub fn arena_len(&self) -> usize {
        self.edges.arena_len()
    }

    /// Approximate resident bytes of the whole plan: positions, the slice
    /// arena + offsets, the per-edge caches, and the grid index. Grows
    /// O(n + Σ deg²) — linear in n at fixed density, never O(n²).
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.positions.len() * std::mem::size_of::<dirca_geometry::Point>()
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
    pub fn node(&self, id: NodeId) -> NodeCoverage<'_> {
        // panic-path: an out-of-range id panics on the offset read, the
        // documented contract; in-range offsets are monotone within the
        // table by construction.
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
    fn plan_memory_is_subquadratic() {
        // A constant-density field: plan bytes must grow ~linearly, far
        // below the dense 24·n² matrices the old plan carried.
        let make = |side: usize| {
            let pts: Vec<Point> = (0..side * side)
                .map(|i| Point::new((i % side) as f64 * 0.7, (i / side) as f64 * 0.7))
                .collect();
            let n = pts.len();
            let plan = CoveragePlan::new(&chan(pts), beam(45.0));
            (n, plan.index_bytes())
        };
        let (n_small, b_small) = make(10);
        let (n_large, b_large) = make(30);
        let growth = b_large as f64 / b_small as f64;
        let quadratic = ((n_large * n_large) / (n_small * n_small)) as f64;
        assert!(
            growth < quadratic / 2.0,
            "bytes grew {growth:.1}× for {quadratic:.0}× the pair count"
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
}
