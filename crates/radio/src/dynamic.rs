//! Incrementally-maintained coverage plan for mobile geometry.
//!
//! [`crate::CoveragePlan`] is immutable by design: positions never change,
//! so every spatial answer is precomputed once. Mobility breaks that
//! contract. A [`DynamicCoveragePlan`] serves the same queries — omni
//! neighbour lists, per-edge distance/heading, directional footprints, the
//! strict traffic adjacency — from per-node caches over a mutable uniform
//! grid, and [`DynamicCoveragePlan::apply_moves`] refreshes them
//! *incrementally* on a position epoch:
//!
//! 1. **Re-bin only the movers.** Each moved node is removed from its old
//!    grid bucket and inserted (id-sorted) into its new one; unmoved nodes
//!    are never touched.
//! 2. **Rebuild only the affected 3×3 blocks.** A node's cache depends
//!    only on positions within the coverage reach of it, and the grid's
//!    cell edge ≥ reach, so the caches that can change are exactly the
//!    occupants of the 3×3 cell blocks around each mover's old and new
//!    cells. Those are collected (after re-binning, so movers are found
//!    via their new cells and unmoved witnesses via the old blocks),
//!    deduplicated, and rebuilt in ascending id order — never the whole
//!    arena.
//!
//! An empty move list does **zero** cache work: no re-bins, no rebuilds.
//! The counters in [`InvalidationStats`] make that auditable — the golden
//! regression in `tests/dynamic_plan.rs` asserts the zero-motion epochs of
//! a speed-0 run leave both counters at exactly zero (counter-asserted,
//! not timed), and the equivalence proptest pins that after any sequence
//! of epochs the incrementally-maintained plan equals a from-scratch
//! rebuild field for field.
//!
//! # Determinism
//!
//! Buckets are id-sorted `Vec`s, the affected set is sorted and
//! deduplicated before rebuilding, and every cache is rebuilt over the
//! current positions with the omni reference predicate
//! ([`TxPattern::covers`](crate::TxPattern::covers)) and the footprint kernel the static plan shares,
//! which is bit-identical to the sector predicate — no hashing, no
//! iteration-order dependence anywhere, so a plan's contents are a pure
//! function of `(initial positions, move history)`.
//!
//! # Out-of-box movement
//!
//! The grid's bounding box is fixed at construction; movers that wander
//! outside it clamp to the border cells. Clamping is monotone and
//! 1-Lipschitz in cell units, so two positions within one reach of each
//! other still land within one cell of each other and the 3×3 superset
//! guarantee survives arbitrary excursions (dense border cells only cost
//! time, never correctness).

use dirca_geometry::{Beamwidth, Point};

use crate::channel::Channel;
use crate::edges::{coverage_reach, EdgeTable, NodeCoverage};
use crate::spatial::{Candidates, GridFrame};
use crate::NodeId;

/// Counters for the incremental-invalidation work an epoch performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalidationStats {
    /// Number of [`DynamicCoveragePlan::apply_moves`] calls.
    pub epochs: u64,
    /// Nodes moved between grid buckets.
    pub rebins: u64,
    /// Per-node caches rebuilt.
    pub rebuilds: u64,
}

/// A mutable uniform grid with [`crate::SpatialGrid`]'s geometry (one
/// shared [`GridFrame`]) and per-cell `Vec` buckets, so single nodes can
/// be re-binned in O(bucket).
#[derive(Debug, Clone)]
struct DynamicGrid {
    frame: GridFrame,
    /// Row-major buckets; ids ascend within each bucket.
    buckets: Vec<Vec<NodeId>>,
}

impl DynamicGrid {
    /// Builds the grid over `positions` with cell edge ≥ `reach`.
    fn new(positions: &[Point], reach: f64) -> Self {
        let frame = GridFrame::new(positions, reach);
        let mut grid = DynamicGrid {
            frame,
            buckets: vec![Vec::new(); frame.cells()],
        };
        // Walking ids in ascending order keeps every bucket id-sorted.
        for (id, p) in positions.iter().enumerate() {
            grid.bucket_mut(frame.cell_of(*p)).push(NodeId(id));
        }
        grid
    }

    fn bucket_mut(&mut self, cell: (u32, u32)) -> &mut Vec<NodeId> {
        // panic-path: cell_of clamps both axes into the grid, so the
        // row-major index is always within the bucket vector.
        &mut self.buckets[self.frame.index(cell)]
    }

    /// Moves `id` from the bucket of `old` to the bucket of `new`,
    /// preserving ascending id order. Returns whether the buckets differed
    /// (i.e. a re-bin actually happened).
    fn rebin(&mut self, id: NodeId, old: (u32, u32), new: (u32, u32)) -> bool {
        if old == new {
            return false;
        }
        let from = self.bucket_mut(old);
        // panic-path: the plan re-bins a node exactly once per move and
        // tracks positions itself, so the node is present in its old
        // bucket by construction.
        let pos = from
            .binary_search(&id)
            .expect("mover present in its old grid bucket");
        from.remove(pos);
        let to = self.bucket_mut(new);
        let at = to.binary_search(&id).unwrap_or_else(|i| i);
        to.insert(at, id);
        true
    }

    /// Invokes `f` for every node in the 3×3 cell block around `cell`,
    /// row-major, ids ascending within each bucket.
    fn for_each_in_block(&self, cell: (u32, u32), mut f: impl FnMut(NodeId)) {
        let (rows, first, last) = self.frame.block(cell);
        for row in rows {
            for col in first..=last {
                // panic-path: clamped col/row are within the grid.
                for &id in &self.buckets[self.frame.index((col, row))] {
                    f(id);
                }
            }
        }
    }
}

impl Candidates for DynamicGrid {
    /// The 3×3 block of `around`'s cell — the mutable mirror of
    /// `SpatialGrid::for_each_candidate`.
    fn for_each_candidate(&self, around: Point, f: impl FnMut(NodeId)) {
        self.for_each_in_block(self.frame.cell_of(around), f);
    }
}

/// A coverage plan over *mobile* geometry: the same query surface as
/// [`crate::CoveragePlan`], plus [`DynamicCoveragePlan::apply_moves`] for
/// position epochs with incremental cache invalidation.
#[derive(Debug, Clone)]
pub struct DynamicCoveragePlan {
    positions: Vec<Point>,
    range: f64,
    beamwidth: Beamwidth,
    grid: DynamicGrid,
    /// One edge table per node, laid out like one node's share of the
    /// static plan's; rebuilds refill it in place, without allocating once
    /// warm.
    nodes: Vec<EdgeTable>,
    stats: InvalidationStats,
    /// Scratch: affected node ids of the current epoch (kept across calls
    /// to avoid reallocation; returned as a slice from `apply_moves`).
    affected: Vec<NodeId>,
    /// Scratch: the cells whose 3×3 blocks the current epoch invalidates.
    blocks: Vec<(u32, u32)>,
    /// Scratch: squared distances of the node being rebuilt.
    dist_sq: Vec<f64>,
}

impl PartialEq for DynamicCoveragePlan {
    /// Field-for-field cache equality: positions and every per-node cache
    /// (neighbour lists, edge geometry, footprints). Work counters and
    /// grid bounding boxes are excluded — two plans built over different
    /// move histories legitimately differ there while serving identical
    /// answers.
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.range.to_bits() == other.range.to_bits()
            && self.beamwidth == other.beamwidth
            && self.nodes == other.nodes
    }
}

impl DynamicCoveragePlan {
    /// Builds the plan from scratch over `positions`.
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive and finite.
    pub fn new(positions: &[Point], range: f64, beamwidth: Beamwidth) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "range must be positive and finite, got {range}"
        );
        let grid = DynamicGrid::new(positions, coverage_reach(range));
        let mut plan = DynamicCoveragePlan {
            positions: positions.to_vec(),
            range,
            beamwidth,
            grid,
            nodes: vec![EdgeTable::default(); positions.len()],
            stats: InvalidationStats::default(),
            affected: Vec::new(),
            blocks: Vec::new(),
            dist_sq: Vec::new(),
        };
        for id in 0..plan.positions.len() {
            plan.rebuild_node(id);
        }
        plan
    }

    /// Convenience: build from a [`Channel`] (positions + range) at the
    /// given beamwidth.
    pub fn from_channel(channel: &Channel, beamwidth: Beamwidth) -> Self {
        DynamicCoveragePlan::new(channel.positions(), channel.range(), beamwidth)
    }

    /// Number of nodes covered by the plan.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The beamwidth the footprints are filtered at.
    pub fn beamwidth(&self) -> Beamwidth {
        self.beamwidth
    }

    /// The current node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The incremental-invalidation work counters since construction.
    pub fn stats(&self) -> InvalidationStats {
        self.stats
    }

    /// Applies one position epoch: `moves` is the ascending-by-index list
    /// of `(node, new position)` pairs (the contract
    /// `dirca_topology::MobilityState::step` upholds). Re-bins only the
    /// movers and rebuilds only the caches whose 3×3 cell block changed;
    /// an empty list does zero cache work (only the epoch counter ticks).
    ///
    /// Returns the affected node ids (ascending, deduplicated) — the
    /// nodes whose caches were rebuilt, which callers use to refresh their
    /// own derived per-node state.
    ///
    /// # Panics
    ///
    /// Panics if a move names an out-of-range node.
    pub fn apply_moves(&mut self, moves: &[(usize, Point)]) -> &[NodeId] {
        self.stats.epochs += 1;
        self.affected.clear();
        if moves.is_empty() {
            return &self.affected;
        }
        // Phase 1: update positions and re-bin the movers, remembering
        // each mover's old and new cells.
        let blocks = &mut self.blocks;
        blocks.clear();
        for &(id, new_pos) in moves {
            assert!(
                id < self.positions.len(),
                "move names node {id} out of range"
            );
            let old_cell = self.grid.frame.cell_of(self.positions[id]);
            let new_cell = self.grid.frame.cell_of(new_pos);
            self.positions[id] = new_pos;
            if self.grid.rebin(NodeId(id), old_cell, new_cell) {
                self.stats.rebins += 1;
            }
            blocks.push(old_cell);
            if new_cell != old_cell {
                blocks.push(new_cell);
            }
        }
        // Phase 2: the caches that can change are exactly the occupants of
        // the 3×3 blocks around each mover's old and new cells (collected
        // *after* re-binning: movers are found via their new cells,
        // unmoved witnesses of a departure via the old blocks). Sort and
        // deduplicate both the blocks and the node set so shared cells are
        // walked once and every cache rebuilds exactly once, ascending.
        blocks.sort_unstable();
        blocks.dedup();
        let affected = &mut self.affected;
        for &block in blocks.iter() {
            self.grid.for_each_in_block(block, |id| affected.push(id));
        }
        affected.sort_unstable();
        affected.dedup();
        // Phase 3: rebuild in ascending id order.
        for i in 0..self.affected.len() {
            let id = self.affected[i];
            self.rebuild_node(id.0);
            self.stats.rebuilds += 1;
        }
        &self.affected
    }

    /// Rebuilds node `id`'s cache in place from the grid and current
    /// positions, exactly as [`crate::CoveragePlan`] builds a node.
    fn rebuild_node(&mut self, id: usize) {
        // panic-path: callers pass ids below `positions.len()`, and the
        // caches vector is position-parallel by construction.
        let table = &mut self.nodes[id];
        table.clear();
        table.push_neighbors(&self.grid, &self.positions, self.range, id);
        let degree = table.arena_len();
        let (positions, beamwidth, range) = (&self.positions, self.beamwidth, self.range);
        table.push_edges(
            0..degree,
            positions,
            id,
            beamwidth,
            range,
            &mut self.dist_sq,
        );
    }

    /// Node `id`'s coverage answers over the current positions — the
    /// same queries and answers as [`crate::CoveragePlan::node`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeCoverage<'_> {
        // panic-path: an out-of-range id panics on the cache read, the
        // documented contract.
        let table = &self.nodes[id.0];
        NodeCoverage {
            table,
            omni: 0..table.edge_count(),
            id,
            positions: &self.positions,
            range: self.range,
            beamwidth: self.beamwidth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoveragePlan;
    use dirca_sim::SimDuration;

    fn beam(deg: f64) -> Beamwidth {
        Beamwidth::from_degrees(deg).unwrap()
    }

    fn grid_points(side: usize, pitch: f64) -> Vec<Point> {
        (0..side * side)
            .map(|i| Point::new((i % side) as f64 * pitch, (i / side) as f64 * pitch))
            .collect()
    }

    /// Asserts the dynamic plan answers every query exactly like a static
    /// plan built over the same (current) positions.
    fn assert_matches_static(dynamic: &DynamicCoveragePlan, theta: f64) {
        let chan = Channel::new(
            dynamic.positions().to_vec(),
            1.0,
            SimDuration::from_micros(1),
        )
        .unwrap();
        let oracle = CoveragePlan::new(&chan, beam(theta));
        let mut got = Vec::new();
        let mut want = Vec::new();
        for i in 0..dynamic.len() {
            let (got_node, want_node) = (dynamic.node(NodeId(i)), oracle.node(NodeId(i)));
            assert_eq!(got_node.neighbors(), want_node.neighbors(), "node {i}");
            want_node.adjacency_into(&mut want);
            got_node.adjacency_into(&mut got);
            assert_eq!(got, want, "adjacency of {i}");
            for j in 0..dynamic.len() {
                let dst = NodeId(j);
                let (gh, gd) = dynamic.node(dst).toward(NodeId(i));
                let (wh, wd) = oracle.node(dst).toward(NodeId(i));
                assert_eq!(gh.radians().to_bits(), wh.radians().to_bits());
                assert_eq!(gd.to_bits(), wd.to_bits());
                got_node.directional_coverage_into(dst, &mut got);
                want_node.directional_coverage_into(dst, &mut want);
                assert_eq!(got, want, "footprint {i}→{j}");
            }
        }
    }

    #[test]
    fn fresh_plan_matches_static_plan() {
        for theta in [30.0, 120.0, 360.0] {
            let plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), 1.0, beam(theta));
            assert_matches_static(&plan, theta);
        }
    }

    #[test]
    fn empty_moves_do_zero_cache_work() {
        let mut plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), 1.0, beam(45.0));
        for _ in 0..10 {
            assert!(plan.apply_moves(&[]).is_empty());
        }
        let stats = plan.stats();
        assert_eq!(stats.epochs, 10);
        assert_eq!(stats.rebins, 0, "zero-motion epochs must not re-bin");
        assert_eq!(stats.rebuilds, 0, "zero-motion epochs must not rebuild");
    }

    #[test]
    fn single_move_updates_queries() {
        let mut plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), 1.0, beam(60.0));
        // Walk node 5 far away and back in several epochs.
        for target in [
            Point::new(10.0, 10.0),
            Point::new(-3.0, 4.0),
            Point::new(0.6, 0.6),
        ] {
            plan.apply_moves(&[(5, target)]);
            assert_matches_static(&plan, 60.0);
        }
        assert!(plan.stats().rebuilds > 0);
    }

    #[test]
    fn moves_within_a_cell_still_invalidate() {
        // A sub-cell wiggle changes distances and may change coverage even
        // though no re-bin happens.
        let mut plan = DynamicCoveragePlan::new(&grid_points(3, 0.9), 1.0, beam(90.0));
        plan.apply_moves(&[(4, Point::new(0.95, 0.9))]);
        let stats = plan.stats();
        assert_eq!(stats.rebins, 0, "same-cell move must not re-bin");
        assert!(stats.rebuilds > 0, "same-cell move must still rebuild");
        assert_matches_static(&plan, 90.0);
    }

    #[test]
    fn moves_are_strictly_local() {
        // A big sparse field: moving one corner node must not rebuild
        // caches on the far side.
        let mut plan = DynamicCoveragePlan::new(&grid_points(8, 1.1), 1.0, beam(45.0));
        let n = plan.len() as u64;
        plan.apply_moves(&[(0, Point::new(0.2, 0.3))]);
        let stats = plan.stats();
        assert!(
            stats.rebuilds < n / 2,
            "one corner move rebuilt {} of {} caches",
            stats.rebuilds,
            n
        );
        assert_matches_static(&plan, 45.0);
    }

    #[test]
    fn affected_list_is_sorted_and_deduplicated() {
        let mut plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), 1.0, beam(60.0));
        let affected = plan.apply_moves(&[(1, Point::new(0.1, 0.2)), (2, Point::new(1.4, 0.1))]);
        assert!(
            affected.windows(2).all(|w| w[0] < w[1]),
            "affected not strictly ascending: {affected:?}"
        );
    }

    #[test]
    fn equality_compares_caches_not_history() {
        let points = grid_points(4, 0.6);
        let mut a = DynamicCoveragePlan::new(&points, 1.0, beam(60.0));
        // Move away and back: same final geometry, different history.
        a.apply_moves(&[(3, Point::new(5.0, 5.0))]);
        a.apply_moves(&[(3, points[3])]);
        let b = DynamicCoveragePlan::new(&points, 1.0, beam(60.0));
        assert_eq!(a, b, "round-trip move must restore cache equality");
        a.apply_moves(&[(3, Point::new(5.0, 5.0))]);
        assert_ne!(a, b);
    }

    #[test]
    fn out_of_box_excursions_stay_correct() {
        let mut plan = DynamicCoveragePlan::new(&grid_points(3, 0.8), 1.0, beam(90.0));
        // March two nodes far outside the original bounding box, close to
        // each other: they must still see each other.
        plan.apply_moves(&[(0, Point::new(50.0, 50.0)), (1, Point::new(50.5, 50.0))]);
        assert_eq!(plan.node(NodeId(0)).neighbors(), &[NodeId(1)]);
        assert_matches_static(&plan, 90.0);
    }

    #[test]
    fn empty_plan_is_well_formed() {
        let mut plan = DynamicCoveragePlan::new(&[], 1.0, beam(45.0));
        assert!(plan.is_empty());
        assert!(plan.apply_moves(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_move_panics() {
        let mut plan = DynamicCoveragePlan::new(&grid_points(2, 0.5), 1.0, beam(45.0));
        plan.apply_moves(&[(99, Point::ORIGIN)]);
    }
}
