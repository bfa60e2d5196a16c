//! Per-edge tables shared by both coverage-plan types, and the trig-free
//! beam-footprint kernel that fills them.
//!
//! An [`EdgeTable`] stores omni neighbour slices together with, per edge,
//! the distance and bearing `heading_to(neighbour)` and the footprint of
//! a beam aimed along that edge. [`crate::CoveragePlan`] keeps every
//! node's slices in one table; [`crate::DynamicCoveragePlan`] keeps one
//! table per node, so a mobility epoch can rebuild a node in place. Both
//! answer their queries through the same [`NodeCoverage`].
//!
//! A beam aimed at a neighbour has that neighbour's cached bearing as its
//! boresight, and every candidate's bearing from the apex is cached too,
//! so sector membership needs no trigonometry: the kernel compares two
//! cached angles. The answer is bit-identical to [`TxPattern::covers`] by
//! construction. `TxPattern::aimed(origin, target, θ)` sets the boresight
//! to `origin.heading_to(target)` and `Sector::contains(p)` evaluates
//! `boresight.separation(origin.heading_to(p))`; the cache holds exactly
//! those `heading_to` values, and the kernel keeps `Sector::contains`'s
//! distance tests (`d² > R² + EPSILON` rejects, `d² ≤ EPSILON` accepts at
//! the apex) on the same `distance_squared` values, in the same order.

use std::ops::Range;

use dirca_geometry::{Angle, Beamwidth, Point, EPSILON};

use crate::channel::TxPattern;
use crate::spatial::Candidates;
use crate::NodeId;

/// Omni neighbour slices with their per-edge geometry and footprints.
///
/// `arena[..dist.len()]` holds the omni slices, each ascending by id. Slot
/// `s` of that prefix is one edge: `dist[s]` and `heading[s]` are the
/// distance and bearing from the slice's owner to `arena[s]`, and
/// `footprint[s]` is the arena range of the footprint of the beam aimed
/// along it. Footprints follow the prefix; one that covers the whole
/// neighbourhood aliases the omni slice instead of being copied.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct EdgeTable {
    arena: Vec<NodeId>,
    dist: Vec<f64>,
    heading: Vec<Angle>,
    footprint: Vec<(u32, u32)>,
}

impl EdgeTable {
    /// Empties the table, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.dist.clear();
        self.heading.clear();
        self.footprint.clear();
    }

    /// Arena entries: omni slots plus stored footprint entries.
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Omni slots whose edges [`EdgeTable::push_edges`] has completed.
    pub(crate) fn edge_count(&self) -> usize {
        self.dist.len()
    }

    /// Heap bytes of the table.
    pub(crate) fn index_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<NodeId>()
            + self.dist.len() * std::mem::size_of::<f64>()
            + self.heading.len() * std::mem::size_of::<Angle>()
            + self.footprint.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// Sizes the per-edge caches for every omni slot pushed so far, so a
    /// large table is allocated once rather than grown.
    pub(crate) fn reserve_edges(&mut self) {
        let edges = self.arena.len();
        self.dist.reserve_exact(edges);
        self.heading.reserve_exact(edges);
        self.footprint.reserve_exact(edges);
    }

    /// Appends the omni neighbourhood of node `src`, ascending by id: the
    /// grid candidates other than `src` that the reference omni predicate
    /// accepts. Every slice must be pushed before the first
    /// [`EdgeTable::push_edges`].
    ///
    /// panic-path: grids only enumerate ids of `positions`, and callers
    /// pass an in-range `src`.
    pub(crate) fn push_neighbors(
        &mut self,
        grid: &impl Candidates,
        positions: &[Point],
        range: f64,
        src: usize,
    ) {
        let origin = positions[src];
        let start = self.arena.len();
        grid.for_each_candidate(origin, |id| {
            if id.0 != src && TxPattern::Omni.covers(origin, range, positions[id.0]) {
                self.arena.push(id);
            }
        });
        self.arena[start..].sort_unstable();
    }

    /// Completes the omni slice `omni` of node `src`: caches each edge's
    /// distance and bearing (the reference expressions; `distance` is
    /// `distance_squared().sqrt()`), then appends the footprint of a beam
    /// aimed along each edge. Slices must be completed in arena order.
    /// `dist_sq` is scratch.
    ///
    /// panic-path: `omni` is a pushed slice of ids of `positions`.
    pub(crate) fn push_edges(
        &mut self,
        omni: Range<usize>,
        positions: &[Point],
        src: usize,
        beamwidth: Beamwidth,
        range: f64,
        dist_sq: &mut Vec<f64>,
    ) {
        debug_assert_eq!(omni.start, self.dist.len(), "slices out of order");
        let EdgeTable {
            arena,
            dist,
            heading,
            footprint,
        } = self;
        let origin = positions[src];
        dist_sq.clear();
        for &dst in &arena[omni.clone()] {
            let d2 = origin.distance_squared(positions[dst.0]);
            dist_sq.push(d2);
            dist.push(d2.sqrt());
            heading.push(origin.heading_to(positions[dst.0]));
        }
        let reach_sq = range * range + EPSILON;
        let headings = &heading[omni.clone()];
        for &boresight in headings {
            let start = arena.len();
            for (slot, (&bearing, &d2)) in headings.iter().zip(dist_sq.iter()).enumerate() {
                // `Sector::contains`, test for test.
                if d2 > reach_sq {
                    continue;
                }
                if d2 <= EPSILON || beamwidth.covers_separation(boresight.separation(bearing)) {
                    let id = arena[omni.start + slot];
                    arena.push(id);
                }
            }
            footprint.push(if arena.len() - start == omni.len() {
                arena.truncate(start);
                (arena_offset(omni.start), arena_offset(omni.end))
            } else {
                (arena_offset(start), arena_offset(arena.len()))
            });
        }
    }
}

/// One node's coverage answers, borrowed from a coverage plan by
/// [`crate::CoveragePlan::node`] or [`crate::DynamicCoveragePlan::node`].
/// Every answer equals its reference [`crate::Channel`] query bit for bit;
/// none allocates beyond the caller's buffer.
#[derive(Debug, Clone)]
pub struct NodeCoverage<'a> {
    pub(crate) table: &'a EdgeTable,
    /// The node's omni slice (and edge slots) in `table`.
    pub(crate) omni: Range<usize>,
    pub(crate) id: NodeId,
    pub(crate) positions: &'a [Point],
    pub(crate) range: f64,
    pub(crate) beamwidth: Beamwidth,
}

// panic-path: a view's omni range delimits a completed slice of its table,
// whose edge caches are slot-parallel to the arena prefix, and every id in
// the table indexes `positions`; a foreign id panics on the positions
// read, which is the documented contract.
impl<'a> NodeCoverage<'a> {
    /// The omni neighbourhood in ascending id order, equal to
    /// [`crate::Channel::neighbors`].
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        &self.table.arena[self.omni.clone()]
    }

    /// The table slot of the edge toward `needle`, if it is a neighbour.
    #[inline]
    fn slot(&self, needle: NodeId) -> Option<usize> {
        let found = self.neighbors().binary_search(&needle).ok();
        found.map(|i| self.omni.start + i)
    }

    /// The bearing toward `other` and the distance to it — bit-identical
    /// to ([`crate::Channel::heading`], [`crate::Channel::distance`]).
    /// For a receiver that is the arrival geometry of a signal from
    /// `other`; for a transmitter, the beam's boresight toward its aim.
    ///
    /// Every physically arriving signal comes from a neighbour (beam and
    /// omni share one distance bound, and distance is symmetric), whose
    /// values come from the per-edge cache after one binary search; other
    /// nodes are computed with the same expressions.
    ///
    /// # Panics
    ///
    /// Panics if `other` is out of range.
    #[inline]
    pub fn toward(&self, other: NodeId) -> (Angle, f64) {
        match self.slot(other) {
            Some(slot) => (self.table.heading[slot], self.table.dist[slot]),
            None => {
                assert!(other.0 < self.positions.len(), "node id out of range");
                let (from, to) = (self.positions[self.id.0], self.positions[other.0]);
                (from.heading_to(to), from.distance(to))
            }
        }
    }

    /// Fills `out` with the footprint of a beam from this node aimed at
    /// `dst` at the plan's beamwidth, ascending by id — equal to
    /// [`crate::Channel::covered_by`] with [`TxPattern::aimed`] for any
    /// `dst`. An aim at a neighbour (every aim a MAC produces) copies the
    /// stored footprint; other aims filter the omni slice with the
    /// reference predicate, which keeps its ascending order because the
    /// sector shares the omni disk's distance bound.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    #[inline]
    pub fn directional_coverage_into(&self, dst: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        if let Some(slot) = self.slot(dst) {
            let (start, end) = self.table.footprint[slot];
            out.extend_from_slice(&self.table.arena[start as usize..end as usize]);
            return;
        }
        let origin = self.positions[self.id.0];
        let pattern = TxPattern::aimed(origin, self.positions[dst.0], self.beamwidth);
        out.extend(
            self.neighbors()
                .iter()
                .filter(|p| pattern.covers(origin, self.range, self.positions[p.0])),
        );
    }

    /// Fills `out` with the nodes strictly within range under the
    /// topology-layer adjacency predicate `d² ≤ R²` (**no** EPSILON
    /// slack), ascending by id — bit-identical to one row of
    /// `Topology::adjacency`.
    ///
    /// This is deliberately a *different* predicate from
    /// [`NodeCoverage::neighbors`] (`d² ≤ R² + EPSILON`): traffic
    /// generation has always drawn destinations from the strict set while
    /// signal coverage uses the slack bound, and collapsing the two would
    /// shift golden traces. Strict ⊆ slack, so the strict set is a filter
    /// of the omni slice: no grid scan, no sort.
    pub fn adjacency_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        let origin = self.positions[self.id.0];
        let r2 = self.range * self.range;
        out.extend(
            self.neighbors()
                .iter()
                .filter(|p| origin.distance_squared(self.positions[p.0]) <= r2),
        );
    }
}

/// The widest distance any coverage predicate accepts, √(R² + EPSILON),
/// with a 1e-9 relative margin that dwarfs the ulp error of the grids'
/// float cell arithmetic: a grid with cell edge ≥ this reach has a 3×3
/// block that is a guaranteed superset of every acceptable candidate.
pub(crate) fn coverage_reach(range: f64) -> f64 {
    (range * range + EPSILON).sqrt() * (1.0 + 1e-9)
}

/// Narrows an arena length to the 32-bit offset type.
///
/// panic-path: the arena holds at most one entry per (aim, neighbour) pair
/// of a plan whose node count the constructors cap below `u32::MAX`.
pub(crate) fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("arena stays below u32::MAX entries")
}
