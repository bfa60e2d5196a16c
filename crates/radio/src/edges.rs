//! The coverage plan's per-edge table and the trig-free beam-footprint
//! filter that answers directional queries from it.
//!
//! An [`EdgeTable`] stores omni neighbour slices together with, per edge,
//! the distance, squared distance and bearing `heading_to(neighbour)`.
//! [`crate::CoveragePlan`] keeps every node's slices in one table,
//! refilled in place when nodes move, and answers its queries through
//! [`NodeCoverage`]. A build or a position epoch is O(Σ deg) work.
//!
//! No footprint is stored. A beam shares the omni disk's distance bound,
//! so its footprint is a filter of the owner's omni slice, which
//! [`NodeCoverage::directional_coverage_into`] computes when asked. The
//! beam's boresight is the cached bearing toward its aim and every
//! candidate's bearing from the apex is cached too, so sector membership
//! needs no trigonometry: the filter compares two cached angles. The
//! answer is bit-identical to `TxPattern::covers` by construction.
//! `TxPattern::aimed(origin, target, θ)` sets the boresight to
//! `origin.heading_to(target)` and `Sector::contains(p)` evaluates
//! `boresight.separation(origin.heading_to(p))`; the cache holds exactly
//! those `heading_to` values, and the `distance_squared` values that its
//! apex rule (`d² ≤ EPSILON` accepts) reads. Its reach test
//! (`d² > R² + EPSILON` rejects) is the complement of the omni predicate,
//! so no omni member fails it.

// Transmit hot path: every indexing and `expect` site panics on a broken
// invariant, so each carries an `#[expect]` on its fn saying which one.
#![deny(clippy::indexing_slicing, clippy::expect_used)]

use std::ops::Range;

use dirca_geometry::{Angle, Beamwidth, Point, EPSILON};

use crate::channel::TxPattern;
use crate::spatial::SpatialGrid;
use crate::NodeId;

/// Omni neighbour slices with their per-edge geometry.
///
/// `arena` holds the omni slices, each ascending by id. Slot `s` is one
/// edge: `dist[s]`, `dist_sq[s]` and `heading[s]` are the distance, squared
/// distance and bearing from the slice's owner to `arena[s]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct EdgeTable {
    arena: Vec<NodeId>,
    dist: Vec<f64>,
    dist_sq: Vec<f64>,
    heading: Vec<Angle>,
}

impl EdgeTable {
    /// Empties the table, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.dist.clear();
        self.dist_sq.clear();
        self.heading.clear();
    }

    /// Arena entries: one per edge, Σ deg in total.
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Heap bytes of the table.
    pub(crate) fn index_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<NodeId>()
            + (self.dist.len() + self.dist_sq.len()) * std::mem::size_of::<f64>()
            + self.heading.len() * std::mem::size_of::<Angle>()
    }

    /// Sizes the per-edge caches for every omni slot pushed so far, so a
    /// large table is allocated once rather than grown.
    pub(crate) fn reserve_edges(&mut self) {
        let edges = self.arena.len();
        self.dist.reserve_exact(edges);
        self.dist_sq.reserve_exact(edges);
        self.heading.reserve_exact(edges);
    }

    /// Appends the omni neighbourhood of node `src`, ascending by id: the
    /// grid candidates other than `src` that the reference omni predicate
    /// accepts. Every slice must be pushed before the first
    /// [`EdgeTable::push_edges`].
    #[expect(
        clippy::indexing_slicing,
        reason = "the grid only enumerates ids of `positions`, and callers pass an in-range `src`"
    )]
    pub(crate) fn push_neighbors(
        &mut self,
        grid: &SpatialGrid,
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
    /// squared distance, distance and bearing with the reference
    /// expressions (`distance` is `distance_squared().sqrt()`). Slices must
    /// be completed in arena order.
    #[expect(
        clippy::indexing_slicing,
        reason = "`omni` is a pushed slice of ids of `positions`"
    )]
    pub(crate) fn push_edges(&mut self, omni: Range<usize>, positions: &[Point], src: usize) {
        debug_assert_eq!(omni.start, self.dist.len(), "slices out of order");
        let origin = positions[src];
        for &dst in &self.arena[omni] {
            let d2 = origin.distance_squared(positions[dst.0]);
            self.dist_sq.push(d2);
            self.dist.push(d2.sqrt());
            self.heading.push(origin.heading_to(positions[dst.0]));
        }
    }
}

/// One node's coverage answers, borrowed from a coverage plan by
/// [`crate::CoveragePlan::node`].
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

// Indexing below: a view's omni range delimits a completed slice of its table,
// whose edge caches are slot-parallel to the arena, and every id in the
// table indexes `positions`; a foreign id panics on the positions read,
// which is the documented contract.
impl<'a> NodeCoverage<'a> {
    /// The omni neighbourhood in ascending id order, equal to
    /// [`crate::Channel::neighbors`].
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "the omni range is a completed slice of the table"
    )]
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
    #[expect(
        clippy::indexing_slicing,
        reason = "an out-of-range `other` is a documented panic"
    )]
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
    /// `dst`. The boresight is [`NodeCoverage::toward`]'s bearing (cached
    /// for a neighbour, which every aim a MAC produces is), and the omni
    /// slice is filtered with `Sector::contains`'s apex and aperture tests
    /// on the cached squared distances and bearings, in its order. The
    /// filter is O(deg) and branch-free: each candidate is written, and
    /// kept by advancing the write index.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "an out-of-range `dst` is a documented panic; `kept` never passes the candidate's own index"
    )]
    pub fn directional_coverage_into(&self, dst: NodeId, out: &mut Vec<NodeId>) {
        let (boresight, _) = self.toward(dst);
        let ids = self.neighbors();
        let dist_sq = &self.table.dist_sq[self.omni.clone()];
        let heading = &self.table.heading[self.omni.clone()];
        out.clear();
        out.extend_from_slice(ids);
        let mut kept = 0;
        for ((&id, &d2), &bearing) in ids.iter().zip(dist_sq).zip(heading) {
            let inside = (d2 <= EPSILON)
                | self
                    .beamwidth
                    .covers_separation(boresight.separation(bearing));
            out[kept] = id;
            kept += usize::from(inside);
        }
        out.truncate(kept);
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
    #[expect(
        clippy::indexing_slicing,
        reason = "the omni range is a completed slice of the table"
    )]
    pub fn adjacency_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        let r2 = self.range * self.range;
        let dist_sq = &self.table.dist_sq[self.omni.clone()];
        out.extend(
            self.neighbors()
                .iter()
                .zip(dist_sq)
                .filter(|&(_, &d2)| d2 <= r2)
                .map(|(&id, _)| id),
        );
    }
}

/// The widest distance any coverage predicate accepts, √(R² + EPSILON),
/// with a 1e-9 relative margin that dwarfs the ulp error of the grid's
/// float cell arithmetic: a grid with cell edge ≥ this reach has a 3×3
/// block that is a guaranteed superset of every acceptable candidate.
pub(crate) fn coverage_reach(range: f64) -> f64 {
    (range * range + EPSILON).sqrt() * (1.0 + 1e-9)
}

/// Narrows an arena length to the 32-bit offset type.
#[expect(
    clippy::expect_used,
    reason = "the arena holds one entry per edge, Σ deg in total; a plan with more edges than a `u32` counts panics here instead of wrapping"
)]
pub(crate) fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("arena stays below u32::MAX entries")
}
