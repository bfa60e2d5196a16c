//! Uniform-grid spatial index over static node positions.
//!
//! At the paper's 30–130 nodes a dense pairwise arena is fine; at the
//! roadmap's 10k–100k-node Poisson fields anything O(n²) — matrices,
//! per-pair slice tables, or full-scan `covered_by` queries — is fatal.
//! Because the transmission range `R` bounds every interference footprint,
//! candidate receiver sets are spatially local: a [`SpatialGrid`] with cell
//! edge ≥ the maximum coverage reach guarantees that *every* node a
//! range-bounded predicate can accept lies inside the 3×3 cell block
//! around the query point, so queries cost O(local density) and the whole
//! index costs O(n) memory.
//!
//! # Layout
//!
//! Nodes are bucketed into a flat row-major cell array: `starts` holds
//! `cols·rows + 1` offsets delimiting each cell's slice of the shared
//! `order` arena, and within every cell the node ids are in ascending
//! order (the counting sort that builds the arena walks ids `0..n`, which
//! is a stable placement). Iteration over a 3×3 block therefore visits a
//! fixed, position-determined sequence of id-sorted slices — no hashing,
//! no pointer identity, nothing that could vary between runs — so every
//! consumer that sorts (or merges) the filtered candidates gets the exact
//! ascending-id ordering the reference [`crate::Channel`] queries produce.
//!
//! # Degenerate geometry
//!
//! Co-located nodes share a cell (ids stay ascending); a field smaller
//! than one cell collapses to a 1×1 grid whose single slice is simply the
//! full id range; non-finite coordinates index cell 0 deterministically
//! (`f64 as u32` saturates NaN to zero) and are rejected by any distance
//! predicate, mirroring how the reference full-scan treats them. A huge
//! but sparse bounding box cannot blow up memory either: the cell count
//! is soft-capped at ~4·n by growing the cell edge, which only ever
//! *widens* the candidate superset, never narrows it below the reach.

use std::ops::RangeInclusive;

use dirca_geometry::Point;

use crate::NodeId;

/// A uniform grid over immutable node positions, answering "which nodes
/// can possibly lie within `reach` of this point" in O(local density).
///
/// # Example
///
/// ```
/// use dirca_geometry::Point;
/// use dirca_radio::{NodeId, SpatialGrid};
///
/// let positions = vec![
///     Point::new(0.0, 0.0),
///     Point::new(0.5, 0.0),
///     Point::new(10.0, 10.0),
/// ];
/// let grid = SpatialGrid::new(&positions, 1.0);
/// let mut near_origin = Vec::new();
/// grid.for_each_candidate(Point::new(0.1, 0.1), |id| near_origin.push(id));
/// // The far node is outside the 3×3 block; the near pair is inside.
/// assert!(near_origin.contains(&NodeId(0)));
/// assert!(near_origin.contains(&NodeId(1)));
/// assert!(!near_origin.contains(&NodeId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    frame: GridFrame,
    /// `cols·rows + 1` arena offsets delimiting each cell's slice,
    /// row-major (`cell (c, r)` is entry `r·cols + c`).
    starts: Vec<u32>,
    /// The shared arena: node ids grouped by cell, ascending within each.
    order: Vec<NodeId>,
}

impl SpatialGrid {
    /// Builds the grid over `positions` with cell edge ≥ `reach`.
    ///
    /// `reach` must be an upper bound on the distance any query predicate
    /// can accept; the 3×3 superset guarantee holds only up to it. The
    /// cell count is soft-capped at ~4·n (minimum 16), growing the cell
    /// edge beyond `reach` for sparse fields with huge extents.
    ///
    /// Cost: O(n) time and memory (two counting-sort passes).
    ///
    /// # Panics
    ///
    /// Panics if `reach` is not positive and finite, or if `positions`
    /// holds ≥ `u32::MAX` nodes (the arena uses 32-bit offsets).
    pub fn new(positions: &[Point], reach: f64) -> Self {
        let n = positions.len();
        assert!(
            (n as u64) < u64::from(u32::MAX),
            "spatial grid supports fewer than u32::MAX nodes"
        );
        let frame = GridFrame::new(positions, reach);
        let mut starts = vec![0u32; frame.cells() + 1];
        let flat = |p: &Point| frame.index(frame.cell_of(*p));
        for p in positions {
            // panic-path: `flat` clamps both axes into the grid, so the
            // +1-shifted counting slot is within `starts`' cells+1 length.
            starts[flat(p) + 1] += 1;
        }
        for i in 1..starts.len() {
            // panic-path: `i` ranges over `starts` indices; `i - 1` is the
            // predecessor of an index that starts at 1.
            starts[i] += starts[i - 1];
        }
        // Stable placement: walking ids in ascending order fills each
        // cell's slice in ascending id order — the property every
        // determinism argument downstream leans on.
        let mut cursor: Vec<u32> = starts.clone();
        let mut order = vec![NodeId(0); n];
        for (id, p) in positions.iter().enumerate() {
            let slot = flat(p);
            // panic-path: `cursor[slot]` starts at the cell's offset and is
            // bumped once per node in the cell, so it stays within the
            // cell's slice of the n-length arena.
            order[cursor[slot] as usize] = NodeId(id);
            cursor[slot] += 1;
        }

        SpatialGrid {
            frame,
            starts,
            order,
        }
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the grid indexes no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Grid width in cells.
    pub fn cols(&self) -> u32 {
        self.frame.cols
    }

    /// Grid height in cells.
    pub fn rows(&self) -> u32 {
        self.frame.rows
    }

    /// The cell edge length actually used (≥ the construction `reach`).
    pub fn cell_size(&self) -> f64 {
        self.frame.cell
    }

    /// The id-sorted node slice of cell `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `col`/`row` are outside the grid.
    pub fn cell_nodes(&self, col: u32, row: u32) -> &[NodeId] {
        assert!(
            col < self.frame.cols && row < self.frame.rows,
            "cell out of range"
        );
        let idx = self.frame.index((col, row));
        // panic-path: `starts` has cols·rows + 1 entries and `idx` was
        // bounds-checked above, so `idx + 1` is in range and the offsets
        // delimit a valid arena slice by construction.
        &self.order[self.starts[idx] as usize..self.starts[idx + 1] as usize]
    }

    /// Invokes `f` for every node in the 3×3 cell block around `around` —
    /// a deterministic superset of all nodes within the construction
    /// `reach` of that point. Cells are visited row-major and each cell's
    /// ids ascend, so the visit sequence is a pure function of geometry.
    #[inline]
    pub fn for_each_candidate(&self, around: Point, mut f: impl FnMut(NodeId)) {
        let (rows, first, last) = self.frame.block(self.frame.cell_of(around));
        for row in rows {
            let lo = self.frame.index((first, row));
            let hi = self.frame.index((last, row));
            // A row's 1–3 adjacent cells occupy contiguous arena slots, so
            // the whole row strip is one slice.
            // panic-path: `lo ≤ hi < cols·rows` from the block clamps and
            // `starts` offsets are monotonically increasing within the
            // arena length by construction.
            let slice = &self.order[self.starts[lo] as usize..self.starts[hi + 1] as usize];
            for &id in slice {
                f(id);
            }
        }
    }

    /// Approximate resident bytes of the index (arena + offsets + header).
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.starts.len() * std::mem::size_of::<u32>()
            + self.order.len() * std::mem::size_of::<NodeId>()
    }
}

/// A grid that enumerates, around any point, a superset of the nodes
/// within one coverage reach of it.
pub(crate) trait Candidates {
    /// Invokes `f` for every candidate around `around`.
    fn for_each_candidate(&self, around: Point, f: impl FnMut(NodeId));
}

impl Candidates for SpatialGrid {
    #[inline]
    fn for_each_candidate(&self, around: Point, f: impl FnMut(NodeId)) {
        SpatialGrid::for_each_candidate(self, around, f);
    }
}

/// The geometry of a uniform grid — bounding-box origin, cell edge and
/// dimensions — shared by [`SpatialGrid`] and the mobile plan's mutable
/// grid, so both bin points with the same arithmetic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridFrame {
    /// Cell edge length; always ≥ the `reach` the grid was built for.
    cell: f64,
    /// Bounding-box origin (minimum finite coordinates, or 0 if none).
    min_x: f64,
    min_y: f64,
    /// Grid dimensions (each ≥ 1).
    cols: u32,
    rows: u32,
}

impl GridFrame {
    /// Sizes a grid over `positions` with cell edge ≥ `reach`.
    ///
    /// # Panics
    ///
    /// Panics if `reach` is not positive and finite.
    pub(crate) fn new(positions: &[Point], reach: f64) -> Self {
        assert!(
            reach.is_finite() && reach > 0.0,
            "grid reach must be positive and finite, got {reach}"
        );
        // Bounding box over the finite coordinates; non-finite positions
        // deterministically land in cell 0 and are filtered out by any
        // distance predicate, exactly as a reference full scan rejects
        // them.
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in positions {
            if p.x.is_finite() && p.y.is_finite() {
                min_x = min_x.min(p.x);
                min_y = min_y.min(p.y);
                max_x = max_x.max(p.x);
                max_y = max_y.max(p.y);
            }
        }
        if !min_x.is_finite() {
            // No finite positions at all: a 1×1 grid at the origin.
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let width = max_x - min_x;
        let height = max_y - min_y;
        // Soft cell-count cap: at most ~4·n cells, so a handful of nodes a
        // million ranges apart cannot allocate a billion empty buckets.
        // Growing the edge keeps the 3×3 superset guarantee intact (a
        // bigger cell covers strictly more).
        let per_axis = (((4 * positions.len().max(4)) as f64).sqrt().floor()).max(1.0);
        let cell = reach.max(width / per_axis).max(height / per_axis);
        // NaN/degenerate extents collapse to one cell (`as` saturates NaN
        // to 0); +1 because a point exactly on the far edge must still
        // index a valid column.
        let extent = |e: f64| ((e / cell).floor().clamp(0.0, u32::MAX as f64 - 2.0) as u32) + 1;
        GridFrame {
            cell,
            min_x,
            min_y,
            cols: extent(width),
            rows: extent(height),
        }
    }

    /// Number of cells.
    pub(crate) fn cells(&self) -> usize {
        (self.cols as usize) * (self.rows as usize)
    }

    /// The row-major index of cell `(col, row)`.
    #[inline]
    pub(crate) fn index(&self, (col, row): (u32, u32)) -> usize {
        (row as usize) * (self.cols as usize) + (col as usize)
    }

    /// The clamped (col, row) cell of `p`.
    #[inline]
    pub(crate) fn cell_of(&self, p: Point) -> (u32, u32) {
        // `clamp` keeps NaN (→ cast saturates to 0) and out-of-box points
        // deterministic.
        let c = ((p.x - self.min_x) / self.cell)
            .floor()
            .clamp(0.0, (self.cols - 1) as f64) as u32;
        let r = ((p.y - self.min_y) / self.cell)
            .floor()
            .clamp(0.0, (self.rows - 1) as f64) as u32;
        (c, r)
    }

    /// The 3×3 block around cell `(col, row)`, clamped to the grid: its
    /// rows, and its first and last column.
    #[inline]
    pub(crate) fn block(&self, (col, row): (u32, u32)) -> (RangeInclusive<u32>, u32, u32) {
        let rows = row.saturating_sub(1)..=(row + 1).min(self.rows - 1);
        (rows, col.saturating_sub(1), (col + 1).min(self.cols - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(grid: &SpatialGrid, around: Point) -> Vec<NodeId> {
        let mut out = Vec::new();
        grid.for_each_candidate(around, |id| out.push(id));
        out.sort_unstable();
        out
    }

    #[test]
    fn every_node_lands_in_exactly_one_cell() {
        let positions: Vec<Point> = (0..37)
            .map(|i| Point::new((i % 7) as f64 * 0.9, (i / 7) as f64 * 1.1))
            .collect();
        let grid = SpatialGrid::new(&positions, 1.0);
        let mut seen = vec![0usize; positions.len()];
        for r in 0..grid.rows() {
            for c in 0..grid.cols() {
                for &id in grid.cell_nodes(c, r) {
                    seen[id.0] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&k| k == 1), "partition violated: {seen:?}");
    }

    #[test]
    fn cell_slices_ascend_by_id() {
        let positions: Vec<Point> = (0..50)
            .map(|i| Point::new(((i * 29) % 10) as f64 * 0.3, ((i * 13) % 10) as f64 * 0.3))
            .collect();
        let grid = SpatialGrid::new(&positions, 1.0);
        for r in 0..grid.rows() {
            for c in 0..grid.cols() {
                let slice = grid.cell_nodes(c, r);
                assert!(slice.windows(2).all(|w| w[0] < w[1]), "cell ({c},{r})");
            }
        }
    }

    #[test]
    fn candidates_cover_everything_within_reach() {
        let positions: Vec<Point> = (0..100)
            .map(|i| {
                let t = i as f64 * 0.37;
                Point::new(4.0 * (t.sin() * t), 4.0 * (t.cos() * t * 0.3))
            })
            .collect();
        let reach = 1.0;
        let grid = SpatialGrid::new(&positions, reach);
        for (i, p) in positions.iter().enumerate() {
            let candidates = ids(&grid, *p);
            for (j, q) in positions.iter().enumerate() {
                if p.distance(*q) <= reach {
                    assert!(
                        candidates.contains(&NodeId(j)),
                        "node {j} within reach of {i} missing from candidates"
                    );
                }
            }
        }
    }

    #[test]
    fn colocated_nodes_share_a_cell_in_id_order() {
        let p = Point::new(1.5, -2.5);
        let grid = SpatialGrid::new(&[p, p, p, p], 1.0);
        assert_eq!(
            ids(&grid, p),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn field_smaller_than_one_cell_is_a_single_bucket() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(0.05, 0.02),
            Point::new(-0.03, 0.04),
        ];
        let grid = SpatialGrid::new(&positions, 1.0);
        assert_eq!((grid.cols(), grid.rows()), (1, 1));
        assert_eq!(grid.cell_nodes(0, 0).len(), 3);
    }

    #[test]
    fn empty_grid_is_well_formed() {
        let grid = SpatialGrid::new(&[], 1.0);
        assert!(grid.is_empty());
        assert_eq!(grid.len(), 0);
        assert_eq!((grid.cols(), grid.rows()), (1, 1));
        assert!(ids(&grid, Point::ORIGIN).is_empty());
    }

    #[test]
    fn sparse_giants_cap_the_cell_count() {
        // Two nodes a million reaches apart: the naive grid would want
        // 10^12 cells; the cap grows the edge instead.
        let positions = vec![Point::new(0.0, 0.0), Point::new(1e6, 1e6)];
        let grid = SpatialGrid::new(&positions, 1.0);
        let cells = (grid.cols() as u64) * (grid.rows() as u64);
        assert!(cells <= 64, "cell count {cells} not capped");
        assert!(grid.cell_size() >= 1.0);
        // Coverage still holds: each node sees itself as a candidate.
        assert!(ids(&grid, positions[0]).contains(&NodeId(0)));
        assert!(ids(&grid, positions[1]).contains(&NodeId(1)));
    }

    #[test]
    fn boundary_nodes_are_still_covered() {
        // Nodes placed exactly on cell-edge multiples of the reach: the
        // 3×3 block must still cover all within-reach pairs.
        let positions: Vec<Point> = (0..6)
            .flat_map(|i| (0..6).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let grid = SpatialGrid::new(&positions, 1.0);
        for (i, p) in positions.iter().enumerate() {
            let candidates = ids(&grid, *p);
            for (j, q) in positions.iter().enumerate() {
                if p.distance(*q) <= 1.0 {
                    assert!(candidates.contains(&NodeId(j)), "pair {i}/{j} lost");
                }
            }
        }
    }

    #[test]
    fn non_finite_positions_are_deterministic() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(f64::NAN, 1.0),
            Point::new(1.0, f64::INFINITY),
            Point::new(0.5, 0.0),
        ];
        let a = SpatialGrid::new(&positions, 1.0);
        let b = SpatialGrid::new(&positions, 1.0);
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(a.cell_nodes(c, r), b.cell_nodes(c, r));
            }
        }
        // All four nodes are indexed somewhere (partition holds).
        let total: usize = (0..a.rows())
            .flat_map(|r| (0..a.cols()).map(move |c| (c, r)))
            .map(|(c, r)| a.cell_nodes(c, r).len())
            .sum();
        assert_eq!(total, 4);
    }

    #[test]
    #[should_panic(expected = "reach must be positive")]
    fn rejects_bad_reach() {
        let _ = SpatialGrid::new(&[], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn cell_nodes_bounds_checked() {
        let grid = SpatialGrid::new(&[Point::ORIGIN], 1.0);
        let _ = grid.cell_nodes(5, 0);
    }

    #[test]
    fn index_bytes_scale_linearly() {
        let small: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let large: Vec<Point> = (0..1000)
            .map(|i| Point::new((i % 32) as f64, (i / 32) as f64))
            .collect();
        let gs = SpatialGrid::new(&small, 1.0);
        let gl = SpatialGrid::new(&large, 1.0);
        // 10× the nodes must cost far less than 100× the bytes (the dense
        // plan's quadratic growth), with generous slack for cell overhead.
        assert!(gl.index_bytes() < 30 * gs.index_bytes());
    }
}
