//! Edge-geometry tests for the grid-backed [`CoveragePlan`]: the
//! adversarial layouts where a spatial index classically loses nodes.
//!
//! The dangerous inputs for a uniform grid are exact cell-boundary
//! placements (float `floor` on the bucketing division), co-located
//! nodes, fields smaller than one cell, and dense clusters straddling a
//! cell corner. Every property here compares the plan against the
//! reference `Channel` full scan, which is immune to all of them.

#![expect(
    clippy::unwrap_used,
    reason = "the shared checkers outside `#[test]` fns unwrap known-good inputs"
)]

use dirca_geometry::{Beamwidth, Point};
use dirca_radio::{Channel, CoveragePlan, NodeId, SpatialGrid, TxPattern};
use dirca_sim::SimDuration;
use proptest::prelude::*;

fn channel(positions: Vec<Point>) -> Channel {
    Channel::new(positions, 1.0, SimDuration::from_micros(1)).unwrap()
}

/// Asserts all plan queries equal the reference scan on `chan`.
fn assert_matches_reference(chan: &Channel, beamwidth: Beamwidth) {
    let plan = CoveragePlan::new(chan, beamwidth);
    for src in 0..chan.len() {
        let src = NodeId(src);
        assert_eq!(
            plan.neighbors(src),
            chan.covered_by(src, TxPattern::Omni).unwrap().as_slice(),
            "omni neighbourhood of {src}"
        );
        for dst in 0..chan.len() {
            let dst = NodeId(dst);
            let pattern = TxPattern::aimed(
                chan.position(src).unwrap(),
                chan.position(dst).unwrap(),
                beamwidth,
            );
            assert_eq!(
                plan.directional_coverage(src, dst),
                chan.covered_by(src, pattern).unwrap(),
                "aim {src} → {dst}"
            );
        }
    }
}

/// Integer lattice points scaled by exactly the range: every node sits on
/// a cell boundary, so any off-by-one in the bucketing or the 3×3 block
/// walk drops a within-reach pair.
fn lattice_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0i32..6, 0i32..6), 2..20).prop_map(|ps| {
        ps.into_iter()
            .map(|(i, j)| Point::new(f64::from(i), f64::from(j)))
            .collect()
    })
}

/// Tight clusters around a handful of anchor points — many co-located or
/// near-co-located nodes sharing cells, plus empty space between anchors.
fn cluster_strategy() -> impl Strategy<Value = Vec<Point>> {
    (
        prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..4),
        prop::collection::vec((0usize..4, -0.01f64..0.01, -0.01f64..0.01), 2..16),
    )
        .prop_map(|(anchors, offsets)| {
            offsets
                .into_iter()
                .map(|(a, dx, dy)| {
                    let (ax, ay) = anchors[a % anchors.len()];
                    Point::new(ax + dx, ay + dy)
                })
                .collect()
        })
}

fn beamwidth_strategy() -> impl Strategy<Value = Beamwidth> {
    prop_oneof![
        (1.0f64..360.0).prop_map(|d| Beamwidth::from_degrees(d).unwrap()),
        Just(Beamwidth::OMNI),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lattice_boundary_nodes_match_reference(
        positions in lattice_strategy(),
        beamwidth in beamwidth_strategy(),
    ) {
        assert_matches_reference(&channel(positions), beamwidth);
    }

    #[test]
    fn clustered_and_colocated_nodes_match_reference(
        positions in cluster_strategy(),
        beamwidth in beamwidth_strategy(),
    ) {
        assert_matches_reference(&channel(positions), beamwidth);
    }

    #[test]
    fn sub_cell_fields_match_reference(
        positions in prop::collection::vec(
            (-0.4f64..0.4, -0.4f64..0.4).prop_map(|(x, y)| Point::new(x, y)),
            2..12,
        ),
        beamwidth in beamwidth_strategy(),
    ) {
        // The whole field fits inside one grid cell: the index must
        // degrade to the full scan, not lose anyone.
        let chan = channel(positions);
        let plan = CoveragePlan::new(&chan, beamwidth);
        prop_assert_eq!(plan.grid().cols(), 1);
        prop_assert_eq!(plan.grid().rows(), 1);
        assert_matches_reference(&chan, beamwidth);
    }

    #[test]
    fn full_circle_beam_equals_omni_on_adversarial_layouts(
        positions in lattice_strategy(),
    ) {
        // θ = 360° ≡ omni must survive boundary geometry too.
        let chan = channel(positions);
        let plan = CoveragePlan::new(&chan, Beamwidth::OMNI);
        for src in 0..chan.len() {
            let src = NodeId(src);
            for &dst in plan.neighbors(src) {
                prop_assert_eq!(
                    plan.directional_coverage(src, dst),
                    plan.neighbors(src),
                    "360° aim {} → {}", src, dst
                );
            }
        }
    }

    #[test]
    fn grid_candidates_form_a_partition(
        positions in cluster_strategy(),
    ) {
        // Summing every cell's slice must visit each node exactly once,
        // whatever the layout.
        let grid = SpatialGrid::new(&positions, 1.0);
        let mut seen = vec![0usize; positions.len()];
        for r in 0..grid.rows() {
            for c in 0..grid.cols() {
                for &id in grid.cell_nodes(c, r) {
                    seen[id.0] += 1;
                }
            }
        }
        prop_assert!(seen.iter().all(|&k| k == 1), "partition violated: {:?}", seen);
    }
}

#[test]
fn colocated_stack_matches_reference() {
    // Sixteen nodes on one point plus two satellites exactly R away:
    // distance ties, heading degeneracies, and a fully shared cell.
    let mut positions = vec![Point::new(0.25, 0.25); 16];
    positions.push(Point::new(1.25, 0.25));
    positions.push(Point::new(0.25, 1.25));
    let chan = channel(positions);
    for deg in [15.0, 90.0, 360.0] {
        assert_matches_reference(&chan, Beamwidth::from_degrees(deg).unwrap());
    }
}

#[test]
fn exact_range_ring_matches_reference() {
    // Receivers at exactly d = R on the axes and diagonals: membership
    // rides on the `d² ≤ R² + EPSILON` bound in both implementations.
    let mut positions = vec![Point::new(0.0, 0.0)];
    for k in 0..8 {
        let a = std::f64::consts::FRAC_PI_4 * k as f64;
        positions.push(Point::new(a.cos(), a.sin()));
    }
    let chan = channel(positions);
    for deg in [30.0, 45.0, 181.0, 360.0] {
        assert_matches_reference(&chan, Beamwidth::from_degrees(deg).unwrap());
    }
}

#[test]
fn plan_arena_stays_linear_at_fixed_density() {
    // The acceptance bar made concrete: quadrupling n at constant density
    // must grow the index ~4×, nowhere near the dense plan's 16×.
    let field = |side: usize| {
        let pts: Vec<Point> = (0..side * side)
            .map(|i| Point::new((i % side) as f64 * 0.6, (i / side) as f64 * 0.6))
            .collect();
        CoveragePlan::new(&channel(pts), Beamwidth::from_degrees(45.0).unwrap()).index_bytes()
    };
    let b1 = field(20); // 400 nodes
    let b2 = field(40); // 1600 nodes
    let growth = b2 as f64 / b1 as f64;
    assert!(growth < 8.0, "index bytes grew {growth:.1}× for 4× nodes");
}
