//! Property tests pinning [`CoveragePlan`] to the reference channel
//! queries it serves.
//!
//! The plan is grid-backed — candidates come from a 3×3 cell superset and
//! are filtered by the reference predicates — so these tests guard
//! against the failure mode that matters: the index drifting from
//! `Channel::covered_by` / `heading` / `distance` under a future
//! "optimisation" of the build. Every property is checked across random
//! topologies and beamwidths, including the θ = 360° equivalence case,
//! degenerate collinear layouts, and receivers placed exactly θ/2 off
//! boresight or on the apex, where sector membership sits on the boundary.

#![expect(
    clippy::unwrap_used,
    reason = "the fixture builders outside `#[test]` fns unwrap known-good inputs"
)]

use dirca_geometry::{Beamwidth, Point};
use dirca_radio::{Channel, CoveragePlan, NodeId, TxPattern};
use dirca_sim::SimDuration;
use proptest::prelude::*;

mod common;
use common::{boundary_layout, boundary_params};

fn positions_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (-3.0f64..3.0, -3.0f64..3.0).prop_map(|(x, y)| Point::new(x, y)),
        2..12,
    )
}

/// Nodes on a shared line through the origin: every heading is either the
/// line's bearing or its opposite, so beam-edge membership is exercised
/// constantly.
fn collinear_strategy() -> impl Strategy<Value = Vec<Point>> {
    let pi = std::f64::consts::PI;
    (prop::collection::vec(-3.0f64..3.0, 2..10), -pi..pi).prop_map(|(ts, angle)| {
        ts.iter()
            .map(|t| Point::new(t * angle.cos(), t * angle.sin()))
            .collect()
    })
}

fn beamwidth_strategy() -> impl Strategy<Value = Beamwidth> {
    prop_oneof![
        (1.0f64..360.0).prop_map(|d| Beamwidth::from_degrees(d).unwrap()),
        // Weight the exact-360° equivalence path explicitly; a uniform
        // draw essentially never lands on it.
        Just(Beamwidth::OMNI),
    ]
}

fn channel(positions: Vec<Point>) -> Channel {
    Channel::new(positions, 1.0, SimDuration::from_micros(1)).unwrap()
}

/// Asserts every plan lookup equals its reference query on `chan`.
fn assert_plan_matches_reference(chan: &Channel, beamwidth: Beamwidth) {
    let plan = CoveragePlan::new(chan, beamwidth);
    for a in 0..chan.len() {
        let a = NodeId(a);
        // Heading and distance, cached or not: bit-for-bit, not
        // approximately — the plan must evaluate the exact reference
        // expressions.
        for b in 0..chan.len() {
            let b = NodeId(b);
            let (heading, distance) = plan.node(a).toward(b);
            assert_eq!(
                distance.to_bits(),
                chan.distance(a, b).unwrap().to_bits(),
                "distance {a} → {b}"
            );
            assert_eq!(
                heading.radians().to_bits(),
                chan.heading(a, b).unwrap().radians().to_bits(),
                "heading {a} → {b}"
            );
        }
        // Omni neighbour lists.
        assert_eq!(
            plan.neighbors(a),
            chan.covered_by(a, TxPattern::Omni).unwrap().as_slice(),
            "omni neighbourhood of {a}"
        );
        // Directional footprints for *every* aim — in-range neighbours,
        // unreachable peers, and the self-aim degenerate case alike.
        for dst in 0..chan.len() {
            let dst = NodeId(dst);
            let pattern = TxPattern::aimed(
                chan.position(a).unwrap(),
                chan.position(dst).unwrap(),
                beamwidth,
            );
            assert_eq!(
                plan.directional_coverage(a, dst),
                chan.covered_by(a, pattern).unwrap(),
                "aim {a} → {dst} at θ = {}°",
                beamwidth.degrees()
            );
        }
    }
}

proptest! {
    // 128 random cases each across three properties (plus the collinear
    // and 360° variants below) comfortably exceeds 200 distinct
    // topology × beamwidth draws per run.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_matches_reference_on_random_topologies(
        positions in positions_strategy(),
        beamwidth in beamwidth_strategy(),
    ) {
        assert_plan_matches_reference(&channel(positions), beamwidth);
    }

    #[test]
    fn plan_matches_reference_on_collinear_topologies(
        positions in collinear_strategy(),
        beamwidth in beamwidth_strategy(),
    ) {
        // Collinear nodes put receivers exactly on beam boresights and
        // exactly opposite them: the sector boundary is hit on purpose.
        assert_plan_matches_reference(&channel(positions), beamwidth);
    }

    #[test]
    fn plan_matches_reference_on_beam_edges_and_apex(
        (phi, r_aim, r_edge) in boundary_params(),
        beamwidth in beamwidth_strategy(),
    ) {
        // Receivers exactly θ/2 off boresight (including the ±π wrap) and
        // at the apex, at every θ up to 360°.
        let chan = channel(boundary_layout(phi, beamwidth, r_aim, r_edge));
        assert_plan_matches_reference(&chan, beamwidth);
        let aimed = CoveragePlan::new(&chan, beamwidth).directional_coverage(NodeId(0), NodeId(1));
        prop_assert!(aimed.contains(&NodeId(5)) && aimed.contains(&NodeId(6)), "apex rule missed");
    }

    #[test]
    fn full_circle_beam_equals_omni_footprint(positions in positions_strategy()) {
        // θ = 360° must equal the omni neighbourhood: a full-circle beam
        // and the omni pattern are the same physical footprint.
        let chan = channel(positions);
        let plan = CoveragePlan::new(&chan, Beamwidth::OMNI);
        for src in 0..chan.len() {
            let src = NodeId(src);
            for &dst in plan.neighbors(src) {
                prop_assert_eq!(
                    plan.directional_coverage(src, dst),
                    plan.neighbors(src),
                    "360° aim {} → {} diverged from omni", src, dst
                );
            }
        }
    }

    #[test]
    fn strict_adjacency_matches_topology_predicate(
        positions in positions_strategy(),
    ) {
        // The traffic-layer adjacency query must reproduce the strict
        // `d² ≤ R²` predicate (no EPSILON slack) in ascending order —
        // the behavioural gate separating traffic neighbour draws from
        // signal coverage.
        let chan = channel(positions);
        let plan = CoveragePlan::new(&chan, Beamwidth::OMNI);
        let mut out = Vec::new();
        for i in 0..chan.len() {
            plan.node(NodeId(i)).adjacency_into(&mut out);
            let oracle: Vec<NodeId> = (0..chan.len())
                .filter(|&j| {
                    j != i
                        && chan
                            .position(NodeId(i))
                            .unwrap()
                            .distance_squared(chan.position(NodeId(j)).unwrap())
                            <= 1.0
                })
                .map(NodeId)
                .collect();
            prop_assert_eq!(&out, &oracle, "strict adjacency of node {}", i);
        }
    }
}
