//! Equivalence battery for the incrementally-invalidated
//! [`DynamicCoveragePlan`] under real mobility traces.
//!
//! The property that matters: after *any* sequence of position epochs
//! driven by the deterministic mobility models, the incrementally
//! maintained plan equals a from-scratch rebuild over the final positions
//! **field for field** (cache equality via `PartialEq`), and both answer
//! every query exactly like the reference [`Channel`] queries and the
//! immutable [`CoveragePlan`] built over the same positions. Checked by
//! proptest across epoch counts, node densities, beamwidths, both mobility
//! families, and layouts on the beam's exact edges and apex.
//!
//! The golden regression rides along: a zero-motion epoch does **zero**
//! cache work — counter-asserted via [`InvalidationStats`], not timed.

// Unwraps and exact float comparisons are idiomatic in test assertions.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use dirca_geometry::{Angle, Beamwidth, Point};
use dirca_radio::{Channel, CoveragePlan, DynamicCoveragePlan, NodeId, TxPattern};
use dirca_sim::SimDuration;
use dirca_topology::{MobilityModel, MobilityState};
use proptest::prelude::*;

mod common;
use common::{boundary_layout, boundary_params};

const RANGE: f64 = 1.0;

fn positions_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (-2.5f64..2.5, -2.5f64..2.5).prop_map(|(x, y)| Point::new(x, y)),
        2..14,
    )
}

fn beamwidth_strategy() -> impl Strategy<Value = Beamwidth> {
    prop_oneof![
        (1.0f64..360.0).prop_map(|d| Beamwidth::from_degrees(d).unwrap()),
        Just(Beamwidth::OMNI),
    ]
}

fn model_strategy() -> impl Strategy<Value = MobilityModel> {
    prop_oneof![
        (0.5f64..2.0, 0.0f64..3.0, 0.0f64..0.2).prop_map(|(lo, extra, pause)| {
            MobilityModel::RandomWaypoint {
                speed_min: lo,
                speed_max: lo + extra,
                pause_secs: pause,
            }
        }),
        (1usize..4, 0.5f64..2.0, 0.0f64..3.0, 0.0f64..0.5).prop_map(
            |(groups, lo, extra, deviation)| MobilityModel::Rpgm {
                groups,
                speed_min: lo,
                speed_max: lo + extra,
                pause_secs: 0.0,
                deviation,
            }
        ),
    ]
}

/// Asserts `plan` answers every query exactly like the reference
/// [`Channel`] queries over the same positions — `covered_by`, `heading`,
/// `distance` and the brute-force strict adjacency, an oracle that shares
/// no code with the footprint kernel — and like a [`CoveragePlan`] built
/// fresh over them.
fn assert_matches_oracle(plan: &DynamicCoveragePlan, beamwidth: Beamwidth) {
    let chan = Channel::new(
        plan.positions().to_vec(),
        RANGE,
        SimDuration::from_micros(1),
    )
    .expect("finite positions");
    let fresh = CoveragePlan::new(&chan, beamwidth);
    let bits = |a: Angle| a.radians().to_bits();
    let mut got = Vec::new();
    for i in 0..plan.len() {
        let src = NodeId(i);
        let origin = chan.position(src).unwrap();
        let omni = chan.covered_by(src, TxPattern::Omni).unwrap();
        let strict: Vec<NodeId> = (0..plan.len())
            .map(NodeId)
            .filter(|&p| {
                p != src && origin.distance_squared(chan.position(p).unwrap()) <= RANGE * RANGE
            })
            .collect();
        for (which, node) in [("dynamic", plan.node(src)), ("static", fresh.node(src))] {
            assert_eq!(
                node.neighbors(),
                omni.as_slice(),
                "{which} neighbours of {src}"
            );
            node.adjacency_into(&mut got);
            assert_eq!(got, strict, "{which} adjacency of {src}");
            for j in 0..plan.len() {
                let peer = NodeId(j);
                let (heading, distance) = node.toward(peer);
                assert_eq!(bits(heading), bits(chan.heading(src, peer).unwrap()));
                assert_eq!(
                    distance.to_bits(),
                    chan.distance(src, peer).unwrap().to_bits()
                );
                let aimed = TxPattern::aimed(origin, chan.position(peer).unwrap(), beamwidth);
                node.directional_coverage_into(peer, &mut got);
                assert_eq!(
                    got,
                    chan.covered_by(src, aimed).unwrap(),
                    "{which} aim {src}→{peer}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After k mobility epochs the incremental plan equals a from-scratch
    /// rebuild field for field, and both match the immutable oracle.
    #[test]
    fn incremental_plan_equals_scratch_rebuild(
        positions in positions_strategy(),
        beamwidth in beamwidth_strategy(),
        model in model_strategy(),
        epochs in 1usize..7,
        dt in 0.02f64..0.4,
        seed in 0u64..1_000,
    ) {
        let radius = MobilityState::field_radius(&positions, RANGE);
        let mut state = MobilityState::new(model, &positions, radius, seed);
        let mut plan = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        for _ in 0..epochs {
            let moves = state.step(dt).to_vec();
            plan.apply_moves(&moves);
        }
        let scratch = DynamicCoveragePlan::new(state.positions(), RANGE, beamwidth);
        prop_assert_eq!(&plan, &scratch, "incremental plan drifted from a scratch rebuild");
        assert_matches_oracle(&plan, beamwidth);
    }

    /// The cross-crate contract `apply_moves` relies on: `step` reports
    /// exactly the changed nodes, strictly ascending by index, with the
    /// positions it claims.
    #[test]
    fn step_reports_exactly_the_movers_in_order(
        positions in positions_strategy(),
        model in model_strategy(),
        dt in 0.02f64..0.4,
        seed in 0u64..1_000,
    ) {
        let radius = MobilityState::field_radius(&positions, RANGE);
        let mut state = MobilityState::new(model, &positions, radius, seed);
        let before = state.positions().to_vec();
        let moves = state.step(dt).to_vec();
        prop_assert!(
            moves.windows(2).all(|w| w[0].0 < w[1].0),
            "moves not strictly ascending: {:?}", moves
        );
        for &(idx, pos) in &moves {
            prop_assert_eq!(state.positions()[idx], pos);
        }
        let moved: Vec<usize> = moves.iter().map(|m| m.0).collect();
        for (i, b) in before.iter().enumerate() {
            let changed = state.positions()[i] != *b;
            prop_assert_eq!(changed, moved.contains(&i), "node {} misreported", i);
        }
    }

    /// Golden regression, counter-asserted: feeding a speed-0 model's
    /// (empty) move lists through the plan does zero cache work — the
    /// epoch counter ticks, re-bins and rebuilds stay at exactly zero, and
    /// the plan still equals a fresh build.
    #[test]
    fn zero_motion_epochs_do_zero_cache_work(
        positions in positions_strategy(),
        beamwidth in beamwidth_strategy(),
        epochs in 1u64..12,
    ) {
        let radius = MobilityState::field_radius(&positions, RANGE);
        let mut state = MobilityState::new(MobilityModel::STATIC, &positions, radius, 7);
        let mut plan = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        for _ in 0..epochs {
            let moves = state.step(0.1).to_vec();
            prop_assert!(moves.is_empty(), "a static model produced moves");
            prop_assert!(plan.apply_moves(&moves).is_empty());
        }
        let stats = plan.stats();
        prop_assert_eq!(stats.epochs, epochs);
        prop_assert_eq!(stats.rebins, 0, "zero-motion epochs re-binned");
        prop_assert_eq!(stats.rebuilds, 0, "zero-motion epochs rebuilt caches");
        let fresh = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        prop_assert_eq!(&plan, &fresh);
    }

    /// Work-proportionality: a single mover's epoch rebuilds only caches in
    /// its 3×3 neighbourhood blocks — bounded by the occupancy around its
    /// old and new cells, never the whole arena.
    #[test]
    fn single_move_work_is_local(
        beamwidth in beamwidth_strategy(),
        dx in -0.4f64..0.4,
        dy in -0.4f64..0.4,
    ) {
        // A sparse 6×6 lattice at pitch 1.2 (> range): each node's 3×3
        // block holds a bounded handful of the 36 nodes.
        let positions: Vec<Point> = (0..36)
            .map(|i| Point::new((i % 6) as f64 * 1.2, (i / 6) as f64 * 1.2))
            .collect();
        let mut plan = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        let target = Point::new(positions[14].x + dx, positions[14].y + dy);
        plan.apply_moves(&[(14, target)]);
        let stats = plan.stats();
        prop_assert!(
            stats.rebuilds <= 18,
            "one sub-cell move rebuilt {} of 36 caches", stats.rebuilds
        );
        assert_matches_oracle(&plan, beamwidth);
    }

    /// Beam edges exactly θ/2 off boresight (including the ±π wrap), the
    /// co-located apex rule, and θ = 360°: a fresh plan and one that
    /// reached the layout by moves both match the reference oracle.
    #[test]
    fn boundary_layouts_match_reference(
        (phi, r_aim, r_edge) in boundary_params(),
        beamwidth in beamwidth_strategy(),
    ) {
        let target = boundary_layout(phi, beamwidth, r_aim, r_edge);
        let fresh = DynamicCoveragePlan::new(&target, RANGE, beamwidth);
        assert_matches_oracle(&fresh, beamwidth);
        let mut aimed = Vec::new();
        fresh.node(NodeId(0)).directional_coverage_into(NodeId(1), &mut aimed);
        prop_assert!(aimed.contains(&NodeId(5)) && aimed.contains(&NodeId(6)), "apex rule missed");
        let start: Vec<Point> = target.iter().rev().copied().collect();
        let mut moved = DynamicCoveragePlan::new(&start, RANGE, beamwidth);
        let moves: Vec<(usize, Point)> = target.iter().copied().enumerate().collect();
        moved.apply_moves(&moves);
        prop_assert_eq!(&moved, &fresh);
    }
}
