//! Property tests of the channel's coverage geometry.

use dirca_geometry::{Angle, Beamwidth, Point};
use dirca_radio::{Channel, NodeId, TxPattern};
use dirca_sim::SimDuration;
use proptest::prelude::*;

fn positions_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (-3.0f64..3.0, -3.0f64..3.0).prop_map(|(x, y)| Point::new(x, y)),
        2..12,
    )
}

proptest! {
    #[test]
    fn omni_coverage_is_symmetric(positions in positions_strategy()) {
        // With a common range, "a hears b" iff "b hears a".
        let chan = Channel::new(positions, 1.0, SimDuration::from_micros(1)).unwrap();
        for a in 0..chan.len() {
            let covered = chan.covered_by(NodeId(a), TxPattern::Omni).unwrap();
            for b in covered {
                let back = chan.covered_by(b, TxPattern::Omni).unwrap();
                prop_assert!(
                    back.contains(&NodeId(a)),
                    "asymmetric coverage between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn beam_coverage_is_subset_of_omni(
        positions in positions_strategy(),
        boresight in -4.0f64..4.0,
        theta in 1.0f64..359.0,
    ) {
        let chan = Channel::new(positions, 1.0, SimDuration::from_micros(1)).unwrap();
        let beam = TxPattern::Beam {
            boresight: Angle::from_radians(boresight),
            beamwidth: Beamwidth::from_degrees(theta).unwrap(),
        };
        for a in 0..chan.len() {
            let beamed = chan.covered_by(NodeId(a), beam).unwrap();
            let omni = chan.covered_by(NodeId(a), TxPattern::Omni).unwrap();
            for b in beamed {
                prop_assert!(omni.contains(&b), "beam reached outside omni range");
            }
        }
    }

    #[test]
    fn widening_the_beam_only_adds_coverage(
        positions in positions_strategy(),
        boresight in -4.0f64..4.0,
        theta in 1.0f64..180.0,
    ) {
        let chan = Channel::new(positions, 1.0, SimDuration::from_micros(1)).unwrap();
        let narrow = TxPattern::Beam {
            boresight: Angle::from_radians(boresight),
            beamwidth: Beamwidth::from_degrees(theta).unwrap(),
        };
        let wide = TxPattern::Beam {
            boresight: Angle::from_radians(boresight),
            beamwidth: Beamwidth::from_degrees(theta * 2.0).unwrap(),
        };
        for a in 0..chan.len() {
            let n = chan.covered_by(NodeId(a), narrow).unwrap();
            let w = chan.covered_by(NodeId(a), wide).unwrap();
            for b in n {
                prop_assert!(w.contains(&b), "widening lost a covered node");
            }
        }
    }

    #[test]
    fn aimed_beam_covers_target_iff_in_range(
        positions in positions_strategy(),
        theta in 1.0f64..359.0,
    ) {
        let chan = Channel::new(positions, 1.0, SimDuration::from_micros(1)).unwrap();
        let beamwidth = Beamwidth::from_degrees(theta).unwrap();
        for a in 0..chan.len() {
            for b in 0..chan.len() {
                if a == b {
                    continue;
                }
                let pattern = TxPattern::aimed(
                    chan.position(NodeId(a)).unwrap(),
                    chan.position(NodeId(b)).unwrap(),
                    beamwidth,
                );
                let covered = chan.covered_by(NodeId(a), pattern).unwrap();
                let in_range = chan.distance(NodeId(a), NodeId(b)).unwrap() <= 1.0 + 1e-12;
                prop_assert_eq!(
                    covered.contains(&NodeId(b)),
                    in_range,
                    "aimed beam from {} to {} mismatch",
                    a,
                    b
                );
            }
        }
    }
}
