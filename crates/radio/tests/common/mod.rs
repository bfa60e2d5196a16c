//! Fixtures shared by the coverage-plan batteries.

use std::f64::consts::PI;

use dirca_geometry::{Angle, Beamwidth, Point};
use proptest::prelude::*;

/// A layout on the beam's exact boundaries: node 0 transmits toward node 1
/// at bearing `phi`; nodes 2 and 3 sit exactly θ/2 either side of that
/// boresight, built from polar coordinates, and node 4 just outside one
/// edge; node 5 is co-located with node 0 and node 6 lies within √EPSILON
/// of it behind the beam — both inside every footprint by the
/// `d² ≤ EPSILON` apex rule.
pub fn boundary_layout(phi: f64, beamwidth: Beamwidth, r_aim: f64, r_edge: f64) -> Vec<Point> {
    let apex = Point::new(0.3, -0.2);
    let half = beamwidth.half_radians();
    let at = |bearing: f64, r: f64| apex.offset(Angle::from_radians(bearing), r);
    vec![
        apex,
        at(phi, r_aim),
        at(phi + half, r_edge),
        at(phi - half, r_edge),
        at(phi + half + 1e-6, r_edge),
        apex,
        at(phi + PI, 1e-7),
    ]
}

/// `(phi, r_aim, r_edge)` for [`boundary_layout`] at range 1, with the
/// boresight's ±π wrap and edge receivers at exactly the range weighted
/// in.
pub fn boundary_params() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        prop_oneof![-PI..PI, Just(PI)],
        0.05f64..1.0,
        prop_oneof![0.05f64..1.0, Just(1.0)],
    )
}
