//! Property-based tests for the geometric substrate.

use dirca_geometry::{
    hidden_area, lens_area, paper, q, sample, Angle, Beamwidth, Circle, Point, Sector,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::f64::consts::{PI, TAU};

proptest! {
    #[test]
    fn angle_normalization_is_idempotent(raw in -100.0f64..100.0) {
        let once = Angle::from_radians(raw);
        let twice = Angle::from_radians(once.radians());
        prop_assert!((once.radians() - twice.radians()).abs() < 1e-12);
        prop_assert!(once.radians() > -std::f64::consts::PI - 1e-12);
        prop_assert!(once.radians() <= std::f64::consts::PI + 1e-12);
    }

    #[test]
    fn angle_separation_triangle_inequality(a in -10.0f64..10.0, b in -10.0f64..10.0, c in -10.0f64..10.0) {
        let (a, b, c) = (Angle::from_radians(a), Angle::from_radians(b), Angle::from_radians(c));
        prop_assert!(a.separation(c) <= a.separation(b) + b.separation(c) + 1e-9);
    }

    #[test]
    fn separation_invariant_under_rotation(a in -10.0f64..10.0, b in -10.0f64..10.0, rot in -10.0f64..10.0) {
        let rot = Angle::from_radians(rot);
        let before = Angle::from_radians(a).separation(Angle::from_radians(b));
        let after = (Angle::from_radians(a) + rot).separation(Angle::from_radians(b) + rot);
        prop_assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn angle_arithmetic_equals_the_fmod_forms(
        a in prop_oneof![-100.0f64..100.0, Just(PI), Just(-PI), Just(TAU), Just(-TAU), Just(3.0 * PI)],
        b in prop_oneof![-4.0f64..4.0, Just(PI), Just(-PI + 1e-15), Just(TAU)],
    ) {
        // Normalization and separation skip `fmod` when it is the
        // identity; both must stay bit-identical to the unconditional form.
        let normalize = |r: f64| {
            let r = r % TAU;
            if r <= -PI { r + TAU } else if r > PI { r - TAU } else { r }
        };
        let (na, nb) = (Angle::from_radians(a), Angle::from_radians(b));
        prop_assert_eq!(na.radians().to_bits(), normalize(a).to_bits());
        prop_assert_eq!(nb.radians().to_bits(), normalize(b).to_bits());
        let d = (na.radians() - nb.radians()).abs() % TAU;
        let separation = if d > PI { TAU - d } else { d };
        prop_assert_eq!(na.separation(nb).to_bits(), separation.to_bits());
    }

    #[test]
    fn q_bounds(t in 0.0f64..=1.0) {
        let v = q(t);
        prop_assert!(v >= -1e-12);
        prop_assert!(v <= std::f64::consts::FRAC_PI_2 + 1e-12);
    }

    #[test]
    fn lens_area_bounded_by_smaller_disk(r1 in 0.01f64..5.0, r2 in 0.01f64..5.0, d in 0.0f64..12.0) {
        let lens = lens_area(r1, r2, d);
        let min_disk = std::f64::consts::PI * r1.min(r2).powi(2);
        prop_assert!(lens >= 0.0);
        prop_assert!(lens <= min_disk + 1e-9);
    }

    #[test]
    fn lens_area_decreases_with_distance(r1 in 0.1f64..3.0, r2 in 0.1f64..3.0, d in 0.0f64..5.0) {
        let closer = lens_area(r1, r2, d);
        let farther = lens_area(r1, r2, d + 0.1);
        prop_assert!(farther <= closer + 1e-9);
    }

    #[test]
    fn hidden_area_within_disk(r in 0.0f64..=2.0, range in 0.1f64..10.0) {
        let b = hidden_area(r * range, range);
        prop_assert!(b >= -1e-9);
        prop_assert!(b <= std::f64::consts::PI * range * range + 1e-9);
    }

    #[test]
    fn sector_contains_implies_circle_contains(
        x in -2.0f64..2.0, y in -2.0f64..2.0,
        bore in -4.0f64..4.0, theta in 1.0f64..360.0, range in 0.1f64..3.0,
        px in -5.0f64..5.0, py in -5.0f64..5.0,
    ) {
        let apex = Point::new(x, y);
        let s = Sector::new(apex, Angle::from_radians(bore), Beamwidth::from_degrees(theta).unwrap(), range);
        let p = Point::new(px, py);
        if s.contains(p) {
            prop_assert!(Circle::new(apex, range + 1e-9).contains(p));
        }
    }

    #[test]
    fn omni_sector_equals_disk(
        bore in -4.0f64..4.0, range in 0.1f64..3.0,
        px in -5.0f64..5.0, py in -5.0f64..5.0,
    ) {
        let s = Sector::new(Point::ORIGIN, Angle::from_radians(bore), Beamwidth::OMNI, range);
        let c = Circle::new(Point::ORIGIN, range);
        let p = Point::new(px, py);
        prop_assert_eq!(s.contains(p), c.contains(p));
    }

    #[test]
    fn aimed_sector_always_covers_in_range_target(
        tx_x in -2.0f64..2.0, tx_y in -2.0f64..2.0,
        heading in -4.0f64..4.0, dist in 0.001f64..1.0,
        theta in 1.0f64..360.0,
    ) {
        let tx = Point::new(tx_x, tx_y);
        let rx = tx.offset(Angle::from_radians(heading), dist);
        let s = Sector::aimed_at(tx, rx, Beamwidth::from_degrees(theta).unwrap(), 1.0);
        prop_assert!(s.contains(rx));
    }

    #[test]
    fn drts_dcts_areas_always_valid(r in 0.001f64..=1.0, theta_deg in 1.0f64..=360.0) {
        let a = paper::drts_dcts_areas(r, theta_deg.to_radians());
        for v in [a.s1, a.s2, a.s3, a.s4, a.s5] {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
            prop_assert!(v <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn drts_octs_areas_always_valid(r in 0.001f64..=1.0, theta_deg in 1.0f64..=360.0) {
        let a = paper::drts_octs_areas(r, theta_deg.to_radians());
        prop_assert!((a.s1 + a.s2 - 1.0).abs() < 1e-9);
        prop_assert!(a.s3 >= 0.0 && a.s3 <= 1.0 + 1e-9);
    }

    #[test]
    fn ring_sampling_respects_bounds(seed in 0u64..1000, inner in 0.0f64..2.0, extra in 0.01f64..3.0) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = sample::uniform_in_ring(&mut rng, Point::ORIGIN, inner, inner + extra);
        let d = Point::ORIGIN.distance(p);
        prop_assert!(d >= inner - 1e-9);
        prop_assert!(d <= inner + extra + 1e-9);
    }
}
