//! Transmission disks and the circle-overlap functions of the analytical
//! model.

use std::fmt;

use crate::Point;

/// A disk on the plane — typically a node's transmission/reception region.
///
/// # Example
///
/// ```
/// use dirca_geometry::{Circle, Point};
///
/// let c = Circle::new(Point::ORIGIN, 1.0);
/// assert!(c.contains(Point::new(0.5, 0.5)));
/// assert!(!c.contains(Point::new(1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the disk.
    pub center: Point,
    /// Radius of the disk; must be non-negative.
    pub radius: f64,
}

impl Circle {
    /// Creates a disk from center and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        Circle { center, radius }
    }

    /// Area of the disk.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Whether `p` lies inside or on the boundary of the disk.
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius + crate::EPSILON
    }

    /// Area of the intersection of this disk with `other`.
    pub fn intersection_area(&self, other: &Circle) -> f64 {
        lens_area(
            self.radius,
            other.radius,
            self.center.distance(other.center),
        )
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circle(center={}, r={:.4})", self.center, self.radius)
    }
}

/// The Takagi–Kleinrock helper `q(t) = arccos(t) − t·√(1 − t²)`.
///
/// For two unit circles whose centers are `2t` apart (`0 ≤ t ≤ 1`), the area
/// of their intersection is `2·q(t)`. The paper uses it to express the hidden
/// area `B(r)`; see [`hidden_area`].
///
/// # Panics
///
/// Panics if `t` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use dirca_geometry::q;
///
/// // Coincident circles: q(0) = π/2, so the lens is the full circle π·R².
/// assert!((q(0.0) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
/// // Tangent circles: no overlap.
/// assert!(q(1.0).abs() < 1e-12);
/// ```
pub fn q(t: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&t),
        "q(t) requires 0 <= t <= 1, got {t}"
    );
    t.acos() - t * (1.0 - t * t).sqrt()
}

/// The hidden-terminal area `B(r) = πR² − 2R²·q(r/2R)` of the paper.
///
/// `B(r)` is the region that can interfere with a receiver at distance `r`
/// from the sender but is outside the sender's hearing range — the shaded
/// area of Fig. 2 in the paper.
///
/// # Panics
///
/// Panics if `r` is outside `[0, 2R]` or `range` is not positive.
///
/// # Example
///
/// ```
/// use dirca_geometry::hidden_area;
///
/// // Sender and receiver co-located: nothing is hidden.
/// assert!(hidden_area(0.0, 1.0).abs() < 1e-12);
/// // Receiver at the edge of range: a large crescent is hidden.
/// let b = hidden_area(1.0, 1.0);
/// assert!(b > 0.0 && b < std::f64::consts::PI);
/// ```
pub fn hidden_area(r: f64, range: f64) -> f64 {
    assert!(range > 0.0, "range must be positive, got {range}");
    assert!(
        (0.0..=2.0 * range).contains(&r),
        "receiver distance {r} outside [0, 2·range]"
    );
    let rr = range * range;
    std::f64::consts::PI * rr - 2.0 * rr * q(r / (2.0 * range))
}

/// Area of the intersection ("lens") of two disks with radii `r1`, `r2`
/// whose centers are `d` apart.
///
/// Handles all degenerate cases: disjoint disks give `0`, containment gives
/// the smaller disk's area.
///
/// # Panics
///
/// Panics if any argument is negative or not finite.
pub fn lens_area(r1: f64, r2: f64, d: f64) -> f64 {
    assert!(
        r1 >= 0.0 && r2 >= 0.0 && d >= 0.0 && r1.is_finite() && r2.is_finite() && d.is_finite(),
        "lens_area arguments must be finite and non-negative"
    );
    if d >= r1 + r2 {
        return 0.0;
    }
    let (small, large) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
    if d <= large - small {
        return std::f64::consts::PI * small * small;
    }
    // Standard two-circle lens formula.
    let d2 = d * d;
    let r1_2 = r1 * r1;
    let r2_2 = r2 * r2;
    let alpha = ((d2 + r1_2 - r2_2) / (2.0 * d * r1))
        .clamp(-1.0, 1.0)
        .acos();
    let beta = ((d2 + r2_2 - r1_2) / (2.0 * d * r2))
        .clamp(-1.0, 1.0)
        .acos();
    let tri = 0.5
        * ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
            .max(0.0)
            .sqrt();
    (r1_2 * alpha + r2_2 * beta - tri).max(0.0)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn q_endpoints() {
        assert!((q(0.0) - PI / 2.0).abs() < 1e-12);
        assert!(q(1.0).abs() < 1e-12);
    }

    #[test]
    fn q_is_decreasing() {
        let mut prev = q(0.0);
        for i in 1..=100 {
            let t = i as f64 / 100.0;
            let cur = q(t);
            assert!(cur <= prev + 1e-12, "q not decreasing at t={t}");
            prev = cur;
        }
    }

    #[test]
    #[should_panic(expected = "q(t) requires")]
    fn q_rejects_out_of_range() {
        let _ = q(1.5);
    }

    #[test]
    fn hidden_area_limits() {
        // r = 0: circles coincide, hidden area 0.
        assert!(hidden_area(0.0, 1.0).abs() < 1e-12);
        // r = 2R: circles tangent, hidden area is the whole receiver disk.
        assert!((hidden_area(2.0, 1.0) - PI).abs() < 1e-12);
    }

    #[test]
    fn hidden_area_equals_circle_minus_lens() {
        // B(r) must equal πR² − lens(R, R, r).
        for &r in &[0.1, 0.5, 0.9, 1.0, 1.5] {
            let direct = hidden_area(r, 1.0);
            let via_lens = PI - lens_area(1.0, 1.0, r);
            assert!(
                (direct - via_lens).abs() < 1e-9,
                "mismatch at r={r}: {direct} vs {via_lens}"
            );
        }
    }

    #[test]
    fn hidden_area_scales_with_range_squared() {
        let b1 = hidden_area(0.6, 1.0);
        let b2 = hidden_area(1.2, 2.0);
        assert!((b2 - 4.0 * b1).abs() < 1e-9);
    }

    #[test]
    fn lens_disjoint_is_zero() {
        assert_eq!(lens_area(1.0, 1.0, 2.5), 0.0);
        assert_eq!(lens_area(1.0, 1.0, 2.0), 0.0);
    }

    #[test]
    fn lens_containment_is_smaller_disk() {
        assert!((lens_area(1.0, 3.0, 1.0) - PI).abs() < 1e-12);
        assert!((lens_area(3.0, 1.0, 0.0) - PI).abs() < 1e-12);
    }

    #[test]
    fn lens_is_symmetric_in_radii() {
        assert!((lens_area(1.0, 2.0, 1.5) - lens_area(2.0, 1.0, 1.5)).abs() < 1e-12);
    }

    #[test]
    fn lens_equal_circles_matches_q() {
        for &d in &[0.0, 0.4, 1.0, 1.6, 2.0] {
            let lens = lens_area(1.0, 1.0, d);
            let via_q = 2.0 * q(d / 2.0);
            assert!((lens - via_q).abs() < 1e-9, "mismatch at d={d}");
        }
    }

    #[test]
    fn circle_contains_and_area() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        assert!(c.contains(Point::new(1.0, 3.0)));
        assert!(!c.contains(Point::new(1.0, 3.1)));
        assert!((c.area() - 4.0 * PI).abs() < 1e-12);
    }

    #[test]
    fn circle_intersection_area_uses_lens() {
        let a = Circle::new(Point::ORIGIN, 1.0);
        let b = Circle::new(Point::new(1.0, 0.0), 1.0);
        assert!((a.intersection_area(&b) - lens_area(1.0, 1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "radius must be finite")]
    fn circle_rejects_negative_radius() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Circle::new(Point::ORIGIN, 1.0)).is_empty());
    }
}
