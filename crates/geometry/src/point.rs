//! Points and displacement vectors on the plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::Angle;

/// A point on the two-dimensional plane.
///
/// Coordinates are in whatever unit the caller chooses; the analytical model
/// normalizes distances to the transmission range `R`, while the simulator
/// uses meters.
///
/// # Example
///
/// ```
/// use dirca_geometry::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement between two [`Point`]s.
///
/// # Example
///
/// ```
/// use dirca_geometry::{Point, Vec2};
///
/// let v = Point::new(1.0, 1.0) - Point::new(0.0, 1.0);
/// assert_eq!(v, Vec2::new(1.0, 0.0));
/// assert_eq!(v.norm(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        (other - self).norm()
    }

    /// Squared Euclidean distance to `other`; avoids the square root when
    /// only comparisons are needed.
    pub fn distance_squared(self, other: Point) -> f64 {
        (other - self).norm_squared()
    }

    /// Heading of `other` as seen from `self`, measured counter-clockwise
    /// from the positive x-axis.
    ///
    /// Returns [`Angle::ZERO`] when the points coincide.
    pub fn heading_to(self, other: Point) -> Angle {
        let d = other - self;
        if d == Vec2::ZERO {
            Angle::ZERO
        } else {
            Angle::from_radians(d.y.atan2(d.x))
        }
    }

    /// The point at distance `r` in direction `heading` from `self`.
    pub fn offset(self, heading: Angle, r: f64) -> Point {
        let (sin, cos) = heading.radians().sin_cos();
        Point::new(self.x + r * cos, self.y + r * sin)
    }

    /// Midpoint of the segment from `self` to `other`.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean length.
    pub fn norm_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product with `other` (positive when `other`
    /// lies counter-clockwise of `self`).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Direction of this vector; [`Angle::ZERO`] for the zero vector.
    pub fn heading(self) -> Angle {
        if self == Vec2::ZERO {
            Angle::ZERO
        } else {
            Angle::from_radians(self.y.atan2(self.x))
        }
    }

    /// This vector scaled to unit length.
    ///
    /// Returns [`Vec2::ZERO`] for the zero vector.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        // A norm is non-negative, so this is an exact zero-vector guard.
        if n <= 0.0 {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// Rotates the vector counter-clockwise by `angle`.
    pub fn rotated(self, angle: Angle) -> Vec2 {
        let (sin, cos) = angle.radians().sin_cos();
        Vec2::new(self.x * cos - self.y * sin, self.x * sin + self.y * cos)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.4}, {:.4}>", self.x, self.y)
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_345() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point::new(0.5, -0.5);
        let b = Point::new(2.5, 1.5);
        assert!((a.distance_squared(b) - a.distance(b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn heading_to_cardinal_directions() {
        let o = Point::ORIGIN;
        assert!((o.heading_to(Point::new(1.0, 0.0)).radians() - 0.0).abs() < 1e-12);
        assert!(
            (o.heading_to(Point::new(0.0, 1.0)).radians() - std::f64::consts::FRAC_PI_2).abs()
                < 1e-12
        );
        assert!(
            (o.heading_to(Point::new(-1.0, 0.0)).radians().abs() - std::f64::consts::PI).abs()
                < 1e-12
        );
    }

    #[test]
    fn heading_to_self_is_zero() {
        let p = Point::new(2.0, 3.0);
        assert_eq!(p.heading_to(p), Angle::ZERO);
    }

    #[test]
    fn offset_round_trip() {
        let p = Point::new(1.0, 1.0);
        let h = Angle::from_degrees(37.0);
        let q = p.offset(h, 2.5);
        assert!((p.distance(q) - 2.5).abs() < 1e-12);
        assert!((p.heading_to(q).radians() - h.radians()).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 2.0);
        let m = a.midpoint(b);
        assert!((m.distance(a) - m.distance(b)).abs() < 1e-12);
    }

    #[test]
    fn vector_algebra() {
        let v = Vec2::new(1.0, 2.0);
        let w = Vec2::new(-2.0, 1.0);
        assert_eq!(v.dot(w), 0.0);
        assert_eq!(v.cross(w), 5.0);
        assert_eq!(v + w, Vec2::new(-1.0, 3.0));
        assert_eq!(v - w, Vec2::new(3.0, 1.0));
        assert_eq!(-v, Vec2::new(-1.0, -2.0));
        assert_eq!(v * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * v, v * 2.0);
        assert_eq!(v / 2.0, Vec2::new(0.5, 1.0));
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = Vec2::new(3.0, -4.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec2::new(2.0, 1.0);
        let r = v.rotated(Angle::from_degrees(90.0));
        assert!((r.norm() - v.norm()).abs() < 1e-12);
        assert!((r.x - -1.0).abs() < 1e-12);
        assert!((r.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::ORIGIN).is_empty());
        assert!(!format!("{}", Vec2::ZERO).is_empty());
    }
}
