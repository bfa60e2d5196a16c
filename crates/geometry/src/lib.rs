//! Planar geometry for the analysis and simulation of collision-avoidance
//! MAC protocols with directional antennas.
//!
//! This crate provides the geometric substrate used by the reproduction of
//! Wang & Garcia-Luna-Aceves, *Collision Avoidance in Single-Channel Ad Hoc
//! Networks Using Directional Antennas* (ICDCS 2003):
//!
//! * [`Point`] / [`Vec2`] — points and displacement vectors on the plane.
//! * [`Angle`] and [`Beamwidth`] — normalized headings and validated antenna
//!   beamwidths.
//! * [`Sector`] — an ideal antenna beam: apex, boresight, beamwidth, range.
//! * [`Circle`] — transmission disks, including the Takagi–Kleinrock overlap
//!   helper [`q`] and the hidden-area function [`hidden_area`].
//! * [`paper`] — the normalized interference areas `S_I … S_V` from Section 2
//!   of the paper, for the DRTS-DCTS and DRTS-OCTS schemes.
//! * [`sample`] — uniform random sampling of disks, rings, and sectors.
//!
//! # Example
//!
//! ```
//! use dirca_geometry::{Point, Sector, Beamwidth, Angle};
//!
//! // A node at the origin beaming due east with a 30-degree beam and unit range
//! // covers a point 0.5 away on its boresight, but not a point behind it.
//! let beam = Sector::new(
//!     Point::new(0.0, 0.0),
//!     Angle::from_degrees(0.0),
//!     Beamwidth::from_degrees(30.0).unwrap(),
//!     1.0,
//! );
//! assert!(beam.contains(Point::new(0.5, 0.0)));
//! assert!(!beam.contains(Point::new(-0.5, 0.0)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// The engine never indexes unchecked: feasible here, so gate it.
#![warn(clippy::indexing_slicing)]

mod angle;
mod circle;
mod point;
mod sector;

pub mod paper;
pub mod sample;

pub use angle::{Angle, Beamwidth, BeamwidthError};
pub use circle::{hidden_area, lens_area, q, Circle};
pub use point::{Point, Vec2};
pub use sector::Sector;

/// Relative tolerance used by the geometric routines in this crate when
/// comparing floating-point areas and angles.
pub const EPSILON: f64 = 1e-12;
