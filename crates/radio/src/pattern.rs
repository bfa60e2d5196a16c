//! Parameterized antenna gain patterns and the power-based SINR PHY knobs.
//!
//! The paper's antennas are ideal sectors: unit gain inside the beam,
//! complete attenuation outside. Kandasamy et al. (arXiv:1509.04203) show
//! that real directional antennas — a tapered main lobe plus a side-lobe
//! floor — qualitatively change directional-MAC behaviour, because side
//! lobes leak energy toward nodes the ideal model considers deaf.
//! [`AntennaPattern`] generalizes the ideal sector with three knobs and
//! [`SinrPhy`] bundles them with the capture rule parameters the
//! `dirca-net` reception path consumes.
//!
//! # The capture rule
//!
//! A frame arriving with power `P` while the receiver sees aggregate
//! interference `I` (the power sum of every other arrival overlapping any
//! instant of the frame) and noise floor `N` is decoded iff
//!
//! ```text
//! N + I ≤ margin · P
//! ```
//!
//! `margin` is the *reciprocal* of the usual SINR threshold β (deliver iff
//! `P / (N + I) ≥ β` ⇔ `N + I ≤ P/β`): phrasing the rule as a product
//! keeps `margin = 0` exact — no division, no infinities — and makes the
//! β → ∞ limit (the paper's binary collide rule, where *any* overlap
//! destroys the frame) the literal value `margin = 0` with `noise = 0`.
//! The oracle battery in `tests/sinr_oracle.rs` pins that equivalence
//! decision-for-decision, along with the monotonicity laws (raising the
//! side-lobe floor never decreases interference; raising β — i.e.
//! shrinking `margin` — never increases captures).

// Transmit hot path: every indexing and `expect` site panics on a broken
// invariant, so each carries an `#[expect]` on its fn saying which one.
#![deny(clippy::indexing_slicing, clippy::expect_used)]

use dirca_geometry::{Beamwidth, EPSILON};

/// A transmit antenna gain pattern: an ideal sector generalized with a
/// main-lobe gain, a side-lobe floor, and a cosine-power rolloff taper.
///
/// All gains are linear (not dB). The pattern evaluates the gain toward a
/// receiver whose bearing is `separation` radians off the boresight:
///
/// * outside the main lobe (`separation > θ/2`): `side_floor`;
/// * inside with `rolloff = 0`: flat `main_gain` (the ideal sector);
/// * inside with `rolloff > 0`: a cosine-power taper from `main_gain` at
///   the boresight down to `side_floor` at the lobe edge, so the pattern
///   is continuous at the edge and steeper for larger `rolloff`.
///
/// With `side_floor = 0` and `rolloff = 0` this is *exactly* the paper's
/// ideal sector: the support of the gain function equals the sector
/// footprint `Sector::contains` accepts (including the apex rule — a
/// receiver co-located with the transmitter is always in the main lobe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AntennaPattern {
    /// Beam aperture θ of the main lobe.
    pub beamwidth: Beamwidth,
    /// Linear gain at the boresight (the paper's equal-gain assumption is
    /// `1.0`).
    pub main_gain: f64,
    /// Linear gain outside the main lobe. `0.0` reproduces the ideal
    /// sector's complete attenuation (the "side-lobe floor = −∞ dB" of
    /// the oracle battery).
    pub side_floor: f64,
    /// Cosine-power taper exponent inside the main lobe; `0.0` keeps the
    /// lobe flat at `main_gain`.
    pub rolloff: f64,
}

impl AntennaPattern {
    /// The paper's ideal sector at aperture `beamwidth`: unit main-lobe
    /// gain, zero side lobes, no taper.
    pub fn ideal(beamwidth: Beamwidth) -> Self {
        AntennaPattern {
            beamwidth,
            main_gain: 1.0,
            side_floor: 0.0,
            rolloff: 0.0,
        }
    }

    /// Whether the pattern is an ideal sector (flat unit main lobe, zero
    /// side lobes) — the regime where SINR coverage support equals the
    /// binary model's sector footprint exactly.
    pub fn is_ideal(&self) -> bool {
        self.side_floor <= 0.0 && self.rolloff <= 0.0 && (self.main_gain - 1.0).abs() < f64::EPSILON
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Names the first knob outside `0 ≤ side_floor ≤ main_gain`,
    /// `main_gain > 0` and `rolloff ≥ 0`, all finite.
    pub fn validate(&self) -> Result<(), String> {
        let (main, floor, rolloff) = (self.main_gain, self.side_floor, self.rolloff);
        if !(main.is_finite() && main > 0.0) {
            return Err(format!("main_gain must be positive and finite, got {main}"));
        }
        if !(floor.is_finite() && floor >= 0.0 && floor <= main) {
            return Err(format!(
                "side_floor must satisfy 0 ≤ side_floor ≤ main_gain, got {floor}"
            ));
        }
        if !(rolloff.is_finite() && rolloff >= 0.0) {
            return Err(format!(
                "rolloff must be finite and non-negative, got {rolloff}"
            ));
        }
        Ok(())
    }

    /// Linear gain toward a receiver `separation` radians off the
    /// boresight. Monotone non-decreasing in `side_floor` for every
    /// separation (the monotonicity law the oracle battery pins).
    pub fn gain(&self, separation: f64) -> f64 {
        if !self.beamwidth.covers_separation(separation) {
            return self.side_floor;
        }
        if self.rolloff <= 0.0 {
            return self.main_gain;
        }
        let half = self.beamwidth.half_radians();
        if half <= 0.0 {
            return self.main_gain;
        }
        let ratio = (separation / half).clamp(0.0, 1.0);
        let taper = ((1.0 + (std::f64::consts::PI * ratio).cos()) / 2.0).powf(self.rolloff);
        self.side_floor + (self.main_gain - self.side_floor) * taper
    }

    /// Gain from a *directional* transmitter toward a receiver
    /// `separation` off the boresight at squared distance
    /// `distance_squared` — [`AntennaPattern::gain`] plus the apex rule:
    /// a receiver within √EPSILON of the transmitter is inside the main
    /// lobe regardless of bearing, mirroring `Sector::contains` so the
    /// ideal pattern's support equals the sector footprint bit for bit.
    pub fn tx_gain(&self, separation: f64, distance_squared: f64) -> f64 {
        if distance_squared <= EPSILON {
            return self.main_gain;
        }
        self.gain(separation)
    }
}

/// The SINR PHY configuration: pattern shape knobs (the beamwidth itself
/// comes from the simulation config, so the two can never disagree),
/// capture rule parameters, and the path-loss/fading model.
///
/// Received power for a transmitter-receiver pair at distance `d` with
/// pattern gain `g` is
///
/// ```text
/// P = g / max(d, ref_distance)^alpha          (× a fading factor if σ > 0)
/// ```
///
/// The `ref_distance` clamp keeps co-located pairs finite. With
/// `fading_sigma > 0` the power is additionally multiplied by a log-normal
/// factor `exp(σ·z)` drawn per (receiver, frame) from the registered
/// `SINR_STREAM_SALT` stream; `fading_sigma = 0` draws nothing, so
/// fading-free runs consume no RNG (the golden-trace anchor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrPhy {
    /// Main-lobe linear gain (see [`AntennaPattern::main_gain`]).
    pub main_gain: f64,
    /// Side-lobe linear floor (see [`AntennaPattern::side_floor`]).
    pub side_floor: f64,
    /// Main-lobe taper exponent (see [`AntennaPattern::rolloff`]).
    pub rolloff: f64,
    /// Capture margin: deliver iff `noise + I ≤ margin · P`. This is 1/β;
    /// `0.0` is the paper's binary collide rule.
    pub margin: f64,
    /// Additive noise floor in the same linear power units.
    pub noise: f64,
    /// Path-loss exponent (free space is 2).
    pub alpha: f64,
    /// Distance clamp for the path-loss law (keeps `d → 0` finite).
    pub ref_distance: f64,
    /// Log-normal shadowing σ (natural-log scale); `0.0` disables fading
    /// and performs no RNG draws.
    pub fading_sigma: f64,
}

impl SinrPhy {
    /// The configuration equivalent to the paper's binary PHY: ideal
    /// sector pattern, zero margin (any overlap destroys a frame), no
    /// noise, no fading. A run with this PHY is byte-identical to one
    /// without SINR at all.
    pub fn ideal() -> Self {
        SinrPhy {
            main_gain: 1.0,
            side_floor: 0.0,
            rolloff: 0.0,
            margin: 0.0,
            noise: 0.0,
            alpha: 2.0,
            ref_distance: 1e-3,
            fading_sigma: 0.0,
        }
    }

    /// Builder: set the side-lobe floor.
    #[must_use]
    pub fn with_side_floor(mut self, side_floor: f64) -> Self {
        self.side_floor = side_floor;
        self
    }

    /// Builder: set the main-lobe rolloff exponent.
    #[must_use]
    pub fn with_rolloff(mut self, rolloff: f64) -> Self {
        self.rolloff = rolloff;
        self
    }

    /// Builder: set the capture margin (1/β).
    #[must_use]
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Builder: set the noise floor.
    #[must_use]
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Builder: set the log-normal fading σ.
    #[must_use]
    pub fn with_fading_sigma(mut self, fading_sigma: f64) -> Self {
        self.fading_sigma = fading_sigma;
        self
    }

    /// The antenna pattern at the given aperture.
    pub fn pattern(&self, beamwidth: Beamwidth) -> AntennaPattern {
        AntennaPattern {
            beamwidth,
            main_gain: self.main_gain,
            side_floor: self.side_floor,
            rolloff: self.rolloff,
        }
    }

    /// Whether the pattern part is the ideal sector, i.e. the SINR wave
    /// footprint equals the binary model's directional footprint.
    pub fn is_ideal_pattern(&self) -> bool {
        self.side_floor <= 0.0 && self.rolloff <= 0.0
    }

    /// Validates every knob.
    ///
    /// # Errors
    ///
    /// Names the first invalid knob: an invalid pattern (see
    /// [`AntennaPattern::validate`]), a negative/non-finite margin or
    /// noise, a non-positive alpha or ref_distance, or a negative/non-finite
    /// fading σ.
    pub fn validate(&self) -> Result<(), String> {
        self.pattern(Beamwidth::OMNI).validate()?;
        let knobs = [
            ("margin", self.margin, false),
            ("noise", self.noise, false),
            ("alpha", self.alpha, true),
            ("ref_distance", self.ref_distance, true),
            ("fading_sigma", self.fading_sigma, false),
        ];
        for (name, value, positive) in knobs {
            if positive && !(value.is_finite() && value > 0.0) {
                return Err(format!("{name} must be positive and finite, got {value}"));
            }
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        Ok(())
    }

    /// Received power at distance `distance` for pattern gain `gain`
    /// under the clamped power-law path loss.
    pub fn rx_power(&self, gain: f64, distance: f64) -> f64 {
        if gain <= 0.0 {
            return 0.0;
        }
        gain / distance.max(self.ref_distance).powf(self.alpha)
    }
}

impl Default for SinrPhy {
    fn default() -> Self {
        SinrPhy::ideal()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn beam(deg: f64) -> Beamwidth {
        Beamwidth::from_degrees(deg).unwrap()
    }

    #[test]
    fn ideal_pattern_is_the_flat_sector() {
        let p = AntennaPattern::ideal(beam(60.0));
        assert!(p.is_ideal());
        assert_eq!(p.gain(0.0), 1.0);
        assert_eq!(p.gain(beam(60.0).half_radians()), 1.0);
        assert_eq!(p.gain(beam(60.0).half_radians() + 0.01), 0.0);
    }

    #[test]
    fn apex_rule_matches_sector_contains() {
        // A co-located receiver is covered whatever the bearing, exactly
        // as Sector::contains accepts d² ≤ EPSILON unconditionally.
        let p = AntennaPattern::ideal(beam(10.0));
        assert_eq!(p.tx_gain(std::f64::consts::PI, EPSILON), 1.0);
        assert_eq!(p.tx_gain(std::f64::consts::PI, EPSILON * 1.01), 0.0);
    }

    #[test]
    fn rolloff_tapers_continuously_to_the_floor() {
        let p = AntennaPattern {
            beamwidth: beam(90.0),
            main_gain: 1.0,
            side_floor: 0.1,
            rolloff: 2.0,
        };
        let half = beam(90.0).half_radians();
        assert_eq!(p.gain(0.0), 1.0);
        let edge = p.gain(half);
        assert!((edge - 0.1).abs() < 1e-9, "edge gain {edge} != floor");
        // Strictly decreasing along the lobe.
        let mut last = p.gain(0.0);
        for i in 1..=10 {
            let g = p.gain(half * i as f64 / 10.0);
            assert!(g <= last + 1e-12, "taper not monotone at step {i}");
            last = g;
        }
    }

    #[test]
    fn gain_is_monotone_in_side_floor() {
        for rolloff in [0.0, 1.0, 3.0] {
            for sep_steps in 0..=20 {
                let sep = std::f64::consts::PI * sep_steps as f64 / 20.0;
                let mut last = -1.0;
                for floor in [0.0, 0.05, 0.2, 0.5, 1.0] {
                    let p = AntennaPattern {
                        beamwidth: beam(60.0),
                        main_gain: 1.0,
                        side_floor: floor,
                        rolloff,
                    };
                    let g = p.gain(sep);
                    assert!(
                        g >= last - 1e-12,
                        "gain not monotone in floor at sep={sep}, rolloff={rolloff}"
                    );
                    last = g;
                }
            }
        }
    }

    #[test]
    fn omni_aperture_with_zero_rolloff_is_isotropic() {
        let p = AntennaPattern::ideal(Beamwidth::OMNI);
        for i in 0..=16 {
            let sep = std::f64::consts::PI * i as f64 / 16.0;
            assert_eq!(p.gain(sep), 1.0, "360° flat lobe must be isotropic");
        }
    }

    #[test]
    fn rx_power_clamps_near_field() {
        let phy = SinrPhy::ideal();
        let near = phy.rx_power(1.0, 0.0);
        assert!(near.is_finite() && near > 0.0);
        assert_eq!(near, phy.rx_power(1.0, phy.ref_distance));
        // Inverse-square beyond the clamp.
        let p1 = phy.rx_power(1.0, 0.5);
        let p2 = phy.rx_power(1.0, 1.0);
        assert!((p1 / p2 - 4.0).abs() < 1e-9);
        assert_eq!(phy.rx_power(0.0, 0.5), 0.0);
    }

    #[test]
    fn builders_compose() {
        let phy = SinrPhy::ideal()
            .with_side_floor(0.05)
            .with_rolloff(1.5)
            .with_margin(0.1)
            .with_noise(1e-4)
            .with_fading_sigma(0.3);
        assert_eq!(phy.validate(), Ok(()));
        assert!(!phy.is_ideal_pattern());
        let pat = phy.pattern(beam(45.0));
        assert_eq!(pat.side_floor, 0.05);
        assert_eq!(pat.rolloff, 1.5);
    }

    #[test]
    #[should_panic(expected = "side_floor")]
    fn floor_above_main_gain_rejected() {
        AntennaPattern {
            beamwidth: beam(60.0),
            main_gain: 1.0,
            side_floor: 1.5,
            rolloff: 0.0,
        }
        .validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn negative_margin_rejected() {
        SinrPhy::ideal().with_margin(-1.0).validate().unwrap();
    }
}
