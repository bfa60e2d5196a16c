//! The normalized interference areas of Section 2 of the paper.
//!
//! All quantities here follow the paper's normalization: distances are
//! normalized to the transmission range (`R = 1`) and areas to the disk area
//! (`πR²`). The sender `x` and receiver `y` are `r ∈ (0, 1]` apart, and θ is
//! the antenna beamwidth.
//!
//! The paper's closed forms for the beam-sector areas `S_II` and `S_III`
//! (Eq. 4) are small-angle approximations (a sector minus an inscribed
//! triangle with `tan(θ/2)`): they go negative, or exceed the region they
//! partition, as θ approaches 180°. Following the shapes of the paper's own
//! numerical curves we clamp every area into `[0, total]`; the ablation
//! experiment E7 quantifies the effect of the clamp.

use crate::circle::q;

/// The hidden area `B(r)` normalized by `πR²`:
/// `1 − (2/π)·q(r/2)`, with `R = 1`.
///
/// # Panics
///
/// Panics if `r` is outside `[0, 2]`.
///
/// # Example
///
/// ```
/// // At r = 0 nothing is hidden; at r = 1 about 61% of the receiver's disk is.
/// let b0 = dirca_geometry::paper::hidden_area_norm(0.0);
/// let b1 = dirca_geometry::paper::hidden_area_norm(1.0);
/// assert!(b0.abs() < 1e-12);
/// assert!(b1 > 0.6 && b1 < 0.62);
/// ```
pub fn hidden_area_norm(r: f64) -> f64 {
    assert!((0.0..=2.0).contains(&r), "r must be in [0, 2], got {r}");
    1.0 - 2.0 * q(r / 2.0) / std::f64::consts::PI
}

/// The five normalized areas of Fig. 3 (DRTS-DCTS scheme).
///
/// * `s1` — Area I: the part of the sender's beam near the receiver whose
///   nodes do not know `x` is transmitting (one vulnerable slot).
/// * `s2` — Area II: the rest of the sender's beam toward `y` inside `y`'s
///   range (vulnerable for `2·l_rts` directional slots plus one omni slot).
/// * `s3` — Area III: the lens region covering both `x` and `y` outside the
///   beam (vulnerable directionally for the whole handshake).
/// * `s4` — Area IV: hidden from `x`, covering `y` (vulnerable while `y`
///   transmits CTS and ACK).
/// * `s5` — Area V: hidden from `y`, covering `x` (vulnerable while `x`
///   transmits RTS and DATA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrtsDctsAreas {
    /// Area I (normalized to πR²).
    pub s1: f64,
    /// Area II (normalized to πR²).
    pub s2: f64,
    /// Area III (normalized to πR²).
    pub s3: f64,
    /// Area IV (normalized to πR²).
    pub s4: f64,
    /// Area V (normalized to πR²).
    pub s5: f64,
}

/// Computes the DRTS-DCTS interference areas for sender-receiver distance
/// `r` (normalized to `R`) and beamwidth `theta` (radians).
///
/// Eq. 4 of the paper, with each area clamped to be non-negative (see module
/// docs).
///
/// # Panics
///
/// Panics if `r` is outside `(0, 1]` or `theta` outside `(0, 2π]`.
///
/// # Example
///
/// ```
/// use dirca_geometry::paper::drts_dcts_areas;
///
/// let a = drts_dcts_areas(0.5, 30f64.to_radians());
/// // The beam covers θ/2π of the plane disk.
/// assert!((a.s1 - 30.0 / 360.0).abs() < 1e-12);
/// assert!(a.s2 >= 0.0 && a.s3 >= 0.0);
/// ```
pub fn drts_dcts_areas(r: f64, theta: f64) -> DrtsDctsAreas {
    validate_r_theta(r, theta);
    let tau = std::f64::consts::TAU;
    let pi = std::f64::consts::PI;
    let qq = q(r / 2.0);
    // tan(θ/2) blows up at θ = π and goes negative beyond; the clamps keep
    // the approximation inside the physically meaningful range.
    let tri = (r * r * (theta / 2.0).tan() / tau).max(0.0);
    let s1 = theta / tau;
    let s2 = (theta / tau - tri).clamp(0.0, 1.0);
    let s3 = (2.0 * qq / pi - theta / pi + tri).clamp(0.0, 2.0 * qq / pi);
    let s4 = 1.0 - 2.0 * qq / pi;
    let s5 = s4;
    DrtsDctsAreas { s1, s2, s3, s4, s5 }
}

/// The three normalized areas of Fig. 4 (DRTS-OCTS scheme).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrtsOctsAreas {
    /// Area I: the sender's beam sector, `θ/2π`.
    pub s1: f64,
    /// Area II: the remainder of the neighborhood, `1 − θ/2π`.
    pub s2: f64,
    /// Area III: the hidden area, `1 − (2/π)·q(r/2)` (Area IV of Fig. 3).
    pub s3: f64,
}

/// Computes the DRTS-OCTS interference areas for distance `r` and beamwidth
/// `theta` (radians), per Section 2.3 of the paper.
///
/// # Panics
///
/// Panics if `r` is outside `(0, 1]` or `theta` outside `(0, 2π]`.
pub fn drts_octs_areas(r: f64, theta: f64) -> DrtsOctsAreas {
    validate_r_theta(r, theta);
    let tau = std::f64::consts::TAU;
    DrtsOctsAreas {
        s1: theta / tau,
        s2: 1.0 - theta / tau,
        s3: hidden_area_norm(r),
    }
}

fn validate_r_theta(r: f64, theta: f64) {
    assert!(
        r > 0.0 && r <= 1.0,
        "normalized distance r must be in (0, 1], got {r}"
    );
    assert!(
        theta > 0.0 && theta <= std::f64::consts::TAU + 1e-12,
        "beamwidth must be in (0, 2π], got {theta}"
    );
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn hidden_area_norm_monotone_increasing() {
        let mut prev = hidden_area_norm(0.0);
        for i in 1..=100 {
            let r = i as f64 / 50.0;
            let cur = hidden_area_norm(r);
            assert!(cur >= prev - 1e-12, "not increasing at r={r}");
            prev = cur;
        }
        assert!((hidden_area_norm(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drts_dcts_areas_nonnegative_across_sweep() {
        for theta_deg in (15..=180).step_by(15) {
            let theta = f64::from(theta_deg).to_radians();
            for i in 1..=20 {
                let r = i as f64 / 20.0;
                let a = drts_dcts_areas(r, theta);
                for (name, v) in [
                    ("s1", a.s1),
                    ("s2", a.s2),
                    ("s3", a.s3),
                    ("s4", a.s4),
                    ("s5", a.s5),
                ] {
                    assert!(
                        v >= 0.0 && v.is_finite(),
                        "{name} negative/non-finite at θ={theta_deg}°, r={r}: {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn drts_dcts_s1_is_beam_fraction() {
        let a = drts_dcts_areas(0.7, PI / 6.0);
        assert!((a.s1 - (PI / 6.0) / (2.0 * PI)).abs() < 1e-12);
    }

    #[test]
    fn drts_dcts_s4_equals_s5_equals_hidden() {
        let a = drts_dcts_areas(0.6, PI / 4.0);
        assert_eq!(a.s4, a.s5);
        assert!((a.s4 - hidden_area_norm(0.6)).abs() < 1e-12);
    }

    #[test]
    fn drts_dcts_narrow_beam_small_r_matches_raw_formula() {
        // For narrow beams and small r the clamps must be inactive, i.e. we
        // reproduce Eq. 4 exactly.
        let theta = (30f64).to_radians();
        let r = 0.3;
        let tau = std::f64::consts::TAU;
        let a = drts_dcts_areas(r, theta);
        let tri = r * r * (theta / 2.0).tan() / tau;
        assert!((a.s2 - (theta / tau - tri)).abs() < 1e-12);
        assert!((a.s3 - (2.0 * q(r / 2.0) / PI - theta / PI + tri)).abs() < 1e-12);
    }

    #[test]
    fn drts_octs_areas_partition_and_match() {
        let theta = (90f64).to_radians();
        let a = drts_octs_areas(0.5, theta);
        assert!((a.s1 + a.s2 - 1.0).abs() < 1e-12);
        assert!((a.s3 - hidden_area_norm(0.5)).abs() < 1e-12);
    }

    #[test]
    fn unclamped_areas_satisfy_lens_identity() {
        // Where the paper's approximations are valid (narrow beams), the
        // pieces must tile known regions: S_II + S_III equals the lens of
        // the two unit disks minus the beam's share θ/2π of the plane
        // disk, because Areas II and III partition the lens between
        // "inside the beam" and "outside the beam".
        for theta_deg in [5.0f64, 15.0, 30.0] {
            let theta = theta_deg.to_radians();
            for i in 1..=10 {
                let r = i as f64 / 10.0;
                let a = drts_dcts_areas(r, theta);
                let lens_norm = 2.0 * q(r / 2.0) / PI;
                let lhs = a.s2 + a.s3;
                let rhs = lens_norm - theta / (2.0 * PI);
                assert!(
                    (lhs - rhs).abs() < 1e-12,
                    "identity broken at θ={theta_deg}°, r={r}: {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn wide_beam_does_not_explode() {
        // θ = 180° makes tan(θ/2) astronomically large; the clamps must keep
        // every area finite and inside [0, 1].
        let a = drts_dcts_areas(1.0, PI);
        for v in [a.s1, a.s2, a.s3, a.s4, a.s5] {
            assert!((0.0..=1.0).contains(&v), "area out of [0,1]: {v}");
        }
    }

    #[test]
    #[should_panic(expected = "normalized distance")]
    fn rejects_r_zero() {
        let _ = drts_dcts_areas(0.0, PI / 6.0);
    }

    #[test]
    #[should_panic(expected = "beamwidth")]
    fn rejects_theta_zero() {
        let _ = drts_octs_areas(0.5, 0.0);
    }
}
