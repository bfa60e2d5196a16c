//! §2.3 — the hybrid DRTS-OCTS scheme (directional RTS/DATA/ACK, omni
//! CTS).

use dirca_geometry::paper::drts_octs_areas;

use crate::integrate::simpson;
use crate::markov::{throughput_from_chain, ChainInput};
use crate::model::{validate_p, ModelInput};
use crate::orts_octs::PANELS;
use crate::tgeom::truncated_geometric_mean;

/// `P_I(r)` for DRTS-OCTS: the three regions of Fig. 4.
///
/// 1. Area I (the sender's beam): silent for one slot, `e^{−p·S₁·N}`.
/// 2. Area II (the rest of the disk): silent toward the pair for `2·l_rts`
///    directional slots plus one omni slot.
/// 3. Area III (hidden from the sender): silent toward `x` while `y` sends
///    CTS and ACK — the omni CTS silences these nodes for the data phase,
///    leaving only the CTS/ACK windows vulnerable.
pub fn p_interference_free(input: &ModelInput, p: f64, r: f64) -> f64 {
    validate_p(p);
    let t = &input.times;
    let n = input.n_avg;
    let pd = input.p_directional(p);
    let a = drts_octs_areas(r, input.theta);
    let w2 = f64::from(2 * t.l_rts);
    let w3 = f64::from(2 * t.l_rts + t.l_cts + t.l_ack + 2);
    let p1 = (-p * a.s1 * n).exp();
    let p2 = (-pd * a.s2 * n * w2).exp() * (-p * a.s2 * n).exp();
    let p3 = (-pd * a.s3 * n * w3).exp();
    p1 * p2 * p3
}

/// `P_ws(r) = p·(1−p)·P_I(r)`.
pub fn p_ws_at(input: &ModelInput, p: f64, r: f64) -> f64 {
    p * (1.0 - p) * p_interference_free(input, p, r)
}

/// `P_ws` averaged over the receiver distance with density `f(r) = 2r`.
pub fn p_ws(input: &ModelInput, p: f64) -> f64 {
    validate_p(p);
    simpson(0.0, 1.0, PANELS, |r| {
        if r <= 0.0 {
            // The integration variable is non-negative: exact origin guard.
            0.0
        } else {
            2.0 * r * p_ws_at(input, p, r)
        }
    })
}

/// `P_ww = (1−p)·e^{−pN}` — as in ORTS-OCTS: nearly every handshake,
/// successful or not, includes an omni-directional CTS that silences the
/// whole neighbourhood, so a waiting node is disturbed at the omni rate.
pub fn p_ww(input: &ModelInput, p: f64) -> f64 {
    validate_p(p);
    (1.0 - p) * (-p * input.n_avg).exp()
}

/// Mean failed-handshake duration: truncated geometric on
/// `[l_rts + l_cts + 2, T_succeed]`. The lower bound is higher than in
/// DRTS-DCTS to account for the omni CTS that is transmitted (and can
/// collide with ongoing traffic) even when the handshake eventually fails.
pub fn t_fail(input: &ModelInput, p: f64) -> f64 {
    let t1 = input.times.l_rts + input.times.l_cts + 2;
    let t2 = input.times.l_rts + input.times.l_cts + input.times.l_data + input.times.l_ack + 4;
    truncated_geometric_mean(p, t1, t2)
}

/// Saturation throughput of DRTS-OCTS at attempt probability `p`.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
///
/// # Example
///
/// ```
/// use dirca_analysis::{drts_octs, ModelInput, ProtocolTimes};
///
/// let input = ModelInput::new(ProtocolTimes::paper(), 5.0, 30f64.to_radians());
/// let th = drts_octs::throughput(&input, 0.02);
/// assert!(th > 0.0 && th < 1.0);
/// ```
pub fn throughput(input: &ModelInput, p: f64) -> f64 {
    let chain = ChainInput {
        p_ww: p_ww(input, p),
        p_ws: p_ws(input, p),
        t_succeed: input.times.t_succeed(),
        t_fail: t_fail(input, p),
        l_data: f64::from(input.times.l_data),
    };
    throughput_from_chain(&chain)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use crate::model::ProtocolTimes;

    fn input(theta_deg: f64) -> ModelInput {
        ModelInput::new(ProtocolTimes::paper(), 5.0, theta_deg.to_radians())
    }

    #[test]
    fn interference_free_probability_valid() {
        for theta in [15.0, 90.0, 180.0] {
            let inp = input(theta);
            for &r in &[0.1, 0.5, 1.0] {
                let pi = p_interference_free(&inp, 0.02, r);
                assert!((0.0..=1.0).contains(&pi), "θ={theta} r={r}: {pi}");
            }
        }
    }

    #[test]
    fn success_beats_omni_scheme_at_narrow_beams() {
        let inp = input(15.0);
        assert!(p_ws(&inp, 0.02) > crate::orts_octs::p_ws(&inp, 0.02));
    }

    #[test]
    fn loses_to_all_directional_scheme_at_narrow_beams() {
        // The omni CTS wins back protection for the data phase (its raw
        // P_ws can even exceed DRTS-DCTS's), but it silences the whole
        // neighbourhood: P_ww matches the omni scheme and the lost spatial
        // reuse dominates. At each scheme's optimal p, DRTS-DCTS wins for
        // narrow beams.
        let inp = input(15.0);
        let hybrid = crate::optimize::max_throughput(dirca_mac::Scheme::DrtsOcts, &inp);
        let full = crate::optimize::max_throughput(dirca_mac::Scheme::DrtsDcts, &inp);
        assert!(
            full.throughput > hybrid.throughput,
            "full {} <= hybrid {}",
            full.throughput,
            hybrid.throughput
        );
    }

    #[test]
    fn p_ww_matches_omni_scheme() {
        let inp = input(30.0);
        assert_eq!(p_ww(&inp, 0.03), crate::orts_octs::p_ww(&inp, 0.03));
    }

    #[test]
    fn t_fail_lower_bound_exceeds_drts_dcts() {
        let inp = input(30.0);
        assert!(t_fail(&inp, 0.001) > crate::drts_dcts::t_fail(&inp, 0.001));
    }

    #[test]
    fn throughput_has_interior_maximum_in_p() {
        let inp = input(30.0);
        let low = throughput(&inp, 0.0005);
        let mid = throughput(&inp, 0.02);
        let high = throughput(&inp, 0.4);
        assert!(mid > low && mid > high);
    }

    #[test]
    fn marginal_improvement_over_omni_at_optimal_p() {
        // The paper's headline: DRTS-OCTS only slightly outperforms
        // ORTS-OCTS. Compare at a moderate shared p.
        let inp = input(30.0);
        let hybrid = throughput(&inp, 0.02);
        let omni = crate::orts_octs::throughput(&inp, 0.02);
        assert!(hybrid > omni, "hybrid {hybrid} <= omni {omni}");
        assert!(
            hybrid < 2.0 * omni,
            "improvement should be modest: {hybrid} vs {omni}"
        );
    }
}
