//! §2.1 — the all-omni-directional ORTS-OCTS scheme.

use dirca_geometry::paper::hidden_area_norm;

use crate::integrate::simpson;
use crate::markov::{throughput_from_chain, ChainInput};
use crate::model::{validate_p, ModelInput};

/// Number of Simpson panels used to integrate over the sender–receiver
/// distance.
pub(crate) const PANELS: usize = 512;

/// `P_ws(r)`: probability that a node at distance `r` (normalized to `R`)
/// from its receiver completes a successful handshake started in this slot.
///
/// `P_ws(r) = p·(1−p)·e^{−pN}·e^{−p·N·B(r)·(2·l_rts+1)}` where `B(r)` is
/// the normalized hidden area. The four factors are: the sender transmits;
/// the receiver listens; no neighbour of the sender transmits in the same
/// slot; no hidden terminal transmits during the RTS's vulnerable period
/// (after which the omni CTS silences everyone).
pub fn p_ws_at(input: &ModelInput, p: f64, r: f64) -> f64 {
    validate_p(p);
    let n = input.n_avg;
    let vulnerable = f64::from(2 * input.times.l_rts + 1);
    p * (1.0 - p) * (-p * n).exp() * (-p * n * hidden_area_norm(r) * vulnerable).exp()
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

/// `P_ww = (1−p)·e^{−pN}`: the node neither transmits nor hears any
/// neighbour start.
pub fn p_ww(input: &ModelInput, p: f64) -> f64 {
    validate_p(p);
    (1.0 - p) * (-p * input.n_avg).exp()
}

/// Duration of a failed handshake: `l_rts + l_cts + 2` slots (the sender
/// learns of the failure when no CTS arrives).
pub fn t_fail(input: &ModelInput) -> f64 {
    f64::from(input.times.l_rts + input.times.l_cts + 2)
}

/// Saturation throughput of ORTS-OCTS at attempt probability `p`.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
///
/// # Example
///
/// ```
/// use dirca_analysis::{orts_octs, ModelInput, ProtocolTimes};
///
/// let input = ModelInput::new(ProtocolTimes::paper(), 5.0, 1.0);
/// let th = orts_octs::throughput(&input, 0.01);
/// assert!(th > 0.0 && th < 1.0);
/// ```
pub fn throughput(input: &ModelInput, p: f64) -> f64 {
    let chain = ChainInput {
        p_ww: p_ww(input, p),
        p_ws: p_ws(input, p),
        t_succeed: input.times.t_succeed(),
        t_fail: t_fail(input),
        l_data: f64::from(input.times.l_data),
    };
    throughput_from_chain(&chain)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use crate::model::ProtocolTimes;

    fn input() -> ModelInput {
        ModelInput::new(ProtocolTimes::paper(), 5.0, 1.0)
    }

    #[test]
    fn p_ws_below_transmit_probability() {
        let inp = input();
        for &p in &[0.01, 0.05, 0.1] {
            let pws = p_ws(&inp, p);
            assert!(pws > 0.0 && pws < p, "p={p}: P_ws={pws}");
        }
    }

    #[test]
    fn p_ws_at_decreases_with_distance() {
        // Farther receivers expose more hidden area.
        let inp = input();
        let near = p_ws_at(&inp, 0.02, 0.1);
        let far = p_ws_at(&inp, 0.02, 0.9);
        assert!(near > far);
    }

    #[test]
    fn throughput_is_independent_of_theta() {
        let a = throughput(&ModelInput::new(ProtocolTimes::paper(), 5.0, 0.3), 0.02);
        let b = throughput(&ModelInput::new(ProtocolTimes::paper(), 5.0, 3.0), 0.02);
        assert_eq!(a, b);
    }

    #[test]
    fn throughput_has_interior_maximum_in_p() {
        // Tiny p wastes the channel idle; large p wastes it on collisions.
        let inp = input();
        let low = throughput(&inp, 0.0005);
        let mid = throughput(&inp, 0.02);
        let high = throughput(&inp, 0.4);
        assert!(mid > low, "mid {mid} <= low {low}");
        assert!(mid > high, "mid {mid} <= high {high}");
    }

    #[test]
    fn denser_networks_have_lower_throughput_at_fixed_p() {
        let sparse = throughput(&ModelInput::new(ProtocolTimes::paper(), 3.0, 1.0), 0.02);
        let dense = throughput(&ModelInput::new(ProtocolTimes::paper(), 8.0, 1.0), 0.02);
        assert!(sparse > dense);
    }

    #[test]
    fn t_fail_value() {
        assert_eq!(t_fail(&input()), 12.0);
    }

    #[test]
    fn p_ww_limits() {
        let inp = input();
        // p → 0: the node is almost surely still waiting.
        assert!(p_ww(&inp, 1e-9) > 0.9999);
        // Large p: waiting is unlikely.
        assert!(p_ww(&inp, 0.5) < 0.1);
    }
}
