//! Basic access (no RTS/CTS) in the paper's modeling framework — our
//! extension, used to quantify when the four-way handshake pays off.
//!
//! Derivation, mirroring §2.1 exactly but without the handshake: the
//! sender transmits the data frame directly. Its own neighbours sense the
//! transmission after one slot (CSMA), so they interfere only if they
//! start in the same slot (`e^{−pN}`, as for the RTS). Hidden terminals in
//! `B(r)`, however, can destroy the frame at any point of its reception:
//! the vulnerable window is `2·l_data + 1` slots instead of the RTS's
//! `2·l_rts + 1` — this is exactly the classic hidden-terminal exposure
//! that RTS/CTS exists to shrink. Failures cost a full data transmission
//! plus the ACK timeout.

use dirca_geometry::paper::hidden_area_norm;

use crate::integrate::simpson;
use crate::markov::{throughput_from_chain, ChainInput};
use crate::model::{validate_p, ModelInput};
use crate::orts_octs::PANELS;

/// `P_ws(r)` for basic access:
/// `p·(1−p)·e^{−pN}·e^{−p·N·B(r)·(2·l_data+1)}`.
pub fn p_ws_at(input: &ModelInput, p: f64, r: f64) -> f64 {
    validate_p(p);
    let n = input.n_avg;
    let vulnerable = f64::from(2 * input.times.l_data + 1);
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

/// `P_ww` is the omni value `(1−p)·e^{−pN}` — all transmissions are heard
/// by every neighbour.
pub fn p_ww(input: &ModelInput, p: f64) -> f64 {
    crate::orts_octs::p_ww(input, p)
}

/// Duration of a successful exchange: `l_data + l_ack + 2` slots.
pub fn t_succeed(input: &ModelInput) -> f64 {
    f64::from(input.times.l_data + input.times.l_ack + 2)
}

/// Duration of a failed exchange: the whole data frame plus the ACK wait,
/// `l_data + l_ack + 2` slots — failure costs as much as success, which is
/// the whole problem with unprotected long frames.
pub fn t_fail(input: &ModelInput) -> f64 {
    t_succeed(input)
}

/// Saturation throughput of basic access at attempt probability `p`.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
///
/// # Example
///
/// ```
/// use dirca_analysis::{basic, orts_octs, optimize, ModelInput, ProtocolTimes};
///
/// // At the paper's 100-slot data length, the handshake wins easily.
/// let input = ModelInput::new(ProtocolTimes::paper(), 5.0, 1.0);
/// let basic_best = optimize::maximize(|p| basic::throughput(&input, p));
/// let rts_best = optimize::maximize(|p| orts_octs::throughput(&input, p));
/// assert!(rts_best.throughput > basic_best.throughput);
/// ```
pub fn throughput(input: &ModelInput, p: f64) -> f64 {
    let chain = ChainInput {
        p_ww: p_ww(input, p),
        p_ws: p_ws(input, p),
        t_succeed: t_succeed(input),
        t_fail: t_fail(input),
        l_data: f64::from(input.times.l_data),
    };
    throughput_from_chain(&chain)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use crate::optimize::maximize;
    use crate::ProtocolTimes;

    fn input(l_data: u32) -> ModelInput {
        let times = ProtocolTimes {
            l_data,
            ..ProtocolTimes::paper()
        };
        ModelInput::new(times, 5.0, 1.0)
    }

    #[test]
    fn vulnerable_window_scales_with_data_length() {
        // Longer frames are exponentially more exposed to hidden terminals.
        let p = 0.02;
        let short = p_ws(&input(20), p) / p;
        let long = p_ws(&input(200), p) / p;
        assert!(short > 2.0 * long, "short {short} vs long {long}");
    }

    #[test]
    fn handshake_wins_for_long_data() {
        let inp = input(100);
        let basic_best = maximize(|p| throughput(&inp, p));
        let rts_best = maximize(|p| crate::orts_octs::throughput(&inp, p));
        assert!(
            rts_best.throughput > 1.5 * basic_best.throughput,
            "rts {} vs basic {}",
            rts_best.throughput,
            basic_best.throughput
        );
    }

    #[test]
    fn basic_wins_for_short_data() {
        // With data as short as the control packets, paying four packets
        // of overhead to protect one is a loss.
        let inp = input(5);
        let basic_best = maximize(|p| throughput(&inp, p));
        let rts_best = maximize(|p| crate::orts_octs::throughput(&inp, p));
        assert!(
            basic_best.throughput > rts_best.throughput,
            "basic {} vs rts {}",
            basic_best.throughput,
            rts_best.throughput
        );
    }

    #[test]
    fn success_and_failure_costs_are_equal() {
        let inp = input(100);
        assert_eq!(t_succeed(&inp), t_fail(&inp));
        assert_eq!(t_succeed(&inp), 107.0);
    }

    #[test]
    fn sparse_network_favors_basic_more() {
        // Fewer hidden terminals narrow the gap.
        let times = ProtocolTimes::paper();
        let gap = |n: f64| {
            let inp = ModelInput::new(times, n, 1.0);
            let rts = maximize(|p| crate::orts_octs::throughput(&inp, p)).throughput;
            let basic = maximize(|p| throughput(&inp, p)).throughput;
            rts / basic
        };
        assert!(
            gap(8.0) > gap(2.0),
            "hidden-terminal pressure should widen the gap"
        );
    }

    #[test]
    fn throughput_is_bounded() {
        let inp = input(100);
        for &p in &[0.001, 0.02, 0.2] {
            let th = throughput(&inp, p);
            assert!((0.0..100.0 / 107.0).contains(&th));
        }
    }
}
