//! Model inputs.

/// Packet lengths in slots (the paper normalizes all packet durations to
/// the slot length τ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolTimes {
    /// RTS duration in slots.
    pub l_rts: u32,
    /// CTS duration in slots.
    pub l_cts: u32,
    /// Data duration in slots.
    pub l_data: u32,
    /// ACK duration in slots.
    pub l_ack: u32,
}

impl ProtocolTimes {
    /// The configuration of the paper's §3 numerical results:
    /// `l_rts = l_cts = l_ack = 5τ`, `l_data = 100τ`.
    pub fn paper() -> Self {
        ProtocolTimes {
            l_rts: 5,
            l_cts: 5,
            l_data: 100,
            l_ack: 5,
        }
    }

    /// Duration of a successful four-way handshake in slots:
    /// `l_rts + l_cts + l_data + l_ack + 4` (one propagation slot after
    /// each packet).
    pub fn t_succeed(&self) -> f64 {
        f64::from(self.l_rts + self.l_cts + self.l_data + self.l_ack + 4)
    }
}

impl Default for ProtocolTimes {
    fn default() -> Self {
        Self::paper()
    }
}

/// Input to the per-scheme throughput formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelInput {
    /// Packet lengths in slots.
    pub times: ProtocolTimes,
    /// Average number of neighbours `N = λπR²`.
    pub n_avg: f64,
    /// Antenna beamwidth θ in radians (ignored by ORTS-OCTS).
    pub theta: f64,
}

impl ModelInput {
    /// Creates a model input.
    ///
    /// # Panics
    ///
    /// Panics unless `n_avg > 0` and `0 < theta <= 2π`.
    pub fn new(times: ProtocolTimes, n_avg: f64, theta: f64) -> Self {
        assert!(
            n_avg.is_finite() && n_avg > 0.0,
            "n_avg must be positive, got {n_avg}"
        );
        assert!(
            theta.is_finite() && theta > 0.0 && theta <= std::f64::consts::TAU + 1e-12,
            "theta must be in (0, 2π], got {theta}"
        );
        ModelInput {
            times,
            n_avg,
            theta,
        }
    }

    /// The directional attempt probability `p' = p·θ/2π`: the chance that
    /// a transmission by a random neighbour points at a given victim.
    pub fn p_directional(&self, p: f64) -> f64 {
        p * self.theta / std::f64::consts::TAU
    }
}

/// Validates an attempt probability.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub(crate) fn validate_p(p: f64) {
    assert!(
        p.is_finite() && p > 0.0 && p < 1.0,
        "attempt probability p must be in (0, 1), got {p}"
    );
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    #[test]
    fn paper_times() {
        let t = ProtocolTimes::paper();
        assert_eq!((t.l_rts, t.l_cts, t.l_data, t.l_ack), (5, 5, 100, 5));
        assert_eq!(t.t_succeed(), 119.0);
        assert_eq!(ProtocolTimes::default(), t);
    }

    #[test]
    fn p_directional_scales_with_beam() {
        let inp = ModelInput::new(ProtocolTimes::paper(), 5.0, std::f64::consts::PI);
        assert!((inp.p_directional(0.1) - 0.05).abs() < 1e-12);
        let omni = ModelInput::new(ProtocolTimes::paper(), 5.0, std::f64::consts::TAU);
        assert!((omni.p_directional(0.1) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "n_avg must be positive")]
    fn rejects_zero_density() {
        let _ = ModelInput::new(ProtocolTimes::paper(), 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn rejects_bad_theta() {
        let _ = ModelInput::new(ProtocolTimes::paper(), 5.0, 7.0);
    }

    #[test]
    #[should_panic(expected = "attempt probability")]
    fn rejects_bad_p() {
        validate_p(1.0);
    }
}
