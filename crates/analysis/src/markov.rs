//! The three-state node Markov chain (Fig. 1 of the paper).

/// Inputs to the chain: transition probabilities and state durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainInput {
    /// Probability of staying in *wait* for another slot.
    pub p_ww: f64,
    /// Probability of moving from *wait* to *succeed*.
    pub p_ws: f64,
    /// Duration of a successful handshake, in slots.
    pub t_succeed: f64,
    /// Mean duration of a failed handshake, in slots.
    pub t_fail: f64,
    /// Data packet length, in slots.
    pub l_data: f64,
}

/// Steady-state occupation probabilities of the chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// π_w — probability of the *wait* state.
    pub wait: f64,
    /// π_s — probability of the *succeed* state.
    pub succeed: f64,
    /// π_f — probability of the *fail* state.
    pub fail: f64,
}

/// Solves the chain: `π_w = 1/(2 − P_ww)`, `π_s = π_w·P_ws`,
/// `π_f = 1 − π_w − π_s`.
///
/// # Panics
///
/// Panics if the probabilities are outside `[0, 1]` or `p_ws > 1 − p_ww`
/// (the *wait* state's exits cannot exceed its non-self mass), and with an
/// `audit[markov]:` message if the solution fails the [`audit`] checks.
pub fn steady_state(input: &ChainInput) -> SteadyState {
    assert!(
        (0.0..=1.0).contains(&input.p_ww) && (0.0..=1.0).contains(&input.p_ws),
        "transition probabilities must be in [0, 1]"
    );
    assert!(
        input.p_ws <= 1.0 - input.p_ww + 1e-12,
        "p_ws {} exceeds available transition mass 1 - p_ww {}",
        input.p_ws,
        1.0 - input.p_ww
    );
    let wait = 1.0 / (2.0 - input.p_ww);
    let succeed = wait * input.p_ws;
    let fail = (1.0 - wait - succeed).max(0.0);
    let ss = SteadyState {
        wait,
        succeed,
        fail,
    };
    audit::assert_stochastic(&audit::transition_matrix(input));
    audit::assert_fixed_point(input, &ss);
    ss
}

/// The paper's throughput formula: time in successful data transmission
/// over total time, weighting each state by its duration.
///
/// # Panics
///
/// Panics on invalid chain inputs (see [`steady_state`]) or non-positive
/// durations.
pub fn throughput_from_chain(input: &ChainInput) -> f64 {
    assert!(
        input.t_succeed > 0.0 && input.t_fail > 0.0 && input.l_data > 0.0,
        "durations must be positive"
    );
    let ss = steady_state(input);
    let denom = ss.wait + ss.succeed * input.t_succeed + ss.fail * input.t_fail;
    input.l_data * ss.succeed / denom
}

/// Stochastic-matrix auditing for the chain: panics with `audit[markov]:`
/// messages when the transition matrix is not row-stochastic or a claimed
/// steady state is not a fixed point of it. [`steady_state`] runs both
/// checks on every solve.
pub mod audit {
    use super::{ChainInput, SteadyState};

    /// Numerical slack for probability arithmetic.
    const EPS: f64 = 1e-9;

    /// The explicit transition matrix of the wait/succeed/fail chain, rows
    /// in that state order: *wait* self-loops with `p_ww` and exits to
    /// *succeed*/*fail*; both transmission states return to *wait*.
    pub fn transition_matrix(input: &ChainInput) -> [[f64; 3]; 3] {
        [
            [input.p_ww, input.p_ws, 1.0 - input.p_ww - input.p_ws],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]
    }

    /// Panics unless every row of `matrix` is a probability distribution
    /// (entries in `[0, 1]`, summing to 1, within numerical slack).
    pub fn assert_stochastic(matrix: &[[f64; 3]; 3]) {
        for (i, row) in matrix.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                assert!(
                    (-EPS..=1.0 + EPS).contains(&p) && p.is_finite(),
                    "audit[markov]: transition probability P[{i}][{j}] = {p} outside [0, 1]"
                );
            }
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() <= EPS,
                "audit[markov]: row {i} sums to {sum}, not 1 — matrix is not stochastic"
            );
        }
    }

    /// Panics unless `ss` is a normalized fixed point of the chain's
    /// transition matrix: `π P = π` and `Σ π = 1` (within numerical slack).
    pub fn assert_fixed_point(input: &ChainInput, ss: &SteadyState) {
        let m = transition_matrix(input);
        let pi = [ss.wait, ss.succeed, ss.fail];
        let total: f64 = pi.iter().sum();
        assert!(
            (total - 1.0).abs() <= EPS,
            "audit[markov]: steady state sums to {total}, not 1"
        );
        for (j, &p_j) in pi.iter().enumerate() {
            let next: f64 = (0..3).map(|i| pi[i] * m[i][j]).sum();
            assert!(
                (next - p_j).abs() <= EPS,
                "audit[markov]: steady state is not a fixed point: (πP)[{j}] = {next} but \
                 π[{j}] = {p_j}"
            );
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn chain(p_ww: f64, p_ws: f64) -> ChainInput {
        ChainInput {
            p_ww,
            p_ws,
            t_succeed: 119.0,
            t_fail: 12.0,
            l_data: 100.0,
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let ss = steady_state(&chain(0.9, 0.05));
        assert!((ss.wait + ss.succeed + ss.fail - 1.0).abs() < 1e-12);
        assert!(ss.wait > 0.0 && ss.succeed > 0.0 && ss.fail >= 0.0);
    }

    #[test]
    fn no_transmissions_means_all_wait() {
        // p_ww = 1: the node never leaves wait.
        let ss = steady_state(&chain(1.0, 0.0));
        assert!((ss.wait - 1.0).abs() < 1e-12);
        assert_eq!(ss.succeed, 0.0);
    }

    #[test]
    fn always_succeed_splits_between_wait_and_succeed() {
        // Every attempt succeeds: p_ws = 1 - p_ww.
        let ss = steady_state(&chain(0.8, 0.2));
        assert!(ss.fail.abs() < 1e-12);
        assert!((ss.wait - 1.0 / 1.2).abs() < 1e-12);
    }

    #[test]
    fn throughput_increases_with_success_probability() {
        let low = throughput_from_chain(&chain(0.9, 0.01));
        let high = throughput_from_chain(&chain(0.9, 0.05));
        assert!(high > low);
    }

    #[test]
    fn throughput_bounded_by_data_fraction() {
        // Even a node that always succeeds spends T_s slots per l_data.
        let th = throughput_from_chain(&chain(0.5, 0.5));
        assert!(th <= 100.0 / 119.0 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "transition mass")]
    fn rejects_overfull_exits() {
        let _ = steady_state(&chain(0.9, 0.5));
    }

    #[test]
    #[should_panic(expected = "durations must be positive")]
    fn rejects_zero_durations() {
        let mut c = chain(0.9, 0.05);
        c.t_fail = 0.0;
        let _ = throughput_from_chain(&c);
    }
}
