//! Ablations of the analytical model's approximations (experiment E7).
//!
//! The paper makes three modeling simplifications that deserve a
//! sensitivity check:
//!
//! 1. **θ′ = θ in Area III** (§2.2): the true angular exposure of a node in
//!    Area III lies between θ and 2θ; the paper picks the optimistic θ.
//! 2. **The `T_fail` lower bound of DRTS-OCTS**: raised from `l_rts + 1`
//!    to `l_rts + l_cts + 2` to penalize omni CTS collisions.
//! 3. **Truncated-geometric `T_fail`** vs. the pessimistic fixed
//!    `T_fail = T_succeed`.

use dirca_geometry::paper::drts_dcts_areas;

use crate::integrate::simpson;
use crate::markov::{throughput_from_chain, ChainInput};
use crate::model::{validate_p, ModelInput};
use crate::optimize::maximize;
use crate::orts_octs::PANELS;
use crate::tgeom::truncated_geometric_mean;

/// Variants of the DRTS-DCTS model being ablated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrtsDctsVariant {
    /// The paper's model (θ′ = θ, truncated-geometric `T_fail`).
    Paper,
    /// Pessimistic Area III exposure: θ′ = 2θ.
    WideAreaThree,
    /// Pessimistic failure duration: every failure costs a full handshake.
    FullLengthFailures,
}

/// DRTS-DCTS throughput under an ablated model variant.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn drts_dcts_variant(variant: DrtsDctsVariant, input: &ModelInput, p: f64) -> f64 {
    validate_p(p);
    let t = &input.times;
    let n = input.n_avg;
    let pd = input.p_directional(p);
    // θ′ multiplier for Area III.
    let pd3 = match variant {
        DrtsDctsVariant::WideAreaThree => (pd * 2.0).min(p),
        _ => pd,
    };
    let w2 = f64::from(2 * t.l_rts);
    let w3 = f64::from(2 * t.l_rts + t.l_cts + t.l_data + t.l_ack + 4);
    let w4 = f64::from(2 * t.l_rts + t.l_cts + t.l_ack + 2);
    let w5 = f64::from(3 * t.l_rts + t.l_data + 2);
    let p_ws = simpson(0.0, 1.0, PANELS, |r| {
        if r <= 0.0 {
            // The integration variable is non-negative: exact origin guard.
            return 0.0;
        }
        let a = drts_dcts_areas(r, input.theta);
        let p1 = (-p * a.s1 * n).exp();
        let p2 = (-pd * a.s2 * n * w2).exp() * (-p * a.s2 * n).exp();
        let p3 = (-pd3 * a.s3 * n * w3).exp();
        let p4 = (-pd * a.s4 * n * w4).exp();
        let p5 = (-pd * a.s5 * n * w5).exp();
        2.0 * r * p * (1.0 - p) * p1 * p2 * p3 * p4 * p5
    });
    let t_succeed = input.times.t_succeed();
    let t_fail = match variant {
        DrtsDctsVariant::FullLengthFailures => t_succeed,
        _ => truncated_geometric_mean(p, t.l_rts + 1, t.l_rts + t.l_cts + t.l_data + t.l_ack + 4),
    };
    throughput_from_chain(&ChainInput {
        p_ww: (1.0 - p) * (-pd * n).exp(),
        p_ws,
        t_succeed,
        t_fail,
        l_data: f64::from(t.l_data),
    })
}

/// One row of the ablation table: optimum throughput of each variant at a
/// beamwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationRow {
    /// Beamwidth in degrees.
    pub theta_degrees: f64,
    /// The paper's model.
    pub paper: f64,
    /// θ′ = 2θ variant.
    pub wide_area_three: f64,
    /// Full-length-failures variant.
    pub full_length_failures: f64,
}

/// Computes the ablation table over `theta_degrees` for density `n_avg`.
pub fn ablation_table(
    times: crate::ProtocolTimes,
    n_avg: f64,
    theta_degrees: &[f64],
) -> Vec<AblationRow> {
    theta_degrees
        .iter()
        .map(|&deg| {
            let input = ModelInput::new(times, n_avg, deg.to_radians());
            let best = |variant| maximize(|p| drts_dcts_variant(variant, &input, p)).throughput;
            AblationRow {
                theta_degrees: deg,
                paper: best(DrtsDctsVariant::Paper),
                wide_area_three: best(DrtsDctsVariant::WideAreaThree),
                full_length_failures: best(DrtsDctsVariant::FullLengthFailures),
            }
        })
        .collect()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use crate::ProtocolTimes;

    fn input(theta_deg: f64) -> ModelInput {
        ModelInput::new(ProtocolTimes::paper(), 5.0, theta_deg.to_radians())
    }

    #[test]
    fn paper_variant_matches_main_model() {
        let inp = input(45.0);
        for &p in &[0.005, 0.02, 0.1] {
            let ablated = drts_dcts_variant(DrtsDctsVariant::Paper, &inp, p);
            let main = crate::drts_dcts::throughput(&inp, p);
            assert!(
                (ablated - main).abs() < 1e-12,
                "paper variant diverged at p={p}"
            );
        }
    }

    #[test]
    fn pessimistic_variants_lower_throughput() {
        let inp = input(45.0);
        let p = 0.02;
        let paper = drts_dcts_variant(DrtsDctsVariant::Paper, &inp, p);
        let wide = drts_dcts_variant(DrtsDctsVariant::WideAreaThree, &inp, p);
        let full = drts_dcts_variant(DrtsDctsVariant::FullLengthFailures, &inp, p);
        assert!(wide <= paper + 1e-12, "wide {wide} > paper {paper}");
        assert!(full < paper, "full {full} >= paper {paper}");
    }

    #[test]
    fn narrow_beam_conclusion_robust_to_ablation() {
        // At the narrowest beam (15°) the paper's conclusion — the
        // all-directional scheme beats the omni scheme — survives both
        // pessimistic model variants (only barely for full-length
        // failures, which is itself informative: cheap failures are a real
        // part of the DRTS-DCTS advantage).
        let inp = input(15.0);
        let omni_best = crate::optimize::max_throughput(dirca_mac::Scheme::OrtsOcts, &inp);
        for variant in [
            DrtsDctsVariant::WideAreaThree,
            DrtsDctsVariant::FullLengthFailures,
        ] {
            let best = maximize(|p| drts_dcts_variant(variant, &inp, p));
            assert!(
                best.throughput > omni_best.throughput,
                "{variant:?} optimum {} fell below omni {}",
                best.throughput,
                omni_best.throughput
            );
        }
    }

    #[test]
    fn moderate_beam_conclusion_fragile_under_wide_area_three() {
        // Documented sensitivity: at 30° the θ′ = 2θ variant drops the
        // DRTS-DCTS optimum below the omni scheme — the paper's Area III
        // approximation matters at moderate beamwidths.
        let inp = input(30.0);
        let omni_best = crate::optimize::max_throughput(dirca_mac::Scheme::OrtsOcts, &inp);
        let wide = maximize(|p| drts_dcts_variant(DrtsDctsVariant::WideAreaThree, &inp, p));
        assert!(wide.throughput < omni_best.throughput);
    }

    #[test]
    fn table_has_requested_rows() {
        let rows = ablation_table(ProtocolTimes::paper(), 5.0, &[30.0, 90.0]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].theta_degrees, 30.0);
        for row in &rows {
            assert!(row.paper >= row.wide_area_three - 1e-12);
            assert!(row.paper > row.full_length_failures);
        }
    }
}
