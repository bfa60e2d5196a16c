//! E1 — Fig. 5: analytical maximum throughput vs beamwidth.

use dirca_analysis::optimize::max_throughput;
use dirca_analysis::sweep::{fig5, paper_theta_grid, Fig5Row};
use dirca_analysis::{ModelInput, ProtocolTimes};
use dirca_mac::Scheme;

use crate::plot::{LineChart, PlotPoint};
use crate::table::{scheme_table, Table};

/// Computes the Fig. 5 series for density `n_avg` on the paper's 15°–180°
/// grid.
pub fn compute(n_avg: f64) -> Vec<Fig5Row> {
    fig5(ProtocolTimes::paper(), n_avg, &paper_theta_grid())
}

/// Renders a Fig. 5 series as a markdown table.
pub fn render(n_avg: f64, rows: &[Fig5Row]) -> String {
    let mut t = scheme_table("θ (deg)".into());
    for row in rows {
        t.row(vec![
            format!("{:.0}", row.theta_degrees),
            format!("{:.4}", row.orts_octs),
            format!("{:.4}", row.drts_dcts),
            format!("{:.4}", row.drts_octs),
        ]);
    }
    format!(
        "Fig. 5 — maximum achievable throughput vs beamwidth (N = {n_avg}, \
         l_rts=l_cts=l_ack=5τ, l_data=100τ)\n\n{}",
        t.render()
    )
}

/// Renders a Fig. 5 series as an SVG line chart, one curve per scheme.
pub fn svg(n_avg: f64, rows: &[Fig5Row]) -> String {
    let mut chart = LineChart::new(
        format!("Fig. 5 — max achievable throughput (analysis, N = {n_avg})"),
        "beamwidth θ (degrees)",
        "throughput",
    );
    for scheme in Scheme::ALL {
        chart.series(
            scheme.to_string(),
            rows.iter()
                .map(|r| PlotPoint::new(r.theta_degrees, r.get(scheme)))
                .collect(),
        );
    }
    chart.render_svg()
}

/// Renders the optimal attempt probabilities `p*` behind the Fig. 5
/// optima — the quantity the paper argues must stay below ~0.1 for
/// collision avoidance to work.
pub fn render_optimal_p(n_avg: f64) -> String {
    let mut t = Table::new(vec![
        "θ (deg)".into(),
        "p* ORTS-OCTS".into(),
        "p* DRTS-DCTS".into(),
        "p* DRTS-OCTS".into(),
    ]);
    for deg in paper_theta_grid() {
        let input = ModelInput::new(ProtocolTimes::paper(), n_avg, deg.to_radians());
        let p = |s: Scheme| max_throughput(s, &input).p;
        t.row(vec![
            format!("{deg:.0}"),
            format!("{:.4}", p(Scheme::OrtsOcts)),
            format!("{:.4}", p(Scheme::DrtsDcts)),
            format!("{:.4}", p(Scheme::DrtsOcts)),
        ]);
    }
    format!(
        "Optimal attempt probabilities p* (N = {n_avg})

{}",
        t.render()
    )
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    #[test]
    fn compute_covers_paper_grid() {
        let rows = compute(5.0);
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0].theta_degrees, 15.0);
        assert_eq!(rows[11].theta_degrees, 180.0);
    }

    #[test]
    fn optimal_p_stays_in_collision_avoidance_regime() {
        let text = render_optimal_p(5.0);
        assert!(text.contains("p* DRTS-DCTS"));
        // Parse the numbers back and check the paper's p < 0.1 claim.
        for token in text.split_whitespace() {
            if let Ok(v) = token.parse::<f64>() {
                if v < 1.0 && text.contains("0.") {
                    assert!(v < 0.2, "optimal p {v} far outside the CA regime");
                }
            }
        }
    }

    #[test]
    fn render_contains_series() {
        let rows = compute(3.0);
        let text = render(3.0, &rows);
        assert!(text.contains("DRTS-DCTS"));
        assert!(text.contains("N = 3"));
        assert!(text.lines().count() > 12);
    }

    #[test]
    fn svg_draws_one_curve_per_scheme() {
        let svg = svg(8.0, &compute(8.0));
        assert!(svg.contains("N = 8"));
        assert_eq!(svg.matches("<polyline").count(), 3);
        assert_eq!(
            svg.matches("<circle").count(),
            3 * 12,
            "one marker per point"
        );
    }
}
