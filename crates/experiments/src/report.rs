//! Reporting over the Figs. 6/7 simulation grid: the grid's scale, and the
//! text tables and SVG charts rendered from its cells.

use dirca_mac::Scheme;
use dirca_net::{FaultPlan, SimConfig};
use dirca_sim::SimDuration;
use dirca_stats::Summary;

use crate::cli::{Flags, UsageError};
use crate::plot::{LineChart, PlotPoint};
use crate::ringsim::{RingExperiment, RingOutcome};
use crate::table::{mean_range, scheme_table};

/// Which per-cell metric a section or chart renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    /// Fig. 6: normalized aggregate throughput of the inner nodes.
    Throughput,
    /// Fig. 7: mean MAC service delay in milliseconds.
    DelayMs,
    /// §4: collision ratio.
    CollisionRatio,
    /// §4: Jain fairness index.
    Jain,
}

impl Metric {
    fn pick(self, outcome: &RingOutcome) -> &Summary {
        match self {
            Metric::Throughput => &outcome.throughput,
            Metric::DelayMs => &outcome.delay_ms,
            Metric::CollisionRatio => &outcome.collision_ratio,
            Metric::Jain => &outcome.jain,
        }
    }

    fn decimals(self) -> usize {
        match self {
            Metric::Throughput | Metric::CollisionRatio | Metric::Jain => 3,
            Metric::DelayMs => 1,
        }
    }
}

/// Scale parameters for a grid run, derived from command-line flags.
#[derive(Debug, Clone)]
pub struct GridScale {
    /// Topologies per cell.
    pub topologies: usize,
    /// Measurement window per topology.
    pub measure: SimDuration,
    /// Warm-up window per topology.
    pub warmup: SimDuration,
    /// Worker threads per cell (never affects results).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Densities to sweep.
    pub densities: Vec<usize>,
    /// Beamwidths (degrees) to sweep.
    pub beamwidths: Vec<f64>,
    /// I.i.d. frame error rate injected in every cell; `0.0` (the
    /// default) keeps the fault layer trivial and the run byte-identical
    /// to a plan-free grid.
    pub fer: f64,
}

impl GridScale {
    /// Builds the scale from flags: `--quick` shrinks everything;
    /// `--topologies`, `--measure-ms`, `--threads`, `--seed`, `--n`
    /// override individual knobs. A malformed value prints a usage error to
    /// stderr and exits with status 2.
    pub fn from_flags(flags: &Flags) -> Self {
        Self::try_from_flags(flags).unwrap_or_else(|e| e.exit())
    }

    /// Like [`GridScale::from_flags`], but surfaces malformed or
    /// out-of-range values as a [`UsageError`] instead of exiting. Every
    /// range but the frame error rate's is the one its checked [`Flags`]
    /// reader enforces for the ring binaries too.
    pub fn try_from_flags(flags: &Flags) -> Result<Self, UsageError> {
        let quick = flags.has("quick");
        let densities = match flags.get("n") {
            Some(_) => vec![flags.try_get_count("n", 0)?],
            None => vec![3, 5, 8],
        };
        let beamwidths = match flags.get("theta") {
            Some(_) => vec![flags.try_get_beamwidth("theta", 0.0)?],
            None => vec![30.0, 90.0, 150.0],
        };
        let measure = SimDuration::from_millis(if quick { 1_000 } else { 10_000 });
        let warmup_ms = flags.try_get_u64("warmup-ms", if quick { 100 } else { 500 })?;
        Ok(GridScale {
            topologies: flags.try_get_count("topologies", if quick { 4 } else { 50 })?,
            measure: flags.try_get_window("measure-ms", measure)?,
            warmup: SimDuration::from_millis(warmup_ms),
            threads: flags.try_get_threads()?,
            seed: flags.try_get_u64("seed", 0xD1CA)?,
            densities,
            beamwidths,
            fer: flags.try_get_checked(
                "fer",
                0.0,
                "a number",
                "a frame error rate in [0, 1)",
                |&fer| is_frame_error_rate(fer),
            )?,
        })
    }

    /// Instantiates one cell at this scale.
    pub fn cell(&self, scheme: Scheme, n_avg: usize, theta: f64) -> RingExperiment {
        RingExperiment {
            n_avg,
            topologies: self.topologies,
            seed: self.seed,
            config: SimConfig::new(scheme)
                .with_beamwidth_degrees(theta)
                .with_warmup(self.warmup)
                .with_measure(self.measure)
                // At fer = 0 the plan is trivial: the fault layer consumes
                // no RNG draws and the cell stays byte-identical to a
                // plan-free run (the golden-hash battery in dirca-net pins
                // this).
                .with_fault(FaultPlan::default().with_frame_error_rate(self.fer)),
        }
    }
}

/// Whether `fer` is a frame error rate a grid injects: finite, in `[0, 1)`
/// (a rate of 1 would lose every frame). `GridScale` and serve's
/// `ScenarioSpec` both check it here.
pub fn is_frame_error_rate(fer: f64) -> bool {
    (0.0..1.0).contains(&fer)
}

/// The outcome of cell `(n, theta, scheme)` in `outcomes`, if it is there.
fn find(
    outcomes: &[(usize, f64, Scheme, RingOutcome)],
    n: usize,
    theta: f64,
    scheme: Scheme,
) -> Option<&RingOutcome> {
    outcomes
        .iter()
        // Beamwidths are copied verbatim from the scale config, so bitwise
        // equality is the right key comparison here.
        .find(|(on, ot, os, _)| *on == n && ot.to_bits() == theta.to_bits() && *os == scheme)
        .map(|(_, _, _, o)| o)
}

/// Renders the four metric sections (Fig. 6 throughput, Fig. 7 delay,
/// collision ratio, fairness) from precomputed cell outcomes, usually
/// [`GridRun::completed`](crate::runner::GridRun::completed). Cells absent
/// from `outcomes` (e.g. ones that failed under the fault-tolerant runner)
/// render as `n/a`, so a partial grid still reports cleanly, and a resumed
/// run's report is byte-identical to an uninterrupted one's.
pub fn render_combined(
    scale: &GridScale,
    outcomes: &[(usize, f64, Scheme, RingOutcome)],
) -> String {
    let mut out = String::new();
    let sections = [
        (
            "Fig. 6 — throughput of the inner N nodes, normalized to the 2 Mbps channel",
            Metric::Throughput,
        ),
        (
            "Fig. 7 — mean MAC delay (ms) of the inner N nodes",
            Metric::DelayMs,
        ),
        (
            "Collision ratio — ACK-timeout handshakes / handshakes reaching the data stage",
            Metric::CollisionRatio,
        ),
        ("Jain fairness index over the inner N nodes", Metric::Jain),
    ];
    for (title, metric) in sections {
        out.push_str(title);
        out.push_str("\n(mean [min, max] over topologies)\n\n");
        for &n in &scale.densities {
            let mut t = scheme_table(format!("N={n}, θ (deg)"));
            for &theta in &scale.beamwidths {
                let mut cells = vec![format!("{theta:.0}")];
                for scheme in Scheme::ALL {
                    cells.push(match find(outcomes, n, theta, scheme) {
                        Some(o) => mean_range(metric.pick(o), metric.decimals()),
                        None => "n/a".into(),
                    });
                }
                t.row(cells);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
    }
    out
}

/// Renders Figs. 6 and 7 as SVG line charts with min–max whiskers, one
/// chart per density, from the same cell outcomes as [`render_combined`].
/// Returns `(file name, SVG text)` pairs, `fig6_n{N}.svg` then
/// `fig7_n{N}.svg` for each density. A cell absent from `outcomes` drops
/// its point from the curve.
pub fn grid_svgs(
    scale: &GridScale,
    outcomes: &[(usize, f64, Scheme, RingOutcome)],
) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for &n in &scale.densities {
        for (fig, title, y_label, metric) in [
            (
                "fig6",
                "Fig. 6",
                "normalized throughput",
                Metric::Throughput,
            ),
            ("fig7", "Fig. 7", "mean MAC delay (ms)", Metric::DelayMs),
        ] {
            let mut chart = LineChart::new(
                format!("{title} — simulation, N = {n}"),
                "beamwidth θ (degrees)",
                y_label,
            );
            for scheme in Scheme::ALL {
                let points = scale
                    .beamwidths
                    .iter()
                    .filter_map(|&theta| {
                        let s = metric.pick(find(outcomes, n, theta, scheme)?);
                        Some(PlotPoint::with_range(theta, s.mean()?, s.min()?, s.max()?))
                    })
                    .collect();
                chart.series(scheme.to_string(), points);
            }
            files.push((format!("{fig}_n{n}.svg"), chart.render_svg()));
        }
    }
    files
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn tiny_scale() -> GridScale {
        GridScale {
            topologies: 1,
            measure: SimDuration::from_millis(300),
            warmup: SimDuration::from_millis(50),
            threads: 2,
            seed: 7,
            densities: vec![3],
            beamwidths: vec![90.0],
            fer: 0.0,
        }
    }

    /// One synthetic topology in every cell of `scale` except
    /// (θ = 90°, DRTS-DCTS).
    fn partial_outcomes(scale: &GridScale) -> Vec<(usize, f64, Scheme, RingOutcome)> {
        let sample = crate::ringsim::TopologySample {
            throughput: 0.5,
            delay_ms: Some(20.0),
            collision_ratio: Some(0.2),
            jain: Some(0.9),
        };
        let cells = crate::runner::enumerate_cells(scale).into_iter();
        let kept = cells.filter(|c| !(c.theta == 90.0 && c.scheme == Scheme::DrtsDcts));
        let outcome = RingOutcome::from_samples(&[sample]);
        kept.map(|c| (c.n, c.theta, c.scheme, outcome.clone()))
            .collect()
    }

    #[test]
    fn grid_svgs_drop_the_point_of_a_missing_cell() {
        let scale = GridScale {
            beamwidths: vec![30.0, 90.0, 150.0],
            ..tiny_scale()
        };
        let files = grid_svgs(&scale, &partial_outcomes(&scale));
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["fig6_n3.svg", "fig7_n3.svg"]);
        for (name, svg) in &files {
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"), "{name}");
            assert_eq!(svg.matches("<polyline").count(), 3, "{name}");
            // Series colours follow `Scheme::ALL`: ORTS-OCTS, DRTS-DCTS,
            // DRTS-OCTS. Only DRTS-DCTS lost a point, the one at 90°.
            let markers = |color: &str| svg.matches(&format!(r#"r="3.5" fill="{color}""#)).count();
            let per_scheme = ["#1f77b4", "#d62728", "#2ca02c"].map(markers);
            assert_eq!(per_scheme, [3, 2, 3], "{name}");
        }
        assert!(files[1].1.contains("Fig. 7 — simulation, N = 3"));
    }

    #[test]
    fn render_combined_reports_a_missing_cell_as_na() {
        let scale = tiny_scale();
        let text = render_combined(&scale, &partial_outcomes(&scale));
        // One θ = 90° row per metric section, DRTS-DCTS missing from each.
        assert_eq!(text.matches("n/a").count(), 4, "{text}");
        assert!(text.contains("0.500 [0.500, 0.500]"), "{text}");
    }

    #[test]
    fn scale_from_flags_quick() {
        let flags = Flags::parse(["--quick".to_string()].into_iter());
        let scale = GridScale::from_flags(&flags);
        assert_eq!(scale.topologies, 4);
        assert_eq!(scale.measure, SimDuration::from_millis(1_000));
        assert_eq!(scale.densities, vec![3, 5, 8]);
    }

    #[test]
    fn scale_from_flags_overrides() {
        let flags = Flags::parse(
            [
                "--topologies",
                "2",
                "--n",
                "5",
                "--theta",
                "30",
                "--seed",
                "1",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        let scale = GridScale::from_flags(&flags);
        assert_eq!(scale.topologies, 2);
        assert_eq!(scale.densities, vec![5]);
        assert_eq!(scale.beamwidths, vec![30.0]);
        assert_eq!(scale.seed, 1);
    }

    #[test]
    fn scale_from_flags_rejects_malformed_values() {
        let flags = Flags::parse(["--theta", "wide"].iter().map(|s| s.to_string()));
        let err = GridScale::try_from_flags(&flags).expect_err("wide is not a number");
        assert_eq!(err.flag, "theta");
        let flags = Flags::parse(["--n", "many"].iter().map(|s| s.to_string()));
        assert!(GridScale::try_from_flags(&flags).is_err());
        for bad_fer in ["1.0", "-0.1", "NaN"] {
            let flags = Flags::parse(["--fer", bad_fer].iter().map(|s| s.to_string()));
            let err = GridScale::try_from_flags(&flags).expect_err("fer outside [0, 1)");
            assert_eq!(err.flag, "fer");
        }
        let flags = Flags::parse(["--fer", "0.25"].iter().map(|s| s.to_string()));
        assert_eq!(GridScale::try_from_flags(&flags).unwrap().fer, 0.25);
    }

    fn refused_flag(args: &[&str]) -> String {
        let flags = Flags::parse(args.iter().map(|s| s.to_string()));
        GridScale::try_from_flags(&flags)
            .expect_err("degenerate value accepted")
            .flag
    }

    #[test]
    fn scale_from_flags_refuses_degenerate_theta() {
        for bad in ["0", "-30", "400", "nan", "inf"] {
            assert_eq!(refused_flag(&["--theta", bad]), "theta", "--theta {bad}");
        }
        let flags = Flags::parse(["--theta", "360"].iter().map(|s| s.to_string()));
        assert_eq!(
            GridScale::try_from_flags(&flags).unwrap().beamwidths,
            [360.0]
        );
    }

    #[test]
    fn scale_from_flags_refuses_zero_density() {
        assert_eq!(refused_flag(&["--n", "0"]), "n");
    }

    #[test]
    fn scale_from_flags_refuses_zero_topologies() {
        assert_eq!(refused_flag(&["--topologies", "0"]), "topologies");
    }

    #[test]
    fn scale_from_flags_refuses_zero_measure() {
        assert_eq!(refused_flag(&["--measure-ms", "0"]), "measure-ms");
    }

    #[test]
    fn scale_from_flags_refuses_zero_threads() {
        assert_eq!(refused_flag(&["--threads", "0"]), "threads");
    }
}
