//! Shared reporting over the Figs. 6/7 simulation grid.

use dirca_mac::Scheme;
use dirca_sim::SimDuration;
use dirca_stats::Summary;

use crate::cli::{Flags, UsageError};
use crate::ringsim::{run_cell, RingExperiment, RingOutcome};
use crate::table::{mean_range, Table};

/// Which per-cell metric a report renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
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
    /// Worker threads.
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

    /// Like [`GridScale::from_flags`], but surfaces malformed values as a
    /// [`UsageError`] instead of exiting.
    pub fn try_from_flags(flags: &Flags) -> Result<Self, UsageError> {
        let quick = flags.has("quick");
        let topologies = flags.try_get_usize("topologies", if quick { 4 } else { 50 })?;
        let measure_ms = flags.try_get_u64("measure-ms", if quick { 1_000 } else { 10_000 })?;
        let warmup_ms = flags.try_get_u64("warmup-ms", if quick { 100 } else { 500 })?;
        let threads = flags.try_get_usize(
            "threads",
            std::thread::available_parallelism().map_or(4, |n| n.get()),
        )?;
        let densities = match flags.get("n") {
            Some(_) => vec![flags.try_get_usize("n", 0)?],
            None => vec![3, 5, 8],
        };
        let beamwidths = match flags.get("theta") {
            Some(_) => vec![flags.try_get_f64("theta", 0.0)?],
            None => vec![30.0, 90.0, 150.0],
        };
        let fer = flags.try_get_f64("fer", 0.0)?;
        // The ranges of serve's `ScenarioSpec::validate`: a value outside
        // them would otherwise panic inside every cell or report nothing.
        let out_of_range = |flag: &str, expected, got: String| UsageError {
            flag: flag.to_string(),
            expected,
            got,
        };
        if topologies == 0 {
            return Err(out_of_range("topologies", "at least 1", "0".into()));
        }
        if measure_ms == 0 {
            return Err(out_of_range("measure-ms", "at least 1", "0".into()));
        }
        if densities.contains(&0) {
            return Err(out_of_range(
                "n",
                "a neighbourhood size of at least 1",
                "0".into(),
            ));
        }
        if let Some(&t) = beamwidths.iter().find(|&&t| !(t > 0.0 && t <= 360.0)) {
            return Err(out_of_range(
                "theta",
                "a beamwidth finite in (0, 360]",
                format!("{t}"),
            ));
        }
        if !(0.0..1.0).contains(&fer) {
            return Err(out_of_range(
                "fer",
                "a frame error rate in [0, 1)",
                format!("{fer}"),
            ));
        }
        Ok(GridScale {
            topologies,
            measure: SimDuration::from_millis(measure_ms),
            warmup: SimDuration::from_millis(warmup_ms),
            threads,
            seed: flags.try_get_u64("seed", 0xD1CA)?,
            densities,
            beamwidths,
            fer,
        })
    }

    /// Instantiates one cell at this scale.
    pub fn cell(&self, scheme: Scheme, n_avg: usize, theta: f64) -> RingExperiment {
        RingExperiment {
            scheme,
            n_avg,
            beamwidth_degrees: theta,
            topologies: self.topologies,
            seed: self.seed,
            warmup: self.warmup,
            measure: self.measure,
            reception: dirca_radio::ReceptionMode::Omni,
            mac: dirca_mac::MacConfig::default(),
            // At fer = 0 the plan is trivial: the fault layer consumes no
            // RNG draws and the cell stays byte-identical to a plan-free
            // run (the golden-hash battery in dirca-net pins this).
            fault: dirca_net::FaultPlan::default().with_frame_error_rate(self.fer),
            mobility: None,
            sinr: None,
        }
    }
}

/// Runs the grid and renders `metric` as one table per density, matching
/// the layout of the paper's Figs. 6/7 panels.
pub fn grid_report(title: &str, metric: Metric, scale: &GridScale) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push_str("\n\n");
    for &n in &scale.densities {
        let mut t = Table::new(vec![
            format!("N={n}, θ (deg)"),
            "ORTS-OCTS".into(),
            "DRTS-DCTS".into(),
            "DRTS-OCTS".into(),
        ]);
        for &theta in &scale.beamwidths {
            let mut cells = vec![format!("{theta:.0}")];
            for scheme in Scheme::ALL {
                let outcome = run_cell(&scale.cell(scheme, n, theta), scale.threads);
                let s = metric.pick(&outcome);
                let text = match (s.mean(), s.min(), s.max()) {
                    (Some(m), Some(lo), Some(hi)) => mean_range(m, lo, hi, metric.decimals()),
                    _ => "n/a".into(),
                };
                cells.push(text);
            }
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Runs the grid **once** and renders every metric (Fig. 6 throughput,
/// Fig. 7 delay, collision ratio, fairness) from the same simulation runs
/// — four reports for the price of one grid pass.
pub fn combined_report(scale: &GridScale) -> String {
    // Run all cells first.
    let mut outcomes: Vec<(usize, f64, Scheme, RingOutcome)> = Vec::new();
    for &n in &scale.densities {
        for &theta in &scale.beamwidths {
            for scheme in Scheme::ALL {
                let outcome = run_cell(&scale.cell(scheme, n, theta), scale.threads);
                outcomes.push((n, theta, scheme, outcome));
            }
        }
    }
    render_combined(scale, &outcomes)
}

/// Renders the four metric sections from precomputed cell outcomes. Cells
/// absent from `outcomes` (e.g. ones that failed under the fault-tolerant
/// runner) render as `n/a`, so a partial grid still reports cleanly. The
/// text is identical to [`combined_report`]'s for a complete grid — which
/// is what makes a resumed run's report comparable to an uninterrupted
/// one.
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
            let mut t = Table::new(vec![
                format!("N={n}, θ (deg)"),
                "ORTS-OCTS".into(),
                "DRTS-DCTS".into(),
                "DRTS-OCTS".into(),
            ]);
            for &theta in &scale.beamwidths {
                let mut cells = vec![format!("{theta:.0}")];
                for scheme in Scheme::ALL {
                    let outcome = outcomes
                        .iter()
                        // Beamwidths are copied verbatim from the scale
                        // config, so bitwise equality is the right key
                        // comparison here.
                        .find(|(on, ot, os, _)| {
                            *on == n && ot.to_bits() == theta.to_bits() && *os == scheme
                        })
                        .map(|(_, _, _, o)| o);
                    let text = match outcome {
                        Some(o) => {
                            let s = metric.pick(o);
                            match (s.mean(), s.min(), s.max()) {
                                (Some(m), Some(lo), Some(hi)) => {
                                    mean_range(m, lo, hi, metric.decimals())
                                }
                                _ => "n/a".into(),
                            }
                        }
                        None => "n/a".into(),
                    };
                    cells.push(text);
                }
                t.row(cells);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
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

    #[test]
    fn grid_report_renders_all_schemes() {
        let text = grid_report("test", Metric::Throughput, &tiny_scale());
        assert!(text.contains("ORTS-OCTS"));
        assert!(text.contains("N=3"));
        assert!(text.contains('['), "range formatting missing");
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
    fn metric_decimals_and_pick() {
        let outcome = RingOutcome::default();
        assert_eq!(Metric::DelayMs.decimals(), 1);
        assert_eq!(Metric::Throughput.pick(&outcome).count(), 0);
    }
}
