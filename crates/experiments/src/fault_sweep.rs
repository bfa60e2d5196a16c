//! E15 — extension: throughput vs injected frame error rate.
//!
//! The paper's channel is perfect: every loss is a collision. This
//! experiment injects an i.i.d. frame error rate through the deterministic
//! fault layer and sweeps it for the three schemes at a narrow beam
//! (θ = 60°) and the omnidirectional limit (θ = 360°), exposing how much
//! of each scheme's advantage survives a lossy channel: every corrupted
//! control frame burns a retry, so the directional schemes' spatial-reuse
//! headroom shrinks as the channel degrades.

use dirca_mac::Scheme;
use dirca_net::{FaultPlan, SimConfig};
use dirca_sim::SimDuration;

use crate::ringsim::{try_run_cell, CellGuards, RingExperiment, RingOutcome};
use crate::table::{mean_range, scheme_table};

/// Configuration of the fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// The ring cell every point runs: N, topologies, seed and windows;
    /// each point sets the scheme, the beamwidth and the frame error rate.
    pub base: RingExperiment,
    /// Beamwidths to evaluate, degrees (360 = omnidirectional limit).
    pub beamwidths: Vec<f64>,
    /// Frame error rates to sweep.
    pub fers: Vec<f64>,
}

impl Default for FaultSweep {
    fn default() -> Self {
        FaultSweep {
            base: RingExperiment {
                n_avg: 5,
                topologies: 5,
                seed: 0xFA17,
                config: SimConfig::new(Scheme::OrtsOcts)
                    .with_warmup(SimDuration::from_millis(200))
                    .with_measure(SimDuration::from_secs(2)),
            },
            beamwidths: vec![60.0, 360.0],
            fers: vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.4],
        }
    }
}

/// A scaled-down sweep for smoke tests.
pub fn quick() -> FaultSweep {
    let mut sweep = FaultSweep {
        fers: vec![0.0, 0.1, 0.4],
        ..FaultSweep::default()
    };
    sweep.base.topologies = 2;
    sweep.base.config.warmup = SimDuration::from_millis(50);
    sweep.base.config.measure = SimDuration::from_millis(500);
    sweep
}

fn cell(sweep: &FaultSweep, scheme: Scheme, theta: f64, fer: f64) -> RingExperiment {
    let mut experiment = sweep.base.clone();
    experiment.config.scheme = scheme;
    experiment.config = experiment
        .config
        .with_beamwidth_degrees(theta)
        .with_fault(FaultPlan::default().with_frame_error_rate(fer));
    experiment
}

/// Runs the sweep and renders one table per beamwidth: rows are FERs,
/// columns the three schemes (normalized throughput, mean [min, max] over
/// topologies). Cells that fail under isolation render as `failed`.
pub fn render(sweep: &FaultSweep, threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Throughput vs injected frame error rate — N = {}, {} topologies/cell\n\
         (normalized aggregate throughput of the inner nodes, mean [min, max])\n\n",
        sweep.base.n_avg, sweep.base.topologies
    ));
    for &theta in &sweep.beamwidths {
        let mut t = scheme_table(format!("θ={theta:.0}°, FER"));
        for &fer in &sweep.fers {
            let mut cells = vec![format!("{fer:.2}")];
            for scheme in Scheme::ALL {
                let exp = cell(sweep, scheme, theta, fer);
                let samples = try_run_cell(&exp, threads, &CellGuards::default());
                cells.push(samples.map_or("failed".into(), |s| {
                    mean_range(&RingOutcome::from_samples(&s).throughput, 3)
                }));
            }
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ringsim::run_cell;

    #[test]
    fn quick_sweep_renders_all_rows() {
        let text = render(&quick(), 2);
        assert!(text.contains("θ=60°"));
        assert!(text.contains("θ=360°"));
        assert!(text.contains("0.40"));
        assert!(!text.contains("failed"));
    }

    #[test]
    fn throughput_falls_monotonically_enough_with_fer() {
        // Pin the physics the sweep exists to show: heavy FER costs real
        // throughput for the omni scheme at a narrow beam.
        let sweep = quick();
        let a = run_cell(&cell(&sweep, Scheme::OrtsOcts, 60.0, 0.0), 2);
        let b = run_cell(&cell(&sweep, Scheme::OrtsOcts, 60.0, 0.4), 2);
        assert!(
            b.throughput.mean().unwrap() < a.throughput.mean().unwrap(),
            "40% FER must cost throughput"
        );
    }
}
