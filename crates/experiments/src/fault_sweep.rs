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
use crate::table::{mean_range, Table};

/// Configuration of the fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Neighbourhood size `N` of the ring topologies.
    pub n_avg: usize,
    /// Beamwidths to evaluate, degrees (360 = omnidirectional limit).
    pub beamwidths: Vec<f64>,
    /// Frame error rates to sweep.
    pub fers: Vec<f64>,
    /// Random topologies per cell.
    pub topologies: usize,
    /// Master seed.
    pub seed: u64,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window per topology.
    pub measure: SimDuration,
}

impl Default for FaultSweep {
    fn default() -> Self {
        FaultSweep {
            n_avg: 5,
            beamwidths: vec![60.0, 360.0],
            fers: vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.4],
            topologies: 5,
            seed: 0xFA17,
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_secs(2),
        }
    }
}

/// A scaled-down sweep for smoke tests.
pub fn quick() -> FaultSweep {
    FaultSweep {
        fers: vec![0.0, 0.1, 0.4],
        topologies: 2,
        measure: SimDuration::from_millis(500),
        warmup: SimDuration::from_millis(50),
        ..FaultSweep::default()
    }
}

fn cell(sweep: &FaultSweep, scheme: Scheme, theta: f64, fer: f64) -> RingExperiment {
    RingExperiment {
        n_avg: sweep.n_avg,
        topologies: sweep.topologies,
        seed: sweep.seed,
        config: SimConfig::new(scheme)
            .with_beamwidth_degrees(theta)
            .with_warmup(sweep.warmup)
            .with_measure(sweep.measure)
            .with_fault(FaultPlan::default().with_frame_error_rate(fer)),
    }
}

/// Runs the sweep and renders one table per beamwidth: rows are FERs,
/// columns the three schemes (normalized throughput, mean [min, max] over
/// topologies). Cells that fail under isolation render as `failed`.
pub fn render(sweep: &FaultSweep, threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Throughput vs injected frame error rate — N = {}, {} topologies/cell\n\
         (normalized aggregate throughput of the inner nodes, mean [min, max])\n\n",
        sweep.n_avg, sweep.topologies
    ));
    for &theta in &sweep.beamwidths {
        let mut t = Table::new(vec![
            format!("θ={theta:.0}°, FER"),
            "ORTS-OCTS".into(),
            "DRTS-DCTS".into(),
            "DRTS-OCTS".into(),
        ]);
        for &fer in &sweep.fers {
            let mut cells = vec![format!("{fer:.2}")];
            for scheme in Scheme::ALL {
                let exp = cell(sweep, scheme, theta, fer);
                let text = match try_run_cell(&exp, threads, &CellGuards::default()) {
                    Ok(samples) => {
                        let outcome = RingOutcome::from_samples(&samples);
                        let s = &outcome.throughput;
                        match (s.mean(), s.min(), s.max()) {
                            (Some(m), Some(lo), Some(hi)) => mean_range(m, lo, hi, 3),
                            _ => "n/a".into(),
                        }
                    }
                    Err(_) => "failed".into(),
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let clean = cell(&sweep, Scheme::OrtsOcts, 60.0, 0.0);
        let dirty = cell(&sweep, Scheme::OrtsOcts, 60.0, 0.4);
        let a =
            RingOutcome::from_samples(&try_run_cell(&clean, 2, &CellGuards::default()).unwrap());
        let b =
            RingOutcome::from_samples(&try_run_cell(&dirty, 2, &CellGuards::default()).unwrap());
        assert!(
            b.throughput.mean().unwrap() < a.throughput.mean().unwrap(),
            "40% FER must cost throughput"
        );
    }
}
