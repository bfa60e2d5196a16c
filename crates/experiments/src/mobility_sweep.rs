//! E17 — extension: throughput and handshake failures vs node speed and
//! side-lobe level.
//!
//! The paper's nodes are nailed down and its antennas are ideal sectors.
//! This experiment attaches the random-waypoint mobility model and the
//! SINR-capture PHY to the ring cells and sweeps two knobs the paper holds
//! at zero: how fast the nodes walk, and how much energy the antenna
//! pattern leaks outside its main lobe. Mobility invalidates the cached
//! handshake geometry (a CTS aimed at where the sender *was*), while side
//! lobes turn the clean sector footprint into a graded interference field;
//! both convert silent-success handshakes into real MAC retries, so the
//! directional schemes' spatial-reuse advantage erodes along both axes.
//!
//! The `speed = 0`, `side floor = 0`, `margin = 0` corner is byte-identical
//! to the unmodified harness — pinned by a test below through the full
//! experiment pipeline, not just the engine.

use dirca_mac::Scheme;
use dirca_net::{MobilityModel, SimConfig, SinrPhy};
use dirca_sim::SimDuration;

use crate::ringsim::{try_run_cell, CellGuards, RingExperiment, RingOutcome};
use crate::table::{mean_range, Table};

/// Configuration of the mobility sweep.
#[derive(Debug, Clone)]
pub struct MobilitySweep {
    /// Neighbourhood size `N` of the ring topologies.
    pub n_avg: usize,
    /// Beamwidth in degrees.
    pub beamwidth_degrees: f64,
    /// Node speeds to sweep, in coverage radii per second (0 = static).
    pub speeds: Vec<f64>,
    /// Side-lobe floors to sweep (0 = ideal sector, 1 = isotropic).
    pub side_floors: Vec<f64>,
    /// SINR capture margin (0 = any overlap corrupts, like the binary rule).
    pub margin: f64,
    /// Position-epoch period.
    pub epoch: SimDuration,
    /// Random topologies per cell.
    pub topologies: usize,
    /// Master seed.
    pub seed: u64,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window per topology.
    pub measure: SimDuration,
}

impl Default for MobilitySweep {
    fn default() -> Self {
        MobilitySweep {
            n_avg: 5,
            beamwidth_degrees: 60.0,
            speeds: vec![0.0, 0.5, 1.0, 2.0, 5.0],
            side_floors: vec![0.0, 0.05, 0.2],
            margin: 0.1,
            epoch: SimDuration::from_millis(20),
            topologies: 5,
            seed: 0x30B1,
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_secs(2),
        }
    }
}

/// A scaled-down sweep for smoke tests.
pub fn quick() -> MobilitySweep {
    MobilitySweep {
        speeds: vec![0.0, 2.0, 5.0],
        side_floors: vec![0.0, 0.2],
        topologies: 2,
        warmup: SimDuration::from_millis(50),
        measure: SimDuration::from_millis(500),
        ..MobilitySweep::default()
    }
}

/// Builds the experiment cell for one (scheme, speed, side floor)
/// coordinate. Speed 0 attaches a static model (epochs fire, nothing
/// moves); a side floor of 0 with margin 0 is the ideal binary-equivalent
/// PHY.
pub fn cell(sweep: &MobilitySweep, scheme: Scheme, speed: f64, side_floor: f64) -> RingExperiment {
    let model = if speed > 0.0 {
        MobilityModel::RandomWaypoint {
            speed_min: speed,
            speed_max: speed,
            pause_secs: 0.0,
        }
    } else {
        MobilityModel::STATIC
    };
    RingExperiment {
        n_avg: sweep.n_avg,
        topologies: sweep.topologies,
        seed: sweep.seed,
        config: SimConfig::new(scheme)
            .with_beamwidth_degrees(sweep.beamwidth_degrees)
            .with_warmup(sweep.warmup)
            .with_measure(sweep.measure)
            .with_mobility(model, sweep.epoch)
            .with_sinr(
                SinrPhy::ideal()
                    .with_side_floor(side_floor)
                    .with_margin(sweep.margin),
            ),
    }
}

fn metric_text(samples: &[crate::ringsim::TopologySample], collision: bool) -> String {
    let outcome = RingOutcome::from_samples(samples);
    let s = if collision {
        &outcome.collision_ratio
    } else {
        &outcome.throughput
    };
    match (s.mean(), s.min(), s.max()) {
        (Some(m), Some(lo), Some(hi)) => mean_range(m, lo, hi, 3),
        _ => "n/a".into(),
    }
}

/// Runs the sweep and renders, per side-lobe floor, a throughput table and
/// a handshake-failure (collision ratio) table: rows are node speeds,
/// columns the three schemes (mean [min, max] over topologies). Mobile and
/// SINR cells run on the classic engine, so `threads` parallelizes over
/// topologies only.
pub fn render(sweep: &MobilitySweep, threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Mobility + side-lobe sweep — N = {}, θ = {:.0}°, margin = {:.2}, \
         epoch = {} ms, {} topologies/cell\n\
         (normalized aggregate throughput and collision ratio of the inner nodes, \
         mean [min, max])\n\n",
        sweep.n_avg,
        sweep.beamwidth_degrees,
        sweep.margin,
        sweep.epoch.as_secs_f64() * 1e3,
        sweep.topologies
    ));
    for &floor in &sweep.side_floors {
        for collision in [false, true] {
            let metric = if collision {
                "collision ratio"
            } else {
                "throughput"
            };
            let mut t = Table::new(vec![
                format!("floor={floor:.2} {metric}, speed"),
                "ORTS-OCTS".into(),
                "DRTS-DCTS".into(),
                "DRTS-OCTS".into(),
            ]);
            for &speed in &sweep.speeds {
                let mut cells = vec![format!("{speed:.1}")];
                for scheme in Scheme::ALL {
                    let exp = cell(sweep, scheme, speed, floor);
                    let text = match try_run_cell(&exp, threads, &CellGuards::default()) {
                        Ok(samples) => metric_text(&samples, collision),
                        Err(_) => "failed".into(),
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

    #[test]
    fn quick_sweep_renders_all_rows() {
        let text = render(&quick(), 2);
        assert!(text.contains("floor=0.00 throughput"));
        assert!(text.contains("floor=0.20 collision ratio"));
        assert!(text.contains("5.0"));
        assert!(!text.contains("failed"));
    }

    #[test]
    fn static_ideal_corner_matches_the_unmodified_harness() {
        // The anchor: speed 0 + floor 0 + margin 0 must produce samples
        // *identical* to a plain RingExperiment with no mobility and no
        // SINR attached — the full experiment pipeline preserves the
        // byte-equivalence the engine-level golden tests pin.
        let sweep = MobilitySweep {
            margin: 0.0,
            ..quick()
        };
        let attached = cell(&sweep, Scheme::DrtsDcts, 0.0, 0.0);
        let mut plain = RingExperiment::paper(Scheme::DrtsDcts, sweep.n_avg, 60.0);
        plain.topologies = sweep.topologies;
        plain.seed = sweep.seed;
        plain.config.warmup = sweep.warmup;
        plain.config.measure = sweep.measure;
        let a = try_run_cell(&attached, 2, &CellGuards::default()).unwrap();
        let b = try_run_cell(&plain, 2, &CellGuards::default()).unwrap();
        assert_eq!(
            a, b,
            "the static ideal corner drifted from the plain harness"
        );
    }

    #[test]
    fn cells_are_deterministic() {
        let sweep = quick();
        let exp = cell(&sweep, Scheme::DrtsOcts, 2.0, 0.2);
        let a = try_run_cell(&exp, 2, &CellGuards::default()).unwrap();
        let b = try_run_cell(&exp, 2, &CellGuards::default()).unwrap();
        assert_eq!(a, b, "same-seed mobile SINR cells must be bit-identical");
    }

    #[test]
    fn side_lobes_change_the_runs() {
        // Non-vacuousness: a 0.2 side-lobe floor must actually perturb at
        // least one topology of the static cell.
        let sweep = quick();
        let clean = cell(&sweep, Scheme::DrtsDcts, 0.0, 0.0);
        let leaky = cell(&sweep, Scheme::DrtsDcts, 0.0, 0.2);
        let a = try_run_cell(&clean, 2, &CellGuards::default()).unwrap();
        let b = try_run_cell(&leaky, 2, &CellGuards::default()).unwrap();
        assert_ne!(a, b, "side-lobe energy never reached the runs");
    }
}
