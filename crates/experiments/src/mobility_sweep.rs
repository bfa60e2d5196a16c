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
use crate::table::{mean_range, scheme_table};

/// The beamwidth θ of [`MobilitySweep::default`], in degrees.
pub const DEFAULT_BEAMWIDTH: f64 = 60.0;

/// Configuration of the mobility sweep.
#[derive(Debug, Clone)]
pub struct MobilitySweep {
    /// The ring cell every point runs: N, θ, topologies, seed and
    /// windows; each point sets the scheme, the speed and the side floor.
    pub base: RingExperiment,
    /// Node speeds to sweep, in coverage radii per second (0 = static).
    pub speeds: Vec<f64>,
    /// Side-lobe floors to sweep (0 = ideal sector, 1 = isotropic).
    pub side_floors: Vec<f64>,
    /// SINR capture margin (0 = any overlap corrupts, like the binary rule).
    pub margin: f64,
    /// Position-epoch period.
    pub epoch: SimDuration,
}

impl Default for MobilitySweep {
    fn default() -> Self {
        MobilitySweep {
            base: RingExperiment {
                n_avg: 5,
                topologies: 5,
                seed: 0x30B1,
                config: SimConfig::new(Scheme::OrtsOcts)
                    .with_beamwidth_degrees(DEFAULT_BEAMWIDTH)
                    .with_warmup(SimDuration::from_millis(200))
                    .with_measure(SimDuration::from_secs(2)),
            },
            speeds: vec![0.0, 0.5, 1.0, 2.0, 5.0],
            side_floors: vec![0.0, 0.05, 0.2],
            margin: 0.1,
            epoch: SimDuration::from_millis(20),
        }
    }
}

/// A scaled-down sweep for smoke tests.
pub fn quick() -> MobilitySweep {
    let mut sweep = MobilitySweep {
        speeds: vec![0.0, 2.0, 5.0],
        side_floors: vec![0.0, 0.2],
        ..MobilitySweep::default()
    };
    sweep.base.topologies = 2;
    sweep.base.config.warmup = SimDuration::from_millis(50);
    sweep.base.config.measure = SimDuration::from_millis(500);
    sweep
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
    let mut experiment = sweep.base.clone();
    experiment.config.scheme = scheme;
    experiment.config = experiment
        .config
        .with_mobility(model, sweep.epoch)
        .with_sinr(
            SinrPhy::ideal()
                .with_side_floor(side_floor)
                .with_margin(sweep.margin),
        );
    experiment
}

/// Runs the sweep and renders, per side-lobe floor, a throughput table and
/// a handshake-failure (collision ratio) table: rows are node speeds,
/// columns the three schemes (mean [min, max] over topologies). The
/// header prints `theta`, the base cell's beamwidth in degrees as given.
/// Mobile and SINR cells run on the classic engine, so `threads`
/// parallelizes over topologies only.
pub fn render(sweep: &MobilitySweep, theta: f64, threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Mobility + side-lobe sweep — N = {}, θ = {theta:.0}°, margin = {:.2}, \
         epoch = {} ms, {} topologies/cell\n\
         (normalized aggregate throughput and collision ratio of the inner nodes, \
         mean [min, max])\n\n",
        sweep.base.n_avg,
        sweep.margin,
        sweep.epoch.as_secs_f64() * 1e3,
        sweep.base.topologies
    ));
    for &floor in &sweep.side_floors {
        // Each cell runs once and fills its row of both tables.
        let rows: Vec<[Option<RingOutcome>; 3]> = sweep
            .speeds
            .iter()
            .map(|&speed| {
                Scheme::ALL.map(|scheme| {
                    let exp = cell(sweep, scheme, speed, floor);
                    let samples = try_run_cell(&exp, threads, &CellGuards::default());
                    samples.ok().map(|s| RingOutcome::from_samples(&s))
                })
            })
            .collect();
        for (metric, collision) in [("throughput", false), ("collision ratio", true)] {
            let mut t = scheme_table(format!("floor={floor:.2} {metric}, speed"));
            for (speed, outcomes) in sweep.speeds.iter().zip(&rows) {
                let mut cells = vec![format!("{speed:.1}")];
                cells.extend(outcomes.iter().map(|outcome| match outcome {
                    Some(o) if collision => mean_range(&o.collision_ratio, 3),
                    Some(o) => mean_range(&o.throughput, 3),
                    None => "failed".into(),
                }));
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
        let text = render(&quick(), DEFAULT_BEAMWIDTH, 2);
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
        let mut plain = sweep.base.clone();
        plain.config.scheme = Scheme::DrtsDcts;
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
