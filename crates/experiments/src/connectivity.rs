//! E18 — validation: directional connectivity vs closed-form theory.
//!
//! For a binomial point process on a disk (the finite-`n` stand-in for a
//! Poisson field) where every node aims an ideal sector of aperture θ in an
//! independent uniformly random direction, the out-degree of an interior
//! node is exactly binomial: each of the other `n − 1` nodes independently
//! lands in the sector with probability `q = (N/n)·(θ/2π)` (area thinning
//! times aperture thinning), giving
//!
//! - mean out-degree `μ = (n − 1)·q`, and
//! - isolation probability `P(out-degree = 0) = (1 − q)^(n − 1)`,
//!
//! which converge to the Poisson-field forms `μ = N·θ/2π` and
//! `P_iso = exp(−N·θ/2π)` of Georgiou et al. (arXiv:1509.02325) as
//! `n → ∞`. This experiment samples [`poisson_field`] layouts, draws
//! boresights from the registered `CONNECTIVITY_STREAM_SALT` stream,
//! measures interior nodes only (a full range disk inside the domain, so
//! no border correction is needed), and reports the z-score of the
//! measured mean out-degree and isolation fraction against the exact
//! binomial forms. Sector membership is decided by the *same*
//! [`TxPattern::covers`] predicate the simulator's channel uses, so this
//! doubles as an end-to-end check of the coverage geometry.
//!
//! The default configuration (2 000 nodes) runs in seconds; `large()` is
//! the 100 000-node variant documented in `EXPERIMENTS.md`, feasible
//! because candidate neighbours come from the radio crate's
//! [`SpatialGrid`] rather than an O(n²) pair scan.

use std::f64::consts::TAU;

use dirca_geometry::{Angle, Beamwidth};
use dirca_net::salts::CONNECTIVITY_STREAM_SALT;
use dirca_radio::{SpatialGrid, TxPattern};
use dirca_sim::rng::{derive_seed, stream_rng};
use dirca_stats::Summary;
use dirca_topology::poisson_field;
use rand::Rng;

use crate::ringsim::topology_rng;
use crate::table::Table;

/// Configuration of the connectivity experiment.
#[derive(Debug, Clone)]
pub struct Connectivity {
    /// Nodes per trial field.
    pub nodes: usize,
    /// Target mean in-range neighbourhood size `N` (the field is sized so
    /// an interior node sees `N·(n−1)/n` others in range on average).
    pub n_avg: f64,
    /// Sector apertures θ to evaluate, in degrees.
    pub beamwidths: Vec<f64>,
    /// Independent random fields to average over.
    pub trials: usize,
    /// Master seed; topology and boresight draws come from separate
    /// registered salt streams.
    pub seed: u64,
}

impl Default for Connectivity {
    fn default() -> Self {
        Connectivity {
            nodes: 2_000,
            n_avg: 6.0,
            beamwidths: vec![45.0, 90.0, 180.0, 270.0, 360.0],
            trials: 8,
            seed: 0xC044,
        }
    }
}

/// A scaled-down configuration for CI smoke runs.
pub fn quick() -> Connectivity {
    Connectivity {
        nodes: 400,
        beamwidths: vec![60.0, 180.0, 360.0],
        trials: 4,
        ..Connectivity::default()
    }
}

/// The 100 000-node variant: tight enough statistics that the measured
/// curves visually sit on the closed forms. The spatial grid keeps it
/// to a few seconds in release; it stays out of CI only to keep the
/// smoke job lean (see `EXPERIMENTS.md`).
pub fn large() -> Connectivity {
    Connectivity {
        nodes: 100_000,
        trials: 10,
        ..Connectivity::default()
    }
}

/// Measured vs predicted connectivity at one aperture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectivityRow {
    /// Sector aperture θ in degrees.
    pub beamwidth_degrees: f64,
    /// Measured mean out-degree over all interior nodes of all trials.
    pub measured_degree: f64,
    /// Exact binomial mean out-degree `(n−1)·q`.
    pub theory_degree: f64,
    /// `|measured − theory|` in standard errors of the measured mean.
    pub degree_z: f64,
    /// Measured fraction of interior nodes with out-degree 0.
    pub measured_isolation: f64,
    /// Exact binomial isolation probability `(1−q)^(n−1)`.
    pub theory_isolation: f64,
    /// `|measured − theory|` in binomial standard errors.
    pub isolation_z: f64,
    /// Interior nodes measured (degree samples / isolation Bernoulli
    /// trials).
    pub samples: u64,
}

/// One trial field: positions, per-node boresights, the spatial index, and
/// which nodes are interior.
struct Trial {
    positions: Vec<dirca_geometry::Point>,
    boresights: Vec<Angle>,
    grid: SpatialGrid,
    interior: Vec<usize>,
}

fn sample_trials(config: &Connectivity, range: f64, interior_radius: f64) -> Vec<Trial> {
    (0..config.trials)
        .map(|t| {
            let topo = poisson_field(
                &mut topology_rng(config.seed, t),
                config.nodes,
                config.n_avg,
                range,
            );
            let mut aim_rng =
                stream_rng(derive_seed(config.seed, CONNECTIVITY_STREAM_SALT), t as u64);
            let boresights: Vec<Angle> = (0..config.nodes)
                .map(|_| Angle::from_radians(aim_rng.random_range(0.0..TAU)))
                .collect();
            let grid = SpatialGrid::new(&topo.positions, range);
            let interior: Vec<usize> = (0..config.nodes)
                .filter(|&i| {
                    topo.positions[i].distance(dirca_geometry::Point::ORIGIN) <= interior_radius
                })
                .collect();
            Trial {
                positions: topo.positions,
                boresights,
                grid,
                interior,
            }
        })
        .collect()
}

/// Runs the experiment: one row per aperture, fields shared across
/// apertures (so the measured degree is exactly monotone in θ by
/// construction — each wider sector is a superset of the narrower one).
///
/// # Panics
///
/// Panics if `nodes ≤ n_avg` (no interior region exists) or a beamwidth is
/// outside (0°, 360°].
pub fn run(config: &Connectivity) -> Vec<ConnectivityRow> {
    let range = 1.0;
    let disk_radius = range * (config.nodes as f64 / config.n_avg).sqrt();
    let interior_radius = disk_radius - range;
    assert!(
        interior_radius > 0.0,
        "need nodes > n_avg for an interior region"
    );
    let trials = sample_trials(config, range, interior_radius);
    let n = config.nodes as f64;

    config
        .beamwidths
        .iter()
        .map(|&theta| {
            let beamwidth = Beamwidth::from_degrees(theta).expect("aperture in (0°, 360°]");
            let mut degrees = Summary::default();
            let mut isolated: u64 = 0;
            for trial in &trials {
                for &i in &trial.interior {
                    let pattern = TxPattern::Beam {
                        boresight: trial.boresights[i],
                        beamwidth,
                    };
                    let origin = trial.positions[i];
                    let mut degree = 0u64;
                    trial.grid.for_each_candidate(origin, |j| {
                        if j.0 != i && pattern.covers(origin, range, trial.positions[j.0]) {
                            degree += 1;
                        }
                    });
                    degrees.push(degree as f64);
                    if degree == 0 {
                        isolated += 1;
                    }
                }
            }
            let samples = degrees.count();
            let q = (config.n_avg / n) * (theta / 360.0);
            let theory_degree = (n - 1.0) * q;
            let theory_isolation = (1.0 - q).powi(config.nodes as i32 - 1);
            let measured_degree = degrees.mean().unwrap_or(0.0);
            let degree_se = degrees.std_error().unwrap_or(f64::INFINITY).max(1e-12);
            let measured_isolation = isolated as f64 / samples as f64;
            let isolation_se = (theory_isolation * (1.0 - theory_isolation) / samples as f64)
                .sqrt()
                .max(1e-12);
            ConnectivityRow {
                beamwidth_degrees: theta,
                measured_degree,
                theory_degree,
                degree_z: (measured_degree - theory_degree).abs() / degree_se,
                measured_isolation,
                theory_isolation,
                isolation_z: (measured_isolation - theory_isolation).abs() / isolation_se,
                samples,
            }
        })
        .collect()
}

/// Runs the experiment and renders the comparison table.
pub fn render(config: &Connectivity) -> String {
    let rows = run(config);
    let samples = rows.first().map_or(0, |r| r.samples);
    let mut out = format!(
        "Directional connectivity vs closed-form theory — {} nodes/field, \
         N = {}, {} trials, {} interior samples/aperture\n\
         (theory: exact binomial forms; Poisson limit μ = Nθ/2π, \
         P_iso = exp(−Nθ/2π))\n\n",
        config.nodes, config.n_avg, config.trials, samples
    );
    let mut t = Table::new(vec![
        "θ (deg)".into(),
        "out-degree (sim)".into(),
        "out-degree (theory)".into(),
        "z".into(),
        "isolation (sim)".into(),
        "isolation (theory)".into(),
        "z".into(),
    ]);
    for r in &rows {
        t.row(vec![
            format!("{:.0}", r.beamwidth_degrees),
            format!("{:.4}", r.measured_degree),
            format!("{:.4}", r.theory_degree),
            format!("{:.2}", r.degree_z),
            format!("{:.5}", r.measured_isolation),
            format!("{:.5}", r.theory_isolation),
            format!("{:.2}", r.isolation_z),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    #![expect(clippy::float_cmp, reason = "assertions compare exact expected values")]

    use super::*;

    /// The CI acceptance gate: every aperture's measured mean out-degree
    /// and isolation fraction sit within statistical tolerance of the
    /// closed forms. The seed is fixed, so this is deterministic — the
    /// 4.5σ bound leaves headroom for the mild positive correlation
    /// between degrees of nearby nodes (which the naive standard error
    /// understates) while still catching any real geometry defect, whose
    /// bias scales like σ·√samples.
    #[test]
    fn quick_field_matches_theory() {
        for row in run(&quick()) {
            assert!(
                row.degree_z <= 4.5,
                "mean out-degree off theory at θ={}: {row:?}",
                row.beamwidth_degrees
            );
            assert!(
                row.isolation_z <= 4.5,
                "isolation off theory at θ={}: {row:?}",
                row.beamwidth_degrees
            );
        }
    }

    #[test]
    fn degree_is_exactly_monotone_in_aperture() {
        // Sharing fields and boresights across apertures makes a wider
        // sector a strict superset of a narrower one, so the measured
        // means must be non-decreasing exactly, not just statistically.
        let rows = run(&quick());
        for pair in rows.windows(2) {
            assert!(
                pair[1].measured_degree >= pair[0].measured_degree,
                "degree fell as the sector widened: {pair:?}"
            );
        }
    }

    #[test]
    fn full_circle_recovers_the_omni_neighbourhood() {
        let config = quick();
        let rows = run(&config);
        let full = rows
            .iter()
            .find(|r| r.beamwidth_degrees == 360.0)
            .expect("quick() sweeps 360°");
        let omni_mean = (config.nodes as f64 - 1.0) * config.n_avg / config.nodes as f64;
        assert!(
            (full.theory_degree - omni_mean).abs() < 1e-9,
            "360° theory {} != omni mean {omni_mean}",
            full.theory_degree
        );
        assert!(
            (full.measured_degree - omni_mean).abs() / omni_mean < 0.05,
            "360° degree {} should be within 5% of N ≈ {omni_mean}",
            full.measured_degree
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&quick());
        let b = run(&quick());
        assert_eq!(a, b, "fixed-seed connectivity runs must be bit-identical");
    }

    #[test]
    fn render_includes_every_aperture() {
        let text = render(&quick());
        for theta in quick().beamwidths {
            assert!(text.contains(&format!("{theta:.0}")));
        }
    }
}
