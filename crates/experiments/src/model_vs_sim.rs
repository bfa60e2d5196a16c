//! E14 — validation: analysis vs simulation on the model's own substrate.
//!
//! The paper validates its model against ring-topology simulations; here
//! we go one step closer and simulate directly on Poisson fields (disk of
//! radius 3R, metrics from the boundary-free core of radius R — exactly
//! the analytical model's setting), then compare per-scheme *normalized
//! per-node* throughput against the model's optimum. Absolute values
//! differ by construction (the model's `p` abstraction has no BEB), so the
//! comparison is about ordering and trend.

use crate::pool::parallel_indexed_catch;

use dirca_analysis::optimize::max_throughput;
use dirca_analysis::{ModelInput, ProtocolTimes};
use dirca_mac::Scheme;
use dirca_net::salts::{MODEL_RUN_STREAM_SALT, MODEL_STREAM_SALT};
use dirca_net::{run, SimConfig};
use dirca_sim::{rng::derive_seed, rng::stream_rng, SimDuration};
use dirca_stats::Summary;
use dirca_topology::poisson_core;

/// One (scheme, θ) comparison cell.
#[derive(Debug, Clone)]
pub struct ComparisonCell {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Beamwidth in degrees.
    pub theta_degrees: f64,
    /// Analytical maximum achievable throughput (per node, normalized).
    pub analytical: f64,
    /// Simulated per-core-node throughput, normalized to the channel rate.
    pub simulated: Summary,
}

/// Runs the comparison grid for density `n_avg` over `theta_degrees`.
pub fn compare(
    n_avg: f64,
    theta_degrees: &[f64],
    fields: usize,
    measure: SimDuration,
    seed: u64,
    threads: usize,
) -> Vec<ComparisonCell> {
    let mut cells = Vec::new();
    for &deg in theta_degrees {
        let input = ModelInput::new(ProtocolTimes::paper(), n_avg, deg.to_radians());
        for scheme in Scheme::ALL {
            let analytical = max_throughput(scheme, &input).throughput;
            let simulated = simulate(scheme, n_avg, deg, fields, measure, seed, threads);
            cells.push(ComparisonCell {
                scheme,
                theta_degrees: deg,
                analytical,
                simulated,
            });
        }
    }
    cells
}

fn simulate(
    scheme: Scheme,
    n_avg: f64,
    theta_deg: f64,
    fields: usize,
    measure: SimDuration,
    seed: u64,
    threads: usize,
) -> Summary {
    let samples = parallel_indexed_catch(fields, threads, |f| {
        let mut rng = stream_rng(derive_seed(seed, MODEL_STREAM_SALT + f as u64), 0);
        let topology = poisson_core(&mut rng, n_avg, 1.0, 3.0, 1.0);
        if topology.measured == 0 || topology.len() < 2 {
            return None; // an empty core contributes no sample
        }
        let config = SimConfig::new(scheme)
            .with_beamwidth_degrees(theta_deg)
            .with_seed(derive_seed(seed, MODEL_RUN_STREAM_SALT + f as u64))
            .with_warmup(SimDuration::from_millis(200))
            .with_measure(measure);
        let result = run(&topology, &config);
        // Per-node normalized throughput: comparable to the model's
        // per-node time fraction.
        Some(result.mean_node_throughput_bps() / 2e6)
    });
    let mut out = Summary::new();
    for (f, outcome) in samples.into_iter().enumerate() {
        out.extend(outcome.unwrap_or_else(|message| panic!("job {f} panicked: {message}")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_agree_at_narrow_beams() {
        // At θ = 30°, both columns must rank the directional schemes above
        // the omni scheme.
        let cells = compare(5.0, &[30.0], 6, SimDuration::from_secs(2), 7, 2);
        assert_eq!(cells.len(), 3);
        let get = |s: Scheme| {
            cells
                .iter()
                .find(|c| c.scheme == s)
                .expect("cell present")
                .clone()
        };
        let omni = get(Scheme::OrtsOcts);
        let dir = get(Scheme::DrtsDcts);
        assert!(dir.analytical > omni.analytical);
        assert!(
            dir.simulated.mean().unwrap() > omni.simulated.mean().unwrap(),
            "simulation ordering disagrees: dir {:?} vs omni {:?}",
            dir.simulated.mean(),
            omni.simulated.mean()
        );
    }
}
