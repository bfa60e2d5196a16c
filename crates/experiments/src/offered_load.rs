//! E9 — extension: throughput and delay vs offered load.
//!
//! The paper evaluates only the saturated regime. This experiment sweeps a
//! Poisson per-node arrival rate on ring topologies and records carried
//! load and end-to-end delay, exposing the classic MAC load curve: linear
//! carry-through at light load, then saturation at each scheme's capacity
//! — with the directional schemes saturating later (their spatial-reuse
//! advantage) and keeping delay lower on the way up.

use crate::ringsim::{run_topologies, CellFailure, CellGuards, RingExperiment};

use dirca_mac::Scheme;
use dirca_net::{SimConfig, TrafficModel};
use dirca_sim::SimDuration;
use dirca_stats::Summary;

/// The beamwidth θ of [`LoadSweep::default`], in degrees.
pub const DEFAULT_THETA: f64 = 30.0;

/// One point of the load sweep for one scheme.
#[derive(Debug, Clone, Default)]
pub struct LoadPoint {
    /// Offered load per node, packets per second.
    pub offered_pps: f64,
    /// Carried (acked) normalized throughput of the inner nodes.
    pub throughput: Summary,
    /// Mean end-to-end delay of delivered packets, milliseconds.
    pub e2e_delay_ms: Summary,
    /// Source-queue drops per topology.
    pub queue_drops: Summary,
    /// Every topology whose simulation failed, in index order. The
    /// summaries above aggregate only the surviving topologies; callers
    /// should surface these (and exit nonzero) rather than trust a
    /// silently thinner sample.
    pub failed_topologies: Vec<CellFailure>,
}

/// Configuration of the offered-load sweep.
#[derive(Debug, Clone)]
pub struct LoadSweep {
    /// The ring cell every point runs: N, θ, topologies, seed and
    /// windows; each point sets the scheme and the Poisson rate.
    pub base: RingExperiment,
    /// Offered loads to evaluate, packets per second per node.
    pub rates_pps: Vec<f64>,
}

impl Default for LoadSweep {
    fn default() -> Self {
        LoadSweep {
            base: RingExperiment {
                n_avg: 5,
                topologies: 8,
                seed: 0x10AD,
                config: SimConfig::new(Scheme::OrtsOcts)
                    .with_beamwidth_degrees(DEFAULT_THETA)
                    .with_warmup(SimDuration::from_millis(200))
                    .with_measure(SimDuration::from_secs(5)),
            },
            rates_pps: vec![2.0, 5.0, 10.0, 20.0, 40.0, 80.0],
        }
    }
}

/// Runs the sweep for `scheme`, spreading topologies over `threads`
/// workers, and returns one [`LoadPoint`] per rate.
pub fn run_sweep(scheme: Scheme, sweep: &LoadSweep, threads: usize) -> Vec<LoadPoint> {
    sweep
        .rates_pps
        .iter()
        .map(|&rate| {
            let mut experiment = sweep.base.clone();
            experiment.config.scheme = scheme;
            experiment.config = experiment.config.with_traffic(TrafficModel::Poisson {
                packets_per_sec: rate,
                max_queue: 32,
            });
            run_point(&experiment, rate, threads)
        })
        .collect()
}

fn run_point(experiment: &RingExperiment, rate: f64, threads: usize) -> LoadPoint {
    let bit_rate = experiment.config.params.bit_rate_bps as f64;
    let outcomes = run_topologies(experiment, threads, &CellGuards::default(), |result, _| {
        (
            result.aggregate_throughput_bps() / bit_rate,
            result.mean_e2e_delay(),
            result.queue_drops() as f64,
        )
    });
    let mut point = LoadPoint {
        offered_pps: rate,
        ..LoadPoint::default()
    };
    for outcome in outcomes {
        match outcome {
            Ok((throughput, delay, drops)) => {
                point.throughput.push(throughput);
                if let Some(d) = delay {
                    point.e2e_delay_ms.push(d.as_secs_f64() * 1e3);
                }
                point.queue_drops.push(drops);
            }
            Err(failure) => point.failed_topologies.push(failure),
        }
    }
    point
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn tiny() -> LoadSweep {
        let mut sweep = LoadSweep {
            rates_pps: vec![5.0, 60.0],
            ..LoadSweep::default()
        };
        sweep.base.n_avg = 3;
        sweep.base.topologies = 2;
        sweep.base.config.measure = SimDuration::from_secs(1);
        sweep
    }

    #[test]
    fn sweep_produces_one_point_per_rate() {
        let points = run_sweep(Scheme::OrtsOcts, &tiny(), 2);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].offered_pps, 5.0);
        assert_eq!(points[0].throughput.count(), 2);
    }

    #[test]
    fn carried_load_increases_with_offered_load() {
        let points = run_sweep(Scheme::OrtsOcts, &tiny(), 2);
        let light = points[0].throughput.mean().unwrap();
        let heavy = points[1].throughput.mean().unwrap();
        assert!(heavy > light, "carried load must rise: {heavy} <= {light}");
    }

    #[test]
    fn every_failed_topology_is_listed() {
        // A link fault on a node no ring has fails the world build of every
        // topology: the point must name each one, not only the first.
        let unknown = dirca_radio::NodeId(10_000);
        let fault = dirca_net::FaultPlan::default().with_link_fault(unknown, unknown, 0.5);
        let experiment = RingExperiment {
            n_avg: 3,
            topologies: 3,
            seed: 1,
            config: SimConfig::new(Scheme::OrtsOcts).with_fault(fault),
        };
        let point = run_point(&experiment, 5.0, 2);
        let failed: Vec<String> = point
            .failed_topologies
            .iter()
            .map(|f| f.to_string())
            .collect();
        assert_eq!(failed.len(), 3, "{failed:?}");
        for (t, failure) in failed.iter().enumerate() {
            let want = format!("panicked in topology {t}: invalid fault plan");
            assert!(failure.starts_with(&want), "{failure}");
        }
        assert_eq!(point.throughput.count(), 0);
    }

    #[test]
    fn delay_increases_with_offered_load() {
        let points = run_sweep(Scheme::OrtsOcts, &tiny(), 2);
        let light = points[0].e2e_delay_ms.mean().unwrap();
        let heavy = points[1].e2e_delay_ms.mean().unwrap();
        assert!(
            heavy > light,
            "delay must rise with load: {heavy} <= {light}"
        );
    }
}
