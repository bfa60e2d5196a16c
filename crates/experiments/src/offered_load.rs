//! E9 — extension: throughput and delay vs offered load.
//!
//! The paper evaluates only the saturated regime. This experiment sweeps a
//! Poisson per-node arrival rate on ring topologies and records carried
//! load and end-to-end delay, exposing the classic MAC load curve: linear
//! carry-through at light load, then saturation at each scheme's capacity
//! — with the directional schemes saturating later (their spatial-reuse
//! advantage) and keeping delay lower on the way up.

use crate::pool::parallel_indexed_catch;

use dirca_mac::Scheme;
use dirca_net::salts::{RUN_STREAM_SALT, TOPOLOGY_STREAM_SALT};
use dirca_net::{run, SimConfig, TrafficModel};
use dirca_sim::{rng::derive_seed, rng::stream_rng, SimDuration};
use dirca_stats::Summary;
use dirca_topology::RingSpec;

/// One point of the load sweep for one scheme.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load per node, packets per second.
    pub offered_pps: f64,
    /// Carried (acked) normalized throughput of the inner nodes.
    pub throughput: Summary,
    /// Mean end-to-end delay of delivered packets, milliseconds.
    pub e2e_delay_ms: Summary,
    /// Source-queue drops per topology.
    pub queue_drops: Summary,
    /// Topologies whose simulation panicked, with the panic text. The
    /// summaries above aggregate only the surviving topologies; callers
    /// should surface these (and exit nonzero) rather than trust a
    /// silently thinner sample.
    pub failed_topologies: Vec<(usize, String)>,
}

/// Configuration of the offered-load sweep.
#[derive(Debug, Clone)]
pub struct LoadSweep {
    /// Neighbourhood size `N` of the ring topologies.
    pub n_avg: usize,
    /// Beamwidth for the directional schemes, degrees.
    pub beamwidth_degrees: f64,
    /// Offered loads to evaluate, packets per second per node.
    pub rates_pps: Vec<f64>,
    /// Random topologies per point.
    pub topologies: usize,
    /// Master seed.
    pub seed: u64,
    /// Measurement window per topology.
    pub measure: SimDuration,
}

impl Default for LoadSweep {
    fn default() -> Self {
        LoadSweep {
            n_avg: 5,
            beamwidth_degrees: 30.0,
            rates_pps: vec![2.0, 5.0, 10.0, 20.0, 40.0, 80.0],
            topologies: 8,
            seed: 0x10AD,
            measure: SimDuration::from_secs(5),
        }
    }
}

/// Runs the sweep for `scheme`, spreading topologies over `threads`
/// workers, and returns one [`LoadPoint`] per rate.
pub fn run_sweep(scheme: Scheme, sweep: &LoadSweep, threads: usize) -> Vec<LoadPoint> {
    sweep
        .rates_pps
        .iter()
        .map(|&rate| run_point(scheme, sweep, rate, threads.max(1)))
        .collect()
}

fn run_point(scheme: Scheme, sweep: &LoadSweep, rate: f64, threads: usize) -> LoadPoint {
    let samples = parallel_indexed_catch(sweep.topologies, threads, |t| {
        let spec = RingSpec::paper(sweep.n_avg, 1.0);
        let mut topo_rng = stream_rng(derive_seed(sweep.seed, TOPOLOGY_STREAM_SALT), t as u64);
        let topology = spec.generate(&mut topo_rng).expect("topology generation");
        let config = SimConfig::new(scheme)
            .with_beamwidth_degrees(sweep.beamwidth_degrees)
            .with_seed(derive_seed(sweep.seed, RUN_STREAM_SALT + t as u64))
            .with_traffic(TrafficModel::Poisson {
                packets_per_sec: rate,
                max_queue: 32,
            })
            .with_warmup(SimDuration::from_millis(200))
            .with_measure(sweep.measure);
        let result = run(&topology, &config);
        (
            result.aggregate_throughput_bps() / config.params.bit_rate_bps as f64,
            result.mean_e2e_delay(),
            result.queue_drops() as f64,
        )
    });
    let mut point = LoadPoint {
        offered_pps: rate,
        throughput: Summary::new(),
        e2e_delay_ms: Summary::new(),
        queue_drops: Summary::new(),
        failed_topologies: Vec::new(),
    };
    for outcome in samples {
        match outcome {
            Ok((throughput, delay, drops)) => {
                point.throughput.push(throughput);
                if let Some(d) = delay {
                    point.e2e_delay_ms.push(d.as_secs_f64() * 1e3);
                }
                point.queue_drops.push(drops);
            }
            Err(panic) => point.failed_topologies.push((panic.index, panic.message)),
        }
    }
    point
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn tiny() -> LoadSweep {
        LoadSweep {
            rates_pps: vec![5.0, 60.0],
            topologies: 2,
            measure: SimDuration::from_secs(1),
            n_avg: 3,
            ..LoadSweep::default()
        }
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
