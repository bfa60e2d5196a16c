//! Network assembly: the simulated world tying together the MAC variants,
//! the directional radio, and saturated CBR traffic.
//!
//! This crate is the equivalent of GloMoSim's node glue in the paper's
//! experiments. It provides:
//!
//! * [`NetWorld`] — the [`dirca_sim::World`] implementation: per-node
//!   [`dirca_mac::DcfMac`] + [`dirca_radio::Transceiver`], the
//!   [`dirca_radio::CoveragePlan`] of their shared channel, and the event
//!   plumbing between them. Every
//!   run drives it on the one sequential [`dirca_sim::Simulation`] loop,
//! * [`SimConfig`] — one experiment's knobs (scheme, beamwidth, reception
//!   mode, traffic, warm-up/measurement windows, seed),
//! * [`run`] — builds the world from a [`dirca_topology::Topology`], runs
//!   warm-up and measurement, and returns a [`RunResult`] with per-node
//!   counters and aggregate throughput/delay/collision-ratio metrics;
//!   [`run_with`] is the same run under an optional watchdog and recorder.
//!
//! # Example
//!
//! ```
//! use dirca_mac::Scheme;
//! use dirca_net::{run, SimConfig};
//! use dirca_topology::fixtures;
//!
//! // Two saturated nodes exchanging 1460-byte packets over 802.11.
//! let topo = fixtures::pair(0.5, 1.0);
//! let config = SimConfig::new(Scheme::OrtsOcts).with_seed(7);
//! let result = run(&topo, &config);
//! assert!(result.packets_acked() > 0);
//! assert!(result.aggregate_throughput_bps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
mod config;
mod result;
pub mod salts;
pub mod trace;
mod world;

pub use config::{MobilityConfig, SimConfig, TrafficModel};
pub use result::{NodeReport, RunResult};
pub use world::{AirtimeBreakdown, AppStats, NetEvent, NetWorld};

// Fault-injection plumbing, re-exported so experiment code can configure a
// faulted run without depending on the radio crate directly.
pub use dirca_geometry::Beamwidth;
pub use dirca_radio::{
    AntennaPattern, FaultPlan, FaultPlanError, InvalidationStats, LinkFault, Outage, SinrPhy,
};
pub use dirca_sim::{RunAborted, Watchdog};
pub use dirca_topology::MobilityModel;

use dirca_sim::{SimTime, Simulation};
use dirca_topology::Topology;
use dirca_trace::RingTrace;

/// Builds a [`NetWorld`] from `topology` and `config`, runs the warm-up and
/// measurement windows, and collects the results.
///
/// Counters are reset after the warm-up so start-of-run transients (empty
/// NAVs, synchronized first draws) do not bias the measurement.
///
/// # Panics
///
/// Panics if the topology is empty or node positions are invalid for the
/// channel (see [`NetWorld::build`]).
pub fn run(topology: &Topology, config: &SimConfig) -> RunResult {
    run_with(topology, config, None, None)
        .unwrap_or_else(|abort| panic!("{abort}"))
        .0
}

/// The one classic run lifecycle: build, attach `recorder`, prime, warm
/// up, reset, measure, collect. The whole run (warm-up and measurement)
/// executes under `watchdog`: a tripped budget returns the structured
/// [`RunAborted`] instead of spinning or panicking, so sweep harnesses can
/// report a stuck cell and move on; `None` installs no watchdog, so the
/// event loop checks nothing. Returns the recorder with the result.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`run`].
pub fn run_with(
    topology: &Topology,
    config: &SimConfig,
    watchdog: Option<Watchdog>,
    recorder: Option<RingTrace>,
) -> Result<(RunResult, Option<RingTrace>), RunAborted> {
    let mut world = NetWorld::build(topology, config);
    world.recorder = recorder;
    let mut sim = Simulation::new(world);
    sim.set_watchdog(watchdog);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    let warmup_end = SimTime::ZERO + config.warmup;
    sim.try_run_until(warmup_end)?;
    sim.world_mut().reset_counters();
    let end = warmup_end + config.measure;
    sim.try_run_until(end)?;
    let events = sim.events_processed();
    let recorder = sim.world_mut().take_recorder();
    let result = RunResult::collect(sim.into_world(), config.measure, events);
    Ok((result, recorder))
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use dirca_mac::Scheme;
    use dirca_sim::SimDuration;
    use dirca_topology::fixtures;

    fn quick(scheme: Scheme) -> SimConfig {
        SimConfig::new(scheme)
            .with_seed(42)
            .with_warmup(SimDuration::from_millis(50))
            .with_measure(SimDuration::from_millis(500))
    }

    #[test]
    fn isolated_pair_reaches_high_utilization() {
        // A single saturated link: utilization should approach the
        // protocol's efficiency ceiling (data / (overheads + data)), which
        // for these parameters is roughly 75%. Anything above 60% proves
        // the handshake pipeline is not stalling.
        let topo = fixtures::pair(0.5, 1.0);
        let r = run(&topo, &quick(Scheme::OrtsOcts));
        let util = r.aggregate_throughput_bps() / 2e6;
        assert!(util > 0.6, "utilization {util} too low");
        assert_eq!(r.packets_dropped(), 0, "no drops expected on a clean link");
    }

    #[test]
    fn hidden_terminal_pair_still_delivers() {
        let topo = fixtures::hidden_terminal();
        let r = run(&topo, &quick(Scheme::OrtsOcts));
        assert!(r.packets_acked() > 0);
    }

    #[test]
    fn all_schemes_work_on_parallel_pairs() {
        let topo = fixtures::parallel_pairs();
        for scheme in Scheme::ALL {
            let r = run(&topo, &quick(scheme));
            assert!(
                r.packets_acked() > 10,
                "{scheme} delivered too little: {}",
                r.packets_acked()
            );
        }
    }

    #[test]
    fn narrow_beams_enable_spatial_reuse() {
        // On the parallel-pairs fixture the two links interfere under
        // omni transmissions but can run concurrently under narrow beams:
        // DRTS-DCTS must beat ORTS-OCTS in aggregate throughput.
        let topo = fixtures::parallel_pairs();
        let mut omni_cfg = quick(Scheme::OrtsOcts);
        let mut beam_cfg = quick(Scheme::DrtsDcts).with_beamwidth_degrees(30.0);
        omni_cfg.measure = SimDuration::from_secs(2);
        beam_cfg.measure = SimDuration::from_secs(2);
        let omni = run(&topo, &omni_cfg);
        let beam = run(&topo, &beam_cfg);
        assert!(
            beam.aggregate_throughput_bps() > 1.3 * omni.aggregate_throughput_bps(),
            "beam {} vs omni {}",
            beam.aggregate_throughput_bps(),
            omni.aggregate_throughput_bps()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let topo = fixtures::hidden_terminal();
        let a = run(&topo, &quick(Scheme::DrtsOcts));
        let b = run(&topo, &quick(Scheme::DrtsOcts));
        assert_eq!(a.packets_acked(), b.packets_acked());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.aggregate_throughput_bps(), b.aggregate_throughput_bps());
    }

    #[test]
    fn different_seeds_differ() {
        let topo = fixtures::hidden_terminal();
        let a = run(&topo, &quick(Scheme::OrtsOcts).with_seed(1));
        let b = run(&topo, &quick(Scheme::OrtsOcts).with_seed(2));
        // With contention the exact event counts will almost surely differ.
        assert_ne!(
            (a.events_processed(), a.packets_acked()),
            (b.events_processed(), b.packets_acked())
        );
    }
}
