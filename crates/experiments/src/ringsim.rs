//! The shared ring-topology simulation experiment (E3–E6).
//!
//! One *cell* of the paper's Figs. 6/7 is: a scheme, a neighbourhood size
//! `N`, and a beamwidth θ, evaluated over many random ring topologies. For
//! each topology we run the full 802.11 simulation and record the
//! aggregate throughput, mean delay, collision ratio, and Jain fairness of
//! the innermost `N` nodes; the cell's outcome is the distribution of
//! those per-topology values (the paper plots mean plus min–max range).

use std::fmt;

use crate::pool::parallel_indexed_catch;
use dirca_mac::{MacConfig, Scheme};
use dirca_net::salts::{RUN_STREAM_SALT, TOPOLOGY_STREAM_SALT};
use dirca_net::{
    run, run_guarded, FaultPlan, MobilityConfig, RunAborted, RunResult, SimConfig, Watchdog,
};
use dirca_radio::{ReceptionMode, SinrPhy};
use dirca_sim::{rng::derive_seed, rng::stream_rng, SimDuration};
use dirca_stats::{jain_index, Summary};
use dirca_topology::RingSpec;

/// One experiment cell: `topologies` random ring layouts simulated under a
/// single protocol configuration.
#[derive(Debug, Clone)]
pub struct RingExperiment {
    /// Collision-avoidance scheme under test.
    pub scheme: Scheme,
    /// Average neighbourhood size `N` (3, 5, or 8 in the paper).
    pub n_avg: usize,
    /// Beamwidth in degrees (30, 90, or 150 in the paper).
    pub beamwidth_degrees: f64,
    /// Number of random topologies (50 in the paper).
    pub topologies: usize,
    /// Master seed.
    pub seed: u64,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window per topology.
    pub measure: SimDuration,
    /// Receive-chain model.
    pub reception: ReceptionMode,
    /// MAC behaviour knobs (retry limits, EIFS, NAV handling).
    pub mac: MacConfig,
    /// Deterministic channel faults to inject (trivial = perfect channel).
    pub fault: FaultPlan,
    /// Optional mobility attachment (`None` = the paper's static layouts).
    pub mobility: Option<MobilityConfig>,
    /// Optional SINR-capture PHY (`None` = the binary collide rule).
    pub sinr: Option<SinrPhy>,
}

impl RingExperiment {
    /// The paper's configuration for one (scheme, N, θ) cell: 50
    /// topologies, 0.5 s warm-up, 10 s measurement, omni reception.
    pub fn paper(scheme: Scheme, n_avg: usize, beamwidth_degrees: f64) -> Self {
        RingExperiment {
            scheme,
            n_avg,
            beamwidth_degrees,
            topologies: 50,
            seed: 0xD1CA,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(10),
            reception: ReceptionMode::Omni,
            mac: MacConfig::default(),
            fault: FaultPlan::default(),
            mobility: None,
            sinr: None,
        }
    }

    /// A scaled-down configuration for smoke tests and benches.
    pub fn quick(scheme: Scheme, n_avg: usize, beamwidth_degrees: f64) -> Self {
        RingExperiment {
            topologies: 4,
            warmup: SimDuration::from_millis(100),
            measure: SimDuration::from_secs(1),
            ..Self::paper(scheme, n_avg, beamwidth_degrees)
        }
    }
}

/// Distribution of per-topology metrics for one cell.
#[derive(Debug, Clone, Default)]
pub struct RingOutcome {
    /// Aggregate throughput of the inner `N` nodes, normalized to the
    /// channel bit rate (so 1.0 = the 2 Mbps channel fully utilized with
    /// goodput).
    pub throughput: Summary,
    /// Mean MAC service delay of delivered packets, in milliseconds.
    pub delay_ms: Summary,
    /// Collision ratio (data transmissions losing their ACK / handshakes
    /// reaching the data stage).
    pub collision_ratio: Summary,
    /// Jain fairness index over the inner nodes' throughputs.
    pub jain: Summary,
}

/// Why a cell could not produce its samples. Failures name the lowest
/// failing topology index, so reports carry a reproducible coordinate.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFailure {
    /// A topology's simulation panicked; the payload is captured as text.
    Panicked {
        /// Index of the panicking topology.
        topology: usize,
        /// The stringified panic payload.
        message: String,
    },
    /// A topology's simulation tripped the watchdog budget.
    TimedOut {
        /// Index of the runaway topology.
        topology: usize,
        /// The structured abort report from the engine.
        aborted: RunAborted,
    },
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Panicked { topology, message } => {
                write!(f, "panicked in topology {topology}: {message}")
            }
            CellFailure::TimedOut { topology, aborted } => {
                write!(f, "timed out in topology {topology}: {aborted}")
            }
        }
    }
}

impl std::error::Error for CellFailure {}

/// Guard rails for one cell run: an optional per-topology watchdog budget,
/// plus a drill switch that makes topology 0 panic on purpose (used by the
/// CI fault drill to prove the isolation path end to end).
#[derive(Debug, Clone, Copy, Default)]
pub struct CellGuards {
    /// Event/sim-time budget applied to every topology simulation.
    pub watchdog: Option<Watchdog>,
    /// Deliberately panic in topology 0 instead of simulating.
    pub drill_panic: bool,
}

impl RingOutcome {
    /// Aggregates per-topology samples (in index order) into the cell's
    /// metric distributions.
    pub fn from_samples(samples: &[TopologySample]) -> Self {
        let mut agg = RingOutcome::default();
        for sample in samples {
            agg.throughput.push(sample.throughput);
            if let Some(d) = sample.delay_ms {
                agg.delay_ms.push(d);
            }
            if let Some(c) = sample.collision_ratio {
                agg.collision_ratio.push(c);
            }
            if let Some(j) = sample.jain {
                agg.jain.push(j);
            }
        }
        agg
    }
}

/// Runs one cell, spreading topologies over `threads` workers.
///
/// Results are deterministic for a given (`experiment`, `threads`-
/// independent) seed: each topology's generator and simulation derive
/// their streams from `seed` and the topology index only.
///
/// # Panics
///
/// Panics if any topology fails (see [`try_run_cell`] for the isolating
/// variant), including when a degree-constrained topology cannot be
/// generated.
pub fn run_cell(experiment: &RingExperiment, threads: usize) -> RingOutcome {
    let samples = try_run_cell(experiment, threads, &CellGuards::default())
        .unwrap_or_else(|failure| panic!("cell failed: {failure}"));
    RingOutcome::from_samples(&samples)
}

/// Runs one cell with per-topology panic isolation and an optional
/// watchdog, returning the raw per-topology samples in index order.
///
/// On failure the *lowest* failing topology index is reported, so the
/// outcome is deterministic regardless of which worker thread hit the
/// failure first.
pub fn try_run_cell(
    experiment: &RingExperiment,
    threads: usize,
    guards: &CellGuards,
) -> Result<Vec<TopologySample>, CellFailure> {
    let outcomes = parallel_indexed_catch(experiment.topologies, threads, |t| {
        if guards.drill_panic && t == 0 {
            panic!("drill: injected cell panic");
        }
        run_one_topology(experiment, t, guards.watchdog)
    });
    let mut samples = Vec::with_capacity(outcomes.len());
    for (t, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(Ok(sample)) => samples.push(sample),
            Ok(Err(aborted)) => {
                return Err(CellFailure::TimedOut {
                    topology: t,
                    aborted,
                })
            }
            Err(panic) => {
                return Err(CellFailure::Panicked {
                    topology: t,
                    message: panic.message,
                })
            }
        }
    }
    Ok(samples)
}

/// Per-topology metric sample — the raw material of a [`RingOutcome`] and
/// the unit stored in runner checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySample {
    /// Aggregate inner-node throughput normalized to the channel bit rate.
    pub throughput: f64,
    /// Mean MAC service delay in milliseconds, if anything was delivered.
    pub delay_ms: Option<f64>,
    /// Collision ratio, if any handshake reached the data stage.
    pub collision_ratio: Option<f64>,
    /// Jain fairness index, if computable.
    pub jain: Option<f64>,
}

/// Materializes topology `index` of an experiment cell: the generated ring
/// layout plus the fully-derived simulation config, exactly as
/// [`try_run_cell`] would run it. Exposed so external tooling (the trace
/// exporter, replay debuggers) can re-run any cell coordinate standalone.
///
/// # Panics
///
/// Panics if the degree-constrained topology cannot be generated.
pub fn topology_config(
    experiment: &RingExperiment,
    index: usize,
) -> (dirca_topology::Topology, SimConfig) {
    let spec = RingSpec::paper(experiment.n_avg, 1.0);
    let mut topo_rng = stream_rng(
        derive_seed(experiment.seed, TOPOLOGY_STREAM_SALT),
        index as u64,
    );
    let topology = spec
        .generate(&mut topo_rng)
        .expect("degree-constrained topology generation failed");
    let mut config = SimConfig::new(experiment.scheme)
        .with_beamwidth_degrees(experiment.beamwidth_degrees)
        .with_reception(experiment.reception)
        .with_seed(derive_seed(experiment.seed, RUN_STREAM_SALT + index as u64))
        .with_warmup(experiment.warmup)
        .with_measure(experiment.measure)
        .with_fault(experiment.fault.clone());
    if let Some(mobility) = experiment.mobility {
        config = config.with_mobility(mobility.model, mobility.epoch);
    }
    if let Some(sinr) = experiment.sinr {
        config = config.with_sinr(sinr);
    }
    config.mac = experiment.mac.clone();
    (topology, config)
}

fn run_one_topology(
    experiment: &RingExperiment,
    index: usize,
    watchdog: Option<Watchdog>,
) -> Result<TopologySample, RunAborted> {
    let (topology, config) = topology_config(experiment, index);
    let result: RunResult = match watchdog {
        None => run(&topology, &config),
        Some(w) => run_guarded(&topology, &config, w)?,
    };
    let bit_rate = config.params.bit_rate_bps as f64;
    Ok(TopologySample {
        throughput: result.aggregate_throughput_bps() / bit_rate,
        delay_ms: result.mean_delay().map(|d| d.as_secs_f64() * 1e3),
        collision_ratio: result.collision_ratio(),
        jain: jain_index(&result.node_throughputs_bps()),
    })
}

/// The paper's Figs. 6/7 grid: `N ∈ {3, 5, 8}` × `θ ∈ {30°, 90°, 150°}` ×
/// the three schemes.
pub fn paper_grid() -> Vec<(usize, f64, Scheme)> {
    let mut cells = Vec::new();
    for &n in &[3usize, 5, 8] {
        for &theta in &[30.0, 90.0, 150.0] {
            for scheme in Scheme::ALL {
                cells.push((n, theta, scheme));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheme: Scheme, n: usize, theta: f64) -> RingExperiment {
        RingExperiment {
            topologies: 2,
            warmup: SimDuration::from_millis(50),
            measure: SimDuration::from_millis(400),
            ..RingExperiment::paper(scheme, n, theta)
        }
    }

    #[test]
    fn cell_collects_all_topologies() {
        let out = run_cell(&tiny(Scheme::OrtsOcts, 3, 90.0), 2);
        assert_eq!(out.throughput.count(), 2);
        assert!(out.throughput.mean().unwrap() > 0.0);
    }

    #[test]
    fn cell_is_deterministic_across_thread_counts() {
        let exp = tiny(Scheme::DrtsDcts, 3, 30.0);
        let a = run_cell(&exp, 1);
        let b = run_cell(&exp, 4);
        // Per-topology samples are identical; only their aggregation order
        // differs, and Summary means of two values are order-insensitive up
        // to floating-point associativity.
        assert_eq!(a.throughput.count(), b.throughput.count());
        assert!((a.throughput.mean().unwrap() - b.throughput.mean().unwrap()).abs() < 1e-12);
        assert_eq!(a.throughput.min(), b.throughput.min());
        assert_eq!(a.throughput.max(), b.throughput.max());
    }

    #[test]
    fn delay_and_fairness_populate() {
        let out = run_cell(&tiny(Scheme::OrtsOcts, 3, 90.0), 2);
        assert!(out.delay_ms.count() > 0, "delay samples missing");
        assert!(out.jain.count() > 0, "fairness samples missing");
        let j = out.jain.mean().unwrap();
        assert!(j > 0.0 && j <= 1.0 + 1e-9);
    }

    #[test]
    fn try_run_cell_matches_run_cell_on_healthy_cells() {
        let exp = tiny(Scheme::OrtsOcts, 3, 90.0);
        let samples = try_run_cell(&exp, 2, &CellGuards::default()).unwrap();
        assert_eq!(samples.len(), 2);
        let direct = run_cell(&exp, 2);
        let rebuilt = RingOutcome::from_samples(&samples);
        assert_eq!(direct.throughput.min(), rebuilt.throughput.min());
        assert_eq!(direct.throughput.max(), rebuilt.throughput.max());
    }

    #[test]
    fn try_run_cell_samples_identical_across_thread_counts() {
        let exp = tiny(Scheme::DrtsOcts, 3, 90.0);
        let a = try_run_cell(&exp, 1, &CellGuards::default()).unwrap();
        let b = try_run_cell(&exp, 4, &CellGuards::default()).unwrap();
        assert_eq!(a, b, "samples must not depend on the thread count");
    }

    #[test]
    fn drill_panic_is_reported_with_its_topology() {
        let exp = tiny(Scheme::OrtsOcts, 3, 90.0);
        let guards = CellGuards {
            drill_panic: true,
            ..CellGuards::default()
        };
        let failure = try_run_cell(&exp, 2, &guards).unwrap_err();
        match failure {
            CellFailure::Panicked { topology, message } => {
                assert_eq!(topology, 0);
                assert!(message.contains("drill"), "{message}");
            }
            other => panic!("expected a panic failure, got {other:?}"),
        }
    }

    #[test]
    fn starved_watchdog_times_the_cell_out() {
        let exp = tiny(Scheme::OrtsOcts, 3, 90.0);
        let guards = CellGuards {
            watchdog: Some(Watchdog::max_events(50)),
            ..CellGuards::default()
        };
        let failure = try_run_cell(&exp, 2, &guards).unwrap_err();
        match failure {
            CellFailure::TimedOut { topology, aborted } => {
                assert_eq!(topology, 0, "the lowest index must be reported");
                assert_eq!(aborted.events, 50);
            }
            other => panic!("expected a timeout failure, got {other:?}"),
        }
        assert!(failure.to_string().contains("timed out in topology 0"));
    }

    #[test]
    fn generous_watchdog_is_invisible() {
        let exp = tiny(Scheme::OrtsOcts, 3, 90.0);
        let guards = CellGuards {
            watchdog: Some(Watchdog::max_events(u64::MAX)),
            ..CellGuards::default()
        };
        let guarded = try_run_cell(&exp, 2, &guards).unwrap();
        let free = try_run_cell(&exp, 2, &CellGuards::default()).unwrap();
        assert_eq!(guarded, free);
    }

    #[test]
    fn faulted_cell_is_deterministic_and_degraded() {
        let clean = tiny(Scheme::OrtsOcts, 3, 90.0);
        let noisy = RingExperiment {
            fault: FaultPlan::default().with_frame_error_rate(0.3),
            ..clean.clone()
        };
        let a = try_run_cell(&noisy, 1, &CellGuards::default()).unwrap();
        let b = try_run_cell(&noisy, 4, &CellGuards::default()).unwrap();
        assert_eq!(a, b, "faulted samples must be thread-count independent");
        let clean_out = run_cell(&clean, 2);
        let noisy_out = RingOutcome::from_samples(&a);
        assert!(
            noisy_out.throughput.mean().unwrap() < clean_out.throughput.mean().unwrap(),
            "a 30% FER must cost throughput"
        );
    }

    #[test]
    fn topology_config_reproduces_the_cell_sample() {
        // The exposed coordinate → (topology, config) mapping must be the
        // exact one the cell runner uses, or replay tooling would debug a
        // different run than the one reported.
        let exp = tiny(Scheme::OrtsOcts, 3, 90.0);
        let samples = try_run_cell(&exp, 2, &CellGuards::default()).unwrap();
        for (index, expected) in samples.iter().enumerate() {
            let (topology, config) = topology_config(&exp, index);
            let result = dirca_net::run(&topology, &config);
            let throughput = result.aggregate_throughput_bps() / config.params.bit_rate_bps as f64;
            assert_eq!(throughput, expected.throughput, "topology {index}");
            assert_eq!(result.collision_ratio(), expected.collision_ratio);
        }
    }

    #[test]
    fn paper_grid_has_27_cells() {
        let grid = paper_grid();
        assert_eq!(grid.len(), 27);
        assert!(grid
            .iter()
            .any(|&(n, t, s)| n == 8 && t == 150.0 && s == Scheme::DrtsOcts));
    }
}
