//! The shared ring-topology simulation experiment (E3–E6, and every
//! extension that runs "on the paper's rings").
//!
//! One *cell* of the paper's Figs. 6/7 is: a scheme, a neighbourhood size
//! `N`, and a beamwidth θ, evaluated over many random ring topologies. For
//! each topology we run the full 802.11 simulation and record the
//! aggregate throughput, mean delay, collision ratio, and Jain fairness of
//! the innermost `N` nodes; the cell's outcome is the distribution of
//! those per-topology values (the paper plots mean plus min–max range).
//!
//! This is the only code that turns a ring experiment into simulations:
//! [`topology_config`] derives topology `t`'s layout and run seed, and
//! [`run_topologies`] hands each run's result (and topology 0's recorded
//! ring, when traced) to a caller's extractor. The grid ([`try_run_cell`])
//! and the ring extensions differ only in the [`SimConfig`] they carry
//! and what they extract.

use std::fmt;

use crate::pool::parallel_indexed_catch;
use crate::tracegrid::TRACE_CAPACITY;
use dirca_mac::Scheme;
use dirca_net::salts::{RUN_STREAM_SALT, TOPOLOGY_STREAM_SALT};
use dirca_net::trace::RingTrace;
use dirca_net::{run_with, RunAborted, RunResult, SimConfig, Watchdog};
use dirca_sim::{rng::derive_seed, rng::stream_rng, SimDuration};
use dirca_stats::{jain_index, Summary};
use dirca_topology::RingSpec;
use rand::rngs::SmallRng;

/// One experiment cell: `topologies` random ring layouts simulated under a
/// single protocol configuration.
#[derive(Debug, Clone)]
pub struct RingExperiment {
    /// Average neighbourhood size `N` (3, 5, or 8 in the paper).
    pub n_avg: usize,
    /// Number of random topologies (50 in the paper).
    pub topologies: usize,
    /// Master seed: topology `t`'s layout and run streams derive from it
    /// and `t` only.
    pub seed: u64,
    /// The run configuration every topology shares (scheme, beamwidth,
    /// reception, MAC, traffic, windows, faults, mobility, SINR). Its own
    /// `seed` is ignored: each topology runs under the seed
    /// [`topology_config`] derives.
    pub config: SimConfig,
}

impl RingExperiment {
    /// The paper's configuration for one (scheme, N, θ) cell: 50
    /// topologies, 0.5 s warm-up, 10 s measurement, omni reception.
    ///
    /// # Panics
    ///
    /// Panics if `beamwidth_degrees` is outside `(0, 360]`.
    pub fn paper(scheme: Scheme, n_avg: usize, beamwidth_degrees: f64) -> Self {
        RingExperiment {
            n_avg,
            topologies: 50,
            seed: 0xD1CA,
            config: SimConfig::new(scheme).with_beamwidth_degrees(beamwidth_degrees),
        }
    }

    /// A scaled-down configuration for smoke tests and benches.
    pub fn quick(scheme: Scheme, n_avg: usize, beamwidth_degrees: f64) -> Self {
        let mut experiment = Self::paper(scheme, n_avg, beamwidth_degrees);
        experiment.topologies = 4;
        experiment.config.warmup = SimDuration::from_millis(100);
        experiment.config.measure = SimDuration::from_secs(1);
        experiment
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
/// a drill switch that makes topology 0 panic on purpose (used by the CI
/// fault drill to prove the isolation path end to end), and whether
/// topology 0 runs with the trace recorder attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellGuards {
    /// Event/sim-time budget applied to every topology simulation.
    pub watchdog: Option<Watchdog>,
    /// Deliberately panic in topology 0 instead of simulating.
    pub drill_panic: bool,
    /// Attach a ring of [`TRACE_CAPACITY`] records to topology 0's run and
    /// hand it to the extractor. Recording never perturbs the run.
    pub trace: bool,
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
    run_topologies(experiment, threads, guards, |result, _| {
        TopologySample::of(experiment, result)
    })
    .into_iter()
    .collect()
}

/// Runs every topology of `experiment` ([`topology_config`], then the
/// simulation, under `guards`) across up to `threads` workers and hands
/// each [`RunResult`] to `extract`, with the recorded ring when
/// `guards.trace` attached one (topology 0 only). Returns one outcome per
/// topology in index order, whatever the thread count: a panicking or
/// timed-out topology yields its [`CellFailure`] and the others still
/// run.
pub fn run_topologies<T, F>(
    experiment: &RingExperiment,
    threads: usize,
    guards: &CellGuards,
    extract: F,
) -> Vec<Result<T, CellFailure>>
where
    T: Send,
    F: Fn(&RunResult, Option<&RingTrace>) -> T + Sync,
{
    let outcomes = parallel_indexed_catch(experiment.topologies, threads, |t| {
        if guards.drill_panic && t == 0 {
            panic!("drill: injected cell panic");
        }
        let (topology, config) = topology_config(experiment, t);
        let recorder = (guards.trace && t == 0).then(|| RingTrace::with_capacity(TRACE_CAPACITY));
        run_with(&topology, &config, guards.watchdog, recorder)
            .map(|(result, ring)| extract(&result, ring.as_ref()))
    });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(topology, outcome)| match outcome {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(aborted)) => Err(CellFailure::TimedOut { topology, aborted }),
            Err(message) => Err(CellFailure::Panicked { topology, message }),
        })
        .collect()
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

impl TopologySample {
    /// The sample of one of `experiment`'s topology runs.
    pub(crate) fn of(experiment: &RingExperiment, result: &RunResult) -> Self {
        let bit_rate = experiment.config.params.bit_rate_bps as f64;
        TopologySample {
            throughput: result.aggregate_throughput_bps() / bit_rate,
            delay_ms: result.mean_delay().map(|d| d.as_secs_f64() * 1e3),
            collision_ratio: result.collision_ratio(),
            jain: jain_index(&result.node_throughputs_bps()),
        }
    }
}

/// Materializes topology `index` of an experiment cell: the generated ring
/// layout plus the experiment's config under the topology's derived seed,
/// exactly as [`run_topologies`] runs it. Exposed so external tooling
/// (replay debuggers, perfbench) can re-run any cell coordinate
/// standalone.
///
/// # Panics
///
/// Panics if the degree-constrained topology cannot be generated.
pub fn topology_config(
    experiment: &RingExperiment,
    index: usize,
) -> (dirca_topology::Topology, SimConfig) {
    let topology = RingSpec::paper(experiment.n_avg, 1.0)
        .generate(&mut topology_rng(experiment.seed, index))
        .expect("degree-constrained topology generation failed");
    let mut config = experiment.config.clone();
    config.seed = derive_seed(experiment.seed, RUN_STREAM_SALT + index as u64);
    (topology, config)
}

/// The layout stream of random topology `index` under master `seed`. Every
/// experiment that draws numbered random layouts (the rings here, the
/// Poisson fields of E18) draws topology `index` from this stream.
pub(crate) fn topology_rng(seed: u64, index: usize) -> SmallRng {
    stream_rng(derive_seed(seed, TOPOLOGY_STREAM_SALT), index as u64)
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
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use dirca_net::FaultPlan;

    fn tiny(scheme: Scheme, n: usize, theta: f64) -> RingExperiment {
        let mut exp = RingExperiment::paper(scheme, n, theta);
        exp.topologies = 2;
        exp.config.warmup = SimDuration::from_millis(50);
        exp.config.measure = SimDuration::from_millis(400);
        exp
    }

    #[test]
    fn cell_collects_all_topologies() {
        let out = run_cell(&tiny(Scheme::OrtsOcts, 3, 90.0), 2);
        assert_eq!(out.throughput.count(), 2);
        assert!(out.throughput.mean().unwrap() > 0.0);
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
    fn results_are_identical_across_thread_counts() {
        let exp = tiny(Scheme::DrtsOcts, 3, 90.0);
        let guards = CellGuards::default();
        let a = try_run_cell(&exp, 1, &guards).unwrap();
        let b = try_run_cell(&exp, 4, &guards).unwrap();
        assert_eq!(a, b, "samples must not depend on the thread count");
        let extract = |result: &RunResult, _: Option<&RingTrace>| {
            (result.airtime_breakdown().total(), result.queue_drops())
        };
        let a = run_topologies(&exp, 1, &guards, extract);
        assert!(a.iter().all(Result::is_ok), "{a:?}");
        assert_eq!(a, run_topologies(&exp, 4, &guards, extract));
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
        let mut noisy = clean.clone();
        noisy.config.fault = FaultPlan::default().with_frame_error_rate(0.3);
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
