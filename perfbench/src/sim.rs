//! The three simulation workloads: `paper_grid`, `field_100k` and
//! `mobile_sinr_500`.
//!
//! Each replicates `dirca_net::run` from its public pieces (generate →
//! `NetWorld::build` → prime → warm-up → `reset_counters` → measure) so
//! set-up and simulation are timed apart, always on one thread. One
//! operation is one simulated topology; a pass is the workload's fixed
//! list of operations, repeated until the time budget is spent. Every
//! pass must reproduce the first pass's output digests exactly. Timings
//! are taken per block of a fixed number of passes (see
//! [`blocked_fastest`]).

#[cfg(feature = "trace")]
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(feature = "trace")]
use std::rc::Rc;
use std::time::Instant;

use dirca_experiments::ringsim::{topology_config, try_run_cell, CellGuards, RingExperiment};
use dirca_mac::{DcfMac, Scheme};
use dirca_net::salts::MOBILITY_STREAM_SALT;
use dirca_net::{
    run, InvalidationStats, MobilityModel, NetWorld, NodeReport, RunResult, SimConfig, SinrPhy,
};
use dirca_radio::{Channel, CoveragePlan, DynamicCoveragePlan, NodeId};
use dirca_sim::rng::derive_seed;
use dirca_sim::{EventQueue, SimDuration, SimTime, Simulation};
use dirca_stats::jain_index;
use dirca_topology::{poisson_field_pinned, MobilityState, Topology};

#[cfg(feature = "trace")]
use crate::probe::{ClassTotals, DispatchProfiler, CLASSES};
use crate::stats::{blocked_fastest, median, tail, Fnv, Metrics, Work};
use crate::{Outcome, Workload};

/// Master salt of the benchmark's own input streams.
const BENCH_SALT: u64 = 0xBE_4C4D;

/// One operation: a topology plus the run configuration, generated on
/// demand so that generation is part of the timed set-up.
#[derive(Debug, Clone)]
enum OpSpec {
    /// Topology `index` of a quick-profile paper-grid cell.
    Ring {
        experiment: RingExperiment,
        index: usize,
    },
    /// A pinned Poisson field.
    Field {
        seed: u64,
        nodes: usize,
        config: SimConfig,
    },
}

impl OpSpec {
    fn generate(&self) -> (Topology, SimConfig) {
        match self {
            OpSpec::Ring { experiment, index } => topology_config(experiment, *index),
            OpSpec::Field {
                seed,
                nodes,
                config,
            } => (
                poisson_field_pinned(*seed, *nodes, 8.0, 1.0),
                config.clone(),
            ),
        }
    }
}

/// One pass's operations and how a run times them.
struct Plan {
    ops: Vec<OpSpec>,
    /// Passes per timing block (see [`blocked_fastest`]), sized so that a
    /// block spans about 4 s.
    block: usize,
    /// Set-ups of each operation per pass, the fastest kept. Cheap
    /// set-ups repeat so that `setup_s` rests on more samples.
    setups: usize,
}

/// The plan of `workload` under `seed`.
fn plan_for(workload: Workload, seed: u64) -> Plan {
    let master = derive_seed(derive_seed(BENCH_SALT, workload as u64), seed);
    match workload {
        Workload::PaperGrid => {
            let mut ops = Vec::new();
            for (n_avg, theta, scheme) in dirca_experiments::ringsim::paper_grid() {
                let mut experiment = RingExperiment::quick(scheme, n_avg, theta);
                experiment.seed = master;
                for index in 0..experiment.topologies {
                    ops.push(OpSpec::Ring {
                        experiment: experiment.clone(),
                        index,
                    });
                }
            }
            Plan {
                ops,
                block: 4,
                setups: 3,
            }
        }
        Workload::Field100k => {
            let config = SimConfig::new(Scheme::DrtsDcts)
                .with_beamwidth_degrees(30.0)
                .with_seed(derive_seed(master, 1))
                .with_warmup(SimDuration::from_millis(3))
                .with_measure(SimDuration::from_millis(12));
            let op = OpSpec::Field {
                seed: derive_seed(master, 0),
                nodes: 100_000,
                config,
            };
            Plan {
                ops: vec![op],
                block: 2,
                setups: 1,
            }
        }
        Workload::MobileSinr500 => {
            let config = SimConfig::new(Scheme::DrtsDcts)
                .with_beamwidth_degrees(60.0)
                .with_seed(derive_seed(master, 1))
                .with_warmup(SimDuration::from_millis(20))
                .with_measure(SimDuration::from_millis(600))
                .with_mobility(
                    MobilityModel::RandomWaypoint {
                        speed_min: 2.0,
                        speed_max: 5.0,
                        pause_secs: 0.0,
                    },
                    SimDuration::from_millis(20),
                )
                .with_sinr(SinrPhy::ideal().with_side_floor(0.05).with_margin(0.1));
            let op = OpSpec::Field {
                seed: derive_seed(master, 0),
                nodes: 500,
                config,
            };
            Plan {
                ops: vec![op],
                block: 20,
                setups: 3,
            }
        }
        Workload::ServeMixed => unreachable!("serve_mixed is not a simulation workload"),
    }
}

/// Timings, work counts and outputs of one operation.
struct OpRun {
    generate_s: f64,
    build_s: f64,
    /// Host seconds of each `run_until` slice.
    slices: Vec<f64>,
    latency_s: f64,
    sim_seconds: f64,
    events: u64,
    /// Frames put on the air over warm-up and measurement.
    frames: u64,
    rts: u64,
    acked: u64,
    invalidation: InvalidationStats,
    pending_peak: usize,
    result: RunResult,
}

fn frames_on_air(macs: &[DcfMac]) -> u64 {
    macs.iter()
        .map(|m| {
            let c = m.counters();
            c.rts_tx + c.cts_tx + c.data_tx + c.ack_tx
        })
        .sum()
}

/// Slices each simulated phase (warm-up, measurement) is advanced in.
const SLICES: u64 = 32;

/// Advances `sim` to `deadline` in [`SLICES`] equal `run_until` calls,
/// appending each call's host seconds to `slices` and sampling the queue
/// depth between them. Slicing leaves the event order, and so the
/// outputs, unchanged.
fn advance(
    sim: &mut Simulation<NetWorld>,
    deadline: SimTime,
    slices: &mut Vec<f64>,
    pending_peak: &mut usize,
) {
    let from = sim.now();
    let span = deadline.saturating_duration_since(from).as_nanos();
    for k in 1..=SLICES {
        let t = Instant::now();
        sim.run_until(from + SimDuration::from_nanos(span * k / SLICES));
        slices.push(t.elapsed().as_secs_f64());
        *pending_peak = (*pending_peak).max(sim.scheduler_mut().pending());
    }
}

/// Runs one operation, setting it up `setups` times and simulating the
/// last world built; `probe` attaches the dispatch profiler.
fn run_op(
    spec: &OpSpec,
    setups: usize,
    #[cfg(feature = "trace")] probe: Option<&Rc<RefCell<ClassTotals>>>,
) -> OpRun {
    let (mut generate_s, mut build_s) = (f64::INFINITY, f64::INFINITY);
    let mut built = None;
    for _ in 0..setups {
        let start = Instant::now();
        let (topology, config) = spec.generate();
        let generated = Instant::now();
        let world = NetWorld::build(&topology, &config);
        generate_s = generate_s.min((generated - start).as_secs_f64());
        build_s = build_s.min(generated.elapsed().as_secs_f64());
        // The previous world is dropped here, outside the timers.
        built = Some((world, config));
    }
    let (world, config) = built.expect("an operation is set up at least once");
    let start = Instant::now();
    let mut sim = Simulation::new(world);
    #[cfg(feature = "trace")]
    if let Some(totals) = probe {
        sim.set_probe(Some(Box::new(DispatchProfiler::new(Rc::clone(totals)))));
    }
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    let warmup_end = SimTime::ZERO + config.warmup;
    let end = warmup_end + config.measure;
    let mut pending_peak = 0;
    let mut slices = Vec::with_capacity(2 * SLICES as usize);
    advance(&mut sim, warmup_end, &mut slices, &mut pending_peak);
    let warmup_frames = frames_on_air(sim.world().macs());
    sim.world_mut().reset_counters();
    advance(&mut sim, end, &mut slices, &mut pending_peak);
    let latency_s = generate_s + build_s + start.elapsed().as_secs_f64();

    let events = sim.events_processed();
    let world = sim.world();
    let invalidation = world.invalidation_stats().unwrap_or_default();
    let frames = warmup_frames + frames_on_air(world.macs());
    let result = collect(world, config.measure, events);
    let counters = result.aggregate_counters();
    OpRun {
        generate_s,
        build_s,
        slices,
        latency_s,
        sim_seconds: (end - SimTime::ZERO).as_secs_f64(),
        events,
        frames,
        rts: counters.rts_tx,
        acked: counters.packets_acked,
        invalidation,
        pending_peak,
        result,
    }
}

/// The run result `dirca_net::run` would return for this world.
fn collect(world: &NetWorld, window: SimDuration, events: u64) -> RunResult {
    let nodes = world
        .macs()
        .iter()
        .zip(world.app_stats())
        .enumerate()
        .map(|(i, (mac, app))| NodeReport {
            node: i,
            measured: i < world.measured(),
            counters: mac.counters().clone(),
            queue_drops: app.queue_drops,
            fer_losses: app.fer_losses,
            outage_losses: app.outage_losses,
            delay_samples: app.delay_samples.clone(),
            airtime: app.airtime,
            backlog: mac.queue_len() as u64,
        })
        .collect();
    RunResult::from_parts(nodes, window, events)
}

/// Digest of a run's simulated statistics: every node's MAC counters
/// (acked packets, delivered bytes, delay totals, drops, frames),
/// application losses, airtime and backlog. The event count is left out
/// on purpose: a pure speed-up may change it while outputs stay equal.
fn digest(result: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(result.nodes.len() as u64);
    h.u64(result.window.as_nanos());
    for n in &result.nodes {
        let c = &n.counters;
        for v in [
            u64::from(n.measured),
            c.rts_tx,
            c.cts_tx,
            c.data_tx,
            c.ack_tx,
            c.cts_timeouts,
            c.ack_timeouts,
            c.data_timeouts,
            c.packets_acked,
            c.packets_dropped,
            c.data_acked_bytes,
            c.duplicates_dropped,
            c.data_delivered,
            c.data_delivered_bytes,
            c.service_delay_total.as_nanos(),
            c.e2e_delay_total.as_nanos(),
            n.queue_drops,
            n.fer_losses,
            n.outage_losses,
            n.airtime.total().as_nanos(),
            n.backlog,
        ] {
            h.u64(v);
        }
    }
    h.finish()
}

/// The per-topology sample `try_run_cell` reports for a run.
fn sample_of(result: &RunResult, config: &SimConfig) -> [Option<f64>; 4] {
    let bit_rate = config.params.bit_rate_bps as f64;
    [
        Some(result.aggregate_throughput_bps() / bit_rate),
        result.mean_delay().map(|d| d.as_secs_f64() * 1e3),
        result.collision_ratio(),
        jain_index(&result.node_throughputs_bps()),
    ]
}

/// Totals of one pass.
#[derive(Default)]
struct Pass {
    traced: bool,
    generate_s: f64,
    build_s: f64,
    run_s: f64,
    sim_seconds: f64,
    /// Per operation: set-up (generate + build) and total latency
    /// seconds.
    op_setup: Vec<f64>,
    op_latency: Vec<f64>,
    /// Host seconds of every `run_until` slice of every operation.
    slices: Vec<f64>,
    digests: Vec<u64>,
    events: u64,
    frames: u64,
    rts: u64,
    acked: u64,
    invalidation: InvalidationStats,
    pending_peak: usize,
    #[cfg(feature = "trace")]
    dispatch: ClassTotals,
}

impl Pass {
    fn sim_s_per_s(&self) -> f64 {
        self.sim_seconds / self.run_s
    }
}

/// Runs every operation once. Returns the pass, plus the operations' runs
/// when `keep` is set. A panicking operation ends the pass with the number
/// of operations that completed before it and the panic message.
fn run_pass(
    ops: &[OpSpec],
    setups: usize,
    traced: bool,
    keep: bool,
) -> Result<(Pass, Vec<OpRun>), (usize, String)> {
    #[cfg(feature = "trace")]
    let totals = Rc::new(RefCell::new(ClassTotals::default()));
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    let mut kept = Vec::new();
    for (i, spec) in ops.iter().enumerate() {
        #[cfg(feature = "trace")]
        let op = catch_unwind(AssertUnwindSafe(|| {
            run_op(spec, setups, traced.then_some(&totals))
        }));
        #[cfg(not(feature = "trace"))]
        let op = catch_unwind(AssertUnwindSafe(|| run_op(spec, setups)));
        let op = op.map_err(|payload| {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            (i, format!("operation {i} panicked: {message}"))
        })?;
        pass.generate_s += op.generate_s;
        pass.build_s += op.build_s;
        pass.run_s += op.slices.iter().sum::<f64>();
        pass.sim_seconds += op.sim_seconds;
        pass.op_setup.push(op.generate_s + op.build_s);
        pass.slices.extend_from_slice(&op.slices);
        pass.op_latency.push(op.latency_s);
        pass.digests.push(digest(&op.result));
        pass.events += op.events;
        pass.frames += op.frames;
        pass.rts += op.rts;
        pass.acked += op.acked;
        pass.invalidation.epochs += op.invalidation.epochs;
        pass.invalidation.rebins += op.invalidation.rebins;
        pass.invalidation.rebuilds += op.invalidation.rebuilds;
        pass.pending_peak = pass.pending_peak.max(op.pending_peak);
        if keep {
            kept.push(op);
        }
    }
    #[cfg(feature = "trace")]
    {
        pass.dispatch = *totals.borrow();
    }
    Ok((pass, kept))
}

/// The work counters every pass must repeat exactly.
fn pass_work(pass: &Pass) -> Work {
    let mut work = Work::new();
    work.insert("sim.events".into(), pass.events);
    work.insert("mac.frames".into(), pass.frames);
    work.insert("radio.epochs".into(), pass.invalidation.epochs);
    work.insert("radio.rebins".into(), pass.invalidation.rebins);
    work.insert("radio.rebuilds".into(), pass.invalidation.rebuilds);
    work.insert("sim.pending_peak".into(), pass.pending_peak as u64);
    let mut h = Fnv::default();
    for d in &pass.digests {
        h.u64(*d);
    }
    work.insert("digest".into(), h.finish());
    work
}

/// Runs a simulation workload for `seconds` and reports its metrics.
pub fn run_workload(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let Plan { ops, block, setups } = plan_for(workload, seed);
    // The per-layer run alternates traced and untraced passes so the
    // tracing overhead is measured inside one process; it needs a block
    // of each.
    let min_passes = if trace { 2 * block } else { block };
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_runs = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && passes.len().is_multiple_of(2);
        let (pass, runs) = match run_pass(&ops, setups, traced, passes.is_empty()) {
            Ok(done) => done,
            Err((completed, message)) => {
                attempted += completed as u64 + 1;
                failed += 1;
                notes.push(message);
                break;
            }
        };
        attempted += ops.len() as u64;
        if let Some(reference) = passes.first() {
            if pass_work(reference) != pass_work(&pass) {
                failed += 1;
                notes.push(format!(
                    "pass {}: digests or work counters differ from the first pass",
                    passes.len()
                ));
            }
            #[cfg(feature = "trace")]
            if pass.traced && pass.dispatch.count != reference.dispatch.count {
                failed += 1;
                notes.push(format!("pass {}: dispatch counts differ", passes.len()));
            }
        } else {
            first_runs = runs;
        }
        passes.push(pass);
    }
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let mut metrics = Metrics::default();
    if passes.len() < min_passes {
        // A pass that failed before a block was complete leaves nothing
        // to report.
        return Outcome {
            attempted,
            failed,
            metrics,
            work: Work::new(),
            digest: 0,
            notes,
        };
    }

    // Correctness: the replicated run must equal the library's own entry
    // points on a sampled operation, whatever the seed.
    if let Err(e) = cross_check(workload, seed, &ops, &first_runs) {
        failed += 1;
        notes.push(e);
    }
    // Only the traced build adds the dispatch counts.
    #[cfg_attr(not(feature = "trace"), allow(unused_mut))]
    let mut work = pass_work(&passes[0]);
    let pass_digest = work["digest"];
    if trace {
        #[cfg(feature = "trace")]
        for (class, count) in CLASSES.iter().zip(passes[0].dispatch.count) {
            work.insert(format!("dispatch.{class}.count"), count);
        }
        layer_metrics(
            &mut metrics,
            &passes,
            block,
            &ops,
            &first_runs,
            &mut notes,
            &mut failed,
        );
    } else {
        let sim_seconds = passes[0].sim_seconds;
        let run = blocked(&untraced, block, |p| &p.slices);
        let latency_ms: Vec<f64> = blocked(&untraced, block, |p| &p.op_latency)
            .iter()
            .map(|s| s * 1e3)
            .collect();
        metrics.put("sim_s_per_s", sim_seconds / run.iter().sum::<f64>(), "s/s");
        metrics.put(
            "setup_s",
            blocked(&untraced, block, |p| &p.op_setup).iter().sum(),
            "s",
        );
        metrics.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        metrics.put(
            "requests_per_s",
            latency_ms.len() as f64 * 1e3 / latency_ms.iter().sum::<f64>(),
            "1/s",
        );
        metrics.put("latency_p50_ms", median(&latency_ms), "ms");
        let t = tail(&latency_ms);
        metrics.put("latency_tail_ms", t.value, "ms");
        notes.push(format!(
            "latency_tail_ms is p{:.2} of {} operations' latencies ({} beyond); {} untraced passes in blocks of {block}",
            t.percentile,
            t.samples,
            t.beyond,
            untraced.len()
        ));
        let rates: Vec<String> = untraced
            .iter()
            .map(|p| format!("{:.4}", p.sim_s_per_s()))
            .collect();
        notes.push(format!("sim_s_per_s by pass: {}", rates.join(" ")));
    }
    Outcome {
        attempted,
        failed,
        metrics,
        work,
        digest: pass_digest,
        notes,
    }
}

/// [`blocked_fastest`] of one per-unit timing vector of `passes`.
fn blocked(passes: &[&Pass], block: usize, per_unit: fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    let per_pass: Vec<Vec<f64>> = passes.iter().map(|p| per_unit(p).clone()).collect();
    blocked_fastest(&per_pass, block)
}

/// Compares the replicated run with the library: one sampled ring cell
/// against `try_run_cell` on one thread, or the field's first operation
/// against `dirca_net::run`.
fn cross_check(
    workload: Workload,
    seed: u64,
    ops: &[OpSpec],
    runs: &[OpRun],
) -> Result<(), String> {
    match workload {
        Workload::PaperGrid => {
            let cells = ops.len() / 4;
            let cell = (seed % cells as u64) as usize;
            let OpSpec::Ring { experiment, .. } = &ops[cell * 4] else {
                unreachable!("paper_grid ops are ring ops")
            };
            let library = try_run_cell(experiment, 1, &CellGuards::default())
                .map_err(|e| format!("try_run_cell failed: {e}"))?;
            for (t, sample) in library.iter().enumerate() {
                let (_, config) = ops[cell * 4 + t].generate();
                let ours = sample_of(&runs[cell * 4 + t].result, &config);
                let theirs = [
                    Some(sample.throughput),
                    sample.delay_ms,
                    sample.collision_ratio,
                    sample.jain,
                ];
                let same = ours
                    .iter()
                    .zip(&theirs)
                    .all(|(a, b)| a.map(f64::to_bits) == b.map(f64::to_bits));
                if !same {
                    return Err(format!(
                        "cell {cell} topology {t}: replicated sample {ours:?} != try_run_cell {theirs:?}"
                    ));
                }
            }
            Ok(())
        }
        _ => {
            let (topology, config) = ops[0].generate();
            let library = run(&topology, &config);
            let (a, b) = (digest(&library), digest(&runs[0].result));
            if a == b && library.events_processed() == runs[0].events {
                Ok(())
            } else {
                Err(format!("dirca_net::run digest {a:#x} != replicated {b:#x}"))
            }
        }
    }
}

/// Per-layer metrics of the traced run.
fn layer_metrics(
    m: &mut Metrics,
    passes: &[Pass],
    block: usize,
    ops: &[OpSpec],
    runs: &[OpRun],
    notes: &mut Vec<String>,
    failed: &mut u64,
) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let med = |set: &[&Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&set.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let p0 = &passes[0];

    m.put("topology.generate_s", med(&traced, &|p| p.generate_s), "s");
    let radio = radio_layer(ops, runs, notes, failed);
    m.put("radio.plan_build_s", radio.plan_build_s, "s");
    m.put("radio.plan_index_mb", radio.plan_index_mb, "MB");
    m.put("radio.coverage_query_ns", radio.query_ns, "ns");
    m.put(
        "radio.receivers_per_query",
        radio.receivers_per_query,
        "count",
    );
    m.put("radio.apply_moves_s", radio.apply_moves_s, "s");
    m.put("radio.epochs", p0.invalidation.epochs as f64, "count");
    m.put("radio.rebins", p0.invalidation.rebins as f64, "count");
    m.put("radio.rebuilds", p0.invalidation.rebuilds as f64, "count");
    m.put("net.world_build_s", med(&traced, &|p| p.build_s), "s");

    m.put("sim.events", p0.events as f64, "count");
    let run_s = blocked(&untraced, block, |p| &p.slices).iter().sum::<f64>();
    let traced_run_s = blocked(&traced, block, |p| &p.slices).iter().sum::<f64>();
    m.put("sim.ns_per_event", run_s * 1e9 / p0.events as f64, "ns");
    let peak = traced.iter().map(|p| p.pending_peak).max().unwrap_or(0);
    m.put("sim.pending_peak", peak as f64, "count");
    m.put(
        "sim.queue_ns_per_cycle",
        queue_ns_per_cycle(peak.max(1)),
        "ns",
    );

    #[cfg(feature = "trace")]
    for (i, class) in CLASSES.iter().enumerate() {
        let count = p0.dispatch.count[i];
        let self_s = med(&traced, &|p| p.dispatch.nanos[i] as f64 / 1e9);
        let mean_ns = if count == 0 {
            0.0
        } else {
            self_s * 1e9 / count as f64
        };
        m.put(format!("dispatch.{class}.count"), count as f64, "count");
        m.put(format!("dispatch.{class}.mean_ns"), mean_ns, "ns");
        m.put(format!("dispatch.{class}.self_s"), self_s, "s");
    }

    m.put("mac.frames", p0.frames as f64, "count");
    m.put("mac.ns_per_frame", run_s * 1e9 / p0.frames as f64, "ns");
    let success = if p0.rts == 0 {
        0.0
    } else {
        p0.acked as f64 / p0.rts as f64
    };
    m.put("mac.handshake_success", success, "ratio");

    let traced_rate = p0.sim_seconds / traced_run_s;
    let untraced_rate = p0.sim_seconds / run_s;
    m.put("tracing.sim_s_per_s_traced", traced_rate, "s/s");
    m.put("tracing.sim_s_per_s_untraced", untraced_rate, "s/s");
    m.put(
        "tracing.overhead_sim_s_per_s",
        traced_rate - untraced_rate,
        "s/s",
    );
    m.put(
        "tracing.overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "%",
    );
}

/// Outside timings of the radio layer.
#[derive(Default)]
struct RadioLayer {
    plan_build_s: f64,
    plan_index_mb: f64,
    query_ns: f64,
    receivers_per_query: f64,
    apply_moves_s: f64,
}

/// Directional queries timed per plan: enough to average out the clock.
const QUERIES_PER_PLAN: usize = 20_000;

/// Times `CoveragePlan::new` and directional coverage queries for every
/// operation of one pass, and for mobile operations replays the mobility
/// epochs through `DynamicCoveragePlan::apply_moves`, asserting that the
/// replay did the same invalidation work as the real run.
fn radio_layer(
    ops: &[OpSpec],
    runs: &[OpRun],
    notes: &mut Vec<String>,
    failed: &mut u64,
) -> RadioLayer {
    let mut layer = RadioLayer::default();
    let (mut queries, mut receivers, mut query_s) = (0u64, 0u64, 0.0);
    let mut out: Vec<NodeId> = Vec::new();
    for (spec, op) in ops.iter().zip(runs) {
        let (topology, config) = spec.generate();
        let channel = Channel::new(
            topology.positions.clone(),
            topology.range,
            config.params.propagation_delay,
        )
        .expect("benchmark topologies have a valid range");
        let t = Instant::now();
        let plan = CoveragePlan::new(&channel, config.beamwidth);
        layer.plan_build_s += t.elapsed().as_secs_f64();
        layer.plan_index_mb = layer
            .plan_index_mb
            .max(plan.index_bytes() as f64 / (1024.0 * 1024.0));

        // Every (node, neighbour) beam of a deterministic node sample.
        let n = plan.len();
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .step_by((n / 2_000).max(1))
            .flat_map(|i| {
                plan.neighbors(NodeId(i))
                    .iter()
                    .map(move |&d| (NodeId(i), d))
            })
            .take(QUERIES_PER_PLAN)
            .collect();
        let t = Instant::now();
        for &(src, dst) in &pairs {
            plan.directional_coverage_into(src, dst, &mut out);
            receivers += out.len() as u64;
        }
        query_s += t.elapsed().as_secs_f64();
        queries += pairs.len() as u64;

        if let Some(mobility) = config.mobility {
            let real = op.invalidation;
            let radius = MobilityState::field_radius(&topology.positions, topology.range);
            let mut state = MobilityState::new(
                mobility.model,
                &topology.positions,
                radius,
                derive_seed(config.seed, MOBILITY_STREAM_SALT),
            );
            let mut dynamic = DynamicCoveragePlan::from_channel(&channel, config.beamwidth);
            for _ in 0..real.epochs {
                let moves = state.step(mobility.epoch.as_secs_f64());
                let t = Instant::now();
                std::hint::black_box(dynamic.apply_moves(moves));
                layer.apply_moves_s += t.elapsed().as_secs_f64();
            }
            if dynamic.stats() != real {
                *failed += 1;
                notes.push(format!(
                    "mobility replay {:?} != run's invalidation stats {real:?}",
                    dynamic.stats()
                ));
            }
        }
    }
    if queries > 0 {
        layer.query_ns = query_s * 1e9 / queries as f64;
        layer.receivers_per_query = receivers as f64 / queries as f64;
    }
    layer
}

/// Median ns per pop+push cycle of an `EventQueue` held at `depth`
/// entries with near-future deadlines, the access pattern the simulator
/// produces.
fn queue_ns_per_cycle(depth: usize) -> f64 {
    let cycles = 1_000_000u64;
    let rounds: Vec<f64> = (0..3)
        .map(|_| {
            let mut q = EventQueue::with_capacity(depth);
            for i in 0..depth as u64 {
                q.push(SimTime::from_nanos(i * 131 % 50_000), i);
            }
            let mut horizon = 0u64;
            let mut acc = 0u64;
            let start = Instant::now();
            for i in 0..cycles {
                let (t, v) = q.pop().expect("queue stays non-empty");
                acc = acc.wrapping_add(v);
                horizon = horizon.max(t.as_nanos());
                q.push(SimTime::from_nanos(horizon + (i * 977) % 40_000), i);
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64() * 1e9 / cycles as f64
        })
        .collect();
    median(&rounds)
}
