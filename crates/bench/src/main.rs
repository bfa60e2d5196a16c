//! `dirca-bench`: the pinned-seed scaling harness.
//!
//! Runs the measurement perfbench's fixed-size workloads do not cover: a
//! large-field scaling benchmark (pinned Poisson fields of 1k/10k/100k
//! nodes exercising the uniform-grid coverage index). It writes the
//! measurements, with the host's parallelism, to `BENCH_paper_grid.json`
//! at the repository root:
//!
//! ```text
//! cargo run --release -p dirca-bench            # default output path
//! cargo run --release -p dirca-bench -- --out /tmp/bench.json
//! cargo run --release -p dirca-bench -- --scaling-max 100000   # full sweep
//! ```
//!
//! `--scaling-max` caps the largest scaling field (default 10000; 0 skips
//! the sweep entirely while keeping the empty `scaling` section in the
//! report).
//!
//! The workload is deterministic — identical seeds, topologies, and event
//! streams on every invocation — so run-to-run differences in the JSON are
//! pure wall-clock noise, and two checkouts can be compared by running the
//! harness on each. Wall-clock timing itself is the *point* of this
//! binary, which is why the `dirca-audit` static rules exempt the bench
//! crate from the `std::time` ban that covers the deterministic core.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dirca_mac::Scheme;
use dirca_net::{run, SimConfig};
use dirca_radio::{Channel, CoveragePlan};
use dirca_sim::rng::derive_seed;
use dirca_sim::SimDuration;
use dirca_topology::poisson_field_pinned;

/// Master seed shared with the `paper_grid` experiment binary.
const SEED: u64 = 0xD1CA;

fn main() {
    let (out_path, scaling_max) = parse_args();
    eprintln!("dirca-bench: scaling, seed {SEED:#x}");
    let scaling = scaling_bench(scaling_max);
    // What `std::thread::available_parallelism` reported on this host:
    // the sweep is single-threaded, but the wall-clock rows are only
    // comparable between hosts that say how many cores they shared.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::write(&out_path, render_json(&scaling, host_parallelism))
        .expect("failed to write benchmark report");
    eprintln!("dirca-bench: wrote {out_path}");
}

/// Parses `--out <path>` and `--scaling-max <nodes>` (both optional).
fn parse_args() -> (String, usize) {
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper_grid.json");
    let mut out = default_out.to_string();
    let mut scaling_max = 10_000usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = args.next().expect("--out requires a path");
            }
            "--scaling-max" => {
                scaling_max = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scaling-max requires a non-negative integer");
            }
            other => panic!("unrecognized flag {other:?} (expected --out or --scaling-max)"),
        }
    }
    (out, scaling_max)
}

/// One row of the large-field scaling benchmark.
struct ScalingRow {
    nodes: usize,
    plan_build_ms: f64,
    plan_index_bytes: usize,
    dense_plan_bytes: u64,
    sim_wall_ms: f64,
    events: u64,
    events_per_sec: f64,
}

/// Runs pinned Poisson fields of increasing size (up to `scaling_max`
/// nodes) through plan construction and a short DRTS/DCTS simulation.
///
/// Field sizes and simulation windows are pinned; only wall-clock varies
/// between runs. `dense_plan_bytes` is what the pre-grid dense plan would
/// have allocated (two f64 and one `(u32, u32)` matrix: 24 bytes per node
/// pair) for the sub-quadratic comparison the report commits.
fn scaling_bench(scaling_max: usize) -> Vec<ScalingRow> {
    // (nodes, warmup, measure): windows shrink as fields grow so the
    // sweep stays minutes-bounded while still processing millions of
    // events per row.
    let profiles: [(usize, SimDuration, SimDuration); 3] = [
        (
            1_000,
            SimDuration::from_millis(20),
            SimDuration::from_millis(100),
        ),
        (
            10_000,
            SimDuration::from_millis(5),
            SimDuration::from_millis(25),
        ),
        (
            100_000,
            SimDuration::from_millis(2),
            SimDuration::from_millis(5),
        ),
    ];
    let scaling_master = derive_seed(SEED, dirca_net::salts::SCALING_STREAM_SALT);
    let mut rows = Vec::new();
    for (nodes, warmup, measure) in profiles {
        if nodes > scaling_max {
            continue;
        }
        // Mean degree 8 at range 1 — the paper's densest ring setting,
        // held constant across scales so only n varies.
        let topology =
            poisson_field_pinned(derive_seed(scaling_master, nodes as u64), nodes, 8.0, 1.0);
        let config = SimConfig::new(Scheme::DrtsDcts)
            .with_beamwidth_degrees(30.0)
            .with_seed(derive_seed(scaling_master, nodes as u64 + 1))
            .with_warmup(warmup)
            .with_measure(measure);

        let channel = Channel::new(
            topology.positions.clone(),
            topology.range,
            config.params.propagation_delay,
        )
        .expect("field range is valid");
        let start = Instant::now();
        let plan = CoveragePlan::new(&channel, config.beamwidth);
        let plan_build_ms = start.elapsed().as_secs_f64() * 1e3;
        let plan_index_bytes = black_box(plan).index_bytes();

        let start = Instant::now();
        let result = run(&topology, &config);
        let sim_wall = start.elapsed();
        let events = result.events_processed();
        let events_per_sec = events as f64 / sim_wall.as_secs_f64();
        eprintln!(
            "  scaling n={nodes}: plan {plan_build_ms:.1} ms / {:.1} MB, sim {:.0} ms, {:.2} Mev/s",
            plan_index_bytes as f64 / 1e6,
            sim_wall.as_secs_f64() * 1e3,
            events_per_sec / 1e6,
        );
        rows.push(ScalingRow {
            nodes,
            plan_build_ms,
            plan_index_bytes,
            dense_plan_bytes: 24 * (nodes as u64) * (nodes as u64),
            sim_wall_ms: sim_wall.as_secs_f64() * 1e3,
            events,
            events_per_sec,
        });
    }
    rows
}

/// Renders the report by hand; the workspace deliberately has no JSON
/// dependency.
fn render_json(scaling: &[ScalingRow], host_parallelism: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"dirca-bench/paper-grid/v5\",\n");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"host_parallelism\": {host_parallelism},");
    s.push_str("  \"scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"nodes\": {}, \"plan_build_ms\": {:.1}, \
             \"plan_index_bytes\": {}, \"dense_plan_bytes\": {}, \
             \"sim_wall_ms\": {:.1}, \"events\": {}, \
             \"events_per_sec\": {:.0}}}{comma}",
            r.nodes,
            r.plan_build_ms,
            r.plan_index_bytes,
            r.dense_plan_bytes,
            r.sim_wall_ms,
            r.events,
            r.events_per_sec
        );
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}
