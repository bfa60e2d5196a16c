//! `dirca-bench`: the pinned-seed scaling and sharding harness.
//!
//! Runs the two measurements perfbench's single-threaded workloads do not
//! cover: a large-field scaling benchmark (pinned Poisson fields of
//! 1k/10k/100k nodes exercising the uniform-grid coverage index) and a
//! sharded-engine speedup benchmark (one pinned field simulated classically
//! and then on the deterministic sharded engine at 1/2/4 workers). It writes
//! the measurements to `BENCH_paper_grid.json` at the repository root:
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
use dirca_net::{run, run_sharded, SimConfig, DEFAULT_SHARDS};
use dirca_radio::{Channel, CoveragePlan};
use dirca_sim::rng::derive_seed;
use dirca_sim::SimDuration;
use dirca_topology::poisson_field_pinned;

/// Master seed shared with the `paper_grid` experiment binary.
const SEED: u64 = 0xD1CA;

fn main() {
    let (out_path, scaling_max) = parse_args();
    eprintln!("dirca-bench: scaling and sharding, seed {SEED:#x}");
    let scaling = scaling_bench(scaling_max);
    let sharding = sharding_bench();
    std::fs::write(&out_path, render_json(&scaling, &sharding))
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

/// One sharded run of the speedup benchmark's pinned workload.
struct ShardingRow {
    workers: usize,
    wall_ms: f64,
    events: u64,
    /// Wall-clock ratio against the one-worker sharded run.
    speedup: f64,
}

/// The sharded-engine speedup benchmark: one pinned field, classic
/// baseline plus the sharded engine at 1/2/4 workers.
struct ShardingBench {
    nodes: usize,
    shards: u32,
    /// What `std::thread::available_parallelism` reported on this host.
    /// Speedup numbers are only meaningful relative to this: on a
    /// single-core runner the 2- and 4-worker rows measure coordination
    /// overhead, not parallelism.
    host_parallelism: usize,
    classic_wall_ms: f64,
    classic_events: u64,
    rows: Vec<ShardingRow>,
}

/// Simulates one pinned 1k-node Poisson field under DRTS/DCTS, first on
/// the classic single-queue engine and then on the sharded deterministic
/// engine at 1, 2, and 4 workers.
///
/// The sharded runs all use [`DEFAULT_SHARDS`] stripes, so their event
/// streams are byte-identical to each other regardless of worker count
/// (that invariance is what `dirca-net`'s golden battery pins); only
/// wall-clock varies between the rows. Speedups are reported against the
/// one-worker sharded run, which carries the same partitioning overhead.
fn sharding_bench() -> ShardingBench {
    let nodes = 1_000usize;
    let master = derive_seed(SEED, dirca_net::salts::SHARDING_STREAM_SALT);
    let topology = poisson_field_pinned(derive_seed(master, nodes as u64), nodes, 8.0, 1.0);
    let config = SimConfig::new(Scheme::DrtsDcts)
        .with_beamwidth_degrees(30.0)
        .with_seed(derive_seed(master, nodes as u64 + 1))
        .with_warmup(SimDuration::from_millis(10))
        .with_measure(SimDuration::from_millis(50));

    let start = Instant::now();
    let classic = run(&topology, &config);
    let classic_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let classic_events = classic.events_processed();

    let mut rows = Vec::new();
    let mut base_wall_ms = 0.0;
    for workers in [1usize, 2, 4] {
        let start = Instant::now();
        let result = run_sharded(&topology, &config, DEFAULT_SHARDS, workers);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if workers == 1 {
            base_wall_ms = wall_ms;
        }
        rows.push(ShardingRow {
            workers,
            wall_ms,
            events: result.events_processed(),
            speedup: base_wall_ms / wall_ms,
        });
    }
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "  sharding n={nodes} ({DEFAULT_SHARDS} stripes, host parallelism {host_parallelism}): \
         classic {classic_wall_ms:.0} ms, workers {}",
        rows.iter()
            .map(|r| format!("{}={:.0} ms ({:.2}x)", r.workers, r.wall_ms, r.speedup))
            .collect::<Vec<_>>()
            .join(" / ")
    );
    ShardingBench {
        nodes,
        shards: DEFAULT_SHARDS,
        host_parallelism,
        classic_wall_ms,
        classic_events,
        rows,
    }
}

/// Renders the report by hand; the workspace deliberately has no JSON
/// dependency.
fn render_json(scaling: &[ScalingRow], sharding: &ShardingBench) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"dirca-bench/paper-grid/v4\",\n");
    let _ = writeln!(s, "  \"seed\": {SEED},");
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
    s.push_str("  ],\n");
    s.push_str("  \"sharding\": {\n");
    let _ = writeln!(
        s,
        "    \"workload\": \"DrtsDcts theta=30 pinned Poisson field, 50ms measure\","
    );
    let _ = writeln!(s, "    \"nodes\": {},", sharding.nodes);
    let _ = writeln!(s, "    \"shards\": {},", sharding.shards);
    let _ = writeln!(
        s,
        "    \"host_parallelism\": {},",
        sharding.host_parallelism
    );
    let _ = writeln!(
        s,
        "    \"classic_wall_ms\": {:.1},",
        sharding.classic_wall_ms
    );
    let _ = writeln!(s, "    \"classic_events\": {},", sharding.classic_events);
    s.push_str("    \"workers\": [\n");
    for (i, r) in sharding.rows.iter().enumerate() {
        let comma = if i + 1 < sharding.rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"workers\": {}, \"wall_ms\": {:.1}, \"events\": {}, \
             \"speedup\": {:.3}}}{comma}",
            r.workers, r.wall_ms, r.events, r.speedup
        );
    }
    s.push_str("    ]\n");
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}
