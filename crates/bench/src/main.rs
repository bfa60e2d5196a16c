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
//! report). Each row is timed [`REPEATS`] times and reports the median
//! with the quartiles, so a row carries its own spread. A malformed or
//! unknown flag prints one `usage error:` line and exits with status 2.
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

/// Timed runs per scaling row.
const REPEATS: usize = 5;

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("usage error: {message}");
        std::process::exit(2);
    });
    eprintln!("dirca-bench: scaling, seed {SEED:#x}, {REPEATS} repeats per row");
    let scaling = scaling_bench(args.scaling_max);
    // What `std::thread::available_parallelism` reported on this host:
    // the sweep is single-threaded, but the wall-clock rows are only
    // comparable between hosts that say how many cores they shared.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::write(&args.out, render_json(&scaling, host_parallelism))
        .expect("failed to write benchmark report");
    eprintln!("dirca-bench: wrote {}", args.out);
}

/// The command line: `--out <path>` and `--scaling-max <nodes>`, both
/// optional.
struct Args {
    out: String,
    scaling_max: usize,
}

/// Parses the command line, or says what is wrong with it.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper_grid.json");
    let mut parsed = Args {
        out: default_out.to_string(),
        scaling_max: 10_000,
    };
    while let Some(flag) = args.next() {
        let mut value = |expects: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} expects {expects}"))
        };
        match flag.as_str() {
            "--out" => parsed.out = value("a path")?,
            "--scaling-max" => {
                let expects = "a non-negative integer";
                let v = value(expects)?;
                parsed.scaling_max = v
                    .parse()
                    .map_err(|_| format!("--scaling-max expects {expects}, got {v:?}"))?;
            }
            other => {
                return Err(format!(
                    "unrecognized flag {other:?} (expected --out or --scaling-max)"
                ))
            }
        }
    }
    Ok(parsed)
}

/// The median and quartiles of a row's repeated measurements.
#[derive(Debug, Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    /// Quartiles of `samples` by linear interpolation between order
    /// statistics (so five samples give their second, third and fourth).
    fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// One row of the large-field scaling benchmark.
struct ScalingRow {
    nodes: usize,
    /// Median over the repeats.
    plan_build_ms: f64,
    plan_index_bytes: usize,
    dense_plan_bytes: u64,
    events: u64,
    sim_wall_ms: Spread,
    events_per_sec: Spread,
}

/// Runs pinned Poisson fields of increasing size (up to `scaling_max`
/// nodes) through plan construction and a short DRTS/DCTS simulation,
/// [`REPEATS`] times each.
///
/// Field sizes and simulation windows are pinned; only wall-clock varies
/// between runs, so every repeat must process the same events.
/// `dense_plan_bytes` is what the pre-grid dense plan would have allocated
/// (two f64 and one `(u32, u32)` matrix: 24 bytes per node pair) for the
/// sub-quadratic comparison the report commits.
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
        let mut plan_ms = Vec::with_capacity(REPEATS);
        let mut wall_ms = Vec::with_capacity(REPEATS);
        let mut per_sec = Vec::with_capacity(REPEATS);
        let mut plan_index_bytes = 0;
        let mut events = None;
        for _ in 0..REPEATS {
            let start = Instant::now();
            let plan = CoveragePlan::new(&channel, config.beamwidth);
            plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
            plan_index_bytes = black_box(plan).index_bytes();

            let start = Instant::now();
            let result = run(&topology, &config);
            let sim_wall = start.elapsed().as_secs_f64();
            let processed = result.events_processed();
            assert_eq!(
                *events.get_or_insert(processed),
                processed,
                "n={nodes}: a repeat processed different events"
            );
            wall_ms.push(sim_wall * 1e3);
            per_sec.push(processed as f64 / sim_wall);
        }
        let row = ScalingRow {
            nodes,
            plan_build_ms: Spread::of(&plan_ms).median,
            plan_index_bytes,
            dense_plan_bytes: 24 * (nodes as u64) * (nodes as u64),
            events: events.unwrap_or_default(),
            sim_wall_ms: Spread::of(&wall_ms),
            events_per_sec: Spread::of(&per_sec),
        };
        eprintln!(
            "  scaling n={nodes}: plan {:.1} ms / {:.1} MB, sim {:.0} ms \
             [{:.0}, {:.0}], {:.2} Mev/s",
            row.plan_build_ms,
            plan_index_bytes as f64 / 1e6,
            row.sim_wall_ms.median,
            row.sim_wall_ms.q1,
            row.sim_wall_ms.q3,
            row.events_per_sec.median / 1e6,
        );
        rows.push(row);
    }
    rows
}

/// Renders the report by hand; the workspace deliberately has no JSON
/// dependency. A timed field holds the median over the row's
/// [`REPEATS`] runs; `_q1`/`_q3` hold its quartiles.
fn render_json(scaling: &[ScalingRow], host_parallelism: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"dirca-bench/paper-grid/v6\",\n");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(s, "  \"repeats\": {REPEATS},");
    s.push_str("  \"scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"nodes\": {}, \"plan_build_ms\": {:.1}, \
             \"plan_index_bytes\": {}, \"dense_plan_bytes\": {}, \"events\": {}, \
             \"sim_wall_ms\": {:.1}, \"sim_wall_ms_q1\": {:.1}, \"sim_wall_ms_q3\": {:.1}, \
             \"events_per_sec\": {:.0}, \"events_per_sec_q1\": {:.0}, \
             \"events_per_sec_q3\": {:.0}}}{comma}",
            r.nodes,
            r.plan_build_ms,
            r.plan_index_bytes,
            r.dense_plan_bytes,
            r.events,
            r.sim_wall_ms.median,
            r.sim_wall_ms.q1,
            r.sim_wall_ms.q3,
            r.events_per_sec.median,
            r.events_per_sec.q1,
            r.events_per_sec.q3,
        );
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_interpolates_between_order_statistics() {
        let five = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((five.q1, five.median, five.q3), (2.0, 3.0, 4.0));
        let three = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((three.q1, three.median, three.q3), (1.5, 2.0, 2.5));
        let one = Spread::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }
}
