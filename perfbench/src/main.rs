//! `perfbench`: the dirca benchmark.
//!
//! ```text
//! perfbench --workload <paper_grid|field_100k|mobile_sinr_500|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]
//!           [--git-rev <rev>] [--source-digest <hex>]
//! ```
//!
//! Runs one workload for about `--seconds` on one simulation thread and
//! prints, as its last stdout line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` (a `--features trace` build) the
//! per-layer ones. The lines before it carry the run's metadata and its
//! exact work counters. `perfbench/run.py` builds both variants and is
//! the entry point; see `perfbench/README.md` for every metric.

mod digests;
#[cfg(feature = "trace")]
mod probe;
mod serve;
mod sim;
mod stats;

use std::path::PathBuf;

use stats::{json_str, work_json, Metrics, Work};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid = 0,
    Field100k = 1,
    MobileSinr500 = 2,
    ServeMixed = 3,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::Field100k,
        Workload::MobileSinr500,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Field100k => "field_100k",
            Workload::MobileSinr500 => "mobile_sinr_500",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Exact work counters of the first pass.
    pub work: Work,
    /// Digest of the first pass's simulated outputs.
    pub digest: u64,
    /// Diagnostics for stderr.
    pub notes: Vec<String>,
}

/// End-to-end metrics (`--trace 0`), reported by every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_s_per_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`). A workload that does not exercise a
/// layer reports it as 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("topology.generate_s", "s"),
    ("radio.plan_build_s", "s"),
    ("radio.plan_index_mb", "MB"),
    ("radio.coverage_query_ns", "ns"),
    ("radio.receivers_per_query", "count"),
    ("radio.apply_moves_s", "s"),
    ("radio.epochs", "count"),
    ("radio.rebins", "count"),
    ("radio.rebuilds", "count"),
    ("net.world_build_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.pending_peak", "count"),
    ("sim.queue_ns_per_cycle", "ns"),
    ("dispatch.wave_start.count", "count"),
    ("dispatch.wave_start.mean_ns", "ns"),
    ("dispatch.wave_start.self_s", "s"),
    ("dispatch.wave_end.count", "count"),
    ("dispatch.wave_end.mean_ns", "ns"),
    ("dispatch.wave_end.self_s", "s"),
    ("dispatch.tx_end.count", "count"),
    ("dispatch.tx_end.mean_ns", "ns"),
    ("dispatch.tx_end.self_s", "s"),
    ("dispatch.mac_timer.count", "count"),
    ("dispatch.mac_timer.mean_ns", "ns"),
    ("dispatch.mac_timer.self_s", "s"),
    ("dispatch.arrival.count", "count"),
    ("dispatch.arrival.mean_ns", "ns"),
    ("dispatch.arrival.self_s", "s"),
    ("dispatch.mobility_epoch.count", "count"),
    ("dispatch.mobility_epoch.mean_ns", "ns"),
    ("dispatch.mobility_epoch.self_s", "s"),
    ("mac.frames", "count"),
    ("mac.ns_per_frame", "ns"),
    ("mac.handshake_success", "ratio"),
    ("serve.accept_ms", "ms"),
    ("serve.cell_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.cells_executed", "count"),
    ("serve.cells_restored", "count"),
    ("serve.latency_share_restored", "%"),
    ("serve.latency_share_executed", "%"),
    ("trace.frames", "count"),
    ("trace.wire_bytes", "bytes"),
    ("trace.checkpoint_bytes", "bytes"),
    ("tracing.sim_s_per_s_traced", "s/s"),
    ("tracing.sim_s_per_s_untraced", "s/s"),
    ("tracing.overhead_sim_s_per_s", "s/s"),
    ("tracing.overhead_pct", "%"),
    ("ops.attempted", "count"),
    ("ops.failed", "count"),
    ("ops.seconds", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
    git_rev: String,
    source_digest: String,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--state-dir <dir>] [--git-rev <rev>] [--source-digest <hex>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut state_dir = PathBuf::from(".perfbench-serve");
    let mut git_rev = "unknown".to_string();
    let mut source_digest = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Workload::ALL.into_iter().find(|w| w.name() == value);
                if workload.is_none() {
                    usage(&format!("unknown workload {value:?}"));
                }
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--state-dir" => state_dir = PathBuf::from(value),
            "--git-rev" => git_rev = value,
            "--source-digest" => source_digest = value,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        state_dir,
        git_rev,
        source_digest,
    }
}

fn main() {
    let args = parse_args();
    if args.trace && !cfg!(feature = "trace") {
        usage("--trace 1 needs a build with --features trace");
    }
    let start = std::time::Instant::now();
    let mut outcome = match args.workload {
        Workload::ServeMixed => {
            serve::run_workload(args.seed, args.seconds, args.trace, args.state_dir.clone())
        }
        w => sim::run_workload(w, args.seed, args.seconds, args.trace),
    };
    let recorded = digests::recorded(args.workload, args.seed);
    let digest_check = match recorded {
        None => "not recorded",
        Some(d) if d == outcome.digest => "match",
        Some(d) => {
            outcome.failed += 1;
            outcome.notes.push(format!(
                "output digest {:#018x} != recorded {d:#018x}",
                outcome.digest
            ));
            "mismatch"
        }
    };

    // Report every listed metric in the listed order.
    let mut metrics = Metrics::default();
    if args.trace {
        outcome
            .metrics
            .put("ops.attempted", outcome.attempted as f64, "count");
        outcome
            .metrics
            .put("ops.failed", outcome.failed as f64, "count");
        outcome
            .metrics
            .put("ops.seconds", start.elapsed().as_secs_f64(), "s");
    }
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.names() {
        assert!(
            listed.iter().any(|(n, _)| *n == name),
            "metric {name} is not listed"
        );
    }
    for &(name, unit) in listed {
        match outcome.metrics.get(name, unit) {
            Some(value) => metrics.put(name, value, unit),
            None if args.trace => metrics.put(name, 0.0, unit),
            None => {
                outcome.failed += 1;
                outcome
                    .notes
                    .push(format!("end-to-end metric {name} missing"));
                metrics.put(name, 0.0, unit);
            }
        }
    }

    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"git_rev\": {}, \"source_digest\": {}, \"host_parallelism\": {host_parallelism}, \
         \"cpu_model\": {}, \"output_digest\": \"{:#018x}\", \"recorded_digest\": \"{digest_check}\", \
         \"ops_attempted\": {}, \"ops_failed\": {}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        json_str(&args.git_rev),
        json_str(&args.source_digest),
        json_str(&stats::cpu_model()),
        outcome.digest,
        outcome.attempted,
        outcome.failed,
    );
    println!("{{\"work\": {}}}", work_json(&outcome.work));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
}
