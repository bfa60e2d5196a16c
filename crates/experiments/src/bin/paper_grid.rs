//! Runs the full Figs. 6/7 simulation grid ONCE and prints all four
//! metric reports (throughput, delay, collision ratio, fairness) from the
//! same runs. This is the economical way to regenerate E3-E6 together.
//!
//! The grid runs under the fault-tolerant runner: each cell is isolated
//! (a panic or watchdog trip fails that cell, not the run), and with
//! `--checkpoint PATH` every finished cell is persisted as a CRC-framed
//! binary record so `--resume` continues an interrupted run where it left
//! off. `trace_view PATH` prints a checkpoint's records, one per line.
//!
//! Usage: same scale flags as `fig6` (`--quick`, `--topologies`,
//! `--measure-ms`, `--n`, `--theta`, `--threads`, `--seed`), plus the
//! runner flags `--checkpoint PATH`, `--resume`, `--max-cells K`,
//! `--retries R`, `--events-budget E`, and the CI drill switches
//! `--inject-panic n,theta,scheme` / `--inject-timeout n,theta,scheme`.
//!
//! With `--trace PATH` the run additionally exports a structured trace of
//! topology 0 of every cell as one CRC-framed binary document. See
//! `dirca_experiments::tracegrid` for the layout and the `trace_view`
//! binary for validating it and folding it into per-node timelines.
//!
//! Flags earlier versions accepted are refused with a usage error rather
//! than silently ignored: any `--trace-…` flag (a leftover encoding
//! choice) and `--engine-threads` (the removed sharded engine).
//!
//! Exit status: 0 on a clean complete grid, 1 if any cell failed, 2 on a
//! usage error, 3 if `--max-cells` stopped the run early.

use dirca_experiments::cli::{removed_flag, Flags};
use dirca_experiments::report::{render_combined, GridScale};
use dirca_experiments::ringsim::RingOutcome;
use dirca_experiments::runner::{run_grid, RunnerConfig};
use dirca_experiments::tracegrid::export_grid_trace;

fn main() {
    let flags = Flags::from_env();
    if let Some(message) = removed_flag(&flags) {
        eprintln!("{message}");
        std::process::exit(2);
    }
    let scale = GridScale::from_flags(&flags);
    let runner = RunnerConfig::try_from_flags(&flags).unwrap_or_else(|e| e.exit());
    eprintln!(
        "running grid: {} densities x {} beamwidths x 3 schemes x {} topologies ({} ms measure, {} threads)",
        scale.densities.len(),
        scale.beamwidths.len(),
        scale.topologies,
        scale.measure.as_nanos() / 1_000_000,
        runner.threads
    );
    if let Some(path) = flags.get("trace") {
        eprintln!("exporting structured trace to {path}");
        export_grid_trace(&scale, path).unwrap_or_else(|e| {
            eprintln!("failed to write trace {path}: {e}");
            std::process::exit(1);
        });
    }
    let outcome = run_grid(&scale, &runner).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    if outcome.restored > 0 {
        eprintln!(
            "restored {} completed cells from the checkpoint",
            outcome.restored
        );
    }
    let completed: Vec<_> = outcome
        .outcomes
        .iter()
        .filter_map(|o| {
            o.result.as_ref().ok().map(|s| {
                (
                    o.cell.n,
                    o.cell.theta,
                    o.cell.scheme,
                    RingOutcome::from_samples(s),
                )
            })
        })
        .collect();
    println!("{}", render_combined(&scale, &completed));
    let failures = outcome.render_failures();
    if !failures.is_empty() {
        eprint!("{failures}");
    }
    if outcome.stopped_early {
        eprintln!(
            "stopped early after executing {} cells (--max-cells); rerun with --resume to continue",
            outcome.executed
        );
        std::process::exit(3);
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
