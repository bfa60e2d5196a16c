//! E3–E6 — runs the Figs. 6/7 simulation grid once and prints all four
//! metric reports from the same runs: Fig. 6 throughput, Fig. 7 delay,
//! the §4 collision ratio and Jain fairness. With `--svg DIR` it also
//! draws Figs. 6 and 7 from those cells as `DIR/fig{6,7}_n{N}.svg`, and
//! with `--trace PATH` it records topology 0 of each cell as that cell
//! runs. The grid runs nowhere else, traced or not.
//!
//! The grid runs under the fault-tolerant runner: each cell is isolated
//! (a panic or watchdog trip fails that cell, not the run), and with
//! `--checkpoint PATH` every finished cell is persisted as a CRC-framed
//! binary record so `--resume` continues an interrupted run where it left
//! off. `trace_view PATH` prints a checkpoint's records, one per line.
//!
//! Usage: `paper_grid [--quick] [--topologies 50] [--measure-ms 10000]
//! [--n 3|5|8] [--theta 30|90|150] [--threads K] [--seed S] [--svg DIR]
//! [--trace PATH]`,
//! plus the runner flags `--checkpoint PATH`, `--resume`, `--max-cells K`,
//! `--retries R`, `--events-budget E`, and the CI drill switches
//! `--inject-panic n,theta,scheme` / `--inject-timeout n,theta,scheme`.
//!
//! With `--trace PATH` topology 0 of every cell this invocation runs is
//! simulated with the ring recorder attached, and the runs are written as
//! one CRC-framed binary document once the grid ends. A cell restored by
//! `--resume`, a cell `--max-cells` did not reach, and a cell whose
//! topology 0 failed contribute no block, so only a fresh complete run
//! traces the whole grid. An unwritable path is refused before the grid
//! runs. See `dirca_experiments::tracegrid` for the layout and the
//! `trace_view` binary for validating it and folding it into per-node
//! timelines.
//!
//! Flags earlier versions accepted are refused with a usage error rather
//! than silently ignored: any `--trace-…` flag (a leftover encoding
//! choice) and `--engine-threads` (the removed sharded engine).
//!
//! Exit status: 0 on a clean complete grid, 1 if any cell failed or the
//! SVGs could not be written, 2 on a usage error, 3 if `--max-cells`
//! stopped the run early.

use dirca_experiments::cli::{removed_flag, Flags};
use dirca_experiments::plot::write_svgs;
use dirca_experiments::report::{grid_svgs, render_combined, GridScale};
use dirca_experiments::runner::{run_grid, RunnerConfig};

fn main() {
    let flags = Flags::from_env();
    if let Some(message) = removed_flag(&flags) {
        eprintln!("{message}");
        std::process::exit(2);
    }
    let scale = GridScale::from_flags(&flags);
    let runner = RunnerConfig::try_from_flags(&flags).unwrap_or_else(|e| e.exit());
    let svg_dir = flags.try_get_path("svg").unwrap_or_else(|e| e.exit());
    let write = |dir, files: &[(String, String)]| {
        write_svgs(dir, files).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    };
    if let Some(dir) = svg_dir {
        // Refuse an unusable output directory before the grid runs.
        write(dir, &[]);
    }
    eprintln!(
        "running grid: {} densities x {} beamwidths x 3 schemes x {} topologies ({} ms measure, {} threads)",
        scale.densities.len(),
        scale.beamwidths.len(),
        scale.topologies,
        scale.measure.as_nanos() / 1_000_000,
        scale.threads
    );
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
    let completed = outcome.completed();
    println!("{}", render_combined(&scale, &completed));
    if let Some(dir) = svg_dir {
        write(dir, &grid_svgs(&scale, &completed));
    }
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
