//! E15 — extension: throughput of the three schemes vs injected frame
//! error rate at θ ∈ {60°, 360°}.
//!
//! Usage: `fault_sweep [--quick] [--n 5] [--topologies 5] [--threads K]
//!                     [--seed S] [--measure-ms MS]`

use dirca_experiments::cli::Flags;
use dirca_experiments::fault_sweep::{quick, render, FaultSweep};

fn main() {
    let flags = Flags::from_env();
    let mut sweep = if flags.has("quick") {
        quick()
    } else {
        FaultSweep::default()
    };
    flags.read_ring_cell(&mut sweep.base);
    let threads = flags.get_threads();
    println!("{}", render(&sweep, threads));
}
