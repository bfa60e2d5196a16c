//! E15 — extension: throughput of the three schemes vs injected frame
//! error rate at θ ∈ {60°, 360°}.
//!
//! Usage: `fault_sweep [--quick] [--n 5] [--topologies 5] [--threads K]
//!                     [--seed S] [--measure-ms MS]`

use dirca_experiments::cli::Flags;
use dirca_experiments::fault_sweep::{quick, render, FaultSweep};
use dirca_sim::SimDuration;

fn main() {
    let flags = Flags::from_env();
    let mut sweep = if flags.has("quick") {
        quick()
    } else {
        FaultSweep::default()
    };
    sweep.n_avg = flags.get_usize("n", sweep.n_avg);
    sweep.topologies = flags.get_usize("topologies", sweep.topologies);
    sweep.seed = flags.get_u64("seed", sweep.seed);
    if flags.get("measure-ms").is_some() {
        sweep.measure = SimDuration::from_millis(flags.get_u64("measure-ms", 0));
    }
    let threads = flags.get_threads();
    println!("{}", render(&sweep, threads));
}
