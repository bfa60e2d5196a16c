//! E17 — extension: throughput and handshake failures of the three
//! schemes vs node speed and antenna side-lobe level.
//!
//! Usage: `mobility_sweep [--quick] [--n 5] [--beamwidth 60] [--margin M]
//!                        [--topologies 5] [--threads K] [--seed S]
//!                        [--measure-ms MS]`

use dirca_experiments::cli::Flags;
use dirca_experiments::mobility_sweep::{quick, render, MobilitySweep};
use dirca_sim::SimDuration;

fn main() {
    let flags = Flags::from_env();
    let mut sweep = if flags.has("quick") {
        quick()
    } else {
        MobilitySweep::default()
    };
    sweep.n_avg = flags.get_usize("n", sweep.n_avg);
    sweep.beamwidth_degrees = flags.get_f64("beamwidth", sweep.beamwidth_degrees);
    sweep.margin = flags.get_f64("margin", sweep.margin);
    sweep.topologies = flags.get_usize("topologies", sweep.topologies);
    sweep.seed = flags.get_u64("seed", sweep.seed);
    if flags.get("measure-ms").is_some() {
        sweep.measure = SimDuration::from_millis(flags.get_u64("measure-ms", 0));
    }
    let threads = flags.get_threads();
    println!("{}", render(&sweep, threads));
}
