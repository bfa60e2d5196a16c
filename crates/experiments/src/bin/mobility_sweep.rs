//! E17 — extension: throughput and handshake failures of the three
//! schemes vs node speed and antenna side-lobe level.
//!
//! Usage: `mobility_sweep [--quick] [--n 5] [--beamwidth 60] [--margin M]
//!                        [--topologies 5] [--threads K] [--seed S]
//!                        [--measure-ms MS]`

use dirca_experiments::cli::Flags;
use dirca_experiments::mobility_sweep::{quick, render, MobilitySweep, DEFAULT_BEAMWIDTH};

fn main() {
    let flags = Flags::from_env();
    let mut sweep = if flags.has("quick") {
        quick()
    } else {
        MobilitySweep::default()
    };
    let theta = flags.get_beamwidth("beamwidth", DEFAULT_BEAMWIDTH);
    sweep.margin = flags.get_margin("margin", sweep.margin);
    flags.read_ring_cell(&mut sweep.base);
    sweep.base.config = sweep.base.config.with_beamwidth_degrees(theta);
    let threads = flags.get_threads();
    println!("{}", render(&sweep, theta, threads));
}
