//! The paper's headline experiment in miniature: sweep the antenna
//! beamwidth and watch spatial reuse trade off against collision
//! avoidance.
//!
//! For each beamwidth, a handful of random ring topologies (N = 5) are
//! simulated under all three schemes; the table shows mean normalized
//! throughput of the inner nodes. Expect DRTS-DCTS to shine at narrow
//! beams and fade as the beam widens, while ORTS-OCTS ignores θ entirely.
//!
//! Run with: `cargo run --release --example beamwidth_sweep`

use dirca::experiments::ringsim::{run_cell, RingExperiment};
use dirca::mac::Scheme;
use dirca::sim::SimDuration;

fn main() {
    let thetas = [30.0, 60.0, 90.0, 120.0, 150.0];
    println!(
        "{:>7} | {:>10} | {:>10} | {:>10}",
        "θ (deg)", "ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"
    );
    for theta in thetas {
        let mut cells = Vec::new();
        for scheme in Scheme::ALL {
            let mut exp = RingExperiment::paper(scheme, 5, theta);
            exp.topologies = 6;
            exp.config.warmup = SimDuration::from_millis(200);
            exp.config.measure = SimDuration::from_secs(3);
            let outcome = run_cell(&exp, 4);
            cells.push(outcome.throughput.mean().unwrap_or(0.0));
        }
        println!(
            "{:>7.0} | {:>10.3} | {:>10.3} | {:>10.3}",
            theta, cells[0], cells[1], cells[2]
        );
    }
    println!("\n(normalized aggregate throughput of the inner 5 nodes; 6 topologies per cell)");
}
