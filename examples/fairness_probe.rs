//! Probing the fairness problem of §4: binary exponential backoff lets the
//! last winner keep winning, and wide beams make it worse.
//!
//! The example simulates one ring topology (N = 3, few competitors — the
//! regime the paper calls out as especially unfair) under DRTS-DCTS with a
//! narrow and a wide beam, and prints each inner node's throughput plus
//! Jain's fairness index.
//!
//! Run with: `cargo run --release --example fairness_probe`

use dirca::mac::Scheme;
use dirca::net::{run, SimConfig};
use dirca::sim::SimDuration;
use dirca::stats::jain_index;
use dirca::topology::RingSpec;
use rand::SeedableRng;

fn main() {
    let spec = RingSpec::paper(3, 1.0);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
    let topology = spec.generate(&mut rng).expect("topology generation");

    for theta in [30.0, 150.0] {
        let config = SimConfig::new(Scheme::DrtsDcts)
            .with_beamwidth_degrees(theta)
            .with_seed(3)
            .with_warmup(SimDuration::from_millis(200))
            .with_measure(SimDuration::from_secs(5));
        let result = run(&topology, &config);
        let per_node = result.node_throughputs_bps();
        println!("DRTS-DCTS, θ = {theta}°:");
        for (i, th) in per_node.iter().enumerate() {
            println!("  node {i}: {th:>9.0} b/s");
        }
        println!(
            "  Jain fairness index: {:.3}\n",
            jain_index(&per_node).unwrap_or(f64::NAN)
        );
    }
    println!(
        "A Jain index near 1 means the inner nodes share the channel evenly; \
         values toward 1/n mean one node monopolized it. Averaged over many \
         topologies (see the fairness section of `paper_grid`), wider beams \
         score consistently lower."
    );
}
