//! Analysis vs simulation, side by side (the paper's §3 vs §4).
//!
//! The analytical model predicts *relative* behaviour — who wins at which
//! beamwidth — rather than absolute numbers (its slotted, Poisson-field
//! abstractions differ from the 802.11 simulation in many details, as the
//! paper itself discusses). This example prints both columns so the shape
//! agreement is visible: DRTS-DCTS dominant at 30°, the advantage eroding
//! with beamwidth, ORTS-OCTS flat.
//!
//! Run with: `cargo run --release --example analysis_vs_simulation`

use dirca::analysis::{optimize, ModelInput, ProtocolTimes};
use dirca::experiments::ringsim::{run_cell, RingExperiment};
use dirca::mac::Scheme;
use dirca::sim::SimDuration;

fn main() {
    let n = 5usize;
    println!("N = {n}: analytical optimum vs simulated mean (normalized throughput)\n");
    println!(
        "{:>7} | {:^23} | {:^23}",
        "", "analysis", "simulation (4 topologies)"
    );
    println!(
        "{:>7} | {:>10} {:>12} | {:>10} {:>12}",
        "θ (deg)", "ORTS-OCTS", "DRTS-DCTS", "ORTS-OCTS", "DRTS-DCTS"
    );
    for theta in [30.0f64, 90.0, 150.0] {
        let input = ModelInput::new(ProtocolTimes::paper(), n as f64, theta.to_radians());
        let a_omni = optimize::max_throughput(Scheme::OrtsOcts, &input).throughput;
        let a_dir = optimize::max_throughput(Scheme::DrtsDcts, &input).throughput;

        let sim = |scheme| {
            let mut exp = RingExperiment::paper(scheme, n, theta);
            exp.topologies = 4;
            exp.config.warmup = SimDuration::from_millis(200);
            exp.config.measure = SimDuration::from_secs(3);
            run_cell(&exp, 4).throughput.mean().unwrap_or(0.0)
        };
        let s_omni = sim(Scheme::OrtsOcts);
        let s_dir = sim(Scheme::DrtsDcts);
        println!("{theta:>7.0} | {a_omni:>10.3} {a_dir:>12.3} | {s_omni:>10.3} {s_dir:>12.3}");
    }
    println!(
        "\nThe absolute scales differ (the model normalizes to slots and ignores \
         backoff dynamics); the *ordering* and the θ-trend are what the paper \
         validates, and both columns agree on them."
    );
}
