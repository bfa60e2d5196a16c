//! E8 — extension: directional reception (Nasipuri-style antenna
//! selection) vs the paper's omni-reception baseline.
//!
//! Usage: `directional_rx [--quick] [--topologies T] [--n 5] [--theta 30]
//!                        [--threads K]`

use dirca_experiments::cli::Flags;
use dirca_experiments::directional_rx::compare;
use dirca_experiments::ringsim::RingExperiment;
use dirca_experiments::table::{mean_range, Table};
use dirca_mac::Scheme;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let topologies = flags.get_count("topologies", if quick { 4 } else { 25 });
    let n = flags.get_count("n", 5);
    let theta = flags.get_beamwidth("theta", 30.0);
    let threads = flags.get_threads();
    let mut base = RingExperiment::paper(Scheme::OrtsOcts, n, theta);
    base.topologies = topologies;
    let mut t = Table::new(vec![
        "scheme".into(),
        "omni RX throughput".into(),
        "directional RX throughput".into(),
    ]);
    for scheme in Scheme::ALL {
        base.config.scheme = scheme;
        let cmp = compare(&base, threads);
        t.row(vec![
            scheme.to_string(),
            mean_range(&cmp.omni_rx.throughput, 3),
            mean_range(&cmp.directional_rx.throughput, 3),
        ]);
    }
    println!(
        "Directional reception extension (N = {n}, θ = {theta}°, {topologies} topologies)\n\n{}",
        t.render()
    );
}
