//! E8 — extension: directional reception (Nasipuri-style antenna
//! selection) vs the paper's omni-reception baseline.
//!
//! Usage: `directional_rx [--quick] [--topologies T] [--n 5] [--theta 30]
//!                        [--threads K]`

use dirca_experiments::cli::Flags;
use dirca_experiments::directional_rx::compare;
use dirca_experiments::table::{mean_range, Table};
use dirca_mac::Scheme;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let topologies = flags.get_usize("topologies", if quick { 4 } else { 25 });
    let n = flags.get_usize("n", 5);
    let theta = flags.get_f64("theta", 30.0);
    let threads = flags.get_threads();
    let mut t = Table::new(vec![
        "scheme".into(),
        "omni RX throughput".into(),
        "directional RX throughput".into(),
    ]);
    for scheme in Scheme::ALL {
        let cmp = compare(scheme, n, theta, topologies, threads);
        let fmt = |s: &dirca_stats::Summary| match (s.mean(), s.min(), s.max()) {
            (Some(m), Some(lo), Some(hi)) => mean_range(m, lo, hi, 3),
            _ => "n/a".into(),
        };
        t.row(vec![
            scheme.to_string(),
            fmt(&cmp.omni_rx.throughput),
            fmt(&cmp.directional_rx.throughput),
        ]);
    }
    println!(
        "Directional reception extension (N = {n}, θ = {theta}°, {topologies} topologies)\n\n{}",
        t.render()
    );
}
