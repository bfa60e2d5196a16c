//! E11 — MAC-mechanism ablations: EIFS, NAV-respect, and Ko-style omni
//! RTS fallback, isolated on the ring simulation.
//!
//! Usage: `mac_ablation [--quick] [--scheme drts-dcts] [--n 5] [--theta 30]
//!                      [--topologies 10] [--threads K]`

use dirca_experiments::cli::Flags;
use dirca_experiments::mac_ablation::{run_variants, standard_variants};
use dirca_experiments::ringsim::RingExperiment;
use dirca_experiments::table::{mean_range, Table};
use dirca_mac::Scheme;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let scheme = flags
        .try_get_scheme("scheme", Scheme::DrtsDcts)
        .unwrap_or_else(|e| e.exit());
    let n = flags.get_count("n", 5);
    let theta = flags.get_beamwidth("theta", 30.0);
    let mut base = RingExperiment::paper(scheme, n, theta);
    base.topologies = flags.get_count("topologies", if quick { 3 } else { 10 });
    let threads = flags.get_threads();
    let outcomes = run_variants(&base, threads, &standard_variants());
    let mut t = Table::new(vec![
        "MAC variant".into(),
        "throughput".into(),
        "delay (ms)".into(),
        "collision ratio".into(),
    ]);
    for (label, out) in &outcomes {
        t.row(vec![
            label.clone(),
            mean_range(&out.throughput, 3),
            mean_range(&out.delay_ms, 1),
            mean_range(&out.collision_ratio, 3),
        ]);
    }
    println!(
        "MAC-mechanism ablation — {scheme}, N = {n}, θ = {theta}°, {} topologies\n\n{}",
        base.topologies,
        t.render()
    );
}
