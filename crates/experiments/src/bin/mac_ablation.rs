//! E11 — MAC-mechanism ablations: EIFS, NAV-respect, and Ko-style omni
//! RTS fallback, isolated on the ring simulation.
//!
//! Usage: `mac_ablation [--quick] [--scheme drts-dcts] [--n 5] [--theta 30]
//!                      [--topologies 10] [--threads K]`

use dirca_experiments::cli::Flags;
use dirca_experiments::mac_ablation::{run_variants, standard_variants};
use dirca_experiments::table::{mean_range, Table};
use dirca_mac::Scheme;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let scheme = flags
        .try_get_scheme("scheme", Scheme::DrtsDcts)
        .unwrap_or_else(|e| e.exit());
    let n = flags.get_usize("n", 5);
    let theta = flags.get_f64("theta", 30.0);
    let topologies = flags.get_usize("topologies", if quick { 3 } else { 10 });
    let threads = flags.get_threads();
    let outcomes = run_variants(scheme, n, theta, topologies, threads, &standard_variants());
    let mut t = Table::new(vec![
        "MAC variant".into(),
        "throughput".into(),
        "delay (ms)".into(),
        "collision ratio".into(),
    ]);
    for (label, out) in &outcomes {
        let fmt = |s: &dirca_stats::Summary, d: usize| match (s.mean(), s.min(), s.max()) {
            (Some(m), Some(lo), Some(hi)) => mean_range(m, lo, hi, d),
            _ => "n/a".into(),
        };
        t.row(vec![
            label.clone(),
            fmt(&out.throughput, 3),
            fmt(&out.delay_ms, 1),
            fmt(&out.collision_ratio, 3),
        ]);
    }
    println!(
        "MAC-mechanism ablation — {scheme}, N = {n}, θ = {theta}°, {topologies} topologies\n\n{}",
        t.render()
    );
}
