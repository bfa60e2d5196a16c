//! E9 — extension: throughput and end-to-end delay vs offered load under
//! Poisson traffic, per scheme.
//!
//! Usage: `offered_load [--quick] [--n 5] [--theta 30] [--topologies 8]
//!                      [--threads K] [--seed S]`

use dirca_experiments::cli::Flags;
use dirca_experiments::offered_load::{run_sweep, LoadSweep, DEFAULT_THETA};
use dirca_experiments::table::Table;
use dirca_mac::Scheme;
use dirca_sim::SimDuration;

fn main() {
    let flags = Flags::from_env();
    let mut sweep = LoadSweep::default();
    if flags.has("quick") {
        sweep.base.topologies = 3;
        sweep.base.config.measure = SimDuration::from_secs(1);
    }
    let theta = flags.get_beamwidth("theta", DEFAULT_THETA);
    flags.read_ring_cell(&mut sweep.base);
    sweep.base.config = sweep.base.config.with_beamwidth_degrees(theta);
    let threads = flags.get_threads();
    println!(
        "Offered load sweep — N = {}, θ = {theta}°, Poisson arrivals, {} topologies/point\n",
        sweep.base.n_avg, sweep.base.topologies
    );
    let mut t = Table::new(vec![
        "offered (pkt/s/node)".into(),
        "ORTS-OCTS th".into(),
        "DRTS-DCTS th".into(),
        "ORTS-OCTS delay (ms)".into(),
        "DRTS-DCTS delay (ms)".into(),
    ]);
    let omni = run_sweep(Scheme::OrtsOcts, &sweep, threads);
    let dir = run_sweep(Scheme::DrtsDcts, &sweep, threads);
    let mut failed = 0usize;
    for (scheme, points) in [("ORTS-OCTS", &omni), ("DRTS-DCTS", &dir)] {
        for p in points.iter() {
            for failure in &p.failed_topologies {
                failed += 1;
                eprintln!("warning: {scheme} at {} pkt/s: {failure}", p.offered_pps);
            }
        }
    }
    for (o, d) in omni.iter().zip(&dir) {
        t.row(vec![
            format!("{:.0}", o.offered_pps),
            format!("{:.3}", o.throughput.mean().unwrap_or(0.0)),
            format!("{:.3}", d.throughput.mean().unwrap_or(0.0)),
            format!("{:.1}", o.e2e_delay_ms.mean().unwrap_or(f64::NAN)),
            format!("{:.1}", d.e2e_delay_ms.mean().unwrap_or(f64::NAN)),
        ]);
    }
    println!("{}", t.render());
    if failed > 0 {
        eprintln!("{failed} topology simulations failed; summaries above exclude them");
        std::process::exit(1);
    }
}
