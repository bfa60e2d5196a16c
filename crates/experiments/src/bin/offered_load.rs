//! E9 — extension: throughput and end-to-end delay vs offered load under
//! Poisson traffic, per scheme.
//!
//! Usage: `offered_load [--quick] [--n 5] [--theta 30] [--topologies 8]
//!                      [--threads K] [--seed S]`

use dirca_experiments::cli::Flags;
use dirca_experiments::offered_load::{run_sweep, LoadSweep};
use dirca_experiments::table::Table;
use dirca_mac::Scheme;
use dirca_sim::SimDuration;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let sweep = LoadSweep {
        n_avg: flags.get_usize("n", 5),
        beamwidth_degrees: flags.get_f64("theta", 30.0),
        topologies: flags.get_usize("topologies", if quick { 3 } else { 8 }),
        seed: flags.get_u64("seed", 0x10AD),
        measure: SimDuration::from_millis(
            flags.get_u64("measure-ms", if quick { 1000 } else { 5000 }),
        ),
        ..LoadSweep::default()
    };
    let threads = flags.get_threads();
    println!(
        "Offered load sweep — N = {}, θ = {}°, Poisson arrivals, {} topologies/point\n",
        sweep.n_avg, sweep.beamwidth_degrees, sweep.topologies
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
