//! E12 — when is the RTS/CTS handshake worth it? Simulated throughput and
//! collision ratio with vs without the handshake, across data sizes.
//!
//! Usage: `rts_threshold [--quick] [--n 5] [--topologies 8] [--threads K]`

use dirca_experiments::cli::Flags;
use dirca_experiments::rts_threshold::{run_study, ThresholdStudy};
use dirca_experiments::table::Table;
use dirca_sim::SimDuration;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let study = ThresholdStudy {
        n_avg: flags.get_usize("n", 5),
        topologies: flags.get_usize("topologies", if quick { 3 } else { 8 }),
        measure: SimDuration::from_millis(
            flags.get_u64("measure-ms", if quick { 1000 } else { 5000 }),
        ),
        ..ThresholdStudy::default()
    };
    let threads = flags.get_threads();
    let rows = run_study(&study, threads);
    let mut t = Table::new(vec![
        "data (bytes)".into(),
        "RTS/CTS th".into(),
        "basic th".into(),
        "RTS/CTS coll".into(),
        "basic coll".into(),
    ]);
    for row in &rows {
        let m = |s: &dirca_stats::Summary, d: usize| {
            s.mean().map_or("n/a".into(), |v| format!("{v:.0$}", d))
        };
        t.row(vec![
            format!("{}", row.data_bytes),
            m(&row.with_handshake, 3),
            m(&row.basic_access, 3),
            m(&row.handshake_collisions, 3),
            m(&row.basic_collisions, 3),
        ]);
    }
    println!(
        "RTS-threshold study — ORTS-OCTS, N = {}, {} topologies\n\n{}",
        study.n_avg,
        study.topologies,
        t.render()
    );
}
