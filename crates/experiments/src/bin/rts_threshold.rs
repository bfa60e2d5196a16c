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
    let mut study = ThresholdStudy::default();
    if flags.has("quick") {
        study.base.topologies = 3;
        study.base.config.measure = SimDuration::from_secs(1);
    }
    study.base.n_avg = flags.get_count("n", study.base.n_avg);
    study.base.topologies = flags.get_count("topologies", study.base.topologies);
    study.base.config.measure = flags.get_window("measure-ms", study.base.config.measure);
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
        let m = |s: &dirca_stats::Summary| s.mean().map_or("n/a".into(), |v| format!("{v:.3}"));
        t.row(vec![
            format!("{}", row.data_bytes),
            m(&row.with_handshake),
            m(&row.basic_access),
            m(&row.handshake_collisions),
            m(&row.basic_collisions),
        ]);
    }
    println!(
        "RTS-threshold study — ORTS-OCTS, N = {}, {} topologies\n\n{}",
        study.base.n_avg,
        study.base.topologies,
        t.render()
    );
}
