//! E14 — validation: the analytical optimum vs simulation on Poisson-field
//! topologies with a boundary-free measured core (the model's own
//! setting).
//!
//! Usage: `model_vs_sim [--quick] [--n 5] [--fields 12] [--threads K]`

use dirca_experiments::cli::Flags;
use dirca_experiments::model_vs_sim::compare;
use dirca_experiments::table::Table;
use dirca_sim::SimDuration;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let n = flags.get_density("n", 5.0);
    let fields = flags.get_count("fields", if quick { 4 } else { 12 });
    let measure = SimDuration::from_millis(if quick { 1000 } else { 5000 });
    let measure = flags.get_window("measure-ms", measure);
    let threads = flags.get_threads();
    let cells = compare(n, &[30.0, 90.0, 150.0], fields, measure, 0x0E14, threads);
    let mut t = Table::new(vec![
        "θ (deg)".into(),
        "scheme".into(),
        "analysis (opt p)".into(),
        "simulation (per node)".into(),
    ]);
    for c in &cells {
        t.row(vec![
            format!("{:.0}", c.theta_degrees),
            c.scheme.to_string(),
            format!("{:.3}", c.analytical),
            c.simulated
                .mean()
                .map_or("n/a".into(), |m| format!("{m:.3}")),
        ]);
    }
    println!(
        "Analysis vs simulation on Poisson fields (N = {n}, core-measured, {fields} fields)\n\n{}",
        t.render()
    );
}
