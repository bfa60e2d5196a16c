//! E7 — sensitivity of the analytical model's approximations: the paper's
//! DRTS-DCTS model vs a pessimistic Area-III exposure (θ' = 2θ) and vs
//! full-length failed handshakes.
//!
//! Usage: `ablation [--n 5]`

use dirca_analysis::ablation::ablation_table;
use dirca_analysis::sweep::paper_theta_grid;
use dirca_analysis::ProtocolTimes;
use dirca_experiments::cli::Flags;
use dirca_experiments::table::Table;

fn main() {
    let flags = Flags::from_env();
    let n = flags.get_density("n", 5.0);
    let rows = ablation_table(ProtocolTimes::paper(), n, &paper_theta_grid());
    let mut t = Table::new(vec![
        "θ (deg)".into(),
        "paper model".into(),
        "θ' = 2θ".into(),
        "full-length failures".into(),
    ]);
    for row in &rows {
        t.row(vec![
            format!("{:.0}", row.theta_degrees),
            format!("{:.4}", row.paper),
            format!("{:.4}", row.wide_area_three),
            format!("{:.4}", row.full_length_failures),
        ]);
    }
    println!(
        "Ablation — DRTS-DCTS maximum throughput under model variants (N = {n})\n\n{}",
        t.render()
    );
}
