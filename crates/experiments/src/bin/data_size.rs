//! E10 — extension: analytical maximum throughput vs data packet length.
//!
//! Quantifies the paper's §3 remark that the RTS/CTS-based handshake is
//! warranted "in the case in which data packets are much longer than
//! control packets": with short data packets the four-way overhead caps
//! all three schemes.
//!
//! Usage: `data_size [--n 5] [--theta 30]`

use dirca_analysis::sweep::data_length_sweep;
use dirca_analysis::ProtocolTimes;
use dirca_experiments::cli::Flags;
use dirca_experiments::table::scheme_table;

fn main() {
    let flags = Flags::from_env();
    let n = flags.get_density("n", 5.0);
    let theta = flags.get_beamwidth("theta", 30.0);
    let lengths = [5u32, 10, 25, 50, 100, 200, 400, 800];
    let rows = data_length_sweep(ProtocolTimes::paper(), n, theta.to_radians(), &lengths);
    let mut t = scheme_table("l_data (slots)".into());
    for row in &rows {
        t.row(vec![
            format!("{}", row.l_data),
            format!("{:.4}", row.orts_octs),
            format!("{:.4}", row.drts_dcts),
            format!("{:.4}", row.drts_octs),
        ]);
    }
    println!(
        "Maximum achievable throughput vs data length (N = {n}, θ = {theta}°, \
         l_rts = l_cts = l_ack = 5τ)\n\n{}",
        t.render()
    );
}
