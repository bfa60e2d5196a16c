//! E13 — airtime accounting: where does each scheme's time go?
//!
//! For each scheme, sums the measured nodes' transmit airtime by frame
//! kind over the ring simulation and reports the control overhead and the
//! idle/deferring remainder — the direct measurement behind the paper's
//! claim that conservative collision avoidance wastes channel time on
//! coordination and waiting.
//!
//! Usage: `airtime [--quick] [--n 5] [--theta 30] [--topologies 8]`

use dirca_experiments::cli::Flags;
use dirca_experiments::ringsim::{run_topologies, CellGuards, RingExperiment};
use dirca_experiments::table::Table;
use dirca_mac::Scheme;
use dirca_net::SimConfig;
use dirca_sim::SimDuration;

fn main() {
    let flags = Flags::from_env();
    let quick = flags.has("quick");
    let theta = flags.get_beamwidth("theta", 30.0);
    let mut experiment = RingExperiment {
        n_avg: 5,
        topologies: if quick { 3 } else { 8 },
        seed: 0xA127,
        config: SimConfig::new(Scheme::OrtsOcts)
            .with_beamwidth_degrees(theta)
            .with_warmup(SimDuration::from_millis(200))
            .with_measure(SimDuration::from_millis(if quick { 1000 } else { 5000 })),
    };
    flags.read_ring_cell(&mut experiment);
    let (n, topologies) = (experiment.n_avg, experiment.topologies);
    let node_seconds = experiment.config.measure.as_secs_f64() * n as f64;
    let bit_rate = experiment.config.params.bit_rate_bps as f64;

    let mut t = Table::new(vec![
        "scheme".into(),
        "data %".into(),
        "RTS %".into(),
        "CTS %".into(),
        "ACK %".into(),
        "idle/defer %".into(),
        "goodput".into(),
    ]);
    for scheme in Scheme::ALL {
        experiment.config.scheme = scheme;
        // Per topology: the data, RTS, CTS and ACK airtime fractions per
        // measured node-second, the idle/defer remainder, and the goodput.
        let outcomes = run_topologies(&experiment, 1, &CellGuards::default(), |result, _| {
            let air = result.airtime_breakdown();
            let busy = [air.data, air.rts, air.cts, air.ack];
            let [data, rts, cts, ack] = busy.map(|d| d.as_secs_f64() / node_seconds);
            let idle = 1.0 - air.total().as_secs_f64() / node_seconds;
            let goodput = result.aggregate_throughput_bps() / bit_rate;
            [data, rts, cts, ack, idle, goodput]
        });
        let mut sums = [0.0f64; 6];
        for outcome in outcomes {
            let values = outcome.unwrap_or_else(|failure| panic!("{scheme}: {failure}"));
            for (sum, value) in sums.iter_mut().zip(values) {
                *sum += value;
            }
        }
        let k = topologies as f64;
        let mut row = vec![scheme.to_string()];
        row.extend(sums[..5].iter().map(|f| format!("{:.1}", 100.0 * f / k)));
        row.push(format!("{:.3}", sums[5] / k));
        t.row(row);
    }
    println!(
        "Airtime breakdown per measured node (N = {n}, θ = {theta}°, {topologies} topologies)\n\
         (percent of each inner node's wall-clock; idle/defer = not transmitting)\n\n{}",
        t.render()
    );
}
