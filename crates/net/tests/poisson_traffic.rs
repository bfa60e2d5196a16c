//! Tests of the unsaturated (Poisson) traffic model.

use dirca_mac::Scheme;
use dirca_net::{run, SimConfig, TrafficModel};
use dirca_sim::SimDuration;
use dirca_topology::fixtures;

fn poisson(pps: f64) -> TrafficModel {
    TrafficModel::Poisson {
        packets_per_sec: pps,
        max_queue: 16,
    }
}

fn config(scheme: Scheme, pps: f64) -> SimConfig {
    SimConfig::new(scheme)
        .with_seed(11)
        .with_traffic(poisson(pps))
        .with_warmup(SimDuration::from_millis(200))
        .with_measure(SimDuration::from_secs(5))
}

#[test]
fn light_load_is_carried_losslessly() {
    // 10 packets/s/node × 2 nodes × 11 680 bits ≈ 234 kbit/s offered —
    // well under capacity: carried load must match offered load closely
    // and nothing may be dropped. The window must be long enough for the
    // 15% tolerance to be a ≥3σ bound on the Poisson count (20 s ⇒ 400
    // expected packets, σ = 20, tolerance = 60 packets).
    let topo = fixtures::pair(0.5, 1.0);
    let mut cfg = config(Scheme::OrtsOcts, 10.0);
    cfg.measure = SimDuration::from_secs(20);
    let result = run(&topo, &cfg);
    let offered = 2.0 * 10.0;
    let carried = result.packets_acked() as f64 / 20.0;
    assert_eq!(result.queue_drops(), 0, "queue drops under light load");
    assert_eq!(result.packets_dropped(), 0);
    assert!(
        (carried - offered).abs() / offered < 0.15,
        "carried {carried} pkt/s vs offered {offered} pkt/s"
    );
}

#[test]
fn light_load_delay_is_near_service_floor() {
    // With almost no queueing, the end-to-end delay approaches the MAC
    // service time (~7 ms handshake + DIFS + mean backoff ≈ 7.5 ms).
    let topo = fixtures::pair(0.5, 1.0);
    let result = run(&topo, &config(Scheme::OrtsOcts, 5.0));
    let e2e = result
        .mean_e2e_delay()
        .expect("packets delivered")
        .as_secs_f64()
        * 1e3;
    assert!(e2e > 6.8, "e2e delay {e2e} ms below physical floor");
    assert!(e2e < 15.0, "e2e delay {e2e} ms too high for light load");
}

#[test]
fn overload_saturates_and_sheds_at_the_source() {
    // 200 packets/s/node × 11 680 bits × 2 nodes ≈ 4.7 Mbit/s offered on a
    // 2 Mbit/s channel: the carried load must cap near the saturation
    // throughput and the excess must be shed as queue drops.
    let topo = fixtures::pair(0.5, 1.0);
    let result = run(&topo, &config(Scheme::OrtsOcts, 200.0));
    let util = result.aggregate_throughput_bps() / 2e6;
    assert!(
        util > 0.55,
        "overloaded link should run near saturation: {util}"
    );
    assert!(
        result.queue_drops() > 100,
        "source queues must shed overload"
    );
}

#[test]
fn delay_grows_with_load() {
    let topo = fixtures::pair(0.5, 1.0);
    let light = run(&topo, &config(Scheme::OrtsOcts, 5.0));
    let heavy = run(&topo, &config(Scheme::OrtsOcts, 70.0));
    let d_light = light.mean_e2e_delay().unwrap();
    let d_heavy = heavy.mean_e2e_delay().unwrap();
    assert!(
        d_heavy > d_light,
        "delay must grow with load: {d_heavy} <= {d_light}"
    );
}

#[test]
fn poisson_runs_are_deterministic() {
    let topo = fixtures::hidden_terminal();
    let a = run(&topo, &config(Scheme::DrtsDcts, 30.0));
    let b = run(&topo, &config(Scheme::DrtsDcts, 30.0));
    assert_eq!(a.events_processed(), b.events_processed());
    assert_eq!(a.packets_acked(), b.packets_acked());
    assert_eq!(a.queue_drops(), b.queue_drops());
}

#[test]
fn arrival_counts_scale_with_rate() {
    // Twice the rate must produce roughly twice the carried packets while
    // under capacity.
    let topo = fixtures::pair(0.5, 1.0);
    let low = run(&topo, &config(Scheme::OrtsOcts, 8.0));
    let high = run(&topo, &config(Scheme::OrtsOcts, 16.0));
    let ratio = high.packets_acked() as f64 / low.packets_acked() as f64;
    assert!(
        (ratio - 2.0).abs() < 0.4,
        "rate doubling gave ratio {ratio}"
    );
}
