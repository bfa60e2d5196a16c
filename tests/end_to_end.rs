//! Cross-crate integration tests: the full stack (topology → radio → MAC →
//! metrics) on deterministic fixtures.

#![expect(clippy::float_cmp, reason = "assertions compare exact expected values")]

use dirca::mac::Scheme;
use dirca::net::{run, RunResult, SimConfig, TrafficModel};
use dirca::sim::SimDuration;
use dirca::topology::{fixtures, Topology};

fn quick(scheme: Scheme, seed: u64) -> SimConfig {
    SimConfig::new(scheme)
        .with_seed(seed)
        .with_warmup(SimDuration::from_millis(100))
        .with_measure(SimDuration::from_secs(2))
}

fn run_fixture(topology: &Topology, scheme: Scheme, seed: u64) -> RunResult {
    run(topology, &quick(scheme, seed))
}

/// Network-wide frame-conservation invariants that must hold for any run
/// on any topology under any scheme.
fn check_conservation(result: &RunResult) {
    let mut rts = 0u64;
    let mut cts_tx = 0u64;
    let mut data_tx = 0u64;
    let mut ack_tx = 0u64;
    let mut delivered = 0u64;
    let mut duplicates = 0u64;
    let mut acked = 0u64;
    let mut cts_timeouts = 0u64;
    let mut ack_timeouts = 0u64;
    for node in &result.nodes {
        let c = &node.counters;
        rts += c.rts_tx;
        cts_tx += c.cts_tx;
        data_tx += c.data_tx;
        ack_tx += c.ack_tx;
        delivered += c.data_delivered;
        duplicates += c.duplicates_dropped;
        acked += c.packets_acked;
        cts_timeouts += c.cts_timeouts;
        ack_timeouts += c.ack_timeouts;
    }
    // Every data transmission required a decoded CTS; every decoded CTS
    // required a transmitted CTS; every CTS answers a decoded RTS. Slack:
    // an RTS or CTS transmitted just before the warm-up counter reset can
    // enable a DATA counted just after it — at most one handshake in
    // flight per node.
    let boundary_slack = result.nodes.len() as u64;
    assert!(
        rts + boundary_slack >= data_tx,
        "more DATA sent than RTS: {data_tx} > {rts} + {boundary_slack}"
    );
    assert!(
        cts_tx + boundary_slack >= data_tx,
        "more DATA sent than CTS transmitted: {data_tx} > {cts_tx} + {boundary_slack}"
    );
    // Receivers ACK exactly the data frames they accepted — fresh
    // deliveries plus re-ACKed duplicates.
    assert!(
        ack_tx <= delivered + duplicates,
        "more ACKs than accepted frames: {ack_tx} > {delivered} + {duplicates}"
    );
    // A sender counts success only after decoding an ACK. Slack: an ACK
    // transmitted just before the warm-up counter reset is decoded (and
    // counted by the sender) just after it — at most one in-flight frame
    // per node.
    let inflight_slack = result.nodes.len() as u64;
    assert!(
        acked <= ack_tx + inflight_slack,
        "more successes than ACKs: {acked} > {ack_tx} + {inflight_slack}"
    );
    // Deliveries can't exceed data transmissions (same warm-up boundary
    // slack).
    assert!(
        delivered <= data_tx + inflight_slack,
        "more deliveries than data frames: {delivered} > {data_tx}"
    );
    // Sender-side accounting: every RTS ends in exactly one of {CTS
    // received (data_tx), CTS timeout}, modulo handshakes still in flight
    // at the measurement boundaries.
    let settled = data_tx + cts_timeouts;
    assert!(
        settled <= rts + 2,
        "RTS accounting broken: {settled} settled vs {rts} sent"
    );
    assert!(
        rts <= settled + 2 * result.nodes.len() as u64,
        "too many unsettled RTS: {rts} sent vs {settled} settled"
    );
    // ACK timeouts can't exceed data transmissions.
    assert!(ack_timeouts <= data_tx);
}

#[test]
fn conservation_holds_on_all_fixtures_and_schemes() {
    let topologies = [
        fixtures::pair(0.5, 1.0),
        fixtures::hidden_terminal(),
        fixtures::parallel_pairs(),
        fixtures::line(6, 0.7, 1.0),
        fixtures::star(5, 0.8, 1.0),
        fixtures::ring_of(6, 1.0, 2.5),
    ];
    for topology in &topologies {
        for scheme in Scheme::ALL {
            let result = run_fixture(topology, scheme, 99);
            check_conservation(&result);
        }
    }
}

#[test]
fn saturated_pair_is_efficient_and_lossless() {
    let result = run_fixture(&fixtures::pair(0.5, 1.0), Scheme::OrtsOcts, 5);
    assert_eq!(result.packets_dropped(), 0);
    assert_eq!(result.collision_ratio(), Some(0.0));
    let util = result.aggregate_throughput_bps() / 2e6;
    assert!(util > 0.6, "clean-link utilization only {util}");
    // The theoretical ceiling with zero backoff: 11 680 data bits per
    // DIFS + RTS + CTS + DATA + ACK + 3×SIFS cycle ≈ 6 884 µs → 84.8% of
    // the 2 Mbps channel. Anything above that is a protocol violation.
    assert!(util < 0.849, "utilization {util} above protocol ceiling");
}

#[test]
fn full_mesh_shares_one_channel() {
    // Six nodes all in range: no spatial reuse possible, so aggregate
    // throughput must stay at single-channel scale even under DRTS-DCTS
    // (beams still silence third parties at these distances), and the sum
    // cannot exceed the channel rate.
    let topology = fixtures::ring_of(6, 1.0, 2.5);
    for scheme in Scheme::ALL {
        let result = run_fixture(&topology, scheme, 17);
        let util = result.aggregate_throughput_bps() / 2e6;
        assert!(util < 0.85, "{scheme}: impossible utilization {util}");
        assert!(util > 0.3, "{scheme}: collapsed to {util}");
    }
}

#[test]
fn parallel_pairs_exceed_single_channel_with_beams() {
    // The whole point of directional transmission: two disjoint beams can
    // run concurrently, so aggregate utilization can exceed what a single
    // shared channel would allow.
    let config = quick(Scheme::DrtsDcts, 23).with_beamwidth_degrees(30.0);
    let result = run(&fixtures::parallel_pairs(), &config);
    let util = result.aggregate_throughput_bps() / 2e6;
    assert!(util > 0.9, "no spatial reuse achieved: {util}");
}

#[test]
fn delays_are_physically_plausible() {
    // A handshake takes ~6.8 ms on the air; mean MAC delay must be at
    // least that and no more than a few hundred ms at this contention.
    let result = run_fixture(&fixtures::hidden_terminal(), Scheme::OrtsOcts, 31);
    let delay = result.mean_delay().expect("packets were delivered");
    let ms = delay.as_secs_f64() * 1e3;
    assert!(ms > 6.8, "delay {ms} ms below the physical floor");
    assert!(ms < 500.0, "delay {ms} ms implausibly large");
}

#[test]
fn results_identical_across_repeated_runs() {
    let topology = fixtures::parallel_pairs();
    for scheme in Scheme::ALL {
        let a = run_fixture(&topology, scheme, 7);
        let b = run_fixture(&topology, scheme, 7);
        assert_eq!(a.events_processed(), b.events_processed(), "{scheme}");
        assert_eq!(a.packets_acked(), b.packets_acked(), "{scheme}");
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.counters.rts_tx, nb.counters.rts_tx, "{scheme}");
            assert_eq!(
                na.counters.service_delay_total, nb.counters.service_delay_total,
                "{scheme}"
            );
        }
    }
}

#[test]
fn beamwidth_bounds_coverage_monotonically() {
    // Widening the beam can only add interference: on parallel pairs,
    // DRTS-DCTS throughput must not increase when going from 30° to 180°.
    let narrow = run(
        &fixtures::parallel_pairs(),
        &quick(Scheme::DrtsDcts, 3).with_beamwidth_degrees(30.0),
    );
    let wide = run(
        &fixtures::parallel_pairs(),
        &quick(Scheme::DrtsDcts, 3).with_beamwidth_degrees(180.0),
    );
    assert!(
        narrow.aggregate_throughput_bps() >= wide.aggregate_throughput_bps(),
        "narrow {} < wide {}",
        narrow.aggregate_throughput_bps(),
        wide.aggregate_throughput_bps()
    );
}

#[test]
fn unsaturated_traffic_stops() {
    // With saturation off and no packets enqueued, the network stays
    // silent: zero events beyond priming, zero throughput.
    let mut config = quick(Scheme::OrtsOcts, 1);
    config.traffic = TrafficModel::Manual;
    let result = run(&fixtures::pair(0.5, 1.0), &config);
    assert_eq!(result.packets_acked(), 0);
    assert_eq!(result.aggregate_throughput_bps(), 0.0);
}
