//! Arithmetic of the run-result metrics on hand-constructed reports.
//!
//! The metrics registry snapshots these numbers into experiment reports, so
//! each derived quantity is pinned here against values computed by hand —
//! including the degenerate windows a simulation never produces but a
//! replay tool might.
#![expect(clippy::float_cmp, reason = "exact-zero identities are the point here")]

use dirca_mac::MacCounters;
use dirca_net::{AirtimeBreakdown, NodeReport, RunResult};
use dirca_sim::SimDuration;

/// A measured node that acked `acked` packets of 1000 bytes each, timing
/// out `ack_timeouts` times on the way.
fn node(id: usize, measured: bool, acked: u64, ack_timeouts: u64) -> NodeReport {
    NodeReport {
        node: id,
        measured,
        counters: MacCounters {
            rts_tx: acked + ack_timeouts,
            cts_tx: acked,
            data_tx: acked + ack_timeouts,
            ack_tx: acked,
            ack_timeouts,
            packets_acked: acked,
            data_acked_bytes: acked * 1000,
            service_delay_total: SimDuration::from_millis(acked * 8),
            ..MacCounters::new()
        },
        queue_drops: 0,
        fer_losses: 0,
        outage_losses: 0,
        delay_samples: Vec::new(),
        airtime: AirtimeBreakdown {
            rts: SimDuration::from_micros((acked + ack_timeouts) * 272),
            cts: SimDuration::from_micros(acked * 248),
            data: SimDuration::from_micros((acked + ack_timeouts) * 6032),
            ack: SimDuration::from_micros(acked * 248),
        },
        backlog: 5,
    }
}

#[test]
fn throughput_is_acked_bits_over_window() {
    let n = node(0, true, 25, 0);
    // 25 packets x 1000 bytes x 8 bits over 2 s.
    let bps = n.throughput_bps(SimDuration::from_secs(2));
    assert!((bps - 100_000.0).abs() < 1e-9, "got {bps}");
}

#[test]
fn throughput_of_zero_window_is_zero_not_nan() {
    let n = node(0, true, 25, 0);
    assert_eq!(n.throughput_bps(SimDuration::ZERO), 0.0);
}

#[test]
fn throughput_with_zero_acked_is_zero() {
    let n = node(0, true, 0, 4);
    assert_eq!(n.throughput_bps(SimDuration::from_secs(1)), 0.0);
}

#[test]
fn collision_ratio_counts_ack_timeouts_over_data_stage() {
    // 30 acked + 10 timeouts across the measured nodes -> 10 / 40.
    let r = RunResult::from_parts(
        vec![node(0, true, 10, 6), node(1, true, 20, 4)],
        SimDuration::from_secs(1),
        0,
    );
    let ratio = r.collision_ratio().expect("data stage reached");
    assert!((ratio - 0.25).abs() < 1e-12, "got {ratio}");
}

#[test]
fn collision_ratio_ignores_unmeasured_nodes() {
    let r = RunResult::from_parts(
        vec![node(0, true, 10, 0), node(1, false, 0, 99)],
        SimDuration::from_secs(1),
        0,
    );
    // The unmeasured node's 99 timeouts must not leak in.
    assert_eq!(r.collision_ratio(), Some(0.0));
}

#[test]
fn collision_ratio_is_none_when_no_handshake_reached_data() {
    let r = RunResult::from_parts(vec![node(0, true, 0, 0)], SimDuration::from_secs(1), 0);
    assert_eq!(r.collision_ratio(), None);
}

#[test]
fn airtime_breakdown_sums_measured_nodes_by_kind() {
    let r = RunResult::from_parts(
        vec![
            node(0, true, 10, 2),
            node(1, true, 5, 0),
            node(2, false, 100, 0),
        ],
        SimDuration::from_secs(1),
        0,
    );
    let a = r.airtime_breakdown();
    assert_eq!(a.rts, SimDuration::from_micros(17 * 272));
    assert_eq!(a.cts, SimDuration::from_micros(15 * 248));
    assert_eq!(a.data, SimDuration::from_micros(17 * 6032));
    assert_eq!(a.ack, SimDuration::from_micros(15 * 248));
    assert_eq!(a.control(), a.rts + a.cts + a.ack);
    assert_eq!(a.total(), a.control() + a.data);
}

#[test]
fn empty_result_yields_identity_metrics() {
    let r = RunResult::from_parts(Vec::new(), SimDuration::from_secs(1), 0);
    assert_eq!(r.packets_acked(), 0);
    assert_eq!(r.aggregate_throughput_bps(), 0.0);
    assert_eq!(r.mean_node_throughput_bps(), 0.0);
    assert_eq!(r.collision_ratio(), None);
    assert_eq!(r.mean_delay(), None);
    assert_eq!(r.total_backlog(), 0);
    assert_eq!(r.airtime_breakdown().total(), SimDuration::ZERO);
    assert_eq!(r.aggregate_counters().packets_acked, 0);
}

#[test]
fn aggregate_counters_merge_component_wise() {
    let r = RunResult::from_parts(
        vec![
            node(0, true, 10, 2),
            node(1, true, 20, 3),
            node(2, false, 7, 7),
        ],
        SimDuration::from_secs(1),
        42,
    );
    let agg = r.aggregate_counters();
    assert_eq!(agg.packets_acked, 30);
    assert_eq!(agg.ack_timeouts, 5);
    assert_eq!(agg.rts_tx, 35);
    assert_eq!(agg.data_acked_bytes, 30_000);
    assert_eq!(
        agg.service_delay_total,
        SimDuration::from_millis(30 * 8),
        "delay totals add linearly"
    );
    assert_eq!(r.events_processed(), 42);
}

#[test]
fn derived_counter_ratios_match_aggregates() {
    let r = RunResult::from_parts(vec![node(0, true, 15, 5)], SimDuration::from_secs(1), 0);
    let agg = r.aggregate_counters();
    // The MacCounters-level ratio and the RunResult-level ratio agree.
    assert_eq!(agg.collision_ratio(), r.collision_ratio());
    assert_eq!(agg.mean_service_delay(), r.mean_delay());
}

#[test]
fn backlog_sums_over_all_nodes() {
    // Backlog is an occupancy snapshot, not a flow metric: unmeasured
    // nodes count too (5 per node in the fixture).
    let r = RunResult::from_parts(
        vec![
            node(0, true, 1, 0),
            node(1, false, 1, 0),
            node(2, false, 1, 0),
        ],
        SimDuration::from_secs(1),
        0,
    );
    assert_eq!(r.total_backlog(), 15);
}
