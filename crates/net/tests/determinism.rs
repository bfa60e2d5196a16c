//! Determinism: two same-seed runs on a random ring topology must produce
//! byte-identical records (the frame log among them) and identical
//! counters.
//!
//! This is the repository's guard against ordering-sensitive state sneaking
//! back into the simulation path (e.g. hash-map iteration, thread timing,
//! or entropy-seeded RNGs): any such regression shows up as a trace
//! divergence long before it would be visible in aggregate statistics.

mod common;

use dirca_mac::Scheme;
use dirca_net::trace::run_traced;

/// Runs one simulation on a seeded random ring and returns every record
/// its recorder took (the frame log among them) serialized to bytes, plus
/// headline counters.
fn ring_run(scheme: Scheme, seed: u64) -> (Vec<u8>, u64, u64) {
    let config = common::ring_config(scheme, seed);
    let (result, ring) = run_traced(&common::ring_topology(seed), &config, common::CAPACITY);
    let trace = common::ring_records(&ring);
    assert!(trace.len() > 100, "{scheme}: implausibly few records");
    (
        format!("{trace:?}").into_bytes(),
        result.events_processed(),
        result.aggregate_counters().packets_acked,
    )
}

#[test]
fn same_seed_ring_runs_are_byte_identical() {
    for scheme in Scheme::ALL {
        let (trace_a, events_a, acked_a) = ring_run(scheme, 7);
        let (trace_b, events_b, acked_b) = ring_run(scheme, 7);
        assert_eq!(events_a, events_b, "{scheme}: event counts diverged");
        assert_eq!(acked_a, acked_b, "{scheme}: throughput diverged");
        assert_eq!(trace_a, trace_b, "{scheme}: traces are not byte-identical");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let (trace_a, ..) = ring_run(Scheme::DrtsDcts, 7);
    let (trace_b, ..) = ring_run(Scheme::DrtsDcts, 8);
    assert_ne!(trace_a, trace_b, "seed must matter");
}
