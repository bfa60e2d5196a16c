//! Recorded golden ring traces: the full frame trace of one seeded random
//! ring run per scheme, pinned by FNV-1a hash.
//!
//! The determinism test (`determinism.rs`) proves two same-seed runs agree
//! with *each other*; this test pins them against values recorded before
//! the precomputed-coverage fast path landed (PR 2), proving the cached
//! transmit path reproduces the reference `Channel::covered_by` path
//! byte-for-byte. If a deliberate behaviour change invalidates these
//! hashes, re-record them with `cargo test -p dirca-net --test
//! golden_ring_hash -- --nocapture print_current_hashes --ignored`.

use dirca_mac::Scheme;
use dirca_net::trace::RingTrace;
use dirca_net::{NetWorld, SimConfig};
use dirca_sim::rng::stream_rng;
use dirca_sim::{SimTime, Simulation};
use dirca_topology::RingSpec;

/// FNV-1a over the debug-serialized frame trace.
fn ring_trace_hash(scheme: Scheme, seed: u64) -> u64 {
    ring_trace_hash_with(scheme, seed, false).0
}

/// Runs the golden ring configuration and hashes its frame trace. With
/// `recorder` set, a [`RingTrace`] recorder rides along and is returned for
/// inspection — the frame-trace hash must not change either way, which is
/// the observability layer's non-perturbation proof.
fn ring_trace_hash_with(scheme: Scheme, seed: u64, recorder: bool) -> (u64, Option<RingTrace>) {
    let spec = RingSpec::paper(5, 1.0);
    let mut topo_rng = stream_rng(seed, 0xA11CE);
    let topology = spec.generate(&mut topo_rng).expect("ring topology");
    let config = SimConfig::new(scheme)
        .with_seed(seed)
        .with_beamwidth_degrees(30.0);
    let mut world = NetWorld::build(&topology, &config);
    world.enable_trace();
    if recorder {
        world.attach_recorder(RingTrace::with_capacity(1 << 16));
    }
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    sim.run_until(SimTime::from_millis(400));
    let mut world = sim.into_world();
    let records = world.take_recorder();
    let trace = world.trace().expect("trace enabled");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{trace:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash, records)
}

/// (scheme, seed, FNV-1a of the trace) recorded on the pre-fast-path tree.
const RECORDED: &[(Scheme, u64, u64)] = &[
    (Scheme::OrtsOcts, 7, 0xe4d2_1263_1a44_5525),
    (Scheme::OrtsOcts, 21, 0x12d8_5da6_451d_a8af),
    (Scheme::DrtsDcts, 7, 0x2996_f717_dc7f_4175),
    (Scheme::DrtsDcts, 21, 0xaddc_d313_d5fc_6531),
    (Scheme::DrtsOcts, 7, 0xb224_28fd_d601_3676),
    (Scheme::DrtsOcts, 21, 0x3e5c_4317_2f31_0d37),
];

#[test]
fn ring_traces_match_recorded_golden_hashes() {
    for &(scheme, seed, want) in RECORDED {
        let got = ring_trace_hash(scheme, seed);
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: trace diverged from the recorded golden run"
        );
    }
}

/// The observability layer's non-perturbation battery: attaching the
/// trace recorder must reproduce the recorded golden hashes byte-for-byte
/// (the recorder observes frames and RNG draws without touching either),
/// and the records themselves must be deterministic across same-seed
/// runs.
mod recorder_does_not_perturb {
    use super::*;

    #[test]
    fn golden_hashes_survive_an_attached_recorder() {
        for &(scheme, seed, want) in RECORDED {
            let (got, records) = ring_trace_hash_with(scheme, seed, true);
            assert_eq!(
                got, want,
                "{scheme} seed {seed}: attaching the trace recorder perturbed the run"
            );
            assert!(
                records.expect("recorder attached").len() > 100,
                "{scheme} seed {seed}: recorder captured implausibly few records"
            );
        }
    }

    #[test]
    fn same_seed_runs_record_identical_traces() {
        for scheme in Scheme::ALL {
            let (_, a) = ring_trace_hash_with(scheme, 7, true);
            let (_, b) = ring_trace_hash_with(scheme, 7, true);
            let (a, b) = (a.expect("recorder attached"), b.expect("recorder attached"));
            assert!(
                a.iter().eq(b.iter()),
                "{scheme}: two same-seed runs recorded different traces"
            );
        }
    }
}

#[test]
#[ignore = "recording helper: prints the current hashes for RECORDED"]
fn print_current_hashes() {
    for scheme in Scheme::ALL {
        for seed in [7u64, 21] {
            println!(
                "    (Scheme::{scheme:?}, {seed}, 0x{:016x}),",
                ring_trace_hash(scheme, seed)
            );
        }
    }
}
