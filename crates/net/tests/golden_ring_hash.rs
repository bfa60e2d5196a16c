//! Recorded golden ring traces: the full frame trace of one seeded random
//! ring run per scheme, pinned by FNV-1a hash. The hashed bytes are the
//! Debug form of the frame log rebuilt from the recorder's `FrameTx`
//! records (`common/mod.rs`).
//!
//! The determinism test (`determinism.rs`) proves two same-seed runs agree
//! with *each other*; this test pins them against values recorded before
//! the precomputed-coverage fast path landed (PR 2), proving the cached
//! transmit path reproduces the reference `Channel::covered_by` path
//! byte-for-byte. If a deliberate behaviour change invalidates these
//! hashes, re-record them with `cargo test -p dirca-net --test
//! golden_ring_hash -- --nocapture print_current_hashes --ignored`.

mod common;

use dirca_mac::Scheme;
use dirca_net::audit::standard_auditors;
use dirca_net::trace::run_traced;
use dirca_net::{run, NetWorld};
use dirca_sim::Simulation;

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
        let got = common::ring_hash(scheme, seed, |c| c);
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: trace diverged from the recorded golden run"
        );
    }
}

/// The observability layer's non-perturbation battery: a run with no
/// recorder attached must process the same events and report the same
/// per-node results as the recorded golden run (the recorder observes
/// frames and RNG draws without touching either). `determinism.rs`
/// requires the records themselves to be identical across same-seed runs.
#[test]
fn unrecorded_runs_match_the_recorded_golden_runs() {
    for &(scheme, seed, _) in RECORDED {
        let topology = common::ring_topology(seed);
        let config = common::ring_config(scheme, seed);
        let (recorded, _) = run_traced(&topology, &config, common::CAPACITY);
        let plain = run(&topology, &config);
        assert_eq!(
            (plain.events_processed(), format!("{:?}", plain.nodes)),
            (recorded.events_processed(), format!("{:?}", recorded.nodes)),
            "{scheme} seed {seed}: attaching the trace recorder perturbed the run"
        );
    }
}

/// The auditors' non-perturbation check: the golden runs with the
/// standard auditors attached reproduce the recorded hashes and audit
/// clean.
#[test]
fn audited_runs_match_the_recorded_golden_hashes() {
    for &(scheme, seed, want) in RECORDED {
        let mut world = NetWorld::build(
            &common::ring_topology(seed),
            &common::ring_config(scheme, seed),
        );
        world.attach_recorder(common::recorder());
        let mut sim = Simulation::new(world);
        for auditor in standard_auditors() {
            sim.add_auditor(auditor);
        }
        {
            let (world, sched) = sim.world_and_scheduler_mut();
            world.prime(sched);
        }
        sim.run_until(common::END);
        sim.finish_audit();
        assert_eq!(
            common::hash(&common::world_log(sim.world())),
            want,
            "{scheme} seed {seed}: attaching the auditors perturbed the golden run"
        );
    }
}

#[test]
#[ignore = "recording helper: prints the current hashes for RECORDED"]
#[expect(
    clippy::disallowed_macros,
    reason = "the recording helper's output is the table to paste"
)]
fn print_current_hashes() {
    for scheme in Scheme::ALL {
        for seed in [7u64, 21] {
            println!(
                "    (Scheme::{scheme:?}, {seed}, 0x{:016x}),",
                common::ring_hash(scheme, seed, |c| c)
            );
        }
    }
}
