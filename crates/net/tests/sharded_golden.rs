//! Golden hash battery for the sharded engine.
//!
//! Two layers of pinning, both over the same seeded random-ring workload
//! as `golden_ring_hash.rs`:
//!
//! 1. **One shard ≡ classic** — the single-stripe sharded run must hash to
//!    the *same recorded constants* as the classic sequential engine, for
//!    every scheme and seed in the battery. This anchors the whole sharded
//!    code path (replica build, shard scheduler, window loop) to the
//!    pre-existing golden bytes.
//! 2. **Four shards, worker-invariant** — the partitioned run has its own
//!    recorded constants (the stripe interleaving legitimately differs
//!    from the single-queue engine), and those bytes must be identical at
//!    1, 2, and 4 workers.
//!
//! The hashed frame log is the merge of the per-shard recorders'
//! `FrameTx` records.
//!
//! Re-record after a deliberate behaviour change with `cargo test -p
//! dirca-net --test sharded_golden -- --nocapture print_current_hashes
//! --ignored`.

mod common;

use dirca_mac::Scheme;
use dirca_net::ShardedNetSim;

/// Runs the golden ring configuration on the sharded engine and hashes the
/// frame log of the merged per-shard recorders (FNV-1a over the Debug
/// form, the same digest as `golden_ring_hash.rs`).
fn sharded_ring_hash(scheme: Scheme, seed: u64, shards: u32, workers: usize) -> u64 {
    let topology = common::ring_topology(seed);
    let config = common::ring_config(scheme, seed);
    let mut sim = ShardedNetSim::build(&topology, &config, shards);
    common::attach_recorders(&mut sim);
    sim.prime();
    sim.run_until(common::END, workers);
    common::hash(&common::frame_log(&common::merged_records(&sim)))
}

/// The classic engine's recorded constants (from `golden_ring_hash.rs`):
/// the one-shard sharded run must reproduce them byte for byte.
const RECORDED_CLASSIC: &[(Scheme, u64, u64)] = &[
    (Scheme::OrtsOcts, 7, 0xe4d2_1263_1a44_5525),
    (Scheme::OrtsOcts, 21, 0x12d8_5da6_451d_a8af),
    (Scheme::DrtsDcts, 7, 0x2996_f717_dc7f_4175),
    (Scheme::DrtsDcts, 21, 0xaddc_d313_d5fc_6531),
    (Scheme::DrtsOcts, 7, 0xb224_28fd_d601_3676),
    (Scheme::DrtsOcts, 21, 0x3e5c_4317_2f31_0d37),
];

#[test]
fn one_shard_reproduces_the_classic_golden_hashes() {
    for &(scheme, seed, want) in RECORDED_CLASSIC {
        let got = sharded_ring_hash(scheme, seed, 1, 1);
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: one-shard run diverged from the classic golden trace"
        );
    }
}

/// Recorded constants of the four-stripe partitioned run (its interleaving
/// across stripes legitimately differs from the single-queue engine, so it
/// carries its own battery).
const RECORDED_SHARDED: &[(Scheme, u64, u64)] = &[
    (Scheme::OrtsOcts, 7, 0x9078_d4ce_549a_ccc3),
    (Scheme::OrtsOcts, 21, 0xe0e0_1fdc_51fc_a56b),
    (Scheme::DrtsDcts, 7, 0x3d64_57a3_0152_cffb),
    (Scheme::DrtsDcts, 21, 0xa62e_bdb4_adc6_fbc3),
    (Scheme::DrtsOcts, 7, 0x2461_b12b_7d5b_8aa8),
    (Scheme::DrtsOcts, 21, 0x5fbd_7dff_b75f_cef7),
];

#[test]
fn four_shards_are_byte_identical_at_any_worker_count() {
    for &(scheme, seed, want) in RECORDED_SHARDED {
        for workers in [1usize, 2, 4] {
            let got = sharded_ring_hash(scheme, seed, 4, workers);
            assert_eq!(
                got, want,
                "{scheme} seed {seed} workers {workers}: partitioned trace diverged"
            );
        }
    }
}

#[test]
#[ignore = "recording helper: prints the current hashes for RECORDED_SHARDED"]
fn print_current_hashes() {
    for scheme in Scheme::ALL {
        for seed in [7u64, 21] {
            println!(
                "    (Scheme::{scheme:?}, {seed}, 0x{:016x}),",
                sharded_ring_hash(scheme, seed, 4, 1)
            );
        }
    }
}
