//! Properties of checkpoint compaction, plus the kill-during-compaction
//! drill.
//!
//! Compaction rewrites a salvaged checkpoint without its torn tail. The
//! contract: idempotent (compacting twice changes nothing), loss-free
//! (every record intact before the tear survives byte-for-byte), and
//! crash-safe (the temp-file + rename sequence leaves either the old
//! file or the new one on disk — never a hybrid).

use dirca_experiments::report::GridScale;
use dirca_experiments::ringsim::TopologySample;
use dirca_experiments::runner::{
    compact_temp_path, compacted_checkpoint, run_grid, Cell, RunnerConfig,
};
use dirca_experiments::wireio::{ckpt_cell_frame, ckpt_header_frame};
use dirca_mac::Scheme;
use dirca_sim::SimDuration;
use dirca_trace::wire;
use proptest::prelude::*;

// -------------------------------------------------------------------
// Synthetic documents.
// -------------------------------------------------------------------

fn scheme_of(idx: u8) -> Scheme {
    Scheme::ALL[idx as usize % Scheme::ALL.len()]
}

fn bin_doc(records: &[(usize, u8, u8, f64)]) -> (Vec<u8>, Vec<usize>) {
    let mut doc = ckpt_header_frame("feedface00000000");
    let mut ends = Vec::new();
    for &(n, theta, scheme, tp) in records {
        let cell = Cell {
            n: n.max(1),
            theta: THETAS[theta as usize % THETAS.len()],
            scheme: scheme_of(scheme),
        };
        let samples = vec![TopologySample {
            throughput: tp,
            delay_ms: None,
            collision_ratio: Some(0.25),
            jain: None,
        }];
        doc.extend_from_slice(&ckpt_cell_frame(&cell, &Ok(samples)));
        ends.push(doc.len());
    }
    (doc, ends)
}

const THETAS: [f64; 4] = [30.0, 90.0, 150.0, 360.0];

fn record_params() -> impl Strategy<Value = Vec<(usize, u8, u8, f64)>> {
    prop::collection::vec((1usize..20, 0u8..4, 0u8..3, 0.0f64..1.0), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bin_compaction_is_idempotent_and_loss_free(
        records in record_params(),
        cut_back in 0usize..64,
    ) {
        let (doc, ends) = bin_doc(&records);
        let header_end = bin_doc(&[]).0.len();
        let cut = doc.len().saturating_sub(cut_back).max(header_end);
        let torn = &doc[..cut];
        let compacted = compacted_checkpoint(torn);
        // Idempotent.
        prop_assert_eq!(&compacted_checkpoint(&compacted), &compacted);
        // The compacted document is exactly the longest whole-frame
        // prefix of the original: CRC-valid frames before the tear
        // survive byte-for-byte, the torn frame vanishes.
        let keep = ends.iter().rev().find(|&&e| e <= cut).copied().unwrap_or(header_end);
        prop_assert_eq!(compacted.as_slice(), &doc[..keep]);
        if cut == doc.len() {
            prop_assert_eq!(&compacted, &doc);
        }
    }

    #[test]
    fn compaction_never_touches_unparseable_bytes(tail in prop::collection::vec(0u8..=255, 0..64)) {
        // No valid header: compaction refuses to rewrite, so a hard
        // resume error still points at the real file. The leading 0xFF
        // rules out accidentally generating the wire magic.
        let mut garbage = vec![0xFFu8];
        garbage.extend_from_slice(&tail);
        prop_assert_eq!(compacted_checkpoint(&garbage), garbage);
    }
}

// -------------------------------------------------------------------
// Kill-during-compaction drill.
// -------------------------------------------------------------------

fn tiny_scale() -> GridScale {
    GridScale {
        topologies: 1,
        measure: SimDuration::from_millis(40),
        warmup: SimDuration::from_millis(5),
        threads: 1,
        seed: 11,
        densities: vec![3],
        beamwidths: vec![90.0],
        fer: 0.0,
    }
}

/// The compaction sequence is write-temp then rename. Replay it with a
/// simulated kill at each observable instant and assert the checkpoint
/// path only ever holds the old bytes or the new bytes — and that a
/// resume from either state (stale temp file and all) converges to a
/// clean, warning-free checkpoint.
#[test]
fn kill_during_compaction_leaves_old_or_new_never_hybrid() {
    let scale = tiny_scale();
    let path = std::env::temp_dir().join(format!("compact_drill_{}.ckpt", std::process::id()));
    let tmp = compact_temp_path(&path);
    let cfg = |resume: bool| RunnerConfig {
        checkpoint: Some(path.clone()),
        resume,
        ..RunnerConfig::default()
    };

    run_grid(&scale, &cfg(false)).unwrap();
    let full = std::fs::read(&path).unwrap();
    // Cut into the middle of the last frame, as a crash mid-append would.
    let (frames, _) = wire::decode_all(&full);
    let last_len = wire::HEADER_LEN + frames.last().unwrap().payload.len() + wire::TRAILER_LEN;
    let torn = full[..full.len() - last_len / 2].to_vec();
    let compacted = compacted_checkpoint(&torn);
    assert_ne!(torn, compacted, "the tear must actually drop bytes");

    // Kill point 1: mid temp-file write. The real file is untouched (old
    // bytes), and the half-written temp is just dead weight.
    std::fs::write(&path, &torn).unwrap();
    std::fs::write(&tmp, &compacted[..compacted.len() / 2]).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), torn, "old file intact");

    // Kill point 2: temp fully written, rename never happened. Still the
    // old bytes at the real path.
    std::fs::write(&tmp, &compacted).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), torn, "old file intact");

    // Kill point 3: after the rename. The real path holds exactly the
    // new bytes — at no point a mixture.
    std::fs::rename(&tmp, &path).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        compacted,
        "new file complete"
    );

    // Recovery from kill point 2's state (old file + stale temp): the
    // resume salvages, overwrites the stale temp, compacts, appends.
    std::fs::write(&path, &torn).unwrap();
    std::fs::write(&tmp, b"stale garbage from a previous crash").unwrap();
    let first = run_grid(&scale, &cfg(true)).unwrap();
    assert_eq!(first.warnings.len(), 1, "{:?}", first.warnings);
    assert!(
        !tmp.exists(),
        "temp staging file must not survive compaction"
    );
    let after = std::fs::read(&path).unwrap();
    assert!(
        after.starts_with(&compacted),
        "re-run outcomes must append after the compacted prefix"
    );

    // And the second resume is clean.
    let second = run_grid(&scale, &cfg(true)).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(second.warnings.is_empty(), "{:?}", second.warnings);
    assert_eq!(second.restored, 3);
}
