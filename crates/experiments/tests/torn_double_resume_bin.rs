//! Torn-tail double-resume probe: a checkpoint frame torn by a crash
//! mid-write must be compacted out on the first resume, so the
//! second resume restores every cell with zero warnings — instead of the
//! torn bytes desyncing the CRC frame decoder right where the first
//! resume appended its re-run record.

use dirca_experiments::report::GridScale;
use dirca_experiments::runner::{run_grid, RunnerConfig};
use dirca_sim::SimDuration;

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

#[test]
fn second_resume_after_torn_bin_frame() {
    let scale = tiny_scale();
    let path = std::env::temp_dir().join(format!("torn_double_bin_{}.ckpt", std::process::id()));
    let cfg = |resume: bool| RunnerConfig {
        checkpoint: Some(path.clone()),
        resume,
        ..RunnerConfig::default()
    };
    run_grid(&scale, &cfg(false)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Tear the last frame mid-body: drop its CRC trailer plus a byte of
    // payload, the signature of a crash partway through the final write.
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

    // First resume: tolerates the torn tail, re-runs the cell, appends.
    let first = run_grid(&scale, &cfg(true)).unwrap();
    assert_eq!(first.warnings.len(), 1, "{:?}", first.warnings);

    // Second resume: should restore everything cleanly.
    let second = run_grid(&scale, &cfg(true));
    let _ = std::fs::remove_file(&path);
    match second {
        Ok(run) => {
            assert!(
                run.warnings.is_empty(),
                "second resume still degraded: {:?}",
                run.warnings
            );
            assert_eq!(run.restored, 3, "all cells should restore");
            assert_eq!(run.executed, 0);
        }
        Err(e) => panic!("second resume hard-errored: {e}"),
    }
}
