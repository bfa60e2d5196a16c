//! End-to-end behavior of the fault-tolerant grid runner: drill failures
//! are isolated and reported with coordinates, interrupted runs resume to
//! a byte-identical report, checkpoints are validated strictly, and the
//! trace document records the runs the grid itself made.

use std::path::{Path, PathBuf};
use std::process::Command;

use dirca_experiments::report::{render_combined, GridScale};
use dirca_experiments::ringsim::{topology_config, CellFailure};
use dirca_experiments::runner::{
    enumerate_cells, run_grid, Cell, CheckpointError, GridRun, RunnerConfig,
};
use dirca_experiments::tracegrid::{encode_cell, encode_document, TRACE_CAPACITY};
use dirca_experiments::wireio::{ckpt_cell_frame, ckpt_header_frame};
use dirca_mac::Scheme;
use dirca_net::trace::run_traced;
use dirca_sim::SimDuration;
use dirca_trace::wire;

fn tiny_scale() -> GridScale {
    GridScale {
        topologies: 2,
        measure: SimDuration::from_millis(200),
        warmup: SimDuration::from_millis(50),
        threads: 2,
        seed: 11,
        densities: vec![3],
        beamwidths: vec![90.0],
        fer: 0.0,
    }
}

fn runner() -> RunnerConfig {
    RunnerConfig {
        retries: 0,
        ..RunnerConfig::default()
    }
}

fn ckpt_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dirca_ckpt_{}_{label}.ckpt", std::process::id()))
}

fn trace_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dirca_trace_{}_{label}.bin", std::process::id()))
}

fn report_of(scale: &GridScale, run: &GridRun) -> String {
    render_combined(scale, &run.completed())
}

/// The cell count in the header of the trace document at `path`, after
/// `trace_view --check` has accepted the whole document. Removes the file.
fn checked_trace_cells(path: &Path) -> u32 {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_view"))
        .arg(path)
        .arg("--check")
        .output()
        .expect("trace_view runs");
    let doc = std::fs::read(path).expect("the trace was written");
    let _ = std::fs::remove_file(path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (frames, _) = wire::decode_all(&doc);
    assert_eq!(frames[0].kind, wire::kind::TRACE_HEADER);
    let mut header = wire::WireReader::new(&frames[0].payload);
    header.take_u64().expect("the seed");
    header.take_u32().expect("the cell count")
}

#[test]
fn drilled_grid_completes_remaining_cells_and_reports_both_failures() {
    let scale = tiny_scale();
    let path = ckpt_path("drill");
    let config = RunnerConfig {
        checkpoint: Some(path.clone()),
        inject_panic: Some(Cell {
            n: 3,
            theta: 90.0,
            scheme: Scheme::OrtsOcts,
        }),
        inject_timeout: Some(Cell {
            n: 3,
            theta: 90.0,
            scheme: Scheme::DrtsDcts,
        }),
        ..runner()
    };
    let run = run_grid(&scale, &config).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(run.outcomes.len(), 3, "all three cells must be attempted");
    assert!(!run.stopped_early);
    let failures = run.failures();
    assert_eq!(failures.len(), 2);
    match &failures[0].result {
        Err(CellFailure::Panicked { topology, message }) => {
            assert_eq!(*topology, 0);
            assert!(message.contains("drill"), "{message}");
        }
        other => panic!("expected the panic drill first, got {other:?}"),
    }
    assert!(matches!(
        failures[1].result,
        Err(CellFailure::TimedOut { .. })
    ));
    // The healthy cell still produced its samples.
    let ok: Vec<_> = run.outcomes.iter().filter(|o| o.result.is_ok()).collect();
    assert_eq!(ok.len(), 1);
    assert_eq!(ok[0].cell.scheme, Scheme::DrtsOcts);
    assert_eq!(ok[0].result.as_ref().unwrap().len(), 2);
    // Failure rendering carries the cell coordinates.
    let rendered = run.render_failures();
    assert!(rendered.contains("N=3 θ=90° ORTS-OCTS"), "{rendered}");
    assert!(rendered.contains("N=3 θ=90° DRTS-DCTS"), "{rendered}");
    assert!(rendered.contains("panicked in topology 0"), "{rendered}");
    assert!(rendered.contains("timed out in topology 0"), "{rendered}");
}

#[test]
fn interrupted_grid_resumes_to_an_identical_report() {
    let scale = tiny_scale();
    // Reference: one uninterrupted run, no checkpoint.
    let full = run_grid(&scale, &runner()).unwrap();
    assert_eq!(full.executed, 3);
    let want = report_of(&scale, &full);

    // Interrupted: stop after one cell, then resume twice.
    let path = ckpt_path("resume");
    let interrupted = RunnerConfig {
        checkpoint: Some(path.clone()),
        max_cells: Some(1),
        ..runner()
    };
    let first = run_grid(&scale, &interrupted).unwrap();
    assert!(first.stopped_early);
    assert_eq!(first.executed, 1);
    let resumed_config = RunnerConfig {
        checkpoint: Some(path.clone()),
        resume: true,
        ..runner()
    };
    let second = run_grid(&scale, &resumed_config).unwrap();
    assert!(!second.stopped_early);
    assert_eq!(second.restored, 1, "the finished cell must not re-run");
    assert_eq!(second.executed, 2);
    let got = report_of(&scale, &second);
    assert_eq!(want, got, "resumed report must equal the uninterrupted one");

    // A third resume restores everything and executes nothing.
    let third = run_grid(&scale, &resumed_config).unwrap();
    assert_eq!(third.restored, 3);
    assert_eq!(third.executed, 0);
    assert_eq!(report_of(&scale, &third), want);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_cells_are_retried_on_resume() {
    let scale = tiny_scale();
    let path = ckpt_path("retry");
    // First pass: the ORTS-OCTS cell fails by drill, others succeed.
    let drilled = RunnerConfig {
        checkpoint: Some(path.clone()),
        inject_panic: Some(Cell {
            n: 3,
            theta: 90.0,
            scheme: Scheme::OrtsOcts,
        }),
        ..runner()
    };
    let first = run_grid(&scale, &drilled).unwrap();
    assert_eq!(first.failures().len(), 1);
    // Resume without the drill: only the failed cell re-runs, and the
    // final report matches a clean run.
    let healed = RunnerConfig {
        checkpoint: Some(path.clone()),
        resume: true,
        ..runner()
    };
    let second = run_grid(&scale, &healed).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(second.restored, 2);
    assert_eq!(second.executed, 1);
    assert!(second.failures().is_empty());
    let clean = run_grid(&scale, &runner()).unwrap();
    assert_eq!(report_of(&scale, &second), report_of(&scale, &clean));
}

#[test]
fn grid_samples_are_thread_count_independent() {
    let at = |threads| GridScale {
        threads,
        ..tiny_scale()
    };
    let one = run_grid(&at(1), &runner()).unwrap();
    let four = run_grid(&at(4), &runner()).unwrap();
    for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(
            a.result.as_ref().unwrap(),
            b.result.as_ref().unwrap(),
            "cell {} must be bit-identical at any thread count",
            a.cell
        );
    }
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_grid() {
    let scale = tiny_scale();
    let path = ckpt_path("foreign");
    let with_ckpt = RunnerConfig {
        checkpoint: Some(path.clone()),
        max_cells: Some(1),
        ..runner()
    };
    run_grid(&scale, &with_ckpt).unwrap();
    let other_scale = GridScale {
        seed: 12,
        ..tiny_scale()
    };
    let resume = RunnerConfig {
        checkpoint: Some(path.clone()),
        resume: true,
        ..runner()
    };
    let err = run_grid(&other_scale, &resume).unwrap_err();
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(err, CheckpointError::FingerprintMismatch { .. }),
        "got {err:?}"
    );
}

#[test]
fn resume_rejects_garbage_checkpoints_with_typed_errors() {
    let scale = tiny_scale();
    let resume = |path: &PathBuf| {
        run_grid(
            &scale,
            &RunnerConfig {
                checkpoint: Some(path.clone()),
                resume: true,
                ..runner()
            },
        )
    };
    let path = ckpt_path("garbage");
    std::fs::write(&path, "this is not a checkpoint\n").unwrap();
    assert!(matches!(
        resume(&path).unwrap_err(),
        CheckpointError::MissingHeader
    ));
    // A JSONL checkpoint from before checkpoints became binary-only: not
    // resumable, and left exactly as it was.
    let fp = dirca_experiments::runner::grid_fingerprint(&scale);
    let legacy = format!(
        "{{\"dirca_checkpoint\":1,\"fingerprint\":\"{fp}\"}}\n\
         {{\"n\":3,\"theta\":90,\"scheme\":\"ORTS-OCTS\",\"status\":\"ok\",\"samples\":[]}}\n"
    );
    std::fs::write(&path, &legacy).unwrap();
    let err = resume(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::MissingHeader), "got {err:?}");
    assert!(err.to_string().contains("JSONL"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), legacy.as_bytes());
    // Valid header, damaged record *mid-file* (a later intact record
    // follows): that is corruption, not a crash tail — still a hard
    // error, naming the frame and its byte offset.
    let cell = |n| Cell {
        n,
        theta: 90.0,
        scheme: Scheme::OrtsOcts,
    };
    let header = ckpt_header_frame(&fp);
    let mut doc = header.clone();
    doc.extend(ckpt_cell_frame(&cell(3), &Ok(vec![])));
    doc.extend(ckpt_cell_frame(&cell(3), &Ok(vec![])));
    doc[header.len() + wire::HEADER_LEN] ^= 0x01;
    std::fs::write(&path, &doc).unwrap();
    match resume(&path).unwrap_err() {
        CheckpointError::CorruptFrame { frame: 2, error } => {
            assert_eq!(error.offset(), header.len() as u64);
        }
        other => panic!("expected CorruptFrame at frame 2, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        doc,
        "file must stay untouched"
    );
    // Valid record, cell outside this grid.
    let mut doc = header;
    doc.extend(ckpt_cell_frame(&cell(99), &Ok(vec![])));
    std::fs::write(&path, &doc).unwrap();
    assert!(matches!(
        resume(&path).unwrap_err(),
        CheckpointError::UnknownCell { frame: 2, .. }
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_trailing_checkpoint_line_is_skipped_with_a_warning() {
    let scale = tiny_scale();
    let want = report_of(&scale, &run_grid(&scale, &runner()).unwrap());

    // Run the full grid with a checkpoint, then simulate a crash
    // mid-write by truncating the file into the middle of its last frame.
    let path = ckpt_path("torn_tail");
    let with_ckpt = RunnerConfig {
        checkpoint: Some(path.clone()),
        ..runner()
    };
    run_grid(&scale, &with_ckpt).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let (frames, _) = wire::decode_all(&bytes);
    let last_len = wire::HEADER_LEN + frames.last().unwrap().payload.len() + wire::TRAILER_LEN;
    std::fs::write(&path, &bytes[..bytes.len() - last_len / 2]).unwrap();

    // Resume: the torn cell re-runs instead of the resume failing, a
    // warning names the skipped frame, and the report is byte-identical.
    let resumed = run_grid(
        &scale,
        &RunnerConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..runner()
        },
    )
    .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.restored, 2, "the two intact cells restore");
    assert_eq!(resumed.executed, 1, "the torn cell re-runs");
    assert_eq!(resumed.warnings.len(), 1, "{:?}", resumed.warnings);
    assert!(
        resumed.warnings[0].contains("torn or corrupt"),
        "{:?}",
        resumed.warnings
    );
    assert_eq!(report_of(&scale, &resumed), want);
}

#[test]
fn binary_checkpoint_resumes_to_an_identical_report() {
    let scale = tiny_scale();
    let want = report_of(&scale, &run_grid(&scale, &runner()).unwrap());

    let path = ckpt_path("bin_resume");
    let first = run_grid(
        &scale,
        &RunnerConfig {
            checkpoint: Some(path.clone()),
            max_cells: Some(1),
            ..runner()
        },
    )
    .unwrap();
    assert!(first.stopped_early);
    let bytes = std::fs::read(&path).unwrap();
    assert!(
        bytes.starts_with(&wire::MAGIC),
        "binary checkpoints must start with the wire magic"
    );

    let second = run_grid(
        &scale,
        &RunnerConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..runner()
        },
    )
    .unwrap();
    assert_eq!(second.restored, 1);
    assert_eq!(second.executed, 2);
    assert!(second.warnings.is_empty(), "{:?}", second.warnings);
    assert_eq!(report_of(&scale, &second), want);

    // A torn binary tail (crash mid-frame-write) degrades to a warning
    // plus a re-run of the lost cell.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    let third = run_grid(
        &scale,
        &RunnerConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..runner()
        },
    )
    .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(third.restored, 2);
    assert_eq!(third.executed, 1);
    assert_eq!(third.warnings.len(), 1, "{:?}", third.warnings);
    assert_eq!(report_of(&scale, &third), want);
}

#[test]
fn enumerated_cells_cover_the_paper_grid() {
    let scale = GridScale {
        densities: vec![3, 5, 8],
        beamwidths: vec![30.0, 90.0, 150.0],
        ..tiny_scale()
    };
    assert_eq!(enumerate_cells(&scale).len(), 27);
}

#[test]
fn tracing_the_grid_changes_no_sample() {
    let scale = tiny_scale();
    let path = trace_path("non_perturbation");
    let plain = run_grid(&scale, &runner()).unwrap();
    let traced = RunnerConfig {
        trace: Some(path.clone()),
        ..runner()
    };
    let traced = run_grid(&scale, &traced).unwrap();
    assert_eq!(checked_trace_cells(&path), 3);
    for (a, b) in plain.outcomes.iter().zip(&traced.outcomes) {
        assert_eq!((a.cell, &a.result), (b.cell, &b.result));
    }
    assert_eq!(plain.outcomes.len(), traced.outcomes.len());
    assert_eq!(report_of(&scale, &plain), report_of(&scale, &traced));
}

#[test]
fn the_trace_equals_topology_0_of_each_cell_run_on_its_own() {
    let scale = tiny_scale();
    let path = trace_path("oracle");
    let config = RunnerConfig {
        trace: Some(path.clone()),
        ..runner()
    };
    run_grid(&scale, &config).unwrap();
    let doc = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let blocks: Vec<_> = enumerate_cells(&scale)
        .iter()
        .map(|cell| {
            let experiment = scale.cell(cell.scheme, cell.n, cell.theta);
            let (topology, config) = topology_config(&experiment, 0);
            let (result, ring) = run_traced(&topology, &config, TRACE_CAPACITY);
            encode_cell(cell, &result, &ring)
        })
        .collect();
    let oracle = encode_document(scale.seed, &blocks);
    assert!(doc == oracle, "the runner's trace differs from the oracle");
}

#[test]
fn a_trace_holds_only_the_cells_this_invocation_completed_topology_0_of() {
    let scale = tiny_scale();
    let ckpt = ckpt_path("trace_resume");
    let path = trace_path("resume");
    let traced = |max_cells, resume| RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        resume,
        max_cells,
        trace: Some(path.clone()),
        ..runner()
    };
    // Cut short by `--max-cells 1`: the unreached cells are missing.
    let first = run_grid(&scale, &traced(Some(1), false)).unwrap();
    assert!(first.stopped_early);
    assert_eq!(checked_trace_cells(&path), 1);
    // Resumed: the restored cell is missing.
    let resumed = run_grid(&scale, &traced(None, true)).unwrap();
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!((resumed.restored, resumed.executed), (1, 2));
    assert_eq!(checked_trace_cells(&path), 2);
    // A drilled panic in topology 0 fails its cell and leaves no block.
    let drilled = RunnerConfig {
        inject_panic: Some(enumerate_cells(&scale)[0]),
        trace: Some(path.clone()),
        ..runner()
    };
    let run = run_grid(&scale, &drilled).unwrap();
    assert_eq!(run.failures().len(), 1);
    assert_eq!(checked_trace_cells(&path), 2);
}

#[test]
fn an_unwritable_trace_path_is_refused_before_any_cell_runs() {
    let config = RunnerConfig {
        trace: Some(std::env::temp_dir()),
        ..runner()
    };
    let mut observed = 0;
    let err = dirca_experiments::runner::run_grid_with(&tiny_scale(), &config, &mut |_| {
        observed += 1;
    })
    .unwrap_err();
    assert!(
        matches!(err, CheckpointError::TraceIo { .. }),
        "got {err:?}"
    );
    assert_eq!(observed, 0, "no cell may run");
}
