//! End-to-end drills for the scenario service: the served report is
//! byte-identical to the batch harness's, malformed input gets typed
//! rejects (never a crash), a `SIGKILL` mid-grid resumes to the same
//! bytes, overload is shed with `BUSY`, and shutdown is acknowledged.

#![expect(
    clippy::unwrap_used,
    reason = "the drill helpers outside `#[test]` fns unwrap socket and file I/O"
)]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dirca_experiments::report::render_combined;
use dirca_experiments::runner::{grid_fingerprint, run_grid, RunnerConfig};
use dirca_serve::proto::{decode_busy, decode_reject, reject, FrameConn};
use dirca_serve::{client, ClientConfig, ScenarioSpec, Served};
use dirca_trace::wire::kind;

/// A tiny 3-cell grid that completes in well under a second.
fn quick_spec() -> ScenarioSpec {
    ScenarioSpec {
        seed: 7,
        topologies: 2,
        measure_ms: 60,
        warmup_ms: 10,
        densities: vec![3],
        beamwidths: vec![90.0],
        fer: 0.0,
        retries: 1,
        events_budget: 0,
        inject_panic: None,
    }
}

/// An 18-cell grid with a long enough measure window (seconds of wall
/// time) that a drill can reliably interrupt it partway through.
fn wide_spec() -> ScenarioSpec {
    ScenarioSpec {
        topologies: 2,
        measure_ms: 1_500,
        densities: vec![3, 5],
        beamwidths: vec![30.0, 90.0, 150.0],
        ..quick_spec()
    }
}

/// What `paper_grid` would print (minus the trailing newline `println!`
/// adds) for the same parameters: the byte-identity oracle.
fn batch_report(spec: &ScenarioSpec) -> String {
    let scale = spec.scale(2);
    let run = run_grid(&scale, &RunnerConfig::default()).unwrap();
    render_combined(&scale, &run.completed())
}

fn state_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dirca_serve_{}_{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn start(state_dir: &std::path::Path, queue_cap: usize) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dirca-serve"))
            .args([
                "--listen",
                "127.0.0.1:0",
                "--state-dir",
                state_dir.to_str().unwrap(),
                "--queue-cap",
                &queue_cap.to_string(),
                "--threads",
                "2",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        ServerProc { child, addr }
    }

    fn client(&self) -> ClientConfig {
        ClientConfig::to(self.addr.clone())
    }

    /// A raw framed connection, bypassing the client's protocol logic.
    fn raw_conn(&self) -> FrameConn {
        let stream = TcpStream::connect(&self.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(60_000)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(60_000)))
            .unwrap();
        FrameConn::new(stream)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn expect_done(
    served: Served,
) -> (
    String,
    dirca_serve::proto::Done,
    Vec<dirca_serve::proto::Progress>,
) {
    match served {
        Served::Done {
            report,
            summary,
            progress,
        } => (report, summary, progress),
        Served::Rejected(r) => panic!("unexpected reject: {} ({})", r.message, r.code),
    }
}

#[test]
fn served_report_is_byte_identical_to_the_batch_harness() {
    let dir = state_dir("identity");
    let srv = ServerProc::start(&dir, 4);
    let spec = quick_spec();

    let (report, summary, progress) = expect_done(client::submit(&spec, &srv.client()).unwrap());
    assert_eq!(
        report,
        batch_report(&spec),
        "served report must match batch bytes"
    );
    assert_eq!(summary.executed, 3);
    assert_eq!(summary.restored, 0);
    assert_eq!(summary.failed, 0);
    assert_eq!(progress.len(), 3);
    assert_eq!(progress.last().unwrap().done, 3);
    assert_eq!(progress.last().unwrap().total, 3);

    // Resubmitting the same spec restores every cell from the checkpoint
    // and still produces the same bytes.
    let (again, summary, _) = expect_done(client::submit(&spec, &srv.client()).unwrap());
    assert_eq!(again, report);
    assert_eq!(summary.executed, 0);
    assert_eq!(summary.restored, 3);
}

#[test]
fn malformed_and_invalid_submissions_get_typed_rejects_and_the_server_survives() {
    let dir = state_dir("rejects");
    let srv = ServerProc::start(&dir, 4);

    // Garbage SUBMIT payload: undecodable spec -> MALFORMED.
    let mut conn = srv.raw_conn();
    conn.write_frame(kind::SUBMIT, &[0xFF; 21]).unwrap();
    let frame = conn.expect_frame().unwrap();
    assert_eq!(frame.kind, kind::REJECT);
    let r = decode_reject(&frame.payload).unwrap();
    assert_eq!(r.code, reject::MALFORMED, "{}", r.message);
    assert!(r.message.contains("undecodable spec"), "{}", r.message);

    // Well-formed but out-of-range spec -> INVALID, with the field named.
    let bad = ScenarioSpec {
        fer: 0.999_999,
        topologies: usize::MAX,
        ..quick_spec()
    };
    match client::submit(&bad, &srv.client()).unwrap() {
        Served::Rejected(r) => {
            assert_eq!(r.code, reject::INVALID, "{}", r.message);
            assert!(r.message.contains("topologies"), "{}", r.message);
        }
        Served::Done { .. } => panic!("invalid spec must be rejected"),
    }

    // A frame kind that is not SUBMIT or SHUTDOWN -> SERVER reject.
    let mut conn = srv.raw_conn();
    conn.write_frame(kind::RECORD, &[]).unwrap();
    let frame = conn.expect_frame().unwrap();
    assert_eq!(frame.kind, kind::REJECT);
    assert_eq!(decode_reject(&frame.payload).unwrap().code, reject::SERVER);

    // After all that abuse the server still serves real work.
    let (report, _, _) = expect_done(client::submit(&quick_spec(), &srv.client()).unwrap());
    assert_eq!(report, batch_report(&quick_spec()));
}

#[test]
fn sigkill_mid_grid_restarts_and_resumes_to_identical_bytes() {
    let dir = state_dir("sigkill");
    let spec = wide_spec();
    let fingerprint;
    {
        let mut srv = ServerProc::start(&dir, 4);
        let mut conn = srv.raw_conn();
        conn.write_frame(kind::SUBMIT, &spec.encode()).unwrap();
        let accept = conn.expect_frame().unwrap();
        assert_eq!(accept.kind, kind::ACCEPT);
        let accept = dirca_serve::proto::decode_accept(&accept.payload).unwrap();
        fingerprint = accept.fingerprint.clone();
        assert_eq!(accept.total, 18);
        // Let two cells complete (each durable before its heartbeat),
        // then kill the server dead — no signal handler, no cleanup.
        for _ in 0..2 {
            let frame = conn.expect_frame().unwrap();
            assert_eq!(frame.kind, kind::PROGRESS);
        }
        srv.child.kill().unwrap();
    }
    assert!(
        dir.join(format!("{fingerprint}.ckpt")).exists(),
        "killed server must leave its checkpoint behind"
    );

    // A fresh server on the same state dir restores the finished cells
    // and the report comes out byte-identical to an uninterrupted run.
    let srv = ServerProc::start(&dir, 4);
    let (report, summary, _) = expect_done(client::submit(&spec, &srv.client()).unwrap());
    assert_eq!(report, batch_report(&spec));
    assert!(
        summary.restored >= 2,
        "expected the killed run's cells to be restored, got {summary:?}"
    );
    assert_eq!(summary.restored + summary.executed, 18);
    assert_eq!(grid_fingerprint(&spec.scale(2)), fingerprint);
}

#[test]
fn overload_is_shed_with_a_busy_frame_mid_run() {
    let dir = state_dir("busy");
    let srv = ServerProc::start(&dir, 0); // queue capacity zero: shed everything
    let spec = wide_spec();

    let mut running = srv.raw_conn();
    running.write_frame(kind::SUBMIT, &spec.encode()).unwrap();
    assert_eq!(running.expect_frame().unwrap().kind, kind::ACCEPT);
    assert_eq!(running.expect_frame().unwrap().kind, kind::PROGRESS);

    // A second submission while the grid runs is shed between cells.
    let mut shed = srv.raw_conn();
    shed.write_frame(kind::SUBMIT, &quick_spec().encode())
        .unwrap();
    let frame = shed.expect_frame().unwrap();
    assert_eq!(frame.kind, kind::BUSY);
    assert_eq!(decode_busy(&frame.payload).unwrap(), 0);

    // The running conversation is unaffected: drain it to DONE.
    loop {
        let frame = running.expect_frame().unwrap();
        if frame.kind == kind::DONE {
            break;
        }
        assert!(
            frame.kind == kind::PROGRESS || frame.kind == kind::REPORT,
            "unexpected frame kind {:#04x}",
            frame.kind
        );
    }
}

#[test]
fn shutdown_is_acknowledged_and_exits_cleanly() {
    let dir = state_dir("shutdown");
    let mut srv = ServerProc::start(&dir, 4);
    client::shutdown(&srv.client()).unwrap();
    let status = srv.child.wait().unwrap();
    assert!(
        status.success(),
        "graceful shutdown must exit 0, got {status}"
    );
}
