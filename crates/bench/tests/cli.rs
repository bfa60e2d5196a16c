//! `dirca-bench` refuses a bad command line with a usage error and exit
//! status 2, and writes a v6 report when the command line is good.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dirca-bench"))
        .args(args)
        .output()
        .expect("dirca-bench runs")
}

fn assert_usage_error(args: &[&str], says: &str) {
    let out = bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("usage error: ") && stderr.contains(says),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_flags_exit_2_with_a_usage_error() {
    assert_usage_error(
        &["--engine-threads", "2"],
        "unrecognized flag \"--engine-threads\"",
    );
    assert_usage_error(&["--scaling-max", "lots"], "--scaling-max expects");
    assert_usage_error(&["--scaling-max", "-1"], "--scaling-max expects");
    assert_usage_error(&["--out"], "--out expects a path");
}

#[test]
fn an_empty_sweep_writes_a_v6_report() {
    let path = std::env::temp_dir().join(format!("dirca-bench-cli-{}.json", std::process::id()));
    let path_str = path.to_str().expect("temp path is UTF-8");
    let out = bench(&["--scaling-max", "0", "--out", path_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&path).expect("report written");
    std::fs::remove_file(&path).expect("report removed");
    assert!(
        report.contains("\"schema\": \"dirca-bench/paper-grid/v6\""),
        "{report}"
    );
    assert!(report.contains("\"repeats\": 5,"), "{report}");
    assert!(report.contains("\"scaling\": [\n  ]"), "{report}");
}
