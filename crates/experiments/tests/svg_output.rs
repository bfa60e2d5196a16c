//! Output paths and flag values the binaries refuse. `--svg DIR` on
//! `paper_grid` and `fig5`: a directory that cannot be created is one
//! error line naming the path and a non-zero exit, never a panic. A bare
//! path flag, an unknown scheme name or a value outside the range of the
//! ring cell, density or field it fills is a usage error (exit 2).

use std::process::Command;

#[test]
fn a_file_as_the_svg_directory_is_refused_by_name() {
    let cases = [
        (
            env!("CARGO_BIN_EXE_paper_grid"),
            &["--quick", "--n", "3", "--theta", "90"][..],
        ),
        (env!("CARGO_BIN_EXE_fig5"), &["--n", "3"][..]),
    ];
    for (i, (bin, args)) in cases.into_iter().enumerate() {
        // A regular file standing where the SVG directory should go.
        let path = std::env::temp_dir().join(format!("dirca_svg_{}_{i}", std::process::id()));
        std::fs::write(&path, "not a directory").expect("temp file writes");
        let out = Command::new(bin)
            .args(args)
            .arg("--svg")
            .arg(&path)
            .output();
        std::fs::remove_file(&path).ok();
        let out = out.expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{bin}: exit {:?}: {stderr}",
            out.status
        );
        assert!(
            stderr.contains(path.to_str().expect("UTF-8 path")),
            "{bin}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_bare_output_path_flag_is_a_usage_error() {
    for flag in ["--checkpoint", "--trace"] {
        let (code, stderr) = run(
            env!("CARGO_BIN_EXE_paper_grid"),
            &["--quick", "--n", "3", "--theta", "90", flag],
        );
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("usage error: {flag} expects a path")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn mac_ablation_refuses_an_unknown_scheme() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_mac_ablation"),
        &["--quick", "--scheme", "foo"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("usage error: --scheme expects a scheme"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn ring_binaries_refuse_degenerate_values() {
    let cases = [
        (env!("CARGO_BIN_EXE_airtime"), "--theta", "400"),
        (env!("CARGO_BIN_EXE_airtime"), "--topologies", "0"),
        (env!("CARGO_BIN_EXE_directional_rx"), "--n", "0"),
        (env!("CARGO_BIN_EXE_mobility_sweep"), "--margin", "-1"),
        (env!("CARGO_BIN_EXE_mobility_sweep"), "--margin", "inf"),
        (env!("CARGO_BIN_EXE_rts_threshold"), "--measure-ms", "0"),
        (env!("CARGO_BIN_EXE_offered_load"), "--theta", "0"),
        (env!("CARGO_BIN_EXE_mac_ablation"), "--theta", "0"),
        (env!("CARGO_BIN_EXE_directional_rx"), "--theta", "0"),
        (env!("CARGO_BIN_EXE_mobility_sweep"), "--beamwidth", "0"),
        (env!("CARGO_BIN_EXE_connectivity"), "--nodes", "0"),
        (env!("CARGO_BIN_EXE_connectivity"), "--trials", "0"),
        // The quick field's density is 6: no node lies a range inside it.
        (env!("CARGO_BIN_EXE_connectivity"), "--nodes", "6"),
    ];
    let densities = [
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_data_size"),
        env!("CARGO_BIN_EXE_model_vs_sim"),
        env!("CARGO_BIN_EXE_connectivity"),
    ]
    .into_iter()
    .flat_map(|bin| ["0", "-3", "nan"].map(|value| (bin, "--n", value)));
    for (bin, flag, value) in cases.into_iter().chain(densities) {
        let (code, stderr) = run(bin, &["--quick", flag, value]);
        assert_eq!(code, Some(2), "{bin} {flag} {value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("usage error: {flag} ")) && !stderr.contains("panicked"),
            "{bin} {flag} {value}: {stderr}"
        );
    }
}
