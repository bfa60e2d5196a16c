//! Source rules that neither rustc nor clippy can express, checked over
//! the text of every file under `crates/*/src`, test modules included:
//!
//! * RNG stream salts (two streams sharing a salt silently correlate):
//!   every `*_STREAM_SALT` const is defined in `salts.rs`, whose consts
//!   are exactly [`ALL_STREAM_SALTS`] (tested pairwise there), and no
//!   `derive_seed` call passes an integer literal as its salt.
//! * One build: no `cfg`, `cfg!` or `cfg_attr` names a cargo feature.
//!   `unexpected_cfgs` cannot see this: `sim` and `net` still declare an
//!   empty `trace` feature for perfbench.
//! * No exact comparison with a float zero, which `float_cmp` exempts.
//! * The determinism bans stay in step: clippy reads only the nearest
//!   `clippy.toml`, so `crates/sim/clippy.toml` and
//!   `crates/bench/clippy.toml` repeat the root lists (bench minus its
//!   wall clock, `std::time::Instant`).
//!
//! Matching runs on text with `//` comments and whitespace removed, so a
//! call split over several lines is still caught.

#![expect(
    clippy::disallowed_methods,
    reason = "this test reads the workspace's source files"
)]

use std::path::Path;

use dirca_net::salts::ALL_STREAM_SALTS;

const REGISTRY: &str = "crates/net/src/salts.rs";

/// Each `crates/*/src` file: its path from the workspace root and its
/// normalized text.
fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|krate| krate.expect("readable entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(&root).expect("under the root");
                let raw = std::fs::read_to_string(&path).expect("readable source");
                out.push((rel.to_string_lossy().replace('\\', "/"), normalize(&raw)));
            }
        }
    }
    assert!(out.len() > 50, "found only {} source files", out.len());
    out
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Drops `//` comments and whitespace, keeping one space between two
/// word characters (so `pub const X` stays three words).
fn normalize(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        let code = line.find("//").map_or(line, |at| &line[..at]);
        for word in code.split_whitespace() {
            if out.ends_with(is_word) && word.starts_with(is_word) {
                out.push(' ');
            }
            out.push_str(word);
        }
    }
    out
}

/// The byte index of the first `stop` char at bracket depth 0, or the end.
fn depth_zero(text: &str, stop: char) -> usize {
    let mut depth = 0;
    text.char_indices()
        .find(|&(_, c)| {
            let hit = c == stop && depth == 0;
            depth += i32::from(c == '(' || c == '[') - i32::from(c == ')' || c == ']');
            hit
        })
        .map_or(text.len(), |(i, _)| i)
}

/// The argument text of each `opener…)` group, e.g. `derive_seed(`.
fn groups<'a>(text: &'a str, opener: &'a str) -> impl Iterator<Item = &'a str> {
    text.match_indices(opener).map(move |(at, _)| {
        let body = &text[at + opener.len()..];
        &body[..depth_zero(body, ')')]
    })
}

/// The `*_STREAM_SALT` consts a file defines.
fn salt_consts(text: &str) -> Vec<String> {
    let names = text.split("const ").skip(1);
    let names = names.map(|rest| rest.split(|c| !is_word(c)).next().unwrap_or(""));
    let salts = names.filter(|name| name.ends_with("_STREAM_SALT"));
    salts.map(str::to_string).collect()
}

fn assert_none(rule: &str, offenders: &[String]) {
    let list = offenders.join("\n  ");
    assert!(offenders.is_empty(), "{rule}:\n  {list}");
}

#[test]
fn stream_salts_are_defined_in_the_registry() {
    let mut offenders = Vec::new();
    for (path, text) in sources().iter().filter(|(path, _)| path != REGISTRY) {
        offenders.extend(salt_consts(text).iter().map(|c| format!("{path}: {c}")));
    }
    assert_none("salt consts outside the registry", &offenders);
}

#[test]
fn registry_lists_exactly_the_defined_salts() {
    let all = sources();
    let registry = all.iter().find(|(path, _)| path == REGISTRY);
    let mut defined = salt_consts(&registry.expect("registry").1);
    let mut listed: Vec<_> = ALL_STREAM_SALTS
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    defined.sort();
    listed.sort();
    assert_eq!(defined, listed, "{REGISTRY} consts vs ALL_STREAM_SALTS");
}

#[test]
fn derive_seed_salts_are_named_consts() {
    let mut offenders = Vec::new();
    let all = sources();
    for (path, text) in all.iter().filter(|(p, _)| p != "crates/sim/src/rng.rs") {
        for args in groups(text, "derive_seed(") {
            let salt = args.get(depth_zero(args, ',') + 1..).unwrap_or("");
            if salt
                .trim_start_matches('(')
                .starts_with(|c: char| c.is_ascii_digit())
            {
                offenders.push(format!("{path}: derive_seed({args})"));
            }
        }
    }
    assert_none("derive_seed salt is an integer literal", &offenders);
}

#[test]
fn library_source_has_no_feature_gates() {
    let mut offenders = Vec::new();
    for (path, text) in &sources() {
        for opener in ["cfg(", "cfg!(", "cfg_attr("] {
            for group in groups(text, opener).filter(|g| g.contains("feature=")) {
                offenders.push(format!("{path}: {opener}{group})"));
            }
        }
    }
    assert_none("cfg on a cargo feature compiles a second build", &offenders);
}

/// Whether `token` is a float literal equal to zero (`0.0`, `0.`, `0e0`,
/// `0f64`, `0.0_f32`, …); a bare integer `0` is not a float.
fn is_float_zero(token: &str) -> bool {
    let unsuffixed = token.strip_suffix("f64").or(token.strip_suffix("f32"));
    let body = unsuffixed.unwrap_or(token).trim_end_matches('_');
    let (mantissa, exponent) = body.split_once(['e', 'E']).unwrap_or((body, ""));
    let exponent = exponent.trim_start_matches(['+', '-']);
    (unsuffixed.is_some() || body.contains(['.', 'e', 'E']))
        && mantissa.starts_with('0')
        && mantissa.chars().all(|c| matches!(c, '0' | '.' | '_'))
        && exponent.chars().all(|c| c.is_ascii_digit() || c == '_')
}

#[test]
fn no_exact_comparison_with_float_zero() {
    let literal = |c: char| is_word(c) || c == '.';
    let mut offenders = Vec::new();
    for (path, text) in &sources() {
        for (at, op) in text.match_indices("==").chain(text.match_indices("!=")) {
            let before = &text[..at];
            let left = &before[before.trim_end_matches(literal).len()..];
            let after = text[at + 2..].trim_start_matches('-');
            let right = &after[..after.len() - after.trim_start_matches(literal).len()];
            if is_float_zero(left) || is_float_zero(right) {
                offenders.push(format!("{path}: {left}{op}{right}"));
            }
        }
    }
    assert_none("exact comparison with a float zero", &offenders);
}

/// The `path = "…"` entries of the `key = [ … ]` list in a `clippy.toml`.
fn clippy_list(toml: &str, key: &str) -> Vec<String> {
    let Some((_, rest)) = toml.split_once(&format!("\n{key} = [\n")) else {
        return Vec::new();
    };
    let body = rest.split("\n]").next().unwrap_or("");
    let paths = body
        .lines()
        .filter_map(|line| line.split_once("path = \"")?.1.split_once('"'));
    paths.map(|(path, _)| path.to_string()).collect()
}

#[test]
fn clippy_determinism_lists_stay_in_step() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("readable clippy.toml");
    let (workspace, sim, bench) = (
        read("clippy.toml"),
        read("crates/sim/clippy.toml"),
        read("crates/bench/clippy.toml"),
    );
    let mut offenders = Vec::new();
    for key in ["disallowed-types", "disallowed-methods"] {
        let bans = clippy_list(&workspace, key);
        assert!(!bans.is_empty(), "clippy.toml has no {key}");
        let (sim_bans, bench_bans) = (clippy_list(&sim, key), clippy_list(&bench, key));
        for ban in &bans {
            if !sim_bans.contains(ban) {
                offenders.push(format!("crates/sim/clippy.toml {key}: {ban}"));
            }
            if !ban.starts_with("std::time::Instant") && !bench_bans.contains(ban) {
                offenders.push(format!("crates/bench/clippy.toml {key}: {ban}"));
            }
        }
    }
    assert_none(
        "root clippy.toml ban missing from a crate's copy",
        &offenders,
    );
}
