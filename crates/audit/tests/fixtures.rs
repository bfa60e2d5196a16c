//! Fixture-corpus tests: every rule has a `bad` tree that fires with
//! pinned IDs and spans, and a `clean` tree that stays silent.
//!
//! Each fixture under `tests/fixtures/<rule>/{bad,clean}/` is a miniature
//! workspace (`crates/<name>/src/*.rs`) loaded through the same
//! [`dirca_audit::analyze`] entry point the CLI uses, so these tests pin
//! the real end-to-end pipeline: lexer → model → rules → suppressions.

use std::path::{Path, PathBuf};

use dirca_audit::diag::Analysis;

fn fixture_root(rule: &str, variant: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(variant)
}

fn analyze(rule: &str, variant: &str) -> Analysis {
    let root = fixture_root(rule, variant);
    dirca_audit::analyze(&root)
        .unwrap_or_else(|e| panic!("fixture {rule}/{variant} failed to load: {e}"))
}

/// Active findings as `(rule id, file, line)` triples, in report order.
fn active(analysis: &Analysis) -> Vec<(&str, &str, u32)> {
    analysis
        .active()
        .map(|f| (f.rule.id(), f.file.as_str(), f.line))
        .collect()
}

fn assert_clean(rule: &str) {
    let analysis = analyze(rule, "clean");
    assert_eq!(
        active(&analysis),
        Vec::<(&str, &str, u32)>::new(),
        "clean fixture for {rule} must be silent"
    );
}

#[test]
fn hash_order_bad_flags_every_hash_collection_use() {
    let analysis = analyze("hash-order", "bad");
    assert_eq!(
        active(&analysis),
        vec![
            ("DA001", "crates/net/src/lib.rs", 2),
            ("DA001", "crates/net/src/lib.rs", 4),
            ("DA001", "crates/net/src/lib.rs", 5),
        ]
    );
}

#[test]
fn hash_order_clean_is_silent() {
    assert_clean("hash-order");
}

#[test]
fn wall_clock_entropy_bad_flags_thread_rng() {
    let analysis = analyze("wall-clock-entropy", "bad");
    assert_eq!(
        active(&analysis),
        vec![("DA002", "crates/sim/src/lib.rs", 3)]
    );
    // Token-level span: the finding points at the `thread_rng` ident.
    let f = analysis.active().next().expect("one finding");
    assert_eq!(f.col, 23);
    assert!(f.snippet.contains("thread_rng"));
}

#[test]
fn wall_clock_entropy_clean_ignores_string_literals() {
    // The clean fixture spells the banned names inside a string literal;
    // the lexer must keep them invisible to the rules.
    assert_clean("wall-clock-entropy");
}

#[test]
fn float_eq_bad_flags_literal_comparison() {
    let analysis = analyze("float-eq", "bad");
    assert_eq!(
        active(&analysis),
        vec![("DA003", "crates/stats/src/lib.rs", 3)]
    );
}

#[test]
fn float_eq_clean_tolerance_compare_and_test_scope() {
    assert_clean("float-eq");
}

#[test]
fn unwrap_bad_flags_library_unwrap() {
    let analysis = analyze("unwrap", "bad");
    assert_eq!(
        active(&analysis),
        vec![("DA004", "crates/analysis/src/lib.rs", 3)]
    );
    let f = analysis.active().next().expect("one finding");
    assert_eq!((f.line, f.col), (3, 24), "span points at the unwrap ident");
}

#[test]
fn unwrap_clean_expect_and_test_scope() {
    assert_clean("unwrap");
}

#[test]
fn salt_unique_bad_flags_all_three_shapes() {
    // Duplicate value in the registry, a salt const outside the registry,
    // and a raw literal at a derive_seed call site.
    let analysis = analyze("salt-unique", "bad");
    assert_eq!(
        active(&analysis),
        vec![
            ("DA005", "crates/net/src/salts.rs", 3),
            ("DA005", "crates/net/src/world.rs", 2),
            ("DA005", "crates/net/src/world.rs", 6),
        ]
    );
    let messages: Vec<&str> = analysis.active().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("duplicates the value"), "{messages:?}");
    assert!(messages[1].contains("outside the registry"), "{messages:?}");
    assert!(messages[2].contains("literal stream salt"), "{messages:?}");
}

#[test]
fn salt_unique_clean_registry_and_const_call_sites() {
    assert_clean("salt-unique");
}

#[test]
fn feature_gate_bad_flags_every_feature_cfg() {
    let analysis = analyze("feature-gate", "bad");
    assert_eq!(
        active(&analysis),
        vec![
            ("DA006", "crates/sim/src/lib.rs", 2),
            ("DA006", "crates/sim/src/lib.rs", 7),
            ("DA006", "crates/sim/src/lib.rs", 11),
        ]
    );
}

#[test]
fn feature_gate_clean_one_build_and_test_scope() {
    assert_clean("feature-gate");
}

#[test]
fn dispatch_purity_bad_flags_refcell_and_println() {
    let analysis = analyze("dispatch-purity", "bad");
    assert_eq!(
        active(&analysis),
        vec![
            ("DA007", "crates/mac/src/lib.rs", 2),
            ("DA007", "crates/mac/src/lib.rs", 5),
        ]
    );
}

#[test]
fn dispatch_purity_clean_fmt_impl_is_fine() {
    assert_clean("dispatch-purity");
}

#[test]
fn panic_path_bad_flags_indexing_and_expect() {
    let analysis = analyze("panic-path", "bad");
    assert_eq!(
        active(&analysis),
        vec![
            ("DA008", "crates/sim/src/queue.rs", 3),
            ("DA008", "crates/sim/src/queue.rs", 4),
        ]
    );
}

#[test]
fn panic_path_clean_marker_covers_the_fn() {
    assert_clean("panic-path");
}

#[test]
fn stale_allow_bad_flags_bare_stale_and_reasonless() {
    let analysis = analyze("stale-allow", "bad");
    assert_eq!(
        active(&analysis),
        vec![
            ("DA009", "crates/net/src/lib.rs", 3),
            ("DA009", "crates/net/src/lib.rs", 6),
            ("DA009", "crates/net/src/lib.rs", 9),
        ]
    );
    let messages: Vec<&str> = analysis.active().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("#[allow]"), "{messages:?}");
    assert!(messages[1].contains("stale audit-allow"), "{messages:?}");
    assert!(
        messages[2].contains("without a justification"),
        "{messages:?}"
    );
}

#[test]
fn stale_allow_clean_live_suppression_counts_as_used() {
    let analysis = analyze("stale-allow", "clean");
    assert_eq!(active(&analysis), Vec::<(&str, &str, u32)>::new());
    // The clean fixture carries one *suppressed* unwrap finding: the
    // suppression is live (so no stale report) but the finding is kept in
    // the report, marked suppressed.
    let suppressed: Vec<_> = analysis.findings.iter().filter(|f| f.suppressed).collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].rule.id(), "DA004");
}
