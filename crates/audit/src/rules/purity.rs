//! DA007 — dispatch purity; DA008 — panic-path justification.
//!
//! DA007: crates reachable from the event-dispatch loop (`sim`, `net`,
//! `mac`) must not use interior mutability, I/O, threads, or wall-clock —
//! any of these makes dispatch order observable or non-reproducible. The
//! rule covers every non-test line of every file in those crates, with no
//! per-file exemption: the one engine is sequential, so nothing there has
//! a reason to own a thread, an atomic, or a lock.
//!
//! DA008: in the named transmit hot-path files, every indexing expression
//! and every `.expect()`/`.unwrap()` is a potential panic. Each must be
//! justified: a comment on the same or the directly preceding line, or an
//! enclosing function carrying a `# Panics` doc section or a
//! `panic-path:` marker comment.

use std::collections::BTreeSet;

use crate::diag::{Finding, Rule};
use crate::lexer::TokenKind;
use crate::model::{CrateSrc, SourceFile, KEYWORDS};

use super::{finding, DISPATCH_CRATES, HOT_PATH_FILES};

/// Idents whose mere presence in dispatch crates indicates interior
/// mutability or shared-state machinery.
const INTERIOR: &[&str] = &[
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "OnceLock",
    "LazyLock",
    "Mutex",
    "RwLock",
    "Condvar",
];

/// `std::<module>` path tails banned in dispatch crates (I/O and
/// environment access).
const STD_MODULES: &[&str] = &["fs", "io", "net", "process", "thread", "env"];

/// Print-like macros banned in dispatch crates.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// Runs DA007 and DA008 over one file.
pub fn run(krate: &CrateSrc, file: &SourceFile, out: &mut Vec<Finding>) {
    if DISPATCH_CRATES.contains(&krate.name.as_str()) {
        run_purity(krate, file, out);
    }
    if HOT_PATH_FILES.contains(&file.rel_path.as_str()) {
        run_panic_path(file, out);
    }
}

fn run_purity(krate: &CrateSrc, file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    let text = |i: usize| tokens[i].text(&file.source);
    for i in 0..tokens.len() {
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident || file.is_test_line(tok.line) {
            continue;
        }
        let t = text(i);
        let mut flag = |what: &str| {
            out.push(finding(
                file,
                Rule::DispatchPurity,
                tok.line,
                tok.col,
                format!(
                    "{what} in dispatch crate `{}`; event handlers must stay pure",
                    krate.name
                ),
            ));
        };
        if INTERIOR.contains(&t) || t.starts_with("Atomic") {
            flag(&format!("interior-mutability type `{t}`"));
        } else if STD_MODULES.contains(&t) && i >= 2 && text(i - 1) == "::" && text(i - 2) == "std"
        {
            flag(&format!("`std::{t}` access"));
        } else if PRINT_MACROS.contains(&t) && i + 1 < tokens.len() && text(i + 1) == "!" {
            flag(&format!("`{t}!` output"));
        } else if t == "static" && i + 1 < tokens.len() && text(i + 1) == "mut" {
            flag("`static mut` global state");
        }
    }
}

fn run_panic_path(file: &SourceFile, out: &mut Vec<Finding>) {
    // All lines covered by a comment (block comments cover a range).
    let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
    for c in &file.comments {
        for line in c.line..=c.end_line {
            comment_lines.insert(line);
        }
    }
    // Functions carrying a justification marker anywhere in their doc
    // block or body: `# Panics` (rustdoc section) or `panic-path:`.
    let marked: Vec<(u32, u32)> = {
        let mut spans = Vec::new();
        for item in file.all_items() {
            if item.kind != crate::model::ItemKind::Fn {
                continue;
            }
            // Extend the span upward over the contiguous doc/comment block.
            let mut start = item.line;
            while let Some(c) = file.comments.iter().find(|c| c.end_line + 1 == start) {
                start = c.line;
            }
            let has_marker = file.comments.iter().any(|c| {
                c.line >= start && c.line <= item.end_line && {
                    let t = c.text(&file.source);
                    t.contains("# Panics") || t.contains("panic-path:")
                }
            });
            if has_marker {
                spans.push((start, item.end_line));
            }
        }
        spans
    };
    let justified = |line: u32| {
        comment_lines.contains(&line)
            || (line > 1 && comment_lines.contains(&(line - 1)))
            || marked.iter().any(|&(s, e)| s <= line && line <= e)
    };
    let tokens = &file.tokens;
    let text = |i: usize| tokens[i].text(&file.source);
    for i in 0..tokens.len() {
        let tok = &tokens[i];
        if file.is_test_line(tok.line) {
            continue;
        }
        let t = text(i);
        let site = if tok.kind == TokenKind::Punct && t == "[" && i >= 1 {
            let prev = &tokens[i - 1];
            let p = prev.text(&file.source);
            ((prev.kind == TokenKind::Ident && !KEYWORDS.contains(&p)) || p == ")" || p == "]")
                .then_some("indexing (panics when out of bounds)")
        } else if tok.kind == TokenKind::Ident
            && (t == "expect" || t == "unwrap")
            && i >= 1
            && text(i - 1) == "."
            && i + 1 < tokens.len()
            && text(i + 1) == "("
        {
            Some(if t == "expect" {
                "`.expect()` (panics when None/Err)"
            } else {
                "`.unwrap()` (panics when None/Err)"
            })
        } else {
            None
        };
        if let Some(what) = site {
            if !justified(tok.line) {
                out.push(finding(
                    file,
                    Rule::PanicPath,
                    tok.line,
                    tok.col,
                    format!(
                        "{what} on the transmit hot path without a justification; add a \
                         nearby comment, a `# Panics` doc, or a `panic-path:` marker on \
                         the enclosing fn"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn run_on(crate_name: &str, rel: &str, src: &str) -> Vec<Finding> {
        let ws = Workspace::from_source(crate_name, rel, src);
        let mut out = Vec::new();
        run(&ws.crates[0], &ws.crates[0].files[0], &mut out);
        out
    }

    #[test]
    fn interior_mutability_flagged_in_dispatch_crates_only() {
        let src = "use std::cell::RefCell;\n";
        assert_eq!(
            run_on("sim", "crates/sim/src/x.rs", src)
                .iter()
                .filter(|f| f.rule == Rule::DispatchPurity)
                .count(),
            1
        );
        assert!(run_on("analysis", "crates/analysis/src/x.rs", src).is_empty());
    }

    #[test]
    fn threads_atomics_and_locks_flagged_in_every_dispatch_file() {
        let src = "use std::sync::Mutex;\nuse std::sync::atomic::AtomicU64;\n\
                   pub fn f() { std::thread::yield_now(); }\n";
        for path in ["crates/sim/src/shard.rs", "crates/sim/src/engine.rs"] {
            let out = run_on("sim", path, src);
            assert_eq!(out.len(), 3, "{path}: {out:?}");
        }
    }

    #[test]
    fn io_and_print_flagged() {
        let src = "pub fn f() { let _ = std::fs::read(\"x\"); println!(\"hi\"); }\n";
        let out = run_on("net", "crates/net/src/x.rs", src);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn fmt_and_display_are_fine() {
        let src = "use std::fmt;\nimpl fmt::Display for X {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"x\") }\n}\n";
        assert!(run_on("sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn hot_path_indexing_needs_justification() {
        let src = "pub fn handle(&mut self) {\n    let x = self.app[node.0];\n}\n";
        let out = run_on("net", "crates/net/src/world.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::PanicPath);
        // Same code in a non-hot file: no finding.
        assert!(run_on("net", "crates/net/src/other.rs", src).is_empty());
    }

    #[test]
    fn nearby_comment_or_fn_marker_justifies() {
        let near = "pub fn handle(&mut self) {\n    // node ids are dense: `app` is sized to n at build time\n    let x = self.app[node.0];\n}\n";
        assert!(run_on("net", "crates/net/src/world.rs", near).is_empty());
        let marker = "/// Dispatches one event.\n///\n/// # Panics\n/// Node ids out of range abort: topology is fixed at build.\npub fn handle(&mut self) {\n    let x = self.app[node.0];\n    let y = self.mac[node.0];\n}\n";
        assert!(
            run_on("net", "crates/net/src/world.rs", marker).is_empty(),
            "fn-level marker covers all sites in the fn"
        );
    }

    #[test]
    fn types_attrs_and_macros_are_not_indexing() {
        let src = "#[derive(Clone)]\npub struct S { v: [f64; 2] }\npub fn f() -> Vec<u32> { vec![1, 2] }\n";
        assert!(run_on("net", "crates/net/src/world.rs", src).is_empty());
    }
}
