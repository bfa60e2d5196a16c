//! `dirca-audit` — a std-only static analyzer for the dirca workspace.
//!
//! The simulator's correctness claims rest on invariants the compiler
//! cannot check: deterministic iteration order, seeded randomness,
//! salt-disjoint RNG streams, non-perturbing observability layers, and a
//! panic-free transmit path. This crate enforces them mechanically:
//!
//! ```text
//! lexer  →  cfg  →  model (crates → files → items)  →  rules  →  diag
//!                                                        │
//!                            suppress (audit-allow) ─────┤
//!                            baseline (audit-baseline.json)
//! ```
//!
//! * [`lexer`] tokenizes Rust source (comments, strings, raw strings,
//!   lifetimes, numeric forms) so rules never see text inside literals;
//! * [`cfg`](mod@cfg) evaluates `#[cfg(...)]` predicates structurally;
//! * [`model`] recovers the item tree — notably, `#[cfg(test)]` scope is
//!   tracked **wherever** it appears in a file, fixing the old
//!   line-scanner's trailing-module assumption;
//! * [`rules`] runs the passes (`DA001`–`DA009`, see
//!   [`diag::Rule::describe`]);
//! * [`suppress`] honors `// audit-allow(rule): why` comments and flags
//!   stale ones;
//! * [`baseline`] absorbs findings recorded in `audit-baseline.json`
//!   (workspace policy: the checked-in baseline is empty).
//!
//! The library is dependency-free by design — the analyzer gates CI, so
//! it must build before (and regardless of) everything else.

pub mod baseline;
pub mod cfg;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod suppress;

use std::path::Path;

use diag::{Analysis, Finding};
use model::Workspace;

/// Crates never scanned: the bench harness intentionally uses wall-clock
/// timing (that is its job).
pub const SKIP_CRATES: &[&str] = &["bench"];

/// Loads the workspace under `root` and runs every rule pass.
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    let ws = Workspace::load(root, SKIP_CRATES)?;
    Ok(analyze_workspace(&ws))
}

/// Runs every rule pass over an already-loaded workspace, applies
/// `audit-allow` suppressions, and sorts findings by position.
///
/// The baseline is *not* applied here — callers decide whether one is in
/// play (see [`baseline::Baseline::apply`]).
pub fn analyze_workspace(ws: &Workspace) -> Analysis {
    let mut findings: Vec<Finding> = Vec::new();
    let gated = rules::gates::gated_module_files(ws);
    for krate in &ws.crates {
        for file in &krate.files {
            rules::bans::run(krate, file, &mut findings);
            rules::gates::run(krate, file, &gated, &mut findings);
            rules::purity::run(krate, file, &mut findings);
            rules::allows::run(krate, file, &mut findings);
            rules::salts::run_calls(krate, file, &mut findings);
        }
    }
    rules::salts::run_consts(ws, &mut findings);
    // Suppressions: applied after all passes so cross-file findings (salt
    // registry checks) are suppressible too.
    let mut stale: Vec<Finding> = Vec::new();
    for krate in &ws.crates {
        for file in &krate.files {
            let mut sups = suppress::collect(file);
            if sups.is_empty() {
                continue;
            }
            suppress::apply(file, &mut sups, &mut findings, &mut stale);
        }
    }
    findings.extend(stale);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Analysis {
        findings,
        crates: ws.crates.len(),
        files: ws.crates.iter().map(|c| c.files.len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_on_inline_workspace() {
        let ws = Workspace::from_source(
            "net",
            "crates/net/src/world.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // audit-allow(unwrap, panic-path): demo\n}\n",
        );
        let analysis = analyze_workspace(&ws);
        assert_eq!(analysis.files, 1);
        assert!(analysis.findings.iter().all(|f| f.suppressed));
        assert_eq!(analysis.active_count(), 0);
    }

    #[test]
    fn findings_are_sorted() {
        let ws = Workspace::from_source(
            "net",
            "crates/net/src/x.rs",
            "pub fn g(b: Option<u32>) -> u32 { b.unwrap() }\npub fn f(a: Option<u32>) -> u32 { a.unwrap() }\n",
        );
        let analysis = analyze_workspace(&ws);
        assert_eq!(analysis.findings.len(), 2);
        assert!(analysis.findings[0].line < analysis.findings[1].line);
    }
}
