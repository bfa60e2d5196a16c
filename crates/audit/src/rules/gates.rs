//! DA006 — feature gates.
//!
//! Every layer of the simulator is compiled into every build: the trace
//! recorder, the dispatch probe and the runtime auditors are attached at
//! run time, and a run with none attached executes a loop without their
//! hooks. A cargo feature would bring back a second build of the engine,
//! in which whether a test binary checks anything depends on how cargo was
//! invoked. This pass keeps the one-build property: a `cfg(feature = …)`
//! in non-test library source is a finding, whether it sits in an
//! attribute, inside `cfg_attr`, or in a `cfg!` macro, and on an item or a
//! statement.

use crate::diag::{Finding, Rule};
use crate::lexer::TokenKind;
use crate::model::{CrateSrc, SourceFile};

use super::finding;

/// Runs the feature-gate ban over one file.
pub fn run(_krate: &CrateSrc, file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    let text = |i: usize| tokens.get(i).map_or("", |t| t.text(&file.source));
    for (i, tok) in tokens.iter().enumerate() {
        let name = text(i);
        if tok.kind != TokenKind::Ident
            || !(name == "cfg" || name == "cfg_attr")
            || file.is_test_line(tok.line)
        {
            continue;
        }
        let open = if text(i + 1) == "!" { i + 2 } else { i + 1 };
        if text(open) != "(" {
            continue;
        }
        // The first `feature = "…"` inside the balanced argument group.
        let mut depth = 0usize;
        let mut feature = None;
        for j in open..tokens.len() {
            match text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "feature" if text(j + 1) == "=" => {
                    feature = Some(text(j + 2));
                    break;
                }
                _ => {}
            }
        }
        if let Some(feature) = feature {
            out.push(finding(
                file,
                Rule::FeatureGate,
                tok.line,
                tok.col,
                format!(
                    "`{name}` on feature {feature} compiles a second build of this code; \
                     compile it unconditionally and decide at run time whether it is attached"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn run_single(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_source("sim", "crates/sim/src/engine.rs", src);
        let mut out = Vec::new();
        run(&ws.crates[0], &ws.crates[0].files[0], &mut out);
        out
    }

    #[test]
    fn every_feature_cfg_form_is_flagged() {
        let out = run_single(
            "#[cfg(feature = \"audit\")]\npub fn finish_audit(&self) {}\n\
             #[cfg(not(feature = \"audit\"))]\npub fn finish_audit(&self) {}\n\
             #[cfg_attr(feature = \"trace\", inline)]\nfn hot() {}\n\
             fn body() {\n    #[cfg(all(unix, feature = \"trace\"))]\n    emit();\n\
             \x20   if cfg!(feature = \"trace\") {}\n}\n",
        );
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 3, 5, 8, 10], "{out:?}");
        assert!(out.iter().all(|f| f.rule == Rule::FeatureGate));
        assert!(out[0].message.contains("\"audit\""), "{}", out[0].message);
    }

    #[test]
    fn test_scope_strings_and_other_cfgs_are_exempt() {
        let out = run_single(
            "#![cfg_attr(test, allow(clippy::unwrap_used))]\n\
             #[cfg(unix)]\nfn os() {}\n\
             pub const DOC: &str = \"#[cfg(feature = \\\"audit\\\")]\";\n\
             #[cfg(all(test, feature = \"audit\"))]\nmod harness {}\n\
             #[cfg(test)]\nmod tests {\n    #[cfg(feature = \"trace\")]\n    fn t() {}\n}\n",
        );
        assert!(out.is_empty(), "unexpected: {out:?}");
    }
}
