//! Diagnostics: the rule catalog with stable IDs, findings with
//! `file:line:col` spans, and the human / JSON renderers.

use std::fmt;

/// Every rule the analyzer knows, with a stable ID that external tooling
/// (CI annotations, the baseline file) can key on. IDs are append-only:
/// a retired rule's ID is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// DA001: hash-ordered collections in simulation-ordering crates.
    HashOrder,
    /// DA002: wall-clock or entropy sources in deterministic crates.
    WallClockEntropy,
    /// DA003: direct float-literal `==`/`!=` comparison outside tests.
    FloatEq,
    /// DA004: `.unwrap()` in library code.
    Unwrap,
    /// DA005: RNG stream salts — duplicates, literals at derivation
    /// sites, or salt consts defined outside the registry.
    SaltUnique,
    /// DA006: `cfg(feature = …)` in library code.
    FeatureGate,
    /// DA007: interior mutability, I/O, or wall-clock in event-dispatch
    /// crates.
    DispatchPurity,
    /// DA008: unjustified indexing/`expect`/`unwrap` in transmit
    /// hot-path files.
    PanicPath,
    /// DA009: stale or unjustified suppressions (`#[allow]` without a
    /// justification, `audit-allow` that suppresses nothing).
    StaleAllow,
}

impl Rule {
    /// All rules, in ID order.
    pub const ALL: &'static [Rule] = &[
        Rule::HashOrder,
        Rule::WallClockEntropy,
        Rule::FloatEq,
        Rule::Unwrap,
        Rule::SaltUnique,
        Rule::FeatureGate,
        Rule::DispatchPurity,
        Rule::PanicPath,
        Rule::StaleAllow,
    ];

    /// The rule's stable ID (`DA001` …).
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashOrder => "DA001",
            Rule::WallClockEntropy => "DA002",
            Rule::FloatEq => "DA003",
            Rule::Unwrap => "DA004",
            Rule::SaltUnique => "DA005",
            Rule::FeatureGate => "DA006",
            Rule::DispatchPurity => "DA007",
            Rule::PanicPath => "DA008",
            Rule::StaleAllow => "DA009",
        }
    }

    /// The rule's short name, used in `audit-allow(name)` suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashOrder => "hash-order",
            Rule::WallClockEntropy => "wall-clock-entropy",
            Rule::FloatEq => "float-eq",
            Rule::Unwrap => "unwrap",
            Rule::SaltUnique => "salt-unique",
            Rule::FeatureGate => "feature-gate",
            Rule::DispatchPurity => "dispatch-purity",
            Rule::PanicPath => "panic-path",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// One-line description for `--list-rules` and the JSON header.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::HashOrder => {
                "hash collections have randomized iteration order; use BTreeMap/BTreeSet/Vec in simulation-ordering crates"
            }
            Rule::WallClockEntropy => {
                "wall clocks and entropy sources break reproducibility; use the event-queue clock and seeded rng streams"
            }
            Rule::FloatEq => "direct f64 equality against a float literal; compare with a tolerance",
            Rule::Unwrap => {
                "library code must not unwrap; return a Result or use expect(\"why this cannot fail\")"
            }
            Rule::SaltUnique => {
                "RNG stream salts must be unique, const-bound, and defined in the dirca-net salt registry"
            }
            Rule::FeatureGate => {
                "library code has one build: no cfg(feature = …); compile every layer in and decide at run time whether it is attached"
            }
            Rule::DispatchPurity => {
                "event-dispatch crates must stay pure: no interior mutability, I/O, or wall-clock reachable from dispatch"
            }
            Rule::PanicPath => {
                "indexing and expect/unwrap on the transmit hot path must carry a justification comment (panic-path: … or a # Panics doc)"
            }
            Rule::StaleAllow => {
                "suppressions must earn their keep: #[allow] needs a justification comment, audit-allow must match a finding"
            }
        }
    }

    /// Resolves a rule from its ID or name.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name() == s)
    }
}

/// One diagnostic produced by a rule pass.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of this specific violation.
    pub message: String,
    /// Trimmed text of the offending line — the stable key the baseline
    /// matches on, so unrelated line drift does not invalidate entries.
    pub snippet: String,
    /// Whether an `audit-allow` comment suppressed this finding.
    pub suppressed: bool,
    /// Whether a baseline entry absorbed this finding.
    pub baselined: bool,
}

impl Finding {
    /// Whether the finding still gates (neither suppressed nor
    /// baselined).
    pub fn active(&self) -> bool {
        !self.suppressed && !self.baselined
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

/// The complete result of one analyzer run.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Crates scanned.
    pub crates: usize,
    /// Files scanned.
    pub files: usize,
}

impl Analysis {
    /// Findings that still gate the run.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.active())
    }

    /// Count of active findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Renders the machine-readable JSON document (schema
    /// `dirca-audit/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"dirca-audit/1\",\n  \"rules\": [\n");
        for (i, rule) in Rule::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"name\": {}, \"description\": {}}}{}\n",
                json_str(rule.id()),
                json_str(rule.name()),
                json_str(rule.describe()),
                if i + 1 < Rule::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"name\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"snippet\": {}, \"suppressed\": {}, \"baselined\": {}}}{}\n",
                json_str(f.rule.id()),
                json_str(f.rule.name()),
                json_str(&f.file),
                f.line,
                f.col,
                json_str(&f.message),
                json_str(&f.snippet),
                f.suppressed,
                f.baselined,
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        let suppressed = self.findings.iter().filter(|f| f.suppressed).count();
        let baselined = self.findings.iter().filter(|f| f.baselined).count();
        out.push_str(&format!(
            "  ],\n  \"summary\": {{\"crates\": {}, \"files\": {}, \"total\": {}, \"active\": {}, \"suppressed\": {}, \"baselined\": {}}}\n}}\n",
            self.crates,
            self.files,
            self.findings.len(),
            self.active_count(),
            suppressed,
            baselined,
        ));
        out
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_unique() {
        let ids: Vec<_> = Rule::ALL.iter().map(|r| r.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate rule id");
        assert_eq!(ids[0], "DA001");
        assert_eq!(Rule::parse("DA004"), Some(Rule::Unwrap));
        assert_eq!(Rule::parse("unwrap"), Some(Rule::Unwrap));
        assert_eq!(Rule::parse("nope"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("plain"), "\"plain\"");
    }

    #[test]
    fn display_format() {
        let f = Finding {
            rule: Rule::Unwrap,
            file: "crates/net/src/world.rs".into(),
            line: 3,
            col: 9,
            message: "library code must not unwrap".into(),
            snippet: "x.unwrap();".into(),
            suppressed: false,
            baselined: false,
        };
        assert_eq!(
            f.to_string(),
            "crates/net/src/world.rs:3:9: [DA004 unwrap] library code must not unwrap"
        );
    }
}
