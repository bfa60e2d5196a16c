//! Parsing and evaluation of `#[cfg(...)]` predicates.
//!
//! The model builder hands every `cfg` attribute's argument tokens to
//! [`parse`], producing a small predicate tree that rules can query: *is
//! this item compiled only under `cfg(test)`?* Nested combinators (`all`,
//! `any`, `not`) are handled structurally, so `#[cfg(all(test, unix))]`
//! and `#[cfg(any(test, unix))]` mean exactly what they say.

use crate::lexer::{Token, TokenKind};

/// One `cfg` predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cfg {
    /// A bare or valued atom: `test`, `unix`, `feature = "trace"`.
    Atom {
        /// The atom's name (`test`, `feature`, `target_os`, …).
        name: String,
        /// The atom's value for `name = "value"` forms.
        value: Option<String>,
    },
    /// `all(...)`: every child must hold.
    All(Vec<Cfg>),
    /// `any(...)`: at least one child must hold.
    Any(Vec<Cfg>),
    /// `not(...)`: the child must not hold.
    Not(Box<Cfg>),
}

impl Cfg {
    /// Whether code under this predicate is compiled **only** when
    /// `cfg(test)` is active — the definition of test scope for the
    /// exemption rules. `all(test, …)` qualifies (it cannot be active
    /// without `test`); `any(test, other)` does not (it can).
    pub fn definitely_test(&self) -> bool {
        match self {
            Cfg::Atom { name, .. } => name == "test",
            Cfg::All(children) => children.iter().any(Cfg::definitely_test),
            Cfg::Any(children) => !children.is_empty() && children.iter().all(Cfg::definitely_test),
            Cfg::Not(_) => false,
        }
    }
}

/// Parses the tokens **between** the parentheses of `cfg(...)` into a
/// predicate. Returns `None` on empty or unrecognized input (the caller
/// treats an unparsed cfg as unconditional, erring toward scanning).
pub fn parse(tokens: &[Token], source: &str) -> Option<Cfg> {
    let mut pos = 0;
    let cfg = parse_pred(tokens, &mut pos, source)?;
    Some(cfg)
}

fn parse_pred(tokens: &[Token], pos: &mut usize, source: &str) -> Option<Cfg> {
    let tok = tokens.get(*pos)?;
    if tok.kind != TokenKind::Ident {
        return None;
    }
    let name = tok.text(source).to_string();
    *pos += 1;
    match tokens.get(*pos).map(|t| t.text(source)) {
        Some("(") => {
            *pos += 1; // consume `(`
            let mut children = Vec::new();
            loop {
                match tokens.get(*pos).map(|t| t.text(source)) {
                    Some(")") => {
                        *pos += 1;
                        break;
                    }
                    Some(",") => {
                        *pos += 1;
                    }
                    Some(_) => children.push(parse_pred(tokens, pos, source)?),
                    None => return None,
                }
            }
            match name.as_str() {
                "all" => Some(Cfg::All(children)),
                "any" => Some(Cfg::Any(children)),
                "not" => Some(Cfg::Not(Box::new(children.into_iter().next()?))),
                // Unknown combinator (e.g. `target_has_atomic("8")`): treat
                // as an opaque atom.
                _ => Some(Cfg::Atom { name, value: None }),
            }
        }
        Some("=") => {
            *pos += 1; // consume `=`
            let val = tokens.get(*pos)?;
            *pos += 1;
            let text = val.text(source);
            let value = text.trim_matches('"').to_string();
            Some(Cfg::Atom {
                name,
                value: Some(value),
            })
        }
        _ => Some(Cfg::Atom { name, value: None }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_str(s: &str) -> Cfg {
        let lexed = lex(s);
        parse(&lexed.tokens, s).expect("predicate parses")
    }

    #[test]
    fn bare_test_atom() {
        let cfg = parse_str("test");
        assert!(cfg.definitely_test());
    }

    #[test]
    fn valued_atom() {
        let cfg = parse_str(r#"feature = "trace""#);
        assert!(!cfg.definitely_test());
        assert_eq!(
            cfg,
            Cfg::Atom {
                name: "feature".into(),
                value: Some("trace".into()),
            }
        );
    }

    #[test]
    fn negated_test_is_not_test_only() {
        let cfg = parse_str("not(test)");
        assert!(!cfg.definitely_test());
    }

    #[test]
    fn all_with_test_is_test_only() {
        let cfg = parse_str(r#"all(test, feature = "audit")"#);
        assert!(cfg.definitely_test());
    }

    #[test]
    fn any_with_test_is_not_test_only() {
        let cfg = parse_str(r#"any(test, feature = "audit")"#);
        assert!(!cfg.definitely_test());
    }

    #[test]
    fn nested_not_all() {
        let cfg = parse_str(r#"not(all(test, unix))"#);
        assert!(!cfg.definitely_test());
    }
}
