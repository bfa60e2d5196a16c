//! Minimal flag parsing shared by the experiment binaries.
//!
//! Malformed values are a usage problem, not a program bug: the `try_get_*`
//! accessors surface them as a typed [`UsageError`], and the plain `get_*`
//! accessors (what the binaries call) print that error to stderr and exit
//! with status 2 — the conventional "bad command line" code — instead of
//! panicking with a backtrace.

use std::collections::BTreeMap;
use std::fmt;

/// A flag value that could not be parsed: `--{flag}` expected a `{expected}`
/// but got `{got}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The flag name, without the leading `--`.
    pub flag: String,
    /// What kind of value the flag expects ("an integer", "a number").
    pub expected: &'static str,
    /// The malformed value as given.
    pub got: String,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "usage error: --{} expects {}, got {:?}",
            self.flag, self.expected, self.got
        )
    }
}

impl std::error::Error for UsageError {}

impl UsageError {
    /// Prints the error to stderr and exits with status 2.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2);
    }
}

/// Parsed command-line flags: `--key value` pairs and bare `--switch`es.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args` (excluding the program name). A token starting with
    /// `--` followed by a token not starting with `--` is a key/value pair;
    /// otherwise it is a switch.
    ///
    /// # Example
    ///
    /// ```
    /// use dirca_experiments::cli::Flags;
    ///
    /// let f = Flags::parse(["--topologies", "10", "--quick"].iter().map(|s| s.to_string()));
    /// assert_eq!(f.get_usize("topologies", 50), 10);
    /// assert!(f.has("quick"));
    /// assert!(!f.has("verbose"));
    /// ```
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let tokens: Vec<String> = args.collect();
        let mut flags = Flags::default();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            if let Some(name) = tok.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    flags.values.insert(name.to_string(), tokens[i + 1].clone());
                    i += 2;
                    continue;
                }
                flags.switches.push(name.to_string());
            }
            i += 1;
        }
        flags
    }

    /// Parses the process's own arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Whether the bare switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The raw value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Every flag name given, valued or bare, without the leading `--`.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().chain(&self.switches).map(String::as_str)
    }

    fn try_parse<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, UsageError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| UsageError {
                flag: name.to_string(),
                expected,
                got: v.to_string(),
            }),
        }
    }

    /// `--name` parsed as `usize`, or `default`; a malformed value is a
    /// [`UsageError`].
    pub fn try_get_usize(&self, name: &str, default: usize) -> Result<usize, UsageError> {
        self.try_parse(name, default, "an integer")
    }

    /// `--name` parsed as `u64`, or `default`; a malformed value is a
    /// [`UsageError`].
    pub fn try_get_u64(&self, name: &str, default: u64) -> Result<u64, UsageError> {
        self.try_parse(name, default, "an integer")
    }

    /// `--name` parsed as `f64`, or `default`; a malformed value is a
    /// [`UsageError`].
    pub fn try_get_f64(&self, name: &str, default: f64) -> Result<f64, UsageError> {
        self.try_parse(name, default, "a number")
    }

    /// `--name` parsed as `usize`, or `default`. A malformed value prints a
    /// usage error to stderr and exits with status 2.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.try_get_usize(name, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// `--name` parsed as `u64`, or `default`. A malformed value prints a
    /// usage error to stderr and exits with status 2.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.try_get_u64(name, default).unwrap_or_else(|e| e.exit())
    }

    /// `--name` parsed as `f64`, or `default`. A malformed value prints a
    /// usage error to stderr and exits with status 2.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.try_get_f64(name, default).unwrap_or_else(|e| e.exit())
    }
}

/// A usage-error message for the first flag in `flags` that an earlier
/// version accepted and this one does not, naming the flag and why it
/// went. [`Flags`] ignores names it does not know, so a leftover flag
/// would otherwise be dropped without a word and the run go ahead on
/// terms other than those asked for:
///
/// * `--trace-…`: trace documents have one binary encoding, and
///   `--trace PATH` is the only trace flag;
/// * `--engine-threads`: the sharded engine is gone, and every run uses
///   the one sequential engine.
pub fn removed_flag(flags: &Flags) -> Option<String> {
    flags.names().find_map(|name| {
        let why = if name.starts_with("trace-") {
            "trace documents are binary-only and `--trace PATH` is the only trace flag"
        } else if name == "engine-threads" {
            "the sharded engine was removed and every run uses the one sequential engine"
        } else {
            return None;
        };
        Some(format!("usage error: --{name} is not accepted: {why}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = flags(&["--a", "1", "--quick", "--b", "2.5"]);
        assert_eq!(f.get_usize("a", 0), 1);
        assert!((f.get_f64("b", 0.0) - 2.5).abs() < 1e-12);
        assert!(f.has("quick"));
    }

    #[test]
    fn defaults_apply_when_missing() {
        let f = flags(&[]);
        assert_eq!(f.get_usize("n", 7), 7);
        assert_eq!(f.get_u64("seed", 9), 9);
        assert!((f.get_f64("x", 1.5) - 1.5).abs() < 1e-12);
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn adjacent_switches_both_register() {
        let f = flags(&["--quick", "--verbose"]);
        assert!(f.has("quick") && f.has("verbose"));
    }

    #[test]
    fn trailing_flag_is_switch() {
        let f = flags(&["--seed", "3", "--fast"]);
        assert_eq!(f.get_u64("seed", 0), 3);
        assert!(f.has("fast"));
    }

    #[test]
    fn bad_integer_is_a_usage_error() {
        let err = flags(&["--n", "xyz"])
            .try_get_usize("n", 0)
            .expect_err("xyz is not an integer");
        assert_eq!(err.flag, "n");
        assert_eq!(err.expected, "an integer");
        assert_eq!(err.got, "xyz");
        assert_eq!(
            err.to_string(),
            "usage error: --n expects an integer, got \"xyz\""
        );
    }

    #[test]
    fn bad_u64_and_f64_are_usage_errors() {
        let f = flags(&["--seed", "-1", "--rate", "fast"]);
        assert!(f.try_get_u64("seed", 0).is_err(), "u64 rejects negatives");
        let err = f.try_get_f64("rate", 0.0).expect_err("not a number");
        assert_eq!(err.expected, "a number");
        assert_eq!(err.got, "fast");
    }

    #[test]
    fn try_getters_default_when_missing() {
        let f = flags(&[]);
        assert_eq!(f.try_get_usize("n", 7), Ok(7));
        assert_eq!(f.try_get_u64("seed", 9), Ok(9));
        assert_eq!(f.try_get_f64("x", 1.5), Ok(1.5));
    }

    #[test]
    fn removed_flags_are_named_for_refusal() {
        assert_eq!(removed_flag(&flags(&["--quick", "--trace", "g.bin"])), None);
        for args in [
            &["--trace", "g.bin", "--trace-encoding", "jsonl"][..],
            &["--trace-encoding", "--quick"][..],
        ] {
            let message = removed_flag(&flags(args)).expect("stale trace flag");
            assert!(message.contains("--trace-encoding "), "{message}");
        }
        for args in [
            &["--engine-threads", "4"][..],
            &["--quick", "--engine-threads"][..],
        ] {
            let message = removed_flag(&flags(args)).expect("removed engine flag");
            assert!(
                message.starts_with("usage error: --engine-threads "),
                "{message}"
            );
        }
    }
}
