//! Minimal flag parsing shared by the experiment binaries.
//!
//! Malformed values are a usage problem, not a program bug: the `try_get_*`
//! accessors surface them as a typed [`UsageError`], and the plain `get_*`
//! accessors (what the binaries call) print that error to stderr and exit
//! with status 2 — the conventional "bad command line" code — instead of
//! panicking with a backtrace.

use std::collections::BTreeMap;
use std::fmt;

use dirca_geometry::Beamwidth;
use dirca_mac::Scheme;
use dirca_net::SinrPhy;
use dirca_sim::SimDuration;

use crate::ringsim::RingExperiment;

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

    /// `--name` parsed as a `T`, or `default`. A value that does not parse
    /// is a [`UsageError`] expecting `kind`; one that `valid` refuses is a
    /// [`UsageError`] expecting `range`. The checked readers below are this
    /// with the range of the value they read.
    pub(crate) fn try_get_checked<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        kind: &'static str,
        range: &'static str,
        valid: impl FnOnce(&T) -> bool,
    ) -> Result<T, UsageError> {
        let value = self.try_parse(name, default, kind)?;
        match self.get(name) {
            Some(got) if !valid(&value) => Err(UsageError {
                flag: name.to_string(),
                expected: range,
                got: got.to_string(),
            }),
            _ => Ok(value),
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

    /// `--name` parsed as a [`Scheme`] name (`orts-octs`, `drts-dcts`,
    /// `drts-octs`, or an alias), or `default`; an unknown name is a
    /// [`UsageError`].
    pub fn try_get_scheme(&self, name: &str, default: Scheme) -> Result<Scheme, UsageError> {
        self.try_parse(
            name,
            default,
            "a scheme (orts-octs, drts-dcts or drts-octs)",
        )
    }

    /// The value of `--name` taken as a path, or `None` when the flag is
    /// absent; a bare `--name` with no value is a [`UsageError`].
    pub fn try_get_path(&self, name: &str) -> Result<Option<&str>, UsageError> {
        if self.has(name) {
            return Err(UsageError {
                flag: name.to_string(),
                expected: "a path",
                got: String::new(),
            });
        }
        Ok(self.get(name))
    }

    /// `--name` as a count of at least 1 (`--n`, `--topologies`), or
    /// `default`; a malformed value or 0 is a [`UsageError`].
    pub fn try_get_count(&self, name: &str, default: usize) -> Result<usize, UsageError> {
        self.try_get_checked(name, default, "an integer", "at least 1", |&n| n >= 1)
    }

    /// `--name` as a mean neighbourhood size `N` (the real-valued `--n` of
    /// the analytical and field binaries), or `default`; a value the
    /// analytical model refuses (not finite, or not above 0) is a
    /// [`UsageError`].
    pub fn try_get_density(&self, name: &str, default: f64) -> Result<f64, UsageError> {
        self.try_get_checked(
            name,
            default,
            "a number",
            "a finite density above 0",
            |&n: &f64| n.is_finite() && n > 0.0,
        )
    }

    /// `--name` as a window of whole milliseconds, at least 1
    /// (`--measure-ms`), or `default`; a malformed value or 0 is a
    /// [`UsageError`].
    pub fn try_get_window(
        &self,
        name: &str,
        default: SimDuration,
    ) -> Result<SimDuration, UsageError> {
        let ms = self.try_get_checked(name, 0, "an integer", "at least 1", |&ms: &u64| ms >= 1)?;
        Ok(self
            .get(name)
            .map_or(default, |_| SimDuration::from_millis(ms)))
    }

    /// `--name` as a beamwidth in degrees, or `default`, returned as given
    /// (print this value, not [`Beamwidth::degrees`], which need not
    /// read back the same). A value [`Beamwidth::from_degrees`] refuses is
    /// a [`UsageError`].
    pub fn try_get_beamwidth(&self, name: &str, default: f64) -> Result<f64, UsageError> {
        self.try_get_checked(
            name,
            default,
            "a number",
            "a beamwidth in (0, 360] degrees",
            |&degrees| Beamwidth::from_degrees(degrees).is_ok(),
        )
    }

    /// `--name` as a SINR capture margin, or `default`. A value
    /// [`SinrPhy::validate`] refuses is a [`UsageError`].
    pub fn try_get_margin(&self, name: &str, default: f64) -> Result<f64, UsageError> {
        self.try_get_checked(
            name,
            default,
            "a number",
            "a finite, non-negative capture margin",
            |&margin| SinrPhy::ideal().with_margin(margin).validate().is_ok(),
        )
    }

    /// `--threads`, or the host's available parallelism (4 when unknown).
    /// A malformed value or 0 is a [`UsageError`]: a worker pool needs at
    /// least one thread.
    pub fn try_get_threads(&self) -> Result<usize, UsageError> {
        let default = std::thread::available_parallelism().map_or(4, |n| n.get());
        self.try_get_count("threads", default)
    }

    /// Like [`Flags::try_get_threads`], but a malformed or zero value
    /// prints a usage error to stderr and exits with status 2.
    pub fn get_threads(&self) -> usize {
        self.try_get_threads().unwrap_or_else(|e| e.exit())
    }

    /// [`Flags::try_get_count`], exiting with status 2 on a usage error.
    pub fn get_count(&self, name: &str, default: usize) -> usize {
        self.try_get_count(name, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// [`Flags::try_get_density`], exiting with status 2 on a usage error.
    pub fn get_density(&self, name: &str, default: f64) -> f64 {
        self.try_get_density(name, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// [`Flags::try_get_window`], exiting with status 2 on a usage error.
    pub fn get_window(&self, name: &str, default: SimDuration) -> SimDuration {
        self.try_get_window(name, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// [`Flags::try_get_beamwidth`], exiting with status 2 on a usage error.
    pub fn get_beamwidth(&self, name: &str, default: f64) -> f64 {
        self.try_get_beamwidth(name, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// [`Flags::try_get_margin`], exiting with status 2 on a usage error.
    pub fn get_margin(&self, name: &str, default: f64) -> f64 {
        self.try_get_margin(name, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// Reads `--n`, `--topologies`, `--seed` and `--measure-ms` into
    /// `cell` through the checked readers, keeping its value for each flag
    /// not given; exits with status 2 on a usage error.
    pub fn read_ring_cell(&self, cell: &mut RingExperiment) {
        cell.n_avg = self.get_count("n", cell.n_avg);
        cell.topologies = self.get_count("topologies", cell.topologies);
        cell.seed = self.get_u64("seed", cell.seed);
        cell.config.measure = self.get_window("measure-ms", cell.config.measure);
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
    fn threads_refuses_zero_and_malformed_counts() {
        let err = flags(&["--threads", "0"])
            .try_get_threads()
            .expect_err("zero threads accepted");
        assert_eq!((err.flag.as_str(), err.expected), ("threads", "at least 1"));
        assert!(flags(&["--threads", "many"]).try_get_threads().is_err());
        assert_eq!(flags(&["--threads", "3"]).try_get_threads(), Ok(3));
        assert!(flags(&[]).try_get_threads().is_ok_and(|n| n >= 1));
    }

    #[test]
    fn adjacent_switches_both_register() {
        let f = flags(&["--quick", "--verbose"]);
        assert!(f.has("quick") && f.has("verbose"));
    }

    #[test]
    fn a_path_flag_needs_a_value() {
        assert_eq!(
            flags(&["--svg", "out"]).try_get_path("svg"),
            Ok(Some("out"))
        );
        assert_eq!(flags(&[]).try_get_path("svg"), Ok(None));
        let err = flags(&["--svg"]).try_get_path("svg").unwrap_err();
        assert_eq!((err.flag.as_str(), err.expected), ("svg", "a path"));
    }

    #[test]
    fn schemes_parse_by_name_and_alias() {
        let f = flags(&["--scheme", "hybrid"]);
        assert_eq!(
            f.try_get_scheme("scheme", Scheme::OrtsOcts),
            Ok(Scheme::DrtsOcts)
        );
        assert_eq!(
            f.try_get_scheme("other", Scheme::OrtsOcts),
            Ok(Scheme::OrtsOcts)
        );
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
