//! The rule engine: distinct passes over the workspace model.
//!
//! Each pass is a function from the model to findings; the driver in
//! [`crate::analyze_workspace`] runs every pass, applies suppressions and
//! the baseline, and sorts the result. Rule scoping (which crates a rule
//! applies to, which files count as the transmit hot path) lives here as
//! named constants so the policy is one greppable place.

pub mod allows;
pub mod bans;
pub mod gates;
pub mod purity;
pub mod salts;

use crate::diag::{Finding, Rule};
use crate::model::SourceFile;

/// Crates whose data structures feed event ordering: hash collections are
/// banned outright (DA001). The trace crate is included because its
/// recorder and metrics registry sit on the record path; the serve crate
/// because its pending-connection queue and checkpoint handling must be
/// deterministic for byte-identical resumed reports.
pub const ORDERING_CRATES: &[&str] = &[
    "sim",
    "mac",
    "net",
    "radio",
    "experiments",
    "trace",
    "serve",
];

/// Crates that must be reproducible end to end: no wall clocks, no
/// entropy (DA002).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "mac",
    "net",
    "radio",
    "topology",
    "experiments",
    "analysis",
    "geometry",
    "stats",
    "trace",
    "serve",
];

/// Crates whose library code is reachable from the event-dispatch loop:
/// no interior mutability, I/O, or wall-clock anywhere in them (DA007).
pub const DISPATCH_CRATES: &[&str] = &["sim", "net", "mac"];

/// Files on the transmit hot path: indexing and `expect`/`unwrap` there
/// must carry a justification comment (DA008).
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/net/src/world.rs",
    "crates/sim/src/engine.rs",
    "crates/sim/src/queue.rs",
    "crates/mac/src/dcf.rs",
    "crates/radio/src/coverage.rs",
    "crates/radio/src/spatial.rs",
    // The edge fill runs on every plan build and every position epoch,
    // and the footprint filter on every directional wave; epochs also step
    // the mobility model, and every arrival edge evaluates the antenna
    // gain.
    "crates/radio/src/edges.rs",
    "crates/radio/src/pattern.rs",
    "crates/topology/src/mobility.rs",
];

/// The single source of truth for RNG stream salts (DA005): every
/// `*_STREAM_SALT` const must live here.
pub const SALT_REGISTRY_FILE: &str = "crates/net/src/salts.rs";

/// Builds a finding with the snippet filled in from the file.
pub fn finding(file: &SourceFile, rule: Rule, line: u32, col: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        col,
        message,
        snippet: file.line_text(line).to_string(),
        suppressed: false,
        baselined: false,
    }
}
