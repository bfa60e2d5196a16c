//! The RNG stream-salt registry — the single place every stream salt in
//! the workspace is defined.
//!
//! Independent random streams are derived as
//! `dirca_sim::rng::derive_seed(master_seed, salt)`; two call sites that
//! share a salt share a stream and silently correlate. Keeping every salt
//! here, each bound to a documented `const`, makes pairwise uniqueness
//! reviewable at a glance and testable: the tests below check the values
//! pairwise, and `tests/source_rules.rs` fails on a salt const defined
//! elsewhere, a const missing from [`ALL_STREAM_SALTS`], or an integer
//! literal passed as the salt of a `derive_seed` call.
//!
//! Salts that index per-trial streams (`RUN_STREAM_SALT + trial`) reserve
//! a *range*; keep new salts well clear of an existing base (trial counts
//! stay far below `0x1_0000`, so spacing bases by at least that much is
//! plenty).

/// Fault-draw streams, one per receiving node, separated from every other
/// per-node stream. Fault randomness must never touch the traffic/backoff
/// streams: that isolation is what keeps a zero-fault plan byte-identical
/// to a run with no plan at all, and lets fault plans change without
/// perturbing the contention sequence more than the faults themselves do.
pub const FAULT_STREAM_SALT: u64 = 0xFA17_1A11;

/// Topology placement streams: node-position draws for randomized
/// topologies, indexed per trial via the `stream_rng` stream argument.
pub const TOPOLOGY_STREAM_SALT: u64 = 0xA11CE;

/// Per-trial simulation master seeds: each trial `t` runs under
/// `derive_seed(seed, RUN_STREAM_SALT + t)`, keeping trials independent
/// of each other and of topology placement.
pub const RUN_STREAM_SALT: u64 = 0xB0B;

/// Analytic-model sampling streams for the model-vs-simulation
/// comparison, indexed per traffic point.
pub const MODEL_STREAM_SALT: u64 = 0xF1E1D;

/// Simulation seeds for the model-vs-simulation comparison, indexed per
/// traffic point; distinct from [`RUN_STREAM_SALT`] so the comparison
/// never reuses a sweep trial's stream.
pub const MODEL_RUN_STREAM_SALT: u64 = 0x51D;

/// Scaling-benchmark streams: Poisson-field placement and run seeds for
/// the 1k–100k-node grid benchmarks, indexed per field size via a second
/// `derive_seed(·, nodes)` step. Separate from [`TOPOLOGY_STREAM_SALT`]
/// so scaling fields never correlate with the paper-grid ring draws.
pub const SCALING_STREAM_SALT: u64 = 0x5CA_11E;

/// Client retry-backoff jitter streams for `dirca-serve`, indexed per
/// attempt. Jitter only shapes *when* a client retries, never what it
/// computes — but it is still a seeded stream so two clients launched
/// with different seeds desynchronize deterministically and a test can
/// replay the exact retry schedule.
pub const SERVE_BACKOFF_STREAM_SALT: u64 = 0x5E_1BAC;

/// Mobility trajectory stream: waypoint, speed, and group-deviation draws
/// for the `MobilityState` attached to a run. One stream per run (the
/// state walks nodes in a fixed order), separated from every traffic and
/// backoff stream so attaching a mobility model perturbs nothing but the
/// positions themselves — and a speed-0 model, which draws nothing at
/// all, leaves the whole run byte-identical (the golden anchor in
/// `tests/mobility_golden.rs`).
pub const MOBILITY_STREAM_SALT: u64 = 0x30_B11E;

/// Log-normal fading draws for the SINR PHY, one stream per receiving
/// node (indexed via the `stream_rng` stream argument). Only tapped when
/// `fading_sigma > 0`; a fading-free SINR run consumes no draws from it,
/// which is what keeps the ideal-pattern SINR configuration byte-identical
/// to the binary PHY.
pub const SINR_STREAM_SALT: u64 = 0x51A12;

/// Boresight-orientation draws for the connectivity-validation experiment
/// (E18): each trial assigns every node an independent uniform sector
/// orientation, indexed per trial. Separate from topology placement so
/// orientations and positions are independent, as the Georgiou et al.
/// closed forms assume.
pub const CONNECTIVITY_STREAM_SALT: u64 = 0xC0_44EC;

/// Every registered salt, for the pairwise-uniqueness test and for
/// documentation tooling.
pub const ALL_STREAM_SALTS: &[(&str, u64)] = &[
    ("FAULT_STREAM_SALT", FAULT_STREAM_SALT),
    ("TOPOLOGY_STREAM_SALT", TOPOLOGY_STREAM_SALT),
    ("RUN_STREAM_SALT", RUN_STREAM_SALT),
    ("MODEL_STREAM_SALT", MODEL_STREAM_SALT),
    ("MODEL_RUN_STREAM_SALT", MODEL_RUN_STREAM_SALT),
    ("SCALING_STREAM_SALT", SCALING_STREAM_SALT),
    ("SERVE_BACKOFF_STREAM_SALT", SERVE_BACKOFF_STREAM_SALT),
    ("MOBILITY_STREAM_SALT", MOBILITY_STREAM_SALT),
    ("SINR_STREAM_SALT", SINR_STREAM_SALT),
    ("CONNECTIVITY_STREAM_SALT", CONNECTIVITY_STREAM_SALT),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salts_are_pairwise_unique() {
        for (i, (name_a, a)) in ALL_STREAM_SALTS.iter().enumerate() {
            for (name_b, b) in &ALL_STREAM_SALTS[i + 1..] {
                assert_ne!(
                    a, b,
                    "{name_a} and {name_b} share a value: correlated RNG streams"
                );
            }
        }
    }

    #[test]
    fn registry_lists_every_const() {
        // Guards against adding a const without registering it.
        let names: Vec<&str> = ALL_STREAM_SALTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "FAULT_STREAM_SALT",
                "TOPOLOGY_STREAM_SALT",
                "RUN_STREAM_SALT",
                "MODEL_STREAM_SALT",
                "MODEL_RUN_STREAM_SALT",
                "SCALING_STREAM_SALT",
                "SERVE_BACKOFF_STREAM_SALT",
                "MOBILITY_STREAM_SALT",
                "SINR_STREAM_SALT",
                "CONNECTIVITY_STREAM_SALT",
            ]
        );
    }

    #[test]
    fn indexed_bases_do_not_collide_within_range() {
        // RUN/MODEL/MODEL_RUN are used as `BASE + index`; make sure the
        // reserved ranges stay disjoint for realistic index counts.
        let bases = [RUN_STREAM_SALT, MODEL_STREAM_SALT, MODEL_RUN_STREAM_SALT];
        for (name, salt) in ALL_STREAM_SALTS {
            if bases.contains(salt) {
                continue;
            }
            for base in &bases {
                assert!(
                    salt.abs_diff(*base) >= 1024,
                    "{name} ({salt:#x}) lands inside an indexed base's range"
                );
            }
        }
        const RANGE: u64 = 1024;
        for (i, a) in bases.iter().enumerate() {
            for b in &bases[i + 1..] {
                assert!(
                    a.abs_diff(*b) >= RANGE,
                    "indexed salt ranges overlap: {a:#x} vs {b:#x}"
                );
            }
        }
    }
}
