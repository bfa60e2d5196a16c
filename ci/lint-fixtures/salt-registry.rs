
// A salt const missing from ALL_STREAM_SALTS, duplicating
// TOPOLOGY_STREAM_SALT (appended to crates/net/src/salts.rs).
/// A second stream on the topology stream's salt.
pub const BETA_STREAM_SALT: u64 = 0xA11CE;
