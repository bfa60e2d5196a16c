// A wall-clock read in a deterministic crate (planted as a module of
// dirca-topology, which the root clippy.toml covers).
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
