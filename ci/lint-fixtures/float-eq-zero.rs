// Exact comparison with a float zero, which clippy's `float_cmp` exempts
// (dropped into dirca-stats's src/ for the source-rules test).
pub fn is_idle(load: f64) -> bool {
    load == 0.0
}
