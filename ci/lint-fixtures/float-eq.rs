// Direct float-literal equality (planted as a module of dirca-stats).
pub fn at_origin(x: f64) -> bool {
    x == 0.25
}
