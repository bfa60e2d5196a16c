// A bare `#[allow]` and a stale `#[expect]` (planted as a module of
// dirca-net).
#[allow(dead_code)]
fn unused() {}

#[expect(clippy::unwrap_used, reason = "nothing here unwraps")]
pub fn fine() {}
