// A feature-gated hook, its no-op twin and a gated statement (dropped into
// dirca-sim's src/ for the source-rules test).
#[cfg(feature = "trace")]
pub fn set_probe(on: bool) {
    let _ = on;
}

#[cfg(not(feature = "trace"))]
pub fn set_probe(_on: bool) {}

pub fn dispatch() {
    if cfg!(feature = "trace") {
        set_probe(true);
    }
}
