//! Fixture: one build — the hook is always compiled and attached at run
//! time; feature cfgs in test scope and non-feature cfgs are exempt.
pub fn set_probe(on: bool) {
    let _ = on;
}

#[cfg(unix)]
pub fn os_only() {}

#[cfg(test)]
mod tests {
    #[cfg(feature = "trace")]
    #[test]
    fn traced() {
        super::set_probe(true);
    }
}
