// An entropy draw in a deterministic crate (planted as a module of
// dirca-sim). The vendored `rand` has no entropy source, so this does not
// even compile.
pub fn seed() -> u64 {
    let mut r = rand::thread_rng();
    r.random()
}
