// A library unwrap (planted as a module of dirca-analysis).
pub fn first(v: &[u32]) -> u32 {
    v.first().copied().unwrap()
}
