// A `#[cfg(test)]` module that is not last in its file must not exempt the
// library code after it (planted as a module of dirca-net).
#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let v = vec![1u32];
        assert_eq!(v.first().copied().unwrap(), 1);
    }
}

pub fn library_code(v: &[u32]) -> u32 {
    v.first().copied().unwrap()
}
