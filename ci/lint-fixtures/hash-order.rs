// Hash collections in an ordering-sensitive crate (planted as a module of
// dirca-net): randomized iteration order would reach the event order.
use std::collections::HashMap;

pub fn stats() -> HashMap<u32, u32> {
    HashMap::new()
}
