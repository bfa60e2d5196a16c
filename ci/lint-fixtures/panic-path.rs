
// Unjustified panic sites on the hot path (appended to
// crates/sim/src/queue.rs, under its module-level deny).
pub fn pop_slot(slots: &mut [Option<u32>], i: usize) -> u32 {
    let v = slots[i];
    v.expect("slot occupied")
}
