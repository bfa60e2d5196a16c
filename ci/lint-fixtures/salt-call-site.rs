// A salt const outside the registry and a literal salt at a call site
// split over lines (dropped into dirca-net's src/ for the source-rules
// test).
const ROGUE_STREAM_SALT: u64 = 0xBAD;

pub fn seeds(master: u64, t: u64) -> (u64, u64) {
    let a = derive_seed(master, ROGUE_STREAM_SALT);
    let b = derive_seed(
        master,
        0xFACE + t,
    );
    (a, b)
}
