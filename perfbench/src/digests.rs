//! Output digests recorded for pinned seeds.
//!
//! Each entry is the FNV-1a digest of the first pass's simulated outputs
//! (see `sim::digest` and `serve::pass_work`) for one workload and seed.
//! A run on a listed seed that produces another digest fails its
//! correctness check; other seeds are checked against the library's own
//! entry points only. Regenerate an entry from the `output_digest` field
//! of a run's metadata line, and only when the simulated behaviour is
//! meant to change.

use crate::Workload;

const RECORDED: &[(Workload, u64, u64)] = &[
    (Workload::PaperGrid, 0, 0x8d426c4391e2dc74),
    (Workload::PaperGrid, 1, 0xa0860b2d6f646338),
    (Workload::PaperGrid, 2, 0x81036ba9f0929705),
    (Workload::PaperGrid, 3, 0x9049bf2a2aea40b9),
    (Workload::PaperGrid, 4, 0x419eb7c2b70a78ed),
    (Workload::PaperGrid, 5, 0xc6d0612c0667fb1c),
    (Workload::PaperGrid, 6, 0xbda1646d66dea65b),
    (Workload::PaperGrid, 7, 0x4e37a0ec6c984ad2),
    (Workload::PaperGrid, 8, 0xc9b101ba1ec17de6),
    (Workload::PaperGrid, 9, 0xba942d5d4bf5a12d),
    (Workload::PaperGrid, 10, 0x9144335de58b5038),
    (Workload::PaperGrid, 11, 0x6f5798eb16744bfe),
    (Workload::PaperGrid, 12, 0x48fc86ac00844687),
    (Workload::PaperGrid, 13, 0x73737acdb9829483),
    (Workload::PaperGrid, 14, 0xeea3727781115025),
    (Workload::PaperGrid, 15, 0x75c3e388b09a1f6a),
    (Workload::PaperGrid, 16, 0x45549a1fe4f95990),
    (Workload::PaperGrid, 17, 0xce0fe7d061a419eb),
    (Workload::PaperGrid, 18, 0xcbb4dc5c279dc345),
    (Workload::PaperGrid, 19, 0x702a71d2358350b2),
    (Workload::PaperGrid, 20, 0x16f9764781367ccd),
    (Workload::Field100k, 0, 0x1aeddca1fce32dee),
    (Workload::Field100k, 1, 0xf8abedb291cf90e6),
    (Workload::Field100k, 2, 0xb9cbddf368830d8a),
    (Workload::Field100k, 3, 0xaefd6cc44263dfef),
    (Workload::Field100k, 4, 0x6f96aa757220ede7),
    (Workload::Field100k, 5, 0x6a67169d8b16f7ed),
    (Workload::Field100k, 6, 0x09a35d3a673e1694),
    (Workload::Field100k, 7, 0x19b0e88efb272c59),
    (Workload::Field100k, 8, 0x9ede06313883168d),
    (Workload::Field100k, 9, 0x968cfeb9e673c02e),
    (Workload::Field100k, 10, 0xab4fd8db07a1cd98),
    (Workload::Field100k, 11, 0xbe8d26b37a9464ec),
    (Workload::Field100k, 12, 0x648d67eb279995e1),
    (Workload::Field100k, 13, 0x86179f5b349bc01f),
    (Workload::Field100k, 14, 0x77dad2a7a56fc53f),
    (Workload::Field100k, 15, 0xaf28db53f57901d3),
    (Workload::Field100k, 16, 0x280b4420e42da71f),
    (Workload::Field100k, 17, 0xa7bae8864b986839),
    (Workload::Field100k, 18, 0xac64be8fbe00ed9e),
    (Workload::Field100k, 19, 0xe9613965c168f480),
    (Workload::Field100k, 20, 0x56c93bd94affc6e7),
    (Workload::MobileSinr500, 0, 0xd3571a3a0eaa2496),
    (Workload::MobileSinr500, 1, 0xc49ffbaa67224691),
    (Workload::MobileSinr500, 2, 0x61ee7be452b815bf),
    (Workload::MobileSinr500, 3, 0xb41ff6710f2cb023),
    (Workload::MobileSinr500, 4, 0x559c5d83e4acf588),
    (Workload::MobileSinr500, 5, 0xc23747f2c46970ff),
    (Workload::MobileSinr500, 6, 0x7e69f6ce7bf79dea),
    (Workload::MobileSinr500, 7, 0xdd5c733e4a7e2f81),
    (Workload::MobileSinr500, 8, 0xeb75a05a756b1ea0),
    (Workload::MobileSinr500, 9, 0x2b24b84a847d7c99),
    (Workload::MobileSinr500, 10, 0x568773d0785b8e1c),
    (Workload::MobileSinr500, 11, 0x4a23bb1dbc73fc7e),
    (Workload::MobileSinr500, 12, 0x266b4707bff205d8),
    (Workload::MobileSinr500, 13, 0x15664c9e761906ae),
    (Workload::MobileSinr500, 14, 0x6445f4617bebb2b3),
    (Workload::MobileSinr500, 15, 0x29fd60524ee5fc43),
    (Workload::MobileSinr500, 16, 0xa9243018e1ae705c),
    (Workload::MobileSinr500, 17, 0xf2c0acee95ca435c),
    (Workload::MobileSinr500, 18, 0x4537adfedb2f3325),
    (Workload::MobileSinr500, 19, 0x0aeeef0ef37cc7fd),
    (Workload::MobileSinr500, 20, 0xa1328d1c54e77e09),
    (Workload::ServeMixed, 0, 0x539d685ade8db647),
    (Workload::ServeMixed, 1, 0x3ef988eb73899746),
    (Workload::ServeMixed, 2, 0xab512902ecd67b28),
    (Workload::ServeMixed, 3, 0xe1363927de656ecb),
    (Workload::ServeMixed, 4, 0x60dd609b498993bf),
    (Workload::ServeMixed, 5, 0xc0983becae66d963),
    (Workload::ServeMixed, 6, 0x99da9a99a19adc08),
    (Workload::ServeMixed, 7, 0x00f2f9d2ca4207e5),
    (Workload::ServeMixed, 8, 0x32f0c8be6e581fa4),
    (Workload::ServeMixed, 9, 0x82dedb5f09fbfa6d),
    (Workload::ServeMixed, 10, 0x12005b89e61310fe),
    (Workload::ServeMixed, 11, 0x40b70cf7ae81491b),
    (Workload::ServeMixed, 12, 0xe145fc3ff8a7720c),
    (Workload::ServeMixed, 13, 0xac471914300b698e),
    (Workload::ServeMixed, 14, 0xd22daa367b8ae82a),
    (Workload::ServeMixed, 15, 0x448ffcff9876ec4c),
    (Workload::ServeMixed, 16, 0x05719246798aa932),
    (Workload::ServeMixed, 17, 0x57a3b1a3736b97df),
    (Workload::ServeMixed, 18, 0x06d397d83ec96c3b),
    (Workload::ServeMixed, 19, 0xefbc53e112978ccf),
    (Workload::ServeMixed, 20, 0x149b79bd8d18f0a0),
];

/// The recorded digest of `workload` under `seed`, if any.
pub fn recorded(workload: Workload, seed: u64) -> Option<u64> {
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}
