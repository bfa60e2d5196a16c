//! The golden batteries' shared recipe: the seeded random ring, the frame
//! log rebuilt from the recorder's `FrameTx` records, and the FNV-1a digest
//! of that log's Debug form.

// Each battery uses its own subset of the recipe.
#![allow(dead_code)]

use dirca_mac::{Frame, Scheme};
use dirca_net::trace::{run_traced, RingTrace, TraceRecord};
use dirca_net::{NetWorld, SimConfig};
use dirca_sim::rng::stream_rng;
use dirca_sim::{SimDuration, SimTime};
use dirca_topology::{RingSpec, Topology};

/// One transmitted frame. The golden hashes digest the Debug form of a
/// slice of these, so the type name and its fields, in this order, are part
/// of every recorded constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    pub time: SimTime,
    pub frame: Frame,
    pub directional: bool,
}

/// Recorder capacity for a golden run: none of them wraps it.
pub const CAPACITY: usize = 1 << 16;

/// End of a golden ring run.
pub const END: SimTime = SimTime::from_millis(400);

pub fn recorder() -> RingTrace {
    RingTrace::with_capacity(CAPACITY)
}

/// Every record `ring` took, which must not have wrapped: a log missing
/// its head would differ for a reason unrelated to the run.
pub fn ring_records(ring: &RingTrace) -> Vec<TraceRecord> {
    assert_eq!(ring.overwritten(), 0, "the recorder wrapped");
    ring.iter().copied().collect()
}

pub fn world_records(world: &NetWorld) -> Vec<TraceRecord> {
    ring_records(world.recorder().expect("recorder attached"))
}

/// The frame log held in `records`, oldest first.
pub fn frame_log(records: &[TraceRecord]) -> Vec<TraceEntry> {
    let entry = |r: &TraceRecord| {
        let (frame, directional) = r.frame_tx()?;
        let time = r.time;
        Some(TraceEntry {
            time,
            frame,
            directional,
        })
    };
    records.iter().filter_map(entry).collect()
}

pub fn world_log(world: &NetWorld) -> Vec<TraceEntry> {
    frame_log(&world_records(world))
}

/// FNV-1a over the Debug form of `log`: the golden digest.
pub fn hash(log: &[TraceEntry]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{log:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The golden ring of `seed`.
pub fn ring_topology(seed: u64) -> Topology {
    let mut topo_rng = stream_rng(seed, 0xA11CE);
    let spec = RingSpec::paper(5, 1.0);
    spec.generate(&mut topo_rng).expect("ring topology")
}

/// The golden configuration: `scheme` at θ = 30° under `seed`, run with
/// no warm-up for the golden run's 400 ms.
pub fn ring_config(scheme: Scheme, seed: u64) -> SimConfig {
    SimConfig::new(scheme)
        .with_seed(seed)
        .with_beamwidth_degrees(30.0)
        .with_warmup(SimDuration::ZERO)
        .with_measure(END - SimTime::ZERO)
}

/// The golden hash of the ring run of `scheme` under `seed`, with `mutate`
/// applied to the configuration.
pub fn ring_hash(scheme: Scheme, seed: u64, mutate: impl Fn(SimConfig) -> SimConfig) -> u64 {
    let config = mutate(ring_config(scheme, seed));
    let (_, ring) = run_traced(&ring_topology(seed), &config, CAPACITY);
    hash(&frame_log(&ring_records(&ring)))
}
