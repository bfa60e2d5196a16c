//! A preallocated ring buffer of trace records.

use crate::record::TraceRecord;

/// A bounded trace: the last `capacity` records of a run, oldest first.
///
/// Storage is allocated once up front; recording never allocates. When the
/// buffer is full the oldest record is overwritten and
/// [`RingTrace::overwritten`] counts the loss, so a truncated trace is
/// detectable rather than silent: the grid trace export writes the count
/// into each cell's `METRICS` payload as `records_overwritten`.
#[derive(Debug, Clone)]
pub struct RingTrace {
    buf: Vec<TraceRecord>,
    /// Index of the oldest record once the buffer has wrapped.
    start: usize,
    cap: usize,
    overwritten: u64,
}

impl RingTrace {
    /// Creates an empty trace holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "RingTrace capacity must be non-zero");
        RingTrace {
            buf: Vec::with_capacity(capacity),
            start: 0,
            cap: capacity,
            overwritten: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else {
            if let Some(slot) = self.buf.get_mut(self.start) {
                *slot = record;
            }
            self.start = (self.start + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many records were lost to wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Iterates records oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        let (tail, head) = self.buf.split_at(self.start.min(self.buf.len()));
        head.iter().chain(tail.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;
    use dirca_radio::NodeId;
    use dirca_sim::SimTime;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(i),
            node: NodeId(i as usize % 4),
            kind: RecordKind::BackoffDraw {
                cw: 31,
                slots: i as u32 % 32,
            },
        }
    }

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut ring = RingTrace::with_capacity(4);
        for i in 0..6 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.overwritten(), 2);
        let times: Vec<u64> = ring.iter().map(|r| r.time.as_nanos()).collect();
        assert_eq!(times, vec![2, 3, 4, 5]);
    }

    #[test]
    fn unwrapped_iteration_is_in_order() {
        let mut ring = RingTrace::with_capacity(8);
        for i in 0..5 {
            ring.push(rec(i));
        }
        assert_eq!(ring.overwritten(), 0);
        let times: Vec<u64> = ring.iter().map(|r| r.time.as_nanos()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = RingTrace::with_capacity(0);
    }
}
