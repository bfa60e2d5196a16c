//! A stable timestamp-ordered event queue: a monotone radix heap, for
//! event loops whose clock only moves forward (see [`EventQueue`]).

use crate::SimTime;

/// A priority queue of `(SimTime, E)` pairs that pops the earliest event
/// first and breaks timestamp ties in insertion (FIFO) order.
///
/// The FIFO tie-break matters for reproducibility: a plain binary heap pops
/// equal-timestamp events in an arbitrary order that can change with
/// unrelated code edits, silently reshuffling simulated collisions.
///
/// # Monotone contract
///
/// Every push must be at or after the timestamp of the last pop. The
/// simulation loop satisfies this by construction: [`Scheduler`] refuses
/// to schedule before its clock, and the clock reads the timestamp of the
/// event being dispatched (or a run's deadline, when the next event lies
/// beyond it) and never moves back, so nothing is pushed below an event
/// already popped. [`EventQueue::push`] checks the contract and panics on
/// a violation rather than misorder events.
///
/// # Representation
///
/// Each pending event has a unique 128-bit key `time << 64 | seq`, where
/// `seq` counts pushes, so key order is exactly `(time, FIFO)` order. Keys
/// sit in a radix heap: bucket `i` holds the keys whose highest bit that
/// differs from `last` (the key of the last pop) is bit `i - 1`, and bucket
/// 0 holds a key equal to `last`. Every key in a lower bucket is smaller
/// than every key in a higher one, so the minimum lies in the first
/// non-empty bucket, found from an occupancy bitmask. A pop moves `last`
/// to that minimum and spreads the minimum's bucket over strictly lower
/// buckets, so a key moves at most 128 times over its life, and in
/// practice a handful, because simulated deadlines cluster a short way
/// ahead of the clock. That is amortised O(1) per operation over
/// sequential bucket scans, where a binary heap walks ~log₂ n levels whose
/// bottom ones miss cache once the queue holds more than a few thousand
/// events.
///
/// Each bucket's smallest key is kept in a plain array, lowered by every
/// insert and reset when the bucket is spread, so the queue's minimum is
/// the first occupied bucket's entry: [`EventQueue::peek_time`] is two reads
/// and a pop never scans a bucket it does not spread. Only `pop` moves
/// `last`: a peek that spread a bucket would strand a later push landing
/// between the old and the new `last`.
///
/// Buckets hold fixed 24-byte `(time, seq, slot)` entries in chunks of 32
/// drawn from one pool. A pop returns each chunk it spreads to a spare
/// list, where the lower buckets pick it up, so the pool never holds more
/// than one part-filled chunk per bucket beyond the pending events' full
/// chunks, and [`EventQueue::reserve`] sizes it for that bound. An emptied
/// bucket keeps no chunk: a small queue spreads its few events over a
/// few dozen buckets, and a chunk kept in each would outweigh the events.
/// Each chunk carries the link to the next one in its list, so the pool is
/// one allocation. Payloads live in a slab indexed by a free list, so
/// spreading a bucket never moves an `E`.
///
/// [`Scheduler`]: crate::Scheduler
///
/// # Example
///
/// ```
/// use dirca_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(5), "late");
/// q.push(SimTime::from_nanos(1), "early");
/// q.push(SimTime::from_nanos(5), "late-second");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "late")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "late-second")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Bucket `i` holds the keys whose highest bit differing from `last`
    /// is bit `i - 1`; bucket 0 holds a key equal to `last`.
    buckets: [Bucket; BUCKETS],
    /// Bit `i` set iff bucket `i` is non-empty.
    occupied: [u64; 3],
    /// Key of the last pop; no pending key is below it.
    last: u128,
    /// Smallest key in each bucket, `u128::MAX` for an empty one.
    mins: [u128; BUCKETS],
    /// Bucket storage: fixed-size chunks, each in one bucket's list or in
    /// the spare list.
    chunks: Vec<Chunk>,
    /// First spare chunk, or [`NIL`].
    spare: u32,
    /// Payload storage; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Indices of free slab slots, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
}

/// One bucket per possible highest differing bit of a 128-bit key, plus
/// bucket 0 for a key equal to `last`.
const BUCKETS: usize = 129;

/// Entries per storage chunk: 768 bytes, a sequential scan's worth.
const CHUNK: usize = 32;

/// End of a chunk list.
const NIL: u32 = u32::MAX;

/// One bucket: a list of chunks, all full but the first.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The newest chunk, or [`NIL`] when the bucket is empty.
    head: u32,
    /// Entries in `head`.
    fill: usize,
}

const EMPTY: Bucket = Bucket { head: NIL, fill: 0 };

/// A run of bucket entries, linked to the next chunk in its list.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    entries: [Entry; CHUNK],
    /// The chunk after this one in its list, or [`NIL`].
    next: u32,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    seq: u64,
    slot: u32,
}

impl Entry {
    const ZERO: Entry = Entry {
        time: 0,
        seq: 0,
        slot: 0,
    };

    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

/// The bucket of `key` relative to `last` (`key >= last`).
fn bucket_of(key: u128, last: u128) -> usize {
    (128 - (key ^ last).leading_zeros()) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for at least `capacity` pending
    /// events, so a simulation with a known steady-state event population
    /// never re-grows its storage mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut queue = EventQueue {
            buckets: [EMPTY; BUCKETS],
            occupied: [0; 3],
            last: 0,
            mins: [u128::MAX; BUCKETS],
            chunks: Vec::new(),
            spare: NIL,
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        };
        queue.reserve(capacity);
        queue
    }

    /// Reserves room for at least `additional` more pending events.
    ///
    /// The chunk pool is sized for the bound in the type's docs: the
    /// pending events' full chunks plus one part-filled chunk per bucket.
    pub fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            // Keeps `new` allocation-free: the padding alone is ~100 KB.
            return;
        }
        let chunks = (self.len() + additional).div_ceil(CHUNK) + BUCKETS;
        self.chunks
            .reserve(chunks.saturating_sub(self.chunks.len()));
        self.slab.reserve(additional);
        self.free.reserve(additional);
    }

    /// Number of pending events the queue holds without reallocating:
    /// the payload slab's capacity, or the chunk pool's less one chunk
    /// per bucket, whichever is smaller.
    pub fn capacity(&self) -> usize {
        self.slab
            .capacity()
            .min(self.chunks.capacity().saturating_sub(BUCKETS) * CHUNK)
    }

    /// Inserts `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event (see the
    /// monotone contract on [`EventQueue`]), and after `u32::MAX`
    /// simultaneously pending events (the slab index width); a simulation
    /// queue that size has long since exhausted memory.
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = Entry {
            time: time.as_nanos(),
            seq: self.next_seq,
            slot: 0,
        };
        let key = entry.key();
        // `seq` is fresh, so only an earlier timestamp can sort below `last`.
        assert!(
            key >= self.last,
            "event queue is monotone: push at {time} is earlier than the last pop at {}",
            SimTime::from_nanos((self.last >> 64) as u64)
        );
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                *self
                    .slab
                    .get_mut(slot as usize)
                    .expect("free list only holds in-range slots") = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event queue slab overflow");
                self.slab.push(Some(event));
                slot
            }
        };
        self.insert(Entry { slot, ..entry });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let b = self.first_occupied()?;
        // panic-path: `first_occupied` returns a bucket index.
        let min = *self.mins.get(b).expect("bucket index in range");
        // Spread bucket `b` over the lower ones relative to the new `last`;
        // the minimum itself is the pop. (`last` only ever equals a popped
        // key and keys are unique, so bucket 0 holds a key only before the
        // first pop.)
        self.last = min;
        let mut popped = None;
        let Bucket { mut head, mut fill } = self.take(b);
        while head != NIL {
            for i in 0..fill {
                // panic-path: list links only hold in-range chunk indices,
                // and `fill` is at most `CHUNK`.
                let entry = *self
                    .chunks
                    .get(head as usize)
                    .and_then(|chunk| chunk.entries.get(i))
                    .expect("chunk in range");
                if entry.key() == min {
                    popped = Some(entry);
                } else {
                    self.insert(entry);
                }
            }
            let next = self.chunks.get(head as usize).expect("chunk in range").next;
            self.spare_chunk(head);
            head = next;
            fill = CHUNK;
        }
        // panic-path: a bucket's recorded minimum is one of its keys.
        let entry = popped.expect("the first occupied bucket holds its minimum");
        let event = self
            .slab
            .get_mut(entry.slot as usize)
            .and_then(Option::take)
            .expect("bucket entry must reference an occupied slab slot");
        self.free.push(entry.slot);
        Some((SimTime::from_nanos(entry.time), event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let b = self.first_occupied()?;
        self.mins
            .get(b)
            .map(|key| SimTime::from_nanos((key >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.first_occupied().is_none()
    }

    /// Removes all pending events; the queue then accepts pushes from
    /// time zero again.
    pub fn clear(&mut self) {
        self.buckets = [EMPTY; BUCKETS];
        self.occupied = [0; 3];
        self.last = 0;
        self.mins = [u128::MAX; BUCKETS];
        self.chunks.clear();
        self.spare = NIL;
        self.slab.clear();
        self.free.clear();
    }

    /// Files `entry` in its bucket relative to `last`.
    fn insert(&mut self, entry: Entry) {
        let key = entry.key();
        let b = bucket_of(key, self.last);
        // panic-path: `bucket_of` is at most 128, and a bucket's head is a
        // chunk in range with `fill < CHUNK` after the refill below.
        let min = self.mins.get_mut(b).expect("bucket index in range");
        *min = (*min).min(key);
        let Bucket { mut head, mut fill } = *self.buckets.get(b).expect("bucket index in range");
        if fill == 0 {
            self.mark(b, true);
        }
        if head == NIL || fill == CHUNK {
            head = self.new_chunk(head);
            fill = 0;
        }
        *self
            .chunks
            .get_mut(head as usize)
            .and_then(|chunk| chunk.entries.get_mut(fill))
            .expect("head chunk has room") = entry;
        *self.buckets.get_mut(b).expect("bucket index in range") = Bucket {
            head,
            fill: fill + 1,
        };
    }

    /// Empties bucket `b`, returning its chunk list.
    fn take(&mut self, b: usize) -> Bucket {
        self.mark(b, false);
        // panic-path: bucket indices are at most 128.
        *self.mins.get_mut(b).expect("bucket index in range") = u128::MAX;
        std::mem::replace(
            self.buckets.get_mut(b).expect("bucket index in range"),
            EMPTY,
        )
    }

    /// A chunk linked ahead of `next`: a spare one, or a new one.
    fn new_chunk(&mut self, next: u32) -> u32 {
        if self.spare == NIL {
            let chunk = u32::try_from(self.chunks.len()).expect("event queue chunk overflow");
            self.chunks.push(Chunk {
                entries: [Entry::ZERO; CHUNK],
                next,
            });
            chunk
        } else {
            let chunk = self.spare;
            // panic-path: the spare list only holds in-range chunk indices.
            let link = &mut self
                .chunks
                .get_mut(chunk as usize)
                .expect("chunk in range")
                .next;
            self.spare = std::mem::replace(link, next);
            chunk
        }
    }

    /// Returns `chunk` to the spare list.
    fn spare_chunk(&mut self, chunk: u32) {
        // panic-path: only chunk indices handed out by `new_chunk` arrive here.
        let link = &mut self
            .chunks
            .get_mut(chunk as usize)
            .expect("chunk in range")
            .next;
        *link = std::mem::replace(&mut self.spare, chunk);
    }

    /// Sets bucket `b`'s occupancy bit to `occupied`.
    fn mark(&mut self, b: usize, occupied: bool) {
        // panic-path: bucket indices are at most 128, so `b / 64` is at most 2.
        let word = self
            .occupied
            .get_mut(b / 64)
            .expect("occupancy word index is at most 2");
        if occupied {
            *word |= 1 << (b % 64);
        } else {
            *word &= !(1 << (b % 64));
        }
    }

    /// Index of the first non-empty bucket.
    fn first_occupied(&self) -> Option<usize> {
        self.occupied
            .iter()
            .enumerate()
            .find(|(_, &word)| word != 0)
            .map(|(w, word)| w * 64 + word.trailing_zeros() as usize)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[7u64, 3, 9, 1, 5] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_nanos(42), i);
        }
        for expect in 0..100 {
            assert_eq!(q.pop().unwrap().1, expect);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 'a');
        q.push(SimTime::from_nanos(20), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_nanos(15), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    #[test]
    fn push_below_the_cached_minimum_becomes_the_minimum() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 'a');
        q.push(SimTime::from_nanos(900), 'd');
        assert_eq!(q.pop().unwrap().1, 'a');
        // 900 is pending; both pushes undercut it, and a peek in between
        // must not move `last` past the second.
        q.push(SimTime::from_nanos(500), 'c');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(500)));
        q.push(SimTime::from_nanos(100), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(100)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['b', 'c', 'd']);
    }

    #[test]
    #[should_panic(expected = "event queue is monotone")]
    fn push_below_the_last_pop_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(9), ());
    }

    #[test]
    fn push_at_the_last_pop_time_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        q.push(SimTime::from_nanos(10), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 2)));
    }

    #[test]
    fn peek_len_empty_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(3), ());
        q.push(SimTime::from_nanos(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn clear_then_reuse_from_time_zero() {
        let mut q = EventQueue::new();
        for t in [5u64, 1_000, 1 << 40] {
            q.push(SimTime::from_nanos(t), t);
        }
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 1_000);
        q.clear();
        q.push(SimTime::from_nanos(7), 7);
        q.push(SimTime::ZERO, 0);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 7)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u64> = EventQueue::with_capacity(1024);
        assert!(q.is_empty());
        assert!(q.capacity() >= 1024);
    }

    #[test]
    fn reserve_grows_capacity_without_touching_contents() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(2), 'b');
        q.push(SimTime::from_nanos(1), 'a');
        q.reserve(500);
        assert!(q.capacity() >= 502);
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    #[test]
    fn preallocated_queue_never_regrows_within_capacity() {
        let mut q = EventQueue::with_capacity(100);
        let cap = q.capacity();
        for i in 0..100u64 {
            q.push(SimTime::from_nanos(i % 7), i);
        }
        assert_eq!(q.capacity(), cap, "pushes within capacity must not grow");
    }

    #[test]
    fn spreading_many_buckets_stays_within_capacity() {
        // Keys a pseudo-random distance ahead of the clock land in many
        // buckets at once, each holding a part-filled chunk.
        let mut q = EventQueue::with_capacity(300);
        let cap = q.capacity();
        assert!(cap >= 300);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |now: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now + (x >> (24 + x % 40))
        };
        for _ in 0..cap {
            q.push(SimTime::from_nanos(next(0)), ());
        }
        for _ in 0..20 * cap {
            let (now, ()) = q.pop().unwrap();
            q.push(SimTime::from_nanos(next(now.as_nanos())), ());
        }
        assert_eq!(q.len(), cap);
        assert_eq!(q.capacity(), cap, "a full queue must not grow its pool");
    }
}
