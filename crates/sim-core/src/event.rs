//! The event queue: a time-ordered priority queue with stable FIFO
//! ordering among events scheduled for the same instant.
//!
//! Implemented as an implicit 4-ary min-heap over packed
//! `(time, lane, seq)` keys. The key array is dense (`u128` per entry:
//! firing time in the high 64 bits, a 16-bit ordering lane at bits
//! 48..64, and a 48-bit schedule sequence number in the low bits), so
//! one comparison orders time, lane and FIFO tie-break together, and
//! the four children of a node share a cache line. Payloads live in a
//! parallel array moved in lockstep, keeping the comparison-heavy sift
//! loops off the (often large) event type. A 4-ary layout halves tree
//! depth versus a binary heap, which is where the sift time goes on
//! deep queues.
//!
//! The lane exists for sharded parallel simulation: events injected
//! from another shard carry `lane = source shard + 1`, so simultaneous
//! cross-shard arrivals order by source shard first and per-source
//! sequence second — a total order independent of thread scheduling.
//! Plain [`EventQueue::schedule`] uses lane 0, which contributes
//! nothing to the key, so single-shard runs keep the exact key values
//! (and pop sequence) of the pre-lane format.

use crate::time::SimTime;

/// An event together with the instant it fires at.
///
/// Returned by [`EventQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub event: E,
}

const ARITY: usize = 4;

/// Bits of the packed key holding the FIFO sequence number.
const SEQ_BITS: u32 = 48;
/// Mask isolating the sequence lane of a packed key's low 64 bits.
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

#[inline]
fn pack(at: SimTime, lane: u16, seq: u64) -> u128 {
    debug_assert!(seq <= SEQ_MASK, "sequence lane overflow");
    (u128::from(at.as_nanos()) << 64) | (u128::from(lane) << SEQ_BITS) | u128::from(seq)
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// A deterministic event queue.
///
/// Events scheduled for the same [`SimTime`] pop in the order they were
/// scheduled, which keeps simulations reproducible regardless of heap
/// internals: the packed key gives every entry a unique total order, so
/// the pop sequence is a pure function of the schedule history.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_micros(2), "late");
/// queue.schedule(SimTime::from_micros(1), "early");
/// assert_eq!(queue.pop().unwrap().event, "early");
/// assert_eq!(queue.pop().unwrap().event, "late");
/// assert!(queue.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Heap-ordered packed `(time << 64) | seq` keys.
    keys: Vec<u128>,
    /// Payloads, parallel to `keys`.
    events: Vec<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            keys: Vec::with_capacity(capacity),
            events: Vec::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at` (ordering lane 0).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_in_lane(at, 0, event);
    }

    /// Schedules `event` at instant `at` in ordering lane `lane`.
    ///
    /// Among events firing at the same instant, lower lanes pop first,
    /// and within a lane the FIFO schedule order applies. Sharded
    /// simulation uses lane `source shard + 1` for injected cross-shard
    /// messages so that simultaneous arrivals from different shards
    /// take a total order that no thread interleaving can perturb;
    /// everything else stays in lane 0.
    #[inline]
    pub fn schedule_in_lane(&mut self, at: SimTime, lane: u16, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys.push(pack(at, lane, seq));
        self.events.push(event);
        self.sift_up(self.keys.len() - 1);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let len = self.keys.len();
        if len <= 1 {
            // Near-empty queues are the steady state of chain-style
            // simulations; skip the swap-and-sift machinery entirely.
            let key = self.keys.pop()?;
            let event = self.events.pop().expect("keys and events stay parallel");
            return Some(ScheduledEvent {
                at: unpack_time(key),
                event,
            });
        }
        let key = self.keys[0];
        let moved = self.keys.pop().expect("checked non-empty");
        self.keys[0] = moved;
        let event = self.events.swap_remove(0);
        self.sift_down(0);
        Some(ScheduledEvent {
            at: unpack_time(key),
            event,
        })
    }

    /// Pops the earliest event only if it fires at or before `horizon` —
    /// one root comparison instead of a separate peek and pop.
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let root = *self.keys.first()?;
        if (root >> 64) as u64 > horizon.as_nanos() {
            return None;
        }
        self.pop()
    }

    /// The firing instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&key| unpack_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.events.clear();
    }

    /// The raw heap slots for checkpointing: packed keys, parallel
    /// payloads and the schedule counter, in verbatim slot order.
    ///
    /// Restoring via [`EventQueue::restore_slots`] reproduces the exact
    /// internal layout, so the pop sequence — including FIFO tie-breaks
    /// and every subsequent sift — continues bit-identically to the
    /// snapshotted queue.
    pub fn snapshot_slots(&self) -> (&[u128], &[E], u64) {
        (&self.keys, &self.events, self.next_seq)
    }

    /// Overwrites this queue with raw slots captured by
    /// [`EventQueue::snapshot_slots`]. The slices must be restored
    /// verbatim (same order), not re-sorted: the heap property is a
    /// function of the insertion history that produced them.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `events` differ in length, or if `next_seq`
    /// is not beyond every restored sequence number — either would
    /// corrupt the queue's determinism contract.
    pub fn restore_slots(&mut self, keys: Vec<u128>, events: Vec<E>, next_seq: u64) {
        assert_eq!(keys.len(), events.len(), "keys and events stay parallel");
        assert!(
            keys.iter().all(|&k| (k & u128::from(SEQ_MASK)) < u128::from(next_seq)),
            "next_seq must exceed every restored sequence number"
        );
        self.keys = keys;
        self.events = events;
        self.next_seq = next_seq;
    }

    // Both sifts move the travelling key through a "hole" — one store
    // per level instead of a three-move swap — and cache the keys they
    // compare so each level does the minimum number of `u128` loads.
    // The comparison sequence (and therefore the final heap layout) is
    // identical to the textbook swap formulation.

    fn sift_up(&mut self, mut idx: usize) {
        let key = self.keys[idx];
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            let parent_key = self.keys[parent];
            if parent_key <= key {
                break;
            }
            self.keys[idx] = parent_key;
            self.events.swap(idx, parent);
            idx = parent;
        }
        self.keys[idx] = key;
    }

    fn sift_down(&mut self, mut idx: usize) {
        let len = self.keys.len();
        let key = self.keys[idx];
        loop {
            let first = idx * ARITY + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut min = first;
            let mut min_key = self.keys[first];
            for child in first + 1..last {
                let child_key = self.keys[child];
                if child_key < min_key {
                    min = child;
                    min_key = child_key;
                }
            }
            if key <= min_key {
                break;
            }
            self.keys[idx] = min_key;
            self.events.swap(idx, min);
            idx = min;
        }
        self.keys[idx] = key;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.keys.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.pop().unwrap().at, SimTime::from_nanos(7));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_seq, 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(30), "c");
        assert_eq!(q.pop().unwrap().event, "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "early");
        q.schedule(SimTime::from_nanos(30), "late");
        let hit = q.pop_at_or_before(SimTime::from_nanos(10)).unwrap();
        assert_eq!(hit.event, "early");
        assert!(q.pop_at_or_before(SimTime::from_nanos(20)).is_none());
        assert_eq!(q.len(), 1, "miss must not remove the event");
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(30)).unwrap().event, "late");
    }

    #[test]
    fn large_shuffled_load_pops_sorted() {
        // Deterministic pseudo-shuffle exercising multi-level sifts.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut expect: Vec<u64> = Vec::new();
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 1_000; // dense collisions to stress FIFO ordering
            q.schedule(SimTime::from_nanos(t), (t, i));
            expect.push((t << 32) | i);
        }
        expect.sort_unstable();
        let mut popped = Vec::new();
        let mut last = (SimTime::ZERO, 0u64);
        while let Some(s) = q.pop() {
            let (t, i) = s.event;
            assert_eq!(s.at, SimTime::from_nanos(t));
            assert!((s.at, i) >= last, "order regressed at {t}/{i}");
            last = (s.at, i);
            popped.push((t << 32) | i);
        }
        assert_eq!(popped, expect);
    }

    #[test]
    fn restored_slots_pop_identically() {
        // Build a queue with collisions mid-flight, snapshot it, and
        // check the restored queue's pop sequence (and the sequence
        // numbers of later schedules) match the original exactly.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_nanos(x % 64), i);
        }
        for _ in 0..123 {
            q.pop();
        }
        let (keys, events, next_seq) = q.snapshot_slots();
        let mut restored = EventQueue::new();
        restored.restore_slots(keys.to_vec(), events.to_vec(), next_seq);
        // Interleave further schedules with pops on both queues.
        for i in 0..50u64 {
            q.schedule(SimTime::from_nanos(i % 8), 1_000 + i);
            restored.schedule(SimTime::from_nanos(i % 8), 1_000 + i);
        }
        loop {
            match (q.pop(), restored.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
        assert_eq!(q.next_seq, restored.next_seq);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn restore_slots_rejects_length_mismatch() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.restore_slots(vec![0u128], vec![], 1);
    }

    #[test]
    fn lanes_order_simultaneous_events_by_lane_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        q.schedule_in_lane(t, 2, "lane2-first");
        q.schedule_in_lane(t, 1, "lane1-first");
        q.schedule(t, "lane0");
        q.schedule_in_lane(t, 1, "lane1-second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["lane0", "lane1-first", "lane1-second", "lane2-first"]);
    }

    #[test]
    fn lane_zero_keys_match_legacy_packing() {
        // `schedule` must keep producing the pre-lane key layout so
        // existing snapshots and golden seeds stay bit-identical.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(7), ());
        let (keys, _, _) = q.snapshot_slots();
        assert_eq!(keys[0], (7u128 << 64));
        assert!(keys.contains(&((7u128 << 64) | 1)));
    }

    #[test]
    fn lane_beats_sequence_at_same_instant() {
        // An earlier-scheduled high-lane event still pops after a
        // later-scheduled low-lane event at the same instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        q.schedule_in_lane(t, 5, "high");
        for _ in 0..100 {
            q.schedule_in_lane(t, 1, "low");
        }
        assert_eq!(q.pop().unwrap().event, "low");
        let mut last = "";
        while let Some(s) = q.pop() {
            last = s.event;
        }
        assert_eq!(last, "high");
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
