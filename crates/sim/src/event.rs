//! The discrete-event core: timestamped events with deterministic ordering.
//!
//! Every event is ordered by one integer key, `time.to_bits() << 64 | seq`
//! (`Event::key`). Event times are finite and non-negative (`-0.0` is
//! canonicalised to `+0.0` on push), and for such floats the IEEE-754 bit
//! pattern orders exactly like the value, so the key order *is* the
//! `(time, seq)` order: time ascending, then insertion sequence.
//!
//! Two interchangeable queue backends share that order: the production
//! **4-ary min-heap** (`O(log E)` per operation in the number of *pending*
//! events; keys in their own `Vec<u128>` so a sift compares four adjacent
//! integers per level without touching the payloads) and a **dense**
//! linear-scan `Vec` that re-finds the minimum on every access (`O(E)` per
//! event). The dense backend exists as the correctness oracle and
//! performance baseline for the event-driven engine: because both backends
//! draw from the same sequence counter and compare the same key, swapping
//! one for the other cannot change which event fires next — trajectories
//! are bit-identical by construction, only the cost per event differs.

use std::cmp::Ordering;

/// What happens at an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A spout executor emits its next root tuple (and schedules the one
    /// after).
    SpoutEmit {
        /// Global executor index of the spout thread.
        executor: usize,
    },
    /// A tuple arrives at an executor's input queue.
    TupleArrival {
        /// Destination executor.
        executor: usize,
        /// Root id of the tuple's tree.
        root: u64,
        /// Whether the tuple crossed machines (and must be deserialized).
        remote: bool,
    },
    /// The tuple at the head of an executor's queue finishes service.
    ServiceComplete {
        /// Executor finishing service.
        executor: usize,
        /// Root id of the serviced tuple.
        root: u64,
    },
    /// A migrated executor finishes its pause and may resume.
    MigrationDone {
        /// Executor resuming.
        executor: usize,
    },
}

/// A scheduled event. Ordering: time ascending, then insertion sequence —
/// simultaneous events fire in the order they were scheduled, which makes
/// runs bit-for-bit reproducible.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Simulated time in seconds.
    pub time: f64,
    /// Tie-breaking sequence number (assigned by [`EventQueue::push`]).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

/// The `(time, seq)` order as one integer. Valid for finite times ≥ `+0.0`.
#[inline]
fn key_of(time: f64, seq: u64) -> u128 {
    (u128::from(time.to_bits()) << 64) | u128::from(seq)
}

/// The time half of a key.
#[inline]
fn time_of(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

impl Event {
    /// This event's position in pop order: `time.to_bits() << 64 | seq`.
    #[inline]
    pub(crate) fn key(&self) -> u128 {
        key_of(self.time, self.seq)
    }

    /// The event whose key is `key`.
    #[inline]
    fn from_key(key: u128, kind: EventKind) -> Self {
        Self {
            time: time_of(key),
            seq: key as u64,
            kind,
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    /// Pop order: the earlier `(time, seq)` is the smaller event.
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Children per heap node. Four keys of 16 bytes fill one cache line, and
/// a 4-ary heap is half as deep as a binary one.
const ARITY: usize = 4;

/// A min-heap over `(key, payload)` pairs, stored as two parallel vectors.
#[derive(Debug, Default)]
struct Heap {
    keys: Vec<u128>,
    kinds: Vec<EventKind>,
}

impl Heap {
    fn push(&mut self, key: u128, kind: EventKind) {
        let mut hole = self.keys.len();
        self.keys.push(key);
        self.kinds.push(kind);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[hole] = self.keys[parent];
            self.kinds[hole] = self.kinds[parent];
            hole = parent;
        }
        self.keys[hole] = key;
        self.kinds[hole] = kind;
    }

    /// Removes the root; the caller has checked that the heap is non-empty.
    fn pop_root(&mut self) -> (u128, EventKind) {
        let top = (self.keys[0], self.kinds[0]);
        let key = self.keys.pop().expect("non-empty heap");
        let kind = self.kinds.pop().expect("non-empty heap");
        let len = self.keys.len();
        if len == 0 {
            return top;
        }
        // Sift the former last element down from the root.
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            let mut child_key = self.keys[first];
            for c in first + 1..(first + ARITY).min(len) {
                if self.keys[c] < child_key {
                    child = c;
                    child_key = self.keys[c];
                }
            }
            if key <= child_key {
                break;
            }
            self.keys[hole] = child_key;
            self.kinds[hole] = self.kinds[child];
            hole = child;
        }
        self.keys[hole] = key;
        self.kinds[hole] = kind;
        top
    }
}

/// Storage behind an [`EventQueue`]: the production 4-ary heap or the
/// dense linear-scan oracle. Both pop in identical `(time, seq)` order.
#[derive(Debug)]
enum Backend {
    /// 4-ary min-heap — `O(log E)` push/pop, the event-driven production
    /// path.
    Heap(Heap),
    /// Unordered vec — every peek/pop rescans all pending events (`O(E)`),
    /// mimicking a dense per-executor sweep. Oracle + bench baseline only.
    Dense(Vec<Event>),
}

/// Priority queue of events.
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty heap-backed queue — the production path.
    pub fn new() -> Self {
        Self {
            backend: Backend::Heap(Heap::default()),
            next_seq: 0,
        }
    }

    /// An empty dense-backed queue that rescans all pending events on every
    /// access. Same pop order as [`EventQueue::new`] by construction; used
    /// as the correctness oracle and the bench baseline.
    pub fn new_dense() -> Self {
        Self {
            backend: Backend::Dense(Vec::new()),
            next_seq: 0,
        }
    }

    /// Whether this queue uses the dense linear-scan backend.
    pub fn is_dense(&self) -> bool {
        matches!(self.backend, Backend::Dense(_))
    }

    /// Schedules `kind` at `time`. A `-0.0` time is stored as `+0.0`, so
    /// the key's bit order matches the numeric order.
    ///
    /// # Panics
    /// Panics on NaN or negative time.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        // `-0.0 + 0.0 == +0.0`; every other time is unchanged.
        let time = time + 0.0;
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(key_of(time, seq), kind),
            Backend::Dense(vec) => vec.push(Event { time, seq, kind }),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_until(f64::INFINITY)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `t_end`; `None` when the queue is empty or the next event is later.
    pub fn pop_until(&mut self, t_end: f64) -> Option<Event> {
        match &mut self.backend {
            Backend::Heap(heap) => {
                let &key = heap.keys.first()?;
                if time_of(key) > t_end {
                    return None;
                }
                let (key, kind) = heap.pop_root();
                Some(Event::from_key(key, kind))
            }
            Backend::Dense(vec) => {
                // Seqs are unique, so keys are too and the minimum is
                // deterministic.
                let idx = vec
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.key())
                    .map(|(i, _)| i)?;
                if vec[idx].time > t_end {
                    return None;
                }
                Some(vec.swap_remove(idx))
            }
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        match &self.backend {
            Backend::Heap(heap) => heap.keys.first().map(|&k| time_of(k)),
            Backend::Dense(vec) => vec.iter().min().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.keys.len(),
            Backend::Dense(vec) => vec.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pending events in pop order plus the tie-break counter —
    /// everything a snapshot needs to rebuild an identical queue.
    pub(crate) fn snapshot(&self) -> (Vec<Event>, u64) {
        let mut evs: Vec<Event> = match &self.backend {
            Backend::Heap(heap) => heap
                .keys
                .iter()
                .zip(&heap.kinds)
                .map(|(&key, &kind)| Event::from_key(key, kind))
                .collect(),
            Backend::Dense(vec) => vec.clone(),
        };
        evs.sort_unstable_by_key(Event::key);
        (evs, self.next_seq)
    }

    /// Rebuilds a queue from a snapshot. Seqs are preserved verbatim, so
    /// the restored queue pops — and tie-breaks against future pushes —
    /// exactly like the original. The caller has validated the events:
    /// finite times ≥ `+0.0`, unique seqs below `next_seq`.
    pub(crate) fn restore(dense: bool, events: Vec<Event>, next_seq: u64) -> Self {
        let backend = if dense {
            Backend::Dense(events)
        } else {
            let mut heap = Heap {
                keys: Vec::with_capacity(events.len()),
                kinds: Vec::with_capacity(events.len()),
            };
            for ev in &events {
                heap.push(ev.key(), ev.kind);
            }
            Backend::Heap(heap)
        };
        Self { backend, next_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::SpoutEmit { executor: 0 });
        q.push(1.0, EventKind::SpoutEmit { executor: 1 });
        q.push(3.0, EventKind::SpoutEmit { executor: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::SpoutEmit { executor: 7 });
        q.push(1.0, EventKind::SpoutEmit { executor: 8 });
        match (q.pop().unwrap().kind, q.pop().unwrap().kind) {
            (EventKind::SpoutEmit { executor: a }, EventKind::SpoutEmit { executor: b }) => {
                assert_eq!((a, b), (7, 8));
            }
            other => panic!("unexpected kinds {other:?}"),
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::MigrationDone { executor: 0 });
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::MigrationDone { executor: 0 });
    }

    #[test]
    fn pop_until_stops_at_the_horizon() {
        for mut q in [EventQueue::new(), EventQueue::new_dense()] {
            q.push(2.0, EventKind::SpoutEmit { executor: 0 });
            q.push(1.0, EventKind::SpoutEmit { executor: 1 });
            assert!(q.pop_until(0.5).is_none());
            assert_eq!(q.pop_until(1.0).map(|e| e.time), Some(1.0));
            assert!(q.pop_until(1.5).is_none());
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_until(f64::INFINITY).map(|e| e.time), Some(2.0));
            assert!(q.pop_until(f64::INFINITY).is_none());
        }
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        // `-0.0`'s bit pattern is larger than every positive time's; stored
        // verbatim it would pop last instead of first.
        for mut q in [EventQueue::new(), EventQueue::new_dense()] {
            q.push(1e-9, EventKind::SpoutEmit { executor: 0 });
            q.push(-0.0, EventKind::SpoutEmit { executor: 1 });
            let first = q.pop().unwrap();
            assert_eq!(first.time.to_bits(), 0.0f64.to_bits());
            assert_eq!(first.kind, EventKind::SpoutEmit { executor: 1 });
            assert_eq!(q.snapshot().0.len(), 1);
        }
    }

    #[test]
    fn dense_backend_pops_in_identical_order() {
        let mut heap = EventQueue::new();
        let mut dense = EventQueue::new_dense();
        assert!(!heap.is_dense());
        assert!(dense.is_dense());
        // Interleave pushes and pops with duplicate timestamps so both the
        // time order and the seq tie-break are exercised.
        let times = [3.0, 1.0, 1.0, 2.5, 0.5, 2.5, 2.5, 4.0, 0.5, 1.0];
        for (i, &t) in times.iter().enumerate() {
            heap.push(t, EventKind::SpoutEmit { executor: i });
            dense.push(t, EventKind::SpoutEmit { executor: i });
            if i % 3 == 2 {
                let (a, b) = (heap.pop().unwrap(), dense.pop().unwrap());
                assert_eq!((a.time, a.seq), (b.time, b.seq));
                assert_eq!(a.kind, b.kind);
            }
        }
        while let Some(a) = heap.pop() {
            assert_eq!(dense.peek_time(), Some(a.time));
            let b = dense.pop().unwrap();
            assert_eq!((a.time, a.seq), (b.time, b.seq));
            assert_eq!(a.kind, b.kind);
        }
        assert!(dense.is_empty());
    }

    /// One step of a random queue workload.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `base + offset`, where `base` is the last popped time
        /// (`offset == 0` pushes at exactly that time); offsets come from a
        /// tiny set so times repeat.
        Push { offset: u8, executor: usize },
        /// Pop everything due by `last popped + horizon`.
        PopUntil { horizon: u8 },
        /// Pop one event.
        Pop,
        /// Snapshot both queues and rebuild them from the images.
        Restore,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..6, 0usize..64).prop_map(|(offset, executor)| Op::Push { offset, executor }),
            (0u8..4).prop_map(|horizon| Op::PopUntil { horizon }),
            Just(Op::Pop),
            Just(Op::Restore),
        ]
    }

    fn kind_for(i: usize, executor: usize) -> EventKind {
        match i % 4 {
            0 => EventKind::SpoutEmit { executor },
            1 => EventKind::TupleArrival {
                executor,
                root: i as u64,
                remote: i % 8 == 1,
            },
            2 => EventKind::ServiceComplete {
                executor,
                root: i as u64,
            },
            _ => EventKind::MigrationDone { executor },
        }
    }

    /// Pops from both queues up to `t_end` and checks that they agree and
    /// that the pop follows `last` in `(time, seq)` order compared as
    /// floats. Returns whether an event was popped.
    fn pop_both(
        heap: &mut EventQueue,
        dense: &mut EventQueue,
        t_end: f64,
        last: &mut Option<(f64, u64)>,
    ) -> Result<bool, TestCaseError> {
        match (heap.pop_until(t_end), dense.pop_until(t_end)) {
            (None, None) => Ok(false),
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.time.to_bits(), b.time.to_bits());
                prop_assert_eq!(a.seq, b.seq);
                prop_assert_eq!(a.kind, b.kind);
                prop_assert!(a.time <= t_end);
                if let Some((t, seq)) = *last {
                    prop_assert!(
                        a.time > t || (a.time == t && a.seq > seq),
                        "popped ({}, {}) after ({t}, {seq})",
                        a.time,
                        a.seq
                    );
                }
                *last = Some((a.time, a.seq));
                Ok(true)
            }
            (a, b) => Err(TestCaseError::fail(format!(
                "heap popped {a:?}, dense popped {b:?}"
            ))),
        }
    }

    proptest! {
        /// The heap against the dense oracle under random interleavings of
        /// push / pop / pop-until, duplicate times, pushes at exactly the
        /// last popped time and snapshot → restore partway through: both
        /// pop the same `(time, seq, kind)` sequence, and that sequence is
        /// increasing in `(time, seq)`.
        #[test]
        fn heap_matches_dense_oracle(ops in proptest::collection::vec(op(), 1..400)) {
            let mut heap = EventQueue::new();
            let mut dense = EventQueue::new_dense();
            let mut last = None;
            for (i, op) in ops.into_iter().enumerate() {
                let now = last.map_or(0.0, |(t, _)| t);
                match op {
                    Op::Push { offset, executor } => {
                        let t = now + 0.25 * f64::from(offset);
                        heap.push(t, kind_for(i, executor));
                        dense.push(t, kind_for(i, executor));
                    }
                    Op::PopUntil { horizon } => {
                        let t_end = now + 0.25 * f64::from(horizon);
                        while pop_both(&mut heap, &mut dense, t_end, &mut last)? {}
                    }
                    Op::Pop => {
                        pop_both(&mut heap, &mut dense, f64::INFINITY, &mut last)?;
                    }
                    Op::Restore => {
                        let (heap_events, heap_seq) = heap.snapshot();
                        let (dense_events, dense_seq) = dense.snapshot();
                        prop_assert_eq!(heap_seq, dense_seq);
                        prop_assert_eq!(heap_events.len(), dense_events.len());
                        for (a, b) in heap_events.iter().zip(&dense_events) {
                            prop_assert_eq!(a.key(), b.key());
                            prop_assert_eq!(a.kind, b.kind);
                        }
                        heap = EventQueue::restore(false, heap_events, heap_seq);
                        dense = EventQueue::restore(true, dense_events, dense_seq);
                    }
                }
                prop_assert_eq!(heap.len(), dense.len());
                prop_assert_eq!(heap.peek_time(), dense.peek_time());
            }
            while pop_both(&mut heap, &mut dense, f64::INFINITY, &mut last)? {}
            prop_assert!(heap.is_empty() && dense.is_empty());
        }
    }
}
