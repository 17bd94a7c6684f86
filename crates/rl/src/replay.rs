//! Experience replay buffer (§2.3 / Algorithm 1 line 13–14).
//!
//! Bounded FIFO: "since the size of B is limited, the oldest sample will be
//! discarded when B is full". Uniform sampling breaks the correlation
//! between consecutive samples (the property the paper cites for stable
//! SGD training). Paper sizes: `|B| = 1000`, mini-batch `H = 32`.
//!
//! Implemented as a fixed ring over a `Vec`: a full buffer overwrites the
//! slot at `head` in place (no pop/push shuffling, no reallocation ever),
//! and the sampling path hands out *slot indices* so the training loop can
//! read transitions by reference while assembling its minibatch — zero
//! transition clones per step.
//!
//! [`ShardedReplayBuffer`] scales replay to N parallel actors feeding one
//! learner (Rapid-style): one mutex-striped ring per actor shard, so
//! concurrent pushes contend only within a shard (never across actors
//! writing their own shards), and uniform cross-shard index sampling on
//! the learner side. Its shard storage is **structure-of-arrays**: each
//! shard owns four flat slabs (states, action one-hots, rewards,
//! next-states) sized `capacity × dim`, so a push is three row `memcpy`s
//! into preowned storage — no per-transition `Vec` allocations, ever —
//! and minibatch assembly on the learner side is a strided copy from the
//! slabs into the training matrices.

use std::cell::RefCell;

use dss_nn::{Elem, Scalar};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::transition::Transition;

thread_local! {
    /// Per-shard length snapshot reused across sampling calls, keeping
    /// the learner's minibatch sampling allocation-free.
    static SHARD_LENS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Bounded uniform-replay ring buffer.
#[derive(Debug, Clone)]
pub struct ReplayBuffer<A, S: Scalar = Elem> {
    /// Ring storage; `len() < capacity` while filling, then constant.
    buf: Vec<Transition<A, S>>,
    capacity: usize,
    /// Slot holding the *oldest* transition once the ring is full
    /// (always 0 before the first wrap).
    head: usize,
}

impl<A: Clone, S: Scalar> ReplayBuffer<A, S> {
    /// A buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
        }
    }

    /// Stores a transition, overwriting the oldest slot when full.
    pub fn push(&mut self, t: Transition<A, S>) {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
        } else {
            self.buf[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The transition in ring slot `i` (`i < len()`). Slot order is
    /// arbitrary with respect to insertion age; uniform sampling over
    /// slots is uniform over stored transitions.
    pub fn get(&self, i: usize) -> &Transition<A, S> {
        &self.buf[i]
    }

    /// Uniformly samples `h` slot indices with replacement into `out`
    /// (cleared first) — the allocation-free sampling path used by the
    /// training loops: callers read each transition in place via
    /// [`ReplayBuffer::get`]. No-op when the buffer is empty.
    pub fn sample_indices_into(&self, h: usize, rng: &mut StdRng, out: &mut Vec<usize>) {
        out.clear();
        if self.buf.is_empty() {
            return;
        }
        out.extend((0..h).map(|_| rng.random_range(0..self.buf.len())));
    }

    /// Uniformly samples `h` transitions with replacement (standard DQN
    /// practice; with-replacement keeps sampling O(h) and is statistically
    /// indistinguishable for `h << len`).
    ///
    /// Returns an empty vec when the buffer is empty.
    pub fn sample(&self, h: usize, rng: &mut StdRng) -> Vec<&Transition<A, S>> {
        if self.buf.is_empty() {
            return Vec::new();
        }
        (0..h)
            .map(|_| &self.buf[rng.random_range(0..self.buf.len())])
            .collect()
    }

    /// Iterates over the stored transitions, oldest first (wrap-aware).
    pub fn iter(&self) -> impl Iterator<Item = &Transition<A, S>> {
        let (older, newer) = self.buf.split_at(self.head);
        newer.iter().chain(older)
    }

    /// Ring internals for checkpointing: the stored transitions in **slot
    /// order** (not age order) plus the head index. Slot order matters:
    /// [`ReplayBuffer::sample_indices_into`] addresses storage slots, so a
    /// bit-identical restore must reproduce the exact slot layout — merely
    /// re-pushing the FIFO contents would rotate a wrapped ring and remap
    /// every sampled index.
    pub fn ring(&self) -> (&[Transition<A, S>], usize) {
        (&self.buf, self.head)
    }

    /// Rebuilds a buffer from ring internals captured by
    /// [`ReplayBuffer::ring`]. The restored buffer's sampling and eviction
    /// behaviour continues the original's bit-for-bit. Storage holds just
    /// the given slots (a partly filled ring grows as it fills), so a
    /// corrupt `capacity` cannot reserve memory the slots do not justify.
    ///
    /// # Panics
    /// Panics on an inconsistent image: zero capacity, more slots than
    /// capacity, a nonzero head before the ring has wrapped, or a head
    /// outside the ring.
    pub fn from_ring(capacity: usize, slots: Vec<Transition<A, S>>, head: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(slots.len() <= capacity, "more slots than capacity");
        if slots.len() < capacity {
            assert_eq!(head, 0, "head must be 0 before the ring wraps");
        } else {
            assert!(head < capacity, "head outside the ring");
        }
        Self {
            buf: slots,
            capacity,
            head,
        }
    }
}

/// A slot address in a [`ShardedReplayBuffer`]: `(shard, ring slot)`.
pub type ShardSlot = (u32, u32);

/// One shard of a [`ShardedReplayBuffer`]: a bounded FIFO ring whose
/// storage is four flat structure-of-arrays slabs. Slot `i`'s state lives
/// at `states[i·state_dim .. (i+1)·state_dim]` (and likewise for the other
/// rows), so pushing copies rows into preowned storage and never allocates
/// once the ring has wrapped (the slabs grow monotonically to
/// `capacity × dim` while filling, then stay put — same growth discipline
/// as [`ReplayBuffer`]'s `Vec<Transition>`, minus the per-transition row
/// `Vec`s).
#[derive(Debug)]
struct SoaRing<S> {
    states: Vec<S>,
    actions: Vec<S>,
    rewards: Vec<S>,
    next_states: Vec<S>,
    capacity: usize,
    state_dim: usize,
    action_dim: usize,
    /// Stored transitions (`≤ capacity`).
    len: usize,
    /// Slot holding the oldest transition once full (0 before the wrap).
    head: usize,
}

impl<S: Scalar> SoaRing<S> {
    fn new(capacity: usize, state_dim: usize, action_dim: usize) -> Self {
        Self {
            states: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            next_states: Vec::new(),
            capacity,
            state_dim,
            action_dim,
            len: 0,
            head: 0,
        }
    }

    fn push_rows(&mut self, state: &[S], action: &[S], reward: S, next_state: &[S]) {
        assert_eq!(state.len(), self.state_dim, "state width");
        assert_eq!(action.len(), self.action_dim, "action width");
        assert_eq!(next_state.len(), self.state_dim, "next-state width");
        if self.len < self.capacity {
            self.states.extend_from_slice(state);
            self.actions.extend_from_slice(action);
            self.rewards.push(reward);
            self.next_states.extend_from_slice(next_state);
            self.len += 1;
        } else {
            let slot = self.head;
            let sd = self.state_dim;
            let ad = self.action_dim;
            self.states[slot * sd..(slot + 1) * sd].copy_from_slice(state);
            self.actions[slot * ad..(slot + 1) * ad].copy_from_slice(action);
            self.rewards[slot] = reward;
            self.next_states[slot * sd..(slot + 1) * sd].copy_from_slice(next_state);
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn rows(&self, slot: usize) -> (&[S], &[S], S, &[S]) {
        let sd = self.state_dim;
        let ad = self.action_dim;
        (
            &self.states[slot * sd..(slot + 1) * sd],
            &self.actions[slot * ad..(slot + 1) * ad],
            self.rewards[slot],
            &self.next_states[slot * sd..(slot + 1) * sd],
        )
    }
}

/// Mutex-striped sharded replay over structure-of-arrays shard slabs: one
/// bounded FIFO ring per actor shard.
///
/// Row widths are fixed at construction (`state_dim`, `action_dim` — the
/// actor-critic's one-hot action encoding), which is what lets the
/// storage be flat slabs instead of per-transition `Vec`s: a push is
/// three row copies into the shard's slabs through an (almost always
/// uncontended) shard lock, and the learner assembles minibatches by
/// strided copies out of the slabs via [`ShardedReplayBuffer::with_rows`].
///
/// Writers push through `&self` (each actor to its own shard); the
/// learner samples uniformly over *all* stored transitions by weighting
/// shards by their current lengths. Sampled slot addresses stay valid
/// across concurrent pushes: a ring's length never shrinks and its slots
/// are overwritten, never removed (a racing push can at worst make a
/// sampled slot refer to a *newer* transition, which is indistinguishable
/// from having sampled later).
#[derive(Debug)]
pub struct ShardedReplayBuffer<S: Scalar = Elem> {
    shards: Vec<Mutex<SoaRing<S>>>,
    shard_capacity: usize,
    state_dim: usize,
    action_dim: usize,
}

impl<S: Scalar> ShardedReplayBuffer<S> {
    /// `n_shards` rings of `shard_capacity` transitions each, storing
    /// `state_dim`-wide state rows and `action_dim`-wide action rows.
    ///
    /// # Panics
    /// Panics when `n_shards == 0` or `shard_capacity == 0`.
    pub fn new(
        n_shards: usize,
        shard_capacity: usize,
        state_dim: usize,
        action_dim: usize,
    ) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert!(shard_capacity > 0, "shard capacity must be positive");
        Self {
            shards: (0..n_shards)
                .map(|_| Mutex::new(SoaRing::new(shard_capacity, state_dim, action_dim)))
                .collect(),
            shard_capacity,
            state_dim,
            action_dim,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard ring capacity.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Width of stored state rows.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Width of stored action rows.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_capacity
    }

    /// Total stored transitions (snapshot; other threads may be pushing).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().len == 0)
    }

    /// Stored transitions in one shard.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard % self.shards.len()].lock().len
    }

    /// Stores one transition's rows in `shard` (wrapped modulo the shard
    /// count), evicting that ring's oldest transition when full. The rows
    /// are copied into the shard's slabs — the caller keeps (and reuses)
    /// its buffers, which is what makes a warm collector step
    /// allocation-free end to end.
    ///
    /// # Panics
    /// Panics when a row width does not match the buffer's dimensions.
    pub fn push_rows(&self, shard: usize, state: &[S], action: &[S], reward: S, next_state: &[S]) {
        self.shards[shard % self.shards.len()]
            .lock()
            .push_rows(state, action, reward, next_state);
    }

    /// Uniformly samples `h` slot addresses with replacement over all
    /// stored transitions — shards weighted by length, slots uniform
    /// within a shard — into `out` (cleared first). No-op when empty.
    pub fn sample_indices_into(&self, h: usize, rng: &mut StdRng, out: &mut Vec<ShardSlot>) {
        out.clear();
        SHARD_LENS.with(|lens| {
            let mut lens = lens.borrow_mut();
            lens.clear();
            lens.extend(self.shards.iter().map(|s| s.lock().len));
            let total: usize = lens.iter().sum();
            if total == 0 {
                return;
            }
            out.extend((0..h).map(|_| {
                let mut r = rng.random_range(0..total);
                let shard = lens
                    .iter()
                    .position(|&len| {
                        if r < len {
                            true
                        } else {
                            r -= len;
                            false
                        }
                    })
                    .expect("r < total");
                (shard as u32, r as u32)
            }));
        });
    }

    /// Reads the transition at `slot` in place as
    /// `(state, action, reward, next_state)` slab rows (the shard stays
    /// locked for the duration of `f` — keep it short: copy the rows you
    /// need out).
    pub fn with_rows<R>(
        &self,
        (shard, slot): ShardSlot,
        f: impl FnOnce(&[S], &[S], S, &[S]) -> R,
    ) -> R {
        let guard = self.shards[shard as usize].lock();
        let (s, a, r, n) = guard.rows(slot as usize);
        f(s, a, r, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(reward: f64) -> Transition<usize, f64> {
        Transition::new(vec![reward], 0, reward, vec![reward])
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f64));
        }
        assert_eq!(b.len(), 3);
        let rewards: Vec<f64> = b.iter().map(|x| x.reward).collect();
        assert_eq!(rewards, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn wrap_around_eviction_order_is_fifo() {
        // Capacity 4, 11 pushes: the ring wraps twice; iteration must
        // always present the 4 newest, oldest first.
        let mut b = ReplayBuffer::new(4);
        for i in 0..11usize {
            b.push(t(i as f64));
            let got: Vec<f64> = b.iter().map(|x| x.reward).collect();
            let lo = (i + 1).saturating_sub(4);
            let want: Vec<f64> = (lo..=i).map(|v| v as f64).collect();
            assert_eq!(got, want, "after push {i}");
        }
    }

    #[test]
    fn len_and_is_empty_across_the_wrap_boundary() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        for i in 0..3 {
            b.push(t(i as f64));
            assert_eq!(b.len(), i + 1);
        }
        for i in 3..10 {
            b.push(t(i as f64)); // wrapping overwrites; len pinned at cap
            assert_eq!(b.len(), 3);
            assert!(!b.is_empty());
        }
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn push_never_reallocates_after_fill() {
        let mut b = ReplayBuffer::new(8);
        for i in 0..8 {
            b.push(t(i as f64));
        }
        let ptr = b.buf.as_ptr();
        for i in 8..100 {
            b.push(t(i as f64));
        }
        assert_eq!(b.buf.as_ptr(), ptr, "ring storage moved");
    }

    #[test]
    fn sample_size_and_membership() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..10 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let s = b.sample(32, &mut rng);
        assert_eq!(s.len(), 32);
        assert!(s.iter().all(|x| (0.0..10.0).contains(&x.reward)));
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let b: ReplayBuffer<usize, f64> = ReplayBuffer::new(5);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(b.sample(4, &mut rng).is_empty());
        let mut idx = vec![1, 2, 3];
        b.sample_indices_into(4, &mut rng, &mut idx);
        assert!(idx.is_empty(), "stale indices must be cleared");
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut b = ReplayBuffer::new(4);
        for i in 0..4 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for s in b.sample(40_000, &mut rng) {
            counts[s.reward as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 40_000.0 - 0.25).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn index_sampling_is_roughly_uniform_after_wrap() {
        // Push 2.5× capacity so head sits mid-ring, then check the
        // index-based path is still uniform over live slots.
        let mut b = ReplayBuffer::new(4);
        for i in 0..10 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut idx = Vec::new();
        b.sample_indices_into(40_000, &mut rng, &mut idx);
        assert_eq!(idx.len(), 40_000);
        let mut counts = [0usize; 4];
        for &i in &idx {
            counts[i] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 40_000.0 - 0.25).abs() < 0.02, "{counts:?}");
        }
        // Every sampled slot dereferences to a live transition.
        assert!(idx.iter().all(|&i| b.get(i).reward >= 6.0));
    }

    #[test]
    fn ring_round_trip_preserves_slot_layout_and_sampling() {
        // Wrap the ring so head sits mid-buffer, snapshot, rebuild, and
        // check both representations sample identically and keep evicting
        // in the same order.
        let mut b = ReplayBuffer::new(4);
        for i in 0..10 {
            b.push(t(i as f64));
        }
        let (slots, head) = b.ring();
        assert_eq!(head, 2, "10 pushes into 4 slots leave head at 2");
        let mut restored = ReplayBuffer::from_ring(4, slots.to_vec(), head);
        // Identical slot layout → identical index-sampled transitions.
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let (mut ia, mut ib) = (Vec::new(), Vec::new());
        b.sample_indices_into(64, &mut rng_a, &mut ia);
        restored.sample_indices_into(64, &mut rng_b, &mut ib);
        assert_eq!(ia, ib);
        for &i in &ia {
            assert_eq!(b.get(i).reward, restored.get(i).reward);
        }
        // Continued pushes evict the same slots in both.
        b.push(t(99.0));
        restored.push(t(99.0));
        let got: Vec<f64> = restored.iter().map(|x| x.reward).collect();
        let want: Vec<f64> = b.iter().map(|x| x.reward).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "head must be 0")]
    fn from_ring_rejects_head_before_wrap() {
        let _ = ReplayBuffer::from_ring(4, vec![t(0.0)], 1);
    }

    /// Pushes one sharded row keyed by `id` (state/next carry the id too,
    /// so slab-row integrity is checkable end to end).
    fn push_id(buf: &ShardedReplayBuffer<f64>, shard: usize, id: f64) {
        buf.push_rows(shard, &[id, -id], &[id], id, &[id + 0.5, id - 0.5]);
    }

    #[test]
    fn sharded_rows_roundtrip_and_evict_fifo() {
        let buf: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(1, 3, 2, 1);
        assert_eq!((buf.state_dim(), buf.action_dim()), (2, 1));
        for i in 0..5 {
            push_id(&buf, 0, i as f64);
        }
        assert_eq!(buf.shard_len(0), 3);
        // Ring of 3 after 5 pushes: slots hold {3, 4, 2} (head overwrote
        // the two oldest in place); all rows stay consistent per slot.
        let mut ids: Vec<f64> = (0..3)
            .map(|slot| {
                buf.with_rows((0, slot), |s, a, r, n| {
                    assert_eq!(s, &[r, -r]);
                    assert_eq!(a, &[r]);
                    assert_eq!(n, &[r + 0.5, r - 0.5]);
                    r
                })
            })
            .collect();
        ids.sort_by(f64::total_cmp);
        assert_eq!(ids, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn sharded_push_never_allocates_after_wrap() {
        let buf: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(1, 8, 2, 1);
        for i in 0..8 {
            push_id(&buf, 0, i as f64);
        }
        let ptr = buf.shards[0].lock().states.as_ptr();
        for i in 8..100 {
            push_id(&buf, 0, i as f64);
        }
        assert_eq!(
            buf.shards[0].lock().states.as_ptr(),
            ptr,
            "slab storage moved"
        );
    }

    #[test]
    fn sharded_concurrent_pushes_lose_and_duplicate_nothing() {
        // 4 writer tasks × 500 pushes of globally unique ids into their
        // own shards, through the workpool the production collector uses.
        // Capacity is ample, so every id must be present exactly once.
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 500;
        let buf: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(WRITERS, PER_WRITER, 2, 1);
        let pool = workpool::Pool::new(WRITERS);
        pool.scope(|s| {
            let buf = &buf;
            for w in 0..WRITERS {
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        push_id(buf, w, (w * PER_WRITER + i) as f64);
                    }
                });
            }
        });
        assert_eq!(buf.len(), WRITERS * PER_WRITER);
        let mut seen = std::collections::HashSet::new();
        for shard in 0..WRITERS {
            assert_eq!(buf.shard_len(shard), PER_WRITER);
            for slot in 0..PER_WRITER {
                let id = buf.with_rows((shard as u32, slot as u32), |s, _, r, _| {
                    assert_eq!(s, &[r, -r], "torn row");
                    r as usize
                });
                assert!(seen.insert(id), "duplicated transition {id}");
            }
        }
        assert_eq!(seen.len(), WRITERS * PER_WRITER, "lost transitions");
    }

    #[test]
    fn sharded_concurrent_sampling_while_pushing_stays_valid() {
        // Readers sample while writers push: every address handed out must
        // dereference without panicking (slots never disappear), and every
        // row read must be internally consistent (no torn writes).
        let buf: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(2, 64, 2, 1);
        push_id(&buf, 0, 0.0);
        push_id(&buf, 1, 1.0);
        let pool = workpool::Pool::new(4);
        pool.scope(|s| {
            let buf = &buf;
            for w in 0..2usize {
                s.spawn(move || {
                    for i in 0..2000 {
                        push_id(buf, w, i as f64);
                    }
                });
            }
            for r in 0..2u64 {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(r);
                    let mut idx = Vec::new();
                    for _ in 0..200 {
                        buf.sample_indices_into(16, &mut rng, &mut idx);
                        for &slot in &idx {
                            buf.with_rows(slot, |s, _, r, _| {
                                assert!(r >= 0.0);
                                assert_eq!(s, &[r, -r], "torn row");
                            });
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn sharded_sampling_is_uniform_within_and_across_shards() {
        // 3 shards with unequal fill (8 / 16 / 32): cross-shard sampling
        // must weight shards by length, and a χ² test per shard must not
        // reject within-shard uniformity.
        let buf: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(3, 32, 2, 1);
        let fills = [8usize, 16, 32];
        for (shard, &fill) in fills.iter().enumerate() {
            for i in 0..fill {
                push_id(&buf, shard, i as f64);
            }
        }
        let total: usize = fills.iter().sum();
        let draws = 56_000usize;
        let mut rng = StdRng::seed_from_u64(9);
        let mut idx = Vec::new();
        buf.sample_indices_into(draws, &mut rng, &mut idx);
        assert_eq!(idx.len(), draws);

        let mut shard_counts = [0usize; 3];
        let mut slot_counts = vec![vec![0usize; 32]; 3];
        for &(shard, slot) in &idx {
            shard_counts[shard as usize] += 1;
            slot_counts[shard as usize][slot as usize] += 1;
        }
        // Across shards: proportional to fill within 3 σ.
        for (shard, &fill) in fills.iter().enumerate() {
            let p = fill as f64 / total as f64;
            let expect = draws as f64 * p;
            let sigma = (draws as f64 * p * (1.0 - p)).sqrt();
            let dev = (shard_counts[shard] as f64 - expect).abs();
            assert!(dev < 3.0 * sigma, "shard {shard}: {shard_counts:?}");
        }
        // Within each shard: Pearson χ² against uniform. 99.9th-percentile
        // critical values for df = fill − 1.
        let chi_crit = [24.32, 37.70, 61.10];
        for (shard, &fill) in fills.iter().enumerate() {
            let expect = shard_counts[shard] as f64 / fill as f64;
            let chi2: f64 = slot_counts[shard][..fill]
                .iter()
                .map(|&c| {
                    let d = c as f64 - expect;
                    d * d / expect
                })
                .sum();
            assert!(
                chi2 < chi_crit[shard],
                "shard {shard} χ² = {chi2:.1} (crit {})",
                chi_crit[shard]
            );
            // And no slot above the fill is ever produced.
            assert!(slot_counts[shard][fill..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn sharded_empty_sample_is_noop() {
        let buf: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(2, 4, 2, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut idx = vec![(7u32, 7u32)];
        buf.sample_indices_into(5, &mut rng, &mut idx);
        assert!(idx.is_empty(), "stale indices must be cleared");
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn sharded_rejects_mismatched_row_width() {
        let buf: ShardedReplayBuffer<f64> = ShardedReplayBuffer::new(1, 4, 2, 1);
        buf.push_rows(0, &[1.0], &[0.0], 0.0, &[0.0, 0.0]);
    }
}
