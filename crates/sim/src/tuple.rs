//! Tuple-tree tracking — the simulator's acker.
//!
//! Storm tracks each root tuple's processing tree; when every derived tuple
//! has been processed, the acker informs the spout and the *complete
//! latency* (the paper's end-to-end tuple processing time) is the duration
//! from emission to that final ack.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a root id with one multiply (Fibonacci hashing). Root ids are
/// sequential ids the engine assigns itself (a restored image's too: they
/// were the saving engine's), so there is no chosen key set to defend
/// against and SipHash's cost buys nothing. The odd multiplier maps
/// consecutive ids to distinct low bits (the bucket index) and mixes them
/// into the high bits (the control byte).
#[derive(Debug, Default, Clone, Copy)]
struct RootHasher(u64);

impl Hasher for RootHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Outcome of completing one tuple-tree node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AckOutcome {
    /// The tree still has pending tuples.
    Pending,
    /// The whole tree finished; the root's emit time is returned.
    Completed {
        /// Simulated emit time (seconds) of the root tuple.
        emitted_at: f64,
    },
    /// The id was unknown (already failed/completed).
    Unknown,
}

/// Tracks pending tuple counts per root tuple. The map's iteration order
/// is never observed: snapshots sort by root.
#[derive(Debug, Default)]
pub struct TupleTracker {
    pending: HashMap<u64, TreeState, BuildHasherDefault<RootHasher>>,
    next_root: u64,
    completed: u64,
    failed: u64,
}

#[derive(Debug, Clone, Copy)]
struct TreeState {
    emitted_at: f64,
    outstanding: u64,
}

impl TupleTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new root tuple emitted at `now`; returns its root id.
    /// The root itself counts as one outstanding tuple.
    pub fn emit_root(&mut self, now: f64) -> u64 {
        let id = self.next_root;
        self.next_root += 1;
        self.pending.insert(
            id,
            TreeState {
                emitted_at: now,
                outstanding: 1,
            },
        );
        id
    }

    /// Records that one tuple of tree `root` was processed, spawning
    /// `children` derived tuples.
    pub fn complete_one(&mut self, root: u64, children: u64) -> AckOutcome {
        let Some(state) = self.pending.get_mut(&root) else {
            return AckOutcome::Unknown;
        };
        state.outstanding = state.outstanding - 1 + children;
        if state.outstanding == 0 {
            let emitted_at = state.emitted_at;
            self.pending.remove(&root);
            self.completed += 1;
            AckOutcome::Completed { emitted_at }
        } else {
            AckOutcome::Pending
        }
    }

    /// Fails an entire tree (queue overflow / timeout path). The tuple would
    /// be replayed by the spout in Storm; the simulator counts the failure
    /// and drops the tree.
    pub fn fail_tree(&mut self, root: u64) {
        if self.pending.remove(&root).is_some() {
            self.failed += 1;
        }
    }

    /// Trees still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Roots emitted so far.
    pub fn emitted(&self) -> u64 {
        self.next_root
    }

    /// Fully acked trees.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Failed (dropped) trees.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Pending trees as `(root, emitted_at, outstanding)` sorted by root,
    /// plus the counters — a deterministic serialization order for
    /// snapshots (HashMap iteration order is not stable across processes).
    pub(crate) fn snapshot(&self) -> (Vec<(u64, f64, u64)>, u64, u64, u64) {
        let mut pending: Vec<(u64, f64, u64)> = self
            .pending
            .iter()
            .map(|(&root, s)| (root, s.emitted_at, s.outstanding))
            .collect();
        pending.sort_unstable_by_key(|&(root, _, _)| root);
        (pending, self.next_root, self.completed, self.failed)
    }

    /// Rebuilds a tracker from a snapshot.
    pub(crate) fn restore(
        pending: Vec<(u64, f64, u64)>,
        next_root: u64,
        completed: u64,
        failed: u64,
    ) -> Self {
        Self {
            pending: pending
                .into_iter()
                .map(|(root, emitted_at, outstanding)| {
                    (
                        root,
                        TreeState {
                            emitted_at,
                            outstanding,
                        },
                    )
                })
                .collect(),
            next_root,
            completed,
            failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_completes() {
        let mut t = TupleTracker::new();
        let root = t.emit_root(1.0);
        // Spout tuple processed, one child emitted.
        assert_eq!(t.complete_one(root, 1), AckOutcome::Pending);
        // Child processed, no grandchildren: tree completes.
        assert_eq!(
            t.complete_one(root, 0),
            AckOutcome::Completed { emitted_at: 1.0 }
        );
        assert_eq!(t.completed(), 1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn fanout_requires_all_branches() {
        let mut t = TupleTracker::new();
        let root = t.emit_root(0.0);
        assert_eq!(t.complete_one(root, 3), AckOutcome::Pending);
        assert_eq!(t.complete_one(root, 0), AckOutcome::Pending);
        assert_eq!(t.complete_one(root, 0), AckOutcome::Pending);
        assert!(matches!(
            t.complete_one(root, 0),
            AckOutcome::Completed { .. }
        ));
    }

    #[test]
    fn filtered_tuple_completes_immediately() {
        let mut t = TupleTracker::new();
        let root = t.emit_root(2.5);
        // Filter drops the tuple: zero children at the first hop.
        assert_eq!(
            t.complete_one(root, 0),
            AckOutcome::Completed { emitted_at: 2.5 }
        );
    }

    #[test]
    fn failure_accounting() {
        let mut t = TupleTracker::new();
        let a = t.emit_root(0.0);
        let _b = t.emit_root(0.1);
        t.fail_tree(a);
        assert_eq!(t.failed(), 1);
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.complete_one(a, 0), AckOutcome::Unknown);
        assert_eq!(t.emitted(), 2);
    }

    #[test]
    fn conservation_emitted_equals_completed_plus_failed_plus_inflight() {
        let mut t = TupleTracker::new();
        let ids: Vec<u64> = (0..10).map(|i| t.emit_root(i as f64)).collect();
        for &id in &ids[..4] {
            t.complete_one(id, 0);
        }
        for &id in &ids[4..6] {
            t.fail_tree(id);
        }
        assert_eq!(
            t.emitted(),
            t.completed() + t.failed() + t.in_flight() as u64
        );
    }
}
