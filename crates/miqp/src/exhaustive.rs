//! Test oracles for [`crate::kbest`]: brute-force enumeration over all
//! `M^N` actions (guarded against use on anything large), and the sorted
//! K-best fold, the bit-exact oracle.

use crate::cost::CostMatrix;
use crate::{Scalar, Solution};

/// All assignments sorted by ascending cost (ties broken lexicographically
/// by choice), truncated to `k`.
///
/// # Panics
/// Panics when `M^N > 1_000_000` (this is a test oracle, not a solver) or
/// `k == 0`.
pub(crate) fn brute_force_k_best<S: Scalar>(costs: &CostMatrix<S>, k: usize) -> Vec<Solution<S>> {
    assert!(k > 0, "k must be positive");
    let space = (costs.m() as f64).powi(costs.n() as i32);
    assert!(
        space <= 1_000_000.0,
        "action space too large for brute force: {space}"
    );
    let mut all: Vec<Solution<S>> = Vec::with_capacity(space as usize);
    let mut choice = vec![0usize; costs.n()];
    loop {
        all.push(Solution {
            cost: costs.total(&choice),
            choice: choice.clone(),
        });
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == costs.n() {
                all.sort_by(|a, b| {
                    a.cost
                        .partial_cmp(&b.cost)
                        .expect("NaN cost")
                        .then_with(|| a.choice.cmp(&b.choice))
                });
                all.truncate(k);
                return all;
            }
            choice[i] += 1;
            if choice[i] < costs.m() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// The K-best fold as it ran before the deviation fold replaced it — every
/// row fully sorted, every surviving prefix copied, a binary heap over the
/// merge frontier — kept as the exact oracle
/// [`crate::kbest::k_best_assignments`] must reproduce bit for bit.
pub(crate) fn sorted_fold_k_best<S: Scalar>(costs: &CostMatrix<S>, k: usize) -> Vec<Solution<S>> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// A frontier cell, ordered so the max-heap pops the smallest
    /// `(cost, partial_idx, rank)` first.
    struct Frontier<T> {
        cost: T,
        partial_idx: usize,
        rank: usize,
    }
    impl<T: Scalar> PartialEq for Frontier<T> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl<T: Scalar> Eq for Frontier<T> {}
    impl<T: Scalar> PartialOrd for Frontier<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T: Scalar> Ord for Frontier<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .cost
                .partial_cmp(&self.cost)
                .expect("NaN cost")
                .then_with(|| other.partial_idx.cmp(&self.partial_idx))
                .then_with(|| other.rank.cmp(&self.rank))
        }
    }

    let mut partials = vec![Solution {
        cost: S::ZERO,
        choice: Vec::new(),
    }];
    for (i, order) in costs.sorted_columns().iter().enumerate() {
        let mut heap = BinaryHeap::new();
        heap.push(Frontier {
            cost: partials[0].cost + costs.cost(i, order[0]),
            partial_idx: 0,
            rank: 0,
        });
        let mut next = Vec::with_capacity(k);
        while next.len() < k {
            let Some(top) = heap.pop() else { break };
            let mut choice = partials[top.partial_idx].choice.clone();
            choice.push(order[top.rank]);
            next.push(Solution {
                cost: top.cost,
                choice,
            });
            if top.rank + 1 < costs.m() {
                heap.push(Frontier {
                    cost: partials[top.partial_idx].cost + costs.cost(i, order[top.rank + 1]),
                    partial_idx: top.partial_idx,
                    rank: top.rank + 1,
                });
            }
            if top.rank == 0 && top.partial_idx + 1 < partials.len() {
                heap.push(Frontier {
                    cost: partials[top.partial_idx + 1].cost + costs.cost(i, order[0]),
                    partial_idx: top.partial_idx + 1,
                    rank: 0,
                });
            }
        }
        partials = next;
    }
    partials
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbest::k_best_assignments;
    use proptest::prelude::*;

    #[test]
    fn enumerates_full_space() {
        let c = CostMatrix::new(2, 3, vec![0.0; 6]);
        let all = brute_force_k_best(&c, 100);
        assert_eq!(all.len(), 9);
    }

    proptest! {
        /// The heap-based k-best enumeration must agree with brute force on
        /// cost for every rank, for arbitrary small proto-actions.
        #[test]
        fn kbest_matches_brute_force(
            n in 1usize..4,
            m in 1usize..4,
            k in 1usize..10,
            seed in 0u64..1000,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let proto: Vec<f64> = (0..n * m).map(|_| rng.random_range(-1.0..2.0)).collect();
            let costs = CostMatrix::from_proto_action(&proto, n, m);
            let fast = k_best_assignments(&costs, k);
            let slow = brute_force_k_best(&costs, k);
            prop_assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                // Ties may order differently; costs must match exactly rank
                // by rank.
                prop_assert!((f.cost - s.cost).abs() < 1e-9,
                    "rank cost mismatch: {} vs {}", f.cost, s.cost);
            }
        }
    }
}
