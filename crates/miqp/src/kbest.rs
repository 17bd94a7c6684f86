//! Exact K-best assignment enumeration.
//!
//! Folds rows one at a time, keeping only the K cheapest partial
//! assignments. Correctness of the pruning: per-row costs are added
//! independently, so if a prefix is not among the K cheapest prefixes, no
//! completion of it can be among the K cheapest full assignments (every one
//! of the K cheaper prefixes admits the same completion at the same added
//! cost).
//!
//! A fold step keeps the K smallest `(cost, partial, rank)` keys over every
//! (partial, column) cell, where `cost` is the partial's cost plus the
//! column's (one floating-point addition) and `rank` is the column's
//! position in the row's `(cost, index)` order. With partial costs `p`
//! ascending and the row's best column `b`, a column `j` can enter the K
//! best only if its cheapest cell `(0, rank j)` does not follow the K-th
//! rank-0 cell: `p[0] + c_j ≤ p[K−1] + c_b` (rounding is monotone, so these
//! columns are a prefix of the row's order). So a step is one of two kinds:
//!
//! * **Fast rows.** Once K partials are live, a row whose second-best
//!   column `s` misses that bound (`p[K−1] + c_b < p[0] + c_s`) keeps only
//!   its rank-0 cells: the step is `p[i] += c_b` in place. One `O(M)`
//!   pass finds `b` and `s`.
//! * **Other rows** merge the partials with the row's first
//!   `r ≤ min(K, M)` columns that pass the bound (every column while fewer
//!   than K partials are live), found by partial selection plus a sort of
//!   the selected prefix — never a sort of the row. The merge is the
//!   classic "K smallest pairwise sums of two sorted arrays" frontier: one
//!   next cell per rank, scanned in rank order each step.
//!
//! Partials do not carry choice vectors: each keeps a chain of
//! `(row, column)` deviations from the per-row best column in an arena
//! that gains at most K links per row, so it never exceeds `K·N` and is
//! reserved once per shape. The chains are expanded into the output once,
//! at the end. A query costs `O(N·M + N·K)` plus `O(M + K·r)` for each
//! row that is not fast — against `O(N·M log M + K·N²)` for sorting every
//! row and copying every surviving prefix — and returns the same
//! candidates, in the same order, with the same cost bits.
//!
//! The core is [`k_best_assignments_into`], which runs the fold through a
//! caller-owned [`KBestWorkspace`]; the output solutions reuse their
//! allocations across calls. That is what makes the rollout act path
//! (`DdpgAgent::select_action_into` → `KBestMapper::nearest_into`)
//! allocation-free once warm. [`k_best_assignments`] is the allocating
//! wrapper.

use crate::cost::CostMatrix;
use crate::{Elem, Scalar, Solution};

/// End of a deviation chain: the partial takes every row's best column.
const NO_DEVIATION: usize = usize::MAX;

/// One arena link: `row` takes `col` instead of its best column, and
/// `prev` indexes the partial's earlier deviation.
struct Deviation {
    row: usize,
    col: usize,
    prev: usize,
}

/// Reusable fold state for [`k_best_assignments_into`]. Every buffer is
/// reserved for the query's `(k, n, m)` shape on entry, so a warm
/// workspace allocates nothing whatever the costs.
#[derive(Default)]
pub struct KBestWorkspace<S: Scalar = Elem> {
    /// Each row's cheapest column in `(cost, index)` order.
    best: Vec<usize>,
    /// Live partial costs, ascending, and the head of each partial's
    /// deviation chain.
    costs: Vec<S>,
    heads: Vec<usize>,
    /// The merge's output buffers, swapped with the two above.
    next_costs: Vec<S>,
    next_heads: Vec<usize>,
    /// Deviation arena (at most `K·N` links per query).
    devs: Vec<Deviation>,
    /// A merged row's entering columns, in `(cost, index)` order.
    cols: Vec<usize>,
    /// The merge frontier: the next partial each entering column pairs
    /// with.
    next_partial: Vec<usize>,
}

impl<S: Scalar> std::fmt::Debug for KBestWorkspace<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KBestWorkspace")
            .field("partials", &self.costs.len())
            .field("deviations", &self.devs.len())
            .finish()
    }
}

impl<S: Scalar> Clone for KBestWorkspace<S> {
    /// Workspaces carry no logical state between calls; cloning one just
    /// starts a sibling with cold buffers.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<S: Scalar> KBestWorkspace<S> {
    /// Empties every buffer and makes sure each can hold a whole query of
    /// this shape: `cap = min(k, M^N)` partials and `cap·N` deviations.
    fn reset(&mut self, k: usize, n: usize, m: usize) {
        let cap = k.min(m.saturating_pow(u32::try_from(n).unwrap_or(u32::MAX)));
        self.best.clear();
        self.best.reserve(n);
        for buf in [&mut self.costs, &mut self.next_costs] {
            buf.clear();
            buf.reserve(cap);
        }
        for buf in [&mut self.heads, &mut self.next_heads] {
            buf.clear();
            buf.reserve(cap);
        }
        self.devs.clear();
        self.devs.reserve(cap.saturating_mul(n));
        for buf in [&mut self.cols, &mut self.next_partial] {
            buf.clear();
            buf.reserve(m);
        }
    }

    /// Merges the live partials with row `i` (best column `b`), recording
    /// a deviation for every output that does not take `b`.
    fn merge_row(&mut self, i: usize, row: &[S], b: usize, k: usize) {
        let live = self.costs.len();
        self.cols.clear();
        // Only columns passing the entry bound (module docs) can enter.
        if live == k {
            let (p0, bound) = (self.costs[0], self.costs[k - 1] + row[b]);
            self.cols
                .extend((0..row.len()).filter(|&j| p0 + row[j] <= bound));
        } else {
            self.cols.extend(0..row.len());
        }
        let by_cost = |x: &usize, y: &usize| {
            row[*x]
                .partial_cmp(&row[*y])
                .expect("NaN cost")
                .then(x.cmp(y))
        };
        // A rank ≥ K cell has K smaller cells in its own partial.
        let r = k.min(self.cols.len());
        if self.cols.len() > r {
            self.cols.select_nth_unstable_by(r - 1, by_cost);
            self.cols.truncate(r);
        }
        self.cols.sort_unstable_by(by_cost);

        self.next_partial.clear();
        self.next_partial.resize(r, 0);
        self.next_costs.clear();
        self.next_heads.clear();
        while self.next_costs.len() < k {
            // Each rank's next cell. A rank never runs ahead of the rank
            // before it (cell `(p, r)` follows `(p, r−1)`), and once a rank
            // waits at partial 0 every later rank's cell costs at least as
            // much at a higher rank, so the scan stops there.
            let mut win: Option<(S, usize, usize)> = None;
            for (rank, &p) in self.next_partial.iter().enumerate() {
                if p < live {
                    let cost = self.costs[p] + row[self.cols[rank]];
                    if win.is_none_or(|(c, q, _)| cost < c || (cost == c && p < q)) {
                        win = Some((cost, p, rank));
                    }
                }
                if p == 0 {
                    break;
                }
            }
            let Some((cost, p, rank)) = win else { break };
            self.next_partial[rank] += 1;
            let parent = self.heads[p];
            let head = if rank == 0 {
                parent
            } else {
                self.devs.push(Deviation {
                    row: i,
                    col: self.cols[rank],
                    prev: parent,
                });
                self.devs.len() - 1
            };
            self.next_costs.push(cost);
            self.next_heads.push(head);
        }
        std::mem::swap(&mut self.costs, &mut self.next_costs);
        std::mem::swap(&mut self.heads, &mut self.next_heads);
    }
}

/// Row `row`'s cheapest and second-cheapest columns in `(cost, index)`
/// order (`None` for a one-column row).
fn best_two<S: Scalar>(row: &[S]) -> (usize, Option<usize>) {
    let (mut best, mut second) = (0, None);
    for (j, &c) in row.iter().enumerate().skip(1) {
        if c < row[best] {
            second = Some(best);
            best = j;
        } else if second.is_none_or(|s| c < row[s]) {
            second = Some(j);
        }
    }
    (best, second)
}

/// Returns the `k` cheapest complete assignments in ascending cost order.
///
/// Fewer than `k` solutions are returned only when the action space itself
/// is smaller (`M^N < k`). Solutions are distinct by construction.
///
/// # Panics
/// Panics when `k == 0`.
pub fn k_best_assignments<S: Scalar>(costs: &CostMatrix<S>, k: usize) -> Vec<Solution<S>> {
    let mut ws = KBestWorkspace::default();
    let mut out = Vec::new();
    k_best_assignments_into(costs, k, &[], &mut ws, &mut out);
    out
}

/// The buffer-reusing core: K-best enumeration into `out` (truncated and
/// rewritten in place) through `ws`. Zero heap allocations once the
/// workspace and `out` have served a query of the same `(k, n, m)`.
///
/// `_sorted` is ignored: the enumeration no longer sorts rows, and the
/// argument survives only for existing callers (pass `&[]`).
///
/// # Panics
/// Panics when `k == 0`.
pub fn k_best_assignments_into<S: Scalar>(
    costs: &CostMatrix<S>,
    k: usize,
    _sorted: &[Vec<usize>],
    ws: &mut KBestWorkspace<S>,
    out: &mut Vec<Solution<S>>,
) {
    assert!(k > 0, "k must be positive");
    let (n, m) = (costs.n(), costs.m());
    ws.reset(k, n, m);
    // Seed: the single empty prefix at cost zero.
    ws.costs.push(S::ZERO);
    ws.heads.push(NO_DEVIATION);

    for i in 0..n {
        let row = costs.row(i);
        let (b, second) = best_two(row);
        ws.best.push(b);
        // With K = 1 the lone partial's rank-0 cell wins even a tie.
        let fast = match second {
            None => true,
            Some(s) => {
                ws.costs.len() == k && (k == 1 || ws.costs[k - 1] + row[b] < ws.costs[0] + row[s])
            }
        };
        if fast {
            for p in &mut ws.costs {
                *p += row[b];
            }
        } else {
            ws.merge_row(i, row, b, k);
        }
    }

    // Publish: every row's best column, then each partial's deviations.
    let live = ws.costs.len();
    out.truncate(live);
    for idx in 0..live {
        if idx == out.len() {
            out.push(Solution {
                cost: S::ZERO,
                choice: Vec::with_capacity(n),
            });
        }
        let sol = &mut out[idx];
        sol.cost = ws.costs[idx];
        sol.choice.clear();
        sol.choice.extend_from_slice(&ws.best);
        let mut d = ws.heads[idx];
        while d != NO_DEVIATION {
            let dev = &ws.devs[d];
            sol.choice[dev.row] = dev.col;
            d = dev.prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::sorted_fold_k_best;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn single_row_orders_by_cost() {
        let c = CostMatrix::new(1, 3, vec![3.0, 1.0, 2.0]);
        let sols = k_best_assignments(&c, 3);
        assert_eq!(sols.len(), 3);
        assert_eq!(sols[0].choice, vec![1]);
        assert_eq!(sols[1].choice, vec![2]);
        assert_eq!(sols[2].choice, vec![0]);
        assert_eq!(sols[0].cost, 1.0);
    }

    #[test]
    fn two_rows_known_order() {
        // Row costs: r0 = [0, 10], r1 = [1, 2].
        let c = CostMatrix::new(2, 2, vec![0.0, 10.0, 1.0, 2.0]);
        let sols = k_best_assignments(&c, 4);
        let got: Vec<(Vec<usize>, f64)> = sols.iter().map(|s| (s.choice.clone(), s.cost)).collect();
        assert_eq!(
            got,
            vec![
                (vec![0, 0], 1.0),
                (vec![0, 1], 2.0),
                (vec![1, 0], 11.0),
                (vec![1, 1], 12.0),
            ]
        );
    }

    #[test]
    fn caps_at_action_space_size() {
        let c = CostMatrix::new(2, 2, vec![0.0, 1.0, 0.0, 1.0]);
        let sols = k_best_assignments(&c, 100);
        assert_eq!(sols.len(), 4);
    }

    #[test]
    fn costs_nondecreasing() {
        let proto = vec![0.9, 0.05, 0.05, 0.1, 0.8, 0.1, 0.3, 0.3, 0.4];
        let c = CostMatrix::from_proto_action(&proto, 3, 3);
        let sols = k_best_assignments(&c, 10);
        assert!(sols.windows(2).all(|w| w[0].cost <= w[1].cost + 1e-12));
    }

    #[test]
    fn solutions_distinct() {
        let proto = vec![0.5; 12];
        let c = CostMatrix::from_proto_action(&proto, 4, 3);
        let sols = k_best_assignments(&c, 20);
        let mut seen = std::collections::HashSet::new();
        for s in &sols {
            assert!(seen.insert(s.choice.clone()), "duplicate {:?}", s.choice);
        }
    }

    #[test]
    fn best_matches_greedy_argmax_of_proto() {
        // The single nearest neighbour is the row-wise argmax of â.
        let proto = vec![0.1, 0.7, 0.2, 0.6, 0.3, 0.1];
        let c = CostMatrix::from_proto_action(&proto, 2, 3);
        let sols = k_best_assignments(&c, 1);
        assert_eq!(sols[0].choice, vec![1, 0]);
    }

    #[test]
    fn f32_instantiation_agrees_with_f64_on_choices() {
        let proto64 = vec![0.9, 0.05, 0.05, 0.1, 0.8, 0.1, 0.3, 0.3, 0.4];
        let proto32: Vec<f32> = proto64.iter().map(|&v| v as f32).collect();
        let sols64 = k_best_assignments(&CostMatrix::from_proto_action(&proto64, 3, 3), 8);
        let sols32 = k_best_assignments(&CostMatrix::from_proto_action(&proto32, 3, 3), 8);
        assert_eq!(sols64.len(), sols32.len());
        for (a, b) in sols64.iter().zip(&sols32) {
            assert_eq!(
                a.choice, b.choice,
                "choice order must match across precisions"
            );
            assert!((a.cost - b.cost as f64).abs() < 1e-5);
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_without_reallocating() {
        let mut ws = KBestWorkspace::default();
        let mut out = Vec::new();
        let protos = [
            vec![0.9, 0.05, 0.05, 0.1, 0.8, 0.1, 0.3, 0.3, 0.4],
            vec![0.2, 0.3, 0.5, 0.6, 0.2, 0.2, 0.1, 0.1, 0.8],
            vec![0.5, 0.5, 0.0, 0.0, 0.5, 0.5, 0.25, 0.5, 0.25],
        ];
        // Warm up on the first proto, then record buffer identities.
        let c = CostMatrix::from_proto_action(&protos[0], 3, 3);
        k_best_assignments_into(&c, 5, &[], &mut ws, &mut out);
        let out_ptrs: Vec<*const usize> = out.iter().map(|s| s.choice.as_ptr()).collect();
        for proto in &protos[1..] {
            let c = CostMatrix::from_proto_action(proto, 3, 3);
            k_best_assignments_into(&c, 5, &[], &mut ws, &mut out);
            assert_eq!(out, k_best_assignments(&c, 5), "reused workspace diverged");
            for (sol, ptr) in out.iter().zip(&out_ptrs) {
                assert_eq!(sol.choice.as_ptr(), *ptr, "choice buffer reallocated");
            }
        }
    }

    #[test]
    fn fast_rows_need_a_strict_gap() {
        // Row 1 ties its two columns: K = 2 partials [0, 1] would give
        // p[1] + c_b = 1 + 0 against p[0] + c_s = 0 + 1 — equal, so the
        // merge must run, and (0, rank 1) precedes (1, rank 0).
        let c = CostMatrix::new(2, 2, vec![0.0, 1.0, 0.0, 1.0]);
        let sols = k_best_assignments(&c, 2);
        assert_eq!(sols, sorted_fold_k_best(&c, 2));
        assert_eq!(sols[1].choice, vec![0, 1]);
    }

    /// `k`-best through the deviation fold and through the sorted fold,
    /// compared bit for bit: length, order, every choice, every cost.
    fn assert_matches_sorted_fold<S: Scalar>(costs: &CostMatrix<S>, k: usize) {
        let got = k_best_assignments(costs, k);
        let want = sorted_fold_k_best(costs, k);
        assert_eq!(got.len(), want.len(), "candidate count");
        for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.choice, w.choice, "choice at rank {rank}");
            assert_eq!(
                g.cost.to_f64().to_bits(),
                w.cost.to_f64().to_bits(),
                "cost bits at rank {rank}"
            );
        }
    }

    /// A proto-action of kind 0 (uniform in `−1..2`), 1 (quantized to
    /// quarters in `−1..2`: many tied costs), 2 (constant: every cost in a
    /// row equal) or 3 (`0.5 ± 10⁻³`, an untrained sigmoid actor's output:
    /// row gaps near the rounding step of the partial sums).
    fn proto(kind: usize, len: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let level = rng.random_range(-4i32..=8) as f64 / 4.0;
        (0..len)
            .map(|_| match kind {
                0 => rng.random_range(-1.0..2.0),
                1 => rng.random_range(-4i32..=8) as f64 / 4.0,
                2 => level,
                _ => 0.5 + rng.random_range(-1e-3..1e-3),
            })
            .collect()
    }

    /// `(n, m, k)`: general shapes, tiny action spaces (`K ≥ M^N` is
    /// common) and the degenerate `M = 1`, `N = 1`, `K = 1` edges.
    fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
        prop_oneof![
            (1usize..=30, 1usize..=12, 1usize..=12),
            (1usize..=3, 1usize..=3, 1usize..=12),
            (1usize..=30, Just(1usize), 1usize..=12),
            (Just(1usize), 1usize..=12, 1usize..=12),
            (1usize..=30, 1usize..=12, Just(1usize)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The deviation fold reproduces the sorted fold exactly, in f32
        /// and f64, on random, tie-heavy, all-equal and near-equal costs.
        #[test]
        fn deviation_fold_matches_sorted_fold_bit_for_bit(
            (n, m, k) in shape(),
            kind in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let p64 = proto(kind, n * m, seed);
            let p32: Vec<f32> = p64.iter().map(|&v| v as f32).collect();
            assert_matches_sorted_fold(&CostMatrix::from_proto_action(&p64, n, m), k);
            assert_matches_sorted_fold(&CostMatrix::from_proto_action(&p32, n, m), k);
        }
    }

    /// Fleet width: the flat 1152 × 128 problem and the 1152 × 16
    /// group-minimum matrix the hierarchical mapper solves, K = 8, in f32,
    /// against the sorted fold for every proto kind. Near-equal protos
    /// put row gaps below the rounding step of partial sums ≈ 4·10⁴, so
    /// most rows merge on ties. Too slow for a debug build.
    #[test]
    #[ignore]
    fn fleet_width_matches_sorted_fold() {
        let (n, m, groups) = (1152usize, 128usize, 16usize);
        let width = m / groups;
        for kind in 0..4 {
            let proto: Vec<f32> = proto(kind, n * m, 11).iter().map(|&v| v as f32).collect();
            let flat = CostMatrix::from_proto_action(&proto, n, m);
            assert_matches_sorted_fold(&flat, 8);
            let mut grouped = CostMatrix::new(n, groups, vec![0.0f32; n * groups]);
            grouped.fill_with(|i, g| {
                let row = &flat.row(i)[g * width..(g + 1) * width];
                row.iter().copied().fold(f32::INFINITY, f32::min)
            });
            assert_matches_sorted_fold(&grouped, 8);
        }
    }
}
