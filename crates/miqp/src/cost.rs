//! Per-row choice costs derived from a proto-action.

use crate::{Elem, Scalar};

/// Row-separable costs: `cost(i, j)` is the price of assigning thread `i`
/// to machine `j`. For the MIQP-NN problem this is `‖e_j − â_i‖²`.
/// Generic over the [`Scalar`] cost element (default: the workspace
/// training element [`Elem`], so actor proto-actions feed in directly).
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix<S: Scalar = Elem> {
    n: usize,
    m: usize,
    costs: Vec<S>,
}

impl<S: Scalar> CostMatrix<S> {
    /// Builds from explicit per-row costs (row-major `n × m`).
    ///
    /// # Panics
    /// Panics when the buffer size disagrees with `n·m`, when `n` or `m`
    /// is zero, or when any cost is not finite (NaN or ±∞: the K-best
    /// enumeration compares sums of costs, and `+∞ + (−∞)` is NaN).
    pub fn new(n: usize, m: usize, costs: Vec<S>) -> Self {
        assert!(n > 0 && m > 0, "empty cost matrix");
        assert_eq!(costs.len(), n * m, "cost buffer size");
        assert!(costs.iter().all(|c| c.is_finite()), "NaN or infinite cost");
        Self { n, m, costs }
    }

    /// Builds MIQP-NN costs from a flattened proto-action
    /// (`proto[i * m + j] = â_ij`):
    /// `c_i(j) = 1 − 2·â_ij + Σ_j' â_ij'²`.
    ///
    /// # Panics
    /// Panics when `proto.len() != n * m`.
    pub fn from_proto_action(proto: &[S], n: usize, m: usize) -> Self {
        assert_eq!(proto.len(), n * m, "proto-action size");
        let mut this = Self::new(n, m, vec![S::ZERO; n * m]);
        this.set_proto_action(proto);
        this
    }

    /// Refills this matrix from a new proto-action of the same shape,
    /// reusing the cost buffer — the allocation-free path for callers
    /// (e.g. the K-NN mapper on the DDPG training hot path) that solve
    /// many proto-actions of one fixed `n × m` shape back to back.
    ///
    /// # Panics
    /// Panics when `proto.len() != n * m` or any computed cost is not
    /// finite — the invariant [`CostMatrix::new`] enforces. Checking the
    /// costs rather than the entries also catches finite entries whose
    /// `2·â_ij` or `â_ij²` overflows (`1 − ∞ + ∞ = NaN`).
    pub fn set_proto_action(&mut self, proto: &[S]) {
        assert_eq!(proto.len(), self.n * self.m, "proto-action size");
        let two = S::from_f64(2.0);
        for (cost_row, row) in self
            .costs
            .chunks_exact_mut(self.m)
            .zip(proto.chunks_exact(self.m))
        {
            let sq: S = row.iter().map(|&v| v * v).sum();
            for (c, &v) in cost_row.iter_mut().zip(row) {
                *c = S::ONE - two * v + sq;
            }
        }
        assert!(
            self.costs.iter().all(|c| c.is_finite()),
            "NaN or infinite cost from the proto-action"
        );
    }

    /// Refills every entry from `f(row, col)`, reusing the cost buffer —
    /// how derived matrices (e.g. the hierarchical mapper's group-reduced
    /// costs, `gc_i(g) = min_{j ∈ g} c_i(j)`) are rebuilt per query
    /// without allocating.
    ///
    /// # Panics
    /// Panics when `f` produces a cost that is not finite.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize) -> S) {
        for i in 0..self.n {
            for j in 0..self.m {
                let c = f(i, j);
                assert!(c.is_finite(), "NaN or infinite cost at ({i}, {j})");
                self.costs[i * self.m + j] = c;
            }
        }
    }

    /// Number of threads (rows).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of machines (columns).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The cost of assigning thread `i` to machine `j`.
    pub fn cost(&self, i: usize, j: usize) -> S {
        self.costs[i * self.m + j]
    }

    /// Row `i`'s costs.
    pub fn row(&self, i: usize) -> &[S] {
        &self.costs[i * self.m..(i + 1) * self.m]
    }

    /// Total cost of a complete choice vector.
    ///
    /// # Panics
    /// Panics when `choice.len() != n` or a choice is out of range.
    pub fn total(&self, choice: &[usize]) -> S {
        assert_eq!(choice.len(), self.n, "choice length");
        choice
            .iter()
            .enumerate()
            .map(|(i, &j)| {
                assert!(j < self.m, "choice out of range");
                self.cost(i, j)
            })
            .sum()
    }

    /// For each row, column indices sorted by ascending cost (ties by
    /// index) — the `(cost, index)` order the K-best enumeration ranks
    /// columns in.
    pub fn sorted_columns(&self) -> Vec<Vec<usize>> {
        (0..self.n)
            .map(|i| {
                let row = self.row(i);
                let mut idx: Vec<usize> = (0..self.m).collect();
                idx.sort_by(|&a, &b| {
                    row[a]
                        .partial_cmp(&row[b])
                        .expect("NaN cost")
                        .then(a.cmp(&b))
                });
                idx
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_action_costs_match_distance() {
        // â = [[0.9, 0.1], [0.4, 0.6]]
        let proto = vec![0.9, 0.1, 0.4, 0.6];
        let c = CostMatrix::from_proto_action(&proto, 2, 2);
        // c_0(0) = ||(1,0) - (0.9,0.1)||² = 0.01 + 0.01 = 0.02
        assert!((c.cost(0, 0) - 0.02).abs() < 1e-12);
        // c_0(1) = ||(0,1) - (0.9,0.1)||² = 0.81 + 0.81 = 1.62
        assert!((c.cost(0, 1) - 1.62).abs() < 1e-12);
        // c_1(1) = 0.16 + 0.16 = 0.32
        assert!((c.cost(1, 1) - 0.32).abs() < 1e-12);
    }

    #[test]
    fn best_choice_maximizes_proto_entries() {
        let proto = vec![0.2, 0.7, 0.1, 0.05, 0.05, 0.9];
        let c = CostMatrix::from_proto_action(&proto, 2, 3);
        let sorted = c.sorted_columns();
        assert_eq!(sorted[0][0], 1);
        assert_eq!(sorted[1][0], 2);
    }

    #[test]
    fn total_sums_rows() {
        let c = CostMatrix::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.total(&[0, 1]), 5.0);
        assert_eq!(c.total(&[1, 0]), 5.0);
    }

    #[test]
    fn sorted_columns_breaks_ties_by_index() {
        let c = CostMatrix::new(1, 3, vec![5.0, 5.0, 1.0]);
        assert_eq!(c.sorted_columns()[0], vec![2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let _ = CostMatrix::new(1, 2, vec![0.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "NaN or infinite cost")]
    fn rejects_infinite_proto() {
        let _ = CostMatrix::from_proto_action(&[0.5, f64::INFINITY], 1, 2);
    }

    #[test]
    #[should_panic(expected = "NaN or infinite cost")]
    fn rejects_finite_proto_whose_costs_overflow() {
        // Finite entry, but `â²` overflows f32: the costs would be +∞.
        let _ = CostMatrix::from_proto_action(&[f32::MAX / 2.0, 0.0], 1, 2);
    }

    #[test]
    #[should_panic(expected = "NaN or infinite cost")]
    fn rejects_finite_proto_whose_costs_are_nan() {
        // `2·â` overflows too: `1 − ∞ + ∞ = NaN`.
        let _ = CostMatrix::from_proto_action(&[f32::MAX, 0.0], 1, 2);
    }

    #[test]
    #[should_panic(expected = "NaN or infinite cost")]
    fn rejects_mixed_infinities() {
        // A −∞ row beside a +∞ row used to be accepted and only failed
        // inside the K-best heap, on the NaN sum.
        let _ = CostMatrix::new(2, 2, vec![f64::NEG_INFINITY, 0.0, f64::INFINITY, 0.0]);
    }

    #[test]
    #[should_panic(expected = "NaN or infinite cost at (0, 1)")]
    fn fill_with_rejects_infinity() {
        let mut c = CostMatrix::new(1, 2, vec![0.0; 2]);
        c.fill_with(|_, j| if j == 1 { f64::NEG_INFINITY } else { 0.0 });
    }

    #[test]
    fn set_proto_action_matches_fresh_build() {
        let first = vec![0.9, 0.1, 0.4, 0.6];
        let second = vec![0.2, 0.7, 0.5, 0.5];
        let mut reused = CostMatrix::from_proto_action(&first, 2, 2);
        reused.set_proto_action(&second);
        assert_eq!(reused, CostMatrix::from_proto_action(&second, 2, 2));
    }

    #[test]
    fn fill_with_overwrites_in_place() {
        let mut c = CostMatrix::new(2, 3, vec![0.0; 6]);
        c.fill_with(|i, j| (i * 3 + j) as f64);
        assert_eq!(c, CostMatrix::new(2, 3, (0..6).map(f64::from).collect()));
    }

    #[test]
    #[should_panic(expected = "NaN or infinite cost")]
    fn fill_with_rejects_nan() {
        let mut c = CostMatrix::new(1, 2, vec![0.0; 2]);
        c.fill_with(|_, _| f64::NAN);
    }
}
