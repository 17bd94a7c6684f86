//! Solvers for the paper's **MIQP-NN** problem (§3.2.1) — the component the
//! paper delegates to the Gurobi optimizer.
//!
//! The problem: given a continuous proto-action `â ∈ R^{N×M}` produced by
//! the actor network, find the feasible action
//!
//! ```text
//! min_a ‖a − â‖²   s.t.  Σ_j a_ij = 1 ∀i,   a_ij ∈ {0, 1}
//! ```
//!
//! and, iterating K times with previous optima excluded, the K nearest
//! feasible neighbours (K-NN) of `â`.
//!
//! Because the rows of `a` are independent one-hot vectors, the objective
//! separates per thread:
//!
//! ```text
//! ‖a − â‖² = Σ_i c_i(j_i),    c_i(j) = ‖e_j − â_i‖² = 1 − 2·â_ij + ‖â_i‖²
//! ```
//!
//! so the K nearest actions are the K cheapest combinations of per-row
//! column choices. This crate provides:
//!
//! * [`kbest`] — an exact K-best enumeration (the default) whose cost
//!   follows the deviations from the per-row optimum: `O(N·M + N·K)` per
//!   query plus `O(M + K·min(K, M))` for each row where a deviation can
//!   still enter the K best;
//! * [`relax`] — the paper's fallback for very large cases: continuous
//!   relaxation (per-row Euclidean projection onto the simplex) plus
//!   randomized rounding.
//!
//! Tests validate [`kbest`] against brute force over all `M^N` actions.
//!
//! All solvers consume a [`CostMatrix`]; [`CostMatrix::from_proto_action`]
//! builds one from a flattened proto-action.

pub mod cost;
#[cfg(test)]
mod exhaustive;
pub mod kbest;
pub mod relax;

pub use cost::CostMatrix;
pub use kbest::{k_best_assignments, k_best_assignments_into, KBestWorkspace};
pub use relax::{project_row_simplex, relax_and_round};

/// The numeric cost type: every solver is generic over `dss-nn`'s sealed
/// [`Scalar`] trait and defaults to the workspace training element
/// [`Elem`] (f32), so proto-actions flow from the actor network into the
/// MIQP-NN solvers without conversion. Instantiate with `f64` for
/// higher-precision debugging — the test oracles do.
pub use dss_nn::{Elem, Scalar};

/// A feasible action: `choice[i]` is the machine index thread `i` is
/// assigned to.
pub type Choice = Vec<usize>;

/// A solution with its objective value (`‖a − â‖²` for MIQP-NN costs).
#[derive(Debug, Clone, PartialEq)]
pub struct Solution<S: Scalar = Elem> {
    /// Total cost `Σ_i c_i(choice[i])`.
    pub cost: S,
    /// Per-thread machine choices.
    pub choice: Choice,
}
