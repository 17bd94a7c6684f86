//! Proto-action → feasible-action mapping (the paper's "optimizer" box in
//! Figure 2).
//!
//! The actor emits `â ∈ R^{N·M}`; an [`ActionMapper`] returns the K nearest
//! feasible assignments. [`KBestMapper`] is the exact MIQP-NN solution
//! (what the paper obtains from Gurobi); [`RelaxMapper`] is the paper's
//! suggested relaxation + rounding fallback for very large cases.

use rand::rngs::StdRng;

use dss_miqp::{k_best_assignments_into, relax_and_round, CostMatrix, KBestWorkspace, Solution};
use dss_nn::{Elem, Matrix, Scalar};

/// A feasible action candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateAction<S: Scalar = Elem> {
    /// Machine index per thread.
    pub choice: Vec<usize>,
    /// Flat one-hot encoding (`N·M`), the critic's action input.
    pub onehot: Vec<S>,
    /// Distance-to-proto cost (`‖a − â‖²` up to a per-proto constant).
    pub cost: S,
}

/// Maps a proto-action to its K nearest feasible actions.
///
/// The required method is the buffer-reusing [`ActionMapper::nearest_into`];
/// allocating and batched forms are provided on top of it. Implementations
/// with per-shape setup (cost matrices, enumeration workspaces) keep it as
/// mapper state so back-to-back queries — in particular the `H` per-batch
/// queries of `DdpgAgent::train_step` via
/// [`ActionMapper::nearest_batch_into`] — amortize it instead of
/// rebuilding per transition.
pub trait ActionMapper<S: Scalar = Elem> {
    /// Writes up to `k` candidates, cheapest (nearest) first, into `out`,
    /// reusing its existing `CandidateAction` allocations (the one-hot and
    /// choice buffers) where possible.
    fn nearest_into(&mut self, proto: &[S], k: usize, out: &mut Vec<CandidateAction<S>>);

    /// Problem shape `(n_threads, n_machines)`.
    fn shape(&self) -> (usize, usize);

    /// Returns up to `k` candidates, cheapest first (allocating form).
    fn nearest(&mut self, proto: &[S], k: usize) -> Vec<CandidateAction<S>> {
        let mut out = Vec::new();
        self.nearest_into(proto, k, &mut out);
        out
    }

    /// Batched K-NN: candidate sets for every row of a proto-action batch
    /// (one proto per matrix row — exactly what a batched actor forward
    /// produces), into reused per-row buffers. Taking the `Matrix`
    /// directly keeps the DDPG hot path allocation-free (a slice-of-rows
    /// signature would force callers to build a `Vec<&[f64]>` per step).
    /// The default is the straightforward per-row loop — correct for any
    /// mapper — which already amortizes whatever per-shape state
    /// `nearest_into` keeps across the whole batch.
    fn nearest_batch_into(
        &mut self,
        protos: &Matrix<S>,
        k: usize,
        out: &mut Vec<Vec<CandidateAction<S>>>,
    ) {
        out.resize_with(protos.rows(), Vec::new);
        for (r, row) in out.iter_mut().enumerate() {
            self.nearest_into(protos.row(r), k, row);
        }
    }

    /// Batched K-NN, allocating form.
    fn nearest_batch(&mut self, protos: &Matrix<S>, k: usize) -> Vec<Vec<CandidateAction<S>>> {
        let mut out = Vec::new();
        self.nearest_batch_into(protos, k, &mut out);
        out
    }
}

/// Writes the one-hot encoding of `choice` into `out` (cleared and
/// zero-filled in place — no allocation once capacity suffices).
fn write_onehot<S: Scalar>(choice: &[usize], m: usize, out: &mut Vec<S>) {
    out.clear();
    out.resize(choice.len() * m, S::ZERO);
    for (i, &j) in choice.iter().enumerate() {
        out[i * m + j] = S::ONE;
    }
}

/// Rewrites `slot` to `sol`, reusing its one-hot and choice buffers. A
/// slot that already encodes an `N`-row choice at this width — every slot
/// this module wrote keeps `onehot` the encoding of `choice` — only has
/// its old ones cleared and the new ones set: `O(N)`, not `O(N·M)`.
fn write_candidate<S: Scalar>(sol: &Solution<S>, m: usize, slot: &mut CandidateAction<S>) {
    let n = sol.choice.len();
    if slot.choice.len() == n && slot.onehot.len() == n * m {
        for (i, &j) in slot.choice.iter().enumerate() {
            slot.onehot[i * m + j] = S::ZERO;
        }
        for (i, &j) in sol.choice.iter().enumerate() {
            slot.onehot[i * m + j] = S::ONE;
        }
    } else {
        write_onehot(&sol.choice, m, &mut slot.onehot);
    }
    slot.cost = sol.cost;
    slot.choice.clear();
    slot.choice.extend_from_slice(&sol.choice);
}

/// Rewrites `out` from borrowed solver solutions, reusing each slot's
/// one-hot *and* choice buffers (with the solver's own solutions living
/// in mapper-held workspace, a warm `nearest_into` allocates nothing).
fn fill_candidates<S: Scalar>(sols: &[Solution<S>], m: usize, out: &mut Vec<CandidateAction<S>>) {
    out.truncate(sols.len());
    for (i, s) in sols.iter().enumerate() {
        if i == out.len() {
            out.push(CandidateAction {
                choice: Vec::new(),
                onehot: Vec::new(),
                cost: s.cost,
            });
        }
        write_candidate(s, m, &mut out[i]);
    }
}

/// Exact K-NN via the k-best enumeration in `dss-miqp`, whose cost
/// follows the rows where a deviation from the row-wise argmin can enter
/// the K best. The cost matrix, the enumeration workspace and the
/// solution buffer are kept as reusable state — a warm query allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct KBestMapper<S: Scalar = Elem> {
    n: usize,
    m: usize,
    /// Reused MIQP-NN cost matrix (refilled per query in place).
    costs: CostMatrix<S>,
    /// Reused k-best fold state (partial costs, deviation arena, merge
    /// frontier).
    ws: KBestWorkspace<S>,
    /// Reused solution buffer the enumeration publishes into.
    sols: Vec<Solution<S>>,
}

impl<S: Scalar> KBestMapper<S> {
    /// A mapper for `n` threads over `m` machines.
    ///
    /// # Panics
    /// Panics on a degenerate shape.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0, "degenerate action space");
        Self {
            n,
            m,
            costs: CostMatrix::new(n, m, vec![S::ZERO; n * m]),
            ws: KBestWorkspace::default(),
            sols: Vec::new(),
        }
    }
}

impl<S: Scalar> ActionMapper<S> for KBestMapper<S> {
    fn nearest_into(&mut self, proto: &[S], k: usize, out: &mut Vec<CandidateAction<S>>) {
        self.costs.set_proto_action(proto);
        k_best_assignments_into(&self.costs, k, &[], &mut self.ws, &mut self.sols);
        fill_candidates(&self.sols, self.m, out);
    }

    fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }
}

/// Two-level (group-then-machine) K-NN for fleet-scale clusters.
///
/// Machines are partitioned into `G` groups (by core class /
/// `ClusterSpec` layout — see `dss_sim::ClusterSpec::machine_groups` — or
/// uniformly via [`HierarchicalMapper::uniform`]). A query:
///
/// 1. reduces the `N × M` cost matrix to `N × G` group costs
///    `gc_i(g) = min_{j ∈ g} c_i(j)`, recording each row's argbest machine
///    per group (one `O(N·M)` pass);
/// 2. runs the exact k-best enumeration over the `G`-column matrix
///    (`O(N·G + N·K)`, plus `O(G + K·min(K, G))` per row where a
///    deviation from the row's best group can still enter the K best —
///    `G ≪ M`);
/// 3. refines each winning group assignment to machines via the recorded
///    argbests. Because `gc_i(g)` *is* the cost of the refined machine, a
///    group solution's cost equals the true flat cost of its refinement —
///    in particular the rank-1 candidate is always exactly the flat
///    mapper's rank-1 (row-wise argmin), and with `G = M` (singleton
///    groups in index order) the entire candidate list is bit-identical
///    to [`KBestMapper`];
/// 4. optionally truncates to the `prune` cheapest candidates (top-P
///    pruning), so the batched critic argmax downstream scores `H·P`
///    instead of `H·K` candidates.
///
/// All intermediate state (both cost matrices, argbest table, fold
/// workspace, solutions) is mapper-held: warm queries allocate nothing.
#[derive(Debug, Clone)]
pub struct HierarchicalMapper<S: Scalar = Elem> {
    n: usize,
    m: usize,
    groups: Vec<Vec<usize>>,
    prune: usize,
    /// Full `n × m` MIQP-NN costs (refilled per query in place).
    costs: CostMatrix<S>,
    /// Group-reduced `n × G` costs.
    gcosts: CostMatrix<S>,
    /// `argbest[i * G + g]` = cheapest machine of group `g` for row `i`.
    argbest: Vec<usize>,
    ws: KBestWorkspace<S>,
    sols: Vec<Solution<S>>,
}

impl<S: Scalar> HierarchicalMapper<S> {
    /// A mapper for `n` threads over `m` machines partitioned into
    /// `groups` (each machine in exactly one group). `prune == 0` disables
    /// top-P truncation.
    ///
    /// # Panics
    /// Panics on a degenerate shape or when `groups` is not a partition of
    /// `0..m` into non-empty groups.
    pub fn new(n: usize, m: usize, groups: Vec<Vec<usize>>, prune: usize) -> Self {
        assert!(n > 0 && m > 0, "degenerate action space");
        assert!(!groups.is_empty(), "need at least one machine group");
        let mut seen = vec![false; m];
        for g in &groups {
            assert!(!g.is_empty(), "empty machine group");
            for &j in g {
                assert!(j < m, "machine {j} out of range");
                assert!(
                    !std::mem::replace(&mut seen[j], true),
                    "machine {j} in two groups"
                );
            }
        }
        assert!(
            seen.into_iter().all(|s| s),
            "groups must cover every machine"
        );
        let n_groups = groups.len();
        Self {
            n,
            m,
            prune,
            costs: CostMatrix::new(n, m, vec![S::ZERO; n * m]),
            gcosts: CostMatrix::new(n, n_groups, vec![S::ZERO; n * n_groups]),
            argbest: vec![0; n * n_groups],
            ws: KBestWorkspace::default(),
            sols: Vec::new(),
            groups,
        }
    }

    /// Uniform grouping: `g` contiguous near-equal chunks of `0..m`
    /// (`g` is clamped to `m`). The cluster-layout-agnostic default used
    /// when only the knob values are known.
    pub fn uniform(n: usize, m: usize, g: usize, prune: usize) -> Self {
        assert!(g > 0, "need at least one group");
        let g = g.min(m);
        let (base, rem) = (m / g, m % g);
        let mut groups = Vec::with_capacity(g);
        let mut start = 0;
        for gi in 0..g {
            let len = base + usize::from(gi < rem);
            groups.push((start..start + len).collect());
            start += len;
        }
        Self::new(n, m, groups, prune)
    }

    /// The machine grouping in use.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }
}

impl<S: Scalar> ActionMapper<S> for HierarchicalMapper<S> {
    fn nearest_into(&mut self, proto: &[S], k: usize, out: &mut Vec<CandidateAction<S>>) {
        self.costs.set_proto_action(proto);
        let n_groups = self.groups.len();
        let (costs, groups, argbest) = (&self.costs, &self.groups, &mut self.argbest);
        self.gcosts.fill_with(|i, gi| {
            // Strict `<` keeps the lowest machine index on ties, matching
            // the flat enumeration's deterministic tie-break.
            let mut best_j = groups[gi][0];
            let mut best = costs.cost(i, best_j);
            for &j in &groups[gi][1..] {
                let c = costs.cost(i, j);
                if c < best {
                    best = c;
                    best_j = j;
                }
            }
            argbest[i * n_groups + gi] = best_j;
            best
        });
        k_best_assignments_into(&self.gcosts, k, &[], &mut self.ws, &mut self.sols);
        // Refine group choices to machines in place (the enumeration fully
        // rewrites each solution next query, so this is safe) and apply
        // top-P.
        for sol in &mut self.sols {
            for (i, c) in sol.choice.iter_mut().enumerate() {
                *c = argbest[i * n_groups + *c];
            }
        }
        if self.prune > 0 {
            self.sols.truncate(self.prune);
        }
        fill_candidates(&self.sols, self.m, out);
    }

    fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }
}

/// A mapper that picks flat or hierarchical K-NN from config knobs —
/// the single type training stacks hold so `mapper_groups = 0` keeps the
/// paper-exact flat path and a fleet run flips to two-level mapping
/// without code changes.
#[derive(Debug, Clone)]
pub enum ScalableMapper<S: Scalar = Elem> {
    /// Exact flat enumeration ([`KBestMapper`]).
    Flat(KBestMapper<S>),
    /// Two-level group-then-machine mapping ([`HierarchicalMapper`]).
    Hier(HierarchicalMapper<S>),
}

impl<S: Scalar> ScalableMapper<S> {
    /// Flat when `groups == 0`, otherwise hierarchical with `groups`
    /// uniform machine groups and top-`prune` truncation (`prune == 0`
    /// disables truncation).
    pub fn from_knobs(n: usize, m: usize, groups: usize, prune: usize) -> Self {
        if groups == 0 {
            Self::Flat(KBestMapper::new(n, m))
        } else {
            Self::Hier(HierarchicalMapper::uniform(n, m, groups, prune))
        }
    }
}

impl<S: Scalar> ActionMapper<S> for ScalableMapper<S> {
    fn nearest_into(&mut self, proto: &[S], k: usize, out: &mut Vec<CandidateAction<S>>) {
        match self {
            Self::Flat(m) => m.nearest_into(proto, k, out),
            Self::Hier(m) => m.nearest_into(proto, k, out),
        }
    }

    fn shape(&self) -> (usize, usize) {
        match self {
            Self::Flat(m) => m.shape(),
            Self::Hier(m) => m.shape(),
        }
    }
}

/// Approximate K-NN via continuous relaxation + randomized rounding — the
/// paper's fallback for very large instances.
#[derive(Debug)]
pub struct RelaxMapper<S: Scalar = Elem> {
    n: usize,
    m: usize,
    rng: StdRng,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl<S: Scalar> RelaxMapper<S> {
    /// A mapper for `n` threads over `m` machines; `rng` drives the
    /// randomized rounding.
    ///
    /// # Panics
    /// Panics on a degenerate shape.
    pub fn new(n: usize, m: usize, rng: StdRng) -> Self {
        assert!(n > 0 && m > 0, "degenerate action space");
        Self {
            n,
            m,
            rng,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> ActionMapper<S> for RelaxMapper<S> {
    fn nearest_into(&mut self, proto: &[S], k: usize, out: &mut Vec<CandidateAction<S>>) {
        let sols = relax_and_round(proto, self.n, self.m, k, &mut self.rng);
        fill_candidates(&sols, self.m, out);
    }

    fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kbest_candidates_are_feasible_and_sorted() {
        let mut mapper: KBestMapper<f64> = KBestMapper::new(3, 2);
        let proto = vec![0.9, 0.1, 0.4, 0.6, 0.5, 0.5];
        let c = mapper.nearest(&proto, 4);
        assert_eq!(c.len(), 4);
        assert!(c.windows(2).all(|w| w[0].cost <= w[1].cost + 1e-12));
        for cand in &c {
            assert_eq!(cand.choice.len(), 3);
            assert_eq!(cand.onehot.iter().sum::<f64>(), 3.0);
            for (i, &j) in cand.choice.iter().enumerate() {
                assert_eq!(cand.onehot[i * 2 + j], 1.0);
            }
        }
        // Nearest = row-wise argmax of the proto.
        assert_eq!(c[0].choice, vec![0, 1, 0]);
    }

    #[test]
    fn relax_mapper_first_is_argmax() {
        let mut mapper = RelaxMapper::new(2, 3, StdRng::seed_from_u64(1));
        let proto = vec![0.1, 0.8, 0.1, 0.2, 0.2, 0.6];
        let c = mapper.nearest(&proto, 3);
        assert!(!c.is_empty());
        assert_eq!(c[0].choice, vec![1, 2]);
    }

    #[test]
    fn nearest_into_reuses_buffers_and_matches_nearest() {
        let mut mapper = KBestMapper::new(3, 2);
        let proto_a = vec![0.9, 0.1, 0.4, 0.6, 0.5, 0.5];
        let proto_b = vec![0.1, 0.9, 0.7, 0.3, 0.2, 0.8];
        let mut out = Vec::new();
        mapper.nearest_into(&proto_a, 4, &mut out);
        let onehot_ptrs: Vec<*const f64> = out.iter().map(|c| c.onehot.as_ptr()).collect();
        mapper.nearest_into(&proto_b, 4, &mut out);
        // Same answer as a fresh mapper's allocating path...
        assert_eq!(out, KBestMapper::<f64>::new(3, 2).nearest(&proto_b, 4));
        // ...through the same one-hot allocations.
        for (cand, ptr) in out.iter().zip(&onehot_ptrs) {
            assert_eq!(cand.onehot.as_ptr(), *ptr, "one-hot buffer reallocated");
        }
    }

    #[test]
    fn reused_slots_encode_each_new_choice_across_shapes() {
        let sol = |choice: Vec<usize>| Solution { cost: 0.5, choice };
        let mut out: Vec<CandidateAction<f64>> = Vec::new();
        // (solutions, m): a first fill, new choices at the same shape (the
        // O(N) rewrite), a wider m, then 4 × 3 — the same one-hot width as
        // 3 × 4, so only the row count tells the shapes apart — and 4 × 2.
        // Each must leave exactly the fresh encoding behind.
        let rounds = [
            (vec![sol(vec![0, 1, 2]), sol(vec![2, 2, 0])], 3),
            (vec![sol(vec![1, 1, 1]), sol(vec![2, 2, 0])], 3),
            (vec![sol(vec![3, 0, 1])], 4),
            (vec![sol(vec![0, 1, 2, 0]), sol(vec![2, 1, 0, 2])], 3),
            (vec![sol(vec![0, 1, 0, 1]), sol(vec![1, 0, 1, 0])], 2),
        ];
        for (sols, m) in &rounds {
            fill_candidates(sols, *m, &mut out);
            assert_eq!(out.len(), sols.len());
            for (cand, s) in out.iter().zip(sols) {
                let mut fresh = Vec::new();
                write_onehot(&s.choice, *m, &mut fresh);
                assert_eq!(cand.onehot, fresh, "one-hot of {:?} at m = {m}", s.choice);
                assert_eq!(cand.choice, s.choice);
                assert_eq!(cand.cost, s.cost);
            }
        }
    }

    #[test]
    fn batch_matches_per_call_for_both_mappers() {
        let protos = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) * 7 % 13) as f64 / 13.0);
        let batch = KBestMapper::<f64>::new(3, 2).nearest_batch(&protos, 3);
        assert_eq!(batch.len(), 5);
        for (r, row) in batch.iter().enumerate() {
            assert_eq!(
                row,
                &KBestMapper::<f64>::new(3, 2).nearest(protos.row(r), 3)
            );
        }
        // RelaxMapper's rounding consumes RNG stream, so per-call parity
        // needs identically seeded mappers.
        let batch = RelaxMapper::new(3, 2, StdRng::seed_from_u64(5)).nearest_batch(&protos, 3);
        let mut fresh = RelaxMapper::new(3, 2, StdRng::seed_from_u64(5));
        for (r, row) in batch.iter().enumerate() {
            assert_eq!(row, &fresh.nearest(protos.row(r), 3));
        }
    }

    #[test]
    fn mappers_agree_on_nearest() {
        let proto: Vec<f64> = (0..12).map(|i| ((i * 7) % 12) as f64 / 12.0).collect();
        let mut exact = KBestMapper::new(4, 3);
        let mut approx = RelaxMapper::new(4, 3, StdRng::seed_from_u64(2));
        let a = exact.nearest(&proto, 1);
        let b = approx.nearest(&proto, 1);
        assert_eq!(a[0].choice, b[0].choice);
        assert_eq!(exact.shape(), (4, 3));
    }

    #[test]
    fn hierarchical_singleton_groups_match_flat_exactly() {
        // G = M with one machine per group in index order degenerates to
        // the flat enumeration: identical candidate lists, bit for bit.
        let proto: Vec<f64> = (0..24).map(|i| ((i * 5) % 17) as f64 / 17.0).collect();
        let mut flat = KBestMapper::<f64>::new(4, 6);
        let mut hier = HierarchicalMapper::<f64>::uniform(4, 6, 6, 0);
        assert_eq!(hier.groups().len(), 6);
        assert_eq!(hier.nearest(&proto, 8), flat.nearest(&proto, 8));
    }

    #[test]
    fn hierarchical_rank_one_equals_flat_rank_one() {
        // The group-min of per-group minima is the row-wise minimum, so
        // rank 1 is always the flat rank 1 regardless of grouping.
        let proto: Vec<f64> = (0..40).map(|i| ((i * 11) % 23) as f64 / 23.0).collect();
        let mut flat = KBestMapper::<f64>::new(5, 8);
        for g in [1, 2, 3, 4] {
            let mut hier = HierarchicalMapper::<f64>::uniform(5, 8, g, 0);
            let h = hier.nearest(&proto, 3);
            let f = flat.nearest(&proto, 3);
            assert_eq!(h[0].choice, f[0].choice, "g = {g}");
            assert!((h[0].cost - f[0].cost).abs() < 1e-12);
        }
    }

    #[test]
    fn hierarchical_prunes_to_top_p() {
        let proto: Vec<f64> = (0..18).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let mut hier = HierarchicalMapper::<f64>::uniform(3, 6, 3, 2);
        let c = hier.nearest(&proto, 8);
        assert_eq!(c.len(), 2, "top-P truncation");
        assert!(c[0].cost <= c[1].cost);
        // Same query unpruned: the pruned list is its prefix.
        let full = HierarchicalMapper::<f64>::uniform(3, 6, 3, 0).nearest(&proto, 8);
        assert_eq!(c[..], full[..2]);
    }

    #[test]
    fn hierarchical_warm_queries_reuse_buffers() {
        let proto_a: Vec<f64> = (0..18).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let proto_b: Vec<f64> = (0..18).map(|i| ((i * 5) % 11) as f64 / 11.0).collect();
        let mut hier = HierarchicalMapper::<f64>::uniform(3, 6, 2, 0);
        let mut out = Vec::new();
        hier.nearest_into(&proto_a, 4, &mut out);
        let onehot_ptrs: Vec<*const f64> = out.iter().map(|c| c.onehot.as_ptr()).collect();
        hier.nearest_into(&proto_b, 4, &mut out);
        assert_eq!(
            out,
            HierarchicalMapper::<f64>::uniform(3, 6, 2, 0).nearest(&proto_b, 4)
        );
        for (cand, ptr) in out.iter().zip(&onehot_ptrs) {
            assert_eq!(cand.onehot.as_ptr(), *ptr, "one-hot buffer reallocated");
        }
    }

    #[test]
    fn scalable_mapper_picks_backend_from_knobs() {
        let proto: Vec<f64> = (0..12).map(|i| ((i * 7) % 12) as f64 / 12.0).collect();
        let mut flat = ScalableMapper::<f64>::from_knobs(4, 3, 0, 0);
        let mut hier = ScalableMapper::<f64>::from_knobs(4, 3, 2, 2);
        assert!(matches!(flat, ScalableMapper::Flat(_)));
        assert!(matches!(hier, ScalableMapper::Hier(_)));
        assert_eq!(flat.shape(), (4, 3));
        assert_eq!(hier.shape(), (4, 3));
        assert_eq!(
            flat.nearest(&proto, 2),
            KBestMapper::<f64>::new(4, 3).nearest(&proto, 2)
        );
        assert_eq!(hier.nearest(&proto, 5).len(), 2, "prune applies");
    }

    #[test]
    #[should_panic(expected = "in two groups")]
    fn hierarchical_rejects_overlapping_groups() {
        let _ = HierarchicalMapper::<f64>::new(2, 3, vec![vec![0, 1], vec![1, 2]], 0);
    }

    #[test]
    #[should_panic(expected = "cover every machine")]
    fn hierarchical_rejects_partial_cover() {
        let _ = HierarchicalMapper::<f64>::new(2, 3, vec![vec![0], vec![2]], 0);
    }

    mod hierarchical_properties {
        use super::*;
        use proptest::prelude::*;

        /// A random shape, proto-action and group count with N ≤ 6, M ≤ 8.
        fn small_instance() -> impl Strategy<Value = (usize, usize, usize, usize, Vec<f64>)> {
            (1usize..=6, 1usize..=8).prop_flat_map(|(n, m)| {
                (
                    Just(n),
                    Just(m),
                    1usize..=m,
                    0usize..=4,
                    prop::collection::vec(-1.0..2.0f64, n * m),
                )
            })
        }

        proptest! {
            /// The hierarchical mapper always returns feasible candidates
            /// whose stated cost is the true flat cost of the choice, and
            /// its best candidate costs exactly the flat optimum (the
            /// group decomposition is lossless at rank 1).
            #[test]
            fn feasible_and_rank_one_exact((n, m, g, prune, proto) in small_instance()) {
                let mut hier = HierarchicalMapper::<f64>::uniform(n, m, g, prune);
                let mut flat = KBestMapper::<f64>::new(n, m);
                let h = hier.nearest(&proto, 6);
                let f = flat.nearest(&proto, 6);
                prop_assert!(!h.is_empty());
                if prune > 0 {
                    prop_assert!(h.len() <= prune);
                }
                let costs = dss_miqp::CostMatrix::from_proto_action(&proto, n, m);
                for cand in &h {
                    prop_assert_eq!(cand.choice.len(), n);
                    for &j in &cand.choice {
                        prop_assert!(j < m, "machine out of range");
                    }
                    // Stated cost == true flat cost of the refined choice.
                    let true_cost = costs.total(&cand.choice);
                    prop_assert!((cand.cost - true_cost).abs() < 1e-9);
                    // Bounded suboptimality: no candidate can beat the flat
                    // optimum.
                    prop_assert!(cand.cost >= f[0].cost - 1e-9);
                }
                // Lossless at rank 1.
                prop_assert!((h[0].cost - f[0].cost).abs() < 1e-9,
                    "hier best {} vs flat best {}", h[0].cost, f[0].cost);
                prop_assert!(h.windows(2).all(|w| w[0].cost <= w[1].cost + 1e-12));
            }

            /// With one machine per group the decomposition is the identity:
            /// candidate lists match the flat mapper bit for bit.
            #[test]
            fn singleton_groups_are_flat((n, m, _g, _p, proto) in small_instance()) {
                let mut hier = HierarchicalMapper::<f64>::uniform(n, m, m, 0);
                let mut flat = KBestMapper::<f64>::new(n, m);
                prop_assert_eq!(hier.nearest(&proto, 5), flat.nearest(&proto, 5));
            }
        }
    }
}
