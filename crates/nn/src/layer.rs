//! A fully-connected layer with persistent scratch for backprop.
//!
//! Earlier revisions cloned the input and output batches on every
//! `forward` call; training at the paper's sizes spent a large share of
//! its time in those allocations. The layer now owns per-layer scratch
//! matrices (`input`, `output`, `dz`, `dx`) that are resized in place, so
//! a steady-state `forward` + `backward` pair allocates nothing.
//!
//! A training forward names the input columns its batch touches (its
//! *support*): the layer packs the `Wᵀ` rows of those columns, keeps the
//! input compacted to them, and the backward's weight gradient covers
//! them alone — every product bit for bit its full-width counterpart, at a
//! cost that follows the support instead of the input width.
//!
//! Gradients follow the support too. A layer holds no gradient until its
//! first backward, so target networks and policy replicas carry none. The
//! weight gradient is then held over the input columns of the forward that
//! produced it (`out × support`, the full width after a plain `forward`);
//! every other column's gradient is `+0` and is never stored, cleared or
//! read. [`Dense::apply_gradients`] hands that compact form to
//! [`Optimizer::update_cols`].

use std::ops::Range;

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::init::xavier_uniform;
use crate::matrix::{for_each_run, matmul_rows_into, transpose_cols_into, Matrix};
use crate::optimizer::Optimizer;
use crate::scalar::{Elem, Scalar};

/// Dense layer `a = act(x Wᵀ + b)`.
///
/// * `w` is `out × in` (each row is one output unit's weights),
/// * `b` is `out`,
/// * `forward` keeps the input batch, compacted to the columns it touches,
///   and the activated output in layer-owned scratch so that `backward`
///   can produce parameter gradients and the input gradient without
///   reallocating.
#[derive(Debug, Clone)]
pub struct Dense<S: Scalar = Elem> {
    w: Matrix<S>,
    b: Vec<S>,
    activation: Activation,
    grad: Grads<S>,
    pack: SupportPack<S>,
    scratch: Scratch<S>,
}

/// A layer's accumulated parameter gradients, allocated by its first
/// backward. The weight gradient is held over the input columns `cols`
/// alone; every other column's gradient is `+0`.
#[derive(Debug, Clone, Default)]
struct Grads<S: Scalar> {
    /// Ascending input columns the weight gradient covers: empty while
    /// every gradient is `+0` (before the first backward, after
    /// `zero_grad`).
    cols: Vec<usize>,
    /// `dL/dW` over `cols` (`out × cols.len()`).
    w: Matrix<S>,
    /// `dL/db` (`out` long; empty before the first backward).
    b: Vec<S>,
}

/// Marks an input column that is not in the support pack.
const NOT_PACKED: u32 = u32::MAX;

/// The layer's *support pack*: `Wᵀ` rows of a set of input columns in the
/// GEMM kernel's layout, so a batch whose nonzeros lie in those columns
/// multiplies `x · Wᵀ` over them alone, and a sparse input row reads one
/// contiguous `out`-wide row per nonzero coordinate. The rows are gathered
/// straight from `W` by one blocked transpose routine
/// (`matrix::transpose_cols_into`): for exactly an ascending column set
/// once the weights changed, and for only the columns the pack lacks
/// otherwise. The set of every input column packs the full transpose.
#[derive(Debug, Clone)]
struct SupportPack<S: Scalar> {
    /// `wt.row(j)` is column `cols[j]` of `W` (`cols.len() × out`).
    wt: Matrix<S>,
    /// The packed input columns: an ascending set, then any columns added
    /// to it over the same weights.
    cols: Vec<usize>,
    /// `pos[c]`: the packed row of input column `c`, or [`NOT_PACKED`].
    pos: Vec<u32>,
    /// Whether `wt` predates the current weights.
    stale: bool,
}

impl<S: Scalar> Default for SupportPack<S> {
    fn default() -> Self {
        Self {
            wt: Matrix::default(),
            cols: Vec::new(),
            pos: Vec::new(),
            stale: true,
        }
    }
}

/// Per-layer training scratch. Every buffer holds its allocation across
/// steps; `live` records whether `forward` has populated them and
/// `grad_live` whether `backward` has populated `dx`.
#[derive(Debug, Clone, Default)]
struct Scratch<S: Scalar> {
    /// Input columns of the last `forward`, ascending.
    cols: Vec<usize>,
    /// `cols` as runs of consecutive columns: `(position in cols, first
    /// column, length)`.
    runs: Vec<(usize, usize, usize)>,
    /// Input batch of the last `forward`, compacted to `cols`
    /// (batch × `cols.len()`).
    input: Matrix<S>,
    /// Activated output of the last `forward` (batch × out).
    output: Matrix<S>,
    /// Pre-activation gradient workspace (batch × out).
    dz: Matrix<S>,
    /// Input-gradient output (batch × in, or batch × the named columns).
    dx: Matrix<S>,
    /// One input row's `(column, value)` nonzeros (`forward_rows`).
    pairs: Vec<(usize, S)>,
    /// `dzᵀ` and `dxᵀ` for the named-column input gradient.
    dzt: Matrix<S>,
    dxt: Matrix<S>,
    /// Whether `input`/`output` hold a forward pass.
    live: bool,
    /// Whether `dx` holds the gradient of the last forward pass.
    grad_live: bool,
}

impl<S: Scalar> Dense<S> {
    /// A new Xavier-initialized layer.
    pub fn new(input: usize, output: usize, activation: Activation, rng: &mut StdRng) -> Self {
        Self::from_parts(
            xavier_uniform(output, input, rng),
            vec![S::ZERO; output],
            activation,
        )
    }

    /// Rebuilds a layer from raw parts (deserialization).
    pub fn from_parts(w: Matrix<S>, b: Vec<S>, activation: Activation) -> Self {
        assert_eq!(w.rows(), b.len(), "bias/weight row mismatch");
        Self {
            w,
            b,
            activation,
            grad: Grads::default(),
            pack: SupportPack::default(),
            scratch: Scratch::default(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.w.cols()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.w.rows()
    }

    /// This layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Weight matrix (out × in).
    pub fn weights(&self) -> &Matrix<S> {
        &self.w
    }

    /// Bias vector.
    pub fn bias(&self) -> &[S] {
        &self.b
    }

    /// Forward pass over a batch (`batch × in` → `batch × out`) over every
    /// input column: [`Dense::forward_support`] with the support `0..in`.
    pub fn forward(&mut self, x: &Matrix<S>) -> &Matrix<S> {
        let cols = self.take_cols(0..self.input_size());
        self.pack_exact(&cols);
        self.keep_input(x, cols);
        self.forward_gemm()
    }

    /// Forward pass over a batch whose nonzero inputs all lie in the
    /// ascending input columns `support` (a superset is fine): one GEMM of
    /// the input compacted to those columns against their packed `Wᵀ`
    /// rows. The compacted input and the activated output stay in layer
    /// scratch for [`Dense::backward`]; no allocation once shapes are warm.
    ///
    /// Bit for bit the dense forward: the GEMM accumulates every output
    /// from `+0` over ascending input index through one FMA chain, and the
    /// columns left out contribute only exact-zero terms, which leave that
    /// chain untouched (weights finite).
    ///
    /// # Panics
    /// Panics on a width mismatch or a support that is not ascending and
    /// in range.
    pub fn forward_support(&mut self, x: &Matrix<S>, support: &[usize]) -> &Matrix<S> {
        let cols = self.take_cols(support.iter().copied());
        self.pack_exact(&cols);
        self.keep_input(x, cols);
        self.forward_gemm()
    }

    /// [`Dense::forward_support`] with each output row accumulated from its
    /// own nonzeros over the support pack, as
    /// [`Dense::accumulate_packed_rows`] then [`Dense::finish_row`] would:
    /// for a batch of one-hot rows this reads a few `Wᵀ` rows per row
    /// where the GEMM multiplies the whole union support, and it packs
    /// only the support's columns the pack lacks while the weights are
    /// unchanged. The same output bits and the same backward as
    /// `forward_support`.
    ///
    /// # Panics
    /// As [`Dense::forward_support`].
    pub fn forward_rows(&mut self, x: &Matrix<S>, support: &[usize]) -> &Matrix<S> {
        let cols = self.take_cols(support.iter().copied());
        self.pack_support(&cols);
        self.keep_input(x, cols);
        let Scratch {
            cols,
            input,
            output,
            pairs,
            ..
        } = &mut self.scratch;
        output.resize(input.rows(), self.w.rows());
        pairs.reserve(self.w.cols());
        for r in 0..input.rows() {
            pairs.clear();
            push_nonzeros(input.row(r), cols, pairs);
            let acc = output.row_mut(r);
            acc.fill(S::ZERO);
            accumulate_pack_rows(&self.pack, pairs, acc);
            self.activation.apply_row(acc, &self.b);
        }
        self.scratch.live = true;
        self.scratch.grad_live = false;
        &self.scratch.output
    }

    /// The scratch column buffer, refilled with `cols`.
    fn take_cols(&mut self, cols: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut buf = std::mem::take(&mut self.scratch.cols);
        buf.clear();
        buf.reserve(self.input_size());
        buf.extend(cols);
        buf
    }

    /// Keeps `x` compacted to the ascending columns `cols` (copied a run of
    /// consecutive columns at a time) for the backward.
    fn keep_input(&mut self, x: &Matrix<S>, cols: Vec<usize>) {
        assert_eq!(x.cols(), self.input_size(), "layer input width");
        let Scratch { input, runs, .. } = &mut self.scratch;
        runs.clear();
        // Runs are separated by at least one column.
        runs.reserve(x.cols().div_ceil(2));
        for_each_run(&cols, |j, c, len| runs.push((j, c, len)));
        // Reserved for the full width, like the pack: untouched beyond the
        // support, so only address space.
        input.reserve(x.rows() * x.cols());
        input.resize(x.rows(), cols.len());
        for r in 0..x.rows() {
            let (src, dst) = (x.row(r), input.row_mut(r));
            for &(j, c, len) in runs.iter() {
                dst[j..j + len].copy_from_slice(&src[c..c + len]);
            }
        }
        self.scratch.cols = cols;
    }

    /// The kept input times the exact support pack, with the epilogue.
    fn forward_gemm(&mut self) -> &Matrix<S> {
        self.scratch.input.matmul_bias_act_into(
            &self.pack.wt,
            &self.b,
            self.activation,
            &mut self.scratch.output,
        );
        self.scratch.live = true;
        self.scratch.grad_live = false;
        &self.scratch.output
    }

    /// Makes the support pack hold `Wᵀ` rows of the current weights for
    /// every column of the ascending `cols`. Over stale weights the pack is
    /// rebuilt for exactly `cols`; over current ones only the columns it
    /// lacks are added (after the rows it has). Rows are gathered straight
    /// from `W` in the blocked order of a transpose. A caller of
    /// [`Dense::accumulate_packed_rows`] packs the columns it will name.
    ///
    /// # Panics
    /// Panics when `cols` is not strictly ascending or a column is out of
    /// range.
    pub fn pack_support(&mut self, cols: &[usize]) {
        if self.pack.stale {
            return self.repack(cols);
        }
        let (out, width) = (self.w.rows(), self.w.cols());
        check_support(cols, width);
        let SupportPack {
            wt,
            cols: packed,
            pos,
            ..
        } = &mut self.pack;
        let first = packed.len();
        let mut next = first;
        for &c in cols {
            if pos[c] == NOT_PACKED {
                pos[c] = next as u32;
                next += 1;
            }
        }
        if next > first {
            wt.resize(next, out);
            let added = cols.iter().copied().filter(|&c| pos[c] as usize >= first);
            let rows = added.clone().map(|c| (pos[c] as usize, c));
            transpose_cols_into(self.w.data(), out, width, rows, wt.data_mut());
            packed.extend(added);
        }
    }

    /// Makes the support pack hold exactly the ascending `cols`, in order,
    /// for the current weights — the right-hand side of the forward GEMM.
    fn pack_exact(&mut self, cols: &[usize]) {
        if self.pack.stale || self.pack.cols != cols {
            self.repack(cols);
        }
    }

    /// Rebuilds the support pack for exactly the ascending `cols`.
    fn repack(&mut self, cols: &[usize]) {
        let (out, width) = (self.w.rows(), self.w.cols());
        check_support(cols, width);
        let pack = &mut self.pack;
        if pack.pos.len() != width {
            // Reserved once for every column, so that no later support
            // reallocates the pack and a warm step allocates nothing. The
            // full-width reservation is address space: only the rows a
            // support packs are ever written, so resident memory follows
            // the support (it does count as committed memory under strict
            // overcommit accounting).
            pack.pos.clear();
            pack.pos.resize(width, NOT_PACKED);
            pack.cols.reserve(width);
            pack.wt.reserve(width * out);
        }
        for &c in &pack.cols {
            pack.pos[c] = NOT_PACKED;
        }
        for (j, &c) in cols.iter().enumerate() {
            pack.pos[c] = j as u32;
        }
        pack.cols.clear();
        pack.cols.extend_from_slice(cols);
        pack.stale = true;
        self.refresh_pack();
    }

    /// Rebuilds the support pack over its column set if a weight mutation
    /// made it stale.
    fn refresh_pack(&mut self) {
        let pack = &mut self.pack;
        if pack.stale {
            let (out, width) = (self.w.rows(), self.w.cols());
            pack.wt.resize(pack.cols.len(), out);
            let cols = pack.cols.iter().copied().enumerate();
            transpose_cols_into(self.w.data(), out, width, cols, pack.wt.data_mut());
            pack.stale = false;
        }
    }

    /// The activated output of the last [`Dense::forward`].
    ///
    /// # Panics
    /// Panics when called before `forward`.
    pub fn output(&self) -> &Matrix<S> {
        assert!(self.scratch.live, "output before forward");
        &self.scratch.output
    }

    /// The input gradient computed by the last [`Dense::backward`].
    ///
    /// # Panics
    /// Panics when no `backward` has run since the last `forward`.
    pub fn input_grad(&self) -> &Matrix<S> {
        assert!(self.scratch.grad_live, "input_grad before backward");
        &self.scratch.dx
    }

    /// Forward pass without caching (inference only; allocates its
    /// result). Decision-time paths that need zero allocation use
    /// [`Dense::infer_into`] over caller-owned scratch instead.
    pub fn infer(&self, x: &Matrix<S>) -> Matrix<S> {
        let mut z = Matrix::default();
        self.infer_into(x, &mut z);
        z
    }

    /// Cache-free forward into a caller-owned output matrix: the
    /// shared-`&self` inference the allocation-free act path is built on
    /// (the per-call `Wᵀ` pack lands in thread-local scratch, so once
    /// shapes and the pack buffer are warm this allocates nothing).
    pub fn infer_into(&self, x: &Matrix<S>, out: &mut Matrix<S>) {
        assert_eq!(x.cols(), self.input_size(), "layer input width");
        x.matmul_transpose_b_bias_act_into(&self.w, &self.b, self.activation, out);
    }

    /// Single-row inference without the per-call `Wᵀ` pack:
    /// `out = act(x·Wᵀ + b)`, streaming each output unit's contiguous
    /// weight row exactly once. For 1-row batches this replaces
    /// [`Dense::infer_into`]'s pack-then-GEMM (which reads *and* writes the
    /// whole weight matrix per call) with a single read — the win that
    /// makes wide fleet-scale act paths affordable.
    ///
    /// Bitwise identical to `infer_into` on the same row: every output
    /// element accumulates over ascending input index through the same
    /// `mul_add` chain, and the epilogue is the same `act(acc + b)`.
    pub fn infer_row_into(&self, x: &[S], out: &mut Vec<S>) {
        assert_eq!(x.len(), self.input_size(), "layer input width");
        out.clear();
        for o in 0..self.output_size() {
            let row = self.w.row(o);
            let mut acc = S::ZERO;
            for (&xv, &wv) in x.iter().zip(row) {
                acc = xv.mul_add(wv, acc);
            }
            out.push(acc);
        }
        self.activation.apply_row(out, &self.b);
    }

    /// Partial pre-activation accumulate over a subset of input
    /// coordinates: `acc[o] += Σ_{l ∈ nz} x[l]·w[o][l]`. With `nz` the
    /// ascending support of `x`, this skips only exact-zero terms — which
    /// leave the IEEE accumulator untouched — so composing it with
    /// [`Dense::accumulate_hot_cols`] over a later block and
    /// [`Dense::finish_row`] reproduces the dense forward bit for bit
    /// while the work scales with the support, not the input width.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide.
    pub fn accumulate_cols(&self, nz: &[usize], x: &[S], acc: &mut [S]) {
        assert_eq!(acc.len(), self.output_size(), "accumulator width");
        for (o, a) in acc.iter_mut().enumerate() {
            let row = self.w.row(o);
            let mut v = *a;
            for &l in nz {
                v = x[l].mul_add(row[l], v);
            }
            *a = v;
        }
    }

    /// `acc[o] += Σ_{j ∈ hot} w[o][j]` — the exactly-one inputs of a
    /// one-hot block. `fma(1, w, acc)` and `acc + w` round identically,
    /// so this matches the dense chain over the hot columns.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide.
    pub fn accumulate_hot_cols(&self, hot: &[usize], acc: &mut [S]) {
        assert_eq!(acc.len(), self.output_size(), "accumulator width");
        for (o, a) in acc.iter_mut().enumerate() {
            let row = self.w.row(o);
            let mut v = *a;
            for &j in hot {
                v += row[j];
            }
            *a = v;
        }
    }

    /// Continues a pre-activation row over `(column, value)` input pairs:
    /// `acc[o] = fma(value, w[o][column], acc[o])`, pair by pair — what
    /// [`Dense::accumulate_cols`] does over `W`, here over the support
    /// pack's `Wᵀ` rows (refreshed first when stale, as
    /// [`Dense::forward_support`] does), so each pair streams one
    /// contiguous `out`-wide row with the outputs as the vectorized
    /// dimension. Every column named must be in the pack: pass them to
    /// [`Dense::pack_support`] first. That is the right trade when many
    /// rows are scored between weight updates (a minibatch's target
    /// candidates); a single row under `&self` gathers from `W` instead.
    ///
    /// Over the ascending support of an input row, starting from zeros,
    /// this is bit for bit the pre-activation [`Dense::forward`] computes
    /// for that row: the GEMM accumulates every output from `+0` over
    /// ascending input index through one FMA chain, and the skipped
    /// exact-zero terms leave that chain untouched. A one-hot coordinate
    /// is the pair `(column, 1)`.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide or a column is not in
    /// the support pack.
    pub fn accumulate_packed_rows(&mut self, pairs: &[(usize, S)], acc: &mut [S]) {
        assert_eq!(acc.len(), self.output_size(), "accumulator width");
        self.refresh_pack();
        accumulate_pack_rows(&self.pack, pairs, acc);
    }

    /// Applies the layer epilogue to an accumulated pre-activation row in
    /// place: `acc[o] = act(acc[o] + b[o])` — the activation row kernel
    /// the fused GEMM epilogue uses.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide.
    pub fn finish_row(&self, acc: &mut [S]) {
        self.activation.apply_row(acc, &self.b);
    }

    /// Backward pass: given `dL/da` (`batch × out`), accumulates `dL/dW`
    /// and `dL/db` into this layer's gradient buffers and returns `dL/dx`
    /// (borrowed from layer scratch; valid until the next `backward`).
    ///
    /// # Panics
    /// Panics when called before [`Dense::forward`].
    pub fn backward(&mut self, grad_output: &Matrix<S>) -> &Matrix<S> {
        self.backward_parts(grad_output, true, true);
        &self.scratch.dx
    }

    /// [`Dense::backward`] by halves: `params` accumulates `dL/dW` and
    /// `dL/db`, `dx` computes `dL/dx` for [`Dense::input_grad`]. A
    /// parameter update has no use for the first layer's `dL/dx` (a
    /// `batch × in` product against the whole weight matrix) and an input
    /// gradient none for any layer's parameter gradients; what is computed
    /// is bit for bit what the full pass computes. The weight gradient
    /// covers the last forward's input columns only: the others would
    /// receive `+0`.
    ///
    /// # Panics
    /// Panics when called before [`Dense::forward`].
    pub(crate) fn backward_parts(&mut self, grad_output: &Matrix<S>, params: bool, dx: bool) {
        assert!(self.scratch.live, "backward before forward");
        let output = &self.scratch.output;
        assert_eq!(grad_output.rows(), output.rows(), "batch mismatch");
        assert_eq!(grad_output.cols(), self.output_size(), "grad width");

        // dz = da ⊙ act'(z), with act' computed from the cached output.
        let act = self.activation;
        self.scratch
            .dz
            .resize(grad_output.rows(), grad_output.cols());
        for ((d, &g), &o) in self
            .scratch
            .dz
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(output.data())
        {
            *d = g * act.derivative_from_output(o);
        }

        if params {
            // dW += dzᵀ x over the forward's columns (out × cols); db +=
            // column sums of dz. Both accumulate straight into the gradient
            // buffers.
            let widened = self.cover_forward_cols();
            let input = widened.as_ref().unwrap_or(&self.scratch.input);
            self.scratch
                .dz
                .matmul_transpose_a_acc(input, &mut self.grad.w);
            self.scratch.dz.add_column_sums_to(&mut self.grad.b);
        }

        if dx {
            // dx = dz W  (batch × in).
            self.scratch.dz.matmul_into(&self.w, &mut self.scratch.dx);
        }
        self.scratch.grad_live = dx;
    }

    /// Makes the weight gradient cover the last forward's input columns.
    /// A gradient that is all `+0` takes them over, zero-filled; one held
    /// over other columns widens to the union, its values placed at their
    /// columns and `+0` at the added ones. Returns, for the widened case,
    /// the kept input over the union (zero in the columns the forward left
    /// out), so that the accumulation runs over one column set: each
    /// gradient element's chain is then the full-width product's, whose
    /// left-out columns contribute only exact-zero terms.
    fn cover_forward_cols(&mut self) -> Option<Matrix<S>> {
        let (out, width) = (self.output_size(), self.input_size());
        self.grads();
        let (g, s) = (&mut self.grad, &self.scratch);
        if g.cols == s.cols {
            return None;
        }
        if g.cols.is_empty() {
            // Reserved for every column, like the pack and the kept input,
            // so that no later support reallocates; only the first
            // `out × support` elements are ever written, so resident
            // memory follows the support.
            g.cols.reserve(width);
            g.cols.extend_from_slice(&s.cols);
            g.w.reserve(out * width);
            g.w.resize(out, s.cols.len());
            return None;
        }
        // Accumulating over a second support without `zero_grad`: rare
        // (no train step does it), so the union is built in fresh buffers.
        let mut union = [g.cols.as_slice(), s.cols.as_slice()].concat();
        union.sort_unstable();
        union.dedup();
        let w = widen(&g.w, &g.cols, &union);
        let input = widen(&s.input, &s.cols, &union);
        g.cols.clear();
        g.cols.extend_from_slice(&union);
        g.w.copy_from(&w);
        Some(input)
    }

    /// `dL/dx` over the input columns `cols` alone (batch × `cols.len()`),
    /// from the `dz` of the last [`Dense::backward_parts`] — what
    /// [`Dense::input_grad`] holds in those columns, bit for bit: computed
    /// as `dxᵀ = Wᵀ_cols · dzᵀ` over the support pack's rows for `cols`,
    /// which keeps every element's chain over ascending output index.
    ///
    /// # Panics
    /// Panics when no backward has run since the last forward, or `cols`
    /// is not inside that forward's support.
    pub(crate) fn input_grad_cols(&mut self, cols: Range<usize>) -> &Matrix<S> {
        assert!(self.scratch.live, "backward before forward");
        let out = self.output_size();
        let s = &mut self.scratch;
        assert!(
            !self.pack.stale && self.pack.cols == s.cols,
            "the support pack no longer matches the last forward"
        );
        let (h, n) = (s.dz.rows(), cols.len());
        // The forward's columns ascend, so finding the range's first and
        // last column `n − 1` places apart means it holds all of them.
        let first = s.cols.partition_point(|&c| c < cols.start);
        assert!(
            n == 0 || s.cols.get(first + n - 1) == Some(&(cols.end - 1)),
            "input-gradient columns outside the forward's support"
        );
        s.dzt.resize(out, h);
        transpose_cols_into(
            s.dz.data(),
            h,
            out,
            (0..out).map(|c| (c, c)),
            s.dzt.data_mut(),
        );
        let rows = &self.pack.wt.data()[first * out..(first + n) * out];
        matmul_rows_into(rows, n, &s.dzt, &mut s.dxt);
        s.dx.resize(h, n);
        transpose_cols_into(s.dxt.data(), n, h, (0..h).map(|c| (c, c)), s.dx.data_mut());
        s.grad_live = true;
        &s.dx
    }

    /// Clears accumulated gradients: the weight gradient then covers no
    /// column, so this costs `out`, not `out × in`.
    pub fn zero_grad(&mut self) {
        let g = &mut self.grad;
        g.cols.clear();
        g.w.resize(g.w.rows(), 0);
        g.b.fill(S::ZERO);
    }

    /// The gradient buffers, with the bias gradient allocated.
    fn grads(&mut self) -> &mut Grads<S> {
        let out = self.output_size();
        let g = &mut self.grad;
        if g.b.len() != out {
            g.b.resize(out, S::ZERO);
            g.w.resize(out, 0);
        }
        g
    }

    /// The ascending input columns the weight gradient is held over: the
    /// columns of the forward that produced it. Every other column's
    /// gradient is `+0`.
    pub fn grad_cols(&self) -> &[usize] {
        &self.grad.cols
    }

    /// Gradient elements this layer holds, weights then bias: `[0, 0]`
    /// before its first backward, `[out × grad_cols().len(), out]` after.
    pub fn grad_len(&self) -> [usize; 2] {
        [self.grad.w.data().len(), self.grad.b.len()]
    }

    /// Applies the accumulated gradients with `opt`: the weights as block
    /// `key` through [`Optimizer::update_cols`] over [`Dense::grad_cols`],
    /// the bias as block `key + 1`. Invalidates the support pack.
    pub fn apply_gradients(&mut self, opt: &mut impl Optimizer<S>, key: usize) {
        self.grads();
        self.pack.stale = true;
        let (width, g) = (self.w.cols(), &self.grad);
        opt.update_cols(key, self.w.data_mut(), width, &g.cols, g.w.data());
        opt.update(key + 1, &mut self.b, &g.b);
    }

    /// Read-only flat parameter views (weights then bias).
    pub fn params(&self) -> [&[S]; 2] {
        [self.w.data(), &self.b]
    }

    /// Mutable flat gradient views (weights then bias), the weight gradient
    /// over [`Dense::grad_cols`].
    pub fn grads_mut(&mut self) -> [&mut [S]; 2] {
        let g = self.grads();
        [g.w.data_mut(), g.b.as_mut_slice()]
    }

    /// Mutable flat parameter views (weights then bias). Invalidates the
    /// support pack.
    pub fn params_mut(&mut self) -> [&mut [S]; 2] {
        self.pack.stale = true;
        [self.w.data_mut(), self.b.as_mut_slice()]
    }

    /// Soft update toward `source`: `θ := τ·θ_src + (1−τ)·θ`.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn soft_update_from(&mut self, source: &Dense<S>, tau: f64) {
        assert_eq!(self.w.rows(), source.w.rows(), "soft update shape");
        assert_eq!(self.w.cols(), source.w.cols(), "soft update shape");
        self.pack.stale = true;
        let tau = S::from_f64(tau);
        let keep = S::ONE - tau;
        for (t, &s) in self.w.data_mut().iter_mut().zip(source.w.data()) {
            *t = tau * s + keep * *t;
        }
        for (t, &s) in self.b.iter_mut().zip(&source.b) {
            *t = tau * s + keep * *t;
        }
    }

    /// Copies `source`'s weights and bias bit for bit (a hard update; no
    /// arithmetic, so a NaN or infinite destination and a `−0` source
    /// weight copy exactly). Invalidates the support pack.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn copy_params_from(&mut self, source: &Dense<S>) {
        assert_eq!(self.w.rows(), source.w.rows(), "copy shape");
        assert_eq!(self.w.cols(), source.w.cols(), "copy shape");
        self.pack.stale = true;
        self.w.data_mut().copy_from_slice(source.w.data());
        self.b.copy_from_slice(&source.b);
    }
}

/// [`Dense::accumulate_packed_rows`] over a pack whose rows are current.
fn accumulate_pack_rows<S: Scalar>(pack: &SupportPack<S>, pairs: &[(usize, S)], acc: &mut [S]) {
    // Four 16-lane accumulator blocks advance together, so a 64-wide
    // layer reads each `Wᵀ` row once. They are separate fixed-size
    // arrays because that is what the compiler keeps in vector
    // registers across the whole pair list; accumulating in the output
    // slice (or one 64-element array) re-loads and re-stores it per
    // pair: 243 against 151 µs for 256 candidates of 100 hot rows each,
    // 1.56 against 1.25 ms for 64 of 1152 at fleet width (f32, minima
    // of five runs). One block per pass reads every row four times —
    // 1.9 ms at fleet width.
    const LANES: usize = 16;
    const STRIDE: usize = 4 * LANES;
    let out = acc.len();
    let wt = pack.wt.data();
    let pos = &pack.pos;
    let row = |c: usize| -> usize {
        let j = pos[c];
        assert!(j != NOT_PACKED, "column {c} is not in the support pack");
        j as usize * out
    };
    let load = |lanes: &[S]| -> [S; LANES] { lanes.try_into().expect("LANES long") };
    let fma = |block: &mut [S; LANES], v: S, w: &[S]| {
        for (a, &wv) in block.iter_mut().zip(w) {
            *a = v.mul_add(wv, *a);
        }
    };
    let mut strides = acc.chunks_exact_mut(STRIDE);
    let mut o = 0;
    for chunk in &mut strides {
        let mut b0 = load(&chunk[..LANES]);
        let mut b1 = load(&chunk[LANES..2 * LANES]);
        let mut b2 = load(&chunk[2 * LANES..3 * LANES]);
        let mut b3 = load(&chunk[3 * LANES..]);
        for &(c, v) in pairs {
            let w = &wt[row(c) + o..][..STRIDE];
            fma(&mut b0, v, &w[..LANES]);
            fma(&mut b1, v, &w[LANES..2 * LANES]);
            fma(&mut b2, v, &w[2 * LANES..3 * LANES]);
            fma(&mut b3, v, &w[3 * LANES..]);
        }
        chunk[..LANES].copy_from_slice(&b0);
        chunk[LANES..2 * LANES].copy_from_slice(&b1);
        chunk[2 * LANES..3 * LANES].copy_from_slice(&b2);
        chunk[3 * LANES..].copy_from_slice(&b3);
        o += STRIDE;
    }
    let tail = strides.into_remainder();
    for &(c, v) in pairs {
        let w = &wt[row(c) + o..row(c) + out];
        for (a, &wv) in tail.iter_mut().zip(w) {
            *a = v.mul_add(wv, *a);
        }
    }
}

/// Appends `(cols[j], row[j])` for every nonzero `row[j]`, in order. The
/// row is tested 64 entries at a time into a bit mask whose set bits are
/// then walked: 39 against 115 µs with one branch per entry, for 32 rows
/// of 1934 entries at 10 % density.
fn push_nonzeros<S: Scalar>(row: &[S], cols: &[usize], pairs: &mut Vec<(usize, S)>) {
    for (chunk, chunk_cols) in row.chunks(64).zip(cols.chunks(64)) {
        let mut mask = 0u64;
        for (i, &v) in chunk.iter().enumerate() {
            mask |= u64::from(v != S::ZERO) << i;
        }
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            pairs.push((chunk_cols[i], chunk[i]));
            mask &= mask - 1;
        }
    }
}

/// `m`, held over the ascending columns `from`, laid out over the ascending
/// superset `to`: `+0` in the added columns.
fn widen<S: Scalar>(m: &Matrix<S>, from: &[usize], to: &[usize]) -> Matrix<S> {
    let mut out = Matrix::zeros(m.rows(), to.len());
    for (j, c) in from.iter().enumerate() {
        let u = to.binary_search(c).expect("a superset");
        for r in 0..m.rows() {
            out[(r, u)] = m[(r, j)];
        }
    }
    out
}

/// Checks that a support ascends strictly within the input width.
fn check_support(cols: &[usize], width: usize) {
    assert!(u32::try_from(width).is_ok(), "layer too wide to pack");
    assert!(
        cols.windows(2).all(|w| w[0] < w[1]) && cols.last().is_none_or(|&c| c < width),
        "support must ascend within the input width"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = seeded_rng(3);
        let mut layer = Dense::new(4, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4], &[0.5, 0.6, 0.7, 0.8]]);
        let y1 = layer.forward(&x).clone();
        let y2 = layer.infer(&x);
        assert_eq!(y1.rows(), 2);
        assert_eq!(y1.cols(), 2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn identity_layer_is_affine() {
        let mut rng = seeded_rng(3);
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng);
        // Set known weights.
        layer.params_mut()[0].copy_from_slice(&[2.0, -1.0]);
        layer.params_mut()[1].copy_from_slice(&[0.5]);
        let y = layer.forward(&Matrix::row_vector(&[3.0, 4.0]));
        assert!((y[(0, 0)] - (2.0 * 3.0 - 4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn backward_accumulates_until_zeroed() {
        let mut rng = seeded_rng(9);
        let mut layer = Dense::new(3, 2, Activation::Identity, &mut rng);
        let x = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let g = Matrix::row_vector(&[1.0, 1.0]);
        layer.forward(&x);
        layer.backward(&g);
        let first: Vec<f64> = layer.grads_mut()[0].to_vec();
        layer.forward(&x);
        layer.backward(&g);
        let second: Vec<f64> = layer.grads_mut()[0].to_vec();
        for (a, b) in first.iter().zip(&second) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
        layer.zero_grad();
        assert!(layer
            .grads_mut()
            .iter()
            .all(|g| g.iter().all(|&v| v == 0.0)));
        layer.forward(&x);
        layer.backward(&g);
        assert_eq!(layer.grads_mut()[0], first, "accumulation restarts at zero");
    }

    #[test]
    fn soft_update_blends() {
        let mut rng = seeded_rng(1);
        let mut target: Dense<f64> = Dense::new(2, 2, Activation::Tanh, &mut rng);
        let source: Dense<f64> = Dense::new(2, 2, Activation::Tanh, &mut rng);
        let before = target.weights().clone();
        target.soft_update_from(&source, 0.25);
        for i in 0..4 {
            let expect = 0.25 * source.weights().data()[i] + 0.75 * before.data()[i];
            assert!((target.weights().data()[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn input_gradient_for_identity_layer_is_w() {
        let mut rng = seeded_rng(5);
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng);
        layer.params_mut()[0].copy_from_slice(&[3.0, -2.0]);
        layer.forward(&Matrix::row_vector(&[1.0, 1.0]));
        let dx = layer.backward(&Matrix::row_vector(&[1.0]));
        assert_eq!(dx.row(0), &[3.0, -2.0]);
    }

    #[test]
    fn batch_size_changes_are_handled() {
        let mut rng = seeded_rng(8);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let big = Matrix::from_fn(16, 3, |r, c| (r * 3 + c) as f64 * 0.01);
        let small = Matrix::row_vector(&[0.3, -0.1, 0.2]);
        assert_eq!(layer.forward(&big).rows(), 16);
        layer.backward(&Matrix::from_fn(16, 2, |_, _| 1.0));
        assert_eq!(layer.forward(&small).rows(), 1);
        let dx = layer.backward(&Matrix::row_vector(&[1.0, 1.0]));
        assert_eq!((dx.rows(), dx.cols()), (1, 3));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = seeded_rng(2);
        let mut layer = Dense::new(2, 2, Activation::Tanh, &mut rng);
        layer.backward(&Matrix::row_vector(&[1.0, 1.0]));
    }

    fn bitwise_row_paths_match<S: Scalar>(seed: u64) {
        let mut rng = seeded_rng(seed);
        // Wide enough that the packed GEMM takes its real kernel path;
        // output widths on both sides of the packed-row primitive's
        // register block.
        let input = 67usize;
        for (act, output) in [
            (Activation::Tanh, 5usize),
            (Activation::Sigmoid, 64),
            (Activation::Relu, 83),
            (Activation::Identity, 5),
        ] {
            let mut layer: Dense<S> = Dense::new(input, output, act, &mut rng);
            // A row with a dense prefix, an exact-zero stretch, and a
            // one-hot tail — the featurized-control-state shape.
            let mut x = vec![S::ZERO; input];
            for (i, v) in x.iter_mut().enumerate().take(20) {
                *v = S::from_f64(0.07 * i as f64 - 0.5);
            }
            let hot: Vec<usize> = vec![31, 44, 59];
            for &j in &hot {
                x[j] = S::ONE;
            }
            let dense = layer.infer(&Matrix::row_vector(&x));

            let mut row = Vec::new();
            layer.infer_row_into(&x, &mut row);
            assert_eq!(row, dense.row(0), "infer_row_into must match bitwise");

            let nz: Vec<usize> = (0..20).filter(|&l| x[l] != S::ZERO).collect();
            let mut acc = vec![S::ZERO; output];
            layer.accumulate_cols(&nz, &x, &mut acc);
            layer.accumulate_hot_cols(&hot, &mut acc);
            layer.finish_row(&mut acc);
            assert_eq!(acc, dense.row(0), "sparse accumulate must match bitwise");

            // The packed-row primitive against the training forward over a
            // batch tall enough for full register tiles plus a tail row:
            // the prefix shared, each row adding its own hot columns.
            let batch = Matrix::from_fn(9, input, |r, c| {
                if c >= 20 && hot.contains(&(c - r % 3)) {
                    S::ONE
                } else if c < 20 {
                    x[c]
                } else {
                    S::ZERO
                }
            });
            let support: Vec<usize> = (0..input)
                .filter(|&c| (0..batch.rows()).any(|r| batch[(r, c)] != S::ZERO))
                .collect();
            let forward = layer.forward_support(&batch, &support).clone();
            assert_eq!(forward, layer.infer(&batch), "support forward must match");
            let prefix: Vec<(usize, S)> = nz.iter().map(|&l| (l, x[l])).collect();
            let mut shared = vec![S::ZERO; output];
            layer.accumulate_packed_rows(&prefix, &mut shared);
            for r in 0..batch.rows() {
                let hot: Vec<(usize, S)> = hot.iter().map(|&j| (j + r % 3, S::ONE)).collect();
                let mut acc = shared.clone();
                layer.accumulate_packed_rows(&hot, &mut acc);
                layer.finish_row(&mut acc);
                assert_eq!(acc, forward.row(r), "packed rows must match bitwise");
            }
        }
    }

    #[test]
    fn row_and_sparse_paths_are_bitwise_identical_to_the_gemm() {
        bitwise_row_paths_match::<f32>(11);
        bitwise_row_paths_match::<f64>(12);
    }

    /// The dense training passes as they were before the support pack: the
    /// forward over the full-width input and a full `Wᵀ`, `dW += dzᵀ x` and
    /// `db +=` column sums of `dz` over every column, and `dx = dz W`.
    struct DenseReference<S: Scalar> {
        grad_w: Matrix<S>,
        grad_b: Vec<S>,
    }

    impl<S: Scalar> DenseReference<S> {
        fn new(layer: &Dense<S>) -> Self {
            Self {
                grad_w: Matrix::zeros(layer.output_size(), layer.input_size()),
                grad_b: vec![S::ZERO; layer.output_size()],
            }
        }

        /// One forward + backward of `layer`'s current weights; returns the
        /// output and the full input gradient.
        fn step(&mut self, layer: &Dense<S>, x: &Matrix<S>, g: &Matrix<S>) -> [Matrix<S>; 2] {
            let w = layer.weights();
            let wt = Matrix::from_fn(w.cols(), w.rows(), |r, c| w[(c, r)]);
            let mut out = Matrix::default();
            x.matmul_bias_act_into(&wt, layer.bias(), layer.activation(), &mut out);
            let act = layer.activation();
            let mut dz = g.clone();
            for (d, &o) in dz.data_mut().iter_mut().zip(out.data()) {
                *d *= act.derivative_from_output(o);
            }
            dz.matmul_transpose_a_acc(x, &mut self.grad_w);
            dz.add_column_sums_to(&mut self.grad_b);
            let mut dx = Matrix::default();
            dz.matmul_into(w, &mut dx);
            [out, dx]
        }
    }

    /// The layer's weight gradient at full width: the held columns' values,
    /// `+0` in every other column.
    fn dense_grad_w<S: Scalar>(layer: &Dense<S>) -> Matrix<S> {
        let g = &layer.grad;
        let mut dense = Matrix::zeros(layer.output_size(), layer.input_size());
        for (j, &c) in g.cols.iter().enumerate() {
            for o in 0..layer.output_size() {
                dense[(o, c)] = g.w[(o, j)];
            }
        }
        dense
    }

    fn bits<S: Scalar>(v: &[S]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// A batch whose columns are dead (every entry `±0`, some an exact
    /// `−0`) with probability `dead`, live otherwise (random values, exact
    /// ones, and exact zeros of both signs among them); and its support.
    fn sparse_batch<S: Scalar>(
        rows: usize,
        cols: usize,
        dead: f64,
        rng: &mut StdRng,
    ) -> (Matrix<S>, Vec<usize>) {
        use rand::RngExt;
        let live: Vec<bool> = (0..cols)
            .map(|_| rng.random_range(0.0..1.0) >= dead)
            .collect();
        let x = Matrix::from_fn(rows, cols, |_, c| match (live[c], rng.random_range(0..6)) {
            (false, 0) | (true, 0) => S::from_f64(-0.0),
            (false, _) | (true, 1) => S::ZERO,
            (true, 2) => S::ONE,
            _ => S::from_f64(rng.random_range(-1.5..1.5)),
        });
        let support = (0..cols)
            .filter(|&c| (0..rows).any(|r| x[(r, c)] != S::ZERO))
            .collect();
        (x, support)
    }

    /// Forward, weight gradient (accumulated over three backwards without
    /// `zero_grad`), bias gradient and the named-column input gradient of
    /// the support-packed paths against [`DenseReference`], bit for bit:
    /// `forward_rows` over a stale pack, then over the pack it extends,
    /// then `forward_support`.
    fn support_pack_matches_dense<S: Scalar>(
        rows: usize,
        input: usize,
        output: usize,
        dead: f64,
        named: std::ops::Range<usize>,
        seed: u64,
    ) {
        let mut rng = seeded_rng(seed);
        let act = [Activation::Tanh, Activation::Sigmoid, Activation::Identity][seed as usize % 3];
        let mut layer: Dense<S> = Dense::new(input, output, act, &mut rng);
        let mut reference = DenseReference::new(&layer);
        for pass in 0..3 {
            let (x, support) = sparse_batch::<S>(rows, input, dead, &mut rng);
            let g = Matrix::from_fn(rows, output, |r, c| {
                S::from_f64(((r * 31 + c * 7 + pass) as f64 * 0.37).sin())
            });
            // The forward's support must hold the named columns.
            let mut cols = support.clone();
            cols.extend(named.clone());
            cols.sort_unstable();
            cols.dedup();
            let [want_out, want_dx] = reference.step(&layer, &x, &g);
            let out = if pass < 2 {
                layer.forward_rows(&x, &cols).clone()
            } else {
                layer.forward_support(&x, &cols).clone()
            };
            assert_eq!(
                bits(out.data()),
                bits(want_out.data()),
                "output, pass {pass}"
            );
            layer.backward_parts(&g, true, false);
            if pass == 1 {
                // An extended pack no longer lays the columns out in order.
                continue;
            }
            let dx = layer.input_grad_cols(named.clone()).clone();
            let want_dx = Matrix::from_fn(rows, named.len(), |r, c| want_dx[(r, named.start + c)]);
            assert_eq!(bits(dx.data()), bits(want_dx.data()), "dx, pass {pass}");
        }
        assert_eq!(
            bits(dense_grad_w(&layer).data()),
            bits(reference.grad_w.data()),
            "dW"
        );
        assert_eq!(bits(&layer.grad.b), bits(&reference.grad_b), "db");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn case() -> impl Strategy<Value = (usize, usize, usize, f64, usize, usize, u64)> {
            (
                1usize..=13,
                1usize..=80,
                prop_oneof![Just(5usize), Just(64), Just(83)],
                prop_oneof![Just(0.0), Just(0.6), Just(0.95), Just(1.0)],
                0usize..80,
                0usize..6,
                0u64..1 << 32,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn support_pack_matches_the_dense_passes_f32(
                (rows, input, output, dead, at, len, seed) in case()
            ) {
                let start = at % input;
                let named = start..(start + len).min(input);
                support_pack_matches_dense::<f32>(rows, input, output, dead, named, seed);
            }

            #[test]
            fn support_pack_matches_the_dense_passes_f64(
                (rows, input, output, dead, at, len, seed) in case()
            ) {
                let start = at % input;
                let named = start..(start + len).min(input);
                support_pack_matches_dense::<f64>(rows, input, output, dead, named, seed);
            }
        }
    }

    /// The named edge cases: a full support, an empty one (an all-zero
    /// batch), a single column, and a batch of one row.
    #[test]
    fn support_pack_edge_cases_match_the_dense_passes() {
        for (rows, input, dead, named) in [
            (9, 40, 0.0, 0..40),
            (9, 40, 1.0, 0..0),
            (6, 1, 0.0, 0..1),
            (1, 37, 0.5, 30..37),
        ] {
            for output in [5, 64, 83] {
                support_pack_matches_dense::<f32>(rows, input, output, dead, named.clone(), 7);
                support_pack_matches_dense::<f64>(rows, input, output, dead, named.clone(), 8);
            }
        }
    }

    /// Fleet width: a 64 × 294 920 critic first layer (column offsets past
    /// 2¹⁶) at ≈ 5 % support, the named block its action half. Seconds in
    /// a release build, far longer in debug, so CI runs it in release
    /// (`fleet-smoke`).
    #[test]
    #[ignore = "fleet-width layer: run with --release -- --ignored"]
    fn support_pack_matches_the_dense_passes_at_fleet_width() {
        support_pack_matches_dense::<f32>(32, 294_920, 64, 0.95, 0..0, 3);
        support_pack_matches_dense::<f32>(32, 294_920, 64, 0.95, 147_464..294_920, 4);
    }

    /// The pack follows both kinds of change: a new column set over the
    /// same weights, and every weight mutation over the same column set.
    #[test]
    fn support_pack_follows_new_columns_and_new_weights() {
        let mut rng = seeded_rng(21);
        let mut layer: Dense<f32> = Dense::new(50, 16, Activation::Tanh, &mut rng);
        let other: Dense<f32> = Dense::new(50, 16, Activation::Tanh, &mut rng);
        let (x, support) = sparse_batch::<f32>(7, 50, 0.5, &mut rng);
        let (y, y_support) = sparse_batch::<f32>(7, 50, 0.7, &mut rng);
        let check = |layer: &mut Dense<f32>, what: &str| {
            for (x, cols) in [(&x, &support), (&y, &y_support), (&x, &support)] {
                let want = layer.infer(x);
                assert_eq!(layer.forward_support(x, cols), &want, "after {what}");
            }
        };
        check(&mut layer, "construction");
        layer.params_mut()[0][support[0] * 16 % 800] = 3.0;
        check(&mut layer, "params_mut");
        layer.forward_support(&x, &support);
        layer.backward(&Matrix::from_fn(7, 16, |r, c| (r + c) as f32));
        layer.apply_gradients(&mut crate::optimizer::Sgd::plain(0.1), 0);
        check(&mut layer, "apply_gradients");
        layer.soft_update_from(&other, 0.3);
        check(&mut layer, "soft_update_from");
        layer.copy_params_from(&other);
        check(&mut layer, "copy_params_from");
    }

    /// A hard copy is a copy: it overwrites NaN and infinite weights and
    /// keeps a `−0` source weight's sign, which a `τ = 1` soft update
    /// (`1·s + 0·t`) does not.
    #[test]
    fn copy_params_from_is_bitwise_even_over_non_finite_weights() {
        let mut rng = seeded_rng(4);
        let mut source: Dense<f64> = Dense::new(3, 4, Activation::Tanh, &mut rng);
        source.params_mut()[0][5] = -0.0;
        source.params_mut()[1][2] = -0.0;
        let mut dest: Dense<f64> = Dense::new(3, 4, Activation::Tanh, &mut rng);
        for (i, p) in dest.params_mut()[0].iter_mut().enumerate() {
            *p = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0][i % 4];
        }
        dest.params_mut()[1].fill(f64::NAN);
        dest.copy_params_from(&source);
        for (d, s) in dest.params().iter().zip(source.params()) {
            assert_eq!(bits(d), bits(s));
        }
    }
}
