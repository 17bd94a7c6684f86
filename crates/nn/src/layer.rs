//! A fully-connected layer with persistent scratch for backprop.
//!
//! Earlier revisions cloned the input and output batches on every
//! `forward` call; training at the paper's sizes spent a large share of
//! its time in those allocations. The layer now owns per-layer scratch
//! matrices (`input`, `output`, `dz`, `dx`) that are resized in place, so
//! a steady-state `forward` + `backward` pair allocates nothing.

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::init::xavier_uniform;
use crate::matrix::{transpose_into, Matrix};
use crate::scalar::{Elem, Scalar};

/// Dense layer `a = act(x Wᵀ + b)`.
///
/// * `w` is `out × in` (each row is one output unit's weights),
/// * `b` is `out`,
/// * `forward` copies the input batch and the activated output into
///   layer-owned scratch so that `backward` can produce parameter
///   gradients and the input gradient without reallocating.
#[derive(Debug, Clone)]
pub struct Dense<S: Scalar = Elem> {
    w: Matrix<S>,
    b: Vec<S>,
    activation: Activation,
    grad_w: Matrix<S>,
    grad_b: Vec<S>,
    /// Cached `Wᵀ` (in × out) in the GEMM kernel's layout, rebuilt lazily
    /// (one blocked transpose) by the first [`Dense::forward`] or
    /// [`Dense::accumulate_packed_rows`] after a weight mutation, so the
    /// forward product `x · Wᵀ` packs nothing per call and a sparse input
    /// row reads one contiguous `out`-wide row per nonzero coordinate.
    w_packed: Matrix<S>,
    w_packed_stale: bool,
    scratch: Scratch<S>,
}

/// Per-layer training scratch. All four matrices hold their allocation
/// across steps; `live` records whether `forward` has populated them and
/// `grad_live` whether `backward` has populated `dx`.
#[derive(Debug, Clone, Default)]
struct Scratch<S: Scalar> {
    /// Input batch of the last `forward` (batch × in).
    input: Matrix<S>,
    /// Activated output of the last `forward` (batch × out).
    output: Matrix<S>,
    /// Pre-activation gradient workspace (batch × out).
    dz: Matrix<S>,
    /// Input-gradient output (batch × in).
    dx: Matrix<S>,
    /// Whether `input`/`output` hold a forward pass.
    live: bool,
    /// Whether `dx` holds the gradient of the last forward pass.
    grad_live: bool,
}

impl<S: Scalar> Dense<S> {
    /// A new Xavier-initialized layer.
    pub fn new(input: usize, output: usize, activation: Activation, rng: &mut StdRng) -> Self {
        Self {
            w: xavier_uniform(output, input, rng),
            b: vec![S::ZERO; output],
            activation,
            grad_w: Matrix::zeros(output, input),
            grad_b: vec![S::ZERO; output],
            w_packed: Matrix::zeros(0, 0),
            w_packed_stale: true,
            scratch: Scratch::default(),
        }
    }

    /// Rebuilds a layer from raw parts (deserialization).
    pub fn from_parts(w: Matrix<S>, b: Vec<S>, activation: Activation) -> Self {
        assert_eq!(w.rows(), b.len(), "bias/weight row mismatch");
        let grad_w = Matrix::zeros(w.rows(), w.cols());
        let grad_b = vec![S::ZERO; b.len()];
        Self {
            w,
            b,
            activation,
            grad_w,
            grad_b,
            w_packed: Matrix::zeros(0, 0),
            w_packed_stale: true,
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

    /// Forward pass over a batch (`batch × in` → `batch × out`), keeping
    /// the input and activated output in layer scratch for
    /// [`Dense::backward`]. Returns the output; no allocation once shapes
    /// are warm.
    pub fn forward(&mut self, x: &Matrix<S>) -> &Matrix<S> {
        assert_eq!(x.cols(), self.input_size(), "layer input width");
        self.refresh_packed_weights();
        self.scratch.input.copy_from(x);
        x.matmul_bias_act_into(
            &self.w_packed,
            &self.b,
            self.activation,
            &mut self.scratch.output,
        );
        self.scratch.live = true;
        self.scratch.grad_live = false;
        &self.scratch.output
    }

    /// Rebuilds the cached `Wᵀ` if a weight mutation invalidated it.
    fn refresh_packed_weights(&mut self) {
        if self.w_packed_stale {
            let (rows, cols) = (self.w.rows(), self.w.cols());
            self.w_packed.resize(cols, rows);
            transpose_into(self.w.data(), rows, cols, self.w_packed.data_mut());
            self.w_packed_stale = false;
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
            out.push(self.activation.apply(acc + self.b[o]));
        }
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
    /// [`Dense::accumulate_cols`] does over `W`, here over the cached `Wᵀ`
    /// (refreshed first when stale, as [`Dense::forward`] does), so each
    /// pair streams one contiguous `out`-wide row with the outputs as the
    /// vectorized dimension. That is the right trade when many rows are
    /// scored between weight updates (a minibatch's target candidates); a
    /// single row under `&self` gathers from `W` instead.
    ///
    /// Over the ascending support of an input row, starting from zeros,
    /// this is bit for bit the pre-activation [`Dense::forward`] computes
    /// for that row: the GEMM accumulates every output from `+0` over
    /// ascending input index through one FMA chain, and the skipped
    /// exact-zero terms leave that chain untouched. A one-hot coordinate
    /// is the pair `(column, 1)`.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide or a column is out of
    /// range.
    pub fn accumulate_packed_rows(&mut self, pairs: &[(usize, S)], acc: &mut [S]) {
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
        assert_eq!(acc.len(), self.output_size(), "accumulator width");
        self.refresh_packed_weights();
        let out = acc.len();
        let wt = self.w_packed.data();
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
                let w = &wt[c * out + o..][..STRIDE];
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
            let w = &wt[c * out + o..(c + 1) * out];
            for (a, &wv) in tail.iter_mut().zip(w) {
                *a = v.mul_add(wv, *a);
            }
        }
    }

    /// Applies the layer epilogue to an accumulated pre-activation row in
    /// place: `acc[o] = act(acc[o] + b[o])` — the same per-element form
    /// the fused GEMM epilogue uses.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide.
    pub fn finish_row(&self, acc: &mut [S]) {
        assert_eq!(acc.len(), self.output_size(), "accumulator width");
        for (a, &b) in acc.iter_mut().zip(&self.b) {
            *a = self.activation.apply(*a + b);
        }
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
    /// is bit for bit what the full pass computes.
    ///
    /// # Panics
    /// Panics when called before [`Dense::forward`].
    pub(crate) fn backward_parts(&mut self, grad_output: &Matrix<S>, params: bool, dx: bool) {
        assert!(self.scratch.live, "backward before forward");
        let input = &self.scratch.input;
        let output = &self.scratch.output;
        assert_eq!(grad_output.rows(), input.rows(), "batch mismatch");
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
            // dW += dzᵀ x  (out × in); db += column sums of dz. Both
            // accumulate straight into the gradient buffers — no
            // temporaries.
            self.scratch
                .dz
                .matmul_transpose_a_acc(input, &mut self.grad_w);
            self.scratch.dz.add_column_sums_to(&mut self.grad_b);
        }

        if dx {
            // dx = dz W  (batch × in).
            self.scratch.dz.matmul_into(&self.w, &mut self.scratch.dx);
        }
        self.scratch.grad_live = dx;
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.data_mut().fill(S::ZERO);
        self.grad_b.fill(S::ZERO);
    }

    /// (parameters, gradients) flat views — weights then bias. Handing out
    /// mutable weights invalidates the packed-`Wᵀ` cache.
    pub fn params_and_grads(&mut self) -> [(&mut [S], &[S]); 2] {
        self.w_packed_stale = true;
        [
            (self.w.data_mut(), self.grad_w.data()),
            (self.b.as_mut_slice(), self.grad_b.as_slice()),
        ]
    }

    /// Read-only flat parameter views (weights then bias).
    pub fn params(&self) -> [&[S]; 2] {
        [self.w.data(), &self.b]
    }

    /// Mutable flat gradient views (weights then bias).
    pub fn grads_mut(&mut self) -> [&mut [S]; 2] {
        [self.grad_w.data_mut(), self.grad_b.as_mut_slice()]
    }

    /// Mutable flat parameter views (weights then bias). Invalidates the
    /// packed-`Wᵀ` cache.
    pub fn params_mut(&mut self) -> [&mut [S]; 2] {
        self.w_packed_stale = true;
        [self.w.data_mut(), self.b.as_mut_slice()]
    }

    /// Soft update toward `source`: `θ := τ·θ_src + (1−τ)·θ`.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn soft_update_from(&mut self, source: &Dense<S>, tau: f64) {
        assert_eq!(self.w.rows(), source.w.rows(), "soft update shape");
        assert_eq!(self.w.cols(), source.w.cols(), "soft update shape");
        self.w_packed_stale = true;
        let tau = S::from_f64(tau);
        let keep = S::ONE - tau;
        for (t, &s) in self.w.data_mut().iter_mut().zip(source.w.data()) {
            *t = tau * s + keep * *t;
        }
        for (t, &s) in self.b.iter_mut().zip(&source.b) {
            *t = tau * s + keep * *t;
        }
    }
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
        let first: Vec<f64> = layer.params_and_grads()[0].1.to_vec();
        layer.forward(&x);
        layer.backward(&g);
        let second: Vec<f64> = layer.params_and_grads()[0].1.to_vec();
        for (a, b) in first.iter().zip(&second) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
        layer.zero_grad();
        assert!(layer.params_and_grads()[0].1.iter().all(|&v| v == 0.0));
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
            let forward = layer.forward(&batch).clone();
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
}
