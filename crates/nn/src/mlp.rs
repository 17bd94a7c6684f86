//! Multi-layer perceptron with manual backprop.
//!
//! Training-path calls (`forward`, `forward_rows`, `backward`,
//! `backward_params`, `input_gradient`, and the sparse-input
//! trio `pack_first_layer` + `accumulate_first_layer` +
//! `forward_after_first`) work in per-layer scratch owned by the network or
//! in caller-owned rows, so one full training step allocates nothing once
//! shapes are warm — the property the DRL training loop's throughput rests
//! on. Allocation is confined to the convenience inference API (`infer`,
//! `infer_one`).
//!
//! A caller that knows which input columns its batch touches names them:
//! `forward_rows` (each row from its own nonzeros) and `input_gradient`
//! (one GEMM over those columns) run the first layer over them, a
//! following backward's weight gradient is held over them alone,
//! `input_gradient` computes `∂/∂x` for the columns it is asked for,
//! and the first layer's `Wᵀ` is packed for those columns only — bit for
//! bit the dense computation, at a cost that follows the batch's support
//! instead of the input width.

use std::ops::Range;

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::init::seeded_rng;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::optimizer::Optimizer;
use crate::scalar::{Elem, Scalar};

/// A feed-forward network: a stack of [`Dense`] layers.
///
/// The paper's actor and critic are both `Mlp`s with hidden sizes
/// `[64, 32]` and `tanh` activations.
#[derive(Debug, Clone)]
pub struct Mlp<S: Scalar = Elem> {
    layers: Vec<Dense<S>>,
    /// All-ones seed gradient reused by [`Mlp::input_gradient`].
    ones: Matrix<S>,
}

/// Ping-pong scratch for [`Mlp::infer_with`]: two matrices alternately
/// holding layer inputs and outputs, so a shared-`&self` inference
/// allocates nothing once shapes are warm. One instance per concurrent
/// caller (e.g. per rollout actor).
#[derive(Debug, Clone, Default)]
pub struct InferScratch<S: Scalar = Elem> {
    ping: Matrix<S>,
    pong: Matrix<S>,
}

impl<S: Scalar> Mlp<S> {
    /// Builds a network with the given layer widths.
    ///
    /// `sizes = [in, h1, ..., out]`, `activations.len() == sizes.len() - 1`.
    ///
    /// # Panics
    /// Panics on inconsistent arguments.
    pub fn new(sizes: &[usize], activations: &[Activation], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output widths");
        assert_eq!(
            activations.len(),
            sizes.len() - 1,
            "one activation per layer"
        );
        let mut rng = seeded_rng(seed);
        Self::with_rng(sizes, activations, &mut rng)
    }

    /// Like [`Mlp::new`] but drawing weights from a caller-owned RNG, so
    /// several networks can be initialized from one reproducible stream.
    pub fn with_rng(sizes: &[usize], activations: &[Activation], rng: &mut StdRng) -> Self {
        let layers = sizes
            .windows(2)
            .zip(activations)
            .map(|(w, &act)| Dense::new(w[0], w[1], act, rng))
            .collect();
        Self {
            layers,
            ones: Matrix::zeros(0, 0),
        }
    }

    /// Rebuilds from layers (deserialization).
    ///
    /// # Panics
    /// Panics when consecutive layer widths do not chain.
    pub fn from_layers(layers: Vec<Dense<S>>) -> Self {
        assert!(!layers.is_empty(), "empty network");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_size(),
                pair[1].input_size(),
                "layer widths must chain"
            );
        }
        Self {
            layers,
            ones: Matrix::zeros(0, 0),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers[0].input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers[self.layers.len() - 1].output_size()
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Dense<S>] {
        &self.layers
    }

    /// Mutable layer access (in-crate only; used by gradient checking).
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense<S>] {
        &mut self.layers
    }

    /// Forward pass over a batch, keeping per-layer state for
    /// [`Mlp::backward`]. The returned batch is borrowed from the last
    /// layer's scratch; zero allocations once shapes are warm.
    pub fn forward(&mut self, x: &Matrix<S>) -> &Matrix<S> {
        self.forward_from(0, x);
        self.layers.last().expect("non-empty network").output()
    }

    /// [`Mlp::forward`] over a batch whose nonzero inputs all lie in the
    /// ascending columns `support` (a superset is fine): the first layer
    /// runs [`Dense::forward_support`], so its product, its kept input and
    /// a later backward's weight gradient cover those columns alone. Bit
    /// for bit `forward` over the same batch.
    fn forward_support(&mut self, x: &Matrix<S>, support: &[usize]) -> &Matrix<S> {
        self.layers[0].forward_support(x, support);
        self.forward_rest()
    }

    /// [`Mlp::forward`] over a batch whose nonzero inputs all lie in the
    /// ascending columns `support` (a superset is fine), with the first
    /// layer's output rows accumulated from each input row's own nonzeros
    /// ([`Dense::forward_rows`]) — the form for batches of sparse rows. A
    /// later backward's first-layer weight gradient covers those columns
    /// alone. Bit for bit `forward` over the same batch.
    pub fn forward_rows(&mut self, x: &Matrix<S>, support: &[usize]) -> &Matrix<S> {
        self.layers[0].forward_rows(x, support);
        self.forward_rest()
    }

    /// Layers 2… over the first layer's last output.
    fn forward_rest(&mut self) -> &Matrix<S> {
        let (first, rest) = self.layers.split_at_mut(1);
        let mut input = first[0].output();
        for layer in rest {
            input = layer.forward(input);
        }
        input
    }

    /// Runs layers `start..` over `x`, each reading its predecessor's
    /// scratch output.
    fn forward_from(&mut self, start: usize, x: &Matrix<S>) {
        for i in start..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i);
            let input = if i == start { x } else { done[i - 1].output() };
            rest[0].forward(input);
        }
    }

    /// [`Dense::pack_support`] on the first layer: packs the `Wᵀ` rows of
    /// the ascending input columns that the following
    /// [`Mlp::accumulate_first_layer`] calls will name.
    pub fn pack_first_layer(&mut self, cols: &[usize]) {
        self.layers[0].pack_support(cols);
    }

    /// [`Dense::accumulate_packed_rows`] on the first layer: continues one
    /// first-layer pre-activation row from the `(column, value)` support
    /// of an input row, so a one-hot or otherwise sparse input is never
    /// materialised. Every column must be in the first layer's pack (see
    /// [`Mlp::pack_first_layer`]). Finish the row with the first
    /// layer's [`Dense::finish_row`] and hand the batch of finished rows to
    /// [`Mlp::forward_after_first`].
    pub fn accumulate_first_layer(&mut self, pairs: &[(usize, S)], acc: &mut [S]) {
        self.layers[0].accumulate_packed_rows(pairs, acc);
    }

    /// The rest of [`Mlp::forward`], given the first layer's activated
    /// output batch (`batch × first hidden width`): layers 2… run dense
    /// exactly as `forward` runs them, so with first-layer rows built by
    /// [`Mlp::accumulate_first_layer`] the result equals `forward` over
    /// the dense input bit for bit. The first layer keeps no record of
    /// this pass — it is for forwards that are not differentiated (target
    /// networks).
    ///
    /// # Panics
    /// Panics on a single-layer network or a width mismatch.
    pub fn forward_after_first(&mut self, first_out: &Matrix<S>) -> &Matrix<S> {
        assert!(self.layers.len() > 1, "no layer after the first");
        self.forward_from(1, first_out);
        self.layers.last().expect("non-empty network").output()
    }

    /// Forward pass without caching (inference; allocates its result).
    pub fn infer(&self, x: &Matrix<S>) -> Matrix<S> {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.infer(&h);
        }
        h
    }

    /// Cache-free forward through caller-owned ping-pong scratch — the
    /// shared-`&self` inference of the allocation-free act path: layer
    /// outputs alternate between the two scratch matrices, which resize
    /// in place, so once shapes are warm nothing allocates. The returned
    /// batch borrows from `scratch`.
    pub fn infer_with<'a>(&self, x: &Matrix<S>, scratch: &'a mut InferScratch<S>) -> &'a Matrix<S> {
        let n = self.layers.len();
        self.layers[0].infer_into(x, &mut scratch.ping);
        for i in 1..n {
            let (src, dst) = if i % 2 == 1 {
                (&scratch.ping, &mut scratch.pong)
            } else {
                (&scratch.pong, &mut scratch.ping)
            };
            self.layers[i].infer_into(src, dst);
        }
        if n % 2 == 1 {
            &scratch.ping
        } else {
            &scratch.pong
        }
    }

    /// Convenience single-sample inference.
    pub fn infer_one(&self, x: &[S]) -> Vec<S> {
        self.infer(&Matrix::row_vector(x)).data().to_vec()
    }

    /// Backward pass from `dL/d(output)`; accumulates parameter gradients
    /// and returns `dL/d(input)`. Borrowed from the first layer's scratch.
    pub fn backward(&mut self, grad_output: &Matrix<S>) -> &Matrix<S> {
        self.backward_sweep(grad_output, true, true);
        self.layers[0].input_grad()
    }

    /// [`Mlp::backward`] for a parameter update: the same accumulated
    /// parameter gradients, without the first layer's `dL/d(input)` that
    /// such a caller throws away.
    pub fn backward_params(&mut self, grad_output: &Matrix<S>) {
        self.backward_sweep(grad_output, true, false);
    }

    /// Gradient of the summed output w.r.t. the input columns `cols` — the
    /// quantity the DDPG actor update needs when this network is the
    /// critic and `cols` is its action block. Runs a forward whose first
    /// layer is [`Dense::forward_support`] over `x` and `support` (which
    /// must contain `cols`), then an input-only backward: parameter
    /// gradients are neither read nor written, and the first layer's
    /// `∂/∂x` is computed for `cols` alone (`batch × cols.len()`), bit for
    /// bit those columns of the full input gradient.
    ///
    /// For a scalar-output critic this is `∇_x Q(x)` per batch row.
    ///
    /// # Panics
    /// Panics when `cols` is not inside `support`.
    pub fn input_gradient(
        &mut self,
        x: &Matrix<S>,
        support: &[usize],
        cols: Range<usize>,
    ) -> &Matrix<S> {
        self.forward_support(x, support);
        // Temporarily move the ones-matrix out so the sweep can borrow it;
        // an empty `Matrix` placeholder does not allocate.
        let mut ones = std::mem::replace(&mut self.ones, Matrix::zeros(0, 0));
        ones.resize(x.rows(), self.output_size());
        ones.data_mut().fill(S::ONE);
        self.backward_sweep(&ones, false, false);
        self.ones = ones;
        self.layers[0].input_grad_cols(cols)
    }

    /// Last layer to first; every layer above the first always produces
    /// the `dL/dx` the layer below consumes.
    fn backward_sweep(&mut self, grad_output: &Matrix<S>, params: bool, first_dx: bool) {
        for i in (0..self.layers.len()).rev() {
            let (head, tail) = self.layers.split_at_mut(i + 1);
            let grad = if tail.is_empty() {
                grad_output
            } else {
                tail[0].input_grad()
            };
            head[i].backward_parts(grad, params, i > 0 || first_dx);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Applies accumulated gradients with `opt` (gradient *descent*),
    /// layer `l`'s weights as block `2l` and its bias as `2l + 1`.
    pub fn apply_gradients(&mut self, opt: &mut impl Optimizer<S>) {
        for (li, layer) in self.layers.iter_mut().enumerate() {
            layer.apply_gradients(opt, li * 2);
        }
    }

    /// Clip accumulated gradients to a global L2 norm of `max_norm`;
    /// returns the pre-clip norm. Call between `backward` and
    /// `apply_gradients`. Standard stabilizer for TD training, where one
    /// bad bootstrapped target can produce an outlier gradient.
    ///
    /// # Panics
    /// Panics if `max_norm` is not positive.
    pub fn clip_gradients(&mut self, max_norm: f64) -> f64 {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let mut sq = 0.0f64;
        for layer in &mut self.layers {
            for grads in layer.grads_mut() {
                sq += grads.iter().map(|g| g.to_f64() * g.to_f64()).sum::<f64>();
            }
        }
        let norm = sq.sqrt();
        if norm > max_norm {
            let scale = S::from_f64(max_norm / norm);
            for layer in &mut self.layers {
                for grads in layer.grads_mut() {
                    for g in grads.iter_mut() {
                        *g *= scale;
                    }
                }
            }
        }
        norm
    }

    /// Soft target update: `θ := τ·θ_src + (1−τ)·θ` (paper: τ = 0.01).
    ///
    /// # Panics
    /// Panics when architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp<S>, tau: f64) {
        assert_eq!(self.layers.len(), source.layers.len(), "depth mismatch");
        for (t, s) in self.layers.iter_mut().zip(&source.layers) {
            t.soft_update_from(s, tau);
        }
    }

    /// Copies parameters from `source` bit for bit (hard update: a policy
    /// install, a DQN target sync). Overwrites NaN or infinite weights
    /// too, which a `τ = 1` soft update cannot (`0·∞ = NaN`).
    ///
    /// # Panics
    /// Panics when architectures differ.
    pub fn copy_params_from(&mut self, source: &Mlp<S>) {
        assert_eq!(self.layers.len(), source.layers.len(), "depth mismatch");
        for (t, s) in self.layers.iter_mut().zip(&source.layers) {
            t.copy_params_from(s);
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.input_size() * l.output_size() + l.output_size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss_grad;
    use crate::optimizer::Sgd;

    fn xor_data() -> (Matrix, Matrix) {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        (x, y)
    }

    #[test]
    fn shapes_chain() {
        let net: Mlp<f64> = Mlp::new(
            &[5, 64, 32, 3],
            &[Activation::Tanh, Activation::Tanh, Activation::Identity],
            1,
        );
        assert_eq!(net.input_size(), 5);
        assert_eq!(net.output_size(), 3);
        assert_eq!(net.param_count(), 5 * 64 + 64 + 64 * 32 + 32 + 32 * 3 + 3);
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 1], &[Activation::Tanh, Activation::Sigmoid], 7);
        let mut opt = Sgd::new(0.5, 0.9);
        let mut last = f64::INFINITY;
        for _ in 0..2000 {
            let pred = net.forward(&x);
            let (loss, grad) = mse_loss_grad(pred, &y);
            last = loss;
            net.zero_grad();
            net.backward(&grad);
            net.apply_gradients(&mut opt);
        }
        assert!(last < 0.02, "failed to learn XOR: loss {last}");
    }

    #[test]
    fn infer_matches_forward() {
        let net = Mlp::new(&[3, 4, 2], &[Activation::Tanh, Activation::Identity], 11);
        let x = Matrix::row_vector(&[0.3, -0.2, 0.9]);
        let mut net2 = net.clone();
        assert_eq!(&net.infer(&x), net2.forward(&x));
        assert_eq!(net.infer_one(&[0.3, -0.2, 0.9]), net.infer(&x).data());
    }

    #[test]
    fn infer_with_scratch_matches_infer_for_both_scalars() {
        fn case<S: crate::scalar::Scalar>(depths: &[usize], acts: &[Activation]) {
            let net: Mlp<S> = Mlp::new(depths, acts, 11);
            let x = Matrix::from_fn(3, depths[0], |r, c| {
                S::from_f64((r * depths[0] + c) as f64 * 0.01 - 0.3)
            });
            let mut scratch = InferScratch::default();
            assert_eq!(net.infer_with(&x, &mut scratch), &net.infer(&x));
            // A second call through the same scratch (shape change) too.
            let y = Matrix::from_fn(1, depths[0], |_, c| S::from_f64(c as f64 * 0.1));
            assert_eq!(net.infer_with(&y, &mut scratch), &net.infer(&y));
        }
        // Odd and even layer counts exercise both ping-pong endings.
        let acts3 = [Activation::Tanh, Activation::Tanh, Activation::Identity];
        let acts2 = [Activation::Tanh, Activation::Sigmoid];
        case::<f64>(&[4, 6, 5, 2], &acts3);
        case::<f64>(&[4, 6, 2], &acts2);
        case::<f32>(&[4, 6, 5, 2], &acts3);
        case::<f32>(&[4, 6, 2], &acts2);
    }

    /// Every first-layer path over the supports of a sparse batch —
    /// `forward_support`, `forward_rows`, and `pack_first_layer` +
    /// `accumulate_first_layer` + `forward_after_first` — equals `infer`
    /// over the dense batch bit for bit, over the batch's support and over
    /// a different one with the same weights, and keeps doing so across
    /// every kind of weight update (the first layer's pack must be rebuilt,
    /// not reused).
    #[test]
    fn sparse_first_layer_forward_matches_forward_across_updates() {
        fn case<S: crate::scalar::Scalar>() {
            let acts = [Activation::Tanh, Activation::Tanh, Activation::Identity];
            let mut net: Mlp<S> = Mlp::new(&[23, 70, 6, 3], &acts, 5);
            let other: Mlp<S> = Mlp::new(&[23, 70, 6, 3], &acts, 6);
            let batch = |shift: usize| -> Matrix<S> {
                Matrix::from_fn(5, 23, |r, c| match (r + c + shift) % 4 {
                    0 => S::from_f64(0.1 * c as f64 - 0.9),
                    1 => S::ONE,
                    _ => S::ZERO,
                })
            };
            let (x, y) = (batch(0), batch(3));
            let support = |x: &Matrix<S>| -> Vec<usize> {
                (0..23)
                    .filter(|&c| (0..x.rows()).any(|r| x[(r, c)] != S::ZERO))
                    .collect()
            };
            let mut first_out = Matrix::default();
            let mut check = |net: &mut Mlp<S>, what: &str| {
                for x in [&x, &y, &x] {
                    let want = net.infer(x);
                    let cols = support(x);
                    assert_eq!(net.forward_support(x, &cols), &want, "support, {what}");
                    assert_eq!(net.forward_rows(x, &cols), &want, "rows, {what}");
                    net.pack_first_layer(&cols);
                    first_out.resize(x.rows(), 70);
                    for r in 0..x.rows() {
                        let pairs: Vec<(usize, S)> = (0..23)
                            .filter(|&c| x[(r, c)] != S::ZERO)
                            .map(|c| (c, x[(r, c)]))
                            .collect();
                        let row = first_out.row_mut(r);
                        row.fill(S::ZERO);
                        net.accumulate_first_layer(&pairs, row);
                        net.layers()[0].finish_row(row);
                    }
                    let got = net.forward_after_first(&first_out);
                    assert_eq!(got, &want, "packed rows, {what}");
                }
            };
            check(&mut net, "construction");
            net.layers_mut()[0].params_mut()[0][3] = S::from_f64(7.0);
            check(&mut net, "params_mut");
            net.zero_grad();
            net.backward_params(&Matrix::from_fn(5, 3, |r, c| S::from_f64((r + c) as f64)));
            net.apply_gradients(&mut Sgd::new(0.1, 0.0));
            check(&mut net, "apply_gradients");
            net.soft_update_from(&other, 0.3);
            check(&mut net, "soft_update_from");
            net.copy_params_from(&other);
            check(&mut net, "copy_params_from");
        }
        case::<f32>();
        case::<f64>();
    }

    #[test]
    fn hard_copy_then_soft_update() {
        let src = Mlp::new(&[2, 4, 1], &[Activation::Tanh, Activation::Identity], 1);
        let mut tgt = Mlp::new(&[2, 4, 1], &[Activation::Tanh, Activation::Identity], 2);
        tgt.copy_params_from(&src);
        let x = Matrix::row_vector(&[0.5, -0.5]);
        assert_eq!(src.infer(&x), tgt.infer(&x));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut net = Mlp::new(&[3, 6, 1], &[Activation::Tanh, Activation::Identity], 4);
        let x = vec![0.2, -0.4, 0.7];
        let gx = net
            .input_gradient(&Matrix::row_vector(&x), &[0, 1, 2], 0..3)
            .clone();
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let numeric = (net.infer_one(&xp)[0] - net.infer_one(&xm)[0]) / (2.0 * h);
            assert!(
                (gx[(0, i)] - numeric).abs() < 1e-5,
                "dim {i}: {} vs {numeric}",
                gx[(0, i)]
            );
        }
    }

    #[test]
    fn input_gradient_preserves_param_grads() {
        let mut net = Mlp::new(&[2, 4, 1], &[Activation::Tanh, Activation::Identity], 4);
        // Accumulate some parameter gradients first.
        let x = Matrix::row_vector(&[0.1, 0.2]);
        net.forward(&x);
        net.backward(&Matrix::row_vector(&[1.0]));
        let before: Vec<f64> = net.layers[0].grads_mut()[0].to_vec();
        let _ = net.input_gradient(&x, &[0, 1], 0..2);
        let after: Vec<f64> = net.layers[0].grads_mut()[0].to_vec();
        assert_eq!(before, after);
    }

    fn flat_grads<S: crate::scalar::Scalar>(net: &mut Mlp<S>) -> Vec<u64> {
        let mut bits = Vec::new();
        for layer in &mut net.layers {
            for grads in layer.grads_mut() {
                bits.extend(grads.iter().map(|g| g.to_f64().to_bits()));
            }
        }
        bits
    }

    #[test]
    fn partial_backwards_match_the_full_pass_bit_for_bit() {
        fn case<S: crate::scalar::Scalar>() {
            // Wide enough that the packed GEMM takes its real kernel path.
            let acts = [Activation::Tanh, Activation::Tanh, Activation::Identity];
            let mut full: Mlp<S> = Mlp::new(&[37, 24, 12, 1], &acts, 8);
            let mut part = full.clone();
            let wave = |r: usize, c: usize| S::from_f64(((r * 41 + c * 7) as f64 * 0.37).sin());
            let x: Matrix<S> = Matrix::from_fn(9, 37, wave);
            let seed: Matrix<S> = Matrix::from_fn(9, 1, wave);

            full.forward(&x);
            full.backward(&seed);
            part.forward(&x);
            part.backward_params(&seed);
            let want = flat_grads(&mut full);
            assert_eq!(flat_grads(&mut part), want, "backward_params");

            let mut ones: Matrix<S> = Matrix::zeros(9, 1);
            ones.data_mut().fill(S::ONE);
            full.forward(&x);
            let dx = full.backward(&ones).clone();
            let all: Vec<usize> = (0..37).collect();
            assert_eq!(part.input_gradient(&x, &all, 0..37), &dx, "input_gradient");
            assert_eq!(flat_grads(&mut part), want, "input_gradient wrote grads");
        }
        case::<f32>();
        case::<f64>();
    }

    /// Every parameter gradient at full width as raw bits: each weight
    /// gradient's held columns in place, `+0` in the others.
    fn full_grads<S: crate::scalar::Scalar>(net: &mut Mlp<S>) -> Vec<u64> {
        let mut bits = Vec::new();
        for layer in &mut net.layers {
            let (width, cols) = (layer.input_size(), layer.grad_cols().to_vec());
            let [weights, bias] = layer.grads_mut();
            for o in 0..bias.len() {
                let mut row = vec![S::ZERO; width];
                for (j, &c) in cols.iter().enumerate() {
                    row[c] = weights[o * cols.len() + j];
                }
                bits.extend(row.iter().map(|g| g.to_f64().to_bits()));
            }
            bits.extend(bias.iter().map(|g| g.to_f64().to_bits()));
        }
        bits
    }

    /// `clip_gradients` over a first-layer gradient held at the batch's
    /// support reports the same norm as over the same gradients at full
    /// width, and scales them to the same bits.
    #[test]
    fn clip_gradients_over_the_support_matches_full_width() {
        fn case<S: crate::scalar::Scalar>() {
            let acts = [Activation::Tanh, Activation::Tanh, Activation::Identity];
            let mut sparse: Mlp<S> = Mlp::new(&[40, 24, 12, 1], &acts, 3);
            let mut full = sparse.clone();
            let x: Matrix<S> = Matrix::from_fn(7, 40, |r, c| match (c % 5, (r + c) % 3) {
                (0, 0) => S::ONE,
                (0, _) | (3, 1) => S::from_f64(0.1 * c as f64 - 1.7),
                (1, _) => S::from_f64(-0.0),
                _ => S::ZERO,
            });
            let support: Vec<usize> = (0..40)
                .filter(|&c| (0..7).any(|r| x[(r, c)] != S::ZERO))
                .collect();
            let seed: Matrix<S> = Matrix::from_fn(7, 1, |r, _| S::from_f64(3.0 - r as f64));
            sparse.forward_rows(&x, &support);
            sparse.backward_params(&seed);
            full.forward(&x);
            full.backward_params(&seed);
            assert_eq!(sparse.layers[0].grad_cols(), support);
            assert_eq!(full.layers[0].grad_cols().len(), 40);
            assert_eq!(full_grads(&mut sparse), full_grads(&mut full));

            let norm = full.clip_gradients(f64::MAX);
            assert_eq!(sparse.clip_gradients(f64::MAX).to_bits(), norm.to_bits());
            let clipped = full.clip_gradients(norm / 3.0);
            assert_eq!(clipped.to_bits(), norm.to_bits(), "pre-clip norm");
            assert_eq!(sparse.clip_gradients(norm / 3.0).to_bits(), norm.to_bits());
            assert_eq!(full_grads(&mut sparse), full_grads(&mut full), "scaled");
        }
        case::<f32>();
        case::<f64>();
    }

    /// Gradients exist only where a backward wrote them: a fresh network,
    /// its clone and one rebuilt from parts or bytes hold none; a backward
    /// over a support holds `out × support` first-layer weight-gradient
    /// elements; `zero_grad` drops them again.
    #[test]
    fn gradients_are_held_only_where_a_backward_wrote_them() {
        let acts = [Activation::Tanh, Activation::Identity];
        let mut net: Mlp<f32> = Mlp::new(&[30, 8, 1], &acts, 2);
        let holds_none = |net: &Mlp<f32>| net.layers.iter().all(|l| l.grad_len() == [0, 0]);
        let parts = |net: &Mlp<f32>| -> Mlp<f32> {
            let layers = net
                .layers
                .iter()
                .map(|l| Dense::from_parts(l.weights().clone(), l.bias().to_vec(), l.activation()));
            Mlp::from_layers(layers.collect())
        };
        assert!(holds_none(&net), "fresh");
        assert!(holds_none(&net.clone()), "clone");
        assert!(holds_none(&parts(&net)), "from_parts");
        let bytes = crate::serialize::encode_mlp(&net);
        let decoded: Mlp<f32> = crate::serialize::decode_mlp(&bytes).expect("round trip");
        assert!(holds_none(&decoded), "decoded");

        let support = [2usize, 5, 6, 17];
        let x: Matrix<f32> = Matrix::from_fn(3, 30, |r, c| {
            if support.contains(&c) {
                (r + c) as f32 * 0.1
            } else {
                0.0
            }
        });
        net.forward_rows(&x, &support);
        net.backward_params(&Matrix::from_fn(3, 1, |r, _| r as f32 - 1.0));
        assert_eq!(net.layers[0].grad_cols(), support);
        assert_eq!(net.layers[0].grad_len(), [8 * support.len(), 8]);
        assert_eq!(net.layers[1].grad_len(), [8, 1]);
        assert!(holds_none(&parts(&net)), "from_parts of a trained net");
        net.zero_grad();
        assert_eq!(net.layers[0].grad_len(), [0, 8]);
        assert!(net.layers[0].grad_cols().is_empty());
    }

    fn grad_norm(net: &mut Mlp<f64>) -> f64 {
        let mut sq = 0.0;
        for layer in &mut net.layers {
            for grads in layer.grads_mut() {
                sq += grads.iter().map(|g| g * g).sum::<f64>();
            }
        }
        sq.sqrt()
    }

    #[test]
    fn clip_gradients_scales_down_to_max_norm() {
        let mut net = Mlp::new(&[2, 4, 1], &[Activation::Tanh, Activation::Identity], 4);
        let x = Matrix::row_vector(&[0.3, -0.4]);
        net.forward(&x);
        net.backward(&Matrix::row_vector(&[100.0])); // huge loss gradient
        let before = grad_norm(&mut net);
        assert!(before > 0.5);
        let reported = net.clip_gradients(0.5);
        assert!((reported - before).abs() < 1e-9, "returns pre-clip norm");
        let after = grad_norm(&mut net);
        assert!(
            (after - 0.5).abs() < 1e-9,
            "norm clipped to max, got {after}"
        );
    }

    #[test]
    fn clip_gradients_is_identity_under_threshold() {
        let mut net = Mlp::new(&[2, 4, 1], &[Activation::Tanh, Activation::Identity], 4);
        let x = Matrix::row_vector(&[0.3, -0.4]);
        net.forward(&x);
        net.backward(&Matrix::row_vector(&[1e-3]));
        let before = grad_norm(&mut net);
        net.clip_gradients(1e9);
        let after = grad_norm(&mut net);
        assert_eq!(before, after);
    }
}
