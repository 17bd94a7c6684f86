//! First-order optimizers: SGD with momentum, and Adam.
//!
//! Both maintain per-parameter-block state keyed by a caller-supplied block
//! id (the [`crate::Mlp`] uses `layer_index * 2 + {0: weights, 1: bias}`),
//! so a single optimizer instance can drive a whole network.
//!
//! A block's gradient comes full width ([`Optimizer::update`]) or held
//! over a set of columns of its rows ([`Optimizer::update_cols`]: a layer's
//! weight gradient over the minibatch's support). Both run one per-element
//! step per optimizer over the same values, so the column form is bit for
//! bit the full-width update with `+0` in the columns left out.

use std::collections::HashMap;
use std::ops::Range;

use crate::matrix::for_each_run;
use crate::scalar::{Elem, Scalar};

/// A gradient-descent update rule over flat parameter blocks of element
/// type `S` (hyperparameters stay `f64`; they are converted once per
/// block update, never per element).
pub trait Optimizer<S: Scalar = Elem> {
    /// Applies one descent step to `params` given `grads`.
    ///
    /// `key` identifies the parameter block so stateful optimizers can keep
    /// per-block moments.
    fn update(&mut self, key: usize, params: &mut [S], grads: &[S]);

    /// [`Optimizer::update`] for a block of `width`-long parameter rows
    /// whose gradient is held over the ascending columns `cols` alone:
    /// `grads` is `rows × cols.len()`, row-major, and every other column's
    /// gradient is `+0`. Each row's gradient is scattered into a reused
    /// row of `+0` and run through the per-element step `update` runs, so
    /// the result is bit for bit `update` over the zero-filled full
    /// gradient, which never exists.
    ///
    /// # Panics
    /// Panics when `params` is not whole rows, `grads` is not
    /// `rows × cols.len()`, or a column is out of range.
    fn update_cols(
        &mut self,
        key: usize,
        params: &mut [S],
        width: usize,
        cols: &[usize],
        grads: &[S],
    );

    /// Resets all optimizer state (moments, step counters).
    fn reset(&mut self);
}

/// What [`Optimizer::update_cols`] scatters a gradient row through.
#[derive(Debug, Clone, Default)]
struct RowScratch<S: Scalar> {
    /// One parameter row's gradient: all `+0` between calls.
    row: Vec<S>,
    /// The held columns as runs `(position, first column, length)`.
    runs: Vec<(usize, usize, usize)>,
}

/// Runs `step(span, grads)` over a block of `len` parameters: once over
/// the whole block when its gradient is full (`held` is `None`: one per
/// parameter) or held over every column of its `width`-long rows, and
/// otherwise a row at a time, the row's gradient over `cols` copied into
/// `row` (`width` long, all `+0` between calls) a run of consecutive
/// columns at a time.
fn for_each_row<S: Scalar>(
    RowScratch { row, runs }: &mut RowScratch<S>,
    len: usize,
    held: Option<(usize, &[usize])>,
    grads: &[S],
    mut step: impl FnMut(Range<usize>, &[S]),
) {
    let Some((width, cols)) = held else {
        assert_eq!(len, grads.len(), "param/grad length mismatch");
        return step(0..len, grads);
    };
    assert!(
        width > 0 && len.is_multiple_of(width),
        "parameter block is not whole rows"
    );
    let (rows, n) = (len / width, cols.len());
    assert_eq!(grads.len(), rows * n, "gradient is not rows × cols");
    assert!(
        cols.last().is_none_or(|&c| c < width),
        "gradient column range"
    );
    // Reserved even for a full gradient, so that a later partial one in
    // a warm loop does not allocate (runs are at least a column apart).
    row.reserve(width.saturating_sub(row.len()));
    runs.clear();
    runs.reserve(width.div_ceil(2));
    if n == width {
        // Ascending and in range: every column, so the gradient is full.
        return step(0..len, grads);
    }
    row.resize(width, S::ZERO);
    for_each_run(cols, |j, c, len| runs.push((j, c, len)));
    for r in 0..rows {
        // Every row is held over the same columns, so each scatter
        // overwrites exactly the previous row's entries.
        let grads = &grads[r * n..(r + 1) * n];
        for &(j, c, len) in runs.iter() {
            // A one-column run (the one-hot blocks' usual case) is one
            // store, not a `memcpy` call.
            if len == 1 {
                row[c] = grads[j];
            } else {
                row[c..c + len].copy_from_slice(&grads[j..j + len]);
            }
        }
        step(r * width..(r + 1) * width, row);
    }
    for &(_, c, len) in runs.iter() {
        row[c..c + len].fill(S::ZERO);
    }
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd<S: Scalar = Elem> {
    lr: f64,
    momentum: f64,
    velocity: HashMap<usize, Vec<S>>,
    scratch: RowScratch<S>,
}

impl<S: Scalar> Sgd<S> {
    /// `lr` is the learning rate; `momentum` in `[0, 1)` (0 disables it).
    ///
    /// # Panics
    /// Panics on non-positive `lr` or `momentum` outside `[0, 1)`.
    pub fn new(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
            scratch: RowScratch::default(),
        }
    }

    /// Plain SGD without momentum.
    pub fn plain(lr: f64) -> Self {
        Self::new(lr, 0.0)
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// One step over a block whose gradient is full (`held` is `None`) or
    /// held over columns of its rows (`Some((width, cols))`).
    fn step(&mut self, key: usize, params: &mut [S], held: Option<(usize, &[usize])>, grads: &[S]) {
        let len = params.len();
        let (lr, momentum) = (S::from_f64(self.lr), S::from_f64(self.momentum));
        let mut velocity = (self.momentum != 0.0).then(|| {
            let v = self
                .velocity
                .entry(key)
                .or_insert_with(|| vec![S::ZERO; len]);
            assert_eq!(v.len(), len, "block size changed under key");
            v
        });
        for_each_row(&mut self.scratch, len, held, grads, |span, grads| {
            let params = params[span.clone()].iter_mut().zip(grads);
            match velocity.as_mut() {
                None => params.for_each(|(p, &g)| *p -= lr * g),
                Some(v) => {
                    for ((p, &g), vel) in params.zip(&mut v[span]) {
                        *vel = momentum * *vel + g;
                        *p -= lr * *vel;
                    }
                }
            }
        });
    }
}

impl<S: Scalar> Optimizer<S> for Sgd<S> {
    fn update(&mut self, key: usize, params: &mut [S], grads: &[S]) {
        self.step(key, params, None, grads);
    }

    fn update_cols(
        &mut self,
        key: usize,
        params: &mut [S],
        width: usize,
        cols: &[usize],
        grads: &[S],
    ) {
        self.step(key, params, Some((width, cols)), grads);
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }
}

/// Adam (Kingma & Ba). Step counts are tracked per block.
#[derive(Debug, Clone)]
pub struct Adam<S: Scalar = Elem> {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    state: HashMap<usize, AdamState<S>>,
    scratch: RowScratch<S>,
}

#[derive(Debug, Clone)]
struct AdamState<S: Scalar> {
    m: Vec<S>,
    v: Vec<S>,
    t: u64,
}

impl<S: Scalar> Adam<S> {
    /// Adam with standard betas (0.9, 0.999) and `eps = 1e-8`.
    ///
    /// # Panics
    /// Panics on non-positive `lr`.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    /// Panics on out-of-range hyperparameters.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        assert!(eps > 0.0);
        Self {
            lr,
            beta1,
            beta2,
            eps,
            state: HashMap::new(),
            scratch: RowScratch::default(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Snapshot of the per-block moment state for checkpointing, sorted
    /// by block id: `(block, m, v, t)`. Moments are widened to `f64`
    /// (exact for every [`Scalar`] element type), so the snapshot is
    /// element-type-independent on the wire.
    pub fn export_moments(&self) -> Vec<(usize, Vec<f64>, Vec<f64>, u64)> {
        let mut blocks: Vec<_> = self
            .state
            .iter()
            .map(|(&k, st)| {
                (
                    k,
                    st.m.iter().map(|x| x.to_f64()).collect(),
                    st.v.iter().map(|x| x.to_f64()).collect(),
                    st.t,
                )
            })
            .collect();
        blocks.sort_by_key(|b| b.0);
        blocks
    }

    /// Replaces all moment state with a snapshot captured by
    /// [`Adam::export_moments`]. A restored optimizer continues the
    /// original's update sequence bit-for-bit.
    ///
    /// # Panics
    /// Panics when a block's `m` and `v` lengths differ.
    pub fn import_moments(&mut self, blocks: Vec<(usize, Vec<f64>, Vec<f64>, u64)>) {
        self.state.clear();
        for (key, m, v, t) in blocks {
            assert_eq!(m.len(), v.len(), "moment length mismatch in block {key}");
            self.state.insert(
                key,
                AdamState {
                    m: m.into_iter().map(S::from_f64).collect(),
                    v: v.into_iter().map(S::from_f64).collect(),
                    t,
                },
            );
        }
    }

    /// One step over a block whose gradient is full (`held` is `None`) or
    /// held over columns of its rows (`Some((width, cols))`).
    fn step(&mut self, key: usize, params: &mut [S], held: Option<(usize, &[usize])>, grads: &[S]) {
        let len = params.len();
        let st = self.state.entry(key).or_insert_with(|| AdamState {
            m: vec![S::ZERO; len],
            v: vec![S::ZERO; len],
            t: 0,
        });
        assert_eq!(st.m.len(), len, "block size changed under key");
        st.t += 1;
        // Bias corrections stay in f64 (powi over a u64 step count); the
        // per-element loop runs entirely in `S`.
        let lr = S::from_f64(self.lr);
        let beta1 = S::from_f64(self.beta1);
        let beta2 = S::from_f64(self.beta2);
        let (c1, c2) = (S::ONE - beta1, S::ONE - beta2);
        let eps = S::from_f64(self.eps);
        let bc1 = S::from_f64(1.0 - self.beta1.powi(st.t as i32));
        let bc2 = S::from_f64(1.0 - self.beta2.powi(st.t as i32));
        for_each_row(&mut self.scratch, len, held, grads, |span, grads| {
            // Zipped, not indexed: with no bounds checks in the body the
            // loop vectorizes (elementwise ops only, so lanes round as
            // scalars do).
            let moments = st.m[span.clone()].iter_mut().zip(&mut st.v[span.clone()]);
            for ((p, &g), (m, v)) in params[span].iter_mut().zip(grads).zip(moments) {
                *m = beta1 * *m + c1 * g;
                *v = beta2 * *v + c2 * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }
}

impl<S: Scalar> Optimizer<S> for Adam<S> {
    fn update(&mut self, key: usize, params: &mut [S], grads: &[S]) {
        self.step(key, params, None, grads);
    }

    fn update_cols(
        &mut self,
        key: usize,
        params: &mut [S],
        width: usize,
        cols: &[usize],
        grads: &[S],
    ) {
        self.step(key, params, Some((width, cols)), grads);
    }

    fn reset(&mut self) {
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 with each optimizer.
    fn descend(opt: &mut impl Optimizer<f64>, steps: usize) -> f64 {
        let mut x = [0.0f64];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::plain(0.1);
        let x = descend(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-6, "{x}");
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = Sgd::plain(0.01);
        let mut heavy = Sgd::new(0.01, 0.9);
        let slow = descend(&mut plain, 50);
        let fast = descend(&mut heavy, 50);
        assert!((fast - 3.0).abs() < (slow - 3.0).abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let x = descend(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-3, "{x}");
    }

    #[test]
    fn adam_state_separated_by_key() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0f64];
        let mut b = [0.0f64];
        // Drive `a` hard, then check `b`'s first step is the fresh-state step
        // (bias-corrected Adam's first step is exactly lr in magnitude).
        for _ in 0..10 {
            opt.update(0, &mut a, &[1.0]);
        }
        opt.update(1, &mut b, &[1.0]);
        assert!((b[0] + 0.1).abs() < 1e-9, "{}", b[0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f64];
        opt.update(0, &mut x, &[1.0]);
        opt.reset();
        let mut y = [0.0f64];
        opt.update(0, &mut y, &[1.0]);
        assert!((x[0] - y[0]).abs() < 1e-12);
    }

    #[test]
    fn adam_moment_round_trip_continues_bit_identically() {
        // Drive two blocks, snapshot, keep training both the original and
        // a restored copy in lockstep: every parameter stays bit-equal.
        let mut opt = Adam::new(0.05);
        let mut x = [0.0f64, 1.0];
        let mut y = [2.0f64];
        for i in 0..7 {
            opt.update(0, &mut x, &[0.3 + i as f64 * 0.1, -0.2]);
            opt.update(3, &mut y, &[1.0 / (i + 1) as f64]);
        }
        let blocks = opt.export_moments();
        assert_eq!(blocks.len(), 2);
        assert_eq!((blocks[0].0, blocks[1].0), (0, 3), "sorted by block id");
        assert_eq!(blocks[0].3, 7, "step count captured");

        let mut restored = Adam::new(0.05);
        restored.import_moments(blocks);
        let (mut x2, mut y2) = (x, y);
        for i in 0..9 {
            let gx = [0.05 * i as f64, 0.4];
            let gy = [-0.7];
            opt.update(0, &mut x, &gx);
            restored.update(0, &mut x2, &gx);
            opt.update(3, &mut y, &gy);
            restored.update(3, &mut y2, &gy);
        }
        assert_eq!(x[0].to_bits(), x2[0].to_bits());
        assert_eq!(x[1].to_bits(), x2[1].to_bits());
        assert_eq!(y[0].to_bits(), y2[0].to_bits());
    }

    /// The update written with indices, as the reference for the zipped
    /// loop: same per-element expression, one element at a time.
    fn adam_indexed_reference<S: Scalar>(
        hp: (f64, f64, f64, f64),
        t: u64,
        params: &mut [S],
        grads: &[S],
        m: &mut [S],
        v: &mut [S],
    ) {
        let (lr, b1, b2, eps) = hp;
        let (beta1, beta2) = (S::from_f64(b1), S::from_f64(b2));
        let (c1, c2) = (S::ONE - beta1, S::ONE - beta2);
        let bc1 = S::from_f64(1.0 - b1.powi(t as i32));
        let bc2 = S::from_f64(1.0 - b2.powi(t as i32));
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + c1 * g;
            v[i] = beta2 * v[i] + c2 * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            params[i] -= S::from_f64(lr) * m_hat / (v_hat.sqrt() + S::from_f64(eps));
        }
    }

    fn adam_matches_indexed_reference<S: Scalar>(seed: u64) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Odd length: the vector body and its scalar tail both run.
        let len = 1031;
        let hp = (3e-3, 0.9, 0.999, 1e-8);
        let mut opt: Adam<S> = Adam::with_betas(hp.0, hp.1, hp.2, hp.3);
        let mut got: Vec<S> = (0..len)
            .map(|_| S::from_f64(rng.random_range(-1.0..1.0)))
            .collect();
        let mut want = got.clone();
        let (mut m, mut v) = (vec![S::ZERO; len], vec![S::ZERO; len]);
        for t in 1..=6 {
            let grads: Vec<S> = (0..len)
                .map(|_| S::from_f64(rng.random_range(-2.0..2.0)))
                .collect();
            opt.update(0, &mut got, &grads);
            adam_indexed_reference(hp, t, &mut want, &grads, &mut m, &mut v);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    a.to_f64().to_bits(),
                    b.to_f64().to_bits(),
                    "step {t} element {i}"
                );
            }
        }
    }

    #[test]
    fn adam_zipped_loop_matches_indexed_reference_bit_for_bit() {
        adam_matches_indexed_reference::<f32>(5);
        adam_matches_indexed_reference::<f64>(6);
    }

    fn bits<S: Scalar>(v: &[S]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// An ascending column set of `width` columns of one of four kinds:
    /// none, every column, fragmented (each column with probability ½), or
    /// one run plus scattered columns.
    fn column_set(kind: usize, width: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
        use rand::RngExt;
        match kind {
            0 => Vec::new(),
            1 => (0..width).collect(),
            2 => (0..width).filter(|_| rng.random_range(0..2) == 0).collect(),
            _ => {
                let start = rng.random_range(0..width);
                let run = start..rng.random_range(start..=width);
                (0..width)
                    .filter(|c| run.contains(c) || rng.random_range(0..5) == 0)
                    .collect()
            }
        }
    }

    /// [`Optimizer::update_cols`] against [`Optimizer::update`] over the
    /// zero-filled full gradient, on twin optimizers, bit for bit: every
    /// parameter after each of six steps, then the optimizer `state`. Each
    /// case drives two blocks of random shapes through one optimizer (so
    /// the scatter row changes width), with a new column set of every kind
    /// each step (columns leave and rejoin the set, as minibatch supports
    /// do) and gradients with exact `+0` and `−0` entries.
    fn column_form_matches_dense<S: Scalar, O: Optimizer<S>>(
        make: impl Fn() -> O,
        state: impl Fn(&O) -> Vec<u64>,
        seed: u64,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for case in 0..24 {
            let (mut got_opt, mut want_opt) = (make(), make());
            let mut blocks: Vec<(usize, Vec<S>, Vec<S>)> = (0..2)
                .map(|_| {
                    let (rows, width): (usize, usize) =
                        (rng.random_range(1..=6), rng.random_range(1..=90));
                    let init: Vec<S> = (0..rows * width)
                        .map(|_| S::from_f64(rng.random_range(-1.0..1.0)))
                        .collect();
                    (width, init.clone(), init)
                })
                .collect();
            for step in 0..6 {
                for (key, (width, got, want)) in blocks.iter_mut().enumerate() {
                    let (width, rows) = (*width, got.len() / *width);
                    let cols = column_set((case + step + key) % 4, width, &mut rng);
                    let grads: Vec<S> = (0..rows * cols.len())
                        .map(|_| match rng.random_range(0..5) {
                            0 => S::from_f64(-0.0),
                            1 => S::ZERO,
                            _ => S::from_f64(rng.random_range(-2.0..2.0)),
                        })
                        .collect();
                    let mut full = vec![S::ZERO; rows * width];
                    for r in 0..rows {
                        for (j, &c) in cols.iter().enumerate() {
                            full[r * width + c] = grads[r * cols.len() + j];
                        }
                    }
                    got_opt.update_cols(key, got, width, &cols, &grads);
                    want_opt.update(key, want, &full);
                    assert_eq!(bits(got), bits(want), "case {case} step {step} block {key}");
                }
            }
            assert_eq!(state(&got_opt), state(&want_opt), "case {case}: state");
        }
    }

    #[test]
    fn column_form_update_matches_the_dense_update_bit_for_bit() {
        fn moments<S: Scalar>(opt: &Adam<S>) -> Vec<u64> {
            let blocks = opt.export_moments();
            let flat = blocks.iter().flat_map(|(_, m, v, t)| {
                let moments = m.iter().chain(v).map(|x| x.to_bits());
                moments.chain(std::iter::once(*t))
            });
            flat.collect()
        }
        fn velocity<S: Scalar>(opt: &Sgd<S>) -> Vec<u64> {
            let mut keys: Vec<_> = opt.velocity.keys().copied().collect();
            keys.sort_unstable();
            keys.iter().flat_map(|k| bits(&opt.velocity[k])).collect()
        }
        column_form_matches_dense(|| Adam::<f32>::new(1e-2), moments, 1);
        column_form_matches_dense(|| Adam::<f64>::new(1e-2), moments, 2);
        column_form_matches_dense(|| Sgd::<f32>::new(0.05, 0.9), velocity, 3);
        column_form_matches_dense(|| Sgd::<f64>::new(0.05, 0.9), velocity, 4);
        column_form_matches_dense(|| Sgd::<f32>::plain(0.05), velocity, 5);
    }

    #[test]
    #[should_panic(expected = "gradient is not rows × cols")]
    fn column_form_checks_the_gradient_shape() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f64; 6];
        opt.update_cols(0, &mut x, 3, &[0, 2], &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_checked() {
        let mut opt = Sgd::plain(0.1);
        let mut x = [0.0f64; 2];
        opt.update(0, &mut x, &[1.0]);
    }
}
