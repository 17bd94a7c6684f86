//! First-order optimizers: SGD with momentum, and Adam.
//!
//! Both maintain per-parameter-block state keyed by a caller-supplied block
//! id (the [`crate::Mlp`] uses `layer_index * 2 + {0: weights, 1: bias}`),
//! so a single optimizer instance can drive a whole network.

use std::collections::HashMap;

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

    /// Resets all optimizer state (moments, step counters).
    fn reset(&mut self);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd<S: Scalar = Elem> {
    lr: f64,
    momentum: f64,
    velocity: HashMap<usize, Vec<S>>,
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
}

impl<S: Scalar> Optimizer<S> for Sgd<S> {
    fn update(&mut self, key: usize, params: &mut [S], grads: &[S]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let lr = S::from_f64(self.lr);
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= lr * g;
            }
            return;
        }
        let momentum = S::from_f64(self.momentum);
        let v = self
            .velocity
            .entry(key)
            .or_insert_with(|| vec![S::ZERO; params.len()]);
        assert_eq!(v.len(), params.len(), "block size changed under key");
        for ((p, &g), vel) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
            *vel = momentum * *vel + g;
            *p -= lr * *vel;
        }
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
}

impl<S: Scalar> Optimizer<S> for Adam<S> {
    fn update(&mut self, key: usize, params: &mut [S], grads: &[S]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let st = self.state.entry(key).or_insert_with(|| AdamState {
            m: vec![S::ZERO; params.len()],
            v: vec![S::ZERO; params.len()],
            t: 0,
        });
        assert_eq!(st.m.len(), params.len(), "block size changed under key");
        st.t += 1;
        // Bias corrections stay in f64 (powi over a u64 step count); the
        // per-element loop runs entirely in `S`.
        let lr = S::from_f64(self.lr);
        let beta1 = S::from_f64(self.beta1);
        let beta2 = S::from_f64(self.beta2);
        let c1 = S::ONE - beta1;
        let c2 = S::ONE - beta2;
        let eps = S::from_f64(self.eps);
        let bc1 = S::from_f64(1.0 - self.beta1.powi(st.t as i32));
        let bc2 = S::from_f64(1.0 - self.beta2.powi(st.t as i32));
        // Zipped, not indexed: with no bounds checks in the body the loop
        // vectorizes (elementwise ops only, so lanes round as scalars do).
        let moments = st.m.iter_mut().zip(st.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = beta1 * *m + c1 * g;
            *v = beta2 * *v + c2 * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
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

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_checked() {
        let mut opt = Sgd::plain(0.1);
        let mut x = [0.0f64; 2];
        opt.update(0, &mut x, &[1.0]);
    }
}
