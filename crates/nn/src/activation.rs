//! Activation functions, and the one row kernel every layer runs them
//! through.
//!
//! The paper uses `tanh` for hidden layers of both the actor and the critic
//! ("we chose this activation function because our empirical testing showed
//! it works better than the other commonly-used activation functions").
//! Sigmoid is used on the actor's output so proto-action entries land in
//! `[0, 1]`, matching the uniform-`[0, 1]` exploration noise; Identity is
//! used for the critic's scalar output.
//!
//! # The row kernel
//!
//! Every fused GEMM epilogue, every single-row inference and every
//! accumulated-row finish applies its activation through
//! [`Activation::apply_row`]: `row[o] = act(row[o] + bias[o])`. For f32
//! tanh and sigmoid it dispatches on the active
//! [`Microkernel`](crate::Microkernel) to an AVX-512F (16 lanes) or
//! AVX2+FMA (8 lanes) kernel, or to the scalar port (NEON hosts,
//! `DSS_NO_SIMD=1`, and every other architecture). Relu and identity
//! are plain loops; f64 calls the host libm per element.
//!
//! # Where the f32 functions come from
//!
//! `tanh` and `exp` on f32 are this crate's own ports of glibc 2.36:
//! `tanh` is fdlibm's `s_tanhf.c` over `s_expm1f.c` in f32, `exp` is
//! glibc's `e_expf.c` as its FMA build computes it (a 32-entry
//! `2^(i/32)` table and a degree-3 polynomial in f64). Sigmoid is
//! `1 / (1 + exp(−z))` in f32. The SIMD kernels are the same algorithms
//! with branches turned into mask blends, so all three kernels agree bit
//! for bit with each other and with glibc 2.36 on every one of the 2³²
//! f32 inputs (the repository's `tests/activation_bits.rs`: a golden
//! table of captured bits on every platform, and an `#[ignore]`d sweep of
//! all inputs). The f32 activations therefore no longer depend on which
//! libm the host links — glibc of another version, musl or macOS give
//! the same bits.

use serde::{Deserialize, Serialize};

use crate::scalar::{active_microkernel, Scalar};

pub(crate) mod port;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Element-wise activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's hidden-layer choice).
    Tanh,
    /// Logistic sigmoid, output in `(0, 1)`.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// No-op (linear output layer).
    Identity,
}

impl Activation {
    /// Applies the activation to one value (any [`Scalar`] element type).
    pub fn apply<S: Scalar>(self, z: S) -> S {
        match self {
            Activation::Tanh => z.tanh(),
            Activation::Sigmoid => S::ONE / (S::ONE + (-z).exp()),
            Activation::Relu => z.max(S::ZERO),
            Activation::Identity => z,
        }
    }

    /// The row kernel: `row[o] = act(row[o] + bias[o])` — the same bits
    /// as [`Activation::apply`] per element, for f32 at SIMD width (see
    /// the module docs).
    ///
    /// # Panics
    /// Panics when `row` and `bias` differ in length.
    pub fn apply_row<S: Scalar>(self, row: &mut [S], bias: &[S]) {
        assert_eq!(row.len(), bias.len(), "activation row width");
        S::act_row(self, row, bias);
    }

    /// Derivative expressed in terms of the *output* `a = apply(z)`.
    ///
    /// All four supported activations admit this form, which lets layers
    /// cache only their outputs:
    /// `tanh' = 1 − a²`, `σ' = a(1 − a)`, `relu' = [a > 0]`, `id' = 1`.
    pub fn derivative_from_output<S: Scalar>(self, a: S) -> S {
        match self {
            Activation::Tanh => S::ONE - a * a,
            Activation::Sigmoid => a * (S::ONE - a),
            Activation::Relu => {
                if a > S::ZERO {
                    S::ONE
                } else {
                    S::ZERO
                }
            }
            Activation::Identity => S::ONE,
        }
    }

    /// Stable tag for serialization.
    pub fn tag(self) -> u8 {
        match self {
            Activation::Tanh => 0,
            Activation::Sigmoid => 1,
            Activation::Relu => 2,
            Activation::Identity => 3,
        }
    }

    /// Inverse of [`Activation::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Activation::Tanh,
            1 => Activation::Sigmoid,
            2 => Activation::Relu,
            3 => Activation::Identity,
            _ => return None,
        })
    }
}

/// [`Activation::apply_row`] one element at a time: the f64 kernel,
/// and the f32 kernel for relu and identity.
pub(crate) fn apply_row_scalar<S: Scalar>(act: Activation, row: &mut [S], bias: &[S]) {
    fn sweep<S: Scalar>(row: &mut [S], bias: &[S], f: impl Fn(S) -> S) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = f(*v + b);
        }
    }
    match act {
        Activation::Tanh => sweep(row, bias, S::tanh),
        Activation::Sigmoid => sweep(row, bias, |z| Activation::Sigmoid.apply(z)),
        Activation::Relu => sweep(row, bias, |z: S| z.max(S::ZERO)),
        Activation::Identity => sweep(row, bias, |z| z),
    }
}

/// The f32 [`Activation::apply_row`]: tanh and sigmoid dispatched on the
/// active microkernel, the rest element by element.
pub(crate) fn apply_row_f32(act: Activation, row: &mut [f32], bias: &[f32]) {
    let tanh = match act {
        Activation::Tanh => true,
        Activation::Sigmoid => false,
        Activation::Relu | Activation::Identity => return apply_row_scalar(act, row, bias),
    };
    match active_microkernel() {
        // SAFETY: `active_microkernel` returns a SIMD kernel only when the
        // host runs it (detection, or `with_microkernel`'s check), and
        // `Avx512` implies AVX2+FMA as well as AVX-512F.
        #[cfg(target_arch = "x86_64")]
        crate::Microkernel::Avx512 => unsafe { x86::avx512::tanh_or_sigmoid_row(row, bias, tanh) },
        // SAFETY: as above, for AVX2+FMA.
        #[cfg(target_arch = "x86_64")]
        crate::Microkernel::Avx2Fma => unsafe { x86::avx2::tanh_or_sigmoid_row(row, bias, tanh) },
        _ => apply_row_scalar(act, row, bias),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 4] = [
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Relu,
        Activation::Identity,
    ];

    #[test]
    fn values_at_zero() {
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Identity.apply(0.0), 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ALL {
            for &z in &[-2.0, -0.5, 0.3, 1.7] {
                let a = act.apply(z);
                let numeric = (act.apply(z + h) - act.apply(z - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(a);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {z}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_bounded() {
        for &z in &[-50.0, -1.0, 0.0, 1.0, 50.0] {
            let a = Activation::Sigmoid.apply(z);
            assert!((0.0..=1.0).contains(&a));
        }
    }

    /// The row kernel is `apply(v + b)` per element, bit for bit, for
    /// every activation, both element types, every kernel the host runs
    /// and every tail length (the f32 inputs cover ±0, saturation, the
    /// `expf` scalar fallback and NaN).
    #[test]
    fn apply_row_matches_apply_per_element() {
        use crate::scalar::{with_microkernel, Microkernel};

        fn check<S: Scalar>(xs: &[f64], kernel: Microkernel) {
            for act in ALL {
                for width in 0..=xs.len() {
                    let row: Vec<S> = xs[..width].iter().map(|&v| S::from_f64(v)).collect();
                    let bias: Vec<S> = (0..width)
                        .map(|i| S::from_f64(0.25 - 0.125 * (i % 5) as f64))
                        .collect();
                    let want: Vec<u64> = row
                        .iter()
                        .zip(&bias)
                        .map(|(&v, &b)| act.apply(v + b).to_f64().to_bits())
                        .collect();
                    let mut got = row.clone();
                    with_microkernel(kernel, || act.apply_row(&mut got, &bias));
                    let got: Vec<u64> = got.iter().map(|v| v.to_f64().to_bits()).collect();
                    assert_eq!(got, want, "{act:?}, width {width}, {}", kernel.name());
                }
            }
        }
        let mut xs = vec![
            0.0,
            -0.0,
            1e-30,
            -0.7,
            0.3,
            2.5,
            -9.0,
            25.0,
            -40.0,
            95.0,
            -120.0,
            f64::NAN,
        ];
        xs.extend((0..29).map(|i| (i as f64 - 14.0) * 0.37));
        for kernel in [
            Microkernel::Scalar,
            Microkernel::Avx2Fma,
            Microkernel::Avx512,
            Microkernel::Neon,
        ] {
            if kernel.available() {
                check::<f32>(&xs, kernel);
                check::<f64>(&xs, kernel);
            }
        }
    }

    #[test]
    fn tag_round_trip() {
        for act in ALL {
            assert_eq!(Activation::from_tag(act.tag()), Some(act));
        }
        assert_eq!(Activation::from_tag(99), None);
    }
}
