//! From-scratch dense neural networks — the deep-learning substrate of the
//! reproduction (the paper used TensorFlow).
//!
//! The paper's networks are small fully-connected MLPs:
//!
//! * **actor** `f(s; θπ)`: two hidden layers of 64 and 32 `tanh` units,
//!   mapping a state to a proto-action `â ∈ R^{N·M}`;
//! * **critic** `Q(s, a; θQ)`: same hidden structure, mapping a
//!   state-action pair to a scalar Q value.
//!
//! Everything those networks need is implemented here with no external
//! numerics: row-major [`Matrix`] ops over blocked, register-tiled GEMM
//! kernels with explicit AVX2+FMA microkernels (see [`matrix`] and
//! [`scalar`] for the scheme), activations through one row kernel whose
//! AVX-512 / AVX2 tanh and sigmoid reproduce glibc's `tanhf` and `expf`
//! bit for bit (see [`activation`]), manual backpropagation through
//! [`Mlp`] with persistent per-layer scratch (zero heap allocations per training
//! step once shapes are warm), Xavier initialization, SGD and Adam
//! optimizers, MSE loss, target network soft updates
//! (`θ' := τθ + (1−τ)θ'`), **input gradients** (`∇_a Q(s, a)` for the
//! deterministic policy gradient), numerical gradient checking, and
//! compact binary serialization.
//!
//! Training is full-precision only; the *inference* side additionally
//! ships compressed weights for rollout replicas — per-output-row
//! affine **i8** (integer-SIMD dots, bit-identical across kernels),
//! truncated **bf16**, and exact **f32** rows. See [`quant`] for the
//! scheme, the scale/zero-point layout, and when to pick i8 vs bf16
//! per layer.
//!
//! # Element types: the [`Scalar`] trait and [`Elem`]
//!
//! Every numeric type in this crate — and in the agents, solvers and
//! control loop built on it — is generic over the sealed [`Scalar`]
//! trait (`f32` | `f64`) and defaults to the workspace-wide training
//! element [`Elem`]` = f32`: the paper's small MLPs gain nothing from
//! f64, and single precision doubles SIMD lane width while halving
//! memory traffic (the `f32_over_f64_*` pairs in `BENCH_nn.json`
//! quantify it). The f32 tolerances are justified by measurement — see
//! the gradient-check tolerance sweep in [`gradcheck`].
//!
//! To debug a numerical question in double precision, instantiate
//! explicitly — `Matrix::<f64>`, `Mlp::<f64>`, `DdpgAgent::<f64>` and
//! friends all stay fully functional and property-tested — or rebind
//! `pub type Elem` in [`scalar`] to rebuild the whole stack in f64 (all
//! literal plumbing goes through `Scalar::from_f64`, so nothing else
//! changes).
//!
//! # Example
//!
//! ```
//! use dss_nn::{Activation, Adam, Matrix, Mlp, mse_loss_grad};
//!
//! // Learn y = x1 + x2 on a tiny net.
//! let mut net = Mlp::new(&[2, 8, 1], &[Activation::Tanh, Activation::Identity], 42);
//! let mut opt = Adam::new(0.01);
//! let x = Matrix::from_rows(&[&[0.1, 0.4], &[0.3, 0.2], &[0.5, 0.5], &[0.9, 0.0]]);
//! let y = Matrix::from_rows(&[&[0.5], &[0.5], &[1.0], &[0.9]]);
//! for _ in 0..500 {
//!     let pred = net.forward(&x);
//!     let (_, grad) = mse_loss_grad(&pred, &y);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     net.apply_gradients(&mut opt);
//! }
//! let pred = net.forward(&x);
//! let (loss, _) = mse_loss_grad(&pred, &y);
//! assert!(loss < 1e-2);
//! ```

pub mod activation;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optimizer;
pub mod quant;
pub mod scalar;
pub mod serialize;

pub use activation::Activation;
pub use layer::Dense;
pub use loss::{mse_loss, mse_loss_grad};
pub use matrix::Matrix;
pub use mlp::{InferScratch, Mlp};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use quant::{QuantLinear, QuantMode, QuantVecMeta, QuantWeights};
pub use scalar::{microkernel_name, Elem, Microkernel, Scalar};
pub use serialize::{decode_mlp, encode_mlp, DecodeError};
