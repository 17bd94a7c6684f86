//! Quantized inference kernels for the rollout act path.
//!
//! Training stays in full precision; a rollout replica only needs the
//! *decisions* of the current policy, and those survive far lower
//! precision than the gradients that produced it. This module provides
//! the per-layer machinery behind `dss-rl`'s `QuantPolicy`:
//!
//! # Quantization scheme
//!
//! * **i8 weights, per-output-row affine** ([`QuantWeights::I8`]):
//!   each output unit's weight row is quantized independently as
//!   `w ≈ scale · (q − zero)` with `q, zero ∈ [-63, 63]`. The deliberately
//!   narrow range (not the full i8 `[-127, 127]`) is what makes the AVX2
//!   `maddubs` kernel *bit-identical* to the portable fallback:
//!   `_mm256_maddubs_epi16` pairwise-sums `u8×i8` products with i16
//!   **saturation**, and `2 · 255 · 63 = 32130 < 32767` can never
//!   saturate, so the SIMD path computes the same exact integer as the
//!   scalar loop. Each row also caches `row_sum = Σ q` so the affine
//!   cross terms cost one multiply per row, not a second pass.
//! * **u8 activations, dynamic per-vector affine**: the input vector is
//!   quantized on the fly as `x ≈ s_x · (q_x − z_x)` with
//!   `q_x ∈ [0, 255]` over `[min(x, 0), max(x, 0)]` — including zero in
//!   the range keeps exact zeros exactly representable, so sparse
//!   gathers may skip them. Quantization itself is always scalar code;
//!   only the dot products dispatch to SIMD, which keeps portable/SIMD
//!   bit-identity trivial.
//! * **bf16 weights** ([`QuantWeights::Bf16`]): the high 16 bits of the
//!   f32 weight, round-to-nearest-even. Compute stays in f32 `mul_add`
//!   (8 independent lanes mirroring the AVX2 register layout), so bf16
//!   costs half the weight traffic of f32 at ~3 decimal digits of
//!   mantissa. Choose **i8** when decision agreement allows it (4× less
//!   weight traffic, integer ALUs); choose **bf16** when a layer is
//!   precision-sensitive or the platform lacks fast byte multiplies.
//! * **f32 weights, exact** ([`QuantWeights::F32`]): no compression at
//!   all — the layer's f32 rows verbatim, with every row op mirroring
//!   [`Dense`]'s serial `mul_add` chains *bit for bit*. This exists
//!   because some consumers are discontinuous in their input: the K-NN
//!   action mapper's candidate set flips on arbitrarily small
//!   perturbations of the actor's proto-action, so even bf16's ~0.2%
//!   weight error measurably changes decisions. An f32 *actor* head +
//!   quantized *critic* (whose argmax is robust — Q gaps dwarf the
//!   quantization noise) keeps decisions bit-identical to the
//!   full-precision agent while still shrinking the frame: f32 rows are
//!   half the bytes of the f64-widened policy image.
//!
//! A dot product accumulates in i32 and is exact while
//! `k · 255 · 63 < 2³¹`, i.e. for any layer narrower than ~133 000
//! inputs — far beyond fleet-scale state widths.
//!
//! Kernel dispatch follows [`crate::scalar::active_microkernel`]: the
//! AVX2 paths run under both the `avx2_fma` and `avx512f` kernels,
//! everything else (including `DSS_NO_SIMD=1` and aarch64) runs the
//! portable fallback, which is asserted bit-identical in tests.

use crate::activation::Activation;
use crate::layer::Dense;
use crate::scalar::{active_microkernel, Microkernel, Scalar};

/// Which compressed weight format a [`QuantLinear`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Per-output-row affine i8 weights + dynamic u8 activations.
    I8,
    /// bf16 (truncated f32) weights, f32 compute.
    Bf16,
    /// Exact f32 weights — bit-identical to the [`Dense`] row path.
    F32,
}

impl QuantMode {
    /// Stable serialization tag.
    pub fn tag(self) -> u8 {
        match self {
            QuantMode::I8 => 0,
            QuantMode::Bf16 => 1,
            QuantMode::F32 => 2,
        }
    }

    /// Inverse of [`QuantMode::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => QuantMode::I8,
            1 => QuantMode::Bf16,
            2 => QuantMode::F32,
            _ => return None,
        })
    }

    /// Stable name recorded in bench artifacts ("i8" / "bf16" / "f32").
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::I8 => "i8",
            QuantMode::Bf16 => "bf16",
            QuantMode::F32 => "f32",
        }
    }
}

/// Quantized-weight range bound: `q, zero ∈ [-QMAX, QMAX]`. See the
/// module docs for why 63 (maddubs i16 saturation headroom).
pub const QMAX: i32 = 63;

/// The affine parameters of one dynamically quantized activation vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantVecMeta {
    /// Scale `s_x` (`x ≈ s_x · (q_x − z_x)`).
    pub scale: f32,
    /// Zero point `z_x ∈ [0, 255]`.
    pub zero: i32,
    /// `Σ q_x` over the quantized vector (exact in i32).
    pub sum: i32,
}

/// Quantizes an activation vector to u8 (dynamic per-vector affine over
/// `[min(x, 0), max(x, 0)]`), refilling `out` in place. Always scalar
/// code — identical on every kernel — so SIMD/portable bit-identity is
/// decided by the dot products alone.
pub fn quantize_u8_into(xs: &[f32], out: &mut Vec<u8>) -> QuantVecMeta {
    out.clear();
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if lo == hi {
        // All-zero vector: any scale works; pick the identity-ish one.
        out.resize(xs.len(), 0);
        return QuantVecMeta {
            scale: 1.0,
            zero: 0,
            sum: 0,
        };
    }
    let scale = (hi - lo) / 255.0;
    let zero = (-lo / scale).round().clamp(0.0, 255.0) as i32;
    let mut sum = 0i32;
    out.extend(xs.iter().map(|&x| {
        let q = ((x / scale).round() as i32 + zero).clamp(0, 255);
        sum += q;
        q as u8
    }));
    QuantVecMeta { scale, zero, sum }
}

/// f32 → bf16 with round-to-nearest-even (NaN stays NaN).
pub fn bf16_of(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bias = 0x7FFF + ((bits >> 16) & 1);
    (bits.wrapping_add(round_bias) >> 16) as u16
}

/// bf16 → f32 (exact: bf16 is a prefix of the f32 encoding).
#[inline(always)]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Exact i32 dot product of an i8 weight row against a u8 activation
/// vector, dispatched like the GEMM tiles: AVX2 `maddubs` under the
/// `avx2_fma`/`avx512f` kernels, a portable loop otherwise. Both paths
/// compute the same mathematically exact integer (the `[-63, 63]` weight
/// range rules out i16 saturation), so they are bit-identical by
/// construction.
///
/// # Panics
/// Panics when the slices disagree in length.
pub fn dot_i8(qw: &[i8], qx: &[u8]) -> i32 {
    assert_eq!(qw.len(), qx.len(), "quantized dot width");
    match active_microkernel() {
        #[cfg(target_arch = "x86_64")]
        Microkernel::Avx2Fma | Microkernel::Avx512 => unsafe { dot_i8_avx2(qw, qx) },
        _ => dot_i8_portable(qw, qx),
    }
}

fn dot_i8_portable(qw: &[i8], qx: &[u8]) -> i32 {
    qw.iter().zip(qx).map(|(&w, &x)| w as i32 * x as i32).sum()
}

/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(qw: &[i8], qx: &[u8]) -> i32 {
    use std::arch::x86_64::*;
    let k = qw.len();
    let chunks = k / 32;
    let mut acc = _mm256_setzero_si256();
    let ones = _mm256_set1_epi16(1);
    let wp = qw.as_ptr();
    let xp = qx.as_ptr();
    for t in 0..chunks {
        let xv = _mm256_loadu_si256(xp.add(t * 32) as *const __m256i);
        let wv = _mm256_loadu_si256(wp.add(t * 32) as *const __m256i);
        // u8×i8 pairwise products summed into i16 lanes (saturation-free
        // by the |q| ≤ 63 bound), then widened to i32 pairs.
        let p16 = _mm256_maddubs_epi16(xv, wv);
        let p32 = _mm256_madd_epi16(p16, ones);
        acc = _mm256_add_epi32(acc, p32);
    }
    // Horizontal i32 sum (integer addition is associative: exact).
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256(acc, 1);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b0100_1110));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b0000_0001));
    let mut sum = _mm_cvtsi128_si32(s);
    for j in chunks * 32..k {
        sum += qw[j] as i32 * qx[j] as i32;
    }
    sum
}

/// Number of independent f32 accumulator lanes in the bf16 row kernel —
/// one AVX2 vector's worth; the portable path mirrors the same lane
/// decomposition and reduction tree so the two are bit-identical.
const BF16_LANES: usize = 8;

/// f32 dot product of a bf16 weight row against an f32 activation row,
/// accumulated over [`BF16_LANES`] independent FMA chains (lane `x`
/// takes elements `≡ x (mod 8)`) and reduced pairwise exactly like the
/// AVX2 horizontal sum, with the tail folded in serially. Dispatched
/// like [`dot_i8`].
///
/// # Panics
/// Panics when the slices disagree in length.
pub fn dot_bf16(w: &[u16], x: &[f32]) -> f32 {
    assert_eq!(w.len(), x.len(), "bf16 dot width");
    match active_microkernel() {
        #[cfg(target_arch = "x86_64")]
        Microkernel::Avx2Fma | Microkernel::Avx512 => unsafe { dot_bf16_avx2(w, x) },
        _ => dot_bf16_portable(w, x),
    }
}

fn dot_bf16_portable(w: &[u16], x: &[f32]) -> f32 {
    let k = w.len();
    let chunks = k / BF16_LANES;
    let mut acc = [0.0f32; BF16_LANES];
    for t in 0..chunks {
        for (lane, a) in acc.iter_mut().enumerate() {
            let j = t * BF16_LANES + lane;
            *a = x[j].mul_add(bf16_to_f32(w[j]), *a);
        }
    }
    // The AVX2 reduction order: (l0+l4)+(l2+l6) + ((l1+l5)+(l3+l7)).
    let s = [
        acc[0] + acc[4],
        acc[1] + acc[5],
        acc[2] + acc[6],
        acc[3] + acc[7],
    ];
    let mut sum = (s[0] + s[2]) + (s[1] + s[3]);
    for j in chunks * BF16_LANES..k {
        sum = x[j].mul_add(bf16_to_f32(w[j]), sum);
    }
    sum
}

/// # Safety
/// Caller must ensure AVX2+FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_bf16_avx2(w: &[u16], x: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let k = w.len();
    let chunks = k / BF16_LANES;
    let mut acc = _mm256_setzero_ps();
    let wp = w.as_ptr();
    let xp = x.as_ptr();
    for t in 0..chunks {
        // 8 bf16 → 8 f32: widen u16 to u32, shift into the high half.
        let wh = _mm_loadu_si128(wp.add(t * BF16_LANES) as *const __m128i);
        let w32 = _mm256_slli_epi32(_mm256_cvtepu16_epi32(wh), 16);
        let wv = _mm256_castsi256_ps(w32);
        let xv = _mm256_loadu_ps(xp.add(t * BF16_LANES));
        acc = _mm256_fmadd_ps(xv, wv, acc);
    }
    // Horizontal sum in the exact order the portable mirror uses.
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let s = _mm_add_ps(lo, hi);
    let s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s3 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x1));
    let mut sum = _mm_cvtss_f32(s3);
    for j in chunks * BF16_LANES..k {
        sum = x[j].mul_add(bf16_to_f32(w[j]), sum);
    }
    sum
}

/// The compressed weights of one [`QuantLinear`].
#[derive(Debug, Clone, PartialEq)]
pub enum QuantWeights {
    /// Per-output-row affine i8 (`w[o][j] ≈ scale[o] · (q[o·in+j] − zero[o])`).
    I8 {
        /// Row-major quantized weights (`out × in`), each in `[-63, 63]`.
        q: Vec<i8>,
        /// Per-row scale.
        scale: Vec<f32>,
        /// Per-row zero point, also in `[-63, 63]`.
        zero: Vec<i32>,
        /// Per-row `Σ q` cache (derived; rebuilt on decode).
        row_sum: Vec<i32>,
    },
    /// Row-major bf16 weights (`out × in`).
    Bf16 {
        /// Truncated f32 weights.
        w: Vec<u16>,
    },
    /// Row-major exact f32 weights (`out × in`). Every row op on this
    /// variant is a serial ascending-index `mul_add` chain matching
    /// [`Dense`]'s row helpers bit for bit.
    F32 {
        /// The layer's f32 weights, verbatim.
        w: Vec<f32>,
    },
}

/// A dense layer compressed for inference: quantized weights + f32 bias,
/// exposing the same row/sparse seams as [`Dense`]
/// (`infer_row_into` / `sparse_preact_into` / `add_hot_cols` /
/// `finish_row`) so `dss-rl`'s quantized act path mirrors the exact f32
/// decision flow. Compute is f32/i32 regardless of the workspace
/// [`Scalar`] type — conversions at the API boundary are exact no-ops
/// for the default `Elem = f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLinear {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    bias: Vec<f32>,
    weights: QuantWeights,
}

impl QuantLinear {
    /// Quantizes a trained [`Dense`] layer.
    pub fn from_dense<S: Scalar>(layer: &Dense<S>, mode: QuantMode) -> Self {
        let (out_dim, in_dim) = (layer.output_size(), layer.input_size());
        let bias: Vec<f32> = layer.bias().iter().map(|&b| b.to_f64() as f32).collect();
        let rows: Vec<f32> = (0..out_dim)
            .flat_map(|o| layer.weights().row(o).iter())
            .map(|&w| w.to_f64() as f32)
            .collect();
        Self::from_rows(in_dim, out_dim, layer.activation(), bias, &rows, mode)
    }

    /// Quantizes a row-major f32 weight slab (`out × in`). This is the
    /// column-sliced entry point: `dss-rl` splits the critic's first
    /// layer into its state and action column blocks and compresses each
    /// at a different precision.
    ///
    /// # Panics
    /// Panics when `rows` is not `out_dim · in_dim` long or `bias` is not
    /// `out_dim` long.
    pub fn from_rows(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        bias: Vec<f32>,
        rows: &[f32],
        mode: QuantMode,
    ) -> Self {
        assert_eq!(rows.len(), out_dim * in_dim, "weight slab shape");
        assert_eq!(bias.len(), out_dim, "bias width");
        let weights = match mode {
            QuantMode::I8 => {
                let mut q = Vec::with_capacity(out_dim * in_dim);
                let mut scale = Vec::with_capacity(out_dim);
                let mut zero = Vec::with_capacity(out_dim);
                let mut row_sum = Vec::with_capacity(out_dim);
                for row in rows.chunks_exact(in_dim) {
                    let (s, z) = quantize_row_i8(row, &mut q);
                    scale.push(s);
                    zero.push(z);
                    row_sum.push(q[q.len() - in_dim..].iter().map(|&v| v as i32).sum());
                }
                QuantWeights::I8 {
                    q,
                    scale,
                    zero,
                    row_sum,
                }
            }
            QuantMode::Bf16 => QuantWeights::Bf16 {
                w: rows.iter().map(|&w| bf16_of(w)).collect(),
            },
            QuantMode::F32 => QuantWeights::F32 { w: rows.to_vec() },
        };
        Self {
            in_dim,
            out_dim,
            activation,
            bias,
            weights,
        }
    }

    /// Rebuilds a layer from decoded parts, validating shapes and value
    /// ranges; the `row_sum` cache is recomputed (never trusted from the
    /// wire).
    pub fn from_parts(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        bias: Vec<f32>,
        mut weights: QuantWeights,
    ) -> Result<Self, &'static str> {
        if in_dim == 0 || out_dim == 0 {
            return Err("degenerate quant layer shape");
        }
        if bias.len() != out_dim || bias.iter().any(|b| !b.is_finite()) {
            return Err("quant layer bias");
        }
        match &mut weights {
            QuantWeights::I8 {
                q,
                scale,
                zero,
                row_sum,
            } => {
                if q.len() != out_dim * in_dim || scale.len() != out_dim || zero.len() != out_dim {
                    return Err("i8 weight shape");
                }
                if q.iter().any(|&v| (v as i32).abs() > QMAX) {
                    return Err("i8 weight out of range");
                }
                if scale.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                    return Err("i8 row scale");
                }
                if zero.iter().any(|z| z.abs() > QMAX) {
                    return Err("i8 zero point out of range");
                }
                row_sum.clear();
                row_sum.extend(
                    q.chunks_exact(in_dim)
                        .map(|r| r.iter().map(|&v| v as i32).sum::<i32>()),
                );
            }
            QuantWeights::Bf16 { w } => {
                if w.len() != out_dim * in_dim {
                    return Err("bf16 weight shape");
                }
                if w.iter().any(|&b| !bf16_to_f32(b).is_finite()) {
                    return Err("bf16 weight not finite");
                }
            }
            QuantWeights::F32 { w } => {
                if w.len() != out_dim * in_dim {
                    return Err("f32 weight shape");
                }
                if w.iter().any(|v| !v.is_finite()) {
                    return Err("f32 weight not finite");
                }
            }
        }
        Ok(Self {
            in_dim,
            out_dim,
            activation,
            bias,
            weights,
        })
    }

    /// Which compression this layer uses.
    pub fn mode(&self) -> QuantMode {
        match self.weights {
            QuantWeights::I8 { .. } => QuantMode::I8,
            QuantWeights::Bf16 { .. } => QuantMode::Bf16,
            QuantWeights::F32 { .. } => QuantMode::F32,
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.out_dim
    }

    /// This layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Bias vector (f32).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The compressed weights.
    pub fn weights(&self) -> &QuantWeights {
        &self.weights
    }

    /// The dequantized weight `ŵ[o][j]` — what the quantized kernels
    /// effectively compute with (used by the error-bound properties).
    pub fn dequant_weight(&self, o: usize, j: usize) -> f32 {
        match &self.weights {
            QuantWeights::I8 { q, scale, zero, .. } => {
                scale[o] * (q[o * self.in_dim + j] as i32 - zero[o]) as f32
            }
            QuantWeights::Bf16 { w } => bf16_to_f32(w[o * self.in_dim + j]),
            QuantWeights::F32 { w } => w[o * self.in_dim + j],
        }
    }

    /// Quantized single-row inference, the [`Dense::infer_row_into`]
    /// twin: `out = act(x · Ŵᵀ + b)` with the dot products in the
    /// compressed domain. `qx` is caller-owned u8 scratch (unused in
    /// bf16 mode).
    ///
    /// # Panics
    /// Panics when `x` is not `input_size` wide.
    pub fn infer_row_into(&self, x: &[f32], qx: &mut Vec<u8>, out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.in_dim, "quant layer input width");
        out.clear();
        match &self.weights {
            QuantWeights::I8 {
                q,
                scale,
                zero,
                row_sum,
            } => {
                let meta = quantize_u8_into(x, qx);
                let k = self.in_dim as i32;
                for o in 0..self.out_dim {
                    let row = &q[o * self.in_dim..(o + 1) * self.in_dim];
                    let dq = dot_i8(row, qx);
                    let corr =
                        dq - zero[o] * meta.sum - meta.zero * row_sum[o] + k * zero[o] * meta.zero;
                    out.push(scale[o] * meta.scale * corr as f32);
                }
            }
            QuantWeights::Bf16 { w } => {
                for o in 0..self.out_dim {
                    let row = &w[o * self.in_dim..(o + 1) * self.in_dim];
                    out.push(dot_bf16(row, x));
                }
            }
            QuantWeights::F32 { w } => {
                // Dense::infer_row_into, verbatim: one serial ascending
                // mul_add chain per output, then the epilogue.
                for o in 0..self.out_dim {
                    let row = &w[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut acc = 0.0f32;
                    for (&xv, &wv) in x.iter().zip(row) {
                        acc = xv.mul_add(wv, acc);
                    }
                    out.push(acc);
                }
            }
        }
        self.activation.apply_row(out, &self.bias);
    }

    /// Sparse pre-activation, the quantized twin of
    /// [`Dense::accumulate_cols`]: `acc[o] = Σ_i x̂vals[i] · ŵ[o][cols[i]]`
    /// (no bias, no activation). The gather stays exact-index — only the
    /// *values* are quantized — and in i8 mode each row accumulates two
    /// exact i32 sums (`Σ q_w·q_x` and `Σ q_w`) before a single f32
    /// correction.
    ///
    /// # Panics
    /// Panics when `cols`/`xvals` lengths disagree or a column index is
    /// out of range.
    pub fn sparse_preact_into(
        &self,
        cols: &[usize],
        xvals: &[f32],
        qx: &mut Vec<u8>,
        acc: &mut Vec<f32>,
    ) {
        assert_eq!(cols.len(), xvals.len(), "sparse support width");
        acc.clear();
        match &self.weights {
            QuantWeights::I8 { q, scale, zero, .. } => {
                let meta = quantize_u8_into(xvals, qx);
                let n = cols.len() as i32;
                for o in 0..self.out_dim {
                    let row = &q[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut dq = 0i32;
                    let mut wsum = 0i32;
                    for (&c, &x) in cols.iter().zip(qx.iter()) {
                        let w = row[c] as i32;
                        dq += w * x as i32;
                        wsum += w;
                    }
                    let corr = dq - zero[o] * meta.sum - meta.zero * wsum + n * zero[o] * meta.zero;
                    acc.push(scale[o] * meta.scale * corr as f32);
                }
            }
            QuantWeights::Bf16 { w } => {
                for o in 0..self.out_dim {
                    let row = &w[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut v = 0.0f32;
                    for (&c, &x) in cols.iter().zip(xvals) {
                        v = x.mul_add(bf16_to_f32(row[c]), v);
                    }
                    acc.push(v);
                }
            }
            QuantWeights::F32 { w } => {
                // Dense::accumulate_cols, verbatim (gathered values in
                // the same ascending-support order round identically).
                for o in 0..self.out_dim {
                    let row = &w[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut v = 0.0f32;
                    for (&c, &x) in cols.iter().zip(xvals) {
                        v = x.mul_add(row[c], v);
                    }
                    acc.push(v);
                }
            }
        }
    }

    /// `acc[o] += Σ_{j ∈ hot} ŵ[o][j]` — the quantized twin of
    /// [`Dense::accumulate_hot_cols`] (exactly-one inputs of a one-hot
    /// block). i8 mode gathers `Σ q_w` in i32 and applies one affine
    /// correction per row.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide.
    pub fn add_hot_cols(&self, hot: &[usize], acc: &mut [f32]) {
        assert_eq!(acc.len(), self.out_dim, "accumulator width");
        match &self.weights {
            QuantWeights::I8 { q, scale, zero, .. } => {
                let n = hot.len() as i32;
                for (o, a) in acc.iter_mut().enumerate() {
                    let row = &q[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut s = 0i32;
                    for &j in hot {
                        s += row[j] as i32;
                    }
                    *a += scale[o] * (s - n * zero[o]) as f32;
                }
            }
            QuantWeights::Bf16 { w } => {
                for (o, a) in acc.iter_mut().enumerate() {
                    let row = &w[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut v = *a;
                    for &j in hot {
                        v += bf16_to_f32(row[j]);
                    }
                    *a = v;
                }
            }
            QuantWeights::F32 { w } => {
                // Dense::accumulate_hot_cols, verbatim (plain adds, not
                // fma — `1·w + acc` rounds the same either way).
                for (o, a) in acc.iter_mut().enumerate() {
                    let row = &w[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut v = *a;
                    for &j in hot {
                        v += row[j];
                    }
                    *a = v;
                }
            }
        }
    }

    /// `acc[o] = act(acc[o] + b[o])`, the [`Dense::finish_row`] twin.
    ///
    /// # Panics
    /// Panics when `acc` is not `output_size` wide.
    pub fn finish_row(&self, acc: &mut [f32]) {
        self.activation.apply_row(acc, &self.bias);
    }

    /// Compressed weight payload size in bytes (weights only, excluding
    /// bias/metadata) — what the frame-size bench ratios compare.
    pub fn weight_bytes(&self) -> usize {
        match &self.weights {
            QuantWeights::I8 { q, scale, zero, .. } => q.len() + scale.len() * 4 + zero.len(),
            QuantWeights::Bf16 { w } => w.len() * 2,
            QuantWeights::F32 { w } => w.len() * 4,
        }
    }
}

/// Quantizes one weight row to i8 `[-63, 63]` (affine, zero-point in the
/// same range), appending to `q`; returns `(scale, zero)`.
fn quantize_row_i8(row: &[f32], q: &mut Vec<i8>) -> (f32, i32) {
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &w in row {
        lo = lo.min(w);
        hi = hi.max(w);
    }
    if lo == hi {
        q.extend(std::iter::repeat_n(0i8, row.len()));
        return (1.0, 0);
    }
    let scale = (hi - lo) / (2 * QMAX) as f32;
    let zero = (-(QMAX as f32) - lo / scale)
        .round()
        .clamp(-(QMAX as f32), QMAX as f32) as i32;
    q.extend(
        row.iter()
            .map(|&w| ((w / scale).round() as i32 + zero).clamp(-QMAX, QMAX) as i8),
    );
    (scale, zero)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::scalar::{avx2_available, with_microkernel};

    fn synth(seed: u64, len: usize, span: f32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = ((i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33) as f64;
                (x / (1u64 << 31) as f64 - 0.5) as f32 * span
            })
            .collect()
    }

    #[test]
    fn quantize_u8_reconstructs_within_half_step() {
        for seed in [1u64, 2, 3] {
            let xs = synth(seed, 97, 2.0);
            let mut q = Vec::new();
            let meta = quantize_u8_into(&xs, &mut q);
            for (&x, &qv) in xs.iter().zip(&q) {
                let deq = meta.scale * (qv as i32 - meta.zero) as f32;
                assert!(
                    (deq - x).abs() <= meta.scale,
                    "x={x} deq={deq} scale={}",
                    meta.scale
                );
            }
            assert_eq!(meta.sum, q.iter().map(|&v| v as i32).sum::<i32>());
        }
    }

    #[test]
    fn zero_vector_quantizes_to_exact_zero() {
        let mut q = Vec::new();
        let meta = quantize_u8_into(&[0.0; 16], &mut q);
        assert!(q.iter().all(|&v| v == 0) && meta.sum == 0);
        // Exact zeros stay exact under any vector's affine params too.
        let xs = [0.0f32, 0.5, -0.25, 0.0];
        let meta = quantize_u8_into(&xs, &mut q);
        for (&x, &qv) in xs.iter().zip(&q) {
            if x == 0.0 {
                assert_eq!(meta.scale * (qv as i32 - meta.zero) as f32, 0.0);
            }
        }
    }

    #[test]
    fn bf16_round_trips_exactly_representable_values() {
        for v in [0.0f32, 1.0, -2.5, 0.15625] {
            assert_eq!(bf16_to_f32(bf16_of(v)), v);
        }
        // RNE: relative error ≤ 2⁻⁸ for normal values.
        for &v in &synth(7, 200, 10.0) {
            let back = bf16_to_f32(bf16_of(v));
            assert!((back - v).abs() <= v.abs() * (1.0 / 256.0) + f32::MIN_POSITIVE);
        }
        assert!(bf16_to_f32(bf16_of(f32::NAN)).is_nan());
    }

    #[test]
    fn i8_dot_kernels_bit_identical() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        for k in [1usize, 7, 31, 32, 33, 64, 100, 257] {
            let qw: Vec<i8> = synth(11, k, 126.0)
                .iter()
                .map(|&v| (v as i32).clamp(-QMAX, QMAX) as i8)
                .collect();
            let qx: Vec<u8> = synth(13, k, 255.0)
                .iter()
                .map(|&v| (v.abs() as i32).clamp(0, 255) as u8)
                .collect();
            let scalar = with_microkernel(Microkernel::Scalar, || dot_i8(&qw, &qx));
            let avx = with_microkernel(Microkernel::Avx2Fma, || dot_i8(&qw, &qx));
            assert_eq!(scalar, avx, "k={k}");
            assert_eq!(scalar, dot_i8_portable(&qw, &qx));
        }
    }

    #[test]
    fn bf16_dot_kernels_bit_identical() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        for k in [1usize, 7, 8, 9, 16, 63, 64, 100] {
            let w: Vec<u16> = synth(17, k, 3.0).iter().map(|&v| bf16_of(v)).collect();
            let x = synth(19, k, 2.0);
            let scalar = with_microkernel(Microkernel::Scalar, || dot_bf16(&w, &x));
            let avx = with_microkernel(Microkernel::Avx2Fma, || dot_bf16(&w, &x));
            assert_eq!(scalar.to_bits(), avx.to_bits(), "k={k}");
        }
    }

    /// Builds a quantized layer and checks every seam against a direct
    /// dequantized-weight reference computed in plain f32.
    fn seams_match_dequant_reference(mode: QuantMode) {
        let mut rng = seeded_rng(23);
        let (input, output) = (67usize, 5usize);
        let layer: Dense<f32> = Dense::new(input, output, Activation::Tanh, &mut rng);
        let ql = QuantLinear::from_dense(&layer, mode);
        assert_eq!(ql.mode(), mode);

        let mut x = vec![0.0f32; input];
        for (i, v) in x.iter_mut().enumerate().take(20) {
            *v = 0.07 * i as f32 - 0.5;
        }
        let hot = [31usize, 44, 59];
        for &j in &hot {
            x[j] = 1.0;
        }

        let mut qx = Vec::new();
        let mut out = Vec::new();
        ql.infer_row_into(&x, &mut qx, &mut out);
        assert_eq!(out.len(), output);

        // The sparse seams (exact-index gather + hot columns + epilogue)
        // must agree with the dense quantized row inference closely: the
        // only divergence is the dynamic activation-quantization grid
        // (support-only vs full vector) in i8 mode.
        let nz: Vec<usize> = (0..20).filter(|&l| x[l] != 0.0).collect();
        let xvals: Vec<f32> = nz.iter().map(|&l| x[l]).collect();
        let mut acc = Vec::new();
        ql.sparse_preact_into(&nz, &xvals, &mut qx, &mut acc);
        ql.add_hot_cols(&hot, &mut acc);
        ql.finish_row(&mut acc);
        for (a, b) in acc.iter().zip(&out) {
            assert!((a - b).abs() < 0.05, "sparse {a} vs dense {b}");
        }

        // And both must track the true f32 layer within quantization
        // error.
        let mut exact = Vec::new();
        layer.infer_row_into(&x, &mut exact);
        for (a, b) in out.iter().zip(&exact) {
            assert!((a - b).abs() < 0.05, "quant {a} vs f32 {b}");
        }
    }

    #[test]
    fn quant_seams_match_reference_i8() {
        seams_match_dequant_reference(QuantMode::I8);
    }

    #[test]
    fn quant_seams_match_reference_bf16() {
        seams_match_dequant_reference(QuantMode::Bf16);
    }

    #[test]
    fn bf16_sparse_path_is_exact_in_the_dequant_domain() {
        // bf16 has no activation quantization, so sparse + hot + finish
        // must equal the dense quantized row bit for bit when the support
        // ordering matches (ascending gather mirrors the serial chain...
        // it does not — lanes differ — so compare against a direct
        // dequantized serial reference instead).
        let mut rng = seeded_rng(29);
        let layer: Dense<f32> = Dense::new(40, 3, Activation::Identity, &mut rng);
        let ql = QuantLinear::from_dense(&layer, QuantMode::Bf16);
        let mut x = [0.0f32; 40];
        x[3] = 0.25;
        x[17] = -1.5;
        x[39] = 1.0;
        let nz = [3usize, 17];
        let xvals = [0.25f32, -1.5];
        let hot = [39usize];
        let mut qx = Vec::new();
        let mut acc = Vec::new();
        ql.sparse_preact_into(&nz, &xvals, &mut qx, &mut acc);
        ql.add_hot_cols(&hot, &mut acc);
        ql.finish_row(&mut acc);
        for (o, &got) in acc.iter().enumerate() {
            let mut want = 0.0f32;
            for &c in &nz {
                want = x[c].mul_add(ql.dequant_weight(o, c), want);
            }
            want += ql.dequant_weight(o, 39);
            want += ql.bias()[o];
            assert_eq!(got.to_bits(), want.to_bits(), "row {o}");
        }
    }

    #[test]
    fn i8_row_quantization_error_bounded() {
        let mut rng = seeded_rng(31);
        for (input, output) in [(8usize, 4usize), (64, 32), (200, 3)] {
            let layer: Dense<f32> = Dense::new(input, output, Activation::Tanh, &mut rng);
            let ql = QuantLinear::from_dense(&layer, QuantMode::I8);
            let QuantWeights::I8 { scale, .. } = ql.weights() else {
                unreachable!()
            };
            for (o, &row_scale) in scale.iter().enumerate() {
                for (j, &w) in layer.weights().row(o).iter().enumerate() {
                    let err = (ql.dequant_weight(o, j) - w).abs();
                    assert!(
                        err <= 1.5 * row_scale,
                        "({output}x{input}) row {o} col {j}: err {err} scale {row_scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_parts_validates() {
        let mut rng = seeded_rng(37);
        let layer: Dense<f32> = Dense::new(6, 2, Activation::Tanh, &mut rng);
        for mode in [QuantMode::I8, QuantMode::Bf16, QuantMode::F32] {
            let ql = QuantLinear::from_dense(&layer, mode);
            let rebuilt = QuantLinear::from_parts(
                ql.input_size(),
                ql.output_size(),
                ql.activation(),
                ql.bias().to_vec(),
                ql.weights().clone(),
            )
            .unwrap();
            assert_eq!(rebuilt, ql);
        }
        // Range violations are rejected.
        assert!(QuantLinear::from_parts(
            2,
            1,
            Activation::Tanh,
            vec![0.0],
            QuantWeights::I8 {
                q: vec![100, 0],
                scale: vec![1.0],
                zero: vec![0],
                row_sum: vec![],
            },
        )
        .is_err());
        assert!(QuantLinear::from_parts(
            2,
            1,
            Activation::Tanh,
            vec![0.0],
            QuantWeights::I8 {
                q: vec![1, 0],
                scale: vec![f32::NAN],
                zero: vec![0],
                row_sum: vec![],
            },
        )
        .is_err());
        assert!(QuantLinear::from_parts(
            2,
            0,
            Activation::Tanh,
            vec![],
            QuantWeights::Bf16 { w: vec![] }
        )
        .is_err());
    }

    #[test]
    fn mode_tags_round_trip() {
        for mode in [QuantMode::I8, QuantMode::Bf16, QuantMode::F32] {
            assert_eq!(QuantMode::from_tag(mode.tag()), Some(mode));
        }
        assert_eq!(QuantMode::from_tag(9), None);
    }

    /// The F32 variant is not "approximately" the dense layer — every row
    /// op must reproduce the [`Dense`] helpers bit for bit, because the
    /// K-NN candidate set downstream is discontinuous in these outputs.
    #[test]
    fn f32_mode_is_bit_identical_to_dense_row_path() {
        let mut rng = seeded_rng(41);
        let (input, output) = (73usize, 11usize);
        let layer: Dense<f32> = Dense::new(input, output, Activation::Tanh, &mut rng);
        let ql = QuantLinear::from_dense(&layer, QuantMode::F32);

        let mut x = vec![0.0f32; input];
        for (i, v) in x.iter_mut().enumerate() {
            if i % 3 != 1 {
                *v = 0.21 * (i as f32).sin();
            }
        }
        let hot = [5usize, 29, 64];
        for &j in &hot {
            x[j] = 1.0;
        }

        // Dense row inference vs quant F32 row inference.
        let mut want = Vec::new();
        layer.infer_row_into(&x, &mut want);
        let mut qx = Vec::new();
        let mut got = Vec::new();
        ql.infer_row_into(&x, &mut qx, &mut got);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }

        // The sparse act-path composition: gather + hot columns + finish.
        let nz: Vec<usize> = (0..input)
            .filter(|&l| x[l] != 0.0 && !hot.contains(&l))
            .collect();
        let xvals: Vec<f32> = nz.iter().map(|&l| x[l]).collect();
        let mut dacc = vec![0.0f32; output];
        layer.accumulate_cols(&nz, &x, &mut dacc);
        layer.accumulate_hot_cols(&hot, &mut dacc);
        layer.finish_row(&mut dacc);
        let mut qacc = Vec::new();
        ql.sparse_preact_into(&nz, &xvals, &mut qx, &mut qacc);
        ql.add_hot_cols(&hot, &mut qacc);
        ql.finish_row(&mut qacc);
        for (w, g) in dacc.iter().zip(&qacc) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random row-major weight slabs with shapes spanning degenerate
        /// (1×1), sub-SIMD-width, and multi-tile layers, plus a span knob
        /// so rows range from near-zero to O(10) magnitudes.
        fn slab() -> impl Strategy<Value = (usize, usize, Vec<f32>, f32)> {
            (1usize..48, 1usize..12, any::<u64>(), 0.01f32..8.0).prop_map(
                |(in_dim, out_dim, seed, span)| {
                    (in_dim, out_dim, synth(seed, in_dim * out_dim, span), span)
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Per-output-row affine i8: every dequantized weight lands
            /// within 1.5 grid steps of the original (½ step from weight
            /// rounding, ½ from the zero point's own rounding, and up to
            /// one more from the end-of-range clamp), where the grid step
            /// is that row's `scale = (hi − lo) / 126`.
            #[test]
            fn i8_dequant_error_is_bounded_per_row((in_dim, out_dim, rows, _span) in slab()) {
                let ql = QuantLinear::from_rows(
                    in_dim, out_dim, Activation::Identity,
                    vec![0.0; out_dim], &rows, QuantMode::I8,
                );
                let QuantWeights::I8 { scale, .. } = ql.weights() else { unreachable!() };
                for o in 0..out_dim {
                    for j in 0..in_dim {
                        let w = rows[o * in_dim + j];
                        let deq = ql.dequant_weight(o, j);
                        prop_assert!(
                            (deq - w).abs() <= 1.5 * scale[o] + f32::EPSILON,
                            "row {o} col {j}: w={w} deq={deq} scale={}", scale[o]
                        );
                    }
                }
            }

            /// bf16 truncates the mantissa to 8 bits with round-to-nearest
            /// -even, so dequantization is a *relative* bound: within
            /// 2⁻⁸ of the weight's own magnitude, independent of the row.
            #[test]
            fn bf16_dequant_error_is_relative((in_dim, out_dim, rows, _span) in slab()) {
                let ql = QuantLinear::from_rows(
                    in_dim, out_dim, Activation::Identity,
                    vec![0.0; out_dim], &rows, QuantMode::Bf16,
                );
                for o in 0..out_dim {
                    for j in 0..in_dim {
                        let w = rows[o * in_dim + j];
                        let deq = ql.dequant_weight(o, j);
                        prop_assert!(
                            (deq - w).abs() <= w.abs() / 256.0 + f32::MIN_POSITIVE,
                            "row {o} col {j}: w={w} deq={deq}"
                        );
                    }
                }
            }

            /// F32 mode is storage, not compression: bit-exact.
            #[test]
            fn f32_mode_is_bit_exact((in_dim, out_dim, rows, _span) in slab()) {
                let ql = QuantLinear::from_rows(
                    in_dim, out_dim, Activation::Identity,
                    vec![0.0; out_dim], &rows, QuantMode::F32,
                );
                for o in 0..out_dim {
                    for j in 0..in_dim {
                        prop_assert_eq!(
                            ql.dequant_weight(o, j).to_bits(),
                            rows[o * in_dim + j].to_bits()
                        );
                    }
                }
            }
        }
    }
}
