//! Row-major dense matrices, generic over the [`Scalar`] element type
//! (`f32` by default — see [`crate::scalar`]), with blocked GEMM kernels
//! over explicit SIMD microkernels.
//!
//! # Kernel design
//!
//! Every product funnels into the blocked *accumulation-form* kernel
//! [`gemm_stream`]: `C[i][j] += A[i][l] · B[l][j]`, iterated so the
//! innermost loop runs over contiguous output columns `j`. Unlike a
//! dot-product formulation — whose serial reduction chains cannot be
//! SIMD-vectorized under strict IEEE semantics — every `j` iteration here
//! is independent, so the row update vectorizes.
//!
//! * **Register blocking.** The kernel works one `MR × TJ` output tile at
//!   a time (4 × 16 for f32, 4 × 8 for f64 — two AVX2 vectors per row
//!   either way), holding the whole tile in vector registers across the
//!   entire reduction loop: per step it broadcasts four `A` scalars
//!   against one `TJ`-wide `B` stripe — 8 independent FMA streams, 4×
//!   register reuse of every `B` element — and stores the tile back
//!   exactly once. This is what removes the store-port bottleneck of the
//!   row-streaming form; widening the tile spills registers and collapses.
//!
//! * **Explicit microkernels.** The inner tile is no longer left to LLVM
//!   autovectorization: [`Scalar::gemm_tile`] dispatches to hand-written
//!   AVX2+FMA intrinsics on `x86_64` (runtime-detected) with a portable
//!   `mul_add` fallback that is **bit-identical** to the SIMD kernel —
//!   see [`crate::scalar`] for the dispatch rules and `DSS_NO_SIMD`.
//!   Tail rows and columns (shared by both kernels) use `mul_add` too.
//!
//! * **Packing.** The kernel wants the RHS row-major with rows indexed by
//!   the reduction dimension. [`Matrix::matmul_into`] already has that and
//!   packs nothing. [`Matrix::matmul_transpose_b_into`] (the layer-forward
//!   `x · Wᵀ`, the hottest product in training) packs `Wᵀ` once per call
//!   into a thread-local scratch buffer — `W`'s columns become contiguous
//!   kernel rows. [`Matrix::matmul_transpose_a_into`] needs no packing
//!   either: transposing `A` just means the register tile runs over `A`'s
//!   *columns* (contiguous 4-wide loads, contiguous everything else),
//!   which [`gemm_stream_at`] does directly.
//!
//! * **Scratch reuse.** All `_into` variants write into caller-provided
//!   output matrices, resizing in place; the pack buffer is thread-local
//!   (one per scalar type) and grows monotonically. After shapes
//!   stabilize the whole GEMM path performs **zero heap allocations**.
//!
//! * **Row sharding.** The `MR`-row register-tile bands are independent,
//!   so large products are sharded across the [`workpool`] pool exactly as
//!   before (disjoint contiguous row bands via `split_at_mut`, a
//!   [`PAR_MIN_FLOPS`] size heuristic, per-thread pack scratch).
//!
//! * **Fused bias + activation.** [`Matrix::matmul_bias_act_into`] and
//!   [`Matrix::matmul_transpose_b_bias_act_into`] apply the broadcast bias
//!   add and the activation inside each band task right after its rows are
//!   produced. The activation is passed as the [`Activation`] *enum* and
//!   matched **once per band**, monomorphizing the per-element call —
//!   the earlier closure-based epilogue cost ~15% of `dqn_train_step` in
//!   indirect calls.
//!
//! The original naive triple loops survive only as a `#[cfg(test)]`
//! reference oracle; property tests check the blocked kernels against them
//! over hundreds of random shapes for **both** scalar types, check the
//! parallel shards against the serial kernel on both sides of the size
//! cutoff, and check the AVX2 and scalar microkernels against each other
//! bit for bit.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::activation::Activation;
use crate::scalar::{active_microkernel, Elem, Microkernel, Scalar, MR, WMR};

pub use crate::scalar::{avx2_available, microkernel_name, with_microkernel};

/// Products below this many multiply-adds (`m·k·n`) stay on the serial
/// path: the paper's per-layer products at `H = 32` (32·64·32 ≈ 65k) are
/// cheaper than a pool wake-up, while the square stress shape (128³ ≈ 2M)
/// and the CQ-large input layer (32·2001·64 ≈ 4M) shard profitably.
const PAR_MIN_FLOPS: usize = 128 * 1024;

/// Extra sharding bar for the transposed-RHS kernels, which pay a
/// *serial* `Wᵀ` pack of `k·n` elements on the calling thread before any
/// band runs. Each thread's band does `(m/threads)·k·n` multiply-adds,
/// so the parallel-work-to-serial-pack ratio is exactly `m / threads` —
/// independent of `k` and `n`. Sharding only pays once every worker's
/// band dwarfs the pack, i.e. `m ≥ threads · this`: the CQ-large critic
/// input gradient (32×2001×64, 16 threads) stays serial — its 128k-element
/// pack used to cost more than the whole fused product — while the square
/// stress shape (128³) keeps sharding on pools up to 32 threads.
const T_B_PACK_AMORTIZE_ROWS: usize = 4;

/// A dense row-major matrix over scalar type `S` (default: the
/// workspace-wide training element [`Elem`]).
#[derive(Clone, PartialEq)]
pub struct Matrix<S: Scalar = Elem> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics when rows have differing lengths or no rows are given.
    pub fn from_rows(rows: &[&[S]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A 1×n matrix holding `row`.
    pub fn row_vector(row: &[S]) -> Self {
        Self {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Wraps an owned buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[S] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [S] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place to `rows × cols`, reusing the existing allocation
    /// when capacity allows (`Vec::resize` semantics: the flat buffer's
    /// common prefix is preserved, growth is zero-filled). Callers may
    /// rely on prefix preservation when growing a matrix *row-wise*, but
    /// a width change rearranges which `(r, c)` each retained element
    /// lands at. This is the resize every `_into` kernel applies
    /// to its output, so steady-state shapes never reallocate.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, S::ZERO);
    }

    /// Ensures room for `len` elements without reallocating — for scratch
    /// whose shape varies up to a known bound, so that no later `resize`
    /// within it allocates. Reserved but unused capacity is never touched.
    pub(crate) fn reserve(&mut self, len: usize) {
        self.data.reserve(len.saturating_sub(self.data.len()));
    }

    /// Makes `self` a same-shaped copy of `src` (no allocation once
    /// capacity suffices).
    pub fn copy_from(&mut self, src: &Matrix<S>) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// `self * other` — (m×k)·(k×n) → m×n, freshly allocated.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix<S>) -> Matrix<S> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self * other` into `out` (resized to m×n). The RHS is already in
    /// the kernel's layout (rows indexed by the reduction dimension), so
    /// this runs the blocked kernel directly with zero packing.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix<S>, out: &mut Matrix<S>) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dims {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.cols);
        gemm_dispatch(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            false,
            None,
        );
    }

    /// Fused `act(self * other + bias)` into `out` — the layer-forward
    /// epilogue folded into the GEMM: each row band applies the broadcast
    /// bias add and the activation right after it is produced (in
    /// parallel, while the band is cache-hot). The activation is matched
    /// once per band, so the per-element call is statically dispatched.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or when
    /// `bias.len() != other.cols()`.
    pub fn matmul_bias_act_into(
        &self,
        other: &Matrix<S>,
        bias: &[S],
        act: Activation,
        out: &mut Matrix<S>,
    ) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dims {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(bias.len(), other.cols, "bias width");
        out.resize(self.rows, other.cols);
        gemm_dispatch(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            false,
            Some((bias, act)),
        );
    }

    /// `self * otherᵀ` — (m×k)·(n×k)ᵀ → m×n, freshly allocated.
    ///
    /// # Panics
    /// Panics when column counts differ.
    pub fn matmul_transpose_b(&self, other: &Matrix<S>) -> Matrix<S> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transpose_b_into(other, &mut out);
        out
    }

    /// `self * otherᵀ` into `out` (resized to m×n) — the layer-forward
    /// `x · Wᵀ`. Packs `otherᵀ` into thread-local scratch so the kernel
    /// streams contiguous rows, then runs the blocked kernel.
    ///
    /// # Panics
    /// Panics when column counts differ.
    pub fn matmul_transpose_b_into(&self, other: &Matrix<S>, out: &mut Matrix<S>) {
        self.t_b_kernel(other, out, None);
    }

    /// Fused `act(self * otherᵀ + bias)` into `out` — like
    /// [`Matrix::matmul_bias_act_into`] over the packed-RHS product.
    ///
    /// # Panics
    /// Panics when column counts differ or `bias.len() != other.rows()`.
    pub fn matmul_transpose_b_bias_act_into(
        &self,
        other: &Matrix<S>,
        bias: &[S],
        act: Activation,
        out: &mut Matrix<S>,
    ) {
        assert_eq!(bias.len(), other.rows, "bias width");
        self.t_b_kernel(other, out, Some((bias, act)));
    }

    /// Shared core of the `self * otherᵀ` variants: packs `otherᵀ` into
    /// thread-local scratch on the calling thread, then dispatches with
    /// the pack shared read-only across row bands.
    fn t_b_kernel(&self, other: &Matrix<S>, out: &mut Matrix<S>, epilogue: Epilogue<'_, S>) {
        assert_eq!(self.cols, other.cols, "matmul_t_b dims");
        out.resize(self.rows, other.rows);
        // Move the pack buffer *out* of the thread-local for the duration
        // of the dispatch: the parallel path's helping caller can pick up
        // a foreign task that itself packs on this thread (e.g. an actor
        // rollout running `Dense::infer` while the learner waits on a
        // sharded product), and holding the RefCell borrow across the
        // scope would make that re-entry panic.
        let mut pack = S::take_pack();
        pack_transpose(other, &mut pack);
        gemm_dispatch_gated(
            &self.data,
            self.rows,
            self.cols,
            &pack,
            other.rows,
            &mut out.data,
            false,
            epilogue,
            true,
        );
        S::put_pack(pack);
    }

    /// `selfᵀ * other` — (m×k)ᵀ·(m×n) → k×n, freshly allocated.
    ///
    /// # Panics
    /// Panics when row counts differ.
    pub fn matmul_transpose_a(&self, other: &Matrix<S>) -> Matrix<S> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transpose_a_into(other, &mut out);
        out
    }

    /// `selfᵀ * other` into `out` (resized to k×n), overwriting `out`.
    ///
    /// # Panics
    /// Panics when row counts differ.
    pub fn matmul_transpose_a_into(&self, other: &Matrix<S>, out: &mut Matrix<S>) {
        out.resize(self.cols, other.cols);
        self.transpose_a_kernel(other, out, false);
    }

    /// `out += selfᵀ * other` — the accumulating variant backing gradient
    /// accumulation (`dW += dzᵀ x`) without a temporary.
    ///
    /// # Panics
    /// Panics when row counts differ or `out` is not k×n.
    pub fn matmul_transpose_a_acc(&self, other: &Matrix<S>, out: &mut Matrix<S>) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "accumulator shape"
        );
        self.transpose_a_kernel(other, out, true);
    }

    /// Shared core of the `selfᵀ * other` variants: the transposed-A
    /// kernel walks `self`'s columns directly (contiguous 4-wide loads),
    /// so no packing is needed and accumulation lands straight in `out`.
    fn transpose_a_kernel(&self, other: &Matrix<S>, out: &mut Matrix<S>, accumulate: bool) {
        assert_eq!(self.rows, other.rows, "matmul_t_a dims");
        gemm_at_dispatch(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            accumulate,
        );
    }

    /// Adds `row` to every row of `self` (broadcast add, used for biases).
    ///
    /// # Panics
    /// Panics when `row.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, row: &[S]) {
        self.add_row_activate(row, |v| v);
    }

    /// Fused broadcast-add + element-wise map: `self[r][c] =
    /// f(self[r][c] + row[c])` — one pass instead of the separate
    /// bias-add and activation sweeps.
    ///
    /// # Panics
    /// Panics when `row.len() != self.cols()`.
    pub fn add_row_activate(&mut self, row: &[S], mut f: impl FnMut(S) -> S) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(row) {
                *v = f(*v + b);
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, mut f: impl FnMut(S) -> S) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix<S>) -> Matrix<S> {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum over rows, producing one value per column.
    pub fn column_sums(&self) -> Vec<S> {
        let mut sums = vec![S::ZERO; self.cols];
        self.add_column_sums_to(&mut sums);
        sums
    }

    /// Accumulates per-column sums into `acc` (the allocation-free form
    /// used for bias-gradient accumulation).
    ///
    /// # Panics
    /// Panics when `acc.len() != self.cols()`.
    pub fn add_column_sums_to(&self, acc: &mut [S]) {
        assert_eq!(acc.len(), self.cols, "column sum width");
        for r in 0..self.rows {
            for (s, &v) in acc.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Frobenius norm (accumulated and reported in `f64` regardless of
    /// the element type).
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.to_f64() * v.to_f64())
            .sum::<f64>()
            .sqrt()
    }
}

/// Packs `m`'s transpose into `pack` (resized to cols×rows, row-major).
fn pack_transpose<S: Scalar>(m: &Matrix<S>, pack: &mut Vec<S>) {
    pack.resize(m.data.len(), S::ZERO);
    transpose_cols_into(&m.data, m.rows, m.cols, (0..m.cols).map(|c| (c, c)), pack);
}

/// Writes columns of a `rows × width` row-major buffer as rows of `out`
/// (row-major, `rows` wide): for each `(j, c)` of `cols`, output row `j`
/// is source column `c`. `(0..width).map(|c| (c, c))` is the whole
/// transpose; a layer's support pack names the input columns its batch
/// touches.
///
/// The source is walked in bands of `BAND` rows: each output row receives
/// `BAND` contiguous elements (a cache line of f32) and a band's source
/// lines are used up before they can be evicted. Walking whole source rows
/// instead strides every write by `rows` and sweeps the entire output once
/// per source row, which stops being cheap once the output outgrows the
/// cache: 148 ms against 17 ms for the fleet critic's 64 × 294 913 first
/// layer, 266 against 67 µs at 64 × 2001, no difference at 64 × 161.
///
/// # Panics
/// Panics when `src` is not `rows · width` long, or a column or an output
/// row is out of range.
pub(crate) fn transpose_cols_into<S: Scalar>(
    src: &[S],
    rows: usize,
    width: usize,
    cols: impl Iterator<Item = (usize, usize)> + Clone,
    out: &mut [S],
) {
    const BAND: usize = 16;
    assert_eq!(src.len(), rows * width, "transpose source size");
    for r0 in (0..rows).step_by(BAND) {
        let r1 = (r0 + BAND).min(rows);
        for (j, c) in cols.clone() {
            assert!(c < width, "transpose column out of range");
            let dst = &mut out[j * rows + r0..j * rows + r1];
            for (d, r) in dst.iter_mut().zip(r0..r1) {
                *d = src[r * width + c];
            }
        }
    }
}

/// Optional fused epilogue: broadcast bias plus the activation.
type Epilogue<'a, S> = Option<(&'a [S], Activation)>;

/// Applies the fused epilogue to a band of rows (`band.len() = rows·n`)
/// through the activation row kernel.
fn apply_epilogue<S: Scalar>(band: &mut [S], n: usize, bias: &[S], act: Activation) {
    for row in band.chunks_exact_mut(n) {
        act.apply_row(row, bias);
    }
}

/// Whether a product of `rows` output rows and `flops = m·k·n`
/// multiply-adds is worth sharding across `threads` workers.
fn worth_sharding(threads: usize, rows: usize, flops: usize) -> bool {
    threads > 1 && rows >= 2 * MR && flops >= PAR_MIN_FLOPS
}

/// [`worth_sharding`] for the transposed-RHS kernels: additionally
/// requires enough output rows to amortize the serial `Wᵀ` pack across
/// the pool (see [`T_B_PACK_AMORTIZE_ROWS`]).
fn worth_sharding_packed(threads: usize, rows: usize, flops: usize) -> bool {
    worth_sharding(threads, rows, flops) && rows >= threads * T_B_PACK_AMORTIZE_ROWS
}

/// Untransposed-kernel entry point: routes to [`gemm_parallel`] when the
/// current pool and the product size justify it, else runs the serial
/// kernel (plus epilogue) inline.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch<S: Scalar>(
    a: &[S],
    m: usize,
    k: usize,
    b: &[S],
    n: usize,
    out: &mut [S],
    accumulate: bool,
    epilogue: Epilogue<'_, S>,
) {
    gemm_dispatch_gated(a, m, k, b, n, out, accumulate, epilogue, false)
}

/// [`gemm_dispatch`] with the gate made explicit: `packed_rhs` marks
/// products whose RHS was packed serially on the calling thread (the
/// transposed-B kernels), which must clear the stricter
/// [`worth_sharding_packed`] bar before paying for a pool dispatch.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch_gated<S: Scalar>(
    a: &[S],
    m: usize,
    k: usize,
    b: &[S],
    n: usize,
    out: &mut [S],
    accumulate: bool,
    epilogue: Epilogue<'_, S>,
    packed_rhs: bool,
) {
    let flops = m.saturating_mul(k).saturating_mul(n);
    workpool::with_current(|pool| {
        let shard = if packed_rhs {
            worth_sharding_packed(pool.threads(), m, flops)
        } else {
            worth_sharding(pool.threads(), m, flops)
        };
        if shard {
            gemm_parallel(pool, a, m, k, b, n, out, accumulate, epilogue);
        } else {
            gemm_stream(a, m, k, b, n, out, accumulate);
            if let Some((bias, act)) = epilogue {
                apply_epilogue(out, n, bias, act);
            }
        }
    });
}

/// Row-sharded `out[m×n] (+)= a[m×k] · b[k×n]`: splits `a` and `out` into
/// disjoint contiguous bands of whole `MR`-row tiles (only the last band
/// carries tail rows), one scoped task per band, each running the serial
/// kernel — and, when fused, its epilogue — on its own slice. Safe Rust
/// throughout: the bands come from `split_at`/`split_at_mut`.
#[allow(clippy::too_many_arguments)]
fn gemm_parallel<S: Scalar>(
    pool: &workpool::Pool,
    a: &[S],
    m: usize,
    k: usize,
    b: &[S],
    n: usize,
    out: &mut [S],
    accumulate: bool,
    epilogue: Epilogue<'_, S>,
) {
    let bands = pool.threads().min(m.div_ceil(MR)).max(1);
    let rows_per = m.div_ceil(bands).div_ceil(MR) * MR;
    pool.scope(|s| {
        let mut a_rest = a;
        let mut out_rest = &mut *out;
        let mut i = 0;
        while i < m {
            let take = rows_per.min(m - i);
            let (a_band, a_tail) = a_rest.split_at(take * k);
            let (o_band, o_tail) = out_rest.split_at_mut(take * n);
            a_rest = a_tail;
            out_rest = o_tail;
            s.spawn(move || {
                gemm_stream(a_band, take, k, b, n, o_band, accumulate);
                if let Some((bias, act)) = epilogue {
                    apply_epilogue(o_band, n, bias, act);
                }
            });
            i += take;
        }
    });
}

/// Transposed-A entry point: same routing as [`gemm_dispatch`] for
/// `out[p×n] (+)= aᵀ · b` (output rows are `a`'s columns).
fn gemm_at_dispatch<S: Scalar>(
    a: &[S],
    m: usize,
    p: usize,
    b: &[S],
    n: usize,
    out: &mut [S],
    accumulate: bool,
) {
    let flops = m.saturating_mul(p).saturating_mul(n);
    workpool::with_current(|pool| {
        if worth_sharding(pool.threads(), p, flops) {
            gemm_at_parallel(pool, a, m, p, b, n, out, accumulate);
        } else {
            gemm_stream_at(a, m, p, b, n, out, accumulate);
        }
    });
}

/// Row-sharded transposed-A product: output rows `q0..q1` correspond to
/// *columns* of `a`, so only `out` is banded (each task reads all of `a`
/// and `b`, strided by its column range).
#[allow(clippy::too_many_arguments)]
fn gemm_at_parallel<S: Scalar>(
    pool: &workpool::Pool,
    a: &[S],
    m: usize,
    p: usize,
    b: &[S],
    n: usize,
    out: &mut [S],
    accumulate: bool,
) {
    at_bands(pool, p, n, out, |q0, q1, band| {
        gemm_stream_at_range(a, m, p, b, n, q0, q1, band, accumulate)
    });
}

/// Splits the `p` output rows (`width` each) of `out` into bands of whole
/// `MR`-row tiles (only the last band carries tail rows) and runs
/// `job(q0, q1, band)` for each as one scoped task.
fn at_bands<S: Scalar>(
    pool: &workpool::Pool,
    p: usize,
    width: usize,
    out: &mut [S],
    job: impl Fn(usize, usize, &mut [S]) + Sync,
) {
    let bands = pool.threads().min(p.div_ceil(MR)).max(1);
    let rows_per = p.div_ceil(bands).div_ceil(MR) * MR;
    let job = &job;
    pool.scope(|s| {
        let mut out_rest = &mut *out;
        let mut q = 0;
        while q < p {
            let take = rows_per.min(p - q);
            let (o_band, o_tail) = out_rest.split_at_mut(take * width);
            out_rest = o_tail;
            s.spawn(move || job(q, q + take, o_band));
            q += take;
        }
    });
}

/// The blocked accumulation kernel: `out[m×n] (+)= a[m×k] · b[k×n]`, all
/// row-major. Full `MR × TJ` tiles run through the dispatched microkernel
/// ([`Scalar::gemm_tile`] — AVX2+FMA or the bit-identical `mul_add`
/// fallback); tail rows and columns fall back to simple streamed updates
/// shared by both kernels.
fn gemm_stream<S: Scalar>(
    a: &[S],
    m: usize,
    k: usize,
    b: &[S],
    n: usize,
    out: &mut [S],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if !accumulate {
        out.fill(S::ZERO);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = active_microkernel();
    let wtj = 2 * S::TJ;
    let mut i = 0;
    while i + MR <= m {
        // AVX-512 wide path: 8-row × 2·TJ-column zmm tiles while both
        // dimensions have room; the column remainder of each wide band
        // and every narrower band fall through to the MR-row kernel
        // (bit-identical — the tile shape never regroups an output
        // element's FMA chain).
        if kernel == Microkernel::Avx512 && i + WMR <= m && wtj <= n {
            let mut jt = 0;
            while jt + wtj <= n {
                S::gemm_tile_wide(kernel, &a[i * k..], k, b, n, jt, &mut out[i * n..]);
                jt += wtj;
            }
            for h in 0..WMR / MR {
                let row = i + h * MR;
                gemm_rows_mr(kernel, &a[row * k..], k, b, n, jt, &mut out[row * n..]);
            }
            i += WMR;
            continue;
        }
        gemm_rows_mr(kernel, &a[i * k..], k, b, n, 0, &mut out[i * n..]);
        i += MR;
    }
    while i < m {
        let o = &mut out[i * n..(i + 1) * n];
        for l in 0..k {
            let av = a[i * k + l];
            let b_row = &b[l * n..(l + 1) * n];
            for (ov, &bv) in o.iter_mut().zip(b_row) {
                *ov = av.mul_add(bv, *ov);
            }
        }
        i += 1;
    }
}

/// One `MR`-row band of the streaming kernel starting at column `jt0`:
/// full-`TJ` tiles through the dispatched microkernel, then a scalar
/// column tail. `a` is pre-sliced at the band's first row, `out` at its
/// first output row.
fn gemm_rows_mr<S: Scalar>(
    kernel: Microkernel,
    a: &[S],
    k: usize,
    b: &[S],
    n: usize,
    jt0: usize,
    out: &mut [S],
) {
    let tj = S::TJ;
    let mut jt = jt0;
    while jt + tj <= n {
        S::gemm_tile(kernel, a, k, b, n, jt, out);
        jt += tj;
    }
    while jt < n {
        let mut acc = [S::ZERO; MR];
        for l in 0..k {
            let bv = b[l * n + jt];
            for (r, av) in acc.iter_mut().enumerate() {
                *av = a[r * k + l].mul_add(bv, *av);
            }
        }
        for (r, &av) in acc.iter().enumerate() {
            out[r * n + jt] += av;
        }
        jt += 1;
    }
}

/// Transposed-A variant: `out[p×n] (+)= aᵀ[p×m] · b[m×n]` with `a` given
/// untransposed (m×p row-major). Identical tiling; the four broadcast
/// scalars per step are four *adjacent columns* of `a` — one contiguous
/// 4-element load per reduction index — so no packing is needed.
fn gemm_stream_at<S: Scalar>(
    a: &[S],
    m: usize,
    p: usize,
    b: &[S],
    n: usize,
    out: &mut [S],
    accumulate: bool,
) {
    debug_assert_eq!(out.len(), p * n);
    gemm_stream_at_range(a, m, p, b, n, 0, p, out, accumulate);
}

/// Column-range form of the transposed-A kernel: computes output rows
/// `q0..q1` (columns `q0..q1` of `a`) into `out_band`, a `(q1−q0)×n`
/// slice. This is the unit the parallel path shards on — bands touch
/// disjoint `out` slices while reading `a` and `b` shared.
#[allow(clippy::too_many_arguments)]
fn gemm_stream_at_range<S: Scalar>(
    a: &[S],
    m: usize,
    p: usize,
    b: &[S],
    n: usize,
    q0: usize,
    q1: usize,
    out_band: &mut [S],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * p);
    debug_assert_eq!(b.len(), m * n);
    debug_assert!(q0 <= q1 && q1 <= p);
    debug_assert_eq!(out_band.len(), (q1 - q0) * n);
    if !accumulate {
        out_band.fill(S::ZERO);
    }
    if m == 0 || n == 0 || q0 == q1 {
        return;
    }
    let kernel = active_microkernel();
    let tj = S::TJ;
    let row = |q: usize| (q - q0) * n;
    let mut q = q0;
    while q + MR <= q1 {
        let mut jt = 0;
        while jt + tj <= n {
            S::gemm_tile_at(kernel, a, m, p, q, b, n, jt, &mut out_band[row(q) + jt..]);
            jt += tj;
        }
        while jt < n {
            let mut acc = [S::ZERO; MR];
            for l in 0..m {
                let bv = b[l * n + jt];
                let ar = &a[l * p + q..l * p + q + MR];
                for (av, &aval) in acc.iter_mut().zip(ar) {
                    *av = aval.mul_add(bv, *av);
                }
            }
            for (r, &av) in acc.iter().enumerate() {
                out_band[row(q + r) + jt] += av;
            }
            jt += 1;
        }
        q += MR;
    }
    while q < q1 {
        let o = &mut out_band[row(q)..row(q) + n];
        for l in 0..m {
            let av = a[l * p + q];
            let b_row = &b[l * n..(l + 1) * n];
            for (ov, &bv) in o.iter_mut().zip(b_row) {
                *ov = av.mul_add(bv, *ov);
            }
        }
        q += 1;
    }
}

/// Calls `f(x, cols[x], run)` for each maximal run of consecutive columns
/// in the ascending `cols`, in order.
pub(crate) fn for_each_run(cols: &[usize], mut f: impl FnMut(usize, usize, usize)) {
    let mut x = 0;
    while x < cols.len() {
        let c = cols[x];
        // Strictly ascending: the rest is one run iff it spans exactly its
        // length.
        let mut run = cols.len() - x;
        if cols[cols.len() - 1] - c != run - 1 {
            run = 1;
            while cols.get(x + run) == Some(&(c + run)) {
                run += 1;
            }
        }
        f(x, c, run);
        x += run;
    }
}

/// `out = a · b` for a row-major `m × b.rows()` slice `a` — a block of
/// rows of a packed `Wᵀ` — through the blocked kernel.
///
/// # Panics
/// Panics when `a` is not `m · b.rows()` long.
pub(crate) fn matmul_rows_into<S: Scalar>(a: &[S], m: usize, b: &Matrix<S>, out: &mut Matrix<S>) {
    assert_eq!(a.len(), m * b.rows, "matmul dims");
    out.resize(m, b.cols);
    gemm_dispatch(a, m, b.rows, &b.data, b.cols, &mut out.data, false, None);
}

impl<S: Scalar> Default for Matrix<S> {
    /// An empty 0×0 matrix (no allocation) — the idiomatic initial state
    /// for scratch buffers that `resize` on first use.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    fn index(&self, (r, c): (usize, usize)) -> &S {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut S {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl<S: Scalar> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix<{}> {}x{} [", S::NAME, self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

/// Naive triple-loop reference kernels: the pre-blocking implementations,
/// kept solely as the oracle the property tests compare the blocked
/// kernels against (for both scalar instantiations).
#[cfg(test)]
pub(crate) mod reference {
    use super::{Matrix, Scalar};

    /// Naive `a * b`.
    pub fn matmul<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
        assert_eq!(a.cols(), b.rows(), "matmul dims");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let a_ik = a[(i, k)];
                for j in 0..b.cols() {
                    out[(i, j)] += a_ik * b[(k, j)];
                }
            }
        }
        out
    }

    /// Naive `a * bᵀ`.
    pub fn matmul_transpose_b<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
        assert_eq!(a.cols(), b.cols(), "matmul_t_b dims");
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = S::ZERO;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(j, k)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Naive `aᵀ * b`.
    pub fn matmul_transpose_a<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
        assert_eq!(a.rows(), b.rows(), "matmul_t_a dims");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            for k in 0..a.cols() {
                let a_rk = a[(r, k)];
                for j in 0..b.cols() {
                    out[(k, j)] += a_rk * b[(r, j)];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Microkernel;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn f32_instantiation_computes_the_same_product() {
        let a = Matrix::<f32>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::<f32>::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0f32, 22.0]);
        assert_eq!(c.row(1), &[43.0f32, 50.0]);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]); // 2x3
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 2.0, 3.0]]); // 2x3
                                                                          // a * b^T == 2x2
        let abt = a.matmul_transpose_b(&b);
        let bt = Matrix::from_fn(3, 2, |r, c| b[(c, r)]);
        assert_eq!(abt, a.matmul(&bt));
        // a^T * b == 3x3
        let atb = a.matmul_transpose_a(&b);
        let at = Matrix::from_fn(3, 2, |r, c| a[(c, r)]);
        assert_eq!(atb, at.matmul(&b));
    }

    #[test]
    fn into_variants_reuse_output() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::zeros(7, 7); // wrong shape on purpose
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_transpose_b_into(&b, &mut out);
        assert_eq!(out, a.matmul_transpose_b(&b));
        a.matmul_transpose_a_into(&b, &mut out);
        assert_eq!(out, a.matmul_transpose_a(&b));
    }

    #[test]
    fn accumulating_transpose_a_adds() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let once = a.matmul_transpose_a(&b);
        let mut acc = once.clone();
        a.matmul_transpose_a_acc(&b, &mut acc);
        for (twice, one) in acc.data().iter().zip(once.data()) {
            assert!((twice - 2.0 * one).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_bias_activation_matches_two_pass() {
        let mut fused = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]);
        let mut two_pass = fused.clone();
        let bias = [0.25, -0.75];
        fused.add_row_activate(&bias, f64::tanh);
        two_pass.add_row_broadcast(&bias);
        two_pass.map_inplace(f64::tanh);
        assert_eq!(fused, two_pass);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut m = Matrix::<f64>::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(m.column_sums(), vec![3.0, -6.0]);
        let mut acc = vec![1.0, 1.0];
        m.add_column_sums_to(&mut acc);
        assert_eq!(acc, vec![4.0, -5.0]);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_rows(&[&[2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, -1.0]]);
        assert_eq!(a.hadamard(&b).row(0), &[8.0, -3.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(2, 2);
        m[(1, 0)] = 5.0;
        assert_eq!(m[(1, 0)], 5.0);
        assert_eq!(m.row(1), &[5.0, 0.0]);
    }

    #[test]
    fn norm_of_unit_rows() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.norm() - 5.0).abs() < 1e-12);
        let m32 = Matrix::<f32>::from_rows(&[&[3.0, 4.0]]);
        assert!((m32.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn resize_reuses_allocation() {
        let mut m = Matrix::<f64>::zeros(8, 8);
        let cap = m.data.capacity();
        m.resize(4, 4);
        m.resize(8, 8);
        assert_eq!(m.data.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_shape_checked() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// The AVX2 and scalar microkernels must agree **bit for bit** on the
    /// full blocked GEMM — tiles, tails and packing included — for both
    /// scalar types (acceptance criterion of the SIMD refactor).
    #[test]
    fn full_gemm_bit_identical_across_microkernels() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        fn case<S: Scalar>() {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(99);
            for &(m, k, n) in &[(9usize, 37usize, 21usize), (32, 64, 32), (5, 7, 3)] {
                let a = Matrix::<S>::from_fn(m, k, |_, _| S::from_f64(rng.random_range(-1.0..1.0)));
                let b = Matrix::<S>::from_fn(k, n, |_, _| S::from_f64(rng.random_range(-1.0..1.0)));
                let bt =
                    Matrix::<S>::from_fn(n, k, |_, _| S::from_f64(rng.random_range(-1.0..1.0)));
                let c = Matrix::<S>::from_fn(m, n, |_, _| S::from_f64(rng.random_range(-1.0..1.0)));
                let (avx, avx_tb, avx_ta) = with_microkernel(Microkernel::Avx2Fma, || {
                    (
                        a.matmul(&b),
                        a.matmul_transpose_b(&bt),
                        a.matmul_transpose_a(&c),
                    )
                });
                let (sca, sca_tb, sca_ta) = with_microkernel(Microkernel::Scalar, || {
                    (
                        a.matmul(&b),
                        a.matmul_transpose_b(&bt),
                        a.matmul_transpose_a(&c),
                    )
                });
                assert_eq!(avx, sca, "{} {m}x{k}x{n} matmul", S::NAME);
                assert_eq!(avx_tb, sca_tb, "{} {m}x{k}x{n} matmul_t_b", S::NAME);
                assert_eq!(avx_ta, sca_ta, "{} {m}x{k}x{n} matmul_t_a", S::NAME);
            }
        }
        case::<f32>();
        case::<f64>();
    }
}

/// Property tests: the blocked/packed kernels must match the naive
/// reference oracle over random shapes — including empty (0-dim) and 1×n
/// degenerate cases — for **both** scalar instantiations (f64 to 1e-12,
/// f32 to a relative 1e-4, commensurate with its 24-bit mantissa over
/// reductions up to k = 64).
#[cfg(test)]
mod property_tests {
    use super::reference;
    use super::{transpose_cols_into, Matrix, Scalar};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix<S: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<S> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| S::from_f64(rng.random_range(-2.0..2.0)))
    }

    /// Per-scalar oracle tolerance: absolute for f64 (1e-12), relative to
    /// `max(1, |want|)` for f32 (1e-4).
    fn tol<S: Scalar>() -> f64 {
        if S::NAME == "f32" {
            1e-4
        } else {
            1e-12
        }
    }

    fn assert_close<S: Scalar>(got: &Matrix<S>, want: &Matrix<S>) -> Result<(), TestCaseError> {
        prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        let tol = tol::<S>();
        for (g, w) in got.data().iter().zip(want.data()) {
            let (g, w) = (g.to_f64(), w.to_f64());
            let bound = tol * w.abs().max(1.0);
            prop_assert!(
                (g - w).abs() <= bound,
                "{} kernel mismatch: {} vs {} (diff {:e})",
                S::NAME,
                g,
                w,
                (g - w).abs()
            );
        }
        Ok(())
    }

    fn check_all_products<S: Scalar>(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let a = random_matrix::<S>(m, k, seed);
        let b = random_matrix::<S>(k, n, seed ^ 0xA5A5);
        assert_close(&a.matmul(&b), &reference::matmul(&a, &b))?;
        let bt = random_matrix::<S>(n, k, seed ^ 0x5A5A);
        assert_close(
            &a.matmul_transpose_b(&bt),
            &reference::matmul_transpose_b(&a, &bt),
        )?;
        let c = random_matrix::<S>(m, n, seed ^ 0x3C3C);
        assert_close(
            &a.matmul_transpose_a(&c),
            &reference::matmul_transpose_a(&a, &c),
        )?;
        Ok(())
    }

    /// Ragged shapes around the transpose's tile edges, plus the two
    /// aspect ratios the layer caches produce (`cols ≫ rows` for a wide
    /// first layer, `rows ≫ cols` for a wide output layer).
    fn transpose_shape() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            (1usize..=70, 1usize..=70),
            Just((64usize, 2001usize)),
            Just((1000usize, 32usize)),
        ]
    }

    /// Shape strategy: each dimension 0..64, with 0 and 1 over-weighted so
    /// empty and row/column-vector cases appear often.
    fn dim() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), Just(1usize), 1usize..64]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn blocked_kernels_match_naive_f64((m, k, n, seed) in (dim(), dim(), dim(), 0u64..1 << 32)) {
            check_all_products::<f64>(m, k, n, seed)?;
        }

        #[test]
        fn blocked_kernels_match_naive_f32((m, k, n, seed) in (dim(), dim(), dim(), 0u64..1 << 32)) {
            check_all_products::<f32>(m, k, n, seed)?;
        }

        #[test]
        fn blocked_transpose_matches_its_definition(((rows, cols), seed) in (transpose_shape(), 0u64..1 << 32)) {
            let src = random_matrix::<f32>(rows, cols, seed);
            let mut out = vec![f32::NAN; rows * cols];
            transpose_cols_into(src.data(), rows, cols, (0..cols).map(|c| (c, c)), &mut out);
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(out[c * rows + r].to_bits(), src[(r, c)].to_bits());
                }
            }
            // A column subset: output row `j` is source column `subset[j]`.
            let subset: Vec<usize> = (0..cols).filter(|c| !(c * 7 + seed as usize).is_multiple_of(3)).collect();
            let mut out = vec![f32::NAN; rows * subset.len()];
            transpose_cols_into(src.data(), rows, cols, subset.iter().copied().enumerate(), &mut out);
            for r in 0..rows {
                for (j, &c) in subset.iter().enumerate() {
                    prop_assert_eq!(out[j * rows + r].to_bits(), src[(r, c)].to_bits());
                }
            }
        }

        #[test]
        fn tile_boundaries_and_long_reductions((dm, dn) in (0usize..9, 0usize..19)) {
            // Shapes straddling the MR×TJ register tile (m around 4·MR,
            // n around 2·TJ) with a long reduction dimension.
            let (m, n, k) = (dm + 13, dn + 25, 1037);
            let a = random_matrix::<f64>(m, k, 11);
            let b = random_matrix::<f64>(k, n, 12);
            assert_close(&a.matmul(&b), &reference::matmul(&a, &b))?;
        }

        #[test]
        fn tile_boundaries_and_long_reductions_f32((dm, dn) in (0usize..9, 0usize..19)) {
            let (m, n, k) = (dm + 13, dn + 25, 517);
            let a = random_matrix::<f32>(m, k, 13);
            let b = random_matrix::<f32>(k, n, 14);
            // Long f32 reductions accumulate more rounding than the short
            // shapes; widen the relative bound accordingly (k·eps ≈ 6e-5).
            let got = a.matmul(&b);
            let want = reference::matmul(&a, &b);
            for (g, w) in got.data().iter().zip(want.data()) {
                let (g, w) = (g.to_f64(), w.to_f64());
                prop_assert!((g - w).abs() <= 2e-3 * w.abs().max(1.0));
            }
        }
    }
}

/// Parallel ≡ serial: the sharded paths must reproduce the serial kernels
/// on both sides of the size heuristic — via the public dispatch under a
/// forced multi-thread pool (shapes spanning the cutoff), and via the band
/// splitter directly on shapes *below* the cutoff, which the heuristic
/// would never shard on its own. Run for both scalar instantiations.
#[cfg(test)]
mod parallel_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::{Arc, OnceLock};

    fn pool() -> Arc<workpool::Pool> {
        static POOL: OnceLock<Arc<workpool::Pool>> = OnceLock::new();
        Arc::clone(POOL.get_or_init(|| Arc::new(workpool::Pool::new(4))))
    }

    fn random_matrix<S: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<S> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| S::from_f64(rng.random_range(-2.0..2.0)))
    }

    fn assert_close<S: Scalar>(got: &[S], want: &[S]) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            let (g, w) = (g.to_f64(), w.to_f64());
            prop_assert!(
                (g - w).abs() <= 1e-12 * w.abs().max(1.0) + 1e-12,
                "parallel/serial mismatch: {g} vs {w}"
            );
        }
        Ok(())
    }

    /// The size heuristic must shard the bench shapes and keep the
    /// paper's per-layer products serial — a regression here would
    /// silently turn the "parallel" path into always-serial (or shard
    /// products too small to profit) without failing any equality test.
    #[test]
    fn heuristic_shards_large_and_keeps_small_serial() {
        assert!(worth_sharding(4, 128, 128 * 128 * 128));
        assert!(worth_sharding(2, 32, 32 * 2001 * 64));
        assert!(!worth_sharding(4, 32, 32 * 64 * 32), "paper layer shape");
        assert!(!worth_sharding(1, 128, 128 * 128 * 128), "serial pool");
        assert!(!worth_sharding(4, 4, 4 * 4096 * 4096), "too few rows");
    }

    /// The transposed-RHS gate must additionally amortize the serial
    /// `Wᵀ` pack: the CQ-large critic gradient (32×2001×64) used to shard
    /// on wide pools and run ~2x *slower* than the serial kernel because
    /// its 128k-element pack dominated the four-row-tile bands.
    #[test]
    fn packed_heuristic_keeps_wide_k_short_m_serial() {
        assert!(
            !worth_sharding_packed(16, 32, 32 * 2001 * 64),
            "regression shape: pack dwarfs per-band work on wide pools"
        );
        assert!(
            worth_sharding_packed(4, 32, 32 * 2001 * 64),
            "small pools still amortize (m/threads = 8 bands per pack)"
        );
        assert!(
            worth_sharding_packed(16, 128, 128 * 128 * 128),
            "square stress shape keeps sharding"
        );
        assert!(!worth_sharding_packed(16, 64, 32 * 64 * 32), "small flops");
    }

    /// Regression: a sharded `x · Wᵀ` product's helping caller may pop a
    /// foreign task that itself packs on this thread (actor rollouts
    /// running small forwards while the learner waits on its bands).
    /// Packing scratch must therefore not stay borrowed across the scope.
    #[test]
    fn helping_caller_can_reenter_packing_kernel() {
        let p = pool();
        let big_a = random_matrix::<f64>(96, 64, 1);
        let big_b = random_matrix::<f64>(96, 64, 2); // 96·64·96 ≈ 590k ≥ cutoff
        let small_a = random_matrix::<f64>(8, 8, 3);
        let small_b = random_matrix::<f64>(8, 8, 4);
        let want_big = big_a.matmul_transpose_b(&big_b);
        let want_small = small_a.matmul_transpose_b(&small_b);
        std::thread::scope(|ts| {
            for _ in 0..2 {
                let p = Arc::clone(&p);
                let (sa, sb, ws) = (&small_a, &small_b, &want_small);
                ts.spawn(move || {
                    p.scope(|s| {
                        for _ in 0..200 {
                            s.spawn(move || {
                                assert_eq!(&sa.matmul_transpose_b(sb), ws);
                            });
                        }
                    });
                });
            }
            workpool::with_pool(Arc::clone(&p), || {
                let mut out = Matrix::default();
                for _ in 0..100 {
                    big_a.matmul_transpose_b_into(&big_b, &mut out);
                }
                assert_eq!(out, want_big);
            });
        });
    }

    fn dispatch_case<S: Scalar>(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let a = random_matrix::<S>(m, k, seed);
        let b = random_matrix::<S>(k, n, seed ^ 0x11);
        let bt = random_matrix::<S>(n, k, seed ^ 0x22);
        let c = random_matrix::<S>(m, n, seed ^ 0x33);
        let (mut par, mut par_tb, mut par_ta) =
            (Matrix::default(), Matrix::default(), Matrix::default());
        workpool::with_pool(pool(), || {
            a.matmul_into(&b, &mut par);
            a.matmul_transpose_b_into(&bt, &mut par_tb);
            a.matmul_transpose_a_into(&c, &mut par_ta);
        });
        let serial = workpool::with_pool(Arc::new(workpool::Pool::new(1)), || {
            (
                a.matmul(&b),
                a.matmul_transpose_b(&bt),
                a.matmul_transpose_a(&c),
            )
        });
        assert_close(par.data(), serial.0.data())?;
        assert_close(par_tb.data(), serial.1.data())?;
        assert_close(par_ta.data(), serial.2.data())?;
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// Public dispatch under a 4-thread pool: shapes from tiny
        /// (serial path) to ~90³ (well past the cutoff), both scalars.
        #[test]
        fn dispatch_parallel_matches_serial_f64((m, k, n, seed) in (0usize..90, 0usize..90, 0usize..90, 0u64..1 << 32)) {
            dispatch_case::<f64>(m, k, n, seed)?;
        }

        #[test]
        fn dispatch_parallel_matches_serial_f32((m, k, n, seed) in (0usize..90, 0usize..90, 0usize..90, 0u64..1 << 32)) {
            dispatch_case::<f32>(m, k, n, seed)?;
        }

        /// Band splitter forced on sub-cutoff shapes (the heuristic would
        /// keep all of these serial), both overwrite and accumulate.
        #[test]
        fn forced_sharding_matches_serial_below_cutoff((m, k, n, seed) in (0usize..24, 0usize..24, 0usize..24, 0u64..1 << 32)) {
            let p = pool();
            let a = random_matrix::<f64>(m, k, seed);
            let b = random_matrix::<f64>(k, n, seed ^ 0x44);
            let mut par = vec![0.0; m * n];
            let mut ser = vec![0.0; m * n];
            gemm_parallel(&p, a.data(), m, k, b.data(), n, &mut par, false, None);
            gemm_stream(a.data(), m, k, b.data(), n, &mut ser, false);
            assert_close(&par, &ser)?;

            // Transposed-A, accumulating into a non-zero output.
            let c = random_matrix::<f64>(m, n, seed ^ 0x55);
            let init = random_matrix::<f64>(k, n, seed ^ 0x66);
            let mut par_at = init.data().to_vec();
            let mut ser_at = init.data().to_vec();
            gemm_at_parallel(&p, a.data(), m, k, c.data(), n, &mut par_at, true);
            gemm_stream_at(a.data(), m, k, c.data(), n, &mut ser_at, true);
            assert_close(&par_at, &ser_at)?;
        }

        /// Fused bias+activation epilogue ≡ separate GEMM + sweep, on both
        /// the plain and the packed-RHS product, under the parallel pool.
        #[test]
        fn fused_epilogue_matches_two_pass((m, k, n, seed) in (1usize..70, 1usize..70, 1usize..70, 0u64..1 << 32)) {
            let a = random_matrix::<f64>(m, k, seed);
            let b = random_matrix::<f64>(k, n, seed ^ 0x77);
            let bt = random_matrix::<f64>(n, k, seed ^ 0x88);
            let bias: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let (mut fused, mut fused_tb) = (Matrix::default(), Matrix::default());
            workpool::with_pool(pool(), || {
                a.matmul_bias_act_into(&b, &bias, Activation::Tanh, &mut fused);
                a.matmul_transpose_b_bias_act_into(&bt, &bias, Activation::Tanh, &mut fused_tb);
            });
            let mut two_pass = a.matmul(&b);
            two_pass.add_row_activate(&bias, f64::tanh);
            let mut two_pass_tb = a.matmul_transpose_b(&bt);
            two_pass_tb.add_row_activate(&bias, f64::tanh);
            assert_close(fused.data(), two_pass.data())?;
            assert_close(fused_tb.data(), two_pass_tb.data())?;
        }

        /// The f32 fused epilogue over the monomorphized enum must match
        /// the closure-based two-pass sweep exactly (same `tanh` calls).
        #[test]
        fn fused_epilogue_matches_two_pass_f32((m, k, n, seed) in (1usize..40, 1usize..40, 1usize..40, 0u64..1 << 32)) {
            let a = random_matrix::<f32>(m, k, seed);
            let bt = random_matrix::<f32>(n, k, seed ^ 0x99);
            let bias: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            let mut fused = Matrix::default();
            a.matmul_transpose_b_bias_act_into(&bt, &bias, Activation::Tanh, &mut fused);
            let mut two_pass = a.matmul_transpose_b(&bt);
            two_pass.add_row_activate(&bias, f32::tanh);
            prop_assert_eq!(fused, two_pass);
        }
    }
}
