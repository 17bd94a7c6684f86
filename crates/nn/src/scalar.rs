//! The numeric element type of the NN substrate: a sealed [`Scalar`]
//! trait over `f32` and `f64`, plus the explicit SIMD microkernels the
//! GEMM path dispatches to.
//!
//! # Why generic, and why f32 by default
//!
//! The paper's networks are small fully-connected MLPs; nothing in them
//! needs f64 precision, and single precision doubles SIMD lane width
//! while halving memory traffic. [`Elem`] — the workspace-wide training
//! element type every downstream crate (`dss-rl`, `dss-miqp`, `dss-core`)
//! defaults to — is therefore `f32`. The `f64` instantiation stays fully
//! alive: every kernel, layer and agent is generic over [`Scalar`], the
//! property oracles and gradient checks run for both types, and swapping
//! one line (`pub type Elem = f64`) rebuilds the whole stack in double
//! precision for numerical debugging.
//!
//! # Microkernels
//!
//! The register-tile inner loop of the blocked GEMM (see
//! [`crate::matrix`]) used to rely on LLVM autovectorization plus
//! `target-cpu=native`. That made throughput depend on build-host luck.
//! The tile is now an explicit per-scalar microkernel:
//!
//! * **`avx2_fma`** (`x86_64` with AVX2+FMA, detected at runtime via
//!   `is_x86_feature_detected!`): `MR × TJ` accumulators held in `__m256`
//!   /`__m256d` registers, one broadcast + two fused multiply-adds per
//!   `A`-row per reduction step. f32 runs 8 lanes per vector (`TJ = 16`),
//!   f64 runs 4 (`TJ = 8`).
//! * **`avx512f`** (`x86_64` with AVX-512F, detected at runtime): the
//!   `MR × TJ` tiles above stay on the AVX2 kernel (they are already
//!   register-bound), and the serial streaming GEMM additionally gets a
//!   **wide** `WMR × 2·TJ` tile ([`Scalar::gemm_tile_wide`]: 8×32 f32,
//!   8×16 f64) holding 16 zmm accumulators — twice the rows *and* twice
//!   the columns in flight per `B`-stripe pass.
//! * **`neon`** (aarch64, where NEON is baseline): the same `MR × TJ`
//!   tile walked as `MR × 8` (f32) / `MR × 4` (f64) sub-tiles of 128-bit
//!   `vfmaq` accumulators.
//! * **`scalar`** (every other arch, or `DSS_NO_SIMD=1`): the same tile
//!   walked with `mul_add` in the same association order, so all
//!   kernels produce **bit-identical** results — asserted by tests, which
//!   is what lets CI exercise the fallback without separate tolerances.
//!   Every output element is one ascending-`l` FMA chain added into `out`
//!   exactly once, and none of the tile shapes regroup *within* an output
//!   element, which is why even the wide AVX-512 tile matches the scalar
//!   kernel bit for bit.
//!
//! The same choice dispatches the **activation row kernel**
//! ([`crate::activation`], `row[o] = act(row[o] + bias[o])` after every
//! GEMM epilogue and single-row inference): f32 tanh and sigmoid run 16
//! lanes per step under `avx512f`, 8 under `avx2_fma`, and the scalar
//! port under `neon` and `scalar`. All three are this crate's ports of
//! glibc 2.36's `tanhf` / `expf`, bit-identical to each other and to
//! glibc on every f32 input.
//!
//! The kernel is picked once per process (first GEMM call) from CPU
//! features and the `DSS_NO_SIMD` environment variable; tests and
//! benches can pin a kernel for the current thread with
//! [`with_microkernel`].

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};

use crate::activation::Activation;

/// Register tile height shared by every kernel: `A` rows advanced
/// together, each broadcast against the same `B` stripe.
pub(crate) const MR: usize = 4;

/// Wide register tile height used by the AVX-512 streaming path
/// ([`Scalar::gemm_tile_wide`]): two [`MR`] row groups advanced together
/// against a double-width (`2·TJ`) `B` stripe.
pub(crate) const WMR: usize = 8;

/// The workspace-wide default training element type. See the module docs
/// for why this is `f32` and how to rebuild in `f64`.
pub type Elem = f32;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Which GEMM inner-tile implementation is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Microkernel {
    /// Explicit AVX2 + FMA intrinsics (x86_64, detected at runtime).
    Avx2Fma,
    /// AVX2 tiles plus the wide AVX-512F streaming tile (x86_64,
    /// detected at runtime; implies AVX2+FMA).
    Avx512,
    /// 128-bit NEON `vfmaq` tiles (aarch64 baseline).
    Neon,
    /// Portable `mul_add` tile, bit-identical to every SIMD kernel.
    Scalar,
}

impl Microkernel {
    /// Stable name recorded in bench artifacts
    /// (`avx2_fma` / `avx512f` / `neon` / `scalar`).
    pub fn name(self) -> &'static str {
        match self {
            Microkernel::Avx2Fma => "avx2_fma",
            Microkernel::Avx512 => "avx512f",
            Microkernel::Neon => "neon",
            Microkernel::Scalar => "scalar",
        }
    }

    /// Whether this build and host can run the kernel.
    pub fn available(self) -> bool {
        match self {
            Microkernel::Avx2Fma => avx2_available(),
            Microkernel::Avx512 => avx512_available(),
            Microkernel::Neon => neon_available(),
            Microkernel::Scalar => true,
        }
    }
}

/// Process-wide kernel choice: 0 = undetected, 1 = AVX2+FMA, 2 = scalar,
/// 3 = AVX-512, 4 = NEON.
static KERNEL: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Per-thread override installed by [`with_microkernel`] (tests and
    /// benches); `None` defers to the process-wide detection.
    static KERNEL_OVERRIDE: Cell<Option<Microkernel>> = const { Cell::new(None) };
}

fn detect() -> Microkernel {
    if std::env::var_os("DSS_NO_SIMD").is_some_and(|v| v != "0") {
        return Microkernel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Microkernel::Avx512;
        }
        return Microkernel::Avx2Fma;
    }
    #[cfg(target_arch = "aarch64")]
    return Microkernel::Neon;
    #[cfg(not(target_arch = "aarch64"))]
    Microkernel::Scalar
}

/// The microkernel GEMM calls on this thread will use: the thread's
/// [`with_microkernel`] override if one is installed, else the cached
/// process-wide detection (CPU features + `DSS_NO_SIMD`).
pub fn active_microkernel() -> Microkernel {
    if let Some(k) = KERNEL_OVERRIDE.with(Cell::get) {
        return k;
    }
    match KERNEL.load(Ordering::Relaxed) {
        1 => Microkernel::Avx2Fma,
        2 => Microkernel::Scalar,
        3 => Microkernel::Avx512,
        4 => Microkernel::Neon,
        _ => {
            let k = detect();
            KERNEL.store(
                match k {
                    Microkernel::Avx2Fma => 1,
                    Microkernel::Scalar => 2,
                    Microkernel::Avx512 => 3,
                    Microkernel::Neon => 4,
                },
                Ordering::Relaxed,
            );
            k
        }
    }
}

/// The active microkernel's stable name (`avx2_fma` / `scalar`) —
/// recorded in bench artifacts so measurements are attributable.
pub fn microkernel_name() -> &'static str {
    active_microkernel().name()
}

/// Whether this build/host can run the AVX2+FMA kernel at all (used by
/// tests to skip the bit-identity assertion on non-x86 hardware).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this build/host can run the AVX-512 kernel (the wide tile
/// needs AVX-512F; the narrow tiles it shares with `avx2_fma` need
/// AVX2+FMA).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this build can run the NEON kernel (NEON is baseline on
/// aarch64, so this is a compile-time fact).
pub fn neon_available() -> bool {
    cfg!(target_arch = "aarch64")
}

/// Runs `f` with every GEMM on the *current thread* pinned to kernel `k`
/// (pool workers are unaffected — pin shapes below the sharding cutoff or
/// run under a 1-thread pool when exact kernel control matters).
///
/// # Panics
/// Panics when `k` is a SIMD kernel this host cannot run.
pub fn with_microkernel<R>(k: Microkernel, f: impl FnOnce() -> R) -> R {
    assert!(
        k.available(),
        "{} kernel unavailable on this host",
        k.name()
    );
    let prev = KERNEL_OVERRIDE.with(|c| c.replace(Some(k)));
    struct Restore(Option<Microkernel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            KERNEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The numeric element type of matrices, networks and agents: `f32` or
/// `f64`, selected statically. Sealed — the GEMM microkernels, pack
/// scratch and math surface are written per type and the rest of the
/// workspace is generic over this trait (defaulted to [`Elem`]).
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + std::fmt::Debug
    + std::fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + std::iter::Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// `-∞`, the fold seed for maxima.
    const NEG_INFINITY: Self;
    /// `+∞`, the fold seed for minima.
    const INFINITY: Self;
    /// Register tile width in output columns for this type's microkernel
    /// (two AVX2 vectors per tile row: 16 for f32, 8 for f64).
    const TJ: usize;
    /// Type name recorded in bench artifacts ("f32" / "f64").
    const NAME: &'static str;

    /// Lossy conversion from `f64` (exact for in-range integers and every
    /// `f32`). All scalar-literal plumbing funnels through this so the
    /// workspace still compiles when [`Elem`] is rebound.
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (exact).
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b` (single rounding — matches the
    /// FMA intrinsics, which is what keeps the scalar and AVX2 kernels
    /// bit-identical).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Hyperbolic tangent (f32: this crate's port of glibc's `tanhf`,
    /// see [`crate::activation`]; f64: the host libm).
    fn tanh(self) -> Self;
    /// Exponential (f32: the port of glibc's `expf`; f64: the host libm).
    fn exp(self) -> Self;
    /// IEEE maximum of two values.
    fn max(self, other: Self) -> Self;
    /// IEEE minimum of two values.
    fn min(self, other: Self) -> Self;
    /// NaN check.
    fn is_nan(self) -> bool;
    /// Finiteness check.
    fn is_finite(self) -> bool;

    /// The activation row kernel behind [`Activation::apply_row`]:
    /// `row[o] = act(row[o] + bias[o])`, f32 tanh and sigmoid at SIMD
    /// width under the active microkernel.
    fn act_row(act: Activation, row: &mut [Self], bias: &[Self]);

    /// Takes this thread's pack scratch buffer for transposed GEMM
    /// operands (moved out so a helping caller re-entering the kernel on
    /// the same thread cannot alias it); return it with
    /// [`Scalar::put_pack`].
    fn take_pack() -> Vec<Self>;
    /// Returns the pack scratch taken by [`Scalar::take_pack`].
    fn put_pack(buf: Vec<Self>);

    /// Broadcast-A register tile:
    /// `out[r·n + jt + x] += Σ_l a[r·k + l] · b[l·n + jt + x]`
    /// for `r ∈ 0..MR`, `x ∈ 0..TJ` — `a` is pre-sliced at the tile's
    /// first row, `out` at the tile's first output row.
    ///
    /// # Panics
    /// Debug-asserts the slice extents; release callers must uphold them.
    fn gemm_tile(
        kernel: Microkernel,
        a: &[Self],
        k: usize,
        b: &[Self],
        n: usize,
        jt: usize,
        out: &mut [Self],
    );

    /// Transposed-A register tile:
    /// `out[r·n + x] += Σ_l a[l·p + q + r] · b[l·n + jt + x]` — the
    /// four broadcast scalars per step are four *adjacent columns* of the
    /// untransposed `a` (m×p row-major), so no packing is needed. `out` is
    /// pre-sliced at the tile's first element.
    #[allow(clippy::too_many_arguments)]
    fn gemm_tile_at(
        kernel: Microkernel,
        a: &[Self],
        m: usize,
        p: usize,
        q: usize,
        b: &[Self],
        n: usize,
        jt: usize,
        out: &mut [Self],
    );

    /// Wide broadcast-A register tile — [`WMR`]` = 8` rows × `2·TJ`
    /// output columns per call (8×32 f32, 8×16 f64). Under
    /// [`Microkernel::Avx512`] this runs a single zmm-register kernel;
    /// every other kernel composes four narrow [`Scalar::gemm_tile`]
    /// calls, which is bit-identical because each output element's
    /// ascending-`l` FMA chain is unchanged by the tile grouping.
    fn gemm_tile_wide(
        kernel: Microkernel,
        a: &[Self],
        k: usize,
        b: &[Self],
        n: usize,
        jt: usize,
        out: &mut [Self],
    );
}

macro_rules! impl_scalar {
    (
        $t:ty, $name:literal, $tj:literal, $pack:ident, $kern:ident,
        $tanh:path, $exp:path, $act_row:path,
        $vec:ident, $lanes:literal, $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident, $add:ident, $setzero:ident,
        $loadu512:ident, $storeu512:ident, $set1512:ident, $fmadd512:ident, $add512:ident, $setzero512:ident,
        $nlanes:literal, $nload:ident, $nstore:ident, $ndup:ident, $nfma:ident, $nadd:ident
    ) => {
        thread_local! {
            static $pack: RefCell<Vec<$t>> = const { RefCell::new(Vec::new()) };
        }

        /// Per-type tile kernels (scalar fallback + AVX2/AVX-512/NEON,
        /// same association order so their results are bit-identical).
        mod $kern {
            use super::{MR, WMR};
            const TJ: usize = $tj;

            /// Portable tile: `mul_add` per lane in the exact order the
            /// FMA intrinsics accumulate.
            pub fn tile(a: &[$t], k: usize, b: &[$t], n: usize, jt: usize, out: &mut [$t]) {
                debug_assert!(a.len() >= MR * k);
                debug_assert!(b.len() >= (k - 1) * n + jt + TJ);
                debug_assert!(out.len() >= (MR - 1) * n + jt + TJ);
                let mut acc = [[0.0 as $t; TJ]; MR];
                for l in 0..k {
                    let bt = &b[l * n + jt..l * n + jt + TJ];
                    for r in 0..MR {
                        let ar = a[r * k + l];
                        for x in 0..TJ {
                            acc[r][x] = ar.mul_add(bt[x], acc[r][x]);
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = &mut out[r * n + jt..r * n + jt + TJ];
                    for (ov, &av) in o.iter_mut().zip(acc_row) {
                        *ov += av;
                    }
                }
            }

            /// Portable transposed-A tile, same order as the AVX2 variant.
            #[allow(clippy::too_many_arguments)]
            pub fn tile_at(
                a: &[$t],
                m: usize,
                p: usize,
                q: usize,
                b: &[$t],
                n: usize,
                jt: usize,
                out: &mut [$t],
            ) {
                debug_assert!(a.len() >= (m - 1) * p + q + MR);
                debug_assert!(b.len() >= (m - 1) * n + jt + TJ);
                debug_assert!(out.len() >= (MR - 1) * n + TJ);
                let mut acc = [[0.0 as $t; TJ]; MR];
                for l in 0..m {
                    let bt = &b[l * n + jt..l * n + jt + TJ];
                    let ar = &a[l * p + q..l * p + q + MR];
                    for r in 0..MR {
                        for x in 0..TJ {
                            acc[r][x] = ar[r].mul_add(bt[x], acc[r][x]);
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = &mut out[r * n..r * n + TJ];
                    for (ov, &av) in o.iter_mut().zip(acc_row) {
                        *ov += av;
                    }
                }
            }

            /// AVX2+FMA tile: MR rows × 2 vectors of accumulators live in
            /// registers across the whole reduction; one broadcast and two
            /// fused multiply-adds per row per step; the tile is added
            /// into `out` exactly once.
            ///
            /// # Safety
            /// Caller must ensure AVX2+FMA are available and the slice
            /// extents debug-asserted in [`tile`] hold.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn tile_avx2(
                a: &[$t],
                k: usize,
                b: &[$t],
                n: usize,
                jt: usize,
                out: &mut [$t],
            ) {
                use std::arch::x86_64::*;
                debug_assert!(a.len() >= MR * k);
                debug_assert!(b.len() >= (k - 1) * n + jt + TJ);
                debug_assert!(out.len() >= (MR - 1) * n + jt + TJ);
                let mut acc = [[$setzero(); 2]; MR];
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                for l in 0..k {
                    let b0 = $loadu(bp.add(l * n + jt));
                    let b1 = $loadu(bp.add(l * n + jt + $lanes));
                    for r in 0..MR {
                        let ar = $set1(*ap.add(r * k + l));
                        acc[r][0] = $fmadd(ar, b0, acc[r][0]);
                        acc[r][1] = $fmadd(ar, b1, acc[r][1]);
                    }
                }
                let op = out.as_mut_ptr();
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = op.add(r * n + jt);
                    $storeu(o, $add($loadu(o), acc_row[0]));
                    let o1 = o.add($lanes);
                    $storeu(o1, $add($loadu(o1), acc_row[1]));
                }
            }

            /// AVX2+FMA transposed-A tile (contiguous 4-column `A` loads).
            ///
            /// # Safety
            /// Same contract as [`tile_avx2`].
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn tile_at_avx2(
                a: &[$t],
                m: usize,
                p: usize,
                q: usize,
                b: &[$t],
                n: usize,
                jt: usize,
                out: &mut [$t],
            ) {
                use std::arch::x86_64::*;
                debug_assert!(a.len() >= (m - 1) * p + q + MR);
                debug_assert!(b.len() >= (m - 1) * n + jt + TJ);
                debug_assert!(out.len() >= (MR - 1) * n + TJ);
                let mut acc = [[$setzero(); 2]; MR];
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                for l in 0..m {
                    let b0 = $loadu(bp.add(l * n + jt));
                    let b1 = $loadu(bp.add(l * n + jt + $lanes));
                    let arp = ap.add(l * p + q);
                    for r in 0..MR {
                        let ar = $set1(*arp.add(r));
                        acc[r][0] = $fmadd(ar, b0, acc[r][0]);
                        acc[r][1] = $fmadd(ar, b1, acc[r][1]);
                    }
                }
                let op = out.as_mut_ptr();
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = op.add(r * n);
                    $storeu(o, $add($loadu(o), acc_row[0]));
                    let o1 = o.add($lanes);
                    $storeu(o1, $add($loadu(o1), acc_row[1]));
                }
            }

            /// Portable wide tile (`WMR × 2·TJ`): four narrow tiles.
            /// Per-output-element FMA chains are identical to the fused
            /// AVX-512 kernel, so this is its bit oracle (and the
            /// fallback every non-AVX-512 kernel dispatches to).
            pub fn tile_wide(a: &[$t], k: usize, b: &[$t], n: usize, jt: usize, out: &mut [$t]) {
                for h in 0..WMR / MR {
                    for half in 0..2 {
                        tile(
                            &a[h * MR * k..],
                            k,
                            b,
                            n,
                            jt + half * TJ,
                            &mut out[h * MR * n..],
                        );
                    }
                }
            }

            /// AVX-512F wide tile: WMR rows × 2 zmm vectors (16
            /// accumulators) live in registers across the whole
            /// reduction; one broadcast and two fused multiply-adds per
            /// row per step; added into `out` exactly once.
            ///
            /// # Safety
            /// Caller must ensure AVX-512F is available; slice extents as
            /// debug-asserted.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            pub unsafe fn tile_wide_avx512(
                a: &[$t],
                k: usize,
                b: &[$t],
                n: usize,
                jt: usize,
                out: &mut [$t],
            ) {
                use std::arch::x86_64::*;
                debug_assert!(a.len() >= WMR * k);
                debug_assert!(b.len() >= (k - 1) * n + jt + 2 * TJ);
                debug_assert!(out.len() >= (WMR - 1) * n + jt + 2 * TJ);
                let mut acc = [[$setzero512(); 2]; WMR];
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                for l in 0..k {
                    let b0 = $loadu512(bp.add(l * n + jt));
                    let b1 = $loadu512(bp.add(l * n + jt + TJ));
                    for r in 0..WMR {
                        let ar = $set1512(*ap.add(r * k + l));
                        acc[r][0] = $fmadd512(ar, b0, acc[r][0]);
                        acc[r][1] = $fmadd512(ar, b1, acc[r][1]);
                    }
                }
                let op = out.as_mut_ptr();
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = op.add(r * n + jt);
                    $storeu512(o, $add512($loadu512(o), acc_row[0]));
                    let o1 = o.add(TJ);
                    $storeu512(o1, $add512($loadu512(o1), acc_row[1]));
                }
            }

            /// NEON tile: the `MR × TJ` stripe walked as four 128-bit
            /// vectors per row (`MR × 2·lanes` sub-tiles), `vfmaq`
            /// accumulators in registers, added into `out` once.
            ///
            /// # Safety
            /// NEON is baseline on aarch64; slice extents as
            /// debug-asserted in [`tile`].
            #[cfg(target_arch = "aarch64")]
            #[target_feature(enable = "neon")]
            pub unsafe fn tile_neon(
                a: &[$t],
                k: usize,
                b: &[$t],
                n: usize,
                jt: usize,
                out: &mut [$t],
            ) {
                use std::arch::aarch64::*;
                debug_assert!(a.len() >= MR * k);
                debug_assert!(b.len() >= (k - 1) * n + jt + TJ);
                debug_assert!(out.len() >= (MR - 1) * n + jt + TJ);
                let mut acc = [[$ndup(0.0 as $t); TJ / $nlanes]; MR];
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                for l in 0..k {
                    let bq = bp.add(l * n + jt);
                    let mut bv = [$ndup(0.0 as $t); TJ / $nlanes];
                    for (v, bvv) in bv.iter_mut().enumerate() {
                        *bvv = $nload(bq.add(v * $nlanes));
                    }
                    for r in 0..MR {
                        let ar = $ndup(*ap.add(r * k + l));
                        for (accv, &bvv) in acc[r].iter_mut().zip(&bv) {
                            // vfmaq(acc, b, c) = acc + b·c (acc first).
                            *accv = $nfma(*accv, bvv, ar);
                        }
                    }
                }
                let op = out.as_mut_ptr();
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = op.add(r * n + jt);
                    for (v, &av) in acc_row.iter().enumerate() {
                        let ov = o.add(v * $nlanes);
                        $nstore(ov, $nadd($nload(ov), av));
                    }
                }
            }

            /// NEON transposed-A tile (contiguous 4-column `A` loads).
            ///
            /// # Safety
            /// Same contract as [`tile_neon`].
            #[cfg(target_arch = "aarch64")]
            #[target_feature(enable = "neon")]
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn tile_at_neon(
                a: &[$t],
                m: usize,
                p: usize,
                q: usize,
                b: &[$t],
                n: usize,
                jt: usize,
                out: &mut [$t],
            ) {
                use std::arch::aarch64::*;
                debug_assert!(a.len() >= (m - 1) * p + q + MR);
                debug_assert!(b.len() >= (m - 1) * n + jt + TJ);
                debug_assert!(out.len() >= (MR - 1) * n + TJ);
                let mut acc = [[$ndup(0.0 as $t); TJ / $nlanes]; MR];
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                for l in 0..m {
                    let bq = bp.add(l * n + jt);
                    let mut bv = [$ndup(0.0 as $t); TJ / $nlanes];
                    for (v, bvv) in bv.iter_mut().enumerate() {
                        *bvv = $nload(bq.add(v * $nlanes));
                    }
                    let arp = ap.add(l * p + q);
                    for r in 0..MR {
                        let ar = $ndup(*arp.add(r));
                        for (accv, &bvv) in acc[r].iter_mut().zip(&bv) {
                            *accv = $nfma(*accv, bvv, ar);
                        }
                    }
                }
                let op = out.as_mut_ptr();
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = op.add(r * n);
                    for (v, &av) in acc_row.iter().enumerate() {
                        let ov = o.add(v * $nlanes);
                        $nstore(ov, $nadd($nload(ov), av));
                    }
                }
            }
        }

        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;
            const INFINITY: Self = <$t>::INFINITY;
            const TJ: usize = $tj;
            const NAME: &'static str = $name;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                $tanh(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                $exp(self)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }

            fn act_row(act: Activation, row: &mut [Self], bias: &[Self]) {
                $act_row(act, row, bias)
            }

            fn take_pack() -> Vec<Self> {
                $pack.take()
            }
            fn put_pack(buf: Vec<Self>) {
                $pack.set(buf);
            }

            #[inline]
            fn gemm_tile(
                kernel: Microkernel,
                a: &[Self],
                k: usize,
                b: &[Self],
                n: usize,
                jt: usize,
                out: &mut [Self],
            ) {
                match kernel {
                    #[cfg(target_arch = "x86_64")]
                    Microkernel::Avx2Fma | Microkernel::Avx512 => unsafe {
                        $kern::tile_avx2(a, k, b, n, jt, out)
                    },
                    #[cfg(target_arch = "aarch64")]
                    Microkernel::Neon => unsafe { $kern::tile_neon(a, k, b, n, jt, out) },
                    Microkernel::Scalar => $kern::tile(a, k, b, n, jt, out),
                    _ => unreachable!("SIMD kernel selected off its architecture"),
                }
            }

            #[inline]
            fn gemm_tile_at(
                kernel: Microkernel,
                a: &[Self],
                m: usize,
                p: usize,
                q: usize,
                b: &[Self],
                n: usize,
                jt: usize,
                out: &mut [Self],
            ) {
                match kernel {
                    #[cfg(target_arch = "x86_64")]
                    Microkernel::Avx2Fma | Microkernel::Avx512 => unsafe {
                        $kern::tile_at_avx2(a, m, p, q, b, n, jt, out)
                    },
                    #[cfg(target_arch = "aarch64")]
                    Microkernel::Neon => unsafe { $kern::tile_at_neon(a, m, p, q, b, n, jt, out) },
                    Microkernel::Scalar => $kern::tile_at(a, m, p, q, b, n, jt, out),
                    _ => unreachable!("SIMD kernel selected off its architecture"),
                }
            }

            #[inline]
            fn gemm_tile_wide(
                kernel: Microkernel,
                a: &[Self],
                k: usize,
                b: &[Self],
                n: usize,
                jt: usize,
                out: &mut [Self],
            ) {
                match kernel {
                    #[cfg(target_arch = "x86_64")]
                    Microkernel::Avx512 => unsafe { $kern::tile_wide_avx512(a, k, b, n, jt, out) },
                    _ => $kern::tile_wide(a, k, b, n, jt, out),
                }
            }
        }
    };
}

impl_scalar!(
    f32,
    "f32",
    16,
    PACK_F32,
    kern_f32,
    crate::activation::port::tanhf,
    crate::activation::port::expf,
    crate::activation::apply_row_f32,
    __m256,
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_fmadd_ps,
    _mm256_add_ps,
    _mm256_setzero_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_fmadd_ps,
    _mm512_add_ps,
    _mm512_setzero_ps,
    4,
    vld1q_f32,
    vst1q_f32,
    vdupq_n_f32,
    vfmaq_f32,
    vaddq_f32
);
impl_scalar!(
    f64,
    "f64",
    8,
    PACK_F64,
    kern_f64,
    f64::tanh,
    f64::exp,
    crate::activation::apply_row_scalar::<f64>,
    __m256d,
    4,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_set1_pd,
    _mm256_fmadd_pd,
    _mm256_add_pd,
    _mm256_setzero_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_set1_pd,
    _mm512_fmadd_pd,
    _mm512_add_pd,
    _mm512_setzero_pd,
    2,
    vld1q_f64,
    vst1q_f64,
    vdupq_n_f64,
    vfmaq_f64,
    vaddq_f64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Microkernel::Avx2Fma.name(), "avx2_fma");
        assert_eq!(Microkernel::Avx512.name(), "avx512f");
        assert_eq!(Microkernel::Neon.name(), "neon");
        assert_eq!(Microkernel::Scalar.name(), "scalar");
        assert_eq!(<f32 as Scalar>::NAME, "f32");
        assert_eq!(<f64 as Scalar>::NAME, "f64");
    }

    #[test]
    fn override_is_scoped_to_thread_and_restored() {
        let outer = active_microkernel();
        with_microkernel(Microkernel::Scalar, || {
            assert_eq!(active_microkernel(), Microkernel::Scalar);
        });
        assert_eq!(active_microkernel(), outer);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(<f32 as Scalar>::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(<f64 as Scalar>::from_f64(1.5), 1.5);
        assert!(<f32 as Scalar>::NEG_INFINITY < <f32 as Scalar>::from_f64(-1e30));
    }

    /// The scalar and AVX2 tiles must agree **bit for bit** — same FMA
    /// contraction, same association order — for both element types.
    #[test]
    fn tiles_bit_identical_across_kernels() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        fn case<S: Scalar>() {
            let k = 37;
            let n = S::TJ + 5;
            let mk = |seed: u64, len: usize| -> Vec<S> {
                (0..len)
                    .map(|i| {
                        let x = ((i as u64)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(seed)
                            >> 33) as f64;
                        S::from_f64(x / (1u64 << 31) as f64 - 0.5)
                    })
                    .collect()
            };
            let a = mk(1, MR * k);
            let b = mk(2, k * n);
            let mut scalar_out = vec![S::ZERO; MR * n];
            let mut avx_out = vec![S::ZERO; MR * n];
            S::gemm_tile(Microkernel::Scalar, &a, k, &b, n, 0, &mut scalar_out);
            S::gemm_tile(Microkernel::Avx2Fma, &a, k, &b, n, 0, &mut avx_out);
            assert_eq!(scalar_out, avx_out, "{} broadcast tile diverged", S::NAME);

            // Transposed-A form: a is m×p, tile reads columns q..q+MR.
            let (m, p, q) = (k, MR + 3, 2);
            let at = mk(3, m * p);
            let mut scalar_at = vec![S::ZERO; MR * n];
            let mut avx_at = vec![S::ZERO; MR * n];
            S::gemm_tile_at(Microkernel::Scalar, &at, m, p, q, &b, n, 0, &mut scalar_at);
            S::gemm_tile_at(Microkernel::Avx2Fma, &at, m, p, q, &b, n, 0, &mut avx_at);
            assert_eq!(scalar_at, avx_at, "{} transposed-A tile diverged", S::NAME);
        }
        case::<f32>();
        case::<f64>();
    }

    /// The wide AVX-512 tile must agree bit for bit with its portable
    /// oracle (four narrow scalar tiles over the same 8×2TJ region) —
    /// same per-element FMA chains, so exact equality, not tolerance.
    #[test]
    fn wide_tile_bit_identical_to_narrow_composition() {
        fn case<S: Scalar>() {
            let k = 29;
            let n = 2 * S::TJ + 5;
            let mk = |seed: u64, len: usize| -> Vec<S> {
                (0..len)
                    .map(|i| {
                        let x = ((i as u64)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(seed)
                            >> 33) as f64;
                        S::from_f64(x / (1u64 << 31) as f64 - 0.5)
                    })
                    .collect()
            };
            let a = mk(5, WMR * k);
            let b = mk(6, k * n);

            // The portable wide tile is exactly four narrow scalar tiles.
            let mut wide = vec![S::ZERO; WMR * n];
            let mut narrow = vec![S::ZERO; WMR * n];
            S::gemm_tile_wide(Microkernel::Scalar, &a, k, &b, n, 0, &mut wide);
            for h in 0..WMR / MR {
                for half in 0..2 {
                    S::gemm_tile(
                        Microkernel::Scalar,
                        &a[h * MR * k..],
                        k,
                        &b,
                        n,
                        half * S::TJ,
                        &mut narrow[h * MR * n..],
                    );
                }
            }
            assert_eq!(wide, narrow, "{} portable wide tile diverged", S::NAME);

            if avx512_available() {
                let mut zmm = vec![S::ZERO; WMR * n];
                S::gemm_tile_wide(Microkernel::Avx512, &a, k, &b, n, 0, &mut zmm);
                assert_eq!(wide, zmm, "{} AVX-512 wide tile diverged", S::NAME);
            } else {
                eprintln!("skipping AVX-512 leg: unavailable on this host");
            }
        }
        case::<f32>();
        case::<f64>();
    }

    /// Under the `avx512f` kernel the narrow tiles dispatch to the AVX2
    /// implementation — the remainder path of the wide GEMM stays
    /// bit-identical to the pure-AVX2 kernel by construction.
    #[test]
    fn avx512_narrow_tiles_are_the_avx2_tiles() {
        if !avx512_available() {
            eprintln!("skipping: no AVX-512 on this host");
            return;
        }
        let k = 19;
        let n = 16 + 3;
        let mk = |seed: u64, len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let x = ((i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(seed)
                        >> 33) as f64;
                    (x / (1u64 << 31) as f64 - 0.5) as f32
                })
                .collect()
        };
        let a = mk(7, MR * k);
        let b = mk(8, k * n);
        let mut via_avx2 = vec![0.0f32; MR * n];
        let mut via_avx512 = vec![0.0f32; MR * n];
        f32::gemm_tile(Microkernel::Avx2Fma, &a, k, &b, n, 0, &mut via_avx2);
        f32::gemm_tile(Microkernel::Avx512, &a, k, &b, n, 0, &mut via_avx512);
        assert_eq!(via_avx2, via_avx512);
    }
}
