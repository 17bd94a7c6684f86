//! AVX-512F (16 lanes) and AVX2+FMA (8 lanes) row kernels for tanh and
//! sigmoid, bit-identical to the scalar ports in [`super::port`].
//!
//! The algorithm is written once, in [`row_kernels!`], over a small set
//! of one-line helpers (`add`, `sel`, `lt_i`, …) that each ISA module
//! declares through [`helpers!`] with the same names and its own vector,
//! mask and table types. Every branch of the scalar port becomes a
//! computed value and a mask blend, operation for operation in the C's
//! order: the f32 arithmetic is unfused everywhere, the f64 `expf` core
//! is fused wherever the port fuses. `expf` lanes with `|x| ≥ 88` or NaN
//! take the scalar port.

use super::port;

/// Declares each helper `#[target_feature(enable = $feat)] #[inline]`, so
/// it inlines into the kernels of the same ISA.
macro_rules! helpers {
    ($feat:literal; $($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block)*) => {
        $(
            $(#[$doc])*
            #[target_feature(enable = $feat)]
            #[inline]
            fn $name($($arg: $ty),*) $(-> $ret)? $body
        )*
    };
}

/// The kernels over the helpers in scope: expanded once per ISA module.
macro_rules! row_kernels {
    ($feat:literal) => {
        /// `row[o] = tanh(row[o] + bias[o])` (`tanh = true`) or
        /// `row[o] = 1 / (1 + exp(−(row[o] + bias[o])))`, `LANES`
        /// elements per step; the tail runs through a zero-padded copy.
        ///
        /// # Panics
        /// Panics when `bias` is shorter than `row`.
        #[target_feature(enable = $feat)]
        pub(in crate::activation) fn tanh_or_sigmoid_row(
            row: &mut [f32],
            bias: &[f32],
            tanh: bool,
        ) {
            let bias = &bias[..row.len()];
            let act = |v: F| if tanh { tanh_v(v) } else { sigmoid_v(v) };
            let mut rows = row.chunks_exact_mut(LANES);
            let mut biases = bias.chunks_exact(LANES);
            for (r, b) in (&mut rows).zip(&mut biases) {
                store(r, act(add(load(r), load(b))));
            }
            let tail = rows.into_remainder();
            if !tail.is_empty() {
                let n = tail.len();
                let (mut r, mut b) = ([0.0f32; LANES], [0.0f32; LANES]);
                r[..n].copy_from_slice(tail);
                b[..n].copy_from_slice(biases.remainder());
                let v = act(add(load(&r), load(&b)));
                store(&mut r, v);
                tail.copy_from_slice(&r[..n]);
            }
        }

        /// [`port::tanhf`] on every lane.
        #[target_feature(enable = $feat)]
        #[inline]
        fn tanh_v(x: F) -> F {
            let ix = and_i(bits(x), splat_i(0x7fff_ffff));
            let a = from_bits(ix);
            let big = ge_i(ix, splat_i(0x3f80_0000));
            let t = expm1_v(sel(big, mul(splat(2.0), a), mul(splat(-2.0), a)));
            // |x| ≥ 1: 1 − 2/(t + 2); else −t/(t + 2) — one division.
            let q = div(sel(big, splat(2.0), neg(t)), add(t, splat(2.0)));
            let z = sel(big, sub(splat(1.0), q), q);
            let z = sel(ge_i(ix, splat_i(0x41b0_0000)), splat(1.0), z);
            let sign = and_i(bits(x), splat_i(i32::MIN));
            let r = from_bits(xor_i(bits(z), sign));
            let r = sel(lt_i(ix, splat_i(0x2400_0000)), x, r);
            let nan = from_bits(or_i(bits(x), splat_i(0x0040_0000)));
            sel(gt_i(ix, splat_i(0x7f80_0000)), nan, r)
        }

        /// The port's `expm1f` on every lane (same argument domain).
        #[target_feature(enable = $feat)]
        #[inline]
        fn expm1_v(x: F) -> F {
            let hx = and_i(bits(x), splat_i(0x7fff_ffff));
            let sign = and_i(bits(x), splat_i(i32::MIN));
            let signed = |c: f32| from_bits(or_i(bits(splat(c)), sign));
            // Reduction, both arms: k = ±1 below 1.5·ln2, else the
            // truncated `invln2·x ± 0.5`.
            let near = lt_i(hx, splat_i(0x3f85_1592));
            let kf = trunc_i(add(mul(splat(port::INV_LN2), x), signed(0.5)));
            let tf = to_f(kf);
            let hi = sel(
                near,
                sub(x, signed(port::LN2_HI)),
                sub(x, mul(tf, splat(port::LN2_HI))),
            );
            let lo = sel(near, signed(port::LN2_LO), mul(tf, splat(port::LN2_LO)));
            let k_near = sel_i(lt_i(bits(x), splat_i(0)), splat_i(-1), splat_i(1));
            let r = sub(hi, lo);
            let reduce = gt_i(hx, splat_i(0x3eb1_7218));
            let xr = sel(reduce, r, x);
            let c = sub(sub(hi, r), lo);
            let k = sel_i(reduce, sel_i(near, k_near, kf), splat_i(0));

            let hfx = mul(splat(0.5), xr);
            let hxs = mul(xr, hfx);
            let mut p = mul(hxs, splat(port::Q[4]));
            for &q in port::Q[..4].iter().rev() {
                p = mul(hxs, add(splat(q), p));
            }
            let r1 = add(splat(1.0), p);
            let t = sub(splat(3.0), mul(r1, hfx));
            let e = mul(hxs, div(sub(r1, t), sub(splat(6.0), mul(xr, t))));
            let y0 = sub(xr, sub(mul(xr, e), hxs));
            let e = sub(sub(mul(xr, sub(e, c)), c), hxs);
            let y_m1 = sub(mul(splat(0.5), sub(xr, e)), splat(0.5));
            let y_p1 = sel(
                lt_f(xr, splat(-0.25)),
                mul(splat(-2.0), sub(e, add(xr, splat(0.5)))),
                add(splat(1.0), mul(splat(2.0), sub(xr, e))),
            );
            let kexp = shl23(k);
            let scale = |y: F| from_bits(add_i(bits(y), kexp));
            let y_wide = sub(scale(sub(splat(1.0), sub(e, xr))), splat(1.0));
            let t_lo = from_bits(sub_i(splat_i(0x3f80_0000), shr_v(splat_i(0x0100_0000), k)));
            let y_lo = scale(sub(t_lo, sub(e, xr)));
            let t_hi = from_bits(shl23(sub_i(splat_i(0x7f), k)));
            let y_hi = scale(add(sub(xr, add(e, t_hi)), splat(1.0)));

            let y = sel(lt_i(k, splat_i(23)), y_lo, y_hi);
            let y = sel(or_m(lt_i(k, splat_i(-1)), gt_i(k, splat_i(56))), y_wide, y);
            let y = sel(eq_i(k, splat_i(1)), y_p1, y);
            let y = sel(eq_i(k, splat_i(-1)), y_m1, y);
            let y = sel(eq_i(k, splat_i(0)), y0, y);
            sel(lt_i(hx, splat_i(0x3300_0000)), x, y)
        }

        /// `xs[i] = expf(xs[i])` through [`exp_v`], for the tests: the
        /// row kernels reach `exp_v` only through sigmoid, which rounds
        /// some one-ulp `exp` differences away.
        #[cfg(test)]
        #[target_feature(enable = $feat)]
        pub(super) fn exp_in_place(xs: &mut [f32]) {
            for chunk in xs.chunks_exact_mut(LANES) {
                let v = exp_v(load(chunk));
                store(chunk, v);
            }
        }

        /// `1 / (1 + expf(−z))` on every lane, in f32.
        #[target_feature(enable = $feat)]
        #[inline]
        fn sigmoid_v(z: F) -> F {
            div(splat(1.0), add(splat(1.0), exp_v(neg(z))))
        }

        /// [`port::expf`] on every lane: the f64 core on both halves,
        /// then the scalar port on any `|x| ≥ 88` or NaN lane.
        #[target_feature(enable = $feat)]
        #[inline]
        fn exp_v(x: F) -> F {
            let (lo, hi) = widen(x);
            let y = narrow(exp_core_v(lo), exp_core_v(hi));
            let ax = and_i(bits(x), splat_i(0x7fff_ffff));
            let special = mask_bits(ge_i(ax, splat_i((port::EXP_SPECIAL_TOP << 20) as i32)));
            if special == 0 {
                return y;
            }
            let (mut xs, mut ys) = ([0.0f32; LANES], [0.0f32; LANES]);
            store(&mut xs, x);
            store(&mut ys, y);
            for (i, (yv, &xv)) in ys.iter_mut().zip(&xs).enumerate() {
                if special >> i & 1 == 1 {
                    *yv = port::expf(xv);
                }
            }
            load(&ys)
        }

        /// [`port::expf`]'s table-and-polynomial body on every f64 lane.
        #[target_feature(enable = $feat)]
        #[inline]
        fn exp_core_v(xd: D) -> D {
            let kd = fma_d(splat_d(port::INV_LN2_N), xd, splat_d(port::SHIFT));
            let ki = bits_d(kd);
            let kd = sub_d(kd, splat_d(port::SHIFT));
            let r = fms_d(splat_d(port::INV_LN2_N), xd, kd);
            let s = from_bits_d(add_q(exp2_tab(ki), shl47(ki)));
            let z = fma_d(splat_d(port::C[0]), r, splat_d(port::C[1]));
            let r2 = mul_d(r, r);
            let y = fma_d(splat_d(port::C[2]), r, splat_d(1.0));
            mul_d(fma_d(z, r2, y), s)
        }
    };
}

/// The 16-lane kernels: `__m512` values, `__mmask16` masks, f64 halves
/// in `__m512d`, the table in four registers.
pub(super) mod avx512 {
    use super::port;
    use std::arch::x86_64::*;

    const LANES: usize = 16;
    type F = __m512;
    type I = __m512i;
    type M = __mmask16;
    type D = __m512d;

    helpers! { "avx512f";
        fn load(s: &[f32]) -> F {
            let s = &s[..LANES];
            // SAFETY: `s` holds LANES initialized f32s; unaligned load.
            unsafe { _mm512_loadu_ps(s.as_ptr()) }
        }
        fn store(s: &mut [f32], v: F) {
            let s = &mut s[..LANES];
            // SAFETY: `s` has room for LANES f32s; unaligned store.
            unsafe { _mm512_storeu_ps(s.as_mut_ptr(), v) }
        }
        fn splat(v: f32) -> F { _mm512_set1_ps(v) }
        fn splat_i(v: i32) -> I { _mm512_set1_epi32(v) }
        fn add(a: F, b: F) -> F { _mm512_add_ps(a, b) }
        fn sub(a: F, b: F) -> F { _mm512_sub_ps(a, b) }
        fn mul(a: F, b: F) -> F { _mm512_mul_ps(a, b) }
        fn div(a: F, b: F) -> F { _mm512_div_ps(a, b) }
        fn neg(a: F) -> F { from_bits(xor_i(bits(a), splat_i(i32::MIN))) }
        fn bits(a: F) -> I { _mm512_castps_si512(a) }
        fn from_bits(a: I) -> F { _mm512_castsi512_ps(a) }
        fn and_i(a: I, b: I) -> I { _mm512_and_si512(a, b) }
        fn or_i(a: I, b: I) -> I { _mm512_or_si512(a, b) }
        fn xor_i(a: I, b: I) -> I { _mm512_xor_si512(a, b) }
        fn add_i(a: I, b: I) -> I { _mm512_add_epi32(a, b) }
        fn sub_i(a: I, b: I) -> I { _mm512_sub_epi32(a, b) }
        fn shl23(a: I) -> I { _mm512_slli_epi32::<23>(a) }
        /// Per-lane logical right shift; counts outside `0..32` give 0.
        fn shr_v(a: I, count: I) -> I { _mm512_srlv_epi32(a, count) }
        fn trunc_i(a: F) -> I { _mm512_cvttps_epi32(a) }
        fn to_f(a: I) -> F { _mm512_cvtepi32_ps(a) }
        fn lt_i(a: I, b: I) -> M { _mm512_cmplt_epi32_mask(a, b) }
        fn gt_i(a: I, b: I) -> M { _mm512_cmpgt_epi32_mask(a, b) }
        fn ge_i(a: I, b: I) -> M { _mm512_cmpge_epi32_mask(a, b) }
        fn eq_i(a: I, b: I) -> M { _mm512_cmpeq_epi32_mask(a, b) }
        fn lt_f(a: F, b: F) -> M { _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b) }
        fn or_m(a: M, b: M) -> M { a | b }
        /// `m ? a : b` per lane.
        fn sel(m: M, a: F, b: F) -> F { _mm512_mask_blend_ps(m, b, a) }
        fn sel_i(m: M, a: I, b: I) -> I { _mm512_mask_blend_epi32(m, b, a) }
        fn mask_bits(m: M) -> u32 { m as u32 }
        /// The low and high eight lanes widened to f64.
        fn widen(x: F) -> (D, D) {
            let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
            (_mm512_cvtps_pd(_mm512_castps512_ps256(x)), _mm512_cvtps_pd(hi))
        }
        /// Both halves rounded back to f32 and rejoined.
        fn narrow(lo: D, hi: D) -> F {
            let lo = _mm512_castpd256_pd512(_mm256_castps_pd(_mm512_cvtpd_ps(lo)));
            let hi = _mm256_castps_pd(_mm512_cvtpd_ps(hi));
            _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, hi))
        }
        fn splat_d(v: f64) -> D { _mm512_set1_pd(v) }
        fn fma_d(a: D, b: D, c: D) -> D { _mm512_fmadd_pd(a, b, c) }
        fn fms_d(a: D, b: D, c: D) -> D { _mm512_fmsub_pd(a, b, c) }
        fn sub_d(a: D, b: D) -> D { _mm512_sub_pd(a, b) }
        fn mul_d(a: D, b: D) -> D { _mm512_mul_pd(a, b) }
        fn bits_d(a: D) -> I { _mm512_castpd_si512(a) }
        fn from_bits_d(a: I) -> D { _mm512_castsi512_pd(a) }
        fn add_q(a: I, b: I) -> I { _mm512_add_epi64(a, b) }
        fn shl47(a: I) -> I { _mm512_slli_epi64::<47>(a) }
        /// `EXP2_TAB[ki mod 32]` per 64-bit lane: two two-register
        /// permutes cover entries 0–15 and 16–31, bit 4 picks between them.
        fn exp2_tab(ki: I) -> I {
            let t = &port::EXP2_TAB;
            // SAFETY: each load reads 8 of the table's 32 u64s.
            let [t0, t1, t2, t3] =
                [0, 8, 16, 24].map(|i| unsafe { _mm512_loadu_si512(t[i..i + 8].as_ptr().cast()) });
            let low = _mm512_permutex2var_epi64(t0, ki, t1);
            let high = _mm512_permutex2var_epi64(t2, ki, t3);
            _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), low, high)
        }
    }

    row_kernels!("avx512f");
}

/// The 8-lane kernels: `__m256` values, all-ones-lane `__m256i` masks,
/// f64 halves in `__m256d`, the table through a gather.
pub(super) mod avx2 {
    use super::port;
    use std::arch::x86_64::*;

    const LANES: usize = 8;
    type F = __m256;
    type I = __m256i;
    type M = __m256i;
    type D = __m256d;

    helpers! { "avx2,fma";
        fn load(s: &[f32]) -> F {
            let s = &s[..LANES];
            // SAFETY: `s` holds LANES initialized f32s; unaligned load.
            unsafe { _mm256_loadu_ps(s.as_ptr()) }
        }
        fn store(s: &mut [f32], v: F) {
            let s = &mut s[..LANES];
            // SAFETY: `s` has room for LANES f32s; unaligned store.
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), v) }
        }
        fn splat(v: f32) -> F { _mm256_set1_ps(v) }
        fn splat_i(v: i32) -> I { _mm256_set1_epi32(v) }
        fn add(a: F, b: F) -> F { _mm256_add_ps(a, b) }
        fn sub(a: F, b: F) -> F { _mm256_sub_ps(a, b) }
        fn mul(a: F, b: F) -> F { _mm256_mul_ps(a, b) }
        fn div(a: F, b: F) -> F { _mm256_div_ps(a, b) }
        fn neg(a: F) -> F { from_bits(xor_i(bits(a), splat_i(i32::MIN))) }
        fn bits(a: F) -> I { _mm256_castps_si256(a) }
        fn from_bits(a: I) -> F { _mm256_castsi256_ps(a) }
        fn and_i(a: I, b: I) -> I { _mm256_and_si256(a, b) }
        fn or_i(a: I, b: I) -> I { _mm256_or_si256(a, b) }
        fn xor_i(a: I, b: I) -> I { _mm256_xor_si256(a, b) }
        fn add_i(a: I, b: I) -> I { _mm256_add_epi32(a, b) }
        fn sub_i(a: I, b: I) -> I { _mm256_sub_epi32(a, b) }
        fn shl23(a: I) -> I { _mm256_slli_epi32::<23>(a) }
        /// Per-lane logical right shift; counts outside `0..32` give 0.
        fn shr_v(a: I, count: I) -> I { _mm256_srlv_epi32(a, count) }
        fn trunc_i(a: F) -> I { _mm256_cvttps_epi32(a) }
        fn to_f(a: I) -> F { _mm256_cvtepi32_ps(a) }
        fn lt_i(a: I, b: I) -> M { _mm256_cmpgt_epi32(b, a) }
        fn gt_i(a: I, b: I) -> M { _mm256_cmpgt_epi32(a, b) }
        fn ge_i(a: I, b: I) -> M { xor_i(lt_i(a, b), splat_i(-1)) }
        fn eq_i(a: I, b: I) -> M { _mm256_cmpeq_epi32(a, b) }
        fn lt_f(a: F, b: F) -> M { bits(_mm256_cmp_ps::<_CMP_LT_OQ>(a, b)) }
        fn or_m(a: M, b: M) -> M { or_i(a, b) }
        /// `m ? a : b` per lane.
        fn sel(m: M, a: F, b: F) -> F { _mm256_blendv_ps(b, a, from_bits(m)) }
        fn sel_i(m: M, a: I, b: I) -> I { _mm256_blendv_epi8(b, a, m) }
        fn mask_bits(m: M) -> u32 { _mm256_movemask_ps(from_bits(m)) as u32 }
        /// The low and high four lanes widened to f64.
        fn widen(x: F) -> (D, D) {
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
            (lo, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)))
        }
        /// Both halves rounded back to f32 and rejoined.
        fn narrow(lo: D, hi: D) -> F { _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo)) }
        fn splat_d(v: f64) -> D { _mm256_set1_pd(v) }
        fn fma_d(a: D, b: D, c: D) -> D { _mm256_fmadd_pd(a, b, c) }
        fn fms_d(a: D, b: D, c: D) -> D { _mm256_fmsub_pd(a, b, c) }
        fn sub_d(a: D, b: D) -> D { _mm256_sub_pd(a, b) }
        fn mul_d(a: D, b: D) -> D { _mm256_mul_pd(a, b) }
        fn bits_d(a: D) -> I { _mm256_castpd_si256(a) }
        fn from_bits_d(a: I) -> D { _mm256_castsi256_pd(a) }
        fn add_q(a: I, b: I) -> I { _mm256_add_epi64(a, b) }
        fn shl47(a: I) -> I { _mm256_slli_epi64::<47>(a) }
        /// `EXP2_TAB[ki mod 32]` per 64-bit lane, gathered.
        fn exp2_tab(ki: I) -> I {
            let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
            // SAFETY: every index is in 0..32, inside the 32-entry table.
            unsafe { _mm256_i64gather_epi64::<8>(port::EXP2_TAB.as_ptr().cast(), idx) }
        }
    }

    row_kernels!("avx2,fma");
}

#[cfg(test)]
mod tests {
    use super::{avx2, avx512, port};
    use crate::Microkernel;

    /// Both SIMD `expf`s against the scalar port, lane by lane: the two
    /// inputs where an unfused `r = InvLn2N·x − kd` is one ulp off, the
    /// edges of the `|x| ≥ 88` fallback, the specials, and every 65 521st
    /// bit pattern.
    #[test]
    fn exp_lanes_match_the_port() {
        let mut bits = vec![
            0x4202_422f,
            0xc27c_65d9,
            0x42b0_0000,
            0x42af_ffff,
            0xc2b0_0000,
            0xc2af_ffff,
            0x42b1_7217,
            0x42b1_7218,
            0xc2cf_f1b4,
            0xc2cf_f1b5,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xff81_2345,
            0x0000_0000,
            0x8000_0000,
            0x0000_0001,
            0x8000_0001,
        ];
        bits.extend((0..=u32::MAX).step_by(65_521));
        bits.resize(bits.len().next_multiple_of(16), 0);
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let want: Vec<u32> = xs.iter().map(|&x| port::expf(x).to_bits()).collect();
        for kernel in [Microkernel::Avx2Fma, Microkernel::Avx512] {
            if !kernel.available() {
                continue;
            }
            let mut got = xs.clone();
            match kernel {
                // SAFETY: the host runs AVX2+FMA (checked above).
                Microkernel::Avx2Fma => unsafe { avx2::exp_in_place(&mut got) },
                // SAFETY: the host runs AVX-512F (checked above).
                _ => unsafe { avx512::exp_in_place(&mut got) },
            }
            for ((x, g), w) in bits.iter().zip(&got).zip(&want) {
                assert_eq!(g.to_bits(), *w, "{} exp({x:#010x})", kernel.name());
            }
        }
    }
}
