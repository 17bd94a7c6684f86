//! Scalar f32 ports of glibc 2.36's `tanhf` and `expf` — the reference
//! the SIMD row kernels in [`super::x86`] reproduce lane for lane.
//!
//! * [`tanhf`] is fdlibm's `s_tanhf.c` over `s_expm1f.c` (glibc's
//!   `sysdeps/ieee754/flt-32` copies), all in f32 with no fused
//!   operations — the generic C compiled for baseline x86_64.
//! * [`expf`] is glibc's `e_expf.c` as its x86_64 FMA variant computes
//!   it: `x·N/ln2 = k + r` with a 32-entry `2^(i/32)` table and a
//!   degree-3 polynomial in f64, where every `a·b + c` the C writes is
//!   one fused multiply-add (`r = InvLn2N·x − kd` included: unfused, it
//!   differs from the FMA build at `0x4202422f` and `0xc27c65d9`).
//!
//! NaN results are the input NaN quieted, sign and payload kept — what
//! the C's `1/x ± 1` and `x + x` return on x86_64 and aarch64 — written
//! as a bit operation so no compiler NaN rule can change it.

/// `x` with its quiet bit set.
#[inline(always)]
fn quiet(x: f32) -> f32 {
    f32::from_bits(x.to_bits() | 0x0040_0000)
}

/// glibc `tanhf` (fdlibm `s_tanhf.c`).
pub(crate) fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1; tanh(NaN) = NaN.
        if ix > 0x7f80_0000 {
            return quiet(x);
        }
        return 1.0f32.copysign(x);
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 2^-55, ±0 included: `x·(1 + x)` rounds to `x`.
        if ix < 0x2400_0000 {
            return x;
        }
        let a = f32::from_bits(ix);
        if ix >= 0x3f80_0000 {
            let t = expm1f(2.0 * a);
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * a);
            -t / (t + 2.0)
        }
    } else {
        // |x| ≥ 22: `1 − 1e-30` rounds to 1.
        1.0
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// `ln2` split so `k·LN2_HI` is exact for the `k` that reach it.
pub(super) const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
pub(super) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
pub(super) const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// Scaled expm1 polynomial coefficients `Q1`–`Q5`.
pub(super) const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// fdlibm `s_expm1f.c` over the arguments [`tanhf`] passes: `2|x|` in
/// `[2, 44)` or `−2|x|` in `(−2, −2^-54]`. The C's filter for
/// `|x| ≥ 27·ln2` returns early only for negative or non-finite
/// arguments, neither of which occurs here, so it is left out.
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // Argument reduction: x = k·ln2 + r with |r| ≤ 0.5·ln2, r = hi − lo
    // carried as `x` plus the correction `c`.
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // |x| < 1.5·ln2
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: `x − ((huge + x) − huge)` is `x`.
        return x;
    } else {
        (x, 0.0, 0)
    };

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
        1 => 1.0 + 2.0 * (x - e),
        k if k <= -2 || k > 56 => add_exponent(1.0 - (e - x), k) - 1.0,
        k if k < 23 => add_exponent(
            f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x),
            k,
        ),
        k => add_exponent(
            (x - (e + f32::from_bits(((0x7f - k) << 23) as u32))) + 1.0,
            k,
        ),
    }
}

/// `y · 2^k` by adding `k` to the exponent field (no range check, as in
/// the C).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// `tab[i] = bits(2^(i/32)) − (i << 47)`: adding `k << 47` to entry
/// `k mod 32` gives `2^(k/32)` for any `k` the reduction produces.
pub(super) const EXP2_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32/ln2`.
pub(super) const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5·2^52`: adding it rounds to an integer held in the low mantissa
/// bits.
pub(super) const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1`.
pub(super) const C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `|x| ≥ 88` or NaN: `bits(x) >> 20 & 0x7ff` at or above this takes
/// [`expf`]'s special-case path.
pub(super) const EXP_SPECIAL_TOP: u32 = 0x42b;

/// glibc `expf` (`e_expf.c`, FMA build).
pub(crate) fn expf(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= EXP_SPECIAL_TOP {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            // +inf, or NaN.
            return if x.is_nan() { quiet(x) } else { x };
        }
        // x > log(2^128) ≈ 88.72 overflows.
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY;
        }
        // x < log(2^-150) ≈ −103.97 underflows to +0.
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0;
        }
    }
    // x·32/ln2 = k + r in f64, k rounded to an integer by the shift.
    let xd = x as f64;
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C[0].mul_add(r, C[1]);
    let r2 = r * r;
    let y = C[2].mul_add(r, 1.0);
    (z.mul_add(r2, y) * s) as f32
}
