//! The f32 activations, bit for bit.
//!
//! `dss-nn` computes f32 `tanh`, `exp` and sigmoid with its own ports of
//! glibc 2.36's `tanhf` and `expf` (see `dss_nn::activation`), at SIMD
//! width under the AVX-512F and AVX2+FMA kernels and one element at a
//! time under the scalar kernel. Two checks hold them to glibc:
//!
//! * a golden table of `(x, tanh x, exp x, 1/(1+exp(−x)))` bit patterns
//!   captured from glibc 2.36 on x86_64, covering every branch boundary of
//!   both ports, the special values and the two inputs where an unfused
//!   `expf` reduction differs — asserted on every platform, for
//!   `Activation::apply`, `Scalar::exp` and the row kernel under every
//!   microkernel the host can run;
//! * an `#[ignore]`d sweep over all 2³² f32 patterns: every available
//!   kernel against the scalar kernel, and on glibc hosts the scalar
//!   kernel against `f32::tanh` and `1/(1+f32::exp(−x))` (run it with
//!   `cargo test --release --test activation_bits -- --ignored`). A glibc
//!   whose `tanhf` or `expf` is no longer the code the ports follow shows
//!   up there as libm mismatches; the kernels still agree with the port.

use std::sync::atomic::{AtomicU64, Ordering};

use dss_nn::matrix::with_microkernel;
use dss_nn::{Activation, Microkernel, Scalar};

/// `(x, tanh, exp, sigmoid)` bit patterns from glibc 2.36 (x86_64).
#[rustfmt::skip]
const GOLDEN: &[(u32, u32, u32, u32)] = &[
    (0x00000000, 0x00000000, 0x3f800000, 0x3f000000), // +0
    (0x80000000, 0x80000000, 0x3f800000, 0x3f000000), // -0
    (0x00000001, 0x00000001, 0x3f800000, 0x3f000000), // min subnormal
    (0x007fffff, 0x007fffff, 0x3f800000, 0x3f000000), // max subnormal
    (0x80000001, 0x80000001, 0x3f800000, 0x3f000000), // -min subnormal
    (0x807fffff, 0x807fffff, 0x3f800000, 0x3f000000), // -max subnormal
    (0x00800000, 0x00800000, 0x3f800000, 0x3f000000), // min normal
    (0x7f800000, 0x3f800000, 0x7f800000, 0x3f800000), // +inf
    (0xff800000, 0xbf800000, 0x00000000, 0x00000000), // -inf
    (0x7fc00000, 0x7fc00000, 0x7fc00000, 0xffc00000), // qNaN
    (0xffc00000, 0xffc00000, 0xffc00000, 0x7fc00000), // -qNaN
    (0x7f800001, 0x7fc00001, 0x7fc00001, 0xffc00001), // sNaN payload 1
    (0xff812345, 0xffc12345, 0xffc12345, 0x7fc12345), // -sNaN payload
    (0x7fffffff, 0x7fffffff, 0x7fffffff, 0xffffffff), // qNaN all-ones payload
    (0x7fa00000, 0x7fe00000, 0x7fe00000, 0xffe00000), // sNaN high payload
    (0x7f7fffff, 0x3f800000, 0x7f800000, 0x3f800000), // f32::MAX
    (0xff7fffff, 0xbf800000, 0x00000000, 0x00000000), // f32::MIN
    (0x24000000, 0x24000000, 0x3f800000, 0x3f000000), // tanh |x| = 2^-55
    (0xa4000000, 0xa4000000, 0x3f800000, 0x3f000000), // tanh |x| = 2^-55
    (0x23ffffff, 0x23ffffff, 0x3f800000, 0x3f000000), // tanh below 2^-55
    (0xa3ffffff, 0xa3ffffff, 0x3f800000, 0x3f000000), // tanh below 2^-55
    (0x3f800000, 0x3f42f7d6, 0x402df854, 0x3f3b26a8), // tanh |x| = 1
    (0xbf800000, 0xbf42f7d6, 0x3ebc5ab2, 0x3e89b2b1), // tanh |x| = 1
    (0x3f7fffff, 0x3f42f7d5, 0x402df854, 0x3f3b26a8), // tanh below 1
    (0xbf7fffff, 0xbf42f7d5, 0x3ebc5ab2, 0x3e89b2b1), // tanh below 1
    (0x41b00000, 0x3f800000, 0x4f55ad6e, 0x3f800000), // tanh |x| = 22
    (0xc1b00000, 0xbf800000, 0x2f995a46, 0x2f995a46), // tanh |x| = 22
    (0x41afffff, 0x3f800000, 0x4f55ad53, 0x3f800000), // tanh below 22
    (0xc1afffff, 0xbf800000, 0x2f995a59, 0x2f995a59), // tanh below 22
    (0x32800000, 0x32800000, 0x3f800000, 0x3f000000), // expm1 |arg| = 2^-25
    (0x32800001, 0x32800001, 0x3f800000, 0x3f000000), // expm1 |arg| = 2^-25
    (0x327fffff, 0x327fffff, 0x3f800000, 0x3f000000), // expm1 |arg| = 2^-25
    (0x3e317218, 0x3e2fb0cd, 0x3f9837f0, 0x3f0b100c), // expm1 |arg| = 0.5 ln2
    (0x3e317219, 0x3e2fb0cd, 0x3f9837f0, 0x3f0b100c), // expm1 |arg| = 0.5 ln2
    (0x3e317217, 0x3e2fb0cc, 0x3f9837f0, 0x3f0b100c), // expm1 |arg| = 0.5 ln2
    (0x3f051592, 0x3ef486f8, 0x3fd744fd, 0x3f208a9e), // expm1 |arg| = 1.5 ln2
    (0x3f051593, 0x3ef486fb, 0x3fd744fe, 0x3f208a9e), // expm1 |arg| = 1.5 ln2
    (0x3f051591, 0x3ef486f8, 0x3fd744fc, 0x3f208a9e), // expm1 |arg| = 1.5 ln2
    (0x4115b844, 0x3f800000, 0x463504f1, 0x3f7ffa58), // expm1 |arg| = 27 ln2
    (0x4115b845, 0x3f800000, 0x463504fc, 0x3f7ffa58), // expm1 |arg| = 27 ln2
    (0x4115b843, 0x3f800000, 0x463504e5, 0x3f7ffa58), // expm1 |arg| = 27 ln2
    (0x3f051593, 0x3ef486fb, 0x3fd744fe, 0x3f208a9e), // expm1 k = -2
    (0x3f051592, 0x3ef486f8, 0x3fd744fd, 0x3f208a9e), // expm1 k = -2
    (0x3f5dce9e, 0x3f331638, 0x401837f0, 0x3f34398d), // expm1 k = -3
    (0x3f5dce9d, 0x3f331638, 0x401837f0, 0x3f34398c), // expm1 k = -3
    (0x40ee7150, 0x3f7ffff5, 0x44d744fb, 0x3f7fd9f8), // expm1 k = 22
    (0x40ee714f, 0x3f7ffff5, 0x44d744f5, 0x3f7fd9f8), // expm1 k = 22
    (0x40f98872, 0x3f7ffffa, 0x451837f2, 0x3f7fe51b), // expm1 k = 23
    (0x40f98871, 0x3f7ffffa, 0x451837ed, 0x3f7fe51b), // expm1 k = 23
    (0x4199e0f1, 0x3f800000, 0x4d574503, 0x3f800000), // expm1 k = 56
    (0x4199e0f0, 0x3f800000, 0x4d5744e8, 0x3f800000), // expm1 k = 56
    (0x419ca6b9, 0x3f800000, 0x4d9837ed, 0x3f800000), // expm1 k = 57
    (0x419ca6b8, 0x3f800000, 0x4d9837da, 0x3f800000), // expm1 k = 57
    (0x41b00000, 0x3f800000, 0x4f55ad6e, 0x3f800000), // expm1 k = 64
    (0x41afffff, 0x3f800000, 0x4f55ad53, 0x3f800000), // expm1 k = 64
    (0xc2b00000, 0xbf800000, 0x0041edc4, 0x0041edc4), // expf |arg| = 88
    (0xc2afffff, 0xbf800000, 0x0041ede5, 0x0041ede5), // expf below 88
    (0x42b00000, 0x3f800000, 0x7ef882b7, 0x3f800000), // expf |arg| = 88
    (0xc2b17217, 0xbf800000, 0x0020000f, 0x00200010), // expf last finite
    (0xc2b17218, 0xbf800000, 0x001fffff, 0x00000000), // expf overflow
    (0x42cff1b4, 0x3f800000, 0x7f800000, 0x3f800000), // expf last nonzero
    (0x42cff1b5, 0x3f800000, 0x7f800000, 0x3f800000), // expf underflow
    (0x42ce8ed0, 0x3f800000, 0x7f800000, 0x3f800000), // expf subnormal result
    (0x4202422f, 0x3f800000, 0x56fc9f1c, 0x3f800000), // FMA witness (expf 32.56)
    (0xc202422f, 0xbf800000, 0x2801b63b, 0x2801b63b), // FMA witness through sigmoid
    (0xc27c65d9, 0xbf800000, 0x11fa2993, 0x11fa2993), // FMA witness (expf -63.10)
    (0x3f000000, 0x3eec9a9f, 0x3fd3094c, 0x3f1f597f), // ordinary
    (0xbf000000, 0xbeec9a9f, 0x3f1b4598, 0x3ec14d03), // ordinary
    (0x3a83126f, 0x3a83126c, 0x3f8020c9, 0x3f001062), // ordinary
    (0xba83126f, 0xba83126c, 0x3f7fbe7f, 0x3effdf3c), // ordinary
    (0x3e800000, 0x3e7acbf5, 0x3fa45af2, 0x3f0feacd), // ordinary
    (0x40000000, 0x3f76ca83, 0x40ec7326, 0x3f617bea), // ordinary
    (0xc06ccccd, 0xbf7fafee, 0x3cca88fe, 0x3cc5a607), // ordinary
    (0x41200000, 0x3f800000, 0x46ac14ee, 0x3f7ffd06), // ordinary
    (0xc1700000, 0xbf800000, 0x34a43ae5, 0x34a43ae2), // ordinary
    (0x3dcccccd, 0x3dcc1ebc, 0x3f8d763e, 0x3f066509), // ordinary
    (0x3f333333, 0x3f1ab7d8, 0x4000e153, 0x3f2b0e5a), // ordinary
    (0xbf666666, 0xbf375f4c, 0x3ed029e6, 0x3e93fe6d), // ordinary
    (0x3fc00000, 0x3f67b7cc, 0x408f69ff, 0x3f514c8f), // ordinary
    (0x40866666, 0x3f7fe288, 0x42855f65, 0x3f7c37c5), // ordinary
    (0x41f00000, 0x3f800000, 0x551b8238, 0x3f800000), // ordinary
    (0xc2480000, 0xbf800000, 0x1b692beb, 0x1b692beb), // ordinary
    (0x322bcc77, 0x322bcc77, 0x3f800000, 0x3f000000), // ordinary
    (0x40c00000, 0x3f7fff32, 0x43c9b6e3, 0x3f7f5df5), // ordinary
    (0xc0c00000, 0xbf7fff32, 0x3b227290, 0x3b220bbb), // ordinary
    (0x3eaa7efa, 0x3ea47624, 0x3fb29430, 0x3f151e02), // ordinary
    (0x3e99999a, 0x3e9526ed, 0x3facc82d, 0x3f130eaa), // ordinary
    (0xbed1eb85, 0xbec6e5e5, 0x3f29e4fc, 0x3ecc3e35), // ordinary
    (0x3f19999a, 0x3f097c15, 0x3fe93b31, 0x3f2549bb), // ordinary
    (0xbf4ccccd, 0xbf29fe50, 0x3ee60e72, 0x3e9ebbaa), // ordinary
    (0x3f99999a, 0x3f556a64, 0x40547ccc, 0x3f44be0b), // ordinary
    (0xc0200000, 0xbf7c92c1, 0x3da81c2e, 0x3d9b5b88), // ordinary
    (0x40466666, 0x3f7ef68a, 0x41b19566, 0x3f74f6ec), // ordinary
    (0xc1080000, 0xbf7fffff, 0x39555a20, 0x39554f03), // ordinary
    (0x41400000, 0x3f800000, 0x481ef0b3, 0x3f7fff98), // ordinary
    (0x418c0000, 0x3f800000, 0x4c17eb64, 0x3f800000), // ordinary
    (0xc1a00000, 0xbf800000, 0x310da433, 0x310da433), // ordinary
    (0x37a7c5ac, 0x37a7c5ac, 0x3f8000a8, 0x3f000054), // ordinary
    (0xb6eae18b, 0xb6eae18a, 0x3f7fff8b, 0x3effffc4), // ordinary
    (0x42960000, 0x3f800000, 0x7593401c, 0x3f800000), // ordinary
];

const KERNELS: [Microkernel; 4] = [
    Microkernel::Scalar,
    Microkernel::Avx2Fma,
    Microkernel::Avx512,
    Microkernel::Neon,
];

fn available_kernels() -> impl Iterator<Item = Microkernel> {
    KERNELS.into_iter().filter(|k| k.available())
}

/// `act(x)` through the row kernel, `x` in the row and `−0` as the bias
/// (`x + (−0)` is `x` for every `x`, `±0` included).
fn row_kernel(act: Activation, xs: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend_from_slice(xs);
    act.apply_row(out, &vec![-0.0; xs.len()]);
}

#[test]
fn apply_matches_golden_bits() {
    for &(x, tanh, exp, sigmoid) in GOLDEN {
        let v = f32::from_bits(x);
        assert_eq!(Activation::Tanh.apply(v).to_bits(), tanh, "tanh({x:#010x})");
        assert_eq!(Scalar::exp(v).to_bits(), exp, "exp({x:#010x})");
        assert_eq!(
            Activation::Sigmoid.apply(v).to_bits(),
            sigmoid,
            "sigmoid({x:#010x})"
        );
    }
}

#[test]
fn row_kernel_matches_golden_bits_under_every_kernel() {
    let xs: Vec<f32> = GOLDEN.iter().map(|g| f32::from_bits(g.0)).collect();
    let mut out = Vec::new();
    for kernel in available_kernels() {
        // The whole table as one row (full vectors and a tail), then as
        // 7-wide rows (tails only), so each input meets several lanes.
        for width in [xs.len(), 7] {
            for (chunk, golden) in xs.chunks(width).zip(GOLDEN.chunks(width)) {
                for (act, column) in [(Activation::Tanh, 1), (Activation::Sigmoid, 3)] {
                    with_microkernel(kernel, || row_kernel(act, chunk, &mut out));
                    for (got, g) in out.iter().zip(golden) {
                        let want = [g.0, g.1, g.2, g.3][column];
                        assert_eq!(
                            got.to_bits(),
                            want,
                            "{act:?}({:#010x}) under {}, row width {width}",
                            g.0,
                            kernel.name()
                        );
                    }
                }
            }
        }
    }
}

/// 2³² inputs as 2²⁰ rows of 4096 on the pool. Counts, per function,
/// each SIMD kernel's mismatches against the scalar kernel and (glibc
/// hosts) the scalar kernel's against the host libm, by bits.
#[test]
#[ignore = "all 2^32 f32 inputs: about a minute per function in release on 2 cores"]
fn row_kernels_match_the_port_and_glibc_on_every_f32() {
    const WIDTH: usize = 4096;
    let kernels: Vec<Microkernel> = available_kernels()
        .filter(|&k| k != Microkernel::Scalar)
        .collect();
    // [tanh, sigmoid] × [libm, KERNELS...]
    let mismatches: Vec<AtomicU64> = (0..2 * (1 + KERNELS.len()))
        .map(|_| AtomicU64::new(0))
        .collect();
    let libm = [|x: f32| x.tanh(), |x: f32| 1.0 / (1.0 + (-x).exp())];
    workpool::with_current(|pool| {
        pool.for_each_chunk(1 << (32 - WIDTH.trailing_zeros()), 64, |rows| {
            let mut xs = vec![0.0f32; WIDTH];
            let (mut port, mut simd) = (Vec::new(), Vec::new());
            for row in rows {
                for (i, x) in xs.iter_mut().enumerate() {
                    *x = f32::from_bits((row * WIDTH + i) as u32);
                }
                for (f, act) in [Activation::Tanh, Activation::Sigmoid]
                    .into_iter()
                    .enumerate()
                {
                    let count = |slot: usize, n: usize| {
                        mismatches[f * (1 + KERNELS.len()) + slot]
                            .fetch_add(n as u64, Ordering::Relaxed)
                    };
                    with_microkernel(Microkernel::Scalar, || row_kernel(act, &xs, &mut port));
                    if cfg!(target_env = "gnu") {
                        let bad = xs
                            .iter()
                            .zip(&port)
                            .filter(|(&x, p)| libm[f](x).to_bits() != p.to_bits());
                        count(0, bad.count());
                    }
                    for &kernel in &kernels {
                        with_microkernel(kernel, || row_kernel(act, &xs, &mut simd));
                        let bad = port
                            .iter()
                            .zip(&simd)
                            .filter(|(p, s)| p.to_bits() != s.to_bits());
                        let slot = 1 + KERNELS.iter().position(|&k| k == kernel).expect("listed");
                        count(slot, bad.count());
                    }
                }
            }
        });
    });
    let mut total = 0;
    for (f, name) in ["tanh", "sigmoid"].into_iter().enumerate() {
        let read = |slot: usize| mismatches[f * (1 + KERNELS.len()) + slot].load(Ordering::Relaxed);
        if cfg!(target_env = "gnu") {
            println!("{name}: scalar port vs host libm: {} mismatches", read(0));
            total += read(0);
        }
        for &kernel in &kernels {
            let slot = 1 + KERNELS.iter().position(|&k| k == kernel).expect("listed");
            println!(
                "{name}: {} vs scalar port: {} mismatches",
                kernel.name(),
                read(slot)
            );
            total += read(slot);
        }
    }
    assert_eq!(total, 0, "activation kernels disagree");
}
