//! Branch-free transcendental functions shared by every float path.
//!
//! The flow applies `exp` and `tanh` to every element of every batch (the
//! coupling scale networks are tanh-bounded and the affine transform
//! exponentiates them), and libm's scalar implementations both dominate the
//! post-GEMM profile and block autovectorization. These replacements are
//! polynomial/rational approximations with no data-dependent branches, so
//! the surrounding elementwise loops vectorize; accuracy is a few ULP
//! (relative error ≲ 3e-7), far inside every tolerance the reproduction
//! uses.
//!
//! The Box-Muller pair ([`fast_ln`], [`fast_sin_cos`]) keeps that rule too,
//! though its inputs are uniform draws that would mispredict any branch on
//! most calls: `fast_ln` renormalises its mantissa with a select, and
//! `fast_sin_cos` picks its quadrant by swapping the `(sin, cos)` bit
//! patterns under a mask built from the quadrant's low bit and flipping
//! their sign bits by XOR. The tests below check both bit for bit against
//! frozen `match`/`if` references: sampled by default, and over every input
//! of their domains in the `#[ignore]`d sweeps that CI runs on the optimised
//! build.
//!
//! **Consistency rule:** all tensor ops ([`Tensor::exp`](crate::Tensor::exp),
//! [`Tensor::tanh`](crate::Tensor::tanh), [`Tensor::sigmoid`](crate::Tensor::sigmoid)),
//! the in-place kernels and the fused coupling kernels call *these*
//! functions, never `f32::exp` / `f32::tanh` directly — that is what keeps
//! the reference path and the inference fast path bit-identical.

/// Largest input before `exp` saturates: chosen so the power-of-two scale
/// stays at most `2^127` (finite), i.e. slightly below `ln(f32::MAX)`.
const EXP_HI: f32 = 88.37;
/// Smallest input before `exp` flushes to the tiniest normal.
const EXP_LO: f32 = -87.336_55;

/// Fast `e^x` (Cephes-style): range reduction by powers of two plus a
/// degree-5 minimax polynomial on `[-ln 2 / 2, ln 2 / 2]`.
///
/// Inputs outside `[-87.34, 88.37]` saturate: the result clamps to
/// ≈ 1.2e-38 below and ≈ 2.4e38 above (the upper bound keeps the
/// power-of-two scale at `2^127`, i.e. finite) instead of flushing to
/// 0/∞; NaN propagates.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(EXP_LO, EXP_HI);
    let n = (x * LOG2_E).round();
    // r = x - n·ln2, in two pieces for extra precision.
    let r = n.mul_add(-LN2_HI, x);
    let r = n.mul_add(-LN2_LO, r);
    let mut p = 1.987_569_2e-4f32;
    p = p.mul_add(r, 1.398_199_9e-3);
    p = p.mul_add(r, 8.333_452e-3);
    p = p.mul_add(r, 4.166_579_6e-2);
    p = p.mul_add(r, 1.666_666_6e-1);
    p = p.mul_add(r, 5.000_000_3e-1);
    let poly = p.mul_add(r * r, r) + 1.0;
    // Scale by 2^n through the exponent bits.
    let two_n = f32::from_bits((((n as i32) + 127) << 23) as u32);
    poly * two_n
}

/// Fast `tanh(x)`: the classic odd rational approximation
/// `x·P(x²) / Q(x²)` on `[-7.99, 7.99]`, clamped to ±1 beyond.
///
/// `fast_tanh(0) == 0` exactly and the sign is preserved; NaN propagates.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    const CLAMP: f32 = 7.998_811_7;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = -2.760_768_4e-16f32;
    p = p.mul_add(x2, 2.000_188e-13);
    p = p.mul_add(x2, -8.604_672e-11);
    p = p.mul_add(x2, 5.122_297e-8);
    p = p.mul_add(x2, 1.485_722_4e-5);
    p = p.mul_add(x2, 6.372_619_4e-4);
    p = p.mul_add(x2, 4.893_525e-3);
    let p = p * x;
    let mut q = 1.198_258_4e-6f32;
    q = q.mul_add(x2, 1.185_347_1e-4);
    q = q.mul_add(x2, 2.268_434_7e-3);
    q = q.mul_add(x2, 4.893_525e-3);
    p / q
}

/// Fast logistic sigmoid `1 / (1 + e^{-x})`, built on [`fast_exp`] so every
/// sigmoid in the workspace agrees bitwise.
#[inline]
pub fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// Fast natural logarithm for **strictly positive finite** inputs
/// (Cephes-style): exponent extraction plus a degree-8 polynomial on
/// `[√0.5, √2)`. Used by the Box-Muller sampler, whose inputs live in
/// `(0, 1)`.
#[inline]
pub fn fast_ln(x: f32) -> f32 {
    const SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    debug_assert!(x > 0.0 && x.is_finite(), "fast_ln domain");
    let bits = x.to_bits();
    let e = ((bits >> 23) as i32) - 126;
    // Mantissa remapped into [0.5, 1), then normalized into [√0.5, √2).
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    // A select, not a branch: the Box-Muller draws land on either side at
    // random.
    let low = m < SQRT_HALF;
    let m = if low { m + m } else { m };
    let e = e - i32::from(low);
    let t = m - 1.0;
    let z = t * t;
    let mut p = 7.037_683_6e-2f32;
    p = p.mul_add(t, -1.151_461e-1);
    p = p.mul_add(t, 1.167_699_9e-1);
    p = p.mul_add(t, -1.242_014_1e-1);
    p = p.mul_add(t, 1.424_932_3e-1);
    p = p.mul_add(t, -1.666_805_8e-1);
    p = p.mul_add(t, 2.000_071_5e-1);
    p = p.mul_add(t, -2.499_999_4e-1);
    p = p.mul_add(t, 3.333_333e-1);
    let e = e as f32;
    let mut y = t * z * p;
    y = e.mul_add(LN2_LO, y);
    y -= 0.5 * z;
    e.mul_add(LN2_HI, t + y)
}

/// Fast simultaneous `(sin x, cos x)` for `x ∈ [0, 2π]` (Cephes-style):
/// one shared octant reduction, two short polynomials. Used by the
/// Box-Muller sampler, which needs both values of the same angle.
#[inline]
pub fn fast_sin_cos(x: f32) -> (f32, f32) {
    const FRAC_4_PI: f32 = 1.273_239_5; // 4/π
    const DP1: f32 = 0.785_156_25;
    const DP2: f32 = 2.418_756_5e-4;
    const DP3: f32 = 3.774_895e-8;
    debug_assert!((0.0..=6.3).contains(&x), "fast_sin_cos domain");
    let mut j = (FRAC_4_PI * x) as u32;
    j += j & 1; // round up to even: reduction lands in [-π/4, π/4]
    let y = j as f32;
    let r = ((x - y * DP1) - y * DP2) - y * DP3;
    let z = r * r;
    let mut ps = -1.951_529_6e-4f32;
    ps = ps.mul_add(z, 8.332_161e-3);
    ps = ps.mul_add(z, -1.666_665_5e-1);
    let poly_sin = (ps * z).mul_add(r, r);
    let mut pc = 2.443_315_7e-5f32;
    pc = pc.mul_add(z, -1.388_731_6e-3);
    pc = pc.mul_add(z, 4.166_664_6e-2);
    let poly_cos = (pc * z).mul_add(z, 0.5f32.mul_add(-z, 1.0));
    // j is even; each quadrant step q rotates (sin, cos) by π/2:
    // q = 0 → (s, c), 1 → (c, −s), 2 → (−s, −c), 3 → (−c, s). An odd q
    // swaps the pair; the sine is negated for q ∈ {2, 3} and the cosine for
    // q ∈ {1, 2}. Swap and negations act on the bits, so no quadrant
    // branches.
    let q = (j >> 1) & 3;
    let (sb, cb) = (poly_sin.to_bits(), poly_cos.to_bits());
    let swap = (sb ^ cb) & 0u32.wrapping_sub(q & 1);
    let sin_sign = (q >> 1) << 31;
    let cos_sign = ((q ^ (q >> 1)) & 1) << 31;
    (
        f32::from_bits(sb ^ swap ^ sin_sign),
        f32::from_bits(cb ^ swap ^ cos_sign),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(fast: f32, exact: f64) -> f64 {
        let fast = fast as f64;
        if exact == 0.0 {
            fast.abs()
        } else {
            ((fast - exact) / exact).abs()
        }
    }

    #[test]
    fn exp_is_accurate_across_the_working_range() {
        let mut worst = 0.0f64;
        let mut x = -30.0f32;
        while x <= 30.0 {
            worst = worst.max(rel_err(fast_exp(x), (x as f64).exp()));
            x += 0.0173;
        }
        assert!(worst < 3e-7, "worst exp relative error {worst}");
    }

    #[test]
    fn tanh_is_accurate_across_the_working_range() {
        let mut worst = 0.0f64;
        let mut x = -9.0f32;
        while x <= 9.0 {
            worst = worst.max(rel_err(fast_tanh(x), (x as f64).tanh()));
            x += 0.0171;
        }
        assert!(worst < 3e-7, "worst tanh relative error {worst}");
    }

    #[test]
    fn exact_special_values() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_tanh(0.0), 0.0);
        assert_eq!(fast_sigmoid(0.0), 0.5);
        assert!(fast_exp(f32::NAN).is_nan());
        assert!(fast_tanh(f32::NAN).is_nan());
    }

    #[test]
    fn saturation_behaviour() {
        assert!(fast_exp(1000.0).is_finite());
        assert!(fast_exp(1000.0) > 1e38);
        assert!(fast_exp(-1000.0) >= 0.0);
        assert!(fast_exp(-1000.0) < 1e-37);
        assert_eq!(fast_tanh(50.0), fast_tanh(8.0));
        assert!((fast_tanh(50.0) - 1.0).abs() < 1e-6);
        assert!((fast_tanh(-50.0) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn ln_is_accurate_on_the_unit_interval() {
        let mut worst = 0.0f64;
        let mut x = 1e-6f32;
        while x < 1.0 {
            worst = worst.max(rel_err(fast_ln(x), (x as f64).ln()));
            x += 1.7e-4;
        }
        // Also a few values above 1 for completeness.
        for &x in &[1.0f32, 2.5, 10.0, 1e4] {
            let exact = (x as f64).ln();
            let err = (fast_ln(x) as f64 - exact).abs();
            assert!(err < 1e-6, "ln({x}) error {err}");
        }
        assert!(worst < 5e-7, "worst ln relative error {worst}");
    }

    #[test]
    fn sin_cos_are_accurate_on_the_circle() {
        let mut worst = 0.0f64;
        let mut x = 0.0f32;
        while x <= std::f32::consts::TAU {
            let (s, c) = fast_sin_cos(x);
            worst = worst.max((s as f64 - (x as f64).sin()).abs());
            worst = worst.max((c as f64 - (x as f64).cos()).abs());
            x += 1.3e-4;
        }
        assert!(worst < 1e-6, "worst sin/cos absolute error {worst}");
        let (s0, c0) = fast_sin_cos(0.0);
        assert_eq!(s0, 0.0);
        assert_eq!(c0, 1.0);
    }

    /// The quadrant `match` `fast_sin_cos` used before it went
    /// branch-free, kept verbatim as the bit-for-bit reference.
    fn frozen_sin_cos(x: f32) -> (f32, f32) {
        const FRAC_4_PI: f32 = 1.273_239_5;
        const DP1: f32 = 0.785_156_25;
        const DP2: f32 = 2.418_756_5e-4;
        const DP3: f32 = 3.774_895e-8;
        let mut j = (FRAC_4_PI * x) as u32;
        j += j & 1;
        let y = j as f32;
        let r = ((x - y * DP1) - y * DP2) - y * DP3;
        let z = r * r;
        let mut ps = -1.951_529_6e-4f32;
        ps = ps.mul_add(z, 8.332_161e-3);
        ps = ps.mul_add(z, -1.666_665_5e-1);
        let poly_sin = (ps * z).mul_add(r, r);
        let mut pc = 2.443_315_7e-5f32;
        pc = pc.mul_add(z, -1.388_731_6e-3);
        pc = pc.mul_add(z, 4.166_664_6e-2);
        let poly_cos = (pc * z).mul_add(z, 0.5f32.mul_add(-z, 1.0));
        match (j / 2) & 3 {
            0 => (poly_sin, poly_cos),
            1 => (poly_cos, -poly_sin),
            2 => (-poly_sin, -poly_cos),
            _ => (-poly_cos, poly_sin),
        }
    }

    /// The branching `m < √½` renormalisation `fast_ln` used before it
    /// became a select, kept verbatim as the bit-for-bit reference.
    fn frozen_ln(x: f32) -> f32 {
        const SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;
        const LN2_HI: f32 = 0.693_359_4;
        const LN2_LO: f32 = -2.121_944_4e-4;
        let bits = x.to_bits();
        let mut e = ((bits >> 23) as i32) - 126;
        let mut m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
        if m < SQRT_HALF {
            m += m;
            e -= 1;
        }
        let t = m - 1.0;
        let z = t * t;
        let mut p = 7.037_683_6e-2f32;
        p = p.mul_add(t, -1.151_461e-1);
        p = p.mul_add(t, 1.167_699_9e-1);
        p = p.mul_add(t, -1.242_014_1e-1);
        p = p.mul_add(t, 1.424_932_3e-1);
        p = p.mul_add(t, -1.666_805_8e-1);
        p = p.mul_add(t, 2.000_071_5e-1);
        p = p.mul_add(t, -2.499_999_4e-1);
        p = p.mul_add(t, 3.333_333e-1);
        let e = e as f32;
        let mut y = t * z * p;
        y = e.mul_add(LN2_LO, y);
        y -= 0.5 * z;
        e.mul_add(LN2_HI, t + y)
    }

    /// Bit patterns of `fast_sin_cos`'s whole domain `[0, 6.3]`.
    const SIN_COS_BITS: std::ops::RangeInclusive<u32> = 0..=0x40c9_999a;
    /// Bit patterns of the Box–Muller radius draw's domain `(0, 1)`.
    const LN_BITS: std::ops::Range<u32> = 1..0x3f80_0000;

    fn assert_sin_cos_matches_frozen(bits: u32) {
        let x = f32::from_bits(bits);
        let (s, c) = fast_sin_cos(x);
        let (fs, fc) = frozen_sin_cos(x);
        assert_eq!(
            (s.to_bits(), c.to_bits()),
            (fs.to_bits(), fc.to_bits()),
            "fast_sin_cos({x:e}) moved"
        );
    }

    fn assert_ln_matches_frozen(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(
            fast_ln(x).to_bits(),
            frozen_ln(x).to_bits(),
            "fast_ln({x:e}) moved"
        );
    }

    #[test]
    fn sin_cos_matches_the_frozen_form_bit_for_bit() {
        assert_eq!(f32::from_bits(*SIN_COS_BITS.end()), 6.3);
        for bits in SIN_COS_BITS.step_by(64) {
            assert_sin_cos_matches_frozen(bits);
        }
        // Quadrant boundaries: ±8 ulps around every multiple of π/4.
        for k in 0..=8u32 {
            let centre = (k as f32 * std::f32::consts::FRAC_PI_4).to_bits();
            for bits in centre.saturating_sub(8)..=centre + 8 {
                if SIN_COS_BITS.contains(&bits) {
                    assert_sin_cos_matches_frozen(bits);
                }
            }
        }
    }

    #[test]
    fn ln_matches_the_frozen_form_bit_for_bit() {
        for bits in LN_BITS.step_by(256) {
            assert_ln_matches_frozen(bits);
        }
        // Both sides of the √½ renormalisation, in every binade.
        let sqrt_half = std::f32::consts::FRAC_1_SQRT_2.to_bits() & 0x007f_ffff;
        for exponent in 1..127u32 {
            let centre = (exponent << 23) | sqrt_half;
            for bits in centre - 8..=centre + 8 {
                assert_ln_matches_frozen(bits);
            }
        }
    }

    /// Runs `check` on every bit pattern in `lo..=hi`, split into one
    /// contiguous block per available core (at most eight).
    fn sweep(lo: u32, hi: u32, check: fn(u32)) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64;
        let (lo, len) = (u64::from(lo), u64::from(hi) - u64::from(lo) + 1);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (start, end) = (lo + len * t / threads, lo + len * (t + 1) / threads);
                scope.spawn(move || (start..end).for_each(|bits| check(bits as u32)));
            }
        });
    }

    /// Every f32 of `fast_sin_cos`'s domain against the frozen form. A
    /// third of them square to subnormals, which the FPU takes slowly: this
    /// runs about 80 core-seconds on an optimised build.
    #[test]
    #[ignore = "exhaustive; run with --release -- --ignored exhaustive"]
    fn exhaustive_sin_cos_matches_the_frozen_form() {
        sweep(
            *SIN_COS_BITS.start(),
            *SIN_COS_BITS.end(),
            assert_sin_cos_matches_frozen,
        );
    }

    /// Every f32 in `(0, 1)` through `fast_ln` against the frozen form.
    #[test]
    #[ignore = "exhaustive; run with --release -- --ignored exhaustive"]
    fn exhaustive_ln_matches_the_frozen_form() {
        sweep(LN_BITS.start, LN_BITS.end - 1, assert_ln_matches_frozen);
    }

    #[test]
    fn tanh_is_odd() {
        for &x in &[0.1f32, 0.5, 1.0, 2.5, 7.0] {
            assert_eq!(fast_tanh(-x), -fast_tanh(x));
        }
    }
}
