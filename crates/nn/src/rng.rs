//! Deterministic RNG helpers.
//!
//! Every component in the reproduction accepts a seed so experiments are
//! repeatable; this module centralizes the conversion from seeds to RNGs and
//! provides a few sampling utilities shared across crates.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a new deterministic RNG from a base seed and a stream index.
///
/// Use this to give each worker/epoch/layer its own independent stream while
/// keeping the whole experiment reproducible from a single seed.
pub fn derived(seed: u64, stream: u64) -> StdRng {
    // SplitMix64-style mixing keeps the derived seeds well separated.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Draws a single standard-normal sample.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let theta = 2.0 * std::f32::consts::PI * u2;
    (-2.0 * crate::math::fast_ln(u1)).sqrt() * crate::math::fast_sin_cos(theta).1
}

/// Adds `sigma · N(0, 1)` to every element of `values` in place, one
/// [`standard_normal`] per element in order, allocating nothing.
///
/// **Stream contract:** for `values` filled with a centre `c`, the result
/// and the RNG's end state are bit-identical to `c + sigma *
/// standard_normal(rng)` per element, so every sampler that adds Gaussian
/// noise (the mixture prior, smoothing, `sample_near`, conditional
/// guessing) shares this one loop without moving a bit.
pub fn add_normal_noise<R: Rng + ?Sized>(values: &mut [f32], sigma: f32, rng: &mut R) {
    for v in values {
        *v += sigma * standard_normal(rng);
    }
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(mean: f32, std: f32, rng: &mut R) -> f32 {
    mean + std * standard_normal(rng)
}

/// Draws a uniform index in `[0, n)` without modulo bias.
///
/// A plain `next_u32() % n` over-represents the first `2^32 mod n` indices;
/// this rejection-samples instead: draws below `2^32 mod n` are discarded,
/// making every index exactly equally likely. For power-of-two `n` the
/// rejection threshold is zero, so the RNG consumption (and therefore any
/// seeded stream) is identical to the modulo draw.
///
/// # Panics
///
/// Panics if `n` is zero or does not fit in `u32`.
pub fn uniform_index<R: RngCore + ?Sized>(rng: &mut R, n: usize) -> usize {
    assert!(n > 0, "n must be positive");
    let n32 = u32::try_from(n).expect("n must fit in u32");
    // `2^32 mod n`, computed without 64-bit arithmetic.
    let threshold = n32.wrapping_neg() % n32;
    loop {
        let r = rng.next_u32();
        if r >= threshold {
            return (r % n32) as usize;
        }
    }
}

/// Samples an index from a discrete distribution given by unnormalized
/// non-negative weights.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn sample_discrete<R: Rng + ?Sized>(weights: &[f32], rng: &mut R) -> usize {
    assert!(!weights.is_empty(), "weights must be non-empty");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(5);
        let mut b = seeded(5);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = derived(5, 0);
        let mut b = derived(5, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derived_is_deterministic() {
        let mut a = derived(5, 3);
        let mut b = derived(5, 3);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(11);
        let samples: Vec<f32> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var =
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = seeded(12);
        let samples: Vec<f32> = (0..20_000).map(|_| normal(3.0, 0.5, &mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        assert!((mean - 3.0).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn uniform_index_has_no_modulo_bias() {
        // n = 3 leaves 2^32 mod 3 = 1 rejected value; with plain modulo the
        // first index would be over-represented by ~1 draw in 2^32 — too
        // small to see — so instead verify the distribution is flat for a
        // non-power-of-two n at test scale and that the stream matches the
        // modulo draw for a power-of-two n (the compatibility guarantee the
        // attack tests rely on).
        let mut rng = seeded(21);
        let n = 3;
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[uniform_index(&mut rng, n)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 400.0,
                "index {i} drawn {c} times"
            );
        }

        let mut a = seeded(22);
        let mut b = seeded(22);
        for _ in 0..1_000 {
            assert_eq!(uniform_index(&mut a, 64), (b.next_u32() as usize) % 64);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn uniform_index_rejects_zero() {
        let mut rng = seeded(1);
        uniform_index(&mut rng, 0);
    }

    #[test]
    fn sample_discrete_follows_weights() {
        let mut rng = seeded(13);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_discrete(&weights, &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f32 / counts[0] as f32;
        assert!((ratio - 3.0).abs() < 0.5, "ratio={ratio}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn sample_discrete_rejects_empty() {
        let mut rng = seeded(1);
        sample_discrete(&[], &mut rng);
    }
}
