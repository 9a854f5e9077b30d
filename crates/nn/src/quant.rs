//! Opt-in int8 weight quantization for scoring-only inference.
//!
//! A [`QuantizedLinearSnapshot`] stores a [`LinearSnapshot`]'s weight matrix
//! as one signed byte per element plus one `f32` scale **per weight row**
//! (per input feature): `w[p][j] ≈ q[p][j] · s[p]` with symmetric
//! quantization `s[p] = max_j |w[p][j]| / 127`, `q = round(w / s)` clamped
//! to `[-127, 127]`. That cuts weight bytes 4× — the lever that matters for
//! small-batch scoring, where the GEMM is bound by streaming the weight
//! matrix, not by arithmetic.
//!
//! The int8 weights are a weight *format*, not a second inference stack:
//! [`QuantizedLinearSnapshot`] supplies only its two inner tiles to the one
//! GEMM driver in [`crate::kernels`] (same i-k-j register blocking, same
//! ascending-`p` per-lane `mul_add` accumulation, same row partition across
//! an optional [`ThreadPool`]), and every structure above a linear layer —
//! [`ResNetSnapshot`] here, the coupling layers, flows and scorers in
//! `passflow-core` — is the f32 code, generic over [`LinearWeights`].
//! Results are therefore **deterministic and thread-count invariant
//! bit-for-bit** — but they are *approximate* with respect to the f32
//! weights: quantization error is a property of the weights, measured per
//! model as max |Δ log-prob| against the exact oracle (`log_prob_reference`
//! in `passflow-core`) and surfaced to callers so the trade is explicit.
//! This module never replaces the exact path; callers opt in per workload
//! (serve `--quantized`, strength tables).

use crate::kernels::{gemm, write_tile, Epilogue, GemmWeights, Tiles};
use crate::pool::ThreadPool;
use crate::snapshot::{BlockSnapshot, LinearSnapshot, LinearWeights, ResNetSnapshot};
use crate::tensor::Tensor;

/// Largest magnitude a quantized weight may take (symmetric, no −128 so
/// the grid is symmetric around zero and negation is exact).
const QMAX: f32 = 127.0;

// ---------------------------------------------------------------------------
// Quantized linear layer
// ---------------------------------------------------------------------------

/// An int8 copy of a [`LinearSnapshot`]: per-row scales, symmetric grid.
#[derive(Clone, Debug)]
pub struct QuantizedLinearSnapshot {
    /// `in_features × out_features`, row-major — same layout the f32 kernel
    /// streams, one byte per element.
    q: Vec<i8>,
    /// One scale per weight row (input feature): `w[p][j] ≈ q[p][j] · s[p]`.
    scales: Vec<f32>,
    /// Bias kept in f32 (it is added once per output element; quantizing it
    /// would add error for no bandwidth win).
    bias: Vec<f32>,
    in_features: usize,
    out_features: usize,
}

impl QuantizedLinearSnapshot {
    /// Quantizes an f32 linear snapshot (weights to int8, bias kept f32).
    pub fn from_snapshot(snapshot: &LinearSnapshot) -> Self {
        let weight = snapshot.weight_tensor();
        let (k, n) = weight.shape();
        let w = weight.as_slice();
        let mut q = vec![0i8; k * n];
        let mut scales = vec![1.0f32; k];
        for p in 0..k {
            let row = &w[p * n..(p + 1) * n];
            let mut amax = 0.0f32;
            for &v in row {
                let mag = v.abs();
                if mag > amax {
                    amax = mag;
                }
            }
            // An all-zero row quantizes to zeros under any scale; keep 1.0
            // so the dequantized product is exactly 0.
            let scale = if amax > 0.0 { amax / QMAX } else { 1.0 };
            scales[p] = scale;
            let q_row = &mut q[p * n..(p + 1) * n];
            for (dst, &v) in q_row.iter_mut().zip(row) {
                *dst = (v / scale).round().clamp(-QMAX, QMAX) as i8;
            }
        }
        QuantizedLinearSnapshot {
            q,
            scales,
            bias: snapshot.bias_tensor().as_slice().to_vec(),
            in_features: k,
            out_features: n,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The dequantized weight matrix `q[p][j] · s[p]` (diagnostics/tests).
    pub fn dequantized_weight(&self) -> Tensor {
        let mut out = Tensor::zeros(self.in_features, self.out_features);
        let slice = out.as_mut_slice();
        for p in 0..self.in_features {
            let s = self.scales[p];
            for j in 0..self.out_features {
                slice[p * self.out_features + j] = f32::from(self.q[p * self.out_features + j]) * s;
            }
        }
        out
    }
}

impl LinearWeights for QuantizedLinearSnapshot {
    /// Bytes held by the quantized weights + scales + bias — ~¼ of the f32
    /// layer for any non-trivial width.
    fn memory_bytes(&self) -> usize {
        self.q.len()
            + std::mem::size_of_val(self.scales.as_slice())
            + std::mem::size_of_val(self.bias.as_slice())
    }

    fn forward_into_with(&self, input: &Tensor, out: &mut Tensor, pool: Option<&ThreadPool>) {
        assert_eq!(
            input.cols(),
            self.in_features,
            "quantized linear shape mismatch"
        );
        out.resize(input.rows(), self.out_features);
        gemm(
            input.as_slice(),
            input.rows(),
            self.in_features,
            self,
            self.out_features,
            out.as_mut_slice(),
            Epilogue::Bias(&self.bias),
            Tiles::best(pool),
        );
    }

    fn forward_add_into_with(&self, input: &Tensor, out: &mut Tensor, pool: Option<&ThreadPool>) {
        assert_eq!(
            input.cols(),
            self.in_features,
            "quantized linear shape mismatch"
        );
        assert_eq!(
            out.shape(),
            (input.rows(), self.out_features),
            "quantized residual output shape mismatch"
        );
        gemm(
            input.as_slice(),
            input.rows(),
            self.in_features,
            self,
            self.out_features,
            out.as_mut_slice(),
            Epilogue::BiasAdd(&self.bias),
            Tiles::best(pool),
        );
    }
}

/// int8 weights: `w[p][j] = q[p][j] · s[p]`, dequantized in registers.
impl GemmWeights for QuantizedLinearSnapshot {
    /// Per output element: `Σ_p fma(a[i][p] · s[p], f32(q[p][j]), acc)` with
    /// `p` ascending — the dequantize happens in registers, the accumulation
    /// order matches the f32 tile, and every lane is independent.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    fn tile<const R: usize, const W: usize>(
        &self,
        a: &[f32],
        out: &mut [f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
        epi: Epilogue<'_>,
    ) {
        let mut acc = [[0.0f32; W]; R];
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        let mut q_off = j;
        for p in 0..k {
            let s = self.scales[p];
            let q_row: &[i8] = &self.q[q_off..q_off + W];
            let mut w = [0.0f32; W];
            for c in 0..W {
                w[c] = f32::from(q_row[c]);
            }
            for r in 0..R {
                let a_val = a_rows[r][p] * s;
                for c in 0..W {
                    acc[r][c] = a_val.mul_add(w[c], acc[r][c]);
                }
            }
            q_off += n;
        }
        write_tile(&acc, out, i, j, n, epi);
    }

    /// Per-lane identical to the scalar tile: the weight bytes are widened
    /// to f32 in registers, `a·s` is one scalar multiply, and the
    /// accumulation is one `vfmadd` per `(row, column, p)` with `p`
    /// ascending. AVX2 has no byte mask-load, so a masked tile still loads
    /// 16 bytes per weight row: lanes past `cols` read the next row's bytes
    /// and are never stored (the epilogue masks the output). Only where that
    /// window would run past the weights are the row's `cols` bytes copied
    /// into a zeroed stack buffer first — a per-row copy cost more than the
    /// scalar tiles it replaces.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile16<const R: usize, const MASKED: bool>(
        &self,
        a: &[f32],
        out: &mut [f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
        cols: usize,
        epi: Epilogue<'_>,
    ) {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        debug_assert!(k == 0 || (i + R) * k <= a.len());
        debug_assert!(k == 0 || (k - 1) * n + j + cols <= self.q.len());
        let mut tail = [0i8; 16];
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        let mut q_off = j;
        for p in 0..k {
            let s = *self.scales.get_unchecked(p);
            let q_ptr = if MASKED && q_off + 16 > self.q.len() {
                tail[..cols].copy_from_slice(&self.q[q_off..q_off + cols]);
                tail.as_ptr()
            } else {
                self.q.as_ptr().add(q_off)
            };
            // Widen 16 weight bytes to two f32 octets in registers —
            // exactly `f32::from(q)` per lane.
            let qv = _mm_loadu_si128(q_ptr.cast());
            let w_lo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qv));
            let w_hi = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128::<8>(qv)));
            for (r, acc) in acc.iter_mut().enumerate() {
                let a_val = _mm256_set1_ps(*a.get_unchecked((i + r) * k + p) * s);
                acc[0] = _mm256_fmadd_ps(a_val, w_lo, acc[0]);
                acc[1] = _mm256_fmadd_ps(a_val, w_hi, acc[1]);
            }
            q_off += n;
        }
        let mask = crate::kernels::simd::mask16(cols);
        crate::kernels::simd::write_tile16::<R, MASKED>(&acc, out, i, j, n, epi, mask);
    }
}

/// An int8 copy of a [`ResNetSnapshot`]: the same network walk over
/// [`QuantizedLinearSnapshot`] layers. Activations stay f32 throughout; only
/// weights are quantized.
pub type QuantizedResNetSnapshot = ResNetSnapshot<QuantizedLinearSnapshot>;

impl QuantizedResNetSnapshot {
    /// Quantizes every linear layer of an f32 ResNet snapshot.
    pub fn from_snapshot(snapshot: &ResNetSnapshot) -> Self {
        let quantize_block = |block: &BlockSnapshot| BlockSnapshot {
            fc1: QuantizedLinearSnapshot::from_snapshot(&block.fc1),
            fc2: QuantizedLinearSnapshot::from_snapshot(&block.fc2),
            activation: block.activation,
        };
        ResNetSnapshot::new(
            QuantizedLinearSnapshot::from_snapshot(snapshot.input_layer()),
            snapshot.block_layers().iter().map(quantize_block).collect(),
            QuantizedLinearSnapshot::from_snapshot(snapshot.output_layer()),
            snapshot.output_tanh(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm_rows, Tier};
    use crate::layers::ResNet;
    use crate::snapshot::NetWorkspace;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    fn linear_snapshot(k: usize, n: usize, r: &mut impl rand::Rng) -> LinearSnapshot {
        LinearSnapshot::new(Tensor::randn(k, n, r), Tensor::randn(1, n, r))
    }

    #[test]
    fn dequantized_weights_stay_within_half_a_grid_step() {
        let mut r = rng();
        let snap = linear_snapshot(23, 37, &mut r);
        let qsnap = QuantizedLinearSnapshot::from_snapshot(&snap);
        let original = snap.weight_tensor();
        let restored = qsnap.dequantized_weight();
        for p in 0..23 {
            let row = &original.as_slice()[p * 37..(p + 1) * 37];
            let amax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let step = amax / 127.0;
            for j in 0..37 {
                let delta = (original.get(p, j) - restored.get(p, j)).abs();
                assert!(
                    delta <= 0.5 * step + 1e-6,
                    "({p},{j}): |Δ|={delta} step={step}"
                );
            }
        }
    }

    #[test]
    fn quantized_forward_tracks_the_f32_forward() {
        let mut r = rng();
        let snap = linear_snapshot(48, 64, &mut r);
        let qsnap = QuantizedLinearSnapshot::from_snapshot(&snap);
        let x = Tensor::randn(9, 48, &mut r);
        let mut exact = Tensor::zeros(0, 0);
        snap.forward_into(&x, &mut exact);
        let mut quantized = Tensor::zeros(0, 0);
        qsnap.forward_into_with(&x, &mut quantized, None);
        assert_eq!(exact.shape(), quantized.shape());
        // Per-element error is bounded by Σ_p |x[p]| · s[p]/2; with unit
        // Gaussian weights and inputs this is well under 0.05 relative to
        // activations of order √48.
        for (e, q) in exact.as_slice().iter().zip(quantized.as_slice()) {
            assert!((e - q).abs() < 0.2, "exact {e} vs quantized {q}");
        }
    }

    #[test]
    fn simd_qtile_matches_scalar_qtile_bit_for_bit() {
        // Every SIMD tier the host supports against the scalar tiles. The
        // widths walk the masked tail alone (10, the flow's output layers),
        // after one and two 16-lane tiles (35, 42) and after the AVX-512
        // tier's 32-wide pairs (48, 80).
        let mut r = rng();
        for (m, k, n) in [
            (4, 32, 16),
            (5, 7, 48),
            (3, 17, 35),
            (1, 64, 16),
            (8, 1, 80),
            (67, 128, 10),
            (6, 10, 42),
        ] {
            let snap = linear_snapshot(k, n, &mut r);
            let qsnap = QuantizedLinearSnapshot::from_snapshot(&snap);
            let x = Tensor::randn(m, k, &mut r);
            for epi in [Epilogue::Bias(&qsnap.bias), Epilogue::BiasAdd(&qsnap.bias)] {
                let run = |tier| {
                    let mut out = vec![1.0f32; m * n];
                    gemm_rows(x.as_slice(), m, k, &qsnap, n, &mut out, epi, tier);
                    out
                };
                let scalar = run(Tier::Scalar);
                for tier in Tier::supported() {
                    assert_eq!(run(tier), scalar, "({m},{k},{n}) {tier:?}");
                }
            }
        }
    }

    #[test]
    fn quantized_gemm_is_thread_count_invariant() {
        let mut r = rng();
        let snap = linear_snapshot(64, 80, &mut r);
        let qsnap = QuantizedLinearSnapshot::from_snapshot(&snap);
        let x = Tensor::randn(160, 64, &mut r);
        let mut serial = Tensor::zeros(0, 0);
        qsnap.forward_into_with(&x, &mut serial, None);
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let mut threaded = Tensor::zeros(0, 0);
            qsnap.forward_into_with(&x, &mut threaded, Some(&pool));
            assert_eq!(
                serial.as_slice(),
                threaded.as_slice(),
                "{threads} threads must be bit-identical"
            );
        }
    }

    #[test]
    fn quantized_resnet_mirrors_the_f32_structure() {
        let mut r = rng();
        for bounded in [false, true] {
            let net = ResNet::new(10, 32, 10, 2, bounded, &mut r);
            let snap = net.snapshot();
            let qsnap = QuantizedResNetSnapshot::from_snapshot(&snap);
            assert!(qsnap.memory_bytes() > 0);
            let x = Tensor::randn(7, 10, &mut r);
            let mut ws = NetWorkspace::new();
            let mut exact = Tensor::zeros(0, 0);
            snap.forward_into(&x, &mut ws, &mut exact);
            let mut quantized = Tensor::zeros(0, 0);
            qsnap.forward_into(&x, &mut ws, &mut quantized);
            assert_eq!(exact.shape(), quantized.shape());
            let max_delta = exact
                .as_slice()
                .iter()
                .zip(quantized.as_slice())
                .map(|(e, q)| (e - q).abs())
                .fold(0.0f32, f32::max);
            assert!(max_delta < 0.5, "max |Δ| {max_delta} out of range");
            assert!(
                max_delta > 0.0,
                "quantization of random weights must not be a no-op"
            );
        }
    }

    #[test]
    fn all_zero_rows_quantize_to_exact_zero() {
        let snap = LinearSnapshot::new(Tensor::zeros(5, 8), Tensor::zeros(1, 8));
        let qsnap = QuantizedLinearSnapshot::from_snapshot(&snap);
        let x = Tensor::from_rows(&[vec![1.0; 5]]);
        let mut out = Tensor::zeros(0, 0);
        qsnap.forward_into_with(&x, &mut out, None);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
