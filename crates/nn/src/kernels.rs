//! Allocation-free compute kernels for the inference fast path.
//!
//! Every kernel writes into a caller-provided buffer and is **bit-exact**
//! with the reference tensor-op chain it replaces: each output element is
//! produced by the same floating-point operations in the same order, so the
//! fast path and the reference path agree to 0 ULP. Concretely, every matrix
//! product accumulates `Σ_p fma(a[i][p], b[p][j], acc)` left-to-right from
//! `0.0` — [`Tensor::matmul`] and every fused variant route through the one
//! GEMM below, so "reference" and "fast" disagree in *allocation*, never in
//! value. Any bias is added *after* the full accumulation (mirroring
//! `matmul` + `add_row_broadcast`), and fused elementwise kernels apply the
//! same scalar functions in the same sequence as the tensor-op chain.
//!
//! The matrix core is a register-blocked i-k-j GEMM: a block of 4 output rows
//! × one column tile is accumulated in registers while `p` streams through
//! the shared dimension, with single-row tails for ragged row counts. The
//! column tiles come from the widest `Tier` the host has, chosen once by a
//! cached CPUID probe: 32-wide AVX-512F tiles (two zmm accumulators per row),
//! then 16-wide AVX2/FMA tiles, then **one masked 16-lane tile** for the last
//! `n mod 16` columns. Masked lanes are never read or written, so no operand
//! needs padding, and a 10-wide output layer — the flow's `s`/`t` heads —
//! stays on SIMD instead of falling to scalar tiles. Hosts without AVX2 run
//! the portable 16/8/4/1-wide scalar tiles. Register blocking re-tiles the
//! *independent* i/j loops only, and every lane computes `fma(a[i][p],
//! b[p][j], acc)` from `0.0` with `p` ascending, so no tier reassociates the
//! `p` accumulation order and every tier gives the same bits. Weights stay
//! row-major `k × n`, which the i-k-j kernel streams with unit stride; a
//! dot-product inner loop over a transposed operand could only vectorize by
//! reassociating the reduction, which would break bit-exactness.
//!
//! The training backward pass needs the two transposed products of a linear
//! layer, `G·Wᵀ` and `Xᵀ·G`. [`matmul_nt_into`] (`a·bᵀ`) and
//! [`matmul_tn_into`] (`aᵀ·b`) serve them on the same driver and tiles:
//! each copies the transposed operand into a caller-owned
//! [`TransposePack`] that is reused across calls, then runs the ordinary
//! product. The pack moves values without arithmetic and the product
//! accumulates `p` ascending from `0.0`, so both are 0-ULP equal to
//! `matmul_into` on a materialised `transpose()` — only the per-call
//! allocation is gone. An output narrower than one 16-wide tile is computed
//! in the flipped orientation and transposed back; `fma(x, y, acc)` equals
//! `fma(y, x, acc)`, so that changes no bit either.

use crate::pool::ThreadPool;
use crate::tensor::Tensor;
use crate::ActivationKind;

/// What to do with the accumulated dot products when a tile completes.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// `out = acc` (plain matrix product).
    Store,
    /// `out = acc + bias[j]` (fused linear layer).
    Bias(&'a [f32]),
    /// `out += acc + bias[j]` (fused residual branch).
    BiasAdd(&'a [f32]),
}

/// Whether the explicit AVX2/FMA tiles (with their masked column tail) are
/// available on this host — true on every SIMD tier, AVX-512 included.
///
/// On `x86_64` this is a cached runtime CPUID check; elsewhere it is `false`
/// and every call takes the scalar tiles (which `-C target-cpu` may still
/// auto-vectorize — the explicit tiles exist so peak width never depends on
/// build flags). Every tier computes identical bytes, so the dispatch is
/// invisible in results.
pub fn simd_tile_available() -> bool {
    Tier::best() > Tier::Scalar
}

/// The inner-tile tier a GEMM runs on, narrowest first. Tiers differ only
/// in register-tile width; each lane's arithmetic is the same, so every tier
/// gives the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// Portable 16/8/4/1-wide tiles.
    Scalar,
    /// 16-wide AVX2/FMA tiles and one masked 16-lane column tail.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 32-wide AVX-512F tiles, then the AVX2 tiles for the last `n mod 32`
    /// columns.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The widest tier this host supports (a cached CPUID probe).
    pub(crate) fn best() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            simd::best()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Tier::Scalar
        }
    }

    /// Every tier this host supports, narrowest first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Tier> {
        [
            Tier::Scalar,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512,
        ]
        .into_iter()
        .filter(|&tier| tier <= Tier::best())
        .collect()
    }
}

/// Which tiles a product runs on, and the pool (if any) splitting its rows.
#[derive(Clone, Copy)]
pub(crate) struct Tiles<'p> {
    pub(crate) tier: Tier,
    pub(crate) pool: Option<&'p ThreadPool>,
}

impl<'p> Tiles<'p> {
    /// The scalar tiles alone, single-threaded (the conformance oracle).
    const SCALAR: Tiles<'static> = Tiles {
        tier: Tier::Scalar,
        pool: None,
    };

    /// The host's widest tier, output rows split across `pool` when given.
    pub(crate) fn best(pool: Option<&'p ThreadPool>) -> Self {
        Tiles {
            tier: Tier::best(),
            pool,
        }
    }
}

/// The weight operand `B` (`k × n`, row-major) of the GEMM driver, in one
/// storage format: f32 (`[f32]`) or int8 with per-row scales
/// ([`QuantizedLinearSnapshot`](crate::QuantizedLinearSnapshot)).
///
/// The driver owns everything above the inner tile — row blocks, the column
/// walk with its masked tail, and the pool row partition — so a format
/// supplies only its tiles: a scalar tile, a 16-lane SIMD tile that can run
/// masked, and optionally a 32-wide AVX-512 tile (by default two 16-lane
/// tiles). Each tile accumulates `Σ_p fma(a[i][p]·…, w[p][j], acc)` from
/// `0.0` with `p` ascending and finishes through the shared epilogue
/// ([`write_tile`], `simd::write_tile16` or `simd::write_tile32`), which is
/// what keeps a format's tiers, and every thread count, bit-identical.
pub(crate) trait GemmWeights: Sync {
    /// One register tile: `R` output rows × `W` output columns at `(i, j)`.
    #[allow(clippy::too_many_arguments)]
    fn tile<const R: usize, const W: usize>(
        &self,
        a: &[f32],
        out: &mut [f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
        epi: Epilogue<'_>,
    );

    /// The 16-lane AVX2/FMA tile for `R` rows at `(i, j)`. With `MASKED`,
    /// only the first `cols` columns (`1..16`) are read or written; without
    /// it `cols` is 16.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available ([`simd_tile_available`])
    /// and that the `R`×`cols` tile at `(i, j)` is in bounds for
    /// `a`/`self`/`out` with the given `k`/`n` strides (the contract the
    /// scalar tile's slicing enforces).
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
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
    );

    /// The 32-wide tile of the AVX-512 tier for `R` rows at `(i, j)`; by
    /// default two unmasked 16-lane tiles.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F, AVX2 and FMA are available and that the
    /// `R`×32 tile at `(i, j)` is in bounds, as for [`Self::tile16`].
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile32<const R: usize>(
        &self,
        a: &[f32],
        out: &mut [f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
        epi: Epilogue<'_>,
    ) {
        self.tile16::<R, false>(a, out, i, j, k, n, 16, epi);
        self.tile16::<R, false>(a, out, i, j + 16, k, n, 16, epi);
    }
}

/// Writes an `R`×`W` accumulator tile at `(i, j)` under `epi`. The bias is
/// added once per element after the full accumulation.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
pub(crate) fn write_tile<const R: usize, const W: usize>(
    acc: &[[f32; W]; R],
    out: &mut [f32],
    i: usize,
    j: usize,
    n: usize,
    epi: Epilogue<'_>,
) {
    for r in 0..R {
        let out_row = &mut out[(i + r) * n + j..(i + r) * n + j + W];
        match epi {
            Epilogue::Store => out_row.copy_from_slice(&acc[r]),
            Epilogue::Bias(bias) => {
                for c in 0..W {
                    out_row[c] = acc[r][c] + bias[j + c];
                }
            }
            Epilogue::BiasAdd(bias) => {
                for c in 0..W {
                    out_row[c] += acc[r][c] + bias[j + c];
                }
            }
        }
    }
}

/// f32 weights: `B` itself, streamed row by row.
impl GemmWeights for [f32] {
    /// Accumulates over the full shared dimension `k` with `p` ascending via
    /// fused multiply-adds. `mul_add` has exact FMA semantics per element,
    /// so the loop vectorizes to `vfmadd` without any reassociation — every
    /// caller of the GEMM (reference path, fast path, autograd) therefore
    /// computes the identical value.
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
        // Pre-sliced A rows let the compiler prove `p` stays in range.
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        let mut b_off = j;
        for p in 0..k {
            let b_row: &[f32; W] = self[b_off..b_off + W].try_into().expect("tile width");
            for r in 0..R {
                let a_val = a_rows[r][p];
                for c in 0..W {
                    acc[r][c] = a_val.mul_add(b_row[c], acc[r][c]);
                }
            }
            b_off += n;
        }
        write_tile(&acc, out, i, j, n, epi);
    }

    /// Two 8-lane accumulators per row: exactly the scalar tile's per-lane
    /// operations, one `vfmadd` per `(row, column, p)` with `p` ascending.
    /// Masked lanes load `0.0` and are never stored.
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
        use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_setzero_ps};
        debug_assert!((i + R) * k <= a.len());
        debug_assert!(k == 0 || (k - 1) * n + j + cols <= self.len());
        let mask = simd::mask16(cols);
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        let mut b_off = j;
        for p in 0..k {
            let b = simd::load16::<MASKED>(self.as_ptr().add(b_off), mask);
            for (r, acc) in acc.iter_mut().enumerate() {
                let a_val = _mm256_set1_ps(*a.get_unchecked((i + r) * k + p));
                acc[0] = _mm256_fmadd_ps(a_val, b[0], acc[0]);
                acc[1] = _mm256_fmadd_ps(a_val, b[1], acc[1]);
            }
            b_off += n;
        }
        simd::write_tile16::<R, MASKED>(&acc, out, i, j, n, epi, mask);
    }

    /// Two 16-lane zmm accumulators per row, with the same per-lane
    /// operations as the 16-lane tile.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile32<const R: usize>(
        &self,
        a: &[f32],
        out: &mut [f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
        epi: Epilogue<'_>,
    ) {
        use std::arch::x86_64::{
            _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        };
        debug_assert!((i + R) * k <= a.len());
        debug_assert!(k == 0 || (k - 1) * n + j + 32 <= self.len());
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        let mut b_off = j;
        for p in 0..k {
            let b_lo = _mm512_loadu_ps(self.as_ptr().add(b_off));
            let b_hi = _mm512_loadu_ps(self.as_ptr().add(b_off + 16));
            for (r, acc) in acc.iter_mut().enumerate() {
                let a_val = _mm512_set1_ps(*a.get_unchecked((i + r) * k + p));
                acc[0] = _mm512_fmadd_ps(a_val, b_lo, acc[0]);
                acc[1] = _mm512_fmadd_ps(a_val, b_hi, acc[1]);
            }
            b_off += n;
        }
        simd::write_tile32(&acc, out, i, j, n, epi);
    }
}

/// The SIMD support shared by every format's tiles (`x86_64` only): the
/// tier probe, the 16-lane loads, stores and masks, and the epilogues.
///
/// SIMD re-tiles the *independent* row/column loops only — the `p`
/// reduction order per output element is untouched — so every tier agrees
/// with the scalar tiles to 0 ULP (asserted per tier by the
/// `simd_tile_matches_scalar_tile_bit_for_bit` test).
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd {
    use super::{Epilogue, Tier};
    use std::arch::x86_64::{
        __m256, __m256i, __m512, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_loadu_ps,
        _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_set1_epi32, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm512_add_ps, _mm512_loadu_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    use std::sync::OnceLock;

    /// Cached CPUID probe: AVX-512F (with AVX2 + FMA), AVX2 + FMA, or
    /// neither.
    pub(super) fn best() -> Tier {
        static BEST: OnceLock<Tier> = OnceLock::new();
        *BEST.get_or_init(|| {
            if !(std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            {
                Tier::Scalar
            } else if std::arch::is_x86_feature_detected!("avx512f") {
                Tier::Avx512
            } else {
                Tier::Avx2
            }
        })
    }

    /// Lane masks selecting the first `cols` of 16 columns, one per octet.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn mask16(cols: usize) -> [__m256i; 2] {
        debug_assert!((1..=16).contains(&cols));
        let cols = _mm256_set1_epi32(cols as i32);
        [
            _mm256_cmpgt_epi32(cols, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
            _mm256_cmpgt_epi32(cols, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15)),
        ]
    }

    /// Loads 16 columns at `ptr` as two octets. With `MASKED`, lanes that
    /// `mask` clears read as `0.0` and touch no memory.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and every lane the load reads (all 16, or
    /// the masked-in ones) must be in bounds.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn load16<const MASKED: bool>(
        ptr: *const f32,
        mask: [__m256i; 2],
    ) -> [__m256; 2] {
        if MASKED {
            // `wrapping_add`: the upper octet may start past the slice end
            // when the mask clears all of it.
            [
                _mm256_maskload_ps(ptr, mask[0]),
                _mm256_maskload_ps(ptr.wrapping_add(8), mask[1]),
            ]
        } else {
            [_mm256_loadu_ps(ptr), _mm256_loadu_ps(ptr.add(8))]
        }
    }

    /// Stores 16 columns at `ptr` from two octets; with `MASKED`, only the
    /// lanes `mask` selects.
    ///
    /// # Safety
    ///
    /// As for [`load16`], for writes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store16<const MASKED: bool>(ptr: *mut f32, v: [__m256; 2], mask: [__m256i; 2]) {
        if MASKED {
            _mm256_maskstore_ps(ptr, mask[0], v[0]);
            _mm256_maskstore_ps(ptr.wrapping_add(8), mask[1], v[1]);
        } else {
            _mm256_storeu_ps(ptr, v[0]);
            _mm256_storeu_ps(ptr.add(8), v[1]);
        }
    }

    /// Writes `R` rows × 16 columns of accumulators (two octets per row) at
    /// `(i, j)` under `epi` — the SIMD form of [`super::write_tile`], with
    /// the same operation order: `acc + bias`, then (for `BiasAdd`)
    /// `out + (acc + bias)`. With `MASKED`, the bias and output are read and
    /// written only in the lanes `mask` selects.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available and that the `R`-row tile
    /// at `(i, j)` is in bounds for `out` (and `bias`) with row stride `n`
    /// in every lane it touches.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn write_tile16<const R: usize, const MASKED: bool>(
        acc: &[[__m256; 2]; R],
        out: &mut [f32],
        i: usize,
        j: usize,
        n: usize,
        epi: Epilogue<'_>,
        mask: [__m256i; 2],
    ) {
        let bias = match epi {
            Epilogue::Store => [_mm256_setzero_ps(); 2],
            Epilogue::Bias(bias) | Epilogue::BiasAdd(bias) => {
                load16::<MASKED>(bias.as_ptr().add(j), mask)
            }
        };
        for (r, acc) in acc.iter().enumerate() {
            let out_ptr = out.as_mut_ptr().add((i + r) * n + j);
            let v = match epi {
                Epilogue::Store => *acc,
                Epilogue::Bias(_) => [
                    _mm256_add_ps(acc[0], bias[0]),
                    _mm256_add_ps(acc[1], bias[1]),
                ],
                Epilogue::BiasAdd(_) => {
                    let cur = load16::<MASKED>(out_ptr, mask);
                    [
                        _mm256_add_ps(cur[0], _mm256_add_ps(acc[0], bias[0])),
                        _mm256_add_ps(cur[1], _mm256_add_ps(acc[1], bias[1])),
                    ]
                }
            };
            store16::<MASKED>(out_ptr, v, mask);
        }
    }

    /// [`write_tile16`] for `R` rows × 32 columns held as two 16-lane zmm
    /// accumulators per row, in the same operation order.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and that the `R`×32 tile at
    /// `(i, j)` is in bounds for `out` (and `bias`) with row stride `n`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) unsafe fn write_tile32<const R: usize>(
        acc: &[[__m512; 2]; R],
        out: &mut [f32],
        i: usize,
        j: usize,
        n: usize,
        epi: Epilogue<'_>,
    ) {
        let bias = match epi {
            Epilogue::Store => [_mm512_setzero_ps(); 2],
            Epilogue::Bias(bias) | Epilogue::BiasAdd(bias) => [
                _mm512_loadu_ps(bias.as_ptr().add(j)),
                _mm512_loadu_ps(bias.as_ptr().add(j + 16)),
            ],
        };
        for (r, acc) in acc.iter().enumerate() {
            let out_ptr = out.as_mut_ptr().add((i + r) * n + j);
            for (half, (&acc, &bias)) in acc.iter().zip(&bias).enumerate() {
                let ptr = out_ptr.add(16 * half);
                let v = match epi {
                    Epilogue::Store => acc,
                    Epilogue::Bias(_) => _mm512_add_ps(acc, bias),
                    Epilogue::BiasAdd(_) => {
                        _mm512_add_ps(_mm512_loadu_ps(ptr), _mm512_add_ps(acc, bias))
                    }
                };
                _mm512_storeu_ps(ptr, v);
            }
        }
    }
}

/// All column tiles for a block of `R` rows starting at row `i`.
#[allow(clippy::too_many_arguments)] // flat GEMM plumbing: slices + dims
#[inline(always)]
fn row_block<B: GemmWeights + ?Sized, const R: usize>(
    a: &[f32],
    b: &B,
    out: &mut [f32],
    i: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    tier: Tier,
) {
    let mut j = 0;
    match tier {
        Tier::Scalar => {
            while j + 16 <= n {
                b.tile::<R, 16>(a, out, i, j, k, n, epi);
                j += 16;
            }
            if j + 8 <= n {
                b.tile::<R, 8>(a, out, i, j, k, n, epi);
                j += 8;
            }
            if j + 4 <= n {
                b.tile::<R, 4>(a, out, i, j, k, n, epi);
                j += 4;
            }
            while j < n {
                b.tile::<R, 1>(a, out, i, j, k, n, epi);
                j += 1;
            }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 | Tier::Avx512 => {
            // SAFETY: `gemm_rows` asserts `tier <= Tier::best()`, so the CPUID
            // probe found every feature these tiles enable. Bounds: `i + R
            // <= m`, each full tile has `j + W <= n`, and the masked tail
            // covers exactly the `n - j < 16` columns left.
            unsafe {
                if tier == Tier::Avx512 {
                    while j + 32 <= n {
                        b.tile32::<R>(a, out, i, j, k, n, epi);
                        j += 32;
                    }
                }
                while j + 16 <= n {
                    b.tile16::<R, false>(a, out, i, j, k, n, 16, epi);
                    j += 16;
                }
                if j < n {
                    b.tile16::<R, true>(a, out, i, j, k, n, n - j, epi);
                }
            }
        }
    }
}

/// Single-threaded blocked GEMM over a row range — the unit of work the
/// threaded driver hands to each pool block.
///
/// # Panics
///
/// Panics if `tier` is wider than the host supports (its tiles would
/// execute instructions the CPU lacks).
#[allow(clippy::too_many_arguments)] // flat GEMM plumbing: slices + dims
pub(crate) fn gemm_rows<B: GemmWeights + ?Sized>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &B,
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
    tier: Tier,
) {
    assert!(tier <= Tier::best(), "{tier:?} tiles are not available");
    assert_eq!(a.len(), m * k, "GEMM input is not m × k");
    assert_eq!(out.len(), m * n, "GEMM output is not m × n");
    let mut i = 0;
    while i + 4 <= m {
        row_block::<B, 4>(a, b, out, i, k, n, epi, tier);
        i += 4;
    }
    while i < m {
        row_block::<B, 1>(a, b, out, i, k, n, epi, tier);
        i += 1;
    }
}

/// A raw output pointer that may cross threads. Soundness: the threaded
/// driver hands each pool block a *disjoint* row range of `out`, so no two
/// threads ever touch the same element.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Below this many multiply-accumulates a GEMM is not worth a pool
/// dispatch: handing a job to parked workers costs a few microseconds,
/// which only amortizes once the kernel itself runs tens of microseconds.
/// Pure throughput cut-off — results are identical on either side of it.
const PAR_MIN_MACS: usize = 1 << 17;

/// Fewest output rows a pool block may carry (keeps blocks on whole
/// 4-row register blocks and bounds per-block dispatch overhead).
const PAR_MIN_BLOCK_ROWS: usize = 16;

/// The blocked GEMM driver: `out ∘= a (m×k) × b (k×n)` under `epi`, for any
/// weight format, on the tiles of `tiles.tier`, optionally splitting output
/// row blocks across `tiles.pool`.
///
/// **Bit-exactness across thread counts.** The i/j loops are fully
/// independent — every output element is `Σ_p fma(a[i][p]·…, w[p][j], ·)`
/// with `p` ascending regardless of which thread computes it — so
/// partitioning rows across threads (in any assignment) produces the same
/// bytes as the serial loop. Only the row partition is parallelized; `p`
/// accumulation order is untouched.
#[allow(clippy::too_many_arguments)] // flat GEMM plumbing: slices + dims
pub(crate) fn gemm<B: GemmWeights + ?Sized>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &B,
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
    tiles: Tiles<'_>,
) {
    let Tiles { tier, pool } = tiles;
    assert_eq!(out.len(), m * n, "GEMM output is not m × n");
    let threads = pool.map_or(1, ThreadPool::threads);
    if threads <= 1 || m < 2 * PAR_MIN_BLOCK_ROWS || m * k * n < PAR_MIN_MACS {
        return gemm_rows(a, m, k, b, n, out, epi, tier);
    }
    let pool = pool.expect("threads > 1 implies a pool");
    // Row blocks: multiples of 4 (whole register blocks), a few per thread
    // for dynamic load balance, never smaller than PAR_MIN_BLOCK_ROWS.
    let target_blocks = threads * 4;
    let rows_per_block = m
        .div_ceil(target_blocks)
        .next_multiple_of(4)
        .max(PAR_MIN_BLOCK_ROWS);
    let blocks = m.div_ceil(rows_per_block);
    let out_ptr = SendPtr(out.as_mut_ptr());
    pool.run(blocks, &move |block| {
        // Read the whole wrapper (not `out_ptr.0`) so edition-2021 closure
        // capture grabs `SendPtr` (which is `Sync`), not the bare `*mut f32`
        // field (which is not).
        let base = { out_ptr }.0;
        let start = block * rows_per_block;
        let rows = rows_per_block.min(m - start);
        // SAFETY: blocks tile `0..m` disjointly, so each reconstructed
        // sub-slice covers rows `start..start+rows` and nothing else.
        let out_block = unsafe { std::slice::from_raw_parts_mut(base.add(start * n), rows * n) };
        gemm_rows(
            &a[start * k..(start + rows) * k],
            rows,
            k,
            b,
            n,
            out_block,
            epi,
            tier,
        );
    });
}

/// Matrix product `a × b` written into `out` (resized as needed; previous
/// contents are ignored and every element is overwritten).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    matmul_into_with(a, b, out, None);
}

/// [`matmul_into`] with an optional [`ThreadPool`] splitting output row
/// blocks across threads. Bit-exact with the single-threaded call at any
/// thread count (see the GEMM driver's invariance argument).
pub fn matmul_into_with(a: &Tensor, b: &Tensor, out: &mut Tensor, pool: Option<&ThreadPool>) {
    product(a, b, out, Tiles::best(pool));
}

/// [`matmul_into`] forced onto the scalar inner tiles (no explicit SIMD,
/// single-threaded) — the conformance oracle every SIMD tier and the
/// threaded driver are tested against. Production code never needs this.
pub fn matmul_into_scalar_tile(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    product(a, b, out, Tiles::SCALAR);
}

/// `out = a × b` (resized as needed) on the chosen tiles.
fn product(a: &Tensor, b: &Tensor, out: &mut Tensor, tiles: Tiles<'_>) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.resize(m, n);
    gemm(
        a.as_slice(),
        m,
        k,
        b.as_slice(),
        n,
        out.as_mut_slice(),
        Epilogue::Store,
        tiles,
    );
}

/// Writes `src`ᵀ into `out`, resizing it (the allocation is reused once it
/// has grown to fit).
pub fn transpose_into(src: &Tensor, out: &mut Tensor) {
    let (rows, cols) = src.shape();
    out.resize(cols, rows);
    let dst = out.as_mut_slice();
    for (i, row) in src.as_slice().chunks_exact(cols.max(1)).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// Reusable scratch for [`matmul_nt_into`] and [`matmul_tn_into`]: the
/// packed transposed operand and, for narrow outputs, the product computed
/// in the flipped orientation. Keep one across calls so steady-state
/// products allocate nothing.
#[derive(Debug, Default)]
pub struct TransposePack {
    operand: Tensor,
    flipped: Tensor,
}

/// Which operand of a transposed product is read transposed.
#[derive(Clone, Copy)]
enum Transposed {
    /// `aᵀ · b`.
    A,
    /// `a · bᵀ`.
    B,
}

/// `out = aᵀ·b` or `a·bᵀ`. The transposed operand is packed, then the plain
/// product runs. An output narrower than one 16-wide tile (`n < 16`) with
/// more rows than columns is computed flipped, as `(bᵀ·a)ᵀ` or `(b·aᵀ)ᵀ`,
/// so the wide side fills the SIMD tiles: each element is the same
/// `Σ_p fma(x_p, y_p, ·)` with its multiplicands swapped, and `fma` is
/// commutative in them, so both orientations give the same bits. The
/// masked column tail keeps a narrow output on SIMD as well, but it fills
/// only `n` of its 16 lanes: on an AVX-512 host the 64×64×10 product took
/// ~1.0 µs flipped (as 10×64×64) against ~2.0–2.5 µs direct.
fn transposed_product(
    which: Transposed,
    a: &Tensor,
    b: &Tensor,
    pack: &mut TransposePack,
    out: &mut Tensor,
    tiles: Tiles<'_>,
) {
    let (m, n) = match which {
        Transposed::A => (a.cols(), b.cols()),
        Transposed::B => (a.rows(), b.rows()),
    };
    let TransposePack { operand, flipped } = pack;
    if n < 16 && m > n {
        product_packed(which, b, a, operand, flipped, tiles);
        transpose_into(flipped, out);
    } else {
        product_packed(which, a, b, operand, out, tiles);
    }
}

/// Packs the transposed operand into `operand`, then runs the plain
/// product.
fn product_packed(
    which: Transposed,
    a: &Tensor,
    b: &Tensor,
    operand: &mut Tensor,
    out: &mut Tensor,
    tiles: Tiles<'_>,
) {
    match which {
        Transposed::A => {
            transpose_into(a, operand);
            product(operand, b, out, tiles);
        }
        Transposed::B => {
            transpose_into(b, operand);
            product(a, operand, out, tiles);
        }
    }
}

/// `out = a × bᵀ` for `a: m×k`, `b: n×k`, written into `out` (resized as
/// needed), with [`TransposePack`] scratch.
///
/// 0-ULP equal to `matmul_into(a, &b.transpose(), out)`.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, pack: &mut TransposePack, out: &mut Tensor) {
    transposed_product(Transposed::B, a, b, pack, out, Tiles::best(None));
}

/// `out = aᵀ × b` for `a: k×m`, `b: k×n`, written into `out` (resized as
/// needed), with [`TransposePack`] scratch.
///
/// 0-ULP equal to `matmul_into(&a.transpose(), b, out)`.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, pack: &mut TransposePack, out: &mut Tensor) {
    transposed_product(Transposed::A, a, b, pack, out, Tiles::best(None));
}

/// Fused linear layer: `out = input × weight + bias` (bias broadcast across
/// rows), written into `out` (resized as needed).
///
/// Bit-exact with `input.matmul(weight).add_row_broadcast(bias)`: the bias
/// is added once per element after the full accumulation.
///
/// # Panics
///
/// Panics on shape mismatch (`input.cols() != weight.rows()` or `bias` not
/// `1 × weight.cols()`).
pub fn matmul_bias_into(input: &Tensor, weight: &Tensor, bias: &Tensor, out: &mut Tensor) {
    matmul_bias_into_with(input, weight, bias, out, None);
}

/// [`matmul_bias_into`] with an optional [`ThreadPool`]; bit-exact with the
/// single-threaded call at any thread count.
pub fn matmul_bias_into_with(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    out: &mut Tensor,
    pool: Option<&ThreadPool>,
) {
    assert_eq!(input.cols(), weight.rows(), "matmul_bias shape mismatch");
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), weight.cols(), "bias width must match weight");
    let (m, k, n) = (input.rows(), input.cols(), weight.cols());
    out.resize(m, n);
    gemm(
        input.as_slice(),
        m,
        k,
        weight.as_slice(),
        n,
        out.as_mut_slice(),
        Epilogue::Bias(bias.as_slice()),
        Tiles::best(pool),
    );
}

/// Fused residual linear layer: `out += input × weight + bias`.
///
/// Bit-exact with `out.add(&input.matmul(weight).add_row_broadcast(bias))`
/// (IEEE-754 addition is commutative in value, and the bias is folded into
/// the product term before the residual add).
///
/// # Panics
///
/// Panics on shape mismatch, including `out` not being
/// `input.rows() × weight.cols()`.
pub fn matmul_bias_add_into(input: &Tensor, weight: &Tensor, bias: &Tensor, out: &mut Tensor) {
    matmul_bias_add_into_with(input, weight, bias, out, None);
}

/// [`matmul_bias_add_into`] with an optional [`ThreadPool`]; bit-exact with
/// the single-threaded call at any thread count.
pub fn matmul_bias_add_into_with(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    out: &mut Tensor,
    pool: Option<&ThreadPool>,
) {
    assert_eq!(input.cols(), weight.rows(), "matmul_bias shape mismatch");
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), weight.cols(), "bias width must match weight");
    assert_eq!(
        out.shape(),
        (input.rows(), weight.cols()),
        "residual output shape mismatch"
    );
    gemm(
        input.as_slice(),
        input.rows(),
        input.cols(),
        weight.as_slice(),
        weight.cols(),
        out.as_mut_slice(),
        Epilogue::BiasAdd(bias.as_slice()),
        Tiles::best(pool),
    );
}

/// In-place rectified linear unit (`v ← max(v, 0)`).
pub fn relu_in_place(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// In-place hyperbolic tangent (same [`crate::math::fast_tanh`] as
/// [`Tensor::tanh`]).
pub fn tanh_in_place(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = crate::math::fast_tanh(*v);
    }
}

/// In-place exponential (same [`crate::math::fast_exp`] as
/// [`Tensor::exp`]).
pub fn exp_in_place(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = crate::math::fast_exp(*v);
    }
}

/// In-place logistic sigmoid (same [`crate::math::fast_sigmoid`] as
/// [`Tensor::sigmoid`]).
pub fn sigmoid_in_place(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = crate::math::fast_sigmoid(*v);
    }
}

/// Applies `kind` elementwise in place.
pub fn activate_in_place(kind: ActivationKind, t: &mut Tensor) {
    match kind {
        ActivationKind::Relu => relu_in_place(t),
        ActivationKind::Tanh => tanh_in_place(t),
        ActivationKind::Sigmoid => sigmoid_in_place(t),
    }
}

/// Per-row squared L2 norms: `out[i][0] = Σ_j t[i][j]²`, written into `out`
/// (resized to `rows × 1`).
///
/// This is the batched accessor behind the flow's fused log-density path
/// (`FlowSnapshot::log_prob_into` in `passflow-core`): the squared norm of
/// each latent row combines with the per-row log-determinants accumulated by
/// [`affine_coupling_forward_into`] into a Gaussian log-likelihood without
/// materializing per-row slices. The accumulation runs left-to-right in
/// column order, bit-exact with the reference
/// `row.iter().map(|v| v * v).sum::<f32>()` fold.
pub fn row_squared_norms_into(t: &Tensor, out: &mut Tensor) {
    let cols = t.cols();
    out.resize(t.rows(), 1);
    for (dst, row) in out
        .as_mut_slice()
        .iter_mut()
        .zip(t.as_slice().chunks_exact(cols))
    {
        let mut acc = 0.0f32;
        for &v in row {
            acc += v * v;
        }
        *dst = acc;
    }
}

/// Row-broadcast product `out = src ⊙ scale` where `scale` is `1 × cols`,
/// written into `out` (resized as needed).
///
/// # Panics
///
/// Panics if `scale` is not a `1 × src.cols()` row vector.
pub fn mul_row_broadcast_into(src: &Tensor, scale: &Tensor, out: &mut Tensor) {
    assert_eq!(scale.rows(), 1, "scale must be a row vector");
    assert_eq!(scale.cols(), src.cols(), "scale width must match tensor");
    out.resize(src.rows(), src.cols());
    let cols = src.cols();
    let s = scale.as_slice();
    for (out_row, src_row) in out
        .as_mut_slice()
        .chunks_exact_mut(cols)
        .zip(src.as_slice().chunks_exact(cols))
    {
        for c in 0..cols {
            out_row[c] = src_row[c] * s[c];
        }
    }
}

/// Fused affine-coupling forward combine (Equation 13):
///
/// `z = b ⊙ x + (1 − b) ⊙ (x ⊙ exp(s) + t)`, with the per-row masked scale
/// sums `Σ_j (1 − b)_j · s_j` **added** to `log_det_acc` (which accumulates
/// across coupling layers).
///
/// Bit-exact with the reference chain
/// `x.mul(&s.exp()).add(&t).mul_row_broadcast(&inv_mask)` +
/// `masked_x.add(..)` and `s.mul_row_broadcast(&inv_mask).sum_rows()`
/// (row sums run left-to-right).
///
/// # Panics
///
/// Panics if shapes disagree (`x`, `s`, `t` equal shapes; masks `1 × cols`;
/// `log_det_acc` is `rows × 1`).
#[allow(clippy::many_single_char_names)]
pub fn affine_coupling_forward_into(
    x: &Tensor,
    s: &Tensor,
    t: &Tensor,
    mask: &Tensor,
    inv_mask: &Tensor,
    z_out: &mut Tensor,
    log_det_acc: &mut Tensor,
) {
    assert_eq!(x.shape(), s.shape(), "coupling forward shape mismatch");
    assert_eq!(x.shape(), t.shape(), "coupling forward shape mismatch");
    assert_eq!(mask.cols(), x.cols(), "mask width must match input");
    assert_eq!(inv_mask.cols(), x.cols(), "mask width must match input");
    assert_eq!(
        log_det_acc.shape(),
        (x.rows(), 1),
        "log-det accumulator must be rows × 1"
    );
    let cols = x.cols();
    z_out.resize(x.rows(), cols);
    let m = mask.as_slice();
    let im = inv_mask.as_slice();
    let ld = log_det_acc.as_mut_slice();
    for (i, ((z_row, x_row), (s_row, t_row))) in z_out
        .as_mut_slice()
        .chunks_exact_mut(cols)
        .zip(x.as_slice().chunks_exact(cols))
        .zip(
            s.as_slice()
                .chunks_exact(cols)
                .zip(t.as_slice().chunks_exact(cols)),
        )
        .enumerate()
    {
        let mut row_sum = 0.0f32;
        for c in 0..cols {
            let transformed = ((x_row[c] * crate::math::fast_exp(s_row[c])) + t_row[c]) * im[c];
            z_row[c] = x_row[c] * m[c] + transformed;
            row_sum += s_row[c] * im[c];
        }
        ld[i] += row_sum;
    }
}

/// Fused affine-coupling inverse combine:
///
/// `x = b ⊙ z + (1 − b) ⊙ ((z − t) ⊙ exp(−s))`.
///
/// Bit-exact with the reference chain
/// `z.sub(&t).mul(&s.neg().exp()).mul_row_broadcast(&inv_mask)` +
/// `masked_z.add(..)`.
///
/// # Panics
///
/// Panics if shapes disagree (`z`, `s`, `t` equal shapes; masks `1 × cols`).
#[allow(clippy::many_single_char_names)]
pub fn affine_coupling_inverse_into(
    z: &Tensor,
    s: &Tensor,
    t: &Tensor,
    mask: &Tensor,
    inv_mask: &Tensor,
    x_out: &mut Tensor,
) {
    assert_eq!(z.shape(), s.shape(), "coupling inverse shape mismatch");
    assert_eq!(z.shape(), t.shape(), "coupling inverse shape mismatch");
    assert_eq!(mask.cols(), z.cols(), "mask width must match input");
    assert_eq!(inv_mask.cols(), z.cols(), "mask width must match input");
    let cols = z.cols();
    x_out.resize(z.rows(), cols);
    let m = mask.as_slice();
    let im = inv_mask.as_slice();
    for (x_row, (z_row, (s_row, t_row))) in x_out.as_mut_slice().chunks_exact_mut(cols).zip(
        z.as_slice().chunks_exact(cols).zip(
            s.as_slice()
                .chunks_exact(cols)
                .zip(t.as_slice().chunks_exact(cols)),
        ),
    ) {
        for c in 0..cols {
            let restored = ((z_row[c] - t_row[c]) * crate::math::fast_exp(-s_row[c])) * im[c];
            x_row[c] = z_row[c] * m[c] + restored;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    /// The unblocked scalar triple loop with the same per-element FMA
    /// accumulation semantics, kept as the oracle for the blocked kernel.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let a_val = a.get(i, p);
                for j in 0..n {
                    let v = a_val.mul_add(b.get(p, j), out.get(i, j));
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_bit_exact_with_naive_loop() {
        let mut r = rng();
        // Ragged shapes exercise every tile width and the row tails.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (9, 10, 10),
            (17, 23, 37),
            (64, 48, 10),
        ] {
            let a = Tensor::randn(m, k, &mut r);
            let b = Tensor::randn(k, n, &mut r);
            let mut fast = Tensor::zeros(0, 0);
            matmul_into(&a, &b, &mut fast);
            let reference = naive_matmul(&a, &b);
            assert_eq!(fast.as_slice(), reference.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_tile_matches_scalar_tile_bit_for_bit() {
        // Every tier the host supports, serial and on a pool, against the
        // scalar tiles. n = 1..=70 puts every masked-tail width after 0, 1
        // and 2 full tiles, with and without a 16-wide tile after the 32-wide
        // ones (n mod 32 ≥ 16); m = 1/3/4/5/67 mixes 4-row blocks and
        // single-row tails; k = 10 and 64 are the flow's widths. 67×64×n
        // crosses the pool's parallel cut-off for n ≥ 31. Each call gets
        // slices cut to exactly m·k, k·n, n and m·n; the output is cut from a
        // buffer with a guard tail, so a store past its end shows.
        const GUARD: f32 = 1234.5;
        let mut r = rng();
        let pool = ThreadPool::new(2);
        for k in [1, 10, 64] {
            for m in [1, 3, 4, 5, 67] {
                for n in 1..=70 {
                    let a = Tensor::randn(m, k, &mut r);
                    let b = Tensor::randn(k, n, &mut r);
                    let bias = Tensor::randn(1, n, &mut r);
                    let base = Tensor::randn(m, n, &mut r);
                    let epilogues = [
                        ("store", Epilogue::Store),
                        ("bias", Epilogue::Bias(bias.as_slice())),
                        ("bias-add", Epilogue::BiasAdd(bias.as_slice())),
                    ];
                    for (name, epi) in epilogues {
                        let run = |tiles: Tiles<'_>| {
                            let mut buf = base.as_slice().to_vec();
                            buf.extend([GUARD; 16]);
                            let (out, guard) = buf.split_at_mut(m * n);
                            gemm(a.as_slice(), m, k, b.as_slice(), n, out, epi, tiles);
                            assert!(guard.iter().all(|&g| g == GUARD), "{m}x{k}x{n} {name}");
                            buf.truncate(m * n);
                            buf
                        };
                        let oracle = run(Tiles::SCALAR);
                        for tier in Tier::supported() {
                            for pool in [None, Some(&pool)] {
                                let got = run(Tiles { tier, pool });
                                let threads = pool.map_or(1, ThreadPool::threads);
                                assert!(
                                    got.iter()
                                        .zip(&oracle)
                                        .all(|(g, o)| g.to_bits() == o.to_bits()),
                                    "{m}x{k}x{n} {name} {tier:?} on {threads} threads"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_gemm_is_bit_exact_at_every_thread_count() {
        let mut r = rng();
        // Shapes chosen to cross the parallel cut-off (the big ones) and sit
        // under it (the small ones, which must still answer correctly
        // through the pooled entry point). 256×256×256 is the square shape
        // CI checks in an optimised build.
        for (m, k, n) in [(128, 64, 48), (37, 5, 9), (256, 33, 17), (256, 256, 256)] {
            let a = Tensor::randn(m, k, &mut r);
            let b = Tensor::randn(k, n, &mut r);
            let mut serial = Tensor::zeros(0, 0);
            matmul_into(&a, &b, &mut serial);
            for threads in [2, 3, 4, 8] {
                let pool = ThreadPool::new(threads);
                let mut threaded = Tensor::zeros(0, 0);
                matmul_into_with(&a, &b, &mut threaded, Some(&pool));
                assert_eq!(
                    threaded.as_slice(),
                    serial.as_slice(),
                    "{m}x{k}x{n} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn transposed_products_are_bit_exact_on_every_tile_and_thread_count() {
        let mut r = rng();
        let pool = ThreadPool::new(2);
        let runs = [
            ("scalar tile", Tiles::SCALAR),
            ("dispatch", Tiles::best(None)),
            ("2-thread pool", Tiles::best(Some(&pool))),
        ];
        // Output columns 61 = 3×16 + 8 + 4 + 1 and 10 = 8 + 1 + 1 walk
        // every column tile; rows 67 = 16 four-row blocks + a 3-row tail;
        // k = 10 and 64 are the flow's widths. 67×64×61 crosses the pool's
        // parallel cut-off. Outputs narrower than 16 columns with more rows
        // (64×64×10, 67×64×8, 67×10×1) take the flipped orientation.
        let mut pack = TransposePack::default();
        let mut got = Tensor::default();
        let mut reference = Tensor::default();
        for (m, k, n) in [
            (67, 64, 61),
            (67, 10, 64),
            (64, 64, 10),
            (67, 64, 8),
            (67, 10, 1),
            (3, 10, 16),
            (4, 64, 4),
            (1, 10, 1),
            (10, 67, 64),
        ] {
            let a = Tensor::randn(m, k, &mut r);
            let b_t = Tensor::randn(n, k, &mut r);
            matmul_into(&a, &b_t.transpose(), &mut reference);
            for (name, tiles) in runs {
                transposed_product(Transposed::B, &a, &b_t, &mut pack, &mut got, tiles);
                assert_eq!(
                    got.as_slice(),
                    reference.as_slice(),
                    "NT {m}x{k}x{n} {name}"
                );
            }

            let a_t = Tensor::randn(k, m, &mut r);
            let b = Tensor::randn(k, n, &mut r);
            matmul_into(&a_t.transpose(), &b, &mut reference);
            for (name, tiles) in runs {
                transposed_product(Transposed::A, &a_t, &b, &mut pack, &mut got, tiles);
                assert_eq!(
                    got.as_slice(),
                    reference.as_slice(),
                    "TN {m}x{k}x{n} {name}"
                );
            }
        }
        matmul_nt_into(
            &Tensor::ones(2, 3),
            &Tensor::ones(5, 3),
            &mut pack,
            &mut got,
        );
        assert_eq!(got, Tensor::full(2, 5, 3.0));
        matmul_tn_into(
            &Tensor::ones(3, 2),
            &Tensor::ones(3, 5),
            &mut pack,
            &mut got,
        );
        assert_eq!(got, Tensor::full(2, 5, 3.0));
    }

    #[test]
    fn threaded_epilogues_match_serial() {
        let mut r = rng();
        let pool = ThreadPool::new(4);
        let x = Tensor::randn(192, 40, &mut r);
        let w = Tensor::randn(40, 56, &mut r);
        let b = Tensor::randn(1, 56, &mut r);
        let base = Tensor::randn(192, 56, &mut r);

        let mut serial = Tensor::zeros(0, 0);
        matmul_bias_into(&x, &w, &b, &mut serial);
        let mut threaded = Tensor::zeros(0, 0);
        matmul_bias_into_with(&x, &w, &b, &mut threaded, Some(&pool));
        assert_eq!(threaded.as_slice(), serial.as_slice(), "bias epilogue");

        let mut serial = base.clone();
        matmul_bias_add_into(&x, &w, &b, &mut serial);
        let mut threaded = base.clone();
        matmul_bias_add_into_with(&x, &w, &b, &mut threaded, Some(&pool));
        assert_eq!(threaded.as_slice(), serial.as_slice(), "bias-add epilogue");
    }

    #[test]
    fn matmul_bias_matches_unfused_chain() {
        let mut r = rng();
        let x = Tensor::randn(13, 21, &mut r);
        let w = Tensor::randn(21, 18, &mut r);
        let b = Tensor::randn(1, 18, &mut r);
        let mut fast = Tensor::zeros(0, 0);
        matmul_bias_into(&x, &w, &b, &mut fast);
        let reference = x.matmul(&w).add_row_broadcast(&b);
        assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn matmul_bias_add_matches_residual_chain() {
        let mut r = rng();
        let x = Tensor::randn(7, 12, &mut r);
        let w = Tensor::randn(12, 9, &mut r);
        let b = Tensor::randn(1, 9, &mut r);
        let base = Tensor::randn(7, 9, &mut r);
        let mut fast = base.clone();
        matmul_bias_add_into(&x, &w, &b, &mut fast);
        let reference = base.add(&x.matmul(&w).add_row_broadcast(&b));
        assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn in_place_unary_ops_match_allocating_ops() {
        let mut r = rng();
        let x = Tensor::randn(5, 11, &mut r);
        let mut a = x.clone();
        relu_in_place(&mut a);
        assert_eq!(a.as_slice(), x.relu().as_slice());
        let mut b = x.clone();
        tanh_in_place(&mut b);
        assert_eq!(b.as_slice(), x.tanh().as_slice());
        let mut c = x.clone();
        exp_in_place(&mut c);
        assert_eq!(c.as_slice(), x.exp().as_slice());
        let mut d = x.clone();
        sigmoid_in_place(&mut d);
        assert_eq!(d.as_slice(), x.sigmoid().as_slice());
    }

    #[test]
    fn mul_row_broadcast_into_matches_reference() {
        let mut r = rng();
        let x = Tensor::randn(6, 8, &mut r);
        let s = Tensor::randn(1, 8, &mut r);
        let mut out = Tensor::zeros(0, 0);
        mul_row_broadcast_into(&x, &s, &mut out);
        assert_eq!(out.as_slice(), x.mul_row_broadcast(&s).as_slice());
    }

    #[test]
    fn fused_coupling_combines_match_reference_chains() {
        let mut r = rng();
        let rows = 9;
        let dim = 10;
        let x = Tensor::randn(rows, dim, &mut r);
        let s = Tensor::randn(rows, dim, &mut r).scale(0.3);
        let t = Tensor::randn(rows, dim, &mut r);
        let mask_vals: Vec<f32> = (0..dim).map(|j| (j % 2) as f32).collect();
        let mask = Tensor::row(&mask_vals);
        let inv_mask = mask.neg().add_scalar(1.0);

        // Forward.
        let masked_x = x.mul_row_broadcast(&mask);
        let transformed = x.mul(&s.exp()).add(&t).mul_row_broadcast(&inv_mask);
        let z_ref = masked_x.add(&transformed);
        let ld_ref = s.mul_row_broadcast(&inv_mask).sum_rows();
        let mut z_fast = Tensor::zeros(0, 0);
        let mut ld_fast = Tensor::zeros(rows, 1);
        affine_coupling_forward_into(&x, &s, &t, &mask, &inv_mask, &mut z_fast, &mut ld_fast);
        assert_eq!(z_fast.as_slice(), z_ref.as_slice());
        assert_eq!(ld_fast.as_slice(), ld_ref.as_slice());

        // Inverse.
        let masked_z = x.mul_row_broadcast(&mask);
        let restored = x.sub(&t).mul(&s.neg().exp()).mul_row_broadcast(&inv_mask);
        let x_ref = masked_z.add(&restored);
        let mut x_fast = Tensor::zeros(0, 0);
        affine_coupling_inverse_into(&x, &s, &t, &mask, &inv_mask, &mut x_fast);
        assert_eq!(x_fast.as_slice(), x_ref.as_slice());
    }
}
