//! Affine coupling layers (Section III-A).
//!
//! Each coupling layer partitions the input `x` with a binary mask `b` and
//! transforms the unmasked part conditioned on the masked part
//! (Equation 13):
//!
//! ```text
//! z = b ⊙ x + (1 − b) ⊙ (x ⊙ exp(s(b ⊙ x)) + t(b ⊙ x))
//! ```
//!
//! The Jacobian of this map is triangular, so its log-determinant is simply
//! `Σ_j (1 − b)_j · s(b ⊙ x)_j` (Equation 12), and the inverse is available
//! in closed form, which is what makes exact likelihood training and fast
//! sampling possible.

use rand::Rng;

use passflow_nn::{Module, Parameter, ResNet, Tape, Tensor, Var};

use crate::fastpath::CouplingSnapshot;

/// A single affine coupling layer with residual-network `s` (scale) and `t`
/// (translation) functions.
#[derive(Clone, Debug)]
pub struct CouplingLayer {
    /// Binary mask `b` as a `1 × dim` row (1 = pass through, 0 = transform).
    mask: Tensor,
    /// Complement mask `1 − b`.
    inv_mask: Tensor,
    /// Scale network; output squashed by `tanh` for numerical stability of
    /// `exp(s(·))`.
    s_net: ResNet,
    /// Translation network (unbounded output).
    t_net: ResNet,
    dim: usize,
}

impl CouplingLayer {
    /// Creates a coupling layer for `dim`-dimensional inputs.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from `dim` or contains values other
    /// than 0 and 1.
    pub fn new<R: Rng + ?Sized>(
        dim: usize,
        hidden: usize,
        residual_blocks: usize,
        mask: &[f32],
        rng: &mut R,
    ) -> Self {
        assert_eq!(mask.len(), dim, "mask length must equal input dimension");
        assert!(
            mask.iter().all(|&v| v == 0.0 || v == 1.0),
            "mask must be binary"
        );
        let mask_t = Tensor::row(mask);
        let inv_mask_t = mask_t.neg().add_scalar(1.0);
        CouplingLayer {
            mask: mask_t,
            inv_mask: inv_mask_t,
            s_net: ResNet::new(dim, hidden, dim, residual_blocks, true, rng),
            t_net: ResNet::new(dim, hidden, dim, residual_blocks, false, rng),
            dim,
        }
    }

    /// Input/output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The binary mask `b`.
    pub fn mask(&self) -> &Tensor {
        &self.mask
    }

    /// Trainable parameters of both coupling networks.
    pub fn parameters(&self) -> Vec<Parameter> {
        let mut params = self.s_net.parameters();
        params.extend(self.t_net.parameters());
        params
    }

    /// Exports an owned, immutable [`CouplingSnapshot`] of the layer's masks
    /// and network weights for the inference fast path.
    pub fn snapshot(&self) -> CouplingSnapshot {
        CouplingSnapshot::new(
            self.mask.clone(),
            self.s_net.snapshot(),
            self.t_net.snapshot(),
        )
    }

    fn tiled(&self, rows: usize, mask: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(rows, self.dim);
        for i in 0..rows {
            out.as_mut_slice()[i * self.dim..(i + 1) * self.dim].copy_from_slice(mask.as_slice());
        }
        out
    }

    /// Forward transform on the tape: returns `(z, log_det_elements)` where
    /// `log_det_elements` is a `batch × dim` tensor whose row sums are the
    /// per-sample log-determinants.
    ///
    /// This is the layer's one reference forward: training differentiates
    /// it, and [`CouplingSnapshot`] is pinned to it bit for bit.
    pub fn forward_var(&self, tape: &Tape, x: &Var) -> (Var, Var) {
        let (rows, cols) = x.shape();
        assert_eq!(cols, self.dim, "input width must equal coupling dimension");
        let b = self.tiled(rows, &self.mask);
        let inv_b = self.tiled(rows, &self.inv_mask);

        let masked_x = x.mul_const(&b);
        let s = self.s_net.forward(tape, &masked_x);
        let t = self.t_net.forward(tape, &masked_x);

        let exp_s = s.exp();
        let transformed = x.mul(&exp_s).add(&t).mul_const(&inv_b);
        let z = masked_x.add(&transformed);
        let log_det_elements = s.mul_const(&inv_b);
        (z, log_det_elements)
    }

    /// [`forward_var`](Self::forward_var) on a throwaway tape: returns
    /// `(z, log_det)` where `log_det` is a `batch × 1` column of per-sample
    /// log-determinants.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Tensor) {
        let tape = Tape::new();
        let (z, log_det_elements) = self.forward_var(&tape, &tape.constant(x.clone()));
        (z.value(), log_det_elements.value().sum_rows())
    }

    /// Inverse transform: recovers `x` from `z`.
    ///
    /// Because the masked positions pass through unchanged, `b ⊙ z = b ⊙ x`,
    /// so the same conditioning input is available and the affine transform
    /// can be undone exactly:
    /// `x = b ⊙ z + (1 − b) ⊙ (z − t(b ⊙ z)) ⊙ exp(−s(b ⊙ z))`.
    ///
    /// The `s`/`t` networks run their taped forward on a throwaway tape;
    /// the combine is the tensor-op chain that
    /// [`affine_coupling_inverse_into`](passflow_nn::kernels::affine_coupling_inverse_into)
    /// fuses.
    pub fn inverse(&self, z: &Tensor) -> Tensor {
        assert_eq!(
            z.cols(),
            self.dim,
            "input width must equal coupling dimension"
        );
        let tape = Tape::new();
        let masked_z = tape.constant(z.mul_row_broadcast(&self.mask));
        let s = self.s_net.forward(&tape, &masked_z).value();
        let t = self.t_net.forward(&tape, &masked_z).value();

        let restored = z
            .sub(&t)
            .mul(&s.neg().exp())
            .mul_row_broadcast(&self.inv_mask);
        masked_z.value().add(&restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskStrategy;
    use passflow_nn::rng as nnrng;

    fn layer(dim: usize, seed: u64) -> CouplingLayer {
        let mut rng = nnrng::seeded(seed);
        let mask = MaskStrategy::CharRun(1).mask_for_layer(0, dim);
        CouplingLayer::new(dim, 16, 1, &mask, &mut rng)
    }

    #[test]
    fn masked_positions_pass_through_unchanged() {
        let l = layer(6, 1);
        let mut rng = nnrng::seeded(2);
        let x = Tensor::randn(4, 6, &mut rng);
        let (z, _) = l.forward(&x);
        for i in 0..4 {
            for j in 0..6 {
                if l.mask().get(0, j) == 1.0 {
                    assert!((z.get(i, j) - x.get(i, j)).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn inverse_recovers_input() {
        let l = layer(10, 3);
        let mut rng = nnrng::seeded(4);
        let x = Tensor::randn(8, 10, &mut rng);
        let (z, _) = l.forward(&x);
        let recovered = l.inverse(&z);
        assert!(
            recovered.approx_eq(&x, 1e-4),
            "max err {}",
            recovered.sub(&x).abs().max()
        );
    }

    #[test]
    fn forward_then_inverse_round_trips_from_latent_side() {
        let l = layer(10, 5);
        let mut rng = nnrng::seeded(6);
        let z = Tensor::randn(8, 10, &mut rng);
        let x = l.inverse(&z);
        let (z2, _) = l.forward(&x);
        assert!(z2.approx_eq(&z, 1e-4));
    }

    #[test]
    fn log_det_matches_masked_scale_sum() {
        let l = layer(6, 7);
        let mut rng = nnrng::seeded(8);
        let x = Tensor::randn(3, 6, &mut rng);
        let (_, log_det) = l.forward(&x);
        assert_eq!(log_det.shape(), (3, 1));
        // The log-det must be finite and bounded by dim (|s| <= 1 from tanh).
        for i in 0..3 {
            assert!(log_det.get(i, 0).abs() <= 6.0 + 1e-5);
            assert!(log_det.get(i, 0).is_finite());
        }
    }

    #[test]
    fn taped_forward_is_bit_exact_with_snapshot() {
        let mut rng = nnrng::seeded(9);
        let masks = [
            MaskStrategy::CharRun(1),
            MaskStrategy::CharRun(2),
            MaskStrategy::Horizontal,
        ];
        let shapes = [(10, 16, 1024), (18, 61, 67), (10, 256, 5), (18, 64, 1)];
        for (i, &(dim, hidden, rows)) in shapes.iter().enumerate() {
            for (m, strategy) in masks.iter().enumerate() {
                let mask = strategy.mask_for_layer(i + m, dim);
                let l = CouplingLayer::new(dim, hidden, 1, &mask, &mut rng);
                let x = Tensor::randn(rows, dim, &mut rng);

                let tape = Tape::new();
                let (z_v, log_det_elems) = l.forward_var(&tape, &tape.constant(x.clone()));

                let mut ws = crate::FlowWorkspace::new();
                let mut z = Tensor::default();
                let mut log_det = Tensor::zeros(rows, 1);
                l.snapshot().forward_into(&x, &mut ws, &mut z, &mut log_det);

                let case = format!("dim {dim} hidden {hidden} rows {rows} {strategy}");
                assert_eq!(z_v.value().as_slice(), z.as_slice(), "{case}");
                assert_eq!(
                    log_det_elems.value().sum_rows().as_slice(),
                    log_det.as_slice(),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn gradients_flow_through_coupling() {
        let l = layer(6, 11);
        let mut rng = nnrng::seeded(12);
        let x = Tensor::randn(4, 6, &mut rng);
        let tape = Tape::new();
        let xv = tape.constant(x);
        let (z, log_det) = l.forward_var(&tape, &xv);
        for p in l.parameters() {
            p.zero_grad();
        }
        // A loss touching both outputs.
        z.square().sum().add(&log_det.sum().neg()).backward();
        let total: f32 = l.parameters().iter().map(|p| p.grad().abs().sum()).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn near_identity_at_initialization() {
        // The scale network's final layer is near-zero initialized, so a
        // fresh coupling layer should approximately preserve scale: |z|
        // should not explode relative to |x|.
        let l = layer(10, 13);
        let mut rng = nnrng::seeded(14);
        let x = Tensor::randn(16, 10, &mut rng);
        let (z, _) = l.forward(&x);
        let ratio = z.norm() / x.norm();
        assert!(ratio < 3.0, "output norm exploded: ratio {ratio}");
    }

    #[test]
    fn parameters_cover_both_networks() {
        let l = layer(6, 15);
        // input + output linear layers (2 params each) + 1 res block (4 params)
        // per network, times two networks.
        assert_eq!(l.parameters().len(), 2 * (2 + 2 + 4));
        assert_eq!(l.dim(), 6);
    }

    #[test]
    #[should_panic(expected = "mask must be binary")]
    fn non_binary_mask_rejected() {
        let mut rng = nnrng::seeded(1);
        let _ = CouplingLayer::new(4, 8, 1, &[0.5, 1.0, 0.0, 1.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn wrong_mask_length_rejected() {
        let mut rng = nnrng::seeded(1);
        let _ = CouplingLayer::new(4, 8, 1, &[1.0, 0.0], &mut rng);
    }
}
