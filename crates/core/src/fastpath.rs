//! The flow's inference fast path: weight snapshots and scratch workspaces.
//!
//! Every guessing experiment is bounded by the same steady-state loop —
//! sample latents, invert the flow, decode — so this module restructures
//! that loop's per-batch cost into pure compute: [`FlowSnapshot`] holds an
//! owned, immutable copy of every coupling layer's weights (exported once
//! per chunk/epoch instead of cloning each matrix through a lock per layer
//! call), and [`FlowWorkspace`] supplies the scratch tensors the fused
//! kernels write into, so after warm-up no buffer is allocated no matter
//! how many batches are processed.
//!
//! All fast-path transforms are **bit-exact** (0 ULP) with the reference
//! implementations: the taped training forward
//! ([`CouplingLayer::forward_var`]), the inverse on [`CouplingLayer`] and
//! `PassFlow::*_reference`. The conformance suite in `tests/fastpath.rs`,
//! the coupling unit tests and the engine's shard-invariance tests are the
//! oracle.
//!
//! The snapshots are generic over the linear layers' weight format
//! ([`LinearWeights`]): f32 by default, or the opt-in int8 tier
//! ([`QuantizedFlowSnapshot`]), which scores through the same coupling and
//! flow walks. Only the f32 format can invert.

use passflow_nn::kernels::{
    affine_coupling_forward_into, affine_coupling_inverse_into, mul_row_broadcast_into,
    row_squared_norms_into,
};
use passflow_nn::{
    LinearSnapshot, LinearWeights, NetWorkspace, Parameter, QuantizedLinearSnapshot,
    QuantizedResNetSnapshot, ResNetSnapshot, Tensor, ThreadPool,
};
use std::sync::Arc;

/// ln(2π), matching the constant used by the training loss and the prior.
const LN_2PI: f32 = 1.837_877_1;

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// Scratch buffers threaded through `ResNet` evaluation →
/// [`CouplingSnapshot`] → [`FlowSnapshot`] → the attack engine's chunk loop.
///
/// Reusing one workspace across calls is what makes steady-state generation
/// allocation-free; results are byte-identical whether a workspace is fresh
/// or reused (asserted by the fast-path conformance tests).
#[derive(Clone, Debug, Default)]
pub struct FlowWorkspace {
    /// Hidden-activation pool for the `s`/`t` ResNets.
    net: NetWorkspace,
    /// Masked copy of the current layer input (`b ⊙ x`).
    masked: Tensor,
    /// Scale-network output.
    s: Tensor,
    /// Translation-network output.
    t: Tensor,
    /// Ping/pong buffers for chaining coupling layers.
    ping: Tensor,
    pong: Tensor,
    /// Latent output buffer for the fused log-density path.
    z_buf: Tensor,
    /// Log-determinant accumulator for the fused log-density path.
    log_det_buf: Tensor,
}

impl FlowWorkspace {
    /// Creates an empty (cold) workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or removes, with `None`) the GEMM thread pool used by every
    /// forward/inverse/log-prob pass through this workspace.
    pub fn set_thread_pool(&mut self, pool: Option<Arc<ThreadPool>>) {
        self.net.set_thread_pool(pool);
    }

    /// The installed GEMM thread pool, if any.
    pub fn thread_pool(&self) -> Option<&ThreadPool> {
        self.net.thread_pool()
    }
}

// ---------------------------------------------------------------------------
// Coupling snapshot
// ---------------------------------------------------------------------------

/// An owned, immutable copy of one coupling layer's masks and network
/// weights, evaluated through the fused kernels.
#[derive(Clone, Debug)]
pub struct CouplingSnapshot<L = LinearSnapshot> {
    mask: Tensor,
    inv_mask: Tensor,
    s_net: ResNetSnapshot<L>,
    t_net: ResNetSnapshot<L>,
    dim: usize,
}

/// One coupling layer with int8-quantized `s`/`t` networks. It has only the
/// scoring direction (forward + log-determinant): the quantized tier exists
/// for scoring-only workloads (serve `/v1/score`, strength tables), and
/// inverting through approximate weights would let quantization error
/// compound across the guess-generation chain.
pub type QuantizedCouplingSnapshot = CouplingSnapshot<QuantizedLinearSnapshot>;

impl<L> CouplingSnapshot<L> {
    /// Assembles a coupling snapshot from its mask and network snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is not a binary `1 × dim` row vector.
    pub fn new(mask: Tensor, s_net: ResNetSnapshot<L>, t_net: ResNetSnapshot<L>) -> Self {
        assert_eq!(mask.rows(), 1, "mask must be a row vector");
        assert!(
            mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0),
            "mask must be binary"
        );
        let dim = mask.cols();
        let inv_mask = mask.neg().add_scalar(1.0);
        CouplingSnapshot {
            mask,
            inv_mask,
            s_net,
            t_net,
            dim,
        }
    }

    /// Input/output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl<L: LinearWeights> CouplingSnapshot<L> {
    /// Evaluates the `s`/`t` networks on the masked input into `ws.s`/`ws.t`.
    fn nets_into(&self, input: &Tensor, ws: &mut FlowWorkspace) {
        assert_eq!(
            input.cols(),
            self.dim,
            "input width must equal coupling dim"
        );
        mul_row_broadcast_into(input, &self.mask, &mut ws.masked);
        self.s_net.forward_into(&ws.masked, &mut ws.net, &mut ws.s);
        self.t_net.forward_into(&ws.masked, &mut ws.net, &mut ws.t);
    }

    /// Fast-path forward transform: writes `z` into `z_out` and **adds**
    /// each row's log-determinant to `log_det_acc` (a `rows × 1` tensor),
    /// matching how the flow accumulates log-determinants across layers.
    ///
    /// Bit-exact with the taped
    /// [`CouplingLayer::forward_var`](crate::CouplingLayer::forward_var) for
    /// f32 weights.
    pub fn forward_into(
        &self,
        x: &Tensor,
        ws: &mut FlowWorkspace,
        z_out: &mut Tensor,
        log_det_acc: &mut Tensor,
    ) {
        self.nets_into(x, ws);
        affine_coupling_forward_into(
            x,
            &ws.s,
            &ws.t,
            &self.mask,
            &self.inv_mask,
            z_out,
            log_det_acc,
        );
    }
}

impl CouplingSnapshot {
    /// Fast-path inverse transform: recovers `x` from `z` into `x_out`.
    ///
    /// Bit-exact with [`CouplingLayer::inverse`](crate::CouplingLayer::inverse).
    pub fn inverse_into(&self, z: &Tensor, ws: &mut FlowWorkspace, x_out: &mut Tensor) {
        self.nets_into(z, ws);
        affine_coupling_inverse_into(z, &ws.s, &ws.t, &self.mask, &self.inv_mask, x_out);
    }

    /// The int8 copy of this layer (see [`QuantizedCouplingSnapshot`]).
    fn quantize(&self) -> QuantizedCouplingSnapshot {
        CouplingSnapshot {
            mask: self.mask.clone(),
            inv_mask: self.inv_mask.clone(),
            s_net: QuantizedResNetSnapshot::from_snapshot(&self.s_net),
            t_net: QuantizedResNetSnapshot::from_snapshot(&self.t_net),
            dim: self.dim,
        }
    }
}

// ---------------------------------------------------------------------------
// Flow snapshot
// ---------------------------------------------------------------------------

/// An owned, immutable snapshot of an entire flow's weights.
///
/// The snapshot records each source [`Parameter`]'s version stamp at export
/// time; [`FlowSnapshot::is_current`] compares stamps so `PassFlow` can
/// cache a snapshot and invalidate it automatically when an optimizer (or
/// `load_weights`) mutates any parameter.
#[derive(Clone, Debug)]
pub struct FlowSnapshot<L = LinearSnapshot> {
    couplings: Vec<CouplingSnapshot<L>>,
    dim: usize,
    params: Vec<Parameter>,
    stamps: Vec<u64>,
}

/// The opt-in int8 tier of a [`FlowSnapshot`]: every coupling network's
/// weights stored as one byte per element plus per-row scales (~4× smaller),
/// scoring through the same coupling walk and fused kernels.
///
/// Scores are **approximate**: per model, the error bound
/// (max |Δ log-prob| vs. the exact `log_prob_reference` oracle) must be
/// measured — `strength::probe_quantization` does exactly that — and
/// reported to callers so they opt in knowingly. Scores are deterministic
/// and thread-count invariant, exactly like the f32 path. There is no
/// inverse.
pub type QuantizedFlowSnapshot = FlowSnapshot<QuantizedLinearSnapshot>;

impl<L> FlowSnapshot<L> {
    /// Assembles a flow snapshot from per-layer coupling snapshots plus the
    /// live parameters they were exported from (used for staleness checks).
    ///
    /// # Panics
    ///
    /// Panics if `couplings` is empty, dimensions disagree, or the stamp
    /// bookkeeping is inconsistent.
    pub fn new(couplings: Vec<CouplingSnapshot<L>>, params: Vec<Parameter>) -> Self {
        assert!(!couplings.is_empty(), "flow has at least one coupling");
        let dim = couplings[0].dim();
        assert!(
            couplings.iter().all(|c| c.dim() == dim),
            "all couplings must share the flow dimension"
        );
        let stamps = params.iter().map(Parameter::version).collect();
        FlowSnapshot {
            couplings,
            dim,
            params,
            stamps,
        }
    }

    /// Dimensionality of the data and latent spaces.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns `true` while no source parameter has been mutated since the
    /// snapshot was exported.
    pub fn is_current(&self) -> bool {
        self.params
            .iter()
            .zip(self.stamps.iter())
            .all(|(p, &stamp)| p.version() == stamp)
    }
}

impl<L: LinearWeights> FlowSnapshot<L> {
    /// Bytes held by the coupling-network weights (for compression
    /// reporting between the f32 and int8 tiers).
    pub fn memory_bytes(&self) -> usize {
        self.couplings
            .iter()
            .map(|c| c.s_net.memory_bytes() + c.t_net.memory_bytes())
            .sum()
    }

    /// Applies the forward flow `z = f_θ(x)` into `z_out`, writing the
    /// per-sample log-determinants into `log_det_out` (`rows × 1`).
    ///
    /// Bit-exact with `PassFlow::forward_reference` for f32 weights.
    pub fn forward_into(
        &self,
        x: &Tensor,
        ws: &mut FlowWorkspace,
        z_out: &mut Tensor,
        log_det_out: &mut Tensor,
    ) {
        assert_eq!(x.cols(), self.dim, "input width must equal flow dimension");
        log_det_out.resize(x.rows(), 1);
        log_det_out.as_mut_slice().fill(0.0);
        chain(
            self.couplings.iter(),
            x,
            ws,
            z_out,
            |coupling, src, ws, dst| {
                coupling.forward_into(src, ws, dst, log_det_out);
            },
        );
    }

    /// Exact log-density of each row of `x` (Equation 5) through the fast
    /// path, written into `log_prob_out` (`rows × 1`):
    /// `log p_θ(x) = −½·(‖f_θ(x)‖² + D·ln 2π) + log |det ∂f_θ/∂x|`.
    ///
    /// The forward transform, the per-row squared norms
    /// ([`row_squared_norms_into`]) and the per-row log-determinants all run
    /// in workspace scratch, so batched scoring (the strength subsystem's
    /// hot loop) allocates nothing after warm-up. Bit-exact with
    /// `PassFlow::log_prob_reference` for f32 weights.
    pub fn log_prob_into(&self, x: &Tensor, ws: &mut FlowWorkspace, log_prob_out: &mut Tensor) {
        let mut z = std::mem::take(&mut ws.z_buf);
        let mut log_det = std::mem::take(&mut ws.log_det_buf);
        self.forward_into(x, ws, &mut z, &mut log_det);
        row_squared_norms_into(&z, log_prob_out);
        let norm = self.dim as f32 * LN_2PI;
        for (lp, ld) in log_prob_out
            .as_mut_slice()
            .iter_mut()
            .zip(log_det.as_slice())
        {
            // Same operation order as the reference prior + add chain:
            // lp = -0.5 * (‖z‖² + D·ln 2π), then lp + log_det.
            *lp = -0.5 * (*lp + norm) + ld;
        }
        ws.z_buf = z;
        ws.log_det_buf = log_det;
    }

    /// Convenience forward allocating its own workspace and outputs.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Tensor) {
        let mut ws = FlowWorkspace::new();
        let mut z = Tensor::zeros(0, 0);
        let mut log_det = Tensor::zeros(0, 0);
        self.forward_into(x, &mut ws, &mut z, &mut log_det);
        (z, log_det)
    }
}

impl FlowSnapshot {
    /// Applies the inverse flow `x = f_θ⁻¹(z)` into `x_out`.
    ///
    /// Bit-exact with `PassFlow::inverse_reference`.
    pub fn inverse_into(&self, z: &Tensor, ws: &mut FlowWorkspace, x_out: &mut Tensor) {
        assert_eq!(z.cols(), self.dim, "input width must equal flow dimension");
        chain(
            self.couplings.iter().rev(),
            z,
            ws,
            x_out,
            |coupling, src, ws, dst| coupling.inverse_into(src, ws, dst),
        );
    }

    /// Convenience inverse allocating its own workspace and output.
    pub fn inverse(&self, z: &Tensor) -> Tensor {
        let mut ws = FlowWorkspace::new();
        let mut out = Tensor::zeros(0, 0);
        self.inverse_into(z, &mut ws, &mut out);
        out
    }

    /// Converts this snapshot to the opt-in int8 tier (see
    /// [`QuantizedFlowSnapshot`]). The conversion is deterministic; the
    /// resulting scores are approximate — measure the error with
    /// `strength::probe_quantization` before serving from it.
    pub fn quantize(&self) -> QuantizedFlowSnapshot {
        FlowSnapshot {
            couplings: self
                .couplings
                .iter()
                .map(CouplingSnapshot::quantize)
                .collect(),
            dim: self.dim,
            params: self.params.clone(),
            stamps: self.stamps.clone(),
        }
    }
}

/// Chains coupling layers (in the iterator's order) through the workspace's
/// ping/pong buffers: the first layer reads `input`, the last writes `out`,
/// and intermediates bounce between two reused scratch tensors.
fn chain<'a, L: 'a>(
    couplings: impl ExactSizeIterator<Item = &'a CouplingSnapshot<L>>,
    input: &Tensor,
    ws: &mut FlowWorkspace,
    out: &mut Tensor,
    mut step_fn: impl FnMut(&CouplingSnapshot<L>, &Tensor, &mut FlowWorkspace, &mut Tensor),
) {
    let n = couplings.len();
    let mut ping = std::mem::take(&mut ws.ping);
    let mut pong = std::mem::take(&mut ws.pong);
    for (step, coupling) in couplings.enumerate() {
        let src: &Tensor = if step == 0 { input } else { &ping };
        if step == n - 1 {
            step_fn(coupling, src, ws, out);
        } else {
            step_fn(coupling, src, ws, &mut pong);
            std::mem::swap(&mut ping, &mut pong);
        }
    }
    ws.ping = ping;
    ws.pong = pong;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use crate::flow::PassFlow;
    use passflow_nn::rng as nnrng;

    fn flow(seed: u64) -> PassFlow {
        let mut rng = nnrng::seeded(seed);
        PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn snapshot_inverse_is_bit_exact_with_reference() {
        let f = flow(31);
        let mut rng = nnrng::seeded(32);
        let z = Tensor::randn(17, f.dim(), &mut rng);
        let reference = f.inverse_reference(&z);
        let snap = f.snapshot();
        assert_eq!(snap.inverse(&z).as_slice(), reference.as_slice());
    }

    #[test]
    fn snapshot_forward_is_bit_exact_with_reference() {
        let f = flow(33);
        let mut rng = nnrng::seeded(34);
        let x = Tensor::randn(9, f.dim(), &mut rng);
        let (z_ref, ld_ref) = f.forward_reference(&x);
        let (z_fast, ld_fast) = f.snapshot().forward(&x);
        assert_eq!(z_fast.as_slice(), z_ref.as_slice());
        assert_eq!(ld_fast.as_slice(), ld_ref.as_slice());
    }

    #[test]
    fn snapshot_detects_weight_mutations() {
        let f = flow(35);
        let snap = f.snapshot();
        assert!(snap.is_current());
        let p = &f.parameters()[0];
        p.set_value(p.value().add_scalar(0.25));
        assert!(!snap.is_current());
    }

    #[test]
    fn workspace_reuse_is_byte_identical_to_fresh() {
        let f = flow(36);
        let snap = f.snapshot();
        let mut rng = nnrng::seeded(37);
        let mut ws = FlowWorkspace::new();
        let mut out = Tensor::zeros(0, 0);
        for trial in 0..5 {
            let z = Tensor::randn(3 + trial * 11, f.dim(), &mut rng);
            snap.inverse_into(&z, &mut ws, &mut out);
            assert_eq!(out.as_slice(), snap.inverse(&z).as_slice());
        }
    }
}
