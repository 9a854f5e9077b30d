//! Immutable weight snapshots for the inference fast path.
//!
//! The reference forward pass of every [`Module`](crate::Module) is its
//! autograd pass, [`Module::forward`](crate::Module::forward), which records
//! each operation on a tape and reads each [`Parameter`](crate::Parameter)
//! through its `Arc<RwLock>` — bookkeeping that is pure overhead once a
//! model is only being *evaluated*. A snapshot exports an owned, immutable
//! copy of a module's weights **once**; its `forward_into` methods then read
//! the weights directly and write activations into caller-provided scratch
//! buffers, so steady-state inference performs no locking and no
//! allocation.
//!
//! All snapshot forward passes are bit-exact (0 ULP) with the taped
//! forward of the module they were exported from; see [`crate::kernels`]
//! for the operation-order argument.

use crate::kernels::{
    activate_in_place, matmul_bias_add_into_with, matmul_bias_into_with, relu_in_place,
    tanh_in_place,
};
use crate::layers::ActivationKind;
use crate::pool::ThreadPool;
use crate::tensor::Tensor;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// A pool of scratch tensors reused across forward passes, plus the
/// (optional) GEMM thread pool every forward pass through this workspace
/// uses.
///
/// Buffers are taken from and returned to the pool around each use; once the
/// pool has warmed up to a model's widest activation, no further allocation
/// occurs regardless of how many batches are processed.
///
/// The thread pool is a pure throughput knob: every kernel dispatched
/// through it is bit-exact (0 ULP) with the single-threaded path at any
/// thread count, so installing or removing a pool never changes results.
#[derive(Clone, Debug, Default)]
pub struct NetWorkspace {
    pool: Vec<Tensor>,
    threads: Option<Arc<ThreadPool>>,
}

impl NetWorkspace {
    /// Creates an empty workspace (single-threaded kernels).
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a scratch tensor from the pool (or a fresh empty one).
    pub fn take(&mut self) -> Tensor {
        self.pool.pop().unwrap_or_else(|| Tensor::zeros(0, 0))
    }

    /// Returns a scratch tensor to the pool for reuse.
    pub fn put(&mut self, t: Tensor) {
        self.pool.push(t);
    }

    /// Installs (or removes, with `None`) the GEMM thread pool used by
    /// forward passes through this workspace.
    pub fn set_thread_pool(&mut self, pool: Option<Arc<ThreadPool>>) {
        self.threads = pool;
    }

    /// The installed GEMM thread pool, if any.
    pub fn thread_pool(&self) -> Option<&ThreadPool> {
        self.threads.as_deref()
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// An owned copy of a [`Linear`](crate::Linear) layer's weights.
#[derive(Clone, Debug)]
pub struct LinearSnapshot {
    weight: Tensor,
    bias: Tensor,
}

impl LinearSnapshot {
    /// Creates a snapshot from owned weight and bias tensors.
    ///
    /// The weight is kept contiguous and row-major (`in × out`), which the
    /// blocked GEMM streams with unit stride.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a `1 × weight.cols()` row vector.
    pub fn new(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weight.cols(), "bias width must match weight");
        LinearSnapshot { weight, bias }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The `in × out` weight matrix.
    pub fn weight_tensor(&self) -> &Tensor {
        &self.weight
    }

    /// The `1 × out` bias row vector.
    pub fn bias_tensor(&self) -> &Tensor {
        &self.bias
    }

    /// Fused `out = input × W + b`, resizing `out` as needed.
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        self.forward_into_with(input, out, None);
    }
}

/// A linear layer's weights in one inference format: f32
/// ([`LinearSnapshot`]) or int8 ([`QuantizedLinearSnapshot`]).
///
/// Both formats run through the one GEMM driver in [`crate::kernels`] and
/// differ only in their inner tiles, so every structure above a linear
/// layer — [`BlockSnapshot`], [`ResNetSnapshot`], and in `passflow-core` the
/// coupling layers, flows and scorers — is written once, generic over this
/// trait.
///
/// [`QuantizedLinearSnapshot`]: crate::QuantizedLinearSnapshot
pub trait LinearWeights {
    /// Bytes held by the weights + bias (for compression reporting between
    /// formats).
    fn memory_bytes(&self) -> usize;

    /// Fused `out = input × W + b`, resizing `out` as needed, with an
    /// optional GEMM thread pool (bit-identical results at any thread
    /// count).
    fn forward_into_with(&self, input: &Tensor, out: &mut Tensor, pool: Option<&ThreadPool>);

    /// Fused residual `out += input × W + b` (`out` must already be
    /// `input.rows() × out_features`), with an optional GEMM thread pool.
    fn forward_add_into_with(&self, input: &Tensor, out: &mut Tensor, pool: Option<&ThreadPool>);
}

impl LinearWeights for LinearSnapshot {
    fn memory_bytes(&self) -> usize {
        (self.weight.as_slice().len() + self.bias.as_slice().len()) * std::mem::size_of::<f32>()
    }

    fn forward_into_with(&self, input: &Tensor, out: &mut Tensor, pool: Option<&ThreadPool>) {
        matmul_bias_into_with(input, &self.weight, &self.bias, out, pool);
    }

    fn forward_add_into_with(&self, input: &Tensor, out: &mut Tensor, pool: Option<&ThreadPool>) {
        matmul_bias_add_into_with(input, &self.weight, &self.bias, out, pool);
    }
}

// ---------------------------------------------------------------------------
// ResNet
// ---------------------------------------------------------------------------

/// One residual block's weights plus its activation kind, in any weight
/// format (f32 by default).
#[derive(Clone, Debug)]
pub struct BlockSnapshot<L = LinearSnapshot> {
    /// First (widening) linear layer.
    pub fc1: L,
    /// Second (projecting) linear layer.
    pub fc2: L,
    /// Nonlinearity between the two.
    pub activation: ActivationKind,
}

/// An owned copy of a [`ResNet`](crate::ResNet)'s weights — the coupling
/// networks' architecture — evaluated entirely in scratch buffers, in any
/// weight format (f32 by default; see
/// [`QuantizedResNetSnapshot`](crate::QuantizedResNetSnapshot)).
#[derive(Clone, Debug)]
pub struct ResNetSnapshot<L = LinearSnapshot> {
    input: L,
    blocks: Vec<BlockSnapshot<L>>,
    output: L,
    output_tanh: bool,
}

impl<L> ResNetSnapshot<L> {
    /// Assembles a snapshot from its layer snapshots.
    pub fn new(input: L, blocks: Vec<BlockSnapshot<L>>, output: L, output_tanh: bool) -> Self {
        ResNetSnapshot {
            input,
            blocks,
            output,
            output_tanh,
        }
    }

    /// The input projection layer.
    pub fn input_layer(&self) -> &L {
        &self.input
    }

    /// The residual blocks, in forward order.
    pub fn block_layers(&self) -> &[BlockSnapshot<L>] {
        &self.blocks
    }

    /// The output projection layer.
    pub fn output_layer(&self) -> &L {
        &self.output
    }

    /// Whether the output is squashed through `tanh`.
    pub fn output_tanh(&self) -> bool {
        self.output_tanh
    }
}

impl<L: LinearWeights> ResNetSnapshot<L> {
    /// Total bytes held by the weights across all layers.
    pub fn memory_bytes(&self) -> usize {
        self.input.memory_bytes()
            + self.output.memory_bytes()
            + self
                .blocks
                .iter()
                .map(|b| b.fc1.memory_bytes() + b.fc2.memory_bytes())
                .sum::<usize>()
    }

    /// Runs the forward pass into `out`, using `ws` for hidden activations
    /// (and its thread pool, if one is installed).
    ///
    /// Bit-exact with the taped `ResNet` forward at any thread count.
    pub fn forward_into(&self, x: &Tensor, ws: &mut NetWorkspace, out: &mut Tensor) {
        let mut h = ws.take();
        let mut tmp = ws.take();
        self.input.forward_into_with(x, &mut h, ws.thread_pool());
        relu_in_place(&mut h);
        for block in &self.blocks {
            block.fc1.forward_into_with(&h, &mut tmp, ws.thread_pool());
            activate_in_place(block.activation, &mut tmp);
            block
                .fc2
                .forward_add_into_with(&tmp, &mut h, ws.thread_pool());
        }
        self.output.forward_into_with(&h, out, ws.thread_pool());
        if self.output_tanh {
            tanh_in_place(out);
        }
        ws.put(tmp);
        ws.put(h);
    }
}

// ---------------------------------------------------------------------------
// Generic module snapshots
// ---------------------------------------------------------------------------

/// An owned, immutable snapshot of an arbitrary [`Module`](crate::Module)
/// stack (see [`Module::export_snapshot`](crate::Module::export_snapshot)).
#[derive(Clone, Debug)]
pub enum WeightSnapshot {
    /// A fully connected layer.
    Linear(LinearSnapshot),
    /// A parameter-free pointwise nonlinearity.
    Activation(ActivationKind),
    /// A two-layer residual block `x + fc2(act(fc1(x)))`.
    Residual(Box<BlockSnapshot>),
    /// A residual MLP (input projection, blocks, output projection).
    Net(Box<ResNetSnapshot>),
    /// A sequential stack of snapshots.
    Stack(Vec<WeightSnapshot>),
}

impl WeightSnapshot {
    /// Runs the snapshot forward pass into `out`, bit-exact with the source
    /// module's taped [`Module::forward`](crate::Module::forward).
    pub fn forward_into(&self, x: &Tensor, ws: &mut NetWorkspace, out: &mut Tensor) {
        match self {
            WeightSnapshot::Linear(l) => l.forward_into_with(x, out, ws.thread_pool()),
            WeightSnapshot::Activation(kind) => {
                out.copy_from(x);
                activate_in_place(*kind, out);
            }
            WeightSnapshot::Residual(block) => {
                let mut tmp = ws.take();
                block.fc1.forward_into_with(x, &mut tmp, ws.thread_pool());
                activate_in_place(block.activation, &mut tmp);
                block.fc2.forward_into_with(&tmp, out, ws.thread_pool());
                // IEEE addition is commutative in value, so `fc2out + x`
                // equals the reference `x + fc2out` to the last bit.
                out.add_assign(x);
                ws.put(tmp);
            }
            WeightSnapshot::Net(net) => net.forward_into(x, ws, out),
            WeightSnapshot::Stack(children) => match children.len() {
                0 => out.copy_from(x),
                1 => children[0].forward_into(x, ws, out),
                len => {
                    let mut cur = ws.take();
                    let mut next = ws.take();
                    children[0].forward_into(x, ws, &mut cur);
                    for child in &children[1..len - 1] {
                        child.forward_into(&cur, ws, &mut next);
                        std::mem::swap(&mut cur, &mut next);
                    }
                    children[len - 1].forward_into(&cur, ws, out);
                    ws.put(next);
                    ws.put(cur);
                }
            },
        }
    }

    /// Convenience wrapper allocating a fresh output (and workspace).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut ws = NetWorkspace::new();
        let mut out = Tensor::zeros(0, 0);
        self.forward_into(x, &mut ws, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;
    use crate::layers::{Activation, Linear, Module, ResNet, Sequential};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    /// The reference forward: the module's autograd pass on a throwaway tape.
    fn taped(module: &dyn Module, x: &Tensor) -> Tensor {
        let tape = Tape::new();
        module.forward(&tape, &tape.constant(x.clone())).value()
    }

    #[test]
    fn resnet_snapshot_is_bit_exact_with_taped_forward() {
        let mut r = rng();
        for (hidden, rows) in [(16, 1024), (48, 33), (61, 67), (64, 1), (256, 130)] {
            for bounded in [false, true] {
                let net = ResNet::new(10, hidden, 10, 2, bounded, &mut r);
                let x = Tensor::randn(rows, 10, &mut r);
                let reference = taped(&net, &x);
                let snap = net.snapshot();
                let mut ws = NetWorkspace::new();
                let mut out = Tensor::zeros(0, 0);
                snap.forward_into(&x, &mut ws, &mut out);
                assert_eq!(
                    out.as_slice(),
                    reference.as_slice(),
                    "hidden {hidden} rows {rows} bounded {bounded}"
                );
            }
        }
    }

    #[test]
    fn reused_workspace_gives_identical_results() {
        let mut r = rng();
        let net = ResNet::new(6, 16, 6, 2, true, &mut r);
        let snap = net.snapshot();
        let mut ws = NetWorkspace::new();
        let mut out = Tensor::zeros(0, 0);
        for trial in 0..4 {
            // Vary the batch size so buffers shrink and grow.
            let x = Tensor::randn(5 + trial * 7, 6, &mut r);
            snap.forward_into(&x, &mut ws, &mut out);
            let mut fresh_ws = NetWorkspace::new();
            let mut fresh_out = Tensor::zeros(0, 0);
            snap.forward_into(&x, &mut fresh_ws, &mut fresh_out);
            assert_eq!(out.as_slice(), fresh_out.as_slice());
        }
    }

    #[test]
    fn sequential_snapshot_matches_taped_forward() {
        let mut r = rng();
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        ] {
            let seq = Sequential::new()
                .push(Linear::new(8, 24, &mut r))
                .push(Activation::new(kind))
                .push(Linear::new(24, 24, &mut r))
                .push(Activation::new(kind))
                .push(Linear::new(24, 3, &mut r));
            let snap = seq.export_snapshot();
            for rows in [1, 17, 300] {
                // Scaled inputs reach the saturating ends of tanh and sigmoid.
                let x = Tensor::randn(rows, 8, &mut r).scale(3.0);
                assert_eq!(
                    snap.forward(&x).as_slice(),
                    taped(&seq, &x).as_slice(),
                    "{kind:?} rows {rows}"
                );
            }
        }
    }

    #[test]
    fn snapshot_is_immune_to_later_weight_updates() {
        let mut r = rng();
        let layer = Linear::new(4, 4, &mut r);
        let x = Tensor::randn(3, 4, &mut r);
        let snap = layer.export_snapshot();
        let before = snap.forward(&x);
        layer.weight().set_value(Tensor::zeros(4, 4));
        let after = snap.forward(&x);
        assert_eq!(before.as_slice(), after.as_slice());
        assert_ne!(
            taped(&layer, &x).as_slice(),
            after.as_slice(),
            "live module must see the update"
        );
    }
}
