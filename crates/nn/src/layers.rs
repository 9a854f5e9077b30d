//! Neural-network layers.
//!
//! The layer set is intentionally small: PassFlow's coupling functions `s`
//! and `t` are residual MLPs ([`ResNet`]), and the GAN/CWAE baselines are
//! plain MLPs ([`Sequential`] of [`Linear`] + [`Activation`]). All layers
//! implement [`Module`], which is object-safe so heterogeneous stacks can be
//! stored as `Vec<Box<dyn Module>>`.

use rand::Rng;
use std::fmt;

use crate::autograd::{Parameter, Tape, Var};
use crate::init;
use crate::snapshot::{BlockSnapshot, LinearSnapshot, ResNetSnapshot, WeightSnapshot};
use crate::tensor::Tensor;

/// A differentiable network component.
///
/// A module owns its [`Parameter`]s and maps an input [`Var`] to an output
/// [`Var`] on the same tape. [`Module::forward`] is the one reference
/// definition of the network's function: training differentiates it, and
/// inference runs the [`WeightSnapshot`] from [`Module::export_snapshot`],
/// which the tests pin to it bit for bit.
///
/// `Send + Sync` are supertraits so trained models (which store layers as
/// `Box<dyn Module>`) can be shared across the attack engine's shard
/// threads; every parameter already lives behind an `Arc<RwLock>`.
pub trait Module: Send + Sync {
    /// Runs the forward pass, recording operations on `tape`.
    fn forward(&self, tape: &Tape, input: &Var) -> Var;

    /// Returns handles to every trainable parameter of the module.
    fn parameters(&self) -> Vec<Parameter>;

    /// Total number of trainable scalars.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(Parameter::len).sum()
    }

    /// Sets all parameter gradients to zero.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }

    /// Exports an owned, immutable snapshot of the module's weights for the
    /// inference fast path.
    ///
    /// The snapshot's `forward_into` gives the same bits as
    /// [`Module::forward`] but reads weights directly (no tape, no per-call
    /// lock or clone) and writes activations into reusable scratch buffers.
    fn export_snapshot(&self) -> WeightSnapshot;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// A fully connected layer: `y = x W + b`.
#[derive(Clone)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
}

impl fmt::Debug for Linear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Linear({} -> {})", self.in_features, self.out_features)
    }
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self::with_weight(
            init::xavier_uniform(in_features, out_features, rng),
            in_features,
            out_features,
        )
    }

    /// Creates a layer with He-normal weights (for ReLU stacks) and zero bias.
    pub fn new_relu<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self::with_weight(
            init::he_normal(in_features, out_features, rng),
            in_features,
            out_features,
        )
    }

    /// Creates a layer whose weights start near zero, so the layer initially
    /// outputs (approximately) only its bias. Used for the final projection
    /// of flow scale networks.
    pub fn new_near_zero<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        Self::with_weight(
            init::near_zero(in_features, out_features, rng),
            in_features,
            out_features,
        )
    }

    fn with_weight(weight: Tensor, in_features: usize, out_features: usize) -> Self {
        Linear {
            weight: Parameter::new(weight, "linear.weight"),
            bias: Parameter::new(Tensor::zeros(1, out_features), "linear.bias"),
            in_features,
            out_features,
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

    /// Direct access to the weight parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Direct access to the bias parameter.
    pub fn bias(&self) -> &Parameter {
        &self.bias
    }

    /// Copies the current weights into an owned [`LinearSnapshot`].
    pub fn snapshot(&self) -> LinearSnapshot {
        LinearSnapshot::new(self.weight.value(), self.bias.value())
    }
}

impl Module for Linear {
    fn forward(&self, _tape: &Tape, input: &Var) -> Var {
        input.linear(&self.weight, &self.bias)
    }

    fn parameters(&self) -> Vec<Parameter> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    fn export_snapshot(&self) -> WeightSnapshot {
        WeightSnapshot::Linear(self.snapshot())
    }
}

// ---------------------------------------------------------------------------
// Activation
// ---------------------------------------------------------------------------

/// The supported pointwise nonlinearities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// A parameter-free activation layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Activation {
    kind: ActivationKind,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation { kind }
    }

    /// The nonlinearity applied by this layer.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Module for Activation {
    fn forward(&self, _tape: &Tape, input: &Var) -> Var {
        match self.kind {
            ActivationKind::Relu => input.relu(),
            ActivationKind::Tanh => input.tanh(),
            ActivationKind::Sigmoid => input.sigmoid(),
        }
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }

    fn export_snapshot(&self) -> WeightSnapshot {
        WeightSnapshot::Activation(self.kind)
    }
}

// ---------------------------------------------------------------------------
// Residual block
// ---------------------------------------------------------------------------

/// A two-layer residual block: `y = x + W2 · act(W1 · x + b1) + b2`.
///
/// The input and output width must match; this is the building block of the
/// paper's `s` and `t` coupling networks (Section IV-D: "2 residual blocks
/// with a hidden size of 256 units").
#[derive(Clone, Debug)]
pub struct ResidualBlock {
    fc1: Linear,
    fc2: Linear,
    activation: Activation,
}

impl ResidualBlock {
    /// Creates a residual block operating on `width`-dimensional features
    /// with a hidden layer of `hidden` units.
    pub fn new<R: Rng + ?Sized>(width: usize, hidden: usize, rng: &mut R) -> Self {
        ResidualBlock {
            fc1: Linear::new_relu(width, hidden, rng),
            fc2: Linear::new(hidden, width, rng),
            activation: Activation::new(ActivationKind::Relu),
        }
    }

    /// Feature width preserved by the block.
    pub fn width(&self) -> usize {
        self.fc1.in_features()
    }

    /// Copies the block's weights into an owned [`BlockSnapshot`].
    pub fn snapshot(&self) -> BlockSnapshot {
        BlockSnapshot {
            fc1: self.fc1.snapshot(),
            fc2: self.fc2.snapshot(),
            activation: self.activation.kind(),
        }
    }
}

impl Module for ResidualBlock {
    fn forward(&self, tape: &Tape, input: &Var) -> Var {
        let hidden = self.fc1.forward(tape, input);
        let hidden = self.activation.forward(tape, &hidden);
        let out = self.fc2.forward(tape, &hidden);
        input.add(&out)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut params = self.fc1.parameters();
        params.extend(self.fc2.parameters());
        params
    }

    fn export_snapshot(&self) -> WeightSnapshot {
        WeightSnapshot::Residual(Box::new(self.snapshot()))
    }
}

// ---------------------------------------------------------------------------
// ResNet (the s/t coupling networks)
// ---------------------------------------------------------------------------

/// A residual MLP: input projection, `n` residual blocks, output projection.
///
/// This is the architecture the paper uses for the scale (`s`) and
/// translation (`t`) functions of each coupling layer.
#[derive(Clone, Debug)]
pub struct ResNet {
    input: Linear,
    blocks: Vec<ResidualBlock>,
    output: Linear,
    output_tanh: bool,
}

impl ResNet {
    /// Creates a residual network mapping `in_features` to `out_features`
    /// through `num_blocks` residual blocks of `hidden` units.
    ///
    /// When `bounded_output` is true the output is passed through `tanh`;
    /// the paper's scale network needs a bounded output so that
    /// `exp(s(·))` stays numerically stable, while the translation network
    /// is unbounded.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        hidden: usize,
        out_features: usize,
        num_blocks: usize,
        bounded_output: bool,
        rng: &mut R,
    ) -> Self {
        let input = Linear::new_relu(in_features, hidden, rng);
        let blocks = (0..num_blocks)
            .map(|_| ResidualBlock::new(hidden, hidden, rng))
            .collect();
        let output = if bounded_output {
            Linear::new_near_zero(hidden, out_features, rng)
        } else {
            Linear::new(hidden, out_features, rng)
        };
        ResNet {
            input,
            blocks,
            output,
            output_tanh: bounded_output,
        }
    }

    /// Number of residual blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the output is squashed through `tanh`.
    pub fn has_bounded_output(&self) -> bool {
        self.output_tanh
    }

    /// Copies the network's weights into an owned [`ResNetSnapshot`].
    pub fn snapshot(&self) -> ResNetSnapshot {
        ResNetSnapshot::new(
            self.input.snapshot(),
            self.blocks.iter().map(ResidualBlock::snapshot).collect(),
            self.output.snapshot(),
            self.output_tanh,
        )
    }
}

impl Module for ResNet {
    fn forward(&self, tape: &Tape, input: &Var) -> Var {
        let mut x = self.input.forward(tape, input).relu();
        for block in &self.blocks {
            x = block.forward(tape, &x);
        }
        let out = self.output.forward(tape, &x);
        if self.output_tanh {
            out.tanh()
        } else {
            out
        }
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut params = self.input.parameters();
        for block in &self.blocks {
            params.extend(block.parameters());
        }
        params.extend(self.output.parameters());
        params
    }

    fn export_snapshot(&self) -> WeightSnapshot {
        WeightSnapshot::Net(Box::new(self.snapshot()))
    }
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

/// A stack of modules applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl fmt::Debug for Sequential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for chaining.
    #[must_use]
    pub fn push(mut self, layer: impl Module + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the stack contains no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&self, tape: &Tape, input: &Var) -> Var {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(tape, &x);
        }
        x
    }

    fn parameters(&self) -> Vec<Parameter> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    fn export_snapshot(&self) -> WeightSnapshot {
        WeightSnapshot::Stack(self.layers.iter().map(|l| l.export_snapshot()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut r = rng();
        let layer = Linear::new(4, 3, &mut r);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(5, 4));
        let y = layer.forward(&tape, &x);
        assert_eq!(y.shape(), (5, 3));
        // With zero input the output equals the (zero) bias.
        assert_eq!(y.value().sum(), 0.0);
    }

    #[test]
    fn linear_has_two_parameters() {
        let mut r = rng();
        let layer = Linear::new(4, 3, &mut r);
        assert_eq!(layer.parameters().len(), 2);
        assert_eq!(layer.num_parameters(), 4 * 3 + 3);
        assert_eq!(layer.in_features(), 4);
        assert_eq!(layer.out_features(), 3);
    }

    #[test]
    fn activation_kinds_apply_expected_function() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::row(&[-2.0, 2.0]));
        let relu = Activation::new(ActivationKind::Relu).forward(&tape, &x);
        assert_eq!(relu.value().as_slice(), &[0.0, 2.0]);
        let tanh = Activation::new(ActivationKind::Tanh).forward(&tape, &x);
        assert!((tanh.value().get(0, 1) - 2.0f32.tanh()).abs() < 1e-6);
        let sig = Activation::new(ActivationKind::Sigmoid).forward(&tape, &x);
        assert!(sig.value().get(0, 0) < 0.5 && sig.value().get(0, 1) > 0.5);
    }

    #[test]
    fn residual_block_preserves_width_and_adds_skip() {
        let mut r = rng();
        let block = ResidualBlock::new(6, 16, &mut r);
        assert_eq!(block.width(), 6);
        let tape = Tape::new();
        let x = tape.constant(Tensor::randn(3, 6, &mut r));
        let y = block.forward(&tape, &x);
        assert_eq!(y.shape(), (3, 6));
        // With zero weights in fc2's bias the skip connection guarantees the
        // output is not identically zero for nonzero input.
        assert!(y.value().abs().sum() > 0.0);
    }

    #[test]
    fn resnet_shapes_and_bounded_output() {
        let mut r = rng();
        let net = ResNet::new(10, 32, 10, 2, true, &mut r);
        assert_eq!(net.num_blocks(), 2);
        assert!(net.has_bounded_output());
        let tape = Tape::new();
        let x = tape.constant(Tensor::randn(4, 10, &mut r));
        let y = net.forward(&tape, &x);
        assert_eq!(y.shape(), (4, 10));
        assert!(y.value().max() <= 1.0 && y.value().min() >= -1.0);
    }

    #[test]
    fn resnet_unbounded_output_is_not_squashed() {
        let mut r = rng();
        let net = ResNet::new(4, 8, 4, 1, false, &mut r);
        assert!(!net.has_bounded_output());
        let tape = Tape::new();
        let x = tape.constant(Tensor::randn(2, 4, &mut r).scale(10.0));
        let y = net.forward(&tape, &x);
        assert_eq!(y.shape(), (2, 4));
    }

    #[test]
    fn sequential_composes_layers() {
        let mut r = rng();
        let net = Sequential::new()
            .push(Linear::new(4, 8, &mut r))
            .push(Activation::new(ActivationKind::Relu))
            .push(Linear::new(8, 2, &mut r));
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
        let tape = Tape::new();
        let x = tape.constant(Tensor::randn(7, 4, &mut r));
        let y = net.forward(&tape, &x);
        assert_eq!(y.shape(), (7, 2));
        assert_eq!(net.parameters().len(), 4);
    }

    #[test]
    fn gradients_flow_through_resnet() {
        let mut r = rng();
        let net = ResNet::new(6, 16, 6, 2, false, &mut r);
        let tape = Tape::new();
        let x = tape.constant(Tensor::randn(5, 6, &mut r));
        let loss = net.forward(&tape, &x).square().mean();
        net.zero_grad();
        loss.backward();
        let total_grad: f32 = net.parameters().iter().map(|p| p.grad().abs().sum()).sum();
        assert!(total_grad > 0.0, "expected nonzero gradients");
    }

    #[test]
    fn zero_grad_resets_all_parameters() {
        let mut r = rng();
        let net = ResNet::new(4, 8, 4, 1, false, &mut r);
        let tape = Tape::new();
        let x = tape.constant(Tensor::randn(2, 4, &mut r));
        net.forward(&tape, &x).sum().backward();
        net.zero_grad();
        for p in net.parameters() {
            assert_eq!(p.grad().abs().sum(), 0.0);
        }
    }
}
