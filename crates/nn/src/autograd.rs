//! Reverse-mode automatic differentiation.
//!
//! The [`Tape`] records every operation performed on [`Var`] handles during a
//! forward pass. Calling [`Var::backward`] on a scalar output propagates
//! gradients back through the recorded graph and accumulates them into any
//! [`Parameter`] leaves that participated in the computation.
//!
//! The design intentionally mirrors the "define-by-run" style of mainstream
//! frameworks: layers hold [`Parameter`]s, each forward pass registers them on
//! a fresh tape, and an optimizer consumes the accumulated gradients.

use parking_lot::RwLock;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::kernels;
use crate::tensor::Tensor;

// ---------------------------------------------------------------------------
// Parameters
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ParamData {
    value: Tensor,
    grad: Tensor,
    name: String,
    /// Bumped on every value mutation; lets weight snapshots detect
    /// staleness without comparing tensors.
    version: u64,
}

/// A trainable parameter shared between a model and the optimizer.
///
/// Cloning a `Parameter` is cheap and yields a handle to the same underlying
/// storage, so layers can hand out their parameters to optimizers without
/// copying weights. Parameters are `Send + Sync` (storage is behind an
/// `Arc<RwLock>`), so trained models can be moved across threads.
#[derive(Clone, Debug)]
pub struct Parameter(Arc<RwLock<ParamData>>);

impl Parameter {
    /// Creates a parameter from an initial value.
    pub fn new(value: Tensor, name: impl Into<String>) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Parameter(Arc::new(RwLock::new(ParamData {
            value,
            grad,
            name: name.into(),
            version: 0,
        })))
    }

    /// Returns a copy of the current value.
    pub fn value(&self) -> Tensor {
        self.0.read().value.clone()
    }

    /// Calls `f` with the current value under the read lock, without
    /// copying it.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.0.read().value)
    }

    /// A counter incremented on every value mutation
    /// ([`set_value`](Self::set_value) / [`update`](Self::update)).
    ///
    /// Weight snapshots record the version at export time and compare it to
    /// detect staleness, so cached inference snapshots invalidate themselves
    /// the moment an optimizer steps the parameter.
    pub fn version(&self) -> u64 {
        self.0.read().version
    }

    /// Replaces the current value.
    ///
    /// # Panics
    ///
    /// Panics if the new value has a different shape from the old one.
    pub fn set_value(&self, value: Tensor) {
        let mut data = self.0.write();
        assert_eq!(
            data.value.shape(),
            value.shape(),
            "parameter {} shape cannot change",
            data.name
        );
        data.value = value;
        data.version += 1;
    }

    /// Returns a copy of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.0.read().grad.clone()
    }

    /// Adds `delta` to the accumulated gradient.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        self.0.write().grad.add_assign(delta);
    }

    /// Resets the accumulated gradient to zero in place.
    pub fn zero_grad(&self) {
        self.0.write().grad.as_mut_slice().fill(0.0);
    }

    /// Parameter name (used for debugging and serialization).
    pub fn name(&self) -> String {
        self.0.read().name.clone()
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.0.read().value.len()
    }

    /// Returns `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Steps the value in place from the accumulated gradient, under one
    /// write lock: `f(value, grad)` updates `value`'s elements, then the
    /// gradient is reset to zero (filled, keeping its allocation) and the
    /// version bumped.
    ///
    /// This is the primitive optimizers update weights through.
    pub fn update(&self, f: impl FnOnce(&mut [f32], &Tensor)) {
        let data = &mut *self.0.write();
        f(data.value.as_mut_slice(), &data.grad);
        data.grad.as_mut_slice().fill(0.0);
        data.version += 1;
    }

    /// Returns `true` if the two handles refer to the same underlying storage.
    pub fn ptr_eq(&self, other: &Parameter) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A stable identity key for the underlying storage (the shared
    /// allocation's address).
    ///
    /// Two handles have equal keys iff [`ptr_eq`](Self::ptr_eq) holds. The
    /// key is only meaningful while at least one handle is alive; optimizers
    /// and gradient batches that index by key always retain a clone of the
    /// parameter alongside the key, which keeps the allocation (and thus the
    /// key) valid.
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

// ---------------------------------------------------------------------------
// Gradient batches
// ---------------------------------------------------------------------------

/// A set of per-parameter gradient tensors detached from the parameters.
///
/// [`Var::backward_grads`] produces one `GradBatch` per tape instead of
/// accumulating into the shared [`Parameter`] storage. This is the building
/// block of data-parallel training: each gradient worker differentiates its
/// own tape into a private batch, and the trainer merges the batches in a
/// **fixed worker-independent order** before applying them, so the reduced
/// gradient is bit-identical no matter how many workers produced the parts.
#[derive(Debug, Default)]
pub struct GradBatch {
    entries: Vec<(Parameter, Tensor)>,
    index: HashMap<usize, usize>,
}

impl GradBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        GradBatch::default()
    }

    /// Number of parameters with a gradient in this batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no gradients have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `grad` to the entry for `parameter`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape from an existing entry.
    pub fn accumulate(&mut self, parameter: &Parameter, grad: &Tensor) {
        self.add(parameter, Cow::Borrowed(grad));
    }

    /// [`accumulate`](Self::accumulate) that keeps an owned gradient
    /// instead of copying it into a new entry.
    fn add(&mut self, parameter: &Parameter, grad: Cow<'_, Tensor>) {
        match self.index.entry(parameter.key()) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.entries[*slot.get()].1.add_assign(&grad);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push((parameter.clone(), grad.into_owned()));
            }
        }
    }

    /// Adds every gradient of `other` into this batch.
    ///
    /// Merging is elementwise addition per parameter; to keep reductions
    /// deterministic, merge batches in a fixed order (e.g. micro-batch
    /// index), never in thread-completion order.
    pub fn merge(&mut self, other: &GradBatch) {
        for (parameter, grad) in &other.entries {
            self.accumulate(parameter, grad);
        }
    }

    /// Multiplies every gradient in the batch by `factor` in place.
    pub fn scale(&mut self, factor: f32) {
        for (_, grad) in &mut self.entries {
            for v in grad.as_mut_slice() {
                *v *= factor;
            }
        }
    }

    /// The gradient recorded for `parameter`, if any.
    pub fn get(&self, parameter: &Parameter) -> Option<&Tensor> {
        self.index
            .get(&parameter.key())
            .map(|&i| &self.entries[i].1)
    }

    /// Accumulates every gradient into its parameter's shared gradient
    /// storage (the form optimizers consume).
    pub fn apply(&self) {
        for (parameter, grad) in &self.entries {
            parameter.accumulate_grad(grad);
        }
    }

    /// Iterates over `(parameter, gradient)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Parameter, &Tensor)> {
        self.entries.iter().map(|(p, g)| (p, g))
    }
}

// ---------------------------------------------------------------------------
// Tape
// ---------------------------------------------------------------------------

/// Operation recorded on the tape; indices refer to parent nodes.
enum Op {
    Constant,
    Param(Parameter),
    /// `input × weight + bias`, reading both parameters in place (see
    /// [`Var::linear`]).
    Linear {
        input: usize,
        weight: Parameter,
        bias: Parameter,
    },
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Neg(usize),
    Exp(usize),
    Ln(usize),
    Tanh(usize),
    Relu(usize),
    Sigmoid(usize),
    Square(usize),
    Scale(usize, f32),
    AddScalar(usize),
    MulConst(usize, Tensor),
    Sum(usize),
    Mean(usize),
}

/// The recorded graph, one entry per node in each column. Values and ops
/// are write-once; gradients live apart so the backward pass can borrow
/// every value while it writes parent gradients. A gradient is shared when
/// a parent's gradient equals its child's (addition) and copied only when
/// a second contribution is added to it.
#[derive(Default)]
struct TapeInner {
    values: Vec<Tensor>,
    grads: Vec<Option<Rc<Tensor>>>,
    ops: Vec<Op>,
}

/// A recording of a differentiable computation.
///
/// Create one tape per forward pass, build the computation with [`Var`]
/// methods, then call [`Var::backward`] on the (scalar) loss.
#[derive(Clone)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape({} nodes)", self.len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            inner: Rc::new(RefCell::new(TapeInner::default())),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().values.len()
    }

    /// Returns `true` if no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, value: Tensor, op: Op) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.values.len();
        inner.values.push(value);
        inner.grads.push(None);
        inner.ops.push(op);
        Var {
            tape: self.clone(),
            id,
        }
    }

    /// Registers a constant (non-differentiable) tensor on the tape.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, Op::Constant)
    }

    /// Registers a trainable parameter on the tape. Gradients flowing into
    /// this node during [`Var::backward`] are accumulated into the parameter.
    pub fn param(&self, parameter: &Parameter) -> Var {
        self.push(parameter.value(), Op::Param(parameter.clone()))
    }
}

// ---------------------------------------------------------------------------
// Var
// ---------------------------------------------------------------------------

/// A handle to a node on a [`Tape`].
///
/// All arithmetic methods record a new node and return its handle. `Var` is
/// cheap to clone (it is an index plus a reference-counted tape handle).
/// Operations read their operands in place on the tape; only the result is
/// stored.
#[derive(Clone)]
pub struct Var {
    tape: Tape,
    id: usize,
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var(id={}, shape={:?})", self.id, self.shape())
    }
}

impl Var {
    /// Returns a copy of this node's value.
    pub fn value(&self) -> Tensor {
        self.tape.inner.borrow().values[self.id].clone()
    }

    /// Shape of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.inner.borrow().values[self.id].shape()
    }

    /// Returns the gradient computed for this node by the last
    /// [`Var::backward`] call, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.tape.inner.borrow().grads[self.id].as_deref().cloned()
    }

    fn same_tape(&self, other: &Var) {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "variables belong to different tapes"
        );
    }

    /// Records `op` with the value `f` computes from this node's value.
    fn unary(&self, op: Op, f: impl FnOnce(&Tensor) -> Tensor) -> Var {
        let value = f(&self.tape.inner.borrow().values[self.id]);
        self.tape.push(value, op)
    }

    /// Records `op` with the value `f` computes from both operands' values.
    fn binary(&self, other: &Var, op: Op, f: impl FnOnce(&Tensor, &Tensor) -> Tensor) -> Var {
        self.same_tape(other);
        let value = {
            let inner = self.tape.inner.borrow();
            f(&inner.values[self.id], &inner.values[other.id])
        };
        self.tape.push(value, op)
    }

    // -- binary ops --------------------------------------------------------

    /// Matrix product `self × other`.
    pub fn matmul(&self, other: &Var) -> Var {
        self.binary(other, Op::MatMul(self.id, other.id), Tensor::matmul)
    }

    /// Fully connected layer `self × weight + bias`, with `bias` a
    /// `1 × cols` row broadcast over every row.
    ///
    /// One node: the forward product reads both parameters under their
    /// read locks (the value is bit-exact with
    /// `self.matmul(w).add(broadcast b)`), and the backward pass sends
    /// `selfᵀ·G` and the column sums of `G` straight to the gradient sink.
    /// The backward pass reads `weight` again, so parameters must not be
    /// stepped between a tape's forward and backward passes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn linear(&self, weight: &Parameter, bias: &Parameter) -> Var {
        let value = {
            let inner = self.tape.inner.borrow();
            let (w, b) = (weight.0.read(), bias.0.read());
            let mut out = Tensor::default();
            kernels::matmul_bias_into(&inner.values[self.id], &w.value, &b.value, &mut out);
            out
        };
        let op = Op::Linear {
            input: self.id,
            weight: weight.clone(),
            bias: bias.clone(),
        };
        self.tape.push(value, op)
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Var) -> Var {
        self.binary(other, Op::Add(self.id, other.id), Tensor::add)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        self.binary(other, Op::Sub(self.id, other.id), Tensor::sub)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Var) -> Var {
        self.binary(other, Op::Mul(self.id, other.id), Tensor::mul)
    }

    // -- unary ops ----------------------------------------------------------

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.unary(Op::Neg(self.id), Tensor::neg)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        self.unary(Op::Exp(self.id), Tensor::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        self.unary(Op::Ln(self.id), Tensor::ln)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.unary(Op::Tanh(self.id), Tensor::tanh)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&self) -> Var {
        self.unary(Op::Relu(self.id), Tensor::relu)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.unary(Op::Sigmoid(self.id), Tensor::sigmoid)
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        self.unary(Op::Square(self.id), Tensor::square)
    }

    /// Multiplies every element by a scalar constant.
    pub fn scale(&self, factor: f32) -> Var {
        self.unary(Op::Scale(self.id, factor), |x| x.scale(factor))
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&self, value: f32) -> Var {
        self.unary(Op::AddScalar(self.id), |x| x.add_scalar(value))
    }

    /// Elementwise product with a constant tensor (e.g. a binary mask).
    ///
    /// The constant is not differentiated through.
    pub fn mul_const(&self, constant: &Tensor) -> Var {
        self.unary(Op::MulConst(self.id, constant.clone()), |x| x.mul(constant))
    }

    // -- reductions ---------------------------------------------------------

    /// Sum of all elements (produces a `1 × 1` node).
    pub fn sum(&self) -> Var {
        self.unary(Op::Sum(self.id), |x| Tensor::scalar(x.sum()))
    }

    /// Mean of all elements (produces a `1 × 1` node).
    pub fn mean(&self) -> Var {
        self.unary(Op::Mean(self.id), |x| Tensor::scalar(x.mean()))
    }

    // -- backward -----------------------------------------------------------

    /// Runs reverse-mode differentiation from this node.
    ///
    /// The node is seeded with a gradient of ones (it is normally a `1 × 1`
    /// loss). Gradients are accumulated into every [`Parameter`] leaf that
    /// participated in the computation.
    ///
    /// # Panics
    ///
    /// Panics if any intermediate gradient has an unexpected shape, which
    /// indicates a bug in an operation's gradient rule.
    pub fn backward(&self) {
        self.backprop(|parameter, grad| parameter.accumulate_grad(&grad));
    }

    /// Runs reverse-mode differentiation from this node, collecting the
    /// parameter gradients into a detached [`GradBatch`] instead of
    /// accumulating them into the shared parameter storage.
    ///
    /// This is the entry point for data-parallel gradient workers: each
    /// worker differentiates its own tape privately, and the resulting
    /// batches are merged in a fixed order so the reduction is independent
    /// of thread scheduling and worker count.
    pub fn backward_grads(&self) -> GradBatch {
        let mut batch = GradBatch::new();
        self.backprop(|parameter, grad| batch.add(parameter, Cow::Owned(grad)));
        batch
    }

    /// The shared reverse traversal behind [`backward`](Self::backward) and
    /// [`backward_grads`](Self::backward_grads); `sink` receives every
    /// parameter gradient.
    ///
    /// Each node's contributions are routed into its parents' gradient
    /// slots in a fixed order; a slot stores its first contribution as
    /// computed and adds later ones elementwise (`existing + contribution`).
    /// Every rule reads the node's gradient and the operand values by
    /// reference, and the transposed products pack into one reused buffer.
    fn backprop(&self, mut sink: impl FnMut(&Parameter, Tensor)) {
        let mut inner = self.tape.inner.borrow_mut();
        let TapeInner { values, grads, ops } = &mut *inner;
        // Reset gradients from any previous backward pass on this tape.
        grads.fill(None);
        let (r, c) = values[self.id].shape();
        grads[self.id] = Some(Rc::new(Tensor::ones(r, c)));

        let mut pack = kernels::TransposePack::default();
        let mut scratch = Tensor::default();
        // Parents are always recorded before their children, so every
        // parent slot lies below `id`.
        for id in (0..=self.id).rev() {
            let (parents, rest) = grads.split_at_mut(id);
            let Some(grad) = rest[0].as_ref() else {
                continue;
            };
            match &ops[id] {
                Op::Constant => {}
                Op::Param(p) => sink(p, Tensor::clone(grad)),
                Op::Linear {
                    input,
                    weight,
                    bias,
                } => {
                    accumulate_product(&mut parents[*input], &mut scratch, |out| {
                        let w = weight.0.read();
                        kernels::matmul_nt_into(grad, &w.value, &mut pack, out);
                    });
                    let mut dw = Tensor::default();
                    kernels::matmul_tn_into(&values[*input], grad, &mut pack, &mut dw);
                    sink(weight, dw);
                    sink(bias, grad.sum_cols());
                }
                Op::MatMul(a, b) => {
                    accumulate_product(&mut parents[*a], &mut scratch, |out| {
                        kernels::matmul_nt_into(grad, &values[*b], &mut pack, out);
                    });
                    accumulate_product(&mut parents[*b], &mut scratch, |out| {
                        kernels::matmul_tn_into(&values[*a], grad, &mut pack, out);
                    });
                }
                Op::Add(a, b) => {
                    accumulate_shared(&mut parents[*a], grad);
                    accumulate_shared(&mut parents[*b], grad);
                }
                Op::Sub(a, b) => {
                    accumulate_shared(&mut parents[*a], grad);
                    accumulate_map(&mut parents[*b], grad, |g| -g);
                }
                Op::Mul(a, b) => {
                    accumulate_zip(&mut parents[*a], grad, &values[*b], |g, y| g * y);
                    accumulate_zip(&mut parents[*b], grad, &values[*a], |g, x| g * x);
                }
                Op::Neg(a) => accumulate_map(&mut parents[*a], grad, |g| -g),
                Op::Exp(a) => accumulate_zip(&mut parents[*a], grad, &values[id], |g, e| g * e),
                Op::Ln(a) => accumulate_zip(&mut parents[*a], grad, &values[*a], |g, x| g / x),
                Op::Tanh(a) => {
                    accumulate_zip(&mut parents[*a], grad, &values[id], |g, t| {
                        g * (-(t * t) + 1.0)
                    });
                }
                Op::Relu(a) => {
                    accumulate_zip(&mut parents[*a], grad, &values[*a], |g, x| {
                        g * if x > 0.0 { 1.0 } else { 0.0 }
                    });
                }
                Op::Sigmoid(a) => {
                    accumulate_zip(&mut parents[*a], grad, &values[id], |g, s| {
                        g * (s * (-s + 1.0))
                    });
                }
                Op::Square(a) => {
                    accumulate_zip(&mut parents[*a], grad, &values[*a], |g, x| g * (x * 2.0));
                }
                Op::Scale(a, f) => accumulate_map(&mut parents[*a], grad, |g| g * f),
                Op::AddScalar(a) => accumulate_shared(&mut parents[*a], grad),
                Op::MulConst(a, constant) => {
                    accumulate_zip(&mut parents[*a], grad, constant, |g, k| g * k);
                }
                Op::Sum(a) => {
                    let g = grad.get(0, 0);
                    accumulate_fill(&mut parents[*a], values[*a].shape(), g);
                }
                Op::Mean(a) => {
                    let (r, c) = values[*a].shape();
                    let g = grad.get(0, 0) / (r * c) as f32;
                    accumulate_fill(&mut parents[*a], (r, c), g);
                }
            }
        }
    }
}

/// Routes the contribution `grad` itself into a gradient slot, sharing it
/// when the slot is empty.
fn accumulate_shared(slot: &mut Option<Rc<Tensor>>, grad: &Rc<Tensor>) {
    match slot {
        Some(existing) => Rc::make_mut(existing).add_assign(grad),
        None => *slot = Some(Rc::clone(grad)),
    }
}

/// Routes the contribution `h(g, aux)` (elementwise over `grad` and `aux`)
/// into a gradient slot.
fn accumulate_zip(
    slot: &mut Option<Rc<Tensor>>,
    grad: &Tensor,
    aux: &Tensor,
    h: impl Fn(f32, f32) -> f32,
) {
    assert_eq!(grad.shape(), aux.shape(), "gradient rule shape mismatch");
    match slot {
        Some(existing) => {
            let existing = Rc::make_mut(existing);
            assert_eq!(existing.shape(), grad.shape(), "add_assign shape mismatch");
            for ((e, &g), &x) in existing
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(aux.as_slice())
            {
                *e += h(g, x);
            }
        }
        None => *slot = Some(Rc::new(grad.zip_with(aux, "gradient rule", h))),
    }
}

/// Routes the contribution `h(g)` (elementwise over `grad`) into a gradient
/// slot.
fn accumulate_map(slot: &mut Option<Rc<Tensor>>, grad: &Tensor, h: impl Fn(f32) -> f32) {
    match slot {
        Some(existing) => {
            let existing = Rc::make_mut(existing);
            assert_eq!(existing.shape(), grad.shape(), "add_assign shape mismatch");
            for (e, &g) in existing.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *e += h(g);
            }
        }
        None => *slot = Some(Rc::new(grad.map(h))),
    }
}

/// Routes a contribution of `value` in every element of a `shape` tensor
/// into a gradient slot.
fn accumulate_fill(slot: &mut Option<Rc<Tensor>>, shape: (usize, usize), value: f32) {
    match slot {
        Some(existing) => {
            let existing = Rc::make_mut(existing);
            assert_eq!(existing.shape(), shape, "add_assign shape mismatch");
            for e in existing.as_mut_slice() {
                *e += value;
            }
        }
        None => *slot = Some(Rc::new(Tensor::full(shape.0, shape.1, value))),
    }
}

/// Routes a matrix-product contribution into a gradient slot: `product`
/// writes straight into a fresh slot, or into `scratch` that is then added
/// to an occupied one.
fn accumulate_product(
    slot: &mut Option<Rc<Tensor>>,
    scratch: &mut Tensor,
    product: impl FnOnce(&mut Tensor),
) {
    match slot {
        Some(existing) => {
            product(scratch);
            Rc::make_mut(existing).add_assign(scratch);
        }
        None => {
            let mut fresh = Tensor::default();
            product(&mut fresh);
            *slot = Some(Rc::new(fresh));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    /// Numerically estimates d loss / d param[i][j] by central differences.
    fn finite_diff(
        param: &Parameter,
        loss_fn: &dyn Fn() -> f32,
        row: usize,
        col: usize,
        eps: f32,
    ) -> f32 {
        let original = param.value();
        let mut plus = original.clone();
        plus.set(row, col, original.get(row, col) + eps);
        param.set_value(plus);
        let loss_plus = loss_fn();
        let mut minus = original.clone();
        minus.set(row, col, original.get(row, col) - eps);
        param.set_value(minus);
        let loss_minus = loss_fn();
        param.set_value(original);
        (loss_plus - loss_minus) / (2.0 * eps)
    }

    #[test]
    fn parameter_accumulates_and_zeroes_grad() {
        let p = Parameter::new(Tensor::zeros(2, 2), "w");
        p.accumulate_grad(&Tensor::ones(2, 2));
        p.accumulate_grad(&Tensor::ones(2, 2));
        assert_eq!(p.grad().sum(), 8.0);
        p.zero_grad();
        assert_eq!(p.grad().sum(), 0.0);
    }

    #[test]
    fn parameter_ptr_eq_distinguishes_handles() {
        let p = Parameter::new(Tensor::zeros(1, 1), "a");
        let q = p.clone();
        let r = Parameter::new(Tensor::zeros(1, 1), "a");
        assert!(p.ptr_eq(&q));
        assert!(!p.ptr_eq(&r));
    }

    #[test]
    #[should_panic(expected = "shape cannot change")]
    fn parameter_rejects_shape_change() {
        let p = Parameter::new(Tensor::zeros(2, 2), "w");
        p.set_value(Tensor::zeros(3, 3));
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = mean((x * 3 + 1)^2), x = [1, 2]
        let tape = Tape::new();
        let p = Parameter::new(Tensor::row(&[1.0, 2.0]), "x");
        let x = tape.param(&p);
        let y = x.scale(3.0).add_scalar(1.0).square().mean();
        y.backward();
        // d/dx_i mean((3x+1)^2) = (1/N) * 2 * 3 * (3x_i+1) = 3*(3x_i+1) for N=2.
        let grad = p.grad();
        assert!((grad.get(0, 0) - 3.0 * 4.0).abs() < 1e-5);
        assert!((grad.get(0, 1) - 3.0 * 7.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradcheck() {
        let mut r = rng();
        let w = Parameter::new(Tensor::randn(3, 2, &mut r), "w");
        let x = Tensor::randn(4, 3, &mut r);

        let loss_fn = {
            let w = w.clone();
            let x = x.clone();
            move || {
                let tape = Tape::new();
                let xv = tape.constant(x.clone());
                let wv = tape.param(&w);
                xv.matmul(&wv).square().sum().value().get(0, 0)
            }
        };

        // Analytic gradient.
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.param(&w);
        w.zero_grad();
        xv.matmul(&wv).square().sum().backward();
        let analytic = w.grad();

        for row in 0..3 {
            for col in 0..2 {
                let numeric = finite_diff(&w, &loss_fn, row, col, 1e-2);
                let a = analytic.get(row, col);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "grad mismatch at ({row},{col}): analytic={a}, numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn nonlinearity_gradcheck() {
        let mut r = rng();
        let w = Parameter::new(Tensor::randn(1, 5, &mut r), "w");

        let loss_fn = {
            let w = w.clone();
            move || {
                let tape = Tape::new();
                let wv = tape.param(&w);
                wv.tanh()
                    .mul(&wv.sigmoid())
                    .add(&wv.relu())
                    .exp()
                    .mean()
                    .value()
                    .get(0, 0)
            }
        };

        let tape = Tape::new();
        let wv = tape.param(&w);
        w.zero_grad();
        wv.tanh()
            .mul(&wv.sigmoid())
            .add(&wv.relu())
            .exp()
            .mean()
            .backward();
        let analytic = w.grad();

        for col in 0..5 {
            let numeric = finite_diff(&w, &loss_fn, 0, col, 1e-3);
            let a = analytic.get(0, col);
            assert!(
                (a - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "grad mismatch at col {col}: analytic={a}, numeric={numeric}"
            );
        }
    }

    #[test]
    fn mul_const_masks_gradient() {
        let p = Parameter::new(Tensor::row(&[1.0, 2.0, 3.0]), "p");
        let mask = Tensor::row(&[1.0, 0.0, 1.0]);
        let tape = Tape::new();
        let x = tape.param(&p);
        x.mul_const(&mask).sum().backward();
        assert_eq!(p.grad().as_slice(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn linear_bias_gradient_sums_over_batch() {
        let weight = Parameter::new(Tensor::zeros(2, 2), "w");
        let bias = Parameter::new(Tensor::row(&[0.0, 0.0]), "b");
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(4, 2));
        x.linear(&weight, &bias).sum().backward();
        // Each bias element receives a gradient contribution from all 4 rows.
        assert_eq!(bias.grad().as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn linear_forward_matches_matmul_plus_bias_bitwise() {
        let mut r = rng();
        let w = Parameter::new(Tensor::randn(5, 7, &mut r), "w");
        let b = Parameter::new(Tensor::randn(1, 7, &mut r), "b");
        let x = Tensor::randn(6, 5, &mut r);
        let tape = Tape::new();
        let out = tape.constant(x.clone()).linear(&w, &b).value();
        let reference = x.matmul(&w.value()).add_row_broadcast(&b.value());
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn linear_gradcheck_for_input_weight_and_bias() {
        let mut r = rng();
        let x = Parameter::new(Tensor::randn(5, 3, &mut r), "x");
        let w = Parameter::new(Tensor::randn(3, 2, &mut r), "w");
        let b = Parameter::new(Tensor::randn(1, 2, &mut r), "b");
        let loss = |tape: &Tape| tape.param(&x).linear(&w, &b).tanh().square().sum();

        for p in [&x, &w, &b] {
            p.zero_grad();
        }
        loss(&Tape::new()).backward();
        let loss_fn = || loss(&Tape::new()).value().get(0, 0);
        for p in [&x, &w, &b] {
            let analytic = p.grad();
            let (rows, cols) = analytic.shape();
            for row in 0..rows {
                for col in 0..cols {
                    let numeric = finite_diff(p, &loss_fn, row, col, 1e-2);
                    let a = analytic.get(row, col);
                    assert!(
                        (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                        "{} grad mismatch at ({row},{col}): analytic={a}, numeric={numeric}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn linear_backward_grads_matches_backward_bitwise() {
        let mut r = rng();
        let w1 = Parameter::new(Tensor::randn(6, 17, &mut r), "w1");
        let b1 = Parameter::new(Tensor::randn(1, 17, &mut r), "b1");
        let w2 = Parameter::new(Tensor::randn(17, 6, &mut r), "w2");
        let b2 = Parameter::new(Tensor::randn(1, 6, &mut r), "b2");
        let x = Tensor::randn(9, 6, &mut r);
        // A residual two-layer stack: the input receives two contributions.
        let loss = |tape: &Tape| {
            let input = tape.constant(x.clone());
            let hidden = input.linear(&w1, &b1).relu();
            input.add(&hidden.linear(&w2, &b2)).square().sum()
        };
        let params = [&w1, &b1, &w2, &b2];

        loss(&Tape::new()).backward();
        let reference: Vec<Tensor> = params.iter().map(|p| p.grad()).collect();
        for p in params {
            p.zero_grad();
        }
        let batch = loss(&Tape::new()).backward_grads();
        assert_eq!(batch.len(), params.len());
        for (p, expected) in params.iter().zip(&reference) {
            assert_eq!(p.grad().sum(), 0.0, "backward_grads touched {}", p.name());
            let collected = batch.get(p).expect("gradient for every parameter");
            assert_eq!(collected.as_slice(), expected.as_slice(), "{}", p.name());
        }
    }

    #[test]
    fn intermediate_gradients_survive_backward() {
        let w = Parameter::new(Tensor::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]), "w");
        let b = Parameter::new(Tensor::row(&[0.25, -0.5]), "b");
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.0]]));
        let hidden = x.linear(&w, &b);
        let activated = hidden.relu();
        activated.sum().backward();
        // d sum / d activated = 1; through relu the gradient keeps only the
        // positive pre-activations; the linear input gets G·Wᵀ.
        assert_eq!(activated.grad().unwrap(), Tensor::ones(2, 2));
        let h = hidden.value();
        let mask = h.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        assert_eq!(hidden.grad().unwrap(), mask);
        assert_eq!(
            x.grad().unwrap(),
            mask.matmul(&w.value().transpose()),
            "input gradient"
        );
    }

    #[test]
    fn sub_and_neg_gradients() {
        let p = Parameter::new(Tensor::row(&[2.0, 4.0]), "p");
        let tape = Tape::new();
        let x = tape.param(&p);
        let y = tape.constant(Tensor::row(&[1.0, 1.0]));
        y.sub(&x).sum().backward();
        assert_eq!(p.grad().as_slice(), &[-1.0, -1.0]);

        p.zero_grad();
        let tape = Tape::new();
        let x = tape.param(&p);
        x.neg().sum().backward();
        assert_eq!(p.grad().as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn ln_gradient() {
        let p = Parameter::new(Tensor::row(&[2.0, 4.0]), "p");
        let tape = Tape::new();
        let x = tape.param(&p);
        x.ln().sum().backward();
        let g = p.grad();
        assert!((g.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((g.get(0, 1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let p = Parameter::new(Tensor::row(&[1.0]), "p");
        for _ in 0..3 {
            let tape = Tape::new();
            let x = tape.param(&p);
            x.scale(2.0).sum().backward();
        }
        assert_eq!(p.grad().get(0, 0), 6.0);
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // y = x*x + x  => dy/dx = 2x + 1
        let p = Parameter::new(Tensor::row(&[3.0]), "p");
        let tape = Tape::new();
        let x = tape.param(&p);
        let y = x.mul(&x).add(&x).sum();
        y.backward();
        assert!((p.grad().get(0, 0) - 7.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn mixing_tapes_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.constant(Tensor::ones(1, 1));
        let b = t2.constant(Tensor::ones(1, 1));
        let _ = a.add(&b);
    }

    #[test]
    fn tape_len_tracks_nodes() {
        let tape = Tape::new();
        assert!(tape.is_empty());
        let a = tape.constant(Tensor::ones(1, 1));
        let _ = a.exp();
        assert_eq!(tape.len(), 2);
    }

    #[test]
    fn var_debug_contains_shape() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::ones(2, 3));
        assert!(format!("{a:?}").contains("(2, 3)"));
    }

    #[test]
    fn parameter_key_tracks_identity() {
        let p = Parameter::new(Tensor::zeros(1, 1), "a");
        let q = p.clone();
        let r = Parameter::new(Tensor::zeros(1, 1), "a");
        assert_eq!(p.key(), q.key());
        assert_ne!(p.key(), r.key());
    }

    #[test]
    fn backward_grads_matches_backward_bitwise() {
        let mut r = rng();
        let w = Parameter::new(Tensor::randn(3, 2, &mut r), "w");
        let x = Tensor::randn(4, 3, &mut r);

        // Reference: shared-accumulation backward.
        w.zero_grad();
        let tape = Tape::new();
        let out = tape.constant(x.clone()).matmul(&tape.param(&w));
        out.square().sum().backward();
        let reference = w.grad();
        w.zero_grad();

        // Detached collection must produce the identical tensor and leave
        // the parameter's shared gradient untouched.
        let tape = Tape::new();
        let out = tape.constant(x).matmul(&tape.param(&w));
        let batch = out.square().sum().backward_grads();
        assert_eq!(w.grad().sum(), 0.0);
        assert_eq!(batch.len(), 1);
        let collected = batch.get(&w).expect("gradient for w");
        assert_eq!(collected.as_slice(), reference.as_slice());

        // Applying the batch reproduces the shared-accumulation state.
        batch.apply();
        assert_eq!(w.grad().as_slice(), reference.as_slice());
    }

    #[test]
    fn backward_grads_dedupes_repeated_registration() {
        // The same parameter registered twice on one tape accumulates both
        // path gradients into a single entry.
        let p = Parameter::new(Tensor::row(&[2.0]), "p");
        let tape = Tape::new();
        let a = tape.param(&p);
        let b = tape.param(&p);
        let batch = a.mul(&b).sum().backward_grads();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.get(&p).unwrap().get(0, 0), 4.0);
    }

    #[test]
    fn grad_batch_merge_and_scale() {
        let p = Parameter::new(Tensor::row(&[0.0, 0.0]), "p");
        let q = Parameter::new(Tensor::row(&[0.0]), "q");
        let mut total = GradBatch::new();
        let mut part = GradBatch::new();
        total.accumulate(&p, &Tensor::row(&[1.0, 2.0]));
        part.accumulate(&p, &Tensor::row(&[0.5, 0.5]));
        part.accumulate(&q, &Tensor::row(&[3.0]));
        total.merge(&part);
        total.scale(2.0);
        assert_eq!(total.len(), 2);
        assert_eq!(total.get(&p).unwrap().as_slice(), &[3.0, 5.0]);
        assert_eq!(total.get(&q).unwrap().as_slice(), &[6.0]);
        assert_eq!(total.iter().count(), 2);
        assert!(!total.is_empty());
        assert!(GradBatch::new().is_empty());
    }
}
