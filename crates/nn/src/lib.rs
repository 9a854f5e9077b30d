//! # passflow-nn
//!
//! A minimal deep-learning substrate built specifically for the PassFlow
//! reproduction. It provides:
//!
//! * [`Tensor`] — a dense, row-major 2-D `f32` tensor with the linear-algebra
//!   and elementwise operations a normalizing flow needs,
//! * [`Tape`] / [`Var`] — a reverse-mode automatic-differentiation tape,
//! * [`Parameter`] — trainable, shared parameters with accumulated gradients,
//! * layers ([`Linear`], [`ResidualBlock`], [`ResNet`], [`Sequential`]),
//! * optimizers ([`Sgd`], [`Adam`]),
//! * initializers ([`init`]) and RNG helpers ([`rng`]).
//!
//! The paper's coupling networks are small residual MLPs operating on
//! `batch × feature` matrices, so a 2-D tensor type is all that is required.
//! Gradients are exact (reverse-mode) and are verified against finite
//! differences in the test suite.
//!
//! ## Example
//!
//! ```rust
//! use passflow_nn::{Tape, Tensor, Linear, Module, Adam, Optimizer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let layer = Linear::new(4, 2, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! // One training step on a tiny regression problem.
//! let x = Tensor::randn(8, 4, &mut rng);
//! let target = Tensor::zeros(8, 2);
//!
//! let tape = Tape::new();
//! let input = tape.constant(x);
//! let out = layer.forward(&tape, &input);
//! let diff = out.sub(&tape.constant(target));
//! let loss = diff.square().mean();
//! loss.backward();
//! opt.step(&layer.parameters());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod autograd;
mod error;
pub mod init;
pub mod kernels;
mod layers;
pub mod math;
mod optim;
pub mod pool;
mod quant;
pub mod rng;
mod snapshot;
mod tensor;

pub use autograd::{GradBatch, Parameter, Tape, Var};
pub use error::{NnError, Result};
pub use layers::{Activation, ActivationKind, Linear, Module, ResNet, ResidualBlock, Sequential};
pub use optim::{Adam, AdamState, Optimizer, Sgd};
pub use pool::{clamp_lane_threads, clamp_threads, host_threads, resolve_threads, ThreadPool};
pub use quant::{QuantizedLinearSnapshot, QuantizedResNetSnapshot};
pub use snapshot::{
    BlockSnapshot, LinearSnapshot, LinearWeights, NetWorkspace, ResNetSnapshot, WeightSnapshot,
};
pub use tensor::Tensor;
