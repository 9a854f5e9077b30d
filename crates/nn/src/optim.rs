//! Optimizers.
//!
//! PassFlow is trained with Adam (learning rate 0.001, the paper's Section
//! IV-D); [`Sgd`] is provided for ablations and the WGAN baseline's critic.

use std::collections::HashMap;

use crate::autograd::Parameter;
use crate::error::{NnError, Result};
use crate::tensor::Tensor;

/// A first-order optimizer over a set of [`Parameter`]s.
///
/// Optimizers are stateful (momentum/Adam moments are keyed by parameter
/// identity), so reuse the same optimizer instance across steps.
pub trait Optimizer {
    /// Applies one update using the gradients currently accumulated in the
    /// parameters, then clears those gradients.
    fn step(&mut self, parameters: &[Parameter]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Changes the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Per-parameter optimizer state (two tensors per parameter) with O(1)
/// lookup by parameter identity.
///
/// The previous implementation scanned a `Vec` with `ptr_eq` on every
/// access, which made each optimizer step O(params²) pointer comparisons; a
/// flow-scale model has hundreds of parameter tensors and takes thousands of
/// steps, so the scan was measurable. The map is keyed by
/// [`Parameter::key`]; the entry retains a clone of the parameter, keeping
/// the key valid for the optimizer's lifetime.
#[derive(Debug, Default)]
struct StateMap {
    entries: Vec<(Parameter, Tensor, Tensor)>,
    index: HashMap<usize, usize>,
}

impl StateMap {
    /// Index of `p`'s state, inserting zero-initialized tensors of the given
    /// shape on first sight.
    fn index_or_insert(&mut self, p: &Parameter, rows: usize, cols: usize) -> usize {
        match self.index.entry(p.key()) {
            std::collections::hash_map::Entry::Occupied(slot) => *slot.get(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let i = self.entries.len();
                slot.insert(i);
                let zero = Tensor::zeros(rows, cols);
                self.entries.push((p.clone(), zero.clone(), zero));
                i
            }
        }
    }

    /// The state tensors for `p`, if present.
    fn get(&self, p: &Parameter) -> Option<(&Tensor, &Tensor)> {
        self.index
            .get(&p.key())
            .map(|&i| (&self.entries[i].1, &self.entries[i].2))
    }

    /// Replaces the state for `p` (inserting if absent).
    fn put(&mut self, p: &Parameter, first: Tensor, second: Tensor) {
        let i = self.index_or_insert(p, first.rows(), first.cols());
        self.entries[i].1 = first;
        self.entries[i].2 = second;
    }
}

// ---------------------------------------------------------------------------
// SGD
// ---------------------------------------------------------------------------

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    /// Per-parameter velocity (stored in the first state slot).
    velocity: StateMap,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd {
            lr,
            momentum,
            velocity: StateMap::default(),
        }
    }
}

impl Optimizer for Sgd {
    /// One fused in-place loop per parameter: `v ← v·μ + g`, `w ← w − v·lr`
    /// (or `w ← w − g·lr` without momentum).
    fn step(&mut self, parameters: &[Parameter]) {
        let (lr, momentum) = (self.lr, self.momentum);
        for p in parameters {
            p.update(|value, grad| {
                if momentum > 0.0 {
                    let idx = self.velocity.index_or_insert(p, grad.rows(), grad.cols());
                    let velocity = self.velocity.entries[idx].1.as_mut_slice();
                    for ((w, v), &g) in value.iter_mut().zip(velocity).zip(grad.as_slice()) {
                        *v = *v * momentum + g;
                        *w -= *v * lr;
                    }
                } else {
                    for (w, &g) in value.iter_mut().zip(grad.as_slice()) {
                        *w -= g * lr;
                    }
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

/// A snapshot of an [`Adam`] optimizer's state, aligned to a parameter
/// slice.
///
/// `moments[i]` holds the `(m, v)` moment estimates for the `i`-th parameter
/// of the slice the state was exported against. Checkpoints serialize this
/// snapshot so a resumed training run continues with bit-identical optimizer
/// dynamics (Adam's update depends on the running moments and the bias
///-correction step count, not just the weights).
#[derive(Clone, Debug, PartialEq)]
pub struct AdamState {
    /// Number of optimization steps taken when the state was exported.
    pub step_count: u64,
    /// Per-parameter `(first, second)` moment estimates, in parameter-slice
    /// order. Parameters never stepped yet export zero moments.
    pub moments: Vec<(Tensor, Tensor)>,
}

/// The Adam optimizer (Kingma & Ba, 2015), the paper's training optimizer.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: u64,
    /// Per-parameter first (m) and second (v) moment estimates.
    moments: StateMap,
    /// Optional gradient-clipping threshold (global L2 norm per parameter).
    clip_norm: Option<f32>,
}

impl Adam {
    /// Creates Adam with the standard hyper-parameters
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates Adam with explicit momentum coefficients.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            step_count: 0,
            moments: StateMap::default(),
            clip_norm: None,
        }
    }

    /// Enables per-parameter gradient clipping by L2 norm.
    ///
    /// Flow training occasionally produces spiky gradients when the
    /// log-determinant term grows; clipping keeps Adam's moment estimates
    /// sane. Returns `self` for builder-style chaining.
    #[must_use]
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        self.clip_norm = Some(max_norm);
        self
    }

    /// Number of optimization steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }

    /// Exports the optimizer state aligned to `parameters`.
    ///
    /// Parameters this optimizer has not stepped yet export zero moments, so
    /// the snapshot is always complete and a fresh optimizer loading it
    /// behaves exactly like this one.
    pub fn export_state(&self, parameters: &[Parameter]) -> AdamState {
        let moments = parameters
            .iter()
            .map(|p| match self.moments.get(p) {
                Some((m, v)) => (m.clone(), v.clone()),
                None => {
                    let (r, c) = {
                        let value = p.value();
                        value.shape()
                    };
                    (Tensor::zeros(r, c), Tensor::zeros(r, c))
                }
            })
            .collect();
        AdamState {
            step_count: self.step_count,
            moments,
        }
    }

    /// Restores a state snapshot exported by
    /// [`export_state`](Self::export_state) against the same parameter
    /// order. Existing state for those parameters is replaced.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::StateMismatch`] if the snapshot holds a different
    /// number of moment pairs than `parameters`, or
    /// [`NnError::ShapeMismatch`] if a moment tensor does not match its
    /// parameter's shape.
    pub fn load_state(&mut self, parameters: &[Parameter], state: &AdamState) -> Result<()> {
        if parameters.len() != state.moments.len() {
            return Err(NnError::StateMismatch {
                expected: parameters.len(),
                got: state.moments.len(),
            });
        }
        for (p, (m, v)) in parameters.iter().zip(state.moments.iter()) {
            let shape = p.value().shape();
            if m.shape() != shape || v.shape() != shape {
                return Err(NnError::ShapeMismatch {
                    op: "adam moment load",
                    lhs: shape,
                    rhs: m.shape(),
                });
            }
        }
        self.step_count = state.step_count;
        for (p, (m, v)) in parameters.iter().zip(state.moments.iter()) {
            self.moments.put(p, m.clone(), v.clone());
        }
        Ok(())
    }
}

impl Optimizer for Adam {
    /// One fused in-place loop per parameter. Per element, with `g` the
    /// (clipped) gradient:
    /// `m ← m·β₁ + g·(1−β₁)`, `v ← v·β₂ + g²·(1−β₂)`,
    /// `w ← w − (m·(1/b₁) / (√(v·(1/b₂)) + ε))·lr`, where `b₁`, `b₂` are
    /// the bias corrections. Clipping scales `g` by `max_norm / ‖g‖` when
    /// the norm exceeds `max_norm`.
    fn step(&mut self, parameters: &[Parameter]) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let (beta1, beta2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let (keep1, keep2) = (1.0 - beta1, 1.0 - beta2);
        let inv_bias1 = 1.0 / (1.0 - beta1.powf(t));
        let inv_bias2 = 1.0 / (1.0 - beta2.powf(t));

        for p in parameters {
            p.update(|value, grad| {
                let clip = self.clip_norm.and_then(|max_norm| {
                    let norm = grad.norm();
                    (norm > max_norm).then(|| max_norm / norm)
                });
                let idx = self.moments.index_or_insert(p, grad.rows(), grad.cols());
                let (_, m, v) = &mut self.moments.entries[idx];
                for (((w, m), v), &g) in value
                    .iter_mut()
                    .zip(m.as_mut_slice())
                    .zip(v.as_mut_slice())
                    .zip(grad.as_slice())
                {
                    let g = clip.map_or(g, |factor| g * factor);
                    *m = *m * beta1 + g * keep1;
                    *v = *v * beta2 + (g * g) * keep2;
                    let m_hat = *m * inv_bias1;
                    let v_hat = *v * inv_bias2;
                    *w -= (m_hat / (v_hat.sqrt() + eps)) * lr;
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;
    use crate::layers::{Linear, Module};
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    /// Minimizes f(w) = ||w - target||² from a fixed start with an optimizer
    /// and returns the final distance to the target.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Tensor::row(&[1.0, -2.0, 0.5]);
        let w = Parameter::new(Tensor::zeros(1, 3), "w");
        for _ in 0..steps {
            let tape = Tape::new();
            let wv = tape.param(&w);
            let t = tape.constant(target.clone());
            wv.sub(&t).square().sum().backward();
            opt.step(std::slice::from_ref(&w));
        }
        w.value().squared_distance(&target)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let dist = run_quadratic(&mut opt, 100);
        assert!(dist < 1e-6, "distance was {dist}");
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let dist = run_quadratic(&mut opt, 200);
        assert!(dist < 1e-4, "distance was {dist}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let dist = run_quadratic(&mut opt, 300);
        assert!(dist < 1e-3, "distance was {dist}");
        assert_eq!(opt.steps_taken(), 300);
    }

    #[test]
    fn adam_trains_a_linear_regression() {
        let mut r = rng();
        // y = x @ true_w
        let true_w = Tensor::randn(4, 1, &mut r);
        let x = Tensor::randn(64, 4, &mut r);
        let y = x.matmul(&true_w);

        let layer = Linear::new(4, 1, &mut r);
        let mut opt = Adam::new(0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..200 {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let yv = tape.constant(y.clone());
            let pred = layer.forward(&tape, &xv);
            let loss = pred.sub(&yv).square().mean();
            last_loss = loss.value().get(0, 0);
            loss.backward();
            opt.step(&layer.parameters());
        }
        assert!(last_loss < 1e-3, "final loss was {last_loss}");
    }

    #[test]
    fn step_clears_gradients() {
        let p = Parameter::new(Tensor::row(&[1.0]), "p");
        p.accumulate_grad(&Tensor::row(&[5.0]));
        let mut opt = Sgd::new(0.1);
        opt.step(std::slice::from_ref(&p));
        assert_eq!(p.grad().sum(), 0.0);
    }

    #[test]
    fn clip_norm_limits_update_magnitude() {
        let p = Parameter::new(Tensor::row(&[0.0, 0.0]), "p");
        p.accumulate_grad(&Tensor::row(&[300.0, 400.0])); // norm 500
        let mut clipped = Adam::new(1.0).with_clip_norm(1.0);
        clipped.step(std::slice::from_ref(&p));
        // First Adam step size is bounded by lr regardless, but the direction
        // must match the clipped gradient; verify values stay finite and small.
        assert!(p.value().abs().max() <= 1.0 + 1e-5);
        assert!(p.value().is_finite());
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);

        let mut sgd = Sgd::new(0.2);
        sgd.set_learning_rate(0.3);
        assert_eq!(sgd.learning_rate(), 0.3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_learning_rate_rejected() {
        let _ = Adam::new(0.0);
    }

    #[test]
    fn adam_state_export_load_round_trips_bitwise() {
        // Train two identical parameter sets: one continuously, one through
        // an export/load hand-off at the midpoint. Trajectories must be
        // bit-identical.
        let make_params = || {
            vec![
                Parameter::new(Tensor::row(&[0.2, -0.4, 0.8]), "a"),
                Parameter::new(Tensor::row(&[1.0, 1.0]), "b"),
            ]
        };
        let grads = |step: u64| {
            [
                Tensor::row(&[0.3 + step as f32 * 0.01, -0.2, 0.1]),
                Tensor::row(&[-0.5, 0.25 + step as f32 * 0.02]),
            ]
        };
        let run_steps = |opt: &mut Adam, params: &[Parameter], from: u64, to: u64| {
            for s in from..to {
                for (p, g) in params.iter().zip(grads(s).iter()) {
                    p.accumulate_grad(g);
                }
                opt.step(params);
            }
        };

        let continuous = make_params();
        let mut opt_a = Adam::new(0.05).with_clip_norm(1.0);
        run_steps(&mut opt_a, &continuous, 0, 20);

        let resumed = make_params();
        let mut opt_b = Adam::new(0.05).with_clip_norm(1.0);
        run_steps(&mut opt_b, &resumed, 0, 10);
        let state = opt_b.export_state(&resumed);
        let mut opt_c = Adam::new(0.05).with_clip_norm(1.0);
        opt_c.load_state(&resumed, &state).unwrap();
        assert_eq!(opt_c.steps_taken(), 10);
        run_steps(&mut opt_c, &resumed, 10, 20);

        for (p, q) in continuous.iter().zip(resumed.iter()) {
            let (pv, qv) = (p.value(), q.value());
            for (a, b) in pv.as_slice().iter().zip(qv.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Exported states also agree bitwise after the identical runs.
        assert_eq!(
            opt_a.export_state(&continuous).moments,
            opt_c.export_state(&resumed).moments
        );
    }

    #[test]
    fn adam_export_covers_unstepped_parameters_with_zeros() {
        let p = Parameter::new(Tensor::zeros(2, 3), "fresh");
        let opt = Adam::new(0.1);
        let state = opt.export_state(std::slice::from_ref(&p));
        assert_eq!(state.step_count, 0);
        assert_eq!(state.moments.len(), 1);
        assert_eq!(state.moments[0].0.shape(), (2, 3));
        assert_eq!(state.moments[0].0.sum(), 0.0);
    }

    #[test]
    fn adam_load_state_validates_alignment() {
        let p = Parameter::new(Tensor::row(&[1.0]), "p");
        let mut opt = Adam::new(0.1);
        let empty = AdamState {
            step_count: 3,
            moments: Vec::new(),
        };
        assert!(matches!(
            opt.load_state(std::slice::from_ref(&p), &empty),
            Err(crate::error::NnError::StateMismatch {
                expected: 1,
                got: 0
            })
        ));
        let wrong_shape = AdamState {
            step_count: 3,
            moments: vec![(Tensor::zeros(2, 2), Tensor::zeros(2, 2))],
        };
        assert!(matches!(
            opt.load_state(std::slice::from_ref(&p), &wrong_shape),
            Err(crate::error::NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn adam_state_tracks_parameters_independently() {
        let a = Parameter::new(Tensor::row(&[0.0]), "a");
        let b = Parameter::new(Tensor::row(&[0.0]), "b");
        let mut opt = Adam::new(0.1);
        a.accumulate_grad(&Tensor::row(&[1.0]));
        b.accumulate_grad(&Tensor::row(&[-1.0]));
        opt.step(&[a.clone(), b.clone()]);
        assert!(a.value().get(0, 0) < 0.0);
        assert!(b.value().get(0, 0) > 0.0);
    }
}
