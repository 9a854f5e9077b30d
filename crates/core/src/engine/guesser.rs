//! The [`Guesser`] abstraction every password-guessing model implements,
//! plus the per-worker generation *sessions* that let models cache weight
//! snapshots and scratch buffers across batches.

use std::sync::Arc;

use rand::RngCore;

use passflow_nn::Tensor;
use passflow_store::format::{Fnv1aWriter, FNV_SEED};

use crate::fastpath::{FlowSnapshot, FlowWorkspace};
use crate::flow::PassFlow;

/// A trained password-guessing model that can generate candidate passwords
/// in batches.
///
/// The trait is object-safe, so the evaluation harness can hold a mixed
/// collection of models (`Vec<Box<dyn Guesser>>`) and drive them all through
/// the same [`Attack`](crate::Attack) protocol. `Send + Sync` are
/// supertraits because the engine fans generation out across shard threads.
///
/// Guesses may repeat; deduplication (and the resulting unique counts) is
/// the engine's responsibility, exactly as in the paper's Tables II and III.
pub trait Guesser: Send + Sync {
    /// Human-readable name used as the row label in tables
    /// (e.g. `"PassFlow"`, `"Markov (order 3)"`).
    fn name(&self) -> &str;

    /// Generates `n` password guesses.
    ///
    /// Implementations must draw all randomness from `rng` so the engine's
    /// per-chunk RNG streams keep attacks deterministic and shard-invariant.
    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String>;

    /// Returns the latent-space view of this guesser, if it has one.
    ///
    /// Strategies that condition the prior on matched guesses (Dynamic
    /// Sampling) or perturb colliding samples (Gaussian smoothing) need the
    /// operations of [`LatentGuesser`]; models without a latent space return
    /// `None` and can only run static strategies.
    fn as_latent(&self) -> Option<&dyn LatentGuesser> {
        None
    }

    /// Starts a per-worker [`GuessSession`], or `None` if the guesser is
    /// stateless (the engine then falls back to calling
    /// [`Guesser::generate_batch`] directly).
    ///
    /// A session may cache an immutable weight snapshot and scratch buffers,
    /// making steady-state generation lock- and allocation-free. Sessions
    /// **must** generate bit-identical guesses to `generate_batch` for the
    /// same RNG stream — the engine's results never depend on whether (or
    /// how often) sessions are restarted.
    fn start_session(&self) -> Option<Box<dyn GuessSession + '_>> {
        None
    }

    /// A digest of the guesser's generation-relevant state (typically its
    /// weights), recorded in `PFATTACK v1` attack checkpoints so resuming
    /// against a *different* model is a typed error instead of silently
    /// divergent output. `None` (the default) skips the check.
    ///
    /// The engine computes it only for an attack that checkpoints
    /// ([`Attack::checkpoint_to`](crate::Attack::checkpoint_to)) or
    /// resumes ([`Attack::resume`](crate::Attack::resume)).
    fn state_digest(&self) -> Option<u64> {
        None
    }
}

/// A per-worker generation context created by [`Guesser::start_session`].
///
/// `Send` (but not `Sync`) so the engine can keep one session per worker
/// thread alive across epochs; all mutability is session-local.
pub trait GuessSession: Send {
    /// Generates `n` guesses, reusing session buffers where possible.
    fn generate_batch(&mut self, n: usize, rng: &mut dyn RngCore) -> Vec<String>;
}

/// The fallback [`GuessSession`] for stateless guessers: a pass-through to
/// [`Guesser::generate_batch`].
pub struct StatelessSession<'g>(pub &'g dyn Guesser);

impl GuessSession for StatelessSession<'_> {
    fn generate_batch(&mut self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        self.0.generate_batch(n, rng)
    }
}

/// Extension trait for guessers backed by an invertible latent-variable
/// model (the flow, but also any future VAE/flow backend).
///
/// Exposing these three operations is enough for the engine to implement
/// Dynamic Sampling with penalization (Algorithm 1) and data-space Gaussian
/// smoothing (Section III-C) *outside* the model: the engine samples the
/// (possibly conditioned) prior itself, maps latents to data space through
/// [`LatentGuesser::latents_to_features`], and decodes / perturbs rows
/// individually.
pub trait LatentGuesser: Guesser {
    /// Dimensionality of the latent space.
    fn latent_dim(&self) -> usize;

    /// Maps a batch of latent rows to data-space feature rows (the flow's
    /// inverse pass).
    ///
    /// The output has one row per input row and
    /// [`latent_dim`](Self::latent_dim) columns, as a flow's data space is
    /// as wide as its latent space; the engine inverts into a buffer of
    /// that shape and panics on any other.
    ///
    /// Row `i` of the output must depend only on row `i` of the input, bit
    /// for bit, whatever the batch around it: the engine splits a batch
    /// into row blocks across workers and joins the results.
    fn latents_to_features(&self, z: &Tensor) -> Tensor;

    /// Decodes one data-space feature row into a password guess.
    fn decode_features(&self, features: &[f32]) -> String;

    /// Starts a per-worker [`LatentSession`], or `None` if the guesser has
    /// no cacheable inference state (the engine then falls back to
    /// [`LatentGuesser::latents_to_features`]).
    ///
    /// Sessions **must** map latents bit-identically to
    /// `latents_to_features`.
    fn start_latent_session(&self) -> Option<Box<dyn LatentSession + '_>> {
        None
    }
}

/// A per-worker latent-inference context created by
/// [`LatentGuesser::start_latent_session`].
///
/// As with [`LatentGuesser::latents_to_features`], the output is as wide as
/// the latent, and row `i` of it depends only on row `i` of the input: the
/// engine may invert one batch as contiguous row blocks, each through a
/// different worker's session.
pub trait LatentSession: Send {
    /// Maps a batch of latent rows to data-space feature rows, writing into
    /// `out` and reusing session scratch buffers.
    fn latents_to_features_into(&mut self, z: &Tensor, out: &mut Tensor);
}

/// The fallback [`LatentSession`] for guessers without cacheable state: a
/// pass-through to [`LatentGuesser::latents_to_features`].
pub struct StatelessLatentSession<'g>(pub &'g dyn LatentGuesser);

impl LatentSession for StatelessLatentSession<'_> {
    fn latents_to_features_into(&mut self, z: &Tensor, out: &mut Tensor) {
        *out = self.0.latents_to_features(z);
    }
}

/// The flow's generation session: a cached weight snapshot plus reusable
/// latent, feature and hidden-activation buffers. After the first batch
/// warms the buffers, generation performs no allocation inside the flow
/// (guess strings are still allocated, as they are the output).
///
/// The snapshot is revalidated against the flow's parameter version stamps
/// on every batch, so the session always generates from current weights —
/// bit-identically to [`Guesser::generate_batch`] — while unchanged weights
/// cost only a stamp comparison, not a re-export.
pub struct FlowSession<'f> {
    flow: &'f PassFlow,
    snapshot: Arc<FlowSnapshot>,
    ws: FlowWorkspace,
    z: Tensor,
    x: Tensor,
}

impl<'f> FlowSession<'f> {
    fn new(flow: &'f PassFlow) -> Self {
        FlowSession {
            flow,
            snapshot: flow.snapshot(),
            ws: FlowWorkspace::new(),
            z: Tensor::default(),
            x: Tensor::default(),
        }
    }

    /// Refreshes the cached snapshot if any parameter changed since it was
    /// exported (a lock-read plus `Arc` clone when weights are unchanged).
    fn refresh(&mut self) {
        if !self.snapshot.is_current() {
            self.snapshot = self.flow.snapshot();
        }
    }
}

impl GuessSession for FlowSession<'_> {
    fn generate_batch(&mut self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        // Bit-identical to `PassFlow::sample_passwords`: the prior draw
        // consumes the RNG exactly like `Tensor::randn`, and the snapshot
        // inverse is 0-ULP-exact with the reference inverse.
        self.refresh();
        Tensor::randn_into(n, self.snapshot.dim(), rng, &mut self.z);
        self.snapshot
            .inverse_into(&self.z, &mut self.ws, &mut self.x);
        (0..n)
            .map(|i| self.flow.encoder().decode(self.x.row_slice(i)))
            .collect()
    }
}

impl LatentSession for FlowSession<'_> {
    fn latents_to_features_into(&mut self, z: &Tensor, out: &mut Tensor) {
        self.refresh();
        self.snapshot.inverse_into(z, &mut self.ws, out);
    }
}

impl Guesser for PassFlow {
    fn name(&self) -> &str {
        "PassFlow"
    }

    fn generate_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<String> {
        self.sample_passwords(n, rng)
    }

    fn as_latent(&self) -> Option<&dyn LatentGuesser> {
        Some(self)
    }

    fn start_session(&self) -> Option<Box<dyn GuessSession + '_>> {
        Some(Box::new(FlowSession::new(self)))
    }

    fn state_digest(&self) -> Option<u64> {
        // FNV over the canonical serialized form, so the digest moves with
        // the weights (and with nothing else). The bytes stream through the
        // hash; none are buffered.
        let mut hash = Fnv1aWriter(FNV_SEED);
        crate::persist::save_flow_to_writer(self, &mut hash).ok()?;
        Some(hash.0)
    }
}

impl LatentGuesser for PassFlow {
    fn latent_dim(&self) -> usize {
        self.dim()
    }

    fn latents_to_features(&self, z: &Tensor) -> Tensor {
        self.inverse(z)
    }

    fn decode_features(&self, features: &[f32]) -> String {
        self.encoder().decode(features)
    }

    fn start_latent_session(&self) -> Option<Box<dyn LatentSession + '_>> {
        Some(Box::new(FlowSession::new(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use passflow_nn::rng as nnrng;

    #[test]
    fn trait_is_object_safe_and_usable_through_a_box() {
        struct Fixed;
        impl Guesser for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn generate_batch(&self, n: usize, _rng: &mut dyn RngCore) -> Vec<String> {
                vec!["123456".to_string(); n]
            }
        }

        let guessers: Vec<Box<dyn Guesser>> = vec![Box::new(Fixed)];
        let mut rng = nnrng::seeded(1);
        let out = guessers[0].generate_batch(3, &mut rng);
        assert_eq!(out.len(), 3);
        assert_eq!(guessers[0].name(), "fixed");
        assert!(guessers[0].as_latent().is_none());
    }

    #[test]
    fn passflow_exposes_its_latent_space() {
        let mut rng = nnrng::seeded(2);
        let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap();
        let latent = flow.as_latent().expect("flows have latent access");
        assert_eq!(latent.latent_dim(), flow.dim());

        // Latent round trip matches the flow's own sampling path.
        let z = flow.sample_latent(4, &mut rng);
        let x = latent.latents_to_features(&z);
        let decoded: Vec<String> = (0..4)
            .map(|i| latent.decode_features(x.row_slice(i)))
            .collect();
        assert_eq!(decoded, flow.decode_batch(&x));
    }

    #[test]
    fn state_digest_moves_with_the_weights() {
        let flow_a = PassFlow::new(FlowConfig::tiny(), &mut nnrng::seeded(5)).unwrap();
        let flow_b = PassFlow::new(FlowConfig::tiny(), &mut nnrng::seeded(6)).unwrap();
        assert!(flow_a.state_digest().is_some());
        assert_eq!(flow_a.state_digest(), flow_a.state_digest());
        assert_ne!(flow_a.state_digest(), flow_b.state_digest());
    }

    #[test]
    fn state_digest_is_the_fnv_of_the_saved_weights() {
        use passflow_store::format::fnv1a;
        // The literals pin the `PASSFLOW v1` bytes too, so every digest
        // already stored in a `PFATTACK` file stays valid.
        let pinned = [
            (FlowConfig::tiny(), 9_519_593_025_717_491_631u64),
            (FlowConfig::evaluation(), 3_065_149_513_416_091_374),
        ];
        for (config, digest) in pinned {
            let flow = PassFlow::new(config, &mut nnrng::seeded(8)).unwrap();
            let mut bytes = Vec::new();
            crate::persist::save_flow_to_writer(&flow, &mut bytes).unwrap();
            assert_eq!(flow.state_digest(), Some(fnv1a(FNV_SEED, &bytes)));
            assert_eq!(flow.state_digest(), Some(digest), "{:?}", flow.config());
        }
    }

    #[test]
    fn generate_batch_matches_static_sampling() {
        let mut rng_a = nnrng::seeded(3);
        let mut rng_b = nnrng::seeded(3);
        let flow = {
            let mut rng = nnrng::seeded(4);
            PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
        };
        assert_eq!(
            Guesser::generate_batch(&flow, 16, &mut rng_a),
            flow.sample_passwords(16, &mut rng_b)
        );
    }
}
