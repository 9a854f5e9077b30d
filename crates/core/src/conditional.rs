//! Conditional password guessing (the paper's Section VII future work).
//!
//! The paper notes that plain generative flows cannot directly perform
//! *conditional* guessing — completing a partially known password such as
//! `"jimmy**"` — and leaves conditional normalizing flows to future work.
//! This module implements the latent-space workaround that the flow's own
//! properties make possible today: because every (fully specified) candidate
//! has an exact latent representation and an exact likelihood, a template
//! can be completed by iteratively exploring the latent neighbourhood of
//! template-consistent seeds and ranking the survivors by model likelihood.
//!
//! The search is a form of dynamic sampling conditioned on the template:
//! candidates that satisfy the template become new pivots, concentrating the
//! search in the region of the latent space where consistent, high-density
//! passwords live.

use std::collections::HashSet;

use rand::Rng;

use crate::error::{FlowError, Result};
use crate::flow::PassFlow;
use passflow_nn::Tensor;

/// A partially known password: known characters plus wildcard positions.
///
/// Templates are written with `*` as the wildcard, e.g. `"jimmy**"` (a
/// 7-character password starting with "jimmy") or `"*assword"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PasswordTemplate {
    slots: Vec<Option<char>>,
}

impl PasswordTemplate {
    /// Parses a template string using `*` as the wildcard character.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] if the template is empty or has
    /// no wildcard (a fully specified template is just a password).
    pub fn parse(template: &str) -> Result<Self> {
        Self::parse_with_wildcard(template, '*')
    }

    /// Parses a template with a custom wildcard character.
    ///
    /// # Errors
    ///
    /// See [`PasswordTemplate::parse`].
    pub fn parse_with_wildcard(template: &str, wildcard: char) -> Result<Self> {
        if template.is_empty() {
            return Err(FlowError::InvalidConfig(
                "template must not be empty".into(),
            ));
        }
        let slots: Vec<Option<char>> = template
            .chars()
            .map(|c| if c == wildcard { None } else { Some(c) })
            .collect();
        if slots.iter().all(Option::is_some) {
            return Err(FlowError::InvalidConfig(
                "template has no wildcard positions".into(),
            ));
        }
        Ok(PasswordTemplate { slots })
    }

    /// Template length in characters.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` for the (unconstructible) empty template; present for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of unknown (wildcard) positions.
    pub fn num_wildcards(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// Returns `true` if `candidate` is consistent with the template: same
    /// length and matching characters at every known position.
    pub fn matches(&self, candidate: &str) -> bool {
        let chars: Vec<char> = candidate.chars().collect();
        if chars.len() != self.slots.len() {
            return false;
        }
        self.slots
            .iter()
            .zip(chars.iter())
            .all(|(slot, c)| slot.is_none_or(|known| known == *c))
    }

    /// Fills the wildcard positions with characters drawn uniformly from the
    /// flow's alphabet, producing a fully specified seed password.
    fn random_fill<R: Rng + ?Sized>(&self, flow: &PassFlow, rng: &mut R) -> String {
        let alphabet: Vec<char> = flow.encoder().alphabet().iter().collect();
        self.slots
            .iter()
            .map(|slot| match slot {
                Some(c) => *c,
                None => alphabet[rng.gen_range(0..alphabet.len())],
            })
            .collect()
    }
}

/// Configuration of the conditional guessing search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConditionalConfig {
    /// Number of random template fillings used to seed the search.
    pub num_seeds: usize,
    /// Latent samples drawn around each active pivot per round.
    pub samples_per_round: usize,
    /// Number of refinement rounds.
    pub rounds: usize,
    /// Standard deviation of the latent neighbourhood that is explored.
    pub sigma: f32,
}

impl Default for ConditionalConfig {
    fn default() -> Self {
        ConditionalConfig {
            num_seeds: 16,
            samples_per_round: 256,
            rounds: 4,
            sigma: 0.15,
        }
    }
}

/// A template completion proposed by [`conditional_guess`], ranked by the
/// flow's exact log-likelihood.
#[derive(Clone, Debug, PartialEq)]
pub struct ConditionalGuess {
    /// The completed password (consistent with the template).
    pub password: String,
    /// Exact log-likelihood under the flow.
    pub log_prob: f32,
}

/// Completes a partially known password by exploring the latent space.
///
/// Returns up to `max_results` template-consistent completions sorted by
/// decreasing model likelihood. The list may be shorter (or empty) when the
/// search finds few consistent candidates — e.g. for templates much longer
/// than the passwords the model was trained on.
///
/// # Errors
///
/// Returns [`FlowError::InvalidConfig`] if the template is longer than the
/// flow's maximum password length or contains characters outside the
/// alphabet.
pub fn conditional_guess<R: Rng + ?Sized>(
    flow: &PassFlow,
    template: &PasswordTemplate,
    config: &ConditionalConfig,
    max_results: usize,
    rng: &mut R,
) -> Result<Vec<ConditionalGuess>> {
    if template.len() > flow.encoder().max_len() {
        return Err(FlowError::InvalidConfig(format!(
            "template length {} exceeds the flow's maximum password length {}",
            template.len(),
            flow.encoder().max_len()
        )));
    }
    for c in template.slots.iter().flatten() {
        if flow.encoder().alphabet().index_of(*c).is_none() {
            return Err(FlowError::InvalidConfig(format!(
                "template character {c:?} is outside the flow's alphabet"
            )));
        }
    }

    // Seed pivots: random fillings of the template mapped into latent space.
    let mut pivots: Vec<Vec<f32>> = Vec::new();
    for _ in 0..config.num_seeds.max(1) {
        let seed = template.random_fill(flow, rng);
        if let Some(z) = flow.latent_of(&seed) {
            pivots.push(z);
        }
    }
    if pivots.is_empty() {
        return Err(FlowError::UnencodablePassword(
            "no template filling could be encoded".into(),
        ));
    }

    let dim = flow.dim();
    let mut seen: HashSet<String> = HashSet::new();
    let mut consistent: Vec<ConditionalGuess> = Vec::new();

    for _round in 0..config.rounds.max(1) {
        // Sample around every active pivot.
        let per_pivot = (config.samples_per_round / pivots.len().max(1)).max(1);
        let mut batch = Tensor::zeros(per_pivot * pivots.len(), dim);
        let mut rows = batch.as_mut_slice().chunks_exact_mut(dim);
        for pivot in &pivots {
            for row in rows.by_ref().take(per_pivot) {
                row.copy_from_slice(pivot);
                passflow_nn::rng::add_normal_noise(row, config.sigma, rng);
            }
        }
        let decoded = flow.decode_batch(&flow.inverse(&batch));

        // Keep template-consistent candidates; they become the next round's
        // pivots (conditioning the search on the evidence gathered so far).
        let mut next_pivots: Vec<Vec<f32>> = Vec::new();
        for (i, candidate) in decoded.iter().enumerate() {
            if !template.matches(candidate) || !seen.insert(candidate.clone()) {
                continue;
            }
            if let Some(log_prob) = flow.log_prob_password(candidate) {
                consistent.push(ConditionalGuess {
                    password: candidate.clone(),
                    log_prob,
                });
                next_pivots.push(batch.row_slice(i).to_vec());
            }
        }
        if !next_pivots.is_empty() {
            pivots = next_pivots;
        }
    }

    consistent.sort_by(|a, b| {
        b.log_prob
            .partial_cmp(&a.log_prob)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    consistent.truncate(max_results);
    Ok(consistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use passflow_nn::rng as nnrng;

    fn tiny_flow(seed: u64) -> PassFlow {
        let mut rng = nnrng::seeded(seed);
        PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn template_parsing_and_matching() {
        let t = PasswordTemplate::parse("jimmy**").unwrap();
        assert_eq!(t.len(), 7);
        assert_eq!(t.num_wildcards(), 2);
        assert!(!t.is_empty());
        assert!(t.matches("jimmy91"));
        assert!(t.matches("jimmyab"));
        assert!(!t.matches("jimmy9")); // wrong length
        assert!(!t.matches("jammy91")); // wrong known char
        let custom = PasswordTemplate::parse_with_wildcard("ab?cd", '?').unwrap();
        assert_eq!(custom.num_wildcards(), 1);
        assert!(custom.matches("abXcd"));
    }

    #[test]
    fn invalid_templates_are_rejected() {
        assert!(matches!(
            PasswordTemplate::parse(""),
            Err(FlowError::InvalidConfig(_))
        ));
        assert!(matches!(
            PasswordTemplate::parse("nostars"),
            Err(FlowError::InvalidConfig(_))
        ));
    }

    #[test]
    fn conditional_guesses_respect_the_template() {
        let flow = tiny_flow(1);
        let template = PasswordTemplate::parse("ji***1").unwrap();
        let mut rng = nnrng::seeded(2);
        let guesses = conditional_guess(
            &flow,
            &template,
            &ConditionalConfig {
                num_seeds: 8,
                samples_per_round: 128,
                rounds: 3,
                sigma: 0.3,
            },
            20,
            &mut rng,
        )
        .unwrap();
        for guess in &guesses {
            assert!(template.matches(&guess.password), "bad guess {guess:?}");
            assert!(guess.log_prob.is_finite());
        }
        // Results are sorted by decreasing likelihood and deduplicated.
        for pair in guesses.windows(2) {
            assert!(pair[0].log_prob >= pair[1].log_prob);
            assert_ne!(pair[0].password, pair[1].password);
        }
    }

    #[test]
    fn too_long_templates_and_foreign_characters_are_rejected() {
        let flow = tiny_flow(3);
        let mut rng = nnrng::seeded(4);
        let too_long = PasswordTemplate::parse("abcdefghij*").unwrap();
        assert!(
            conditional_guess(&flow, &too_long, &ConditionalConfig::default(), 5, &mut rng)
                .is_err()
        );
        let foreign = PasswordTemplate::parse("pässw*rd").unwrap();
        assert!(
            conditional_guess(&flow, &foreign, &ConditionalConfig::default(), 5, &mut rng).is_err()
        );
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let flow = tiny_flow(5);
        let template = PasswordTemplate::parse("a**").unwrap();
        let config = ConditionalConfig {
            num_seeds: 4,
            samples_per_round: 64,
            rounds: 2,
            sigma: 0.4,
        };
        let a = conditional_guess(&flow, &template, &config, 10, &mut nnrng::seeded(9)).unwrap();
        let b = conditional_guess(&flow, &template, &config, 10, &mut nnrng::seeded(9)).unwrap();
        assert_eq!(a, b);
    }
}
