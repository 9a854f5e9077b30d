//! Parallel sharded wordlist scoring and the attack-engine bridge.

use std::collections::HashSet;

use crate::engine::{Attack, Guesser};
use crate::error::Result;

use super::{ProbabilityModel, SampleTable, StrengthEstimate};

/// Passwords scored per work chunk. Fixed (independent of the shard count)
/// so the chunk partition — and therefore every result — is shard-invariant.
const SCORE_CHUNK: usize = 512;

/// One scored wordlist entry.
#[derive(Clone, Debug, PartialEq)]
pub struct PasswordStrength {
    /// The password that was scored.
    pub password: String,
    /// Natural-log probability under the model, or `None` if the model
    /// cannot score this password.
    pub log_prob: Option<f64>,
    /// Guess-number estimate from the sample table (present iff
    /// `log_prob` is).
    pub estimate: Option<StrengthEstimate>,
}

/// Scores every password in `wordlist` against `model` and `table` on up to
/// `shards` worker threads, returning one [`PasswordStrength`] per input
/// password, in input order.
///
/// Mirroring the attack engine's guarantee, `shards` is a throughput knob
/// only: the wordlist is cut into fixed-size chunks, workers pull chunks
/// from a shared counter, and outputs are re-assembled in chunk order — so
/// `shards = 1` and `shards = 8` return identical results.
///
/// # Panics
///
/// Panics if `table` is empty.
pub fn score_wordlist(
    model: &dyn ProbabilityModel,
    table: &SampleTable,
    wordlist: &[String],
    shards: usize,
) -> Vec<PasswordStrength> {
    assert!(!table.is_empty(), "cannot score against an empty table");
    let chunks: Vec<&[String]> = wordlist.chunks(SCORE_CHUNK).collect();
    let mut workers = vec![(); passflow_nn::clamp_threads(shards)];
    passflow_nn::fan_out(chunks.len(), &mut workers, |i, _| {
        let chunk = chunks[i];
        let scores = model.password_log_probs(chunk);
        chunk
            .iter()
            .zip(scores)
            .map(|(password, log_prob)| PasswordStrength {
                password: password.clone(),
                log_prob,
                estimate: log_prob.map(|lp| table.estimate(lp)),
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Measures the **true** unique-guess rank of `target` under `guesser`
/// through the [`Attack`] engine: run a static sampling attack with a
/// single-guess batch size and a checkpoint after every guess, and report
/// the number of *unique* guesses generated when `target` first matched
/// (the target itself included).
///
/// This is the ground truth the sampling-rank estimator
/// ([`SampleTable::sampling_rank`]) predicts; `None` if the attack budget
/// ran out before the target fell.
///
/// # Errors
///
/// Propagates engine errors (none for static strategies on plain guessers).
pub fn attack_unique_rank(
    guesser: &dyn Guesser,
    target: &str,
    budget: u64,
    seed: u64,
) -> Result<Option<u64>> {
    let targets: HashSet<String> = std::iter::once(target.to_string()).collect();
    let mut rank: Option<u64> = None;
    Attack::new(&targets)
        .budget(budget)
        .batch_size(1)
        .checkpoints((1..=budget).collect())
        .seed(seed)
        .observer(|report| {
            if rank.is_none() && report.matched > 0 {
                rank = Some(report.unique);
            }
        })
        .run(guesser)?;
    Ok(rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use crate::flow::PassFlow;
    use passflow_nn::rng as nnrng;

    fn fixture() -> (PassFlow, SampleTable, Vec<String>) {
        let mut rng = nnrng::seeded(41);
        let flow = PassFlow::new(FlowConfig::tiny(), &mut rng).unwrap();
        let table = SampleTable::build(&flow, 2_000, 1);
        let wordlist = flow.sample_passwords(300, &mut rng);
        (flow, table, wordlist)
    }

    #[test]
    fn scoring_is_shard_invariant_and_ordered() {
        let (flow, table, wordlist) = fixture();
        let sequential = score_wordlist(&flow, &table, &wordlist, 1);
        assert_eq!(sequential.len(), wordlist.len());
        for (entry, pw) in sequential.iter().zip(wordlist.iter()) {
            assert_eq!(&entry.password, pw);
            assert_eq!(entry.log_prob.is_some(), entry.estimate.is_some());
        }
        for shards in [2, 4, 8] {
            let sharded = score_wordlist(&flow, &table, &wordlist, shards);
            assert_eq!(sharded, sequential, "shards={shards} diverged");
        }
    }

    #[test]
    fn flow_samples_always_score() {
        let (flow, table, wordlist) = fixture();
        let scored = score_wordlist(&flow, &table, &wordlist, 2);
        // Every password the flow itself generated is encodable, so every
        // entry carries a log-probability and an estimate.
        assert!(scored.iter().all(|e| e.estimate.is_some()));
    }

    #[test]
    fn attack_unique_rank_finds_likely_targets() {
        let (flow, _, _) = fixture();
        let mut rng = nnrng::seeded(42);
        // A password the flow just generated is likely to re-appear fast.
        let target = flow.sample_passwords(1, &mut rng).remove(0);
        let rank = attack_unique_rank(&flow, &target, 3_000, 9).unwrap();
        if let Some(rank) = rank {
            assert!((1..=3_000).contains(&rank));
        }
        // A target outside the alphabet can never match.
        let never = attack_unique_rank(&flow, "\u{1F512}password", 200, 9).unwrap();
        assert_eq!(never, None);
    }
}
