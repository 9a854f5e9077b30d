//! A hash-sharded counted string set used for guess deduplication.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

/// Number of internal shards. A power of two so the shard index is a mask.
const NUM_SHARDS: usize = 16;

/// A multiset of generated guesses, split into `NUM_SHARDS` (16) independent
/// hash maps keyed by the guess's hash. Each distinct guess carries the
/// number of times the attack emitted it, which is what `PFGUESS v1` guess
/// archives persist.
///
/// The 16 shards bound peak memory: a growing shard rehashes at 1/16 of
/// the set's size, so the old and new tables held at once stay small. One
/// `HashMap<String, u64>` in their place raised the `guess` benchmark's
/// peak RSS from a median of 25.70 MB (25.64-26.90) to 29.0 MB
/// (28.66-30.03) over six alternating pairs, since its whole-size rehash
/// holds both arrays at once. Only the engine's calling thread touches
/// the set: it folds chunks into it, and smoothing's membership queries
/// run there too; the pool threads never read it.
///
/// Shard selection is deterministic (a fixed-seed SipHash of the string), so
/// unique counts never depend on thread scheduling.
#[derive(Debug)]
pub(crate) struct ShardedSet {
    shards: Vec<HashMap<String, u64>>,
    hasher: BuildHasherDefault<DefaultHasher>,
}

impl ShardedSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        ShardedSet {
            shards: (0..NUM_SHARDS).map(|_| HashMap::new()).collect(),
            hasher: BuildHasherDefault::default(),
        }
    }

    fn shard_of(&self, value: &str) -> usize {
        (self.hasher.hash_one(value) as usize) & (NUM_SHARDS - 1)
    }

    /// Counts one emission of `value` with a single shard probe: a repeat
    /// bumps its count, and a new value is shown to `on_new` and then
    /// stored with count 1.
    pub(crate) fn tally(&mut self, value: String, on_new: impl FnOnce(&str)) {
        let shard = self.shard_of(&value);
        match self.shards[shard].entry(value) {
            Entry::Occupied(mut e) => *e.get_mut() = e.get().saturating_add(1),
            Entry::Vacant(e) => {
                on_new(e.key());
                e.insert(1);
            }
        }
    }

    /// Restores a guess with an explicit emission count (checkpoint resume).
    /// Counts for an already-present guess accumulate.
    pub(crate) fn insert_with_count(&mut self, value: String, count: u64) {
        let shard = self.shard_of(&value);
        let slot = self.shards[shard].entry(value).or_insert(0);
        *slot = slot.saturating_add(count.max(1));
    }

    /// Returns `true` if `value` is in the set.
    pub(crate) fn contains(&self, value: &str) -> bool {
        self.shards[self.shard_of(value)].contains_key(value)
    }

    /// Total number of distinct values across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Every `(value, emission count)` in byte order: the one walk that
    /// both persisted forms (`PFATTACK` and `PFGUESS`) read. It borrows the
    /// values, so no guess is copied.
    pub(crate) fn sorted(&self) -> Vec<(&str, u64)> {
        let mut records = Vec::with_capacity(self.len());
        for shard in &self.shards {
            records.extend(shard.iter().map(|(k, &v)| (k.as_str(), v)));
        }
        records.sort_unstable_by(|a, b| a.0.cmp(b.0));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tallies `value`, returning whether `on_new` saw it as new.
    fn tally_is_new(set: &mut ShardedSet, value: &str) -> bool {
        let mut seen = None;
        set.tally(value.to_string(), |v| seen = Some(v.to_string()));
        if let Some(seen) = &seen {
            assert_eq!(seen, value, "on_new is shown the value itself");
        }
        seen.is_some()
    }

    #[test]
    fn insert_contains_len_round_trip() {
        let mut set = ShardedSet::new();
        assert_eq!(set.len(), 0);
        assert!(tally_is_new(&mut set, "123456"));
        assert!(!tally_is_new(&mut set, "123456"));
        assert!(tally_is_new(&mut set, "hunter2"));
        assert!(set.contains("123456"));
        assert!(!set.contains("letmein"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn counts_track_repeated_emissions() {
        let mut set = ShardedSet::new();
        for _ in 0..3 {
            tally_is_new(&mut set, "123456");
        }
        set.insert_with_count("hunter2".to_string(), 5);
        set.insert_with_count("hunter2".to_string(), 2);
        assert!(
            !tally_is_new(&mut set, "hunter2"),
            "a restored guess is not new"
        );
        set.insert_with_count("123456".to_string(), 0);
        assert_eq!(set.sorted(), vec![("123456", 4), ("hunter2", 8)]);
    }

    #[test]
    fn values_spread_across_shards() {
        let mut set = ShardedSet::new();
        for i in 0..10_000 {
            set.tally(format!("password{i}"), |_| {});
        }
        assert_eq!(set.len(), 10_000);
        let occupied = set.shards.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(occupied, NUM_SHARDS, "hashing should reach every shard");
        // No shard hogs the distribution (a loose balance bound).
        let max = set.shards.iter().map(HashMap::len).max().unwrap();
        assert!(max < 2 * 10_000 / NUM_SHARDS, "worst shard holds {max}");
    }

    #[test]
    fn sorted_yields_every_value_once_in_byte_order() {
        let mut set = ShardedSet::new();
        let mut expected = std::collections::BTreeMap::new();
        for i in 0..300u32 {
            // Repeats, plain ASCII and a two-byte lead character.
            let value = match i % 3 {
                0 => (i % 100).to_string(),
                1 => format!("é{i}"),
                _ => format!("Z{i}"),
            };
            set.tally(value.clone(), |_| {});
            *expected.entry(value).or_insert(0u64) += 1;
        }
        let sorted = set.sorted();
        assert_eq!(sorted.len(), set.len());
        assert!(sorted
            .windows(2)
            .all(|w| w[0].0.as_bytes() < w[1].0.as_bytes()));
        let expected: Vec<(&str, u64)> = expected.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        assert_eq!(sorted, expected);
    }
}
