//! A hash-sharded counted string set used for guess deduplication.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

/// Number of internal shards. A power of two so the shard index is a mask.
const NUM_SHARDS: usize = 16;

/// A multiset of generated guesses, split into `NUM_SHARDS` (16) independent
/// hash maps keyed by the guess's hash. Each distinct guess carries the
/// number of times the attack emitted it, which is what `PFGUESS v1` guess
/// archives persist.
///
/// The guessing attack inserts hundreds of millions of strings into this set
/// at paper scale; sharding keeps rehash pauses short (each shard rehashes
/// independently at 1/16 of the size). Only the engine's calling thread
/// touches the set: it folds chunks into it, and smoothing's membership
/// queries run there too; the pool threads never read it.
///
/// Shard selection is deterministic (a fixed-seed SipHash of the string), so
/// unique counts never depend on thread scheduling.
#[derive(Clone, Debug, Default)]
pub struct ShardedSet {
    shards: Vec<HashMap<String, u64>>,
    hasher: BuildHasherDefault<DefaultHasher>,
}

impl ShardedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ShardedSet {
            shards: (0..NUM_SHARDS).map(|_| HashMap::new()).collect(),
            hasher: BuildHasherDefault::default(),
        }
    }

    fn shard_of(&self, value: &str) -> usize {
        (self.hasher.hash_one(value) as usize) & (NUM_SHARDS - 1)
    }

    /// Inserts `value`, returning `true` if it was not present before. A
    /// repeated insert bumps the emission count instead of growing the set.
    pub fn insert(&mut self, value: String) -> bool {
        let shard = self.shard_of(&value);
        match self.shards[shard].entry(value) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() = e.get().saturating_add(1);
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(1);
                true
            }
        }
    }

    /// Restores a guess with an explicit emission count (checkpoint resume).
    /// Counts for an already-present guess accumulate.
    pub fn insert_with_count(&mut self, value: String, count: u64) {
        let shard = self.shard_of(&value);
        let slot = self.shards[shard].entry(value).or_insert(0);
        *slot = slot.saturating_add(count.max(1));
    }

    /// Bumps the count of an already-present guess without allocating,
    /// returning `true` when the guess was present (the fast dedup path).
    pub fn increment(&mut self, value: &str) -> bool {
        let shard = self.shard_of(value);
        match self.shards[shard].get_mut(value) {
            Some(count) => {
                *count = count.saturating_add(1);
                true
            }
            None => false,
        }
    }

    /// Returns `true` if `value` is in the set.
    pub fn contains(&self, value: &str) -> bool {
        self.shards[self.shard_of(value)].contains_key(value)
    }

    /// How many times `value` has been emitted, or 0 when absent.
    pub fn count_of(&self, value: &str) -> u64 {
        self.shards[self.shard_of(value)]
            .get(value)
            .copied()
            .unwrap_or(0)
    }

    /// Total number of distinct values across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Returns `true` if the set holds no values.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }

    /// Iterates over all values, shard by shard (no particular order).
    pub fn iter(&self) -> impl Iterator<Item = &String> {
        self.shards.iter().flat_map(HashMap::keys)
    }

    /// Iterates over `(value, emission count)` pairs (no particular order).
    pub fn iter_counted(&self) -> impl Iterator<Item = (&String, u64)> {
        self.shards
            .iter()
            .flat_map(HashMap::iter)
            .map(|(k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len_round_trip() {
        let mut set = ShardedSet::new();
        assert!(set.is_empty());
        assert!(set.insert("123456".to_string()));
        assert!(!set.insert("123456".to_string()));
        assert!(set.insert("hunter2".to_string()));
        assert!(set.contains("123456"));
        assert!(!set.contains("letmein"));
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn counts_track_repeated_emissions() {
        let mut set = ShardedSet::new();
        assert_eq!(set.count_of("123456"), 0);
        assert!(
            !set.increment("123456"),
            "bumping an absent guess is a no-op"
        );
        set.insert("123456".to_string());
        set.insert("123456".to_string());
        assert!(set.increment("123456"));
        assert_eq!(set.count_of("123456"), 3);
        set.insert_with_count("hunter2".to_string(), 5);
        set.insert_with_count("hunter2".to_string(), 2);
        assert_eq!(set.count_of("hunter2"), 7);
        let mut counted: Vec<(String, u64)> =
            set.iter_counted().map(|(k, v)| (k.clone(), v)).collect();
        counted.sort();
        assert_eq!(
            counted,
            vec![("123456".to_string(), 3), ("hunter2".to_string(), 7)]
        );
    }

    #[test]
    fn values_spread_across_shards() {
        let mut set = ShardedSet::new();
        for i in 0..10_000 {
            set.insert(format!("password{i}"));
        }
        assert_eq!(set.len(), 10_000);
        let occupied = set.shards.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(occupied, NUM_SHARDS, "hashing should reach every shard");
        // No shard hogs the distribution (a loose balance bound).
        let max = set.shards.iter().map(HashMap::len).max().unwrap();
        assert!(max < 2 * 10_000 / NUM_SHARDS, "worst shard holds {max}");
    }

    #[test]
    fn iter_yields_every_value_once() {
        let mut set = ShardedSet::new();
        for i in 0..100 {
            set.insert(i.to_string());
        }
        let mut values: Vec<u32> = set.iter().map(|v| v.parse().unwrap()).collect();
        values.sort_unstable();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
    }
}
