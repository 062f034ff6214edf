//! A keyed hash index: the build side of a join, kept.
//!
//! A hash join builds, per partition, a table from join key to the records
//! carrying it, then probes it with the other side. When the build side is
//! loop-invariant — the edges of a graph inside an iteration — the table is
//! the same every superstep, so [`crate::operators::JoinOp`] keeps it for as
//! long as its build input is the same allocation, and a caller that already
//! maintains such a table (the serving engine's live adjacency) can hand it
//! to a join directly ([`crate::api::DataSet::join_index`]) instead of
//! flattening it into records for the join to re-hash.

use std::hash::Hash;

use crate::hash::FxHashMap;
use crate::partition::hash_partition;

/// Records grouped by key, sharded by the key's hash partition.
///
/// Rows keep their records in arrival order, which is what makes a probe's
/// output order a function of the probe side alone.
#[derive(Debug, Clone)]
pub struct KeyedIndex<K, R> {
    shards: Vec<FxHashMap<K, Vec<R>>>,
}

impl<K, R> Default for KeyedIndex<K, R> {
    fn default() -> Self {
        KeyedIndex { shards: vec![FxHashMap::default()] }
    }
}

impl<K: Hash + Eq, R> KeyedIndex<K, R> {
    /// An empty single-shard index, for callers that maintain it row by row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap per-partition tables: `shards[p]` must hold exactly the keys
    /// with `hash_partition(key, shards.len()) == p`.
    pub(crate) fn from_shards(shards: Vec<FxHashMap<K, Vec<R>>>) -> Self {
        assert!(!shards.is_empty(), "an index needs at least one shard");
        KeyedIndex { shards }
    }

    fn shard_of(&self, key: &K) -> usize {
        match self.shards.len() {
            1 => 0,
            n => hash_partition(key, n),
        }
    }

    /// The records under `key` (empty when the key is absent).
    pub fn get(&self, key: &K) -> &[R] {
        self.shards[self.shard_of(key)].get(key).map_or(&[], Vec::as_slice)
    }

    /// [`Self::get`] for a probe running in partition `pid` of
    /// `parallelism`, whose keys all hash to `pid`: an index sharded the
    /// same way is read at `pid` without hashing the key a second time.
    pub(crate) fn get_in(&self, pid: usize, parallelism: usize, key: &K) -> &[R] {
        let shard = if self.shards.len() == parallelism { pid } else { self.shard_of(key) };
        self.shards[shard].get(key).map_or(&[], Vec::as_slice)
    }

    /// The row under `key`, created empty when absent. A row the caller
    /// leaves empty should be dropped again with [`Self::remove_row`].
    pub fn row_mut(&mut self, key: K) -> &mut Vec<R> {
        let shard = self.shard_of(&key);
        self.shards[shard].entry(key).or_default()
    }

    /// Drop the row under `key`, returning its records.
    pub fn remove_row(&mut self, key: &K) -> Option<Vec<R>> {
        let shard = self.shard_of(key);
        self.shards[shard].remove(key)
    }

    /// All rows, in no particular order.
    pub fn rows(&self) -> impl Iterator<Item = (&K, &[R])> {
        self.shards.iter().flatten().map(|(k, row)| (k, row.as_slice()))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// True when no key has a row.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FxHashMap::is_empty)
    }
}

impl<K: Hash + Eq, R> FromIterator<(K, Vec<R>)> for KeyedIndex<K, R> {
    /// A single-shard index over ready-made rows.
    fn from_iter<I: IntoIterator<Item = (K, Vec<R>)>>(rows: I) -> Self {
        KeyedIndex { shards: vec![rows.into_iter().collect()] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_created_read_and_dropped() {
        let mut index: KeyedIndex<u64, u64> = KeyedIndex::new();
        assert!(index.is_empty());
        index.row_mut(3).push(7);
        index.row_mut(3).push(9);
        assert_eq!(index.get(&3), &[7, 9]);
        assert_eq!(index.get(&4), &[] as &[u64]);
        assert_eq!(index.len(), 1);
        assert_eq!(index.remove_row(&3), Some(vec![7, 9]));
        assert!(index.is_empty());
    }

    #[test]
    fn sharded_and_single_shard_indexes_answer_alike() {
        let rows: Vec<(u64, Vec<u64>)> = (0..50).map(|k| (k, vec![k, k + 1])).collect();
        let single: KeyedIndex<u64, u64> = rows.iter().cloned().collect();
        let mut shards: Vec<FxHashMap<u64, Vec<u64>>> = vec![FxHashMap::default(); 4];
        for (k, row) in rows {
            shards[hash_partition(&k, 4)].insert(k, row);
        }
        let sharded = KeyedIndex::from_shards(shards);
        for k in 0..60u64 {
            let pid = hash_partition(&k, 4);
            assert_eq!(single.get(&k), sharded.get(&k));
            assert_eq!(single.get_in(pid, 4, &k), sharded.get_in(pid, 4, &k));
            // A probe at another parallelism falls back to hashing the key.
            assert_eq!(sharded.get_in(hash_partition(&k, 3), 3, &k), single.get(&k));
        }
        assert_eq!(single.len(), sharded.len());
        assert_eq!(single.rows().count(), 50);
    }
}
