//! A join's build side, kept: per-partition hash tables from join key to the
//! records carrying it.
//!
//! [`crate::operators::JoinOp`] builds one from its routed build input and
//! keeps it for as long as that input is the same allocation — inside an
//! iteration the edges of a graph are the same every superstep. A build side
//! that is indexed by key already (a graph's rows by vertex id) is never
//! copied into one: [`crate::api::DataSet::join_index`] probes any
//! `std::ops::Index<K, Output = [R]>` in place.

use std::hash::Hash;

use crate::hash::FxHashMap;
use crate::partition::hash_partition;

/// Records grouped by key, sharded by the key's hash partition.
///
/// Rows keep their records in arrival order, which is what makes a probe's
/// output order a function of the probe side alone.
pub(crate) struct KeyedIndex<K, R> {
    shards: Vec<FxHashMap<K, Vec<R>>>,
}

impl<K: Hash + Eq, R> KeyedIndex<K, R> {
    /// Wrap per-partition tables: `shards[p]` must hold exactly the keys
    /// with `hash_partition(key, shards.len()) == p`.
    pub(crate) fn from_shards(shards: Vec<FxHashMap<K, Vec<R>>>) -> Self {
        assert!(!shards.is_empty(), "an index needs at least one shard");
        KeyedIndex { shards }
    }

    /// The records under `key` (empty when the key is absent) for a probe
    /// running in partition `pid` of `parallelism`, whose keys all hash to
    /// `pid`: an index sharded the same way is read at `pid` without
    /// hashing the key a second time.
    pub(crate) fn get_in(&self, pid: usize, parallelism: usize, key: &K) -> &[R] {
        let n = self.shards.len();
        let shard = if n == parallelism { pid } else { hash_partition(key, n) };
        self.shards[shard].get(key).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Rows by dense id, the layout of a `graphs::Graph`: a build side that
    /// is indexed by key already, for [`crate::api::DataSet::join_index`].
    pub(crate) struct DenseRows(pub(crate) Vec<Vec<u64>>);

    impl std::ops::Index<u64> for DenseRows {
        type Output = [u64];

        fn index(&self, key: u64) -> &[u64] {
            &self.0[key as usize]
        }
    }

    #[test]
    fn a_sharded_index_answers_at_any_parallelism() {
        let mut shards: Vec<FxHashMap<u64, Vec<u64>>> = vec![FxHashMap::default(); 4];
        for k in 0..50u64 {
            shards[hash_partition(&k, 4)].insert(k, vec![k, k + 1]);
        }
        let index = KeyedIndex::from_shards(shards);
        for k in 0..60u64 {
            let expected: &[u64] = if k < 50 { &[k, k + 1] } else { &[] };
            assert_eq!(index.get_in(hash_partition(&k, 4), 4, &k), expected);
            // A probe at another parallelism falls back to hashing the key.
            assert_eq!(index.get_in(hash_partition(&k, 3), 3, &k), expected);
        }
    }
}
