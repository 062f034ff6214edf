//! Hash partitioning and the keyed exchange.
//!
//! Keyed operators repartition their inputs so that equal keys meet in the
//! same partition. They all do it through one function, [`exchange`]: each
//! source partition hashes its records once and scatters them into one
//! bucket per destination, sized by a count pass, as a task on the
//! environment's pool (or inline, by the same threading rule as any
//! partition task). Destination `t` then takes bucket `t` of every source in
//! source order, which is the order a sequential loop over the sources would
//! have pushed them in, so downstream folds see the same records in the
//! same order whatever the dispatch. The exchange is where "network traffic"
//! happens in a real cluster, so it reports how many records *moved* to a
//! different partition — co-partitioned inputs shuffle for free, exactly as
//! they would under Flink's partitioning properties.

use std::hash::Hash;

use crate::dataset::Partitions;
use crate::error::Result;
use crate::exec::{par_map_untimed, ExecContext};
use crate::hash::fx_hash;

/// Identifier of a partition (`0..parallelism`). Partition `i` models the
/// state held by worker `i`; a failure of worker `i` loses partition `i` of
/// every dataset involved in the running iteration.
pub type PartitionId = usize;

/// The partition a key belongs to, for a given parallelism.
///
/// Deterministic across runs and platforms (see [`crate::hash`]), which the
/// experiments rely on when they name the partitions to fail.
#[inline]
pub fn hash_partition<K: Hash + ?Sized>(key: &K, parallelism: usize) -> PartitionId {
    debug_assert!(parallelism > 0);
    // Fold the high bits in before taking the remainder: the multiply-based
    // FxHash mixes poorly into the low bits (`v * ODD mod 2^k == v mod 2^k`
    // up to an odd factor), which would make sequential keys land exactly
    // round-robin and hide all shuffle traffic.
    let h = fx_hash(key);
    (((h >> 32) ^ (h & 0xFFFF_FFFF)) % parallelism as u64) as PartitionId
}

/// Outcome of a shuffle: each destination partition's records, as the
/// buckets its sources sent it, plus traffic accounting.
pub struct Shuffled<T> {
    /// `buckets[t]` holds destination `t`'s records: the non-empty buckets
    /// its sources sent it, in source order. Reading them in turn reads the
    /// partition; [`Shuffled::into_partitions`] concatenates them.
    pub buckets: Vec<Vec<Vec<T>>>,
    /// Records that ended up in a different partition than they started in
    /// (i.e. records that would cross the network in a real deployment).
    pub moved: u64,
}

impl<T> Shuffled<T> {
    /// Records per destination partition.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(|buckets| buckets.iter().map(Vec::len).sum()).collect()
    }

    /// Records over all destinations.
    pub fn total_len(&self) -> usize {
        self.buckets.iter().flatten().map(Vec::len).sum()
    }

    /// Each destination's buckets as one partition. A destination that got
    /// a single bucket takes it as it is.
    pub fn into_partitions(self) -> Partitions<T> {
        let parts = self
            .buckets
            .into_iter()
            .map(|mut buckets| {
                if buckets.len() <= 1 {
                    return buckets.pop().unwrap_or_default();
                }
                let mut part = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
                for mut bucket in buckets {
                    part.append(&mut bucket);
                }
                part
            })
            .collect();
        Partitions::from_parts(parts)
    }
}

/// The keyed exchange: route every record of `sources` (one per partition)
/// to the partition of its key, among `parallelism`.
///
/// A source is an owned partition (`Vec<T>`: records move) or a borrowed
/// one (`&Vec<T>`: records are routed by reference). Each source hashes its
/// records once. A source whose records all go to one destination is handed
/// over whole, with no further pass; any other counts its records per
/// destination and scatters them into buckets of exactly that size.
/// Destination `t` receives bucket `t` of every source in source order (the
/// buckets are not copied into one vector: consumers read them in turn), so
/// its records and their order are those of a sequential loop over the
/// sources, and `moved` counts the records whose destination is not their
/// source's index.
///
/// The scatter runs one task per source on `ctx`'s pool when the threading
/// rule allows; its time is not a partition task's (callers time the whole
/// exchange with [`ExecContext::time_shuffle`]). A panicking key function
/// surfaces as [`crate::error::EngineError::PartitionPanic`] naming the
/// source partition.
pub fn exchange<S, T, R, K, KF>(
    sources: Vec<S>,
    parallelism: usize,
    ctx: &ExecContext,
    key_of: KF,
) -> Result<Shuffled<R>>
where
    S: AsRef<[T]> + IntoIterator<Item = R> + Send,
    R: Send,
    K: Hash,
    KF: Fn(&T) -> K + Sync,
{
    let work = sources.iter().map(|source| source.as_ref().len()).sum();
    let target = |record: &T| hash_partition(&key_of(record), parallelism);
    // Per source, what it sent where: the whole source to one destination,
    // or one bucket per destination (empty ones unallocated).
    let scattered = par_map_untimed(sources, ctx, work, |_, source| {
        let records = source.as_ref();
        let Some(first) = records.first().map(target) else {
            return (None, Vec::new());
        };
        let Some(split) = records[1..].iter().position(|r| target(r) != first) else {
            return (Some((first, source.into_iter().collect())), Vec::new());
        };
        let mut targets: Vec<u32> = Vec::with_capacity(records.len());
        targets.resize(split + 1, first as u32);
        targets.extend(records[split + 1..].iter().map(|r| target(r) as u32));
        let mut counts = vec![0usize; parallelism];
        for &t in &targets {
            counts[t as usize] += 1;
        }
        let mut buckets: Vec<Vec<R>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (record, &t) in source.into_iter().zip(&targets) {
            buckets[t as usize].push(record);
        }
        (None, buckets)
    })?;
    let mut buckets: Vec<Vec<Vec<R>>> = (0..parallelism).map(|_| Vec::new()).collect();
    let mut moved = 0u64;
    for (source, (whole, split)) in scattered.into_iter().enumerate() {
        let split = split.into_iter().enumerate().filter(|(_, bucket)| !bucket.is_empty());
        for (t, bucket) in whole.into_iter().chain(split) {
            if t != source {
                moved += bucket.len() as u64;
            }
            buckets[t].push(bucket);
        }
    }
    Ok(Shuffled { buckets, moved })
}

/// Copy every record of `input` into every partition (a broadcast).
/// All `p * n` copies count as moved traffic except the local ones.
pub fn broadcast<T: Clone>(input: &Partitions<T>, parallelism: usize) -> Shuffled<T> {
    let all: Vec<T> = input.iter_records().cloned().collect();
    let n = all.len() as u64;
    let buckets = (0..parallelism).map(|_| vec![all.clone()]).collect();
    // Each record already lived in exactly one partition, so `p - 1` copies
    // of each record travel.
    let moved = n * (parallelism as u64 - 1);
    Shuffled { buckets, moved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;

    /// The exchange, inline, of owned partitions.
    struct Moved<T> {
        parts: Partitions<T>,
        moved: u64,
    }

    fn shuffle_by_key<T: Send>(
        input: Partitions<T>,
        key_of: impl Fn(&T) -> u64 + Sync,
    ) -> Moved<T> {
        let p = input.num_partitions();
        let ctx = ExecContext::new(EnvConfig::new(p));
        let shuffled = exchange(input.into_parts(), p, &ctx, key_of).unwrap();
        Moved { moved: shuffled.moved, parts: shuffled.into_partitions() }
    }

    #[test]
    fn routing_by_reference_on_the_pool_places_records_like_moving_them_inline() {
        let input = Partitions::round_robin((0u64..5000).map(|v| v * 7 % 1013).collect(), 4);
        let pooled = ExecContext::new(EnvConfig::new(4).with_thread_threshold(0));
        let routed = exchange(input.as_parts().iter().collect(), 4, &pooled, |v: &u64| *v).unwrap();
        let moved = shuffle_by_key(input.clone(), |v| *v);
        assert_eq!(routed.moved, moved.moved);
        assert_eq!(routed.partition_sizes(), moved.parts.partition_sizes());
        for (pid, records) in moved.parts.iter() {
            let routed: Vec<u64> = routed.buckets[pid].iter().flatten().map(|r| **r).collect();
            assert_eq!(routed, records);
        }
    }

    #[test]
    fn a_destination_reads_one_bucket_per_source_that_sent_it_records() {
        // Source 0 sends to both destinations, source 1 only to its own.
        let input = Partitions::from_parts(vec![vec![0u64, 1, 2, 3], vec![5, 5]]);
        let target = |v: &u64| hash_partition(v, 2);
        let shuffled = shuffle_by_key(input.clone(), |v| *v);
        let ctx = ExecContext::new(EnvConfig::new(2));
        let raw = exchange(input.into_parts(), 2, &ctx, |v: &u64| *v).unwrap();
        for (t, buckets) in raw.buckets.iter().enumerate() {
            assert!(buckets.iter().all(|b| !b.is_empty() && b.iter().all(|v| target(v) == t)));
        }
        assert_eq!(raw.total_len(), 6);
        assert_eq!(shuffled.parts.total_len(), 6);
    }

    #[test]
    fn shuffle_groups_equal_keys() {
        let input = Partitions::round_robin((0u64..100).collect(), 4);
        let shuffled = shuffle_by_key(input, |v| *v % 10);
        for (_, records) in shuffled.parts.iter() {
            for r in records {
                assert_eq!(hash_partition(&(*r % 10), 4), hash_partition(&(records[0] % 10), 4));
            }
        }
        assert_eq!(shuffled.parts.total_len(), 100);
    }

    #[test]
    fn co_partitioned_input_moves_nothing() {
        // Pre-partition by key, then shuffle by the same key: zero traffic.
        let mut parts = Partitions::empty(4);
        for v in 0u64..50 {
            parts.partition_mut(hash_partition(&v, 4)).push(v);
        }
        let shuffled = shuffle_by_key(parts, |v| *v);
        assert_eq!(shuffled.moved, 0);
    }

    #[test]
    fn round_robin_input_mostly_moves() {
        let input = Partitions::round_robin((0u64..1000).collect(), 4);
        let shuffled = shuffle_by_key(input, |v| *v);
        // Statistically ~3/4 of records change partition.
        assert!(shuffled.moved > 500, "moved only {}", shuffled.moved);
    }

    #[test]
    fn broadcast_replicates_everywhere() {
        let input = Partitions::round_robin(vec![1u32, 2, 3], 2);
        let b = broadcast(&input, 4);
        let moved = b.moved;
        let parts = b.into_partitions();
        assert_eq!(parts.num_partitions(), 4);
        for (_, records) in parts.iter() {
            // Flattening visits partition 0 ([1, 3]) before partition 1 ([2]).
            assert_eq!(records, &[1, 3, 2]);
        }
        assert_eq!(moved, 3 * 3);
    }

    #[test]
    fn single_partition_shuffle_is_free() {
        let input = Partitions::round_robin((0u64..10).collect(), 1);
        let shuffled = shuffle_by_key(input, |v| *v);
        assert_eq!(shuffled.moved, 0);
        assert_eq!(shuffled.parts.num_partitions(), 1);
    }
}
