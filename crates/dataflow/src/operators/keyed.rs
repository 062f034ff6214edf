//! Keyed operators: shuffle by key, then work per partition.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::dataset::{Data, Erased, Partitions};
use crate::error::Result;
use crate::exec::{par_map, ExecContext};
use crate::hash::{fx_hash, FxHashMap};
use crate::partition::{exchange, Shuffled};
use crate::plan::DynOp;

/// Bound for operator key types.
pub trait KeyData: Data + Hash + Eq {}
impl<K: Data + Hash + Eq> KeyData for K {}

/// Run the keyed exchange over `input`'s partitions, timed as a shuffle and
/// accounted as shuffled traffic.
pub(crate) fn shuffle<T: Data, K: Hash>(
    input: Partitions<T>,
    ctx: &ExecContext,
    key_of: &(impl Fn(&T) -> K + Sync),
) -> Result<Shuffled<T>> {
    let p = input.num_partitions();
    let shuffled = ctx.time_shuffle(|| exchange(input.into_parts(), p, ctx, key_of))?;
    ctx.add_shuffled(shuffled.moved);
    Ok(shuffled)
}

/// Combine all records sharing a key into one, Flink's `reduce`:
/// `f(a, b)` must be associative and commutative.
///
/// After the exchange, each partition folds its records in arrival order,
/// one hash-map `entry` per record: a key's first record opens its group,
/// every later one is folded in as `f(group, record)`. So a float fold adds
/// in exactly the order the exchange delivered. The groups leave sorted by
/// their key's [`fx_hash`], computed once per group, so the output order
/// does not depend on the map's layout (the sort is stable: only distinct
/// keys with equal hashes, which `u64` keys never have, keep the map's
/// order).
pub struct ReduceByKeyOp<T, K, KF, F> {
    key_of: Arc<KF>,
    f: Arc<F>,
    _types: PhantomData<fn(T) -> K>,
}

impl<T, K, KF, F> ReduceByKeyOp<T, K, KF, F> {
    /// Operator over the given user function(s).
    pub fn new(key_of: KF, f: F) -> Self {
        ReduceByKeyOp { key_of: Arc::new(key_of), f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, K, KF, F> DynOp for ReduceByKeyOp<T, K, KF, F>
where
    T: Data,
    K: KeyData,
    KF: Fn(&T) -> K + Send + Sync + 'static,
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    fn execute(&mut self, mut inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs.swap_remove(0).take::<T>("ReduceByKey")?;
        let key_of = &*self.key_of;
        let shuffled = shuffle(input, ctx, key_of)?;
        let f = &*self.f;
        let work = shuffled.total_len();
        let out = par_map(shuffled.buckets, ctx, work, |_, buckets| {
            let mut groups: FxHashMap<K, Option<T>> = FxHashMap::default();
            for record in buckets.into_iter().flatten() {
                match groups.entry(key_of(&record)) {
                    Entry::Occupied(group) => {
                        let group = group.into_mut();
                        *group = group.take().map(|prev| f(prev, record));
                    }
                    Entry::Vacant(group) => {
                        group.insert(Some(record));
                    }
                }
            }
            let mut values: Vec<T> = groups.into_values().flatten().collect();
            values.sort_by_cached_key(|value| fx_hash(&key_of(value)));
            values
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Reduce"
    }
}

/// Keep one record per key (the first seen within its partition after the
/// shuffle), Flink's `distinct` over a key expression.
pub struct DistinctByOp<T, K, KF> {
    key_of: Arc<KF>,
    _types: PhantomData<fn(T) -> K>,
}

impl<T, K, KF> DistinctByOp<T, K, KF> {
    /// Operator over the given user function(s).
    pub fn new(key_of: KF) -> Self {
        DistinctByOp { key_of: Arc::new(key_of), _types: PhantomData }
    }
}

impl<T, K, KF> DynOp for DistinctByOp<T, K, KF>
where
    T: Data,
    K: KeyData,
    KF: Fn(&T) -> K + Send + Sync + 'static,
{
    fn execute(&mut self, mut inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs.swap_remove(0).take::<T>("Distinct")?;
        let key_of = &*self.key_of;
        let shuffled = shuffle(input, ctx, key_of)?;
        let work = shuffled.total_len();
        let out = par_map(shuffled.buckets, ctx, work, |_, buckets| {
            let mut seen: FxHashMap<K, ()> = FxHashMap::default();
            let mut kept = Vec::new();
            for record in buckets.into_iter().flatten() {
                if seen.insert(key_of(&record), ()).is_none() {
                    kept.push(record);
                }
            }
            kept
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Distinct"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use crate::partition::hash_partition;

    fn ctx() -> ExecContext {
        ExecContext::new(EnvConfig::new(4).with_thread_threshold(0))
    }

    #[test]
    fn reduce_by_key_sums_groups() {
        let input =
            Erased::new(Partitions::round_robin((0u64..20).map(|v| (v % 4, 1u64)).collect(), 4));
        let mut op = ReduceByKeyOp::new(
            |r: &(u64, u64)| r.0,
            |a: (u64, u64), b: (u64, u64)| (a.0, a.1 + b.1),
        );
        let out = op.execute(vec![input], &ctx()).unwrap();
        let mut v = out.take::<(u64, u64)>("t").unwrap().into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![(0, 5), (1, 5), (2, 5), (3, 5)]);
    }

    #[test]
    fn reduce_output_lands_in_key_partition() {
        let input = Erased::new(Partitions::round_robin((0u64..32).collect(), 4));
        let mut op = ReduceByKeyOp::new(|v: &u64| *v % 8, |a, _b| a);
        let out = op.execute(vec![input], &ctx()).unwrap();
        let parts = out.take::<u64>("t").unwrap();
        for (pid, records) in parts.iter() {
            for r in records {
                assert_eq!(hash_partition(&(*r % 8), 4), pid);
            }
        }
    }

    #[test]
    fn reduce_min_is_deterministic() {
        // min is order-insensitive; run twice and compare.
        let records: Vec<(u64, u64)> = (0..100).map(|v| (v % 10, v)).collect();
        let run = || {
            let input = Erased::new(Partitions::round_robin(records.clone(), 4));
            let mut op = ReduceByKeyOp::new(
                |r: &(u64, u64)| r.0,
                |a: (u64, u64), b: (u64, u64)| if a.1 <= b.1 { a } else { b },
            );
            op.execute(vec![input], &ctx()).unwrap().take::<(u64, u64)>("t").unwrap().into_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distinct_by_keeps_one_per_key() {
        let input = Erased::new(Partitions::round_robin(
            vec![(1u64, 'a'), (2, 'b'), (1, 'c'), (3, 'd'), (2, 'e')],
            2,
        ));
        let mut op = DistinctByOp::new(|r: &(u64, char)| r.0);
        let out = op.execute(vec![input], &ctx()).unwrap();
        let v = out.take::<(u64, char)>("t").unwrap().into_vec();
        let mut keys: Vec<u64> = v.iter().map(|r| r.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);
    }
}
