//! Global top-N selection: per-partition partial top-N, then a merge on the
//! coordinator — the standard two-phase distributed top-N.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::dataset::{Data, Erased, Partitions};
use crate::error::Result;
use crate::exec::{map_partition_refs, ExecContext};
use crate::plan::DynOp;

/// Keep the `n` largest records according to a key function. Output lands
/// in partition 0, sorted descending by key.
pub struct TopNOp<T, K, KF> {
    n: usize,
    key_of: Arc<KF>,
    _types: PhantomData<fn(T) -> K>,
}

impl<T, K, KF> TopNOp<T, K, KF> {
    /// Operator keeping the `n` records with the largest keys.
    pub fn new(n: usize, key_of: KF) -> Self {
        TopNOp { n, key_of: Arc::new(key_of), _types: PhantomData }
    }
}

impl<T, K, KF> DynOp for TopNOp<T, K, KF>
where
    T: Data,
    K: PartialOrd + Send,
    KF: Fn(&T) -> K + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs[0].downcast::<T>("TopN")?;
        let key_of = &*self.key_of;
        let n = self.n;
        // Phase 1: per-partition partial top-N (parallel).
        let partials = map_partition_refs(input.as_parts(), ctx, |_, records| {
            let mut local: Vec<T> = records.to_vec();
            local.sort_by(|a, b| key_of(b).partial_cmp(&key_of(a)).expect("comparable keys"));
            local.truncate(n);
            local
        })?;
        // Phase 2: the partials travel to one coordinator and merge.
        let travelling: u64 =
            partials.iter().enumerate().skip(1).map(|(_, p)| p.len() as u64).sum();
        ctx.add_shuffled(travelling);
        let mut merged: Vec<T> = partials.into_iter().flatten().collect();
        merged.sort_by(|a, b| key_of(b).partial_cmp(&key_of(a)).expect("comparable keys"));
        merged.truncate(n);
        let mut parts = Partitions::empty(input.num_partitions());
        *parts.partition_mut(0) = merged;
        Ok(Erased::new(parts))
    }

    fn kind(&self) -> &'static str {
        "TopN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;

    fn ctx() -> ExecContext {
        ExecContext::new(EnvConfig::new(4).with_thread_threshold(0))
    }

    #[test]
    fn keeps_the_n_largest_in_order() {
        let input = Erased::new(Partitions::round_robin((0u64..100).collect(), 4));
        let mut op = TopNOp::new(3, |v: &u64| *v);
        let out = op.execute(vec![input], &ctx()).unwrap();
        assert_eq!(out.take::<u64>("t").unwrap().into_vec(), vec![99, 98, 97]);
    }

    #[test]
    fn n_larger_than_input_returns_everything() {
        let input = Erased::new(Partitions::round_robin(vec![3u64, 1, 2], 4));
        let mut op = TopNOp::new(10, |v: &u64| *v);
        let out = op.execute(vec![input], &ctx()).unwrap();
        assert_eq!(out.take::<u64>("t").unwrap().into_vec(), vec![3, 2, 1]);
    }

    #[test]
    fn float_keys_work() {
        let input =
            Erased::new(Partitions::round_robin(vec![(1u64, 0.5f64), (2, 0.9), (3, 0.1)], 2));
        let mut op = TopNOp::new(2, |r: &(u64, f64)| r.1);
        let out = op.execute(vec![input], &ctx()).unwrap();
        let v = out.take::<(u64, f64)>("t").unwrap().into_vec();
        assert_eq!(v[0].0, 2);
        assert_eq!(v[1].0, 1);
    }

    #[test]
    fn empty_input_is_empty() {
        let input = Erased::new(Partitions::<u64>::empty(3));
        let mut op = TopNOp::new(5, |v: &u64| *v);
        let out = op.execute(vec![input], &ctx()).unwrap();
        assert!(out.take::<u64>("t").unwrap().is_empty());
    }
}
