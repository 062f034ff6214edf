//! Global aggregates: fold a whole dataset into a single record.
//!
//! The result is a one-record dataset living in partition 0; combine it with
//! [`crate::operators::BroadcastMapOp`] to feed a global value (e.g. the
//! dangling-rank mass in PageRank) back into per-record processing.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::dataset::{Data, Erased, Partitions};
use crate::error::Result;
use crate::exec::{map_partition_refs, ExecContext};
use crate::plan::DynOp;

/// Fold every record into an accumulator per partition, then combine the
/// per-partition accumulators into one.
pub struct GlobalFoldOp<T, A, FF, CF> {
    init: A,
    fold: Arc<FF>,
    combine: Arc<CF>,
    _types: PhantomData<fn(T) -> A>,
}

impl<T, A, FF, CF> GlobalFoldOp<T, A, FF, CF> {
    /// Operator over the given user function(s).
    pub fn new(init: A, fold: FF, combine: CF) -> Self {
        GlobalFoldOp { init, fold: Arc::new(fold), combine: Arc::new(combine), _types: PhantomData }
    }
}

impl<T, A, FF, CF> DynOp for GlobalFoldOp<T, A, FF, CF>
where
    T: Data,
    A: Data,
    FF: Fn(&mut A, &T) + Send + Sync + 'static,
    CF: Fn(&mut A, A) + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs[0].downcast::<T>("GlobalFold")?;
        let fold = &*self.fold;
        let init = &self.init;
        let partials = map_partition_refs(input.as_parts(), ctx, |_, records| {
            let mut acc = init.clone();
            for r in records {
                fold(&mut acc, r);
            }
            acc
        })?;
        // The per-partition partials travel to a single coordinator.
        ctx.add_shuffled(partials.len() as u64 - 1);
        let mut iter = partials.into_iter();
        let mut acc = iter.next().expect("at least one partition");
        for partial in iter {
            (self.combine)(&mut acc, partial);
        }
        let mut parts = Partitions::empty(input.num_partitions());
        parts.partition_mut(0).push(acc);
        Ok(Erased::new(parts))
    }

    fn kind(&self) -> &'static str {
        "GlobalFold"
    }
}

/// Count all records, producing a single `u64`.
pub struct CountOp<T> {
    _types: PhantomData<fn(T)>,
}

impl<T> CountOp<T> {
    /// Operator over the given user function(s).
    pub fn new() -> Self {
        CountOp { _types: PhantomData }
    }
}

impl<T> Default for CountOp<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Data> DynOp for CountOp<T> {
    fn execute(&mut self, inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let input = inputs[0].downcast::<T>("Count")?;
        let mut parts = Partitions::empty(input.num_partitions());
        parts.partition_mut(0).push(input.total_len() as u64);
        Ok(Erased::new(parts))
    }

    fn kind(&self) -> &'static str {
        "Count"
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
    fn global_fold_sums_across_partitions() {
        let input = Erased::new(Partitions::round_robin((1u64..=100).collect(), 4));
        let mut op = GlobalFoldOp::new(
            0u64,
            |acc: &mut u64, v: &u64| *acc += v,
            |acc: &mut u64, p| *acc += p,
        );
        let out = op.execute(vec![input], &ctx()).unwrap();
        let parts = out.take::<u64>("t").unwrap();
        assert_eq!(parts.total_len(), 1);
        assert_eq!(parts.partition(0), &[5050]);
    }

    #[test]
    fn global_fold_of_empty_input_yields_init() {
        let input = Erased::new(Partitions::<u64>::empty(3));
        let mut op = GlobalFoldOp::new(
            7u64,
            |_: &mut u64, _: &u64| {},
            |acc: &mut u64, p| *acc = (*acc).max(p),
        );
        let out = op.execute(vec![input], &ctx()).unwrap();
        assert_eq!(out.take::<u64>("t").unwrap().partition(0), &[7]);
    }

    #[test]
    fn count_counts() {
        let input = Erased::new(Partitions::round_robin(vec!['x'; 17], 4));
        let mut op = CountOp::<char>::new();
        let out = op.execute(vec![input], &ctx()).unwrap();
        assert_eq!(out.take::<u64>("t").unwrap().partition(0), &[17]);
    }
}
