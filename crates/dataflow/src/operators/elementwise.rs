//! Record-at-a-time operators: map, filter, flat-map, map-partition, and the
//! `measured` pass-through counter.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::dataset::{Data, Erased, Partitions};
use crate::error::Result;
use crate::exec::{map_partition_refs, ExecContext};
use crate::plan::DynOp;

/// Apply a function to every record.
pub struct MapOp<T, U, F> {
    f: Arc<F>,
    _types: PhantomData<fn(T) -> U>,
}

impl<T, U, F> MapOp<T, U, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        MapOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, U, F> DynOp for MapOp<T, U, F>
where
    T: Data,
    U: Data,
    F: Fn(&T) -> U + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs[0].downcast::<T>("Map")?;
        let f = &*self.f;
        let out = map_partition_refs(input.as_parts(), ctx, |_, records| {
            records.iter().map(f).collect::<Vec<U>>()
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Map"
    }
}

/// Keep records matching a predicate.
pub struct FilterOp<T, F> {
    f: Arc<F>,
    _types: PhantomData<fn(T)>,
}

impl<T, F> FilterOp<T, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        FilterOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, F> DynOp for FilterOp<T, F>
where
    T: Data,
    F: Fn(&T) -> bool + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs[0].downcast::<T>("Filter")?;
        let f = &*self.f;
        let out = map_partition_refs(input.as_parts(), ctx, |_, records| {
            records.iter().filter(|r| f(r)).cloned().collect::<Vec<T>>()
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Filter"
    }
}

/// Expand every record into zero or more output records.
pub struct FlatMapOp<T, U, F> {
    f: Arc<F>,
    _types: PhantomData<fn(T) -> U>,
}

impl<T, U, F> FlatMapOp<T, U, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        FlatMapOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, U, I, F> DynOp for FlatMapOp<T, U, F>
where
    T: Data,
    U: Data,
    I: IntoIterator<Item = U>,
    F: Fn(&T) -> I + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs[0].downcast::<T>("FlatMap")?;
        let f = &*self.f;
        let out = map_partition_refs(input.as_parts(), ctx, |_, records| {
            records.iter().flat_map(f).collect::<Vec<U>>()
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "FlatMap"
    }
}

/// Apply a function to whole partitions, with the partition id available —
/// the building block for partition-aware UDFs such as compensation probes.
pub struct MapPartitionOp<T, U, F> {
    f: Arc<F>,
    _types: PhantomData<fn(T) -> U>,
}

impl<T, U, F> MapPartitionOp<T, U, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        MapPartitionOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, U, F> DynOp for MapPartitionOp<T, U, F>
where
    T: Data,
    U: Data,
    F: Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs[0].downcast::<T>("MapPartition")?;
        let f = &*self.f;
        let out = map_partition_refs(input.as_parts(), ctx, |pid, records| f(pid, records))?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "MapPartition"
    }
}

/// Pass-through operator that adds its input cardinality to a named counter.
///
/// This instruments the exact quantity the paper plots: tagging the
/// label-to-neighbours output with `measured("messages")` records the
/// "number of messages (candidate labels sent to neighbours) per iteration".
pub struct MeasuredOp<T> {
    counter: String,
    _types: PhantomData<fn(T)>,
}

impl<T> MeasuredOp<T> {
    /// Operator over the given user function(s).
    pub fn new(counter: impl Into<String>) -> Self {
        MeasuredOp { counter: counter.into(), _types: PhantomData }
    }
}

impl<T: Data> DynOp for MeasuredOp<T> {
    fn execute(&mut self, mut inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let input = inputs.swap_remove(0);
        ctx.add_counter(&self.counter, input.downcast::<T>("Measured")?.total_len() as u64);
        Ok(input)
    }

    fn kind(&self) -> &'static str {
        "Measured"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;

    fn ctx() -> ExecContext {
        ExecContext::new(EnvConfig::new(3).with_thread_threshold(0))
    }

    fn input() -> Erased {
        Erased::new(Partitions::round_robin((0u64..10).collect(), 3))
    }

    #[test]
    fn map_transforms_all_records() {
        let mut op = MapOp::new(|n: &u64| n + 100);
        let out = op.execute(vec![input()], &ctx()).unwrap();
        let mut v = out.take::<u64>("t").unwrap().into_vec();
        v.sort_unstable();
        assert_eq!(v, (100..110).collect::<Vec<u64>>());
    }

    #[test]
    fn filter_keeps_matching() {
        let mut op = FilterOp::new(|n: &u64| n.is_multiple_of(2));
        let out = op.execute(vec![input()], &ctx()).unwrap();
        assert_eq!(out.downcast::<u64>("t").unwrap().total_len(), 5);
    }

    #[test]
    fn flat_map_can_shrink_and_grow() {
        let mut op = FlatMapOp::new(|n: &u64| if *n < 2 { vec![*n, *n] } else { vec![] });
        let out = op.execute(vec![input()], &ctx()).unwrap();
        let mut v = out.take::<u64>("t").unwrap().into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![0, 0, 1, 1]);
    }

    #[test]
    fn map_partition_sees_partition_ids() {
        let mut op = MapPartitionOp::new(|pid: usize, records: &[u64]| {
            vec![(pid as u64, records.len() as u64)]
        });
        let out = op.execute(vec![input()], &ctx()).unwrap();
        let mut v = out.take::<(u64, u64)>("t").unwrap().into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![(0, 4), (1, 3), (2, 3)]);
    }

    #[test]
    fn measured_counts_without_copying() {
        let c = ctx();
        let mut op = MeasuredOp::<u64>::new("messages");
        let i = input();
        let out = op.execute(vec![i], &c).unwrap();
        assert_eq!(out.downcast::<u64>("t").unwrap().total_len(), 10);
        let (counters, _) = c.drain();
        assert_eq!(counters.get("messages"), Some(&10));
    }

    #[test]
    fn map_preserves_partition_structure() {
        let mut op = MapOp::new(|n: &u64| *n);
        let out = op.execute(vec![input()], &ctx()).unwrap();
        let parts = out.take::<u64>("t").unwrap();
        assert_eq!(parts.partition_sizes(), vec![4, 3, 3]);
    }
}
