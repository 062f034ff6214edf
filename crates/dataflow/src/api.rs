//! The typed fluent dataflow API.
//!
//! An [`Environment`] owns a [`crate::plan::PlanGraph`]; every operator call
//! on a [`DataSet`] appends a node and returns a typed handle to it. Nothing
//! executes until [`DataSet::collect`] (or an iteration) is invoked.

use std::cell::RefCell;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::Index;
use std::rc::Rc;
use std::sync::Arc;

use crate::config::EnvConfig;
use crate::dataset::{Data, Erased, Partitions};
use crate::error::Result;
use crate::exec::{self, ExecContext};
use crate::ft::SolutionSets;
use crate::operators::{
    BroadcastMapOp, CoGroupOp, CountOp, CrossOp, DistinctByOp, FilterOp, FlatMapOp, GlobalFoldOp,
    IndexJoinOp, JoinOp, MapOp, MapPartitionOp, MeasuredOp, ReduceByKeyOp, SolutionJoinOp, UnionOp,
    VecSource,
};
use crate::plan::{DynOp, NodeId, PlanGraph};

pub(crate) struct EnvInner {
    pub(crate) graph: PlanGraph,
    pub(crate) config: EnvConfig,
}

/// A dataflow environment: the plan under construction plus its
/// configuration. Cloning an `Environment` clones a *handle*; all clones
/// build into the same plan.
#[derive(Clone)]
pub struct Environment {
    pub(crate) inner: Rc<RefCell<EnvInner>>,
}

impl Environment {
    /// Environment with the given parallelism and default configuration.
    pub fn new(parallelism: usize) -> Self {
        Environment::with_config(EnvConfig::new(parallelism))
    }

    /// Environment with an explicit configuration.
    pub fn with_config(config: EnvConfig) -> Self {
        Environment { inner: Rc::new(RefCell::new(EnvInner { graph: PlanGraph::new(), config })) }
    }

    /// The configured parallelism (number of partitions / simulated workers).
    pub fn parallelism(&self) -> usize {
        self.inner.borrow().config.parallelism
    }

    /// A copy of the configuration.
    pub fn config(&self) -> EnvConfig {
        self.inner.borrow().config.clone()
    }

    /// Source dataset distributed round-robin over the partitions.
    pub fn from_vec<T: Data>(&self, data: Vec<T>) -> DataSet<T> {
        let p = self.parallelism();
        self.from_partitions(Partitions::round_robin(data, p))
    }

    /// Source dataset hash-partitioned by a key up front, so downstream
    /// keyed operators on the same key shuffle nothing.
    pub fn from_keyed_vec<T: Data, K: Hash>(
        &self,
        data: Vec<T>,
        key_of: impl Fn(&T) -> K,
    ) -> DataSet<T> {
        let p = self.parallelism();
        let mut parts = Partitions::empty(p);
        for record in data {
            let pid = crate::partition::hash_partition(&key_of(&record), p);
            parts.partition_mut(pid).push(record);
        }
        self.from_partitions(parts)
    }

    /// Source dataset over explicit partitions.
    ///
    /// # Panics
    /// Panics when the partition count differs from the environment's
    /// parallelism.
    pub fn from_partitions<T: Data>(&self, parts: Partitions<T>) -> DataSet<T> {
        assert_eq!(
            parts.num_partitions(),
            self.parallelism(),
            "partition count must match environment parallelism"
        );
        self.add_node("source", vec![], Box::new(VecSource::new(parts)))
    }

    /// Source over an index the caller already maintains — anything that
    /// hands out the records under a key as `index[key]`, such as a graph's
    /// rows by vertex id — to be the build side of [`DataSet::join_index`].
    /// The index is shared, not copied.
    pub fn from_index<I: Send + Sync + 'static>(&self, index: Arc<I>) -> IndexHandle<I> {
        let op = Box::new(VecSource::erased(Erased::of(index)));
        let id = self.inner.borrow_mut().graph.add("index", vec![], op);
        Shared::new(self.clone(), id)
    }

    pub(crate) fn add_node<T: Data>(
        &self,
        name: impl Into<String>,
        inputs: Vec<NodeId>,
        op: Box<dyn DynOp>,
    ) -> DataSet<T> {
        let id = self.inner.borrow_mut().graph.add(name, inputs, op);
        DataSet { env: self.clone(), id, _type: PhantomData }
    }

    /// Append a hand-written [`DynOp`] to the plan and get a typed handle
    /// onto it. This is the escape hatch for execution backends that cannot
    /// be expressed as closures over records — e.g. the `cluster` crate's
    /// distributed-superstep operator, which owns TCP connections to worker
    /// processes. `inputs` are the plan nodes whose outputs the operator
    /// receives (pass the ids of iteration state slots to consume them);
    /// the caller promises the operator produces `Partitions<T>`.
    pub fn custom_node<T: Data>(
        &self,
        name: impl Into<String>,
        inputs: Vec<NodeId>,
        op: Box<dyn DynOp>,
    ) -> DataSet<T> {
        self.add_node(name, inputs, op)
    }

    /// Execute the plan up to `ds` and return its records (partition order).
    pub fn collect<T: Data>(&self, ds: &DataSet<T>) -> Result<Vec<T>> {
        Ok(self.collect_partitions(ds)?.into_vec())
    }

    /// Execute the plan up to `ds` and return the partitioned result.
    pub fn collect_partitions<T: Data>(&self, ds: &DataSet<T>) -> Result<Partitions<T>> {
        let mut inner = self.inner.borrow_mut();
        let ctx = ExecContext::new(inner.config.clone());
        let outputs = exec::execute(&mut inner.graph, &[ds.id], &ctx)?;
        outputs.into_iter().next().expect("one target requested").take::<T>("collect")
    }

    /// Render the dataflow feeding `ds` as an indented operator tree.
    pub fn explain<T>(&self, ds: &DataSet<T>) -> String {
        self.inner.borrow().graph.explain(ds.id)
    }
}

/// A typed handle onto a plan node whose output is one shared value of type
/// `T` rather than a partitioned dataset: a keyed index, or the solution
/// sets a delta iteration lends its loop body. Such a value can only be
/// joined against; it has no records to map or collect.
pub struct Shared<T> {
    env: Environment,
    id: NodeId,
    _type: PhantomData<fn() -> T>,
}

/// Handle onto a shared index in the plan (see [`Environment::from_index`]).
pub type IndexHandle<I> = Shared<Arc<I>>;

/// Handle onto the solution sets of a delta iteration, inside its loop body
/// (see [`crate::iterate::DeltaIteration::solution_set`]).
pub type SolutionHandle<K, V> = Shared<SolutionSets<K, V>>;

impl<T> Shared<T> {
    pub(crate) fn new(env: Environment, id: NodeId) -> Self {
        Shared { env, id, _type: PhantomData }
    }

    /// The node id inside the plan (exposed for iteration plumbing).
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The environment this value belongs to.
    pub fn environment(&self) -> Environment {
        self.env.clone()
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared::new(self.env.clone(), self.id)
    }
}

/// A typed handle onto one node of the dataflow plan.
pub struct DataSet<T> {
    pub(crate) env: Environment,
    pub(crate) id: NodeId,
    _type: PhantomData<fn() -> T>,
}

impl<T> Clone for DataSet<T> {
    fn clone(&self) -> Self {
        DataSet { env: self.env.clone(), id: self.id, _type: PhantomData }
    }
}

impl<T: Data> DataSet<T> {
    /// The node id inside the plan (exposed for iteration plumbing).
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The environment this dataset belongs to.
    pub fn environment(&self) -> Environment {
        self.env.clone()
    }

    fn unary<U: Data>(&self, name: impl Into<String>, op: Box<dyn DynOp>) -> DataSet<U> {
        self.env.add_node(name, vec![self.id], op)
    }

    fn binary<U: Data>(
        &self,
        name: impl Into<String>,
        other_id: NodeId,
        op: Box<dyn DynOp>,
    ) -> DataSet<U> {
        self.env.add_node(name, vec![self.id, other_id], op)
    }

    /// Apply `f` to every record.
    pub fn map<U, F>(&self, name: impl Into<String>, f: F) -> DataSet<U>
    where
        U: Data,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        self.unary(name, Box::new(MapOp::new(f)))
    }

    /// Keep records for which `f` returns true.
    pub fn filter<F>(&self, name: impl Into<String>, f: F) -> DataSet<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.unary(name, Box::new(FilterOp::new(f)))
    }

    /// Expand every record into zero or more outputs: `f` returns anything
    /// iterable — an `Option` for at most one output, a `Vec`, an array, an
    /// iterator — and its items are appended in order. Returning an
    /// `Option` or an iterator allocates nothing per record.
    pub fn flat_map<U, I, F>(&self, name: impl Into<String>, f: F) -> DataSet<U>
    where
        U: Data,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync + 'static,
    {
        self.unary(name, Box::new(FlatMapOp::new(f)))
    }

    /// Apply `f` to whole partitions, with the partition id available.
    pub fn map_partition<U, F>(&self, name: impl Into<String>, f: F) -> DataSet<U>
    where
        U: Data,
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    {
        self.unary(name, Box::new(MapPartitionOp::new(f)))
    }

    /// Pass through unchanged while adding the record count to the named
    /// per-superstep counter (see [`crate::stats::IterationStats::counters`]).
    pub fn measured(&self, counter: &str) -> DataSet<T> {
        self.unary(format!("measured:{counter}"), Box::new(MeasuredOp::<T>::new(counter)))
    }

    /// Combine all records with equal keys using an associative,
    /// commutative function.
    pub fn reduce_by_key<K, KF, F>(&self, name: impl Into<String>, key_of: KF, f: F) -> DataSet<T>
    where
        K: Data + Hash + Eq,
        KF: Fn(&T) -> K + Send + Sync + 'static,
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        self.unary(name, Box::new(ReduceByKeyOp::new(key_of, f)))
    }

    /// Keep one record per key.
    pub fn distinct_by<K, KF>(&self, name: impl Into<String>, key_of: KF) -> DataSet<T>
    where
        K: Data + Hash + Eq,
        KF: Fn(&T) -> K + Send + Sync + 'static,
    {
        self.unary(name, Box::new(DistinctByOp::new(key_of)))
    }

    /// Equi-join with `other`; `f` runs for every pair with equal keys.
    pub fn join<R, K, KL, KR, O, F>(
        &self,
        name: impl Into<String>,
        other: &DataSet<R>,
        key_left: KL,
        key_right: KR,
        f: F,
    ) -> DataSet<O>
    where
        R: Data,
        K: Data + Hash + Eq,
        KL: Fn(&T) -> K + Send + Sync + 'static,
        KR: Fn(&R) -> K + Send + Sync + 'static,
        O: Data,
        F: Fn(&T, &R) -> O + Send + Sync + 'static,
    {
        self.binary(name, other.id, Box::new(JoinOp::new(key_left, key_right, f)))
    }

    /// Equi-join with an already-built index as the build side: `f` runs
    /// for every record of this dataset paired with every record of
    /// `index[key]`, in this dataset's (routed) order. Nothing is built and
    /// the index is not copied; every key this dataset carries must be one
    /// the index answers for.
    pub fn join_index<I, R, K, KL, O, F>(
        &self,
        name: impl Into<String>,
        index: &IndexHandle<I>,
        key_left: KL,
        f: F,
    ) -> DataSet<O>
    where
        I: Index<K, Output = [R]> + Send + Sync + 'static,
        R: Data,
        K: Data + Hash + Eq,
        KL: Fn(&T) -> K + Send + Sync + 'static,
        O: Data,
        F: Fn(&T, &R) -> O + Send + Sync + 'static,
    {
        self.binary(name, index.id, Box::new(IndexJoinOp::<T, I, K, KL, O, F>::new(key_left, f)))
    }

    /// Join with the solution set of the enclosing delta iteration: `f`
    /// runs for every record of this dataset whose key has a solution
    /// entry, with that entry's current value. The entry is looked up in
    /// the iteration's own maps, so a superstep pays for the records that
    /// arrive here, not for the size of the solution.
    pub fn join_solution<K, V, KL, O, F>(
        &self,
        name: impl Into<String>,
        solution: &SolutionHandle<K, V>,
        key_left: KL,
        f: F,
    ) -> DataSet<O>
    where
        K: Data + Hash + Eq,
        V: Data,
        KL: Fn(&T) -> K + Send + Sync + 'static,
        O: Data,
        F: Fn(&T, &V) -> O + Send + Sync + 'static,
    {
        let op = SolutionJoinOp::<T, K, V, KL, O, F>::new(key_left, f);
        self.binary(name, solution.id, Box::new(op))
    }

    /// Group both sides by key and hand `f` the two groups for every key
    /// present on either side.
    pub fn co_group<R, K, KL, KR, O, F>(
        &self,
        name: impl Into<String>,
        other: &DataSet<R>,
        key_left: KL,
        key_right: KR,
        f: F,
    ) -> DataSet<O>
    where
        R: Data,
        K: Data + Hash + Eq + Ord,
        KL: Fn(&T) -> K + Send + Sync + 'static,
        KR: Fn(&R) -> K + Send + Sync + 'static,
        O: Data,
        F: Fn(&K, &[T], &[R]) -> Vec<O> + Send + Sync + 'static,
    {
        self.binary(name, other.id, Box::new(CoGroupOp::new(key_left, key_right, f)))
    }

    /// Cartesian product with `other` (right side is broadcast).
    pub fn cross<R, O, F>(&self, name: impl Into<String>, other: &DataSet<R>, f: F) -> DataSet<O>
    where
        R: Data,
        O: Data,
        F: Fn(&T, &R) -> O + Send + Sync + 'static,
    {
        self.binary(name, other.id, Box::new(CrossOp::new(f)))
    }

    /// Map with a broadcast side input: `f` sees every record of `side`.
    pub fn map_with_broadcast<B, U, F>(
        &self,
        name: impl Into<String>,
        side: &DataSet<B>,
        f: F,
    ) -> DataSet<U>
    where
        B: Data,
        U: Data,
        F: Fn(&T, &[B]) -> U + Send + Sync + 'static,
    {
        self.binary(name, side.id, Box::new(BroadcastMapOp::new(f)))
    }

    /// Concatenate with `other`, partition-wise.
    pub fn union(&self, name: impl Into<String>, other: &DataSet<T>) -> DataSet<T> {
        self.binary(name, other.id, Box::new(UnionOp::<T>::new()))
    }

    /// Fold everything into a single record (one-record dataset).
    pub fn global_fold<A, FF, CF>(
        &self,
        name: impl Into<String>,
        init: A,
        fold: FF,
        combine: CF,
    ) -> DataSet<A>
    where
        A: Data,
        FF: Fn(&mut A, &T) + Send + Sync + 'static,
        CF: Fn(&mut A, A) + Send + Sync + 'static,
    {
        self.unary(name, Box::new(GlobalFoldOp::new(init, fold, combine)))
    }

    /// Count all records (one-record dataset).
    pub fn count(&self, name: impl Into<String>) -> DataSet<u64> {
        self.unary(name, Box::new(CountOp::<T>::new()))
    }

    /// Execute the plan and return this dataset's records.
    pub fn collect(&self) -> Result<Vec<T>> {
        self.env.collect(self)
    }

    /// Execute the plan and return this dataset's partitions.
    pub fn collect_partitions(&self) -> Result<Partitions<T>> {
        self.env.collect_partitions(self)
    }

    /// Render the dataflow feeding this dataset.
    pub fn explain(&self) -> String {
        self.env.explain(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_count_end_to_end() {
        let env = Environment::new(4);
        let lines = env.from_vec(vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the fox".to_string(),
        ]);
        let counts = lines
            .flat_map("tokenize", |line: &String| {
                line.split_whitespace().map(|w| (w.to_string(), 1u64)).collect::<Vec<_>>()
            })
            .reduce_by_key("count", |r| r.0.clone(), |a, b| (a.0, a.1 + b.1));
        let mut out = counts.collect().unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                ("brown".into(), 1),
                ("dog".into(), 1),
                ("fox".into(), 2),
                ("lazy".into(), 1),
                ("quick".into(), 1),
                ("the".into(), 3u64),
            ]
        );
    }

    #[test]
    fn chained_transforms() {
        let env = Environment::new(2);
        let out = env
            .from_vec((0u64..10).collect())
            .map("inc", |n| n + 1)
            .filter("odd", |n| n % 2 == 1)
            .flat_map("dup", |n| vec![*n, *n])
            .collect()
            .unwrap();
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|n| n % 2 == 1));
    }

    #[test]
    fn join_and_union_compose() {
        let env = Environment::new(3);
        let people = env.from_vec(vec![(1u64, "ada".to_string()), (2, "grace".to_string())]);
        let cities = env.from_vec(vec![(1u64, "london".to_string()), (2, "ny".to_string())]);
        let joined = people.join(
            "lives-in",
            &cities,
            |p| p.0,
            |c| c.0,
            |p, c| format!("{} lives in {}", p.1, c.1),
        );
        let more = env.from_vec(vec!["extra".to_string()]);
        let mut out = joined.union("all", &more).collect().unwrap();
        out.sort();
        assert_eq!(out, vec!["ada lives in london", "extra", "grace lives in ny"]);
    }

    #[test]
    fn from_keyed_vec_is_co_partitioned() {
        let env = Environment::new(4);
        let ds = env.from_keyed_vec((0u64..100).collect(), |v| *v);
        let parts = ds.collect_partitions().unwrap();
        for (pid, records) in parts.iter() {
            for r in records {
                assert_eq!(crate::partition::hash_partition(r, 4), pid);
            }
        }
    }

    #[test]
    fn count_and_global_fold() {
        let env = Environment::new(4);
        let ds = env.from_vec((1u64..=10).collect());
        assert_eq!(ds.count("n").collect().unwrap(), vec![10]);
        let sum = ds.global_fold("sum", 0u64, |a, v| *a += v, |a, p| *a += p);
        assert_eq!(sum.collect().unwrap(), vec![55]);
    }

    #[test]
    fn explain_names_the_operators() {
        let env = Environment::new(2);
        let ds = env.from_vec(vec![1u64]).map("double", |n| n * 2).filter("positive", |_| true);
        let text = ds.explain();
        assert!(text.contains("positive [Filter]"));
        assert!(text.contains("double [Map]"));
        assert!(text.contains("source [Source]"));
    }

    #[test]
    fn measured_feeds_named_counter() {
        // Counters are drained per-collect; verified end-to-end in the
        // iteration tests. Here: just ensure the plan builds and runs.
        let env = Environment::new(2);
        let out = env.from_vec(vec![1u64, 2, 3]).measured("messages").collect().unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "partition count")]
    fn mismatched_partitions_rejected() {
        let env = Environment::new(4);
        let _ = env.from_partitions(Partitions::round_robin(vec![1u8], 2));
    }
}
