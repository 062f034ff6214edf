//! Plan execution: context, counters, per-partition parallelism, and the
//! topological executor.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use telemetry::metrics::{Histogram, PartitionedHistogram};

use crate::config::EnvConfig;
use crate::dataset::Erased;
use crate::error::{EngineError, Result};
use crate::partition::Shuffled;
use crate::plan::{NodeId, PlanGraph};

/// Shared execution state handed to every operator.
///
/// Counters are cheap to update (batched per partition, not per record) and
/// are drained by the iteration executors at superstep boundaries.
pub struct ExecContext {
    /// Engine configuration (parallelism, threading knobs).
    pub config: EnvConfig,
    counters: Mutex<BTreeMap<String, u64>>,
    shuffled: AtomicU64,
    /// Nanoseconds spent in operators that shuffled records, accumulated
    /// per superstep and drained by the iteration executors.
    shuffle_ns: AtomicU64,
    /// Pre-resolved per-partition task-latency histogram (`None` when
    /// telemetry is disabled, so the hot path pays one branch).
    task_hist: Option<Arc<PartitionedHistogram>>,
    /// Per-partition shuffle-cost histogram: shuffle wall-clock attributed
    /// to destination partitions proportionally to records received.
    shuffle_hist: Option<Arc<PartitionedHistogram>>,
    /// Pool-backlog histogram (`pool/queue_depth`): the number of tasks
    /// already queued or running on the worker pool, observed at every pool
    /// dispatch.
    queue_hist: Option<Arc<Histogram>>,
    /// Resolved `op/<kind>_ns` histograms, keyed by the operator's static
    /// kind string. Plan-node kinds number in the dozens at most, so a
    /// linear scan beats re-formatting the metric name and re-hashing it in
    /// the registry on every node execution.
    op_hists: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    /// Chronological superstep this context executes, when driven by an
    /// iteration. Partition panics captured under this context carry it, so
    /// the resulting failure records are attributed to the right superstep.
    superstep: Option<u32>,
    /// Logical iteration that superstep computes: it moves back on rollback
    /// and restart, where the superstep never repeats.
    iteration: Option<u32>,
    /// Whether the fault handler reads the state this superstep leaves.
    reads_state: bool,
}

impl ExecContext {
    /// Fresh context for a run.
    pub fn new(config: EnvConfig) -> Self {
        let task_hist = config.telemetry.enabled().then(|| {
            config
                .telemetry
                .metrics()
                .partitioned_histogram("partition_task_ns", config.parallelism)
        });
        let shuffle_hist = config.telemetry.enabled().then(|| {
            config
                .telemetry
                .metrics()
                .partitioned_histogram("partition_shuffle_ns", config.parallelism)
        });
        let queue_hist = (config.telemetry.enabled() && config.threaded)
            .then(|| config.telemetry.metrics().histogram("pool/queue_depth"));
        ExecContext {
            config,
            counters: Mutex::new(BTreeMap::new()),
            shuffled: AtomicU64::new(0),
            shuffle_ns: AtomicU64::new(0),
            task_hist,
            shuffle_hist,
            queue_hist,
            op_hists: Mutex::new(Vec::new()),
            superstep: None,
            iteration: None,
            reads_state: false,
        }
    }

    /// Attribute work executed under this context to a chronological
    /// superstep and the logical iteration it computes (used by the
    /// iteration driver, so captured partition panics name the superstep
    /// they happened in), saying whether the fault handler reads the state
    /// it leaves.
    pub fn at_superstep(mut self, superstep: u32, iteration: u32, reads_state: bool) -> Self {
        (self.superstep, self.iteration, self.reads_state) =
            (Some(superstep), Some(iteration), reads_state);
        self
    }

    /// Whether the fault handler reads the state this superstep leaves
    /// ([`crate::ft::FaultHandler::reads_state`]).
    pub fn reads_state(&self) -> bool {
        self.reads_state
    }

    /// The superstep this context is attributed to, if any.
    pub fn superstep(&self) -> Option<u32> {
        self.superstep
    }

    /// The logical iteration this context computes, if any.
    pub fn iteration(&self) -> Option<u32> {
        self.iteration
    }

    /// Add to a named record counter (e.g. `"messages"`).
    pub fn add_counter(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut counters = self.counters.lock();
        *counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Account records that crossed partition boundaries.
    pub fn add_shuffled(&self, n: u64) {
        self.shuffled.fetch_add(n, Ordering::Relaxed);
    }

    /// Take and reset all counters; returns `(named counters, shuffled)`.
    pub fn drain(&self) -> (BTreeMap<String, u64>, u64) {
        let counters = std::mem::take(&mut *self.counters.lock());
        let shuffled = self.shuffled.swap(0, Ordering::Relaxed);
        (counters, shuffled)
    }

    /// Peek at the shuffled-record total without resetting.
    pub fn shuffled(&self) -> u64 {
        self.shuffled.load(Ordering::Relaxed)
    }

    /// Take and reset the time attributed to shuffling operators this
    /// superstep (always zero while telemetry is disabled).
    pub fn take_shuffle_time(&self) -> Duration {
        Duration::from_nanos(self.shuffle_ns.swap(0, Ordering::Relaxed))
    }

    /// Run one partition's task, recording its latency into the
    /// per-partition histogram when telemetry is enabled and the task is
    /// `timed` (an exchange's tasks are not: a shuffle times itself).
    fn time_partition_task<U>(&self, pid: usize, timed: bool, f: impl FnOnce() -> U) -> U {
        match self.task_hist.as_ref().filter(|_| timed) {
            Some(hist) => {
                let start = Instant::now();
                let out = f();
                hist.observe(pid, start.elapsed().as_nanos() as u64);
                out
            }
            None => f(),
        }
    }

    /// Run a shuffle, timing it and attributing its wall-clock cost to the
    /// *destination* partitions proportionally to the records each one
    /// received. This is the per-partition shuffle analogue of the
    /// `partition_task_ns` compute histogram: together they let a profile
    /// view show where each partition's superstep time went.
    pub fn time_shuffle<T>(&self, f: impl FnOnce() -> Result<Shuffled<T>>) -> Result<Shuffled<T>> {
        match &self.shuffle_hist {
            Some(hist) => {
                let start = Instant::now();
                let shuffled = f()?;
                let nanos = start.elapsed().as_nanos() as u64;
                let sizes = shuffled.partition_sizes();
                let total: u64 = sizes.iter().map(|&n| n as u64).sum();
                for (pid, &n) in sizes.iter().enumerate() {
                    if n > 0 {
                        if let Some(share) = (nanos * n as u64).checked_div(total) {
                            hist.observe(pid, share);
                        }
                    }
                }
                Ok(shuffled)
            }
            None => f(),
        }
    }

    /// Record one plan-node execution: its latency goes into an
    /// `op/<kind>_ns` histogram, and nodes that moved records across
    /// partitions contribute to the superstep's shuffle time.
    fn record_node(&self, kind: &'static str, elapsed: Duration, shuffle_delta: u64) {
        let nanos = elapsed.as_nanos() as u64;
        let hist = {
            let mut cache = self.op_hists.lock();
            match cache.iter().find(|(k, _)| *k == kind) {
                Some((_, hist)) => Arc::clone(hist),
                None => {
                    let hist = self.config.telemetry.metrics().histogram(&format!("op/{kind}_ns"));
                    cache.push((kind, Arc::clone(&hist)));
                    hist
                }
            }
        };
        hist.observe(nanos);
        if shuffle_delta > 0 {
            self.shuffle_ns.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    fn should_thread(&self, tasks: usize, work: usize) -> bool {
        self.config.threaded && tasks > 1 && work >= self.config.thread_threshold
    }
}

/// Stringify a captured panic payload (`&str` and `String` payloads; other
/// types are reported as opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The captured outcome of one partition task.
type TaskResult<U> = std::thread::Result<U>;

/// Fold per-partition outcomes into results in partition order. The first
/// panicked partition (lowest pid) wins; a missing outcome means the worker
/// pool tore down before the task ran (process shutdown races only).
fn assemble<U>(slots: Vec<Option<TaskResult<U>>>, ctx: &ExecContext) -> Result<Vec<U>> {
    let mut out = Vec::with_capacity(slots.len());
    for (pid, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(payload)) => {
                return Err(EngineError::PartitionPanic {
                    pid,
                    superstep: ctx.superstep,
                    message: panic_message(payload.as_ref()),
                })
            }
            None => {
                return Err(EngineError::Plan(format!(
                    "worker pool shut down before partition {pid} ran"
                )))
            }
        }
    }
    Ok(out)
}

/// Sequential fallback: run every task on the calling thread, still
/// capturing unwinds so a panicking UDF surfaces identically to the
/// threaded paths.
fn run_inline<I, U, F>(items: Vec<I>, ctx: &ExecContext, timed: bool, f: &F) -> Result<Vec<U>>
where
    F: Fn(usize, I) -> U,
{
    let mut out = Vec::with_capacity(items.len());
    for (pid, item) in items.into_iter().enumerate() {
        let task = || ctx.time_partition_task(pid, timed, || f(pid, item));
        match catch_unwind(AssertUnwindSafe(task)) {
            Ok(value) => out.push(value),
            Err(payload) => {
                return Err(EngineError::PartitionPanic {
                    pid,
                    superstep: ctx.superstep,
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }
    Ok(out)
}

/// Threaded dispatch onto the environment's persistent worker pool. A
/// cluster run dispatches here too: generic closure operators cannot cross
/// process boundaries, so their partition work stays on the coordinator's
/// pool while the iteration *step* is distributed by a dedicated operator.
fn run_threaded<I, U, F>(items: Vec<I>, ctx: &ExecContext, timed: bool, f: &F) -> Result<Vec<U>>
where
    I: Send,
    U: Send,
    F: Fn(usize, I) -> U + Sync,
{
    let pool = ctx.config.pool.get_or_spawn(ctx.config.pool_size(), &ctx.config.telemetry);
    if let Some(hist) = &ctx.queue_hist {
        hist.observe(pool.queued() as u64);
    }
    let slots: Vec<Mutex<Option<TaskResult<U>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = items
        .into_iter()
        .enumerate()
        .map(|(pid, item)| {
            let slot = &slots[pid];
            let task = move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    ctx.time_partition_task(pid, timed, || f(pid, item))
                }));
                *slot.lock() = Some(outcome);
            };
            (pid, Box::new(task) as Box<dyn FnOnce() + Send + '_>)
        })
        .collect();
    pool.run(tasks);
    assemble(slots.into_iter().map(Mutex::into_inner).collect(), ctx)
}

/// Run one task per partition item, in parallel when the configuration
/// allows and `work` (a record-count hint) makes threads worthwhile.
///
/// Results come back in item order regardless of scheduling. A panicking
/// task never aborts the process: it surfaces as
/// [`EngineError::PartitionPanic`] naming the partition (and superstep,
/// inside iterations), with the sibling partitions' work discarded.
pub fn par_map<I, U, F>(items: Vec<I>, ctx: &ExecContext, work: usize, f: F) -> Result<Vec<U>>
where
    I: Send,
    U: Send,
    F: Fn(usize, I) -> U + Sync,
{
    dispatch(items, ctx, work, true, &f)
}

/// [`par_map`] for work that is not a partition task of its own: the keyed
/// exchange's scatter (timed by [`ExecContext::time_shuffle`] around it) and
/// the delta apply. Its tasks stay out of `partition_task_ns`.
pub(crate) fn par_map_untimed<I, U, F>(
    items: Vec<I>,
    ctx: &ExecContext,
    work: usize,
    f: F,
) -> Result<Vec<U>>
where
    I: Send,
    U: Send,
    F: Fn(usize, I) -> U + Sync,
{
    dispatch(items, ctx, work, false, &f)
}

/// Run the tasks on the pool or inline, by the threading rule; `timed`
/// tasks record their latency into `partition_task_ns`.
fn dispatch<I, U, F>(
    items: Vec<I>,
    ctx: &ExecContext,
    work: usize,
    timed: bool,
    f: &F,
) -> Result<Vec<U>>
where
    I: Send,
    U: Send,
    F: Fn(usize, I) -> U + Sync,
{
    if ctx.should_thread(items.len(), work) {
        run_threaded(items, ctx, timed, f)
    } else {
        run_inline(items, ctx, timed, f)
    }
}

/// Borrowing variant of [`par_map`] for operators that read their input
/// through an `Arc` without taking ownership.
pub fn map_partition_refs<T, U, F>(parts: &[Vec<T>], ctx: &ExecContext, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    let total: usize = parts.iter().map(Vec::len).sum();
    let g = |pid: usize, part: &Vec<T>| f(pid, part.as_slice());
    dispatch(parts.iter().collect(), ctx, total, true, &g)
}

/// Cross-superstep cache holding the outputs of loop-invariant plan nodes.
///
/// Iteration bodies contain sub-plans that depend only on imported,
/// loop-invariant datasets (e.g. scattering the matrix entries in Jacobi,
/// or re-keying an edge list). With loop-invariant caching enabled (see
/// [`crate::config::EnvConfig::loop_invariant_caching`]), those nodes run
/// once and their outputs are reused in every following superstep — the
/// engine-level analogue of Flink caching loop-invariant inputs.
#[derive(Default)]
pub struct PlanCache {
    values: Vec<Option<Erased>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Drop all cached values.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Number of node outputs currently held.
    pub fn len(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Execute the plan up to `targets`, returning their outputs in order.
///
/// Every node executes exactly once per call; shared sub-plans are computed
/// once and their (reference-counted) outputs handed to each consumer.
pub fn execute(
    graph: &mut PlanGraph,
    targets: &[NodeId],
    ctx: &ExecContext,
) -> Result<Vec<Erased>> {
    let volatile = vec![true; graph.len()];
    execute_cached(graph, targets, ctx, &volatile, &mut PlanCache::new())
}

/// Execute the plan up to `targets`, reusing cached outputs for nodes that
/// are not marked `volatile`. Non-volatile node outputs are stored into
/// `cache` for subsequent calls.
///
/// A fresh output is handed to its last reader (or last target) as the
/// executor's own handle, not a clone of it: a node that reads an input
/// nobody reads after it holds the only handle and can take the value
/// without copying it ([`Erased::take`], [`Erased::into_inner`]).
pub fn execute_cached(
    graph: &mut PlanGraph,
    targets: &[NodeId],
    ctx: &ExecContext,
    volatile: &[bool],
    cache: &mut PlanCache,
) -> Result<Vec<Erased>> {
    debug_assert_eq!(volatile.len(), graph.len());
    let order = graph.schedule(targets)?;
    cache.values.resize(graph.len(), None);
    let runs = |cache: &PlanCache, id: NodeId| volatile[id] || cache.values[id].is_none();
    // Reads of each output still ahead, targets included.
    let mut reads = vec![0usize; graph.len()];
    for &id in order.iter().filter(|&&id| runs(cache, id)) {
        for &input in &graph.node(id).inputs {
            reads[input] += 1;
        }
    }
    for &target in targets {
        reads[target] += 1;
    }
    let mut fresh: Vec<Option<Erased>> = (0..graph.len()).map(|_| None).collect();
    let mut read = |fresh: &mut [Option<Erased>], cache: &PlanCache, id: NodeId| -> Erased {
        reads[id] -= 1;
        let value = if reads[id] == 0 { fresh[id].take() } else { fresh[id].clone() };
        value.or_else(|| cache.values[id].clone()).expect("topological order violated")
    };
    for id in order {
        if !runs(cache, id) {
            continue;
        }
        let inputs: Vec<Erased> =
            graph.node(id).inputs.iter().map(|&i| read(&mut fresh, cache, i)).collect();
        let node = graph.node_mut(id);
        let out = if ctx.config.telemetry.enabled() {
            let kind = node.op.kind();
            let shuffled_before = ctx.shuffled();
            let start = Instant::now();
            let out = node.op.execute(inputs, ctx)?;
            ctx.record_node(kind, start.elapsed(), ctx.shuffled() - shuffled_before);
            out
        } else {
            node.op.execute(inputs, ctx)?
        };
        if volatile[id] {
            fresh[id] = Some(out);
        } else {
            cache.values[id] = Some(out);
        }
    }
    Ok(targets.iter().map(|&t| read(&mut fresh, cache, t)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Partitions;
    use crate::plan::DynOp;

    #[test]
    fn counters_accumulate_and_drain() {
        let ctx = ExecContext::new(EnvConfig::new(2));
        ctx.add_counter("messages", 5);
        ctx.add_counter("messages", 7);
        ctx.add_counter("updates", 1);
        ctx.add_counter("noop", 0);
        ctx.add_shuffled(3);
        let (counters, shuffled) = ctx.drain();
        assert_eq!(counters.get("messages"), Some(&12));
        assert_eq!(counters.get("updates"), Some(&1));
        assert!(!counters.contains_key("noop"));
        assert_eq!(shuffled, 3);
        let (counters, shuffled) = ctx.drain();
        assert!(counters.is_empty());
        assert_eq!(shuffled, 0);
    }

    /// Every dispatch configuration the executor supports: inline and pool.
    fn dispatch_configs() -> Vec<EnvConfig> {
        vec![EnvConfig::new(4).with_threaded(false), EnvConfig::new(4).with_thread_threshold(0)]
    }

    #[test]
    fn par_map_keeps_order_across_dispatch_modes() {
        for cfg in dispatch_configs() {
            let ctx = ExecContext::new(cfg);
            let parts: Vec<Vec<u64>> = (0..4).map(|p| vec![p as u64; 10]).collect();
            let sums =
                par_map(parts, &ctx, 40, |pid, p: Vec<u64>| (pid, p.iter().sum::<u64>())).unwrap();
            assert_eq!(sums, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        }
    }

    #[test]
    fn par_map_over_tuples() {
        let ctx = ExecContext::new(EnvConfig::new(2).with_thread_threshold(0));
        let items: Vec<(Vec<u64>, Vec<u64>)> = vec![(vec![1], vec![2, 3]), (vec![], vec![4])];
        let out = par_map(items, &ctx, 4, |_, (a, b)| a.len() + b.len()).unwrap();
        assert_eq!(out, vec![3, 1]);
    }

    #[test]
    fn map_partition_refs_matches_owned_variant() {
        let ctx = ExecContext::new(EnvConfig::new(3).with_thread_threshold(0));
        let parts: Vec<Vec<u64>> = vec![vec![1, 2], vec![3], vec![]];
        let lens = map_partition_refs(&parts, &ctx, |_, p| p.len()).unwrap();
        assert_eq!(lens, vec![2, 1, 0]);
    }

    #[test]
    fn panicking_task_surfaces_as_typed_error_in_every_dispatch_mode() {
        for cfg in dispatch_configs() {
            let ctx = ExecContext::new(cfg).at_superstep(6, 4, false);
            let parts: Vec<Vec<u64>> = (0..4).map(|p| vec![p as u64; 4]).collect();
            let err = par_map(parts, &ctx, 16, |pid, p: Vec<u64>| {
                assert!(pid != 2, "partition 2 exploded");
                p.len()
            })
            .unwrap_err();
            match err {
                EngineError::PartitionPanic { pid, superstep, message } => {
                    assert_eq!(pid, 2);
                    assert_eq!(superstep, Some(6));
                    assert!(message.contains("partition 2 exploded"), "{message}");
                }
                other => panic!("expected PartitionPanic, got {other}"),
            }
        }
    }

    #[test]
    fn map_partition_refs_captures_panics_too() {
        let parts: Vec<Vec<u64>> = vec![vec![1], vec![2], vec![3]];
        for cfg in dispatch_configs() {
            let ctx = ExecContext::new(cfg);
            let err = map_partition_refs(&parts, &ctx, |pid, p: &[u64]| match pid {
                1 => panic!("boom in refs"),
                _ => p.len(),
            })
            .unwrap_err();
            match err {
                EngineError::PartitionPanic { pid, superstep, message } => {
                    assert_eq!(pid, 1);
                    assert_eq!(superstep, None);
                    assert!(message.contains("boom in refs"));
                }
                other => panic!("expected PartitionPanic, got {other}"),
            }
        }
    }

    #[test]
    fn pool_dispatch_reuses_the_environment_pool() {
        let cfg = EnvConfig::new(3).with_thread_threshold(0);
        let ctx = ExecContext::new(cfg.clone());
        let parts: Vec<Vec<u64>> = vec![vec![1; 8], vec![2; 8], vec![3; 8]];
        for _ in 0..3 {
            let out = map_partition_refs(&parts, &ctx, |_, p| p.len()).unwrap();
            assert_eq!(out, vec![8, 8, 8]);
        }
        let pool = cfg.pool.get().expect("pool must have spawned");
        assert_eq!(pool.size(), 3);
        let ran: u64 = pool.worker_stats().iter().map(|&(_, n)| n).sum();
        assert_eq!(ran, 9, "three dispatches of three partitions each");
    }

    #[test]
    fn small_work_stays_inline() {
        // threshold defaults to 4096; 3 records must not spawn threads.
        // (Indirectly verified: the closure is not required to tolerate
        // concurrent invocation here because it runs sequentially.)
        let ctx = ExecContext::new(EnvConfig::new(2));
        let mut order = Vec::new();
        let parts: Vec<Vec<u64>> = vec![vec![1], vec![2]];
        for (pid, p) in parts.iter().enumerate() {
            let _ = &p;
            order.push(pid);
        }
        assert_eq!(order, vec![0, 1]);
        assert!(!ctx.should_thread(2, 3));
        assert!(ctx.should_thread(2, 5000));
    }

    struct EmitOp(Vec<u64>);
    impl DynOp for EmitOp {
        fn execute(&mut self, _: Vec<Erased>, _: &ExecContext) -> Result<Erased> {
            Ok(Erased::new(Partitions::round_robin(self.0.clone(), 2)))
        }
        fn kind(&self) -> &'static str {
            "Emit"
        }
    }

    struct ConcatOp;
    impl DynOp for ConcatOp {
        fn execute(&mut self, inputs: Vec<Erased>, _: &ExecContext) -> Result<Erased> {
            let mut all = Vec::new();
            for input in inputs {
                all.extend(input.downcast::<u64>("concat")?.iter_records().copied());
            }
            all.sort_unstable();
            Ok(Erased::new(Partitions::round_robin(all, 2)))
        }
        fn kind(&self) -> &'static str {
            "Concat"
        }
    }

    #[test]
    fn executor_runs_shared_nodes_once_and_feeds_all_consumers() {
        let mut g = PlanGraph::new();
        let a = g.add("a", vec![], Box::new(EmitOp(vec![1, 2])));
        let b = g.add("b", vec![], Box::new(EmitOp(vec![3])));
        let c = g.add("c", vec![a, b, a], Box::new(ConcatOp));
        let ctx = ExecContext::new(EnvConfig::new(2));
        let out = execute(&mut g, &[c], &ctx).unwrap();
        let records = out[0].clone().take::<u64>("t").unwrap().into_vec();
        let mut sorted = records.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2, 2, 3]);
    }
}
