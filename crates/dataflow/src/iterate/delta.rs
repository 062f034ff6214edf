//! Delta iterations: a keyed solution set is selectively updated while a
//! working set carries the records that still change (paper §2.1).

use std::hash::Hash;
use std::rc::Rc;

use telemetry::{IterationMode, JournalEvent, Norm, SpanKind, SpanRecord};

use crate::api::{DataSet, Environment};
use crate::dataset::{Data, Erased, Partitions};
use crate::error::{EngineError, Result};
use crate::exec::{self, ExecContext, PlanCache};
use crate::ft::{
    DeltaState, FailureSource, FaultHandler, NoFailures, RestartHandler, SolutionSets,
};
use crate::hash::{fx_hash, FxHashMap};
use crate::iterate::{Failure, Recovery, StatsHandle};
use crate::operators::{InjectedSource, SourceSlot};
use crate::partition::hash_partition;
use crate::plan::{DynOp, NodeId};
use crate::stats::{IterationStats, RunStats};

/// Observer callback for delta iterations: sees the solution sets and the
/// working set entering the next iteration.
pub type DeltaObserverFn<K, V, W> =
    Box<dyn FnMut(u32, &SolutionSets<K, V>, &Partitions<W>, &mut IterationStats)>;

/// Norm probe for delta iterations: called with the solution sets *before*
/// the delta is applied plus the delta itself, and returns an
/// algorithm-specific aggregate norm (e.g. summed label decrease) for the
/// `ConvergenceSample` journal event. Telemetry-enabled runs only.
pub type DeltaNormProbe<K, V> =
    Box<dyn FnMut(&SolutionSets<K, V>, &Partitions<(K, V)>) -> Option<f64>>;

/// Bound for solution-set key types.
pub trait SolutionKey: Data + Hash + Eq {}
impl<K: Data + Hash + Eq> SolutionKey for K {}

/// Builder for a delta iteration.
///
/// The *solution set* holds one `(K, V)` entry per key, hash-partitioned by
/// `K`; the *working set* holds arbitrary records of type `W`. Each
/// superstep, the loop body consumes both and produces a *delta* (solution
/// entries to upsert) and the next working set. The iteration terminates
/// once the working set is empty.
///
/// ```
/// use dataflow::prelude::*;
///
/// // Propagate the minimum over a chain 0-1-2-3 (toy connected components).
/// let env = Environment::new(2);
/// let solution = env.from_vec((0u64..4).map(|v| (v, v)).collect());
/// let workset = env.from_vec((0u64..4).map(|v| (v, v)).collect());
/// let edges = env.from_vec(vec![(0u64, 1u64), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
/// let mut iteration = DeltaIteration::new(&solution, &workset, 50);
/// let edges_in = iteration.import(&edges);
/// let candidates = iteration
///     .workset()
///     .join("to-neighbors", &edges_in, |w: &(u64, u64)| w.0, |e| e.0, |w, e| (e.1, w.1))
///     .reduce_by_key("min-label", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
/// let updates = candidates.join(
///     "label-update",
///     &iteration.solution(),
///     |c| c.0,
///     |s: &(u64, u64)| s.0,
///     |c, s| if c.1 < s.1 { Some((c.0, c.1)) } else { None },
/// ).flat_map("updated-only", |u| u.iter().copied().collect());
/// let (result, stats) = iteration.close(updates.clone(), updates);
/// let labels = result.collect().unwrap();
/// assert!(labels.iter().all(|&(_, l)| l == 0));
/// assert!(stats.take().unwrap().converged);
/// ```
pub struct DeltaIteration<K: SolutionKey, V: Data, W: Data> {
    outer: Environment,
    body: Environment,
    initial_solution_id: NodeId,
    initial_workset_id: NodeId,
    solution_slot: SourceSlot,
    workset_slot: SourceSlot,
    solution_head: DataSet<(K, V)>,
    workset_head: DataSet<W>,
    solution_head_id: NodeId,
    workset_head_id: NodeId,
    import_ids: Vec<NodeId>,
    import_slots: Vec<SourceSlot>,
    max_iterations: u32,
    superstep_limit: u32,
    handler: Box<dyn FaultHandler<DeltaState<K, V, W>>>,
    failures: Box<dyn FailureSource>,
    observer: Option<DeltaObserverFn<K, V, W>>,
    norm_probe: Option<DeltaNormProbe<K, V>>,
}

impl<K: SolutionKey, V: Data, W: Data> DeltaIteration<K, V, W> {
    /// Start building a delta iteration.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero or the two datasets come from
    /// different environments.
    pub fn new(
        initial_solution: &DataSet<(K, V)>,
        initial_workset: &DataSet<W>,
        max_iterations: u32,
    ) -> Self {
        assert!(max_iterations > 0, "an iteration needs at least one iteration");
        let outer = initial_solution.environment();
        assert!(
            Rc::ptr_eq(&initial_workset.environment().inner, &outer.inner),
            "solution set and workset must come from the same environment"
        );
        let body = Environment::with_config(outer.config());
        let solution_slot = SourceSlot::new();
        let workset_slot = SourceSlot::new();
        let solution_head = body.add_node(
            "solution-set",
            vec![],
            Box::new(InjectedSource::new(solution_slot.clone())),
        );
        let workset_head =
            body.add_node("workset", vec![], Box::new(InjectedSource::new(workset_slot.clone())));
        let solution_head_id = solution_head.node_id();
        let workset_head_id = workset_head.node_id();
        DeltaIteration {
            outer,
            body,
            initial_solution_id: initial_solution.node_id(),
            initial_workset_id: initial_workset.node_id(),
            solution_slot,
            workset_slot,
            solution_head,
            workset_head,
            solution_head_id,
            workset_head_id,
            import_ids: Vec::new(),
            import_slots: Vec::new(),
            max_iterations,
            superstep_limit: max_iterations.saturating_mul(4).saturating_add(16),
            handler: Box::new(RestartHandler),
            failures: Box::new(NoFailures),
            observer: None,
            norm_probe: None,
        }
    }

    /// Loop-body view of the current solution set.
    pub fn solution(&self) -> DataSet<(K, V)> {
        self.solution_head.clone()
    }

    /// Loop-body view of the current working set.
    pub fn workset(&self) -> DataSet<W> {
        self.workset_head.clone()
    }

    /// The loop-body environment.
    pub fn body_environment(&self) -> Environment {
        self.body.clone()
    }

    /// Make an outer dataset visible inside the loop body.
    pub fn import<A: Data>(&mut self, outer: &DataSet<A>) -> DataSet<A> {
        assert!(
            Rc::ptr_eq(&outer.environment().inner, &self.outer.inner),
            "import source must come from the enclosing environment"
        );
        let slot = SourceSlot::new();
        let inner =
            self.body.add_node("import", vec![], Box::new(InjectedSource::new(slot.clone())));
        self.import_ids.push(outer.node_id());
        self.import_slots.push(slot);
        inner
    }

    /// Install a fault handler (defaults to restart-from-scratch).
    pub fn set_fault_handler(&mut self, handler: impl FaultHandler<DeltaState<K, V, W>> + 'static) {
        self.handler = Box::new(handler);
    }

    /// Install a failure source (defaults to no failures).
    pub fn set_failure_source(&mut self, failures: impl FailureSource + 'static) {
        self.failures = Box::new(failures);
    }

    /// Install a per-superstep observer.
    pub fn set_observer(
        &mut self,
        observer: impl FnMut(u32, &SolutionSets<K, V>, &Partitions<W>, &mut IterationStats) + 'static,
    ) {
        self.observer = Some(Box::new(observer));
    }

    /// Install a delta-norm probe: called before each delta is applied,
    /// with the pre-apply solution sets and the delta, to compute an
    /// algorithm-specific convergence norm. Per-partition changed counts
    /// and workset sizes are tracked by the driver itself; the probe only
    /// adds the optional norm dimension.
    pub fn set_norm_probe(
        &mut self,
        probe: impl FnMut(&SolutionSets<K, V>, &Partitions<(K, V)>) -> Option<f64> + 'static,
    ) {
        self.norm_probe = Some(Box::new(probe));
    }

    /// Override the chronological superstep budget.
    pub fn set_superstep_limit(&mut self, limit: u32) {
        self.superstep_limit = limit;
    }

    /// Close the loop. `delta` contains solution-set upserts; `next_workset`
    /// feeds the next iteration. Returns the final solution set.
    pub fn close(
        self,
        delta: DataSet<(K, V)>,
        next_workset: DataSet<W>,
    ) -> (DataSet<(K, V)>, StatsHandle) {
        assert!(
            Rc::ptr_eq(&delta.environment().inner, &self.body.inner),
            "delta must be built inside the loop body"
        );
        assert!(
            Rc::ptr_eq(&next_workset.environment().inner, &self.body.inner),
            "next workset must be built inside the loop body"
        );
        let stats = StatsHandle::new();
        let op = IterateDeltaOp {
            body: self.body,
            solution_head_id: self.solution_head_id,
            workset_head_id: self.workset_head_id,
            solution_slot: self.solution_slot,
            workset_slot: self.workset_slot,
            import_slots: self.import_slots,
            delta_id: delta.node_id(),
            next_workset_id: next_workset.node_id(),
            max_iterations: self.max_iterations,
            superstep_limit: self.superstep_limit,
            handler: self.handler,
            failures: self.failures,
            observer: self.observer,
            norm_probe: self.norm_probe,
            stats: stats.clone(),
        };
        let mut inputs = vec![self.initial_solution_id, self.initial_workset_id];
        inputs.extend(&self.import_ids);
        let result = self.outer.add_node("delta-iteration", inputs, Box::new(op));
        (result, stats)
    }
}

struct IterateDeltaOp<K: SolutionKey, V: Data, W: Data> {
    body: Environment,
    solution_head_id: NodeId,
    workset_head_id: NodeId,
    solution_slot: SourceSlot,
    workset_slot: SourceSlot,
    import_slots: Vec<SourceSlot>,
    delta_id: NodeId,
    next_workset_id: NodeId,
    max_iterations: u32,
    superstep_limit: u32,
    handler: Box<dyn FaultHandler<DeltaState<K, V, W>>>,
    failures: Box<dyn FailureSource>,
    observer: Option<DeltaObserverFn<K, V, W>>,
    norm_probe: Option<DeltaNormProbe<K, V>>,
    stats: StatsHandle,
}

/// Build per-partition solution maps from `(K, V)` records, routing each
/// entry to its key's partition.
fn build_solution_sets<K: SolutionKey, V: Data>(
    records: &Partitions<(K, V)>,
    parallelism: usize,
) -> SolutionSets<K, V> {
    let mut sets: SolutionSets<K, V> = (0..parallelism).map(|_| FxHashMap::default()).collect();
    for (k, v) in records.iter_records() {
        let pid = hash_partition(k, parallelism);
        sets[pid].insert(k.clone(), v.clone());
    }
    sets
}

/// Materialise the solution sets as a partitioned dataset, in a
/// deterministic per-partition order.
///
/// The per-superstep clone + sort keeps runs bit-reproducible (hash maps
/// iterate in arbitrary order); at the scales this simulator targets the
/// cost is dominated by the body's joins. An index-probed solution-set
/// join (Flink's optimisation) would remove it and is a natural extension.
fn materialize_solution<K: SolutionKey, V: Data>(sets: &SolutionSets<K, V>) -> Partitions<(K, V)> {
    let parts = sets
        .iter()
        .map(|set| {
            let mut records: Vec<(K, V)> =
                set.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            records.sort_by_key(|(k, _)| fx_hash(k));
            records
        })
        .collect();
    Partitions::from_parts(parts)
}

impl<K: SolutionKey, V: Data, W: Data> DynOp for IterateDeltaOp<K, V, W> {
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let parallelism = ctx.config.parallelism;
        let initial_solution: Partitions<(K, V)> =
            inputs[0].clone().take("DeltaIteration(solution)")?;
        let initial_workset: Partitions<W> = inputs[1].clone().take("DeltaIteration(workset)")?;
        for (slot, input) in self.import_slots.iter().zip(&inputs[2..]) {
            slot.fill(input.clone());
        }

        // Loop-invariant caching over the body plan.
        let volatile = {
            let inner = self.body.inner.borrow();
            if ctx.config.loop_invariant_caching {
                inner.graph.volatility(&[self.solution_head_id, self.workset_head_id])
            } else {
                vec![true; inner.graph.len()]
            }
        };
        let mut invariant_cache = PlanCache::new();

        let initial = DeltaState {
            solution: build_solution_sets(&initial_solution, parallelism),
            workset: initial_workset,
        };
        let mut state = initial.clone();

        let mut run = RunStats::default();
        let mut iteration: u32 = 0;
        let mut superstep: u32 = 0;
        let mut converged = false;
        let telemetry = ctx.config.telemetry.clone();
        telemetry.emit(|| JournalEvent::RunStarted {
            mode: IterationMode::Delta,
            parallelism,
            max_iterations: self.max_iterations,
        });
        let run_timer = telemetry.timer(SpanKind::Run, None, None);
        let recovery = Recovery { telemetry: &telemetry, initial: &initial };

        loop {
            if state.workset.is_empty() {
                converged = true;
                break;
            }
            if iteration >= self.max_iterations {
                break;
            }
            if superstep >= self.superstep_limit {
                return Err(EngineError::Iteration(format!(
                    "superstep budget of {} exhausted at logical iteration {iteration} \
                     (likely a recovery live-lock)",
                    self.superstep_limit
                )));
            }

            // 1. Execute the loop body over solution view + workset. The
            // workset moves into its injection slot for the step.
            let step_timer = telemetry.timer(SpanKind::Superstep, Some(superstep), Some(iteration));
            let step_ctx = ExecContext::new(ctx.config.clone()).at_superstep(superstep);
            self.solution_slot.fill(Erased::new(materialize_solution(&state.solution)));
            let workset = std::mem::replace(&mut state.workset, Partitions::empty(parallelism));
            self.workset_slot.fill(Erased::new(workset));
            let compute_timer =
                telemetry.timer(SpanKind::Compute, Some(superstep), Some(iteration));
            let body_result = {
                let mut inner = self.body.inner.borrow_mut();
                exec::execute_cached(
                    &mut inner.graph,
                    &[self.delta_id, self.next_workset_id],
                    &step_ctx,
                    &volatile,
                    &mut invariant_cache,
                )
            };
            let outputs = match body_result {
                Ok(outputs) => outputs,
                Err(error) => {
                    // A UDF panicked — or a cluster worker process died —
                    // mid-superstep: neither the delta nor the next workset
                    // materialised, and the solution sets have not been
                    // touched yet (upserts happen after the body). Recover
                    // the pre-superstep workset from the injection slot,
                    // treat the affected partitions as failed workers
                    // (losing their solution and workset partitions), and
                    // redo the logical iteration. Partial counters of the
                    // aborted step are discarded — no SuperstepCompleted
                    // entry exists for it.
                    let failure = Failure::of_aborted_step(error)?;
                    let duration = compute_timer.finish();
                    let _ = step_ctx.drain();
                    let _ = step_ctx.take_shuffle_time();
                    state.workset = self
                        .workset_slot
                        .get()
                        .ok_or_else(|| {
                            EngineError::Iteration(
                                "pre-superstep workset lost after partition panic".into(),
                            )
                        })?
                        .take("DeltaIteration(panic recovery)")?;
                    let (failure, next_iteration) = recovery.run(
                        &mut *self.handler,
                        (superstep, iteration),
                        failure,
                        &mut state,
                        iteration,
                    )?;
                    let mut istats = IterationStats {
                        superstep,
                        iteration,
                        duration,
                        records_shuffled: 0,
                        workset_size: Some(state.workset.total_len() as u64),
                        failure: Some(failure),
                        ..Default::default()
                    };
                    if let Some(observer) = &mut self.observer {
                        observer(iteration, &state.solution, &state.workset, &mut istats);
                    }
                    run.iterations.push(istats);
                    let _ = step_timer.finish();
                    superstep += 1;
                    iteration = next_iteration;
                    continue;
                }
            };
            let delta: Partitions<(K, V)> = outputs[0].clone().take("DeltaIteration(delta)")?;
            state.workset = outputs[1].clone().take("DeltaIteration(next workset)")?;

            // 2. Apply the delta: upsert each entry into its key's partition.
            // The norm probe must observe the solution *before* the apply
            // loop consumes the delta.
            let delta_size = delta.total_len() as u64;
            let delta_norm = if telemetry.enabled() {
                self.norm_probe.as_mut().and_then(|probe| probe(&state.solution, &delta))
            } else {
                None
            };
            let mut changed_per_partition = vec![0u64; parallelism];
            for (k, v) in delta.into_vec() {
                let pid = hash_partition(&k, parallelism);
                changed_per_partition[pid] += 1;
                state.solution[pid].insert(k, v);
            }
            let duration = compute_timer.finish();

            // 3. Superstep statistics.
            let (counters, shuffled) = step_ctx.drain();
            let shuffle_time = step_ctx.take_shuffle_time();
            if shuffle_time > std::time::Duration::ZERO {
                telemetry.span(&SpanRecord {
                    kind: SpanKind::Shuffle,
                    superstep: Some(superstep),
                    iteration: Some(iteration),
                    duration: shuffle_time,
                });
            }
            telemetry.emit(|| JournalEvent::SuperstepCompleted {
                superstep,
                iteration,
                records_shuffled: shuffled,
                workset_size: Some(state.workset.total_len() as u64),
            });
            if telemetry.enabled() {
                let workset_per_partition: Vec<u64> =
                    state.workset.partition_sizes().iter().map(|&n| n as u64).collect();
                telemetry.emit(|| JournalEvent::ConvergenceSample {
                    superstep,
                    iteration,
                    changed: delta_size,
                    changed_per_partition,
                    delta_norm: delta_norm.map(Norm),
                    workset_per_partition: Some(workset_per_partition),
                });
            }
            let mut istats = IterationStats {
                superstep,
                iteration,
                duration,
                counters,
                records_shuffled: shuffled,
                workset_size: Some(state.workset.total_len() as u64),
                ..Default::default()
            };
            istats.counters.insert("delta_updates".into(), delta_size);

            // 4. Fault-tolerance hook (checkpointing).
            if let Some(cost) = self.handler.after_superstep(iteration, &state)? {
                telemetry.emit(|| JournalEvent::CheckpointWritten { iteration, bytes: cost.bytes });
                telemetry.span(&SpanRecord {
                    kind: SpanKind::Checkpoint,
                    superstep: Some(superstep),
                    iteration: Some(iteration),
                    duration: cost.duration,
                });
                istats.checkpoint_bytes = Some(cost.bytes);
                istats.checkpoint_duration = Some(cost.duration);
            }

            // 5. Failure injection and recovery.
            let mut next_iteration = iteration + 1;
            let lost = self.failures.poll(superstep, parallelism).filter(|lost| !lost.is_empty());
            if let Some(lost) = lost {
                let (failure, resumed) = recovery.run(
                    &mut *self.handler,
                    (superstep, iteration),
                    Failure::injected(lost),
                    &mut state,
                    iteration + 1,
                )?;
                next_iteration = resumed;
                istats.workset_size = Some(state.workset.total_len() as u64);
                istats.failure = Some(failure);
            }

            // 6. Observe and record.
            if let Some(observer) = &mut self.observer {
                observer(iteration, &state.solution, &state.workset, &mut istats);
            }
            run.iterations.push(istats);
            let _ = step_timer.finish();
            superstep += 1;
            iteration = next_iteration;
        }

        run.converged = converged;
        run.total_duration = run_timer.finish();
        telemetry.emit(|| JournalEvent::RunCompleted {
            supersteps: run.supersteps(),
            iterations: run.logical_iterations(),
            converged: run.converged,
        });
        self.stats.set(run);
        Ok(Erased::new(materialize_solution(&state.solution)))
    }

    fn kind(&self) -> &'static str {
        "DeltaIteration"
    }

    fn body_explain(&self) -> Option<String> {
        let inner = self.body.inner.borrow();
        let mut text = String::from("(delta:)\n");
        text.push_str(&inner.graph.explain(self.delta_id));
        text.push_str("(next workset:)\n");
        text.push_str(&inner.graph.explain(self.next_workset_id));
        Some(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::DeterministicFailures;
    use crate::stats::RecoveryKind;

    type Label = (u64, u64);

    /// Min-label propagation over an undirected path graph 0-1-...-n-1,
    /// the delta-iteration workhorse used by Connected Components.
    fn min_label_run(
        n: u64,
        parallelism: usize,
        configure: impl FnOnce(&mut DeltaIteration<u64, u64, Label>),
    ) -> (Vec<Label>, RunStats) {
        let env = Environment::new(parallelism);
        let labels: Vec<Label> = (0..n).map(|v| (v, v)).collect();
        let solution = env.from_keyed_vec(labels.clone(), |r| r.0);
        let workset = env.from_keyed_vec(labels, |r| r.0);
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for v in 0..n - 1 {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        let edges_ds = env.from_keyed_vec(edges, |e| e.0);

        let mut it = DeltaIteration::new(&solution, &workset, 10 * n as u32);
        configure(&mut it);
        let edges_in = it.import(&edges_ds);
        let candidates = it
            .workset()
            .join("to-neighbors", &edges_in, |w: &Label| w.0, |e| e.0, |w, e| (e.1, w.1))
            .measured("messages")
            .reduce_by_key("min-candidate", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
        let updates = candidates
            .join(
                "label-update",
                &it.solution(),
                |c| c.0,
                |s: &Label| s.0,
                |c, s| if c.1 < s.1 { Some((c.0, c.1)) } else { None },
            )
            .flat_map("updated-only", |u: &Option<Label>| u.iter().copied().collect());
        let (result, stats) = it.close(updates.clone(), updates);
        let mut labels = result.collect().unwrap();
        labels.sort_unstable();
        (labels, stats.take().unwrap())
    }

    #[test]
    fn min_label_propagates_to_all_vertices() {
        let (labels, stats) = min_label_run(16, 4, |_| {});
        assert!(labels.iter().all(|&(_, l)| l == 0), "{labels:?}");
        assert!(stats.converged);
        // The minimum travels one hop per iteration: 15 hops + 1 empty-check.
        assert!(stats.supersteps() >= 15);
    }

    #[test]
    fn workset_shrinks_as_vertices_converge() {
        let (_, stats) = min_label_run(16, 4, |_| {});
        let sizes: Vec<u64> = stats.iterations.iter().filter_map(|i| i.workset_size).collect();
        assert_eq!(sizes.last(), Some(&0), "workset must drain: {sizes:?}");
        assert!(sizes[0] >= sizes[sizes.len() - 2]);
    }

    #[test]
    fn messages_counter_tracks_candidate_labels() {
        let (_, stats) = min_label_run(8, 2, |_| {});
        let messages = stats.counter_series("messages");
        // First superstep: every vertex sends to every neighbour = 2*|E|.
        assert_eq!(messages[0], 14);
        assert_eq!(*messages.last().unwrap(), 1, "last update reaches the path end");
    }

    #[test]
    fn empty_initial_workset_converges_immediately() {
        let env = Environment::new(2);
        let solution = env.from_keyed_vec(vec![(1u64, 5u64)], |r| r.0);
        let workset = env.from_vec(Vec::<Label>::new());
        let it = DeltaIteration::new(&solution, &workset, 10);
        let delta = it.body_environment().from_vec(Vec::<Label>::new());
        let ws = it.body_environment().from_vec(Vec::<Label>::new());
        let (result, stats) = it.close(delta, ws);
        assert_eq!(result.collect().unwrap(), vec![(1, 5)]);
        let stats = stats.take().unwrap();
        assert!(stats.converged);
        assert_eq!(stats.supersteps(), 0);
    }

    #[test]
    fn restart_recovers_correctly_at_extra_cost() {
        let (labels, stats) = min_label_run(16, 4, |it| {
            it.set_failure_source(DeterministicFailures::new().fail_at(4, &[1]));
        });
        assert!(labels.iter().all(|&(_, l)| l == 0));
        assert!(stats.converged);
        let failure_kinds: Vec<_> = stats.failures().map(|(_, f)| f.recovery.clone()).collect();
        assert_eq!(failure_kinds, vec![RecoveryKind::Restarted]);
        // Restart pays the 5 pre-failure supersteps again.
        assert!(stats.supersteps() >= 20);
    }

    #[test]
    fn ignore_handler_converges_to_wrong_labels() {
        struct IgnoreAll;
        impl<S> FaultHandler<S> for IgnoreAll {
            fn on_failure(
                &mut self,
                _i: u32,
                _l: &[usize],
                _s: &mut S,
            ) -> Result<crate::ft::RecoveryAction<S>> {
                Ok(crate::ft::RecoveryAction::Ignore)
            }
        }
        let (labels, stats) = min_label_run(16, 4, |it| {
            it.set_fault_handler(IgnoreAll);
            it.set_failure_source(DeterministicFailures::new().fail_at(3, &[0, 1]));
        });
        // The run "converges", but vertices were lost outright — this is the
        // ablation the paper's compensation functions exist to prevent.
        assert!(stats.converged);
        assert!(labels.len() < 16, "lost vertices must be missing, got {}", labels.len());
    }

    #[test]
    fn max_iterations_bounds_non_converging_loop() {
        let env = Environment::new(2);
        let solution = env.from_keyed_vec(vec![(0u64, 0u64)], |r| r.0);
        let workset = env.from_keyed_vec(vec![(0u64, 0u64)], |r| r.0);
        let it = DeltaIteration::new(&solution, &workset, 5);
        // The workset never drains: each superstep re-emits it.
        let ws = it.workset();
        let delta = it.body_environment().from_vec(Vec::<Label>::new());
        let next_ws = ws.map("keep", |w: &Label| *w);
        let (result, stats) = it.close(delta, next_ws);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.supersteps(), 5);
    }
}
