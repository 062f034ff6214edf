//! Bulk iterations: the whole state dataset is recomputed every superstep.

use std::rc::Rc;

use telemetry::{IterationMode, JournalEvent, Norm, SpanKind, SpanRecord};

use crate::api::{DataSet, Environment};
use crate::dataset::{Data, Erased, Partitions};
use crate::error::{EngineError, Result};
use crate::exec::{self, ExecContext, PlanCache};
use crate::ft::{FailureSource, FaultHandler, NoFailures, RestartHandler};
use crate::iterate::{ConvergenceMeasure, Failure, Recovery, StatsHandle};
use crate::operators::{InjectedSource, SourceSlot};
use crate::plan::{DynOp, NodeId};
use crate::stats::{IterationStats, RunStats};

/// Observer callback invoked after every superstep with the (possibly
/// recovered) state; may record gauges/counters into the superstep's stats.
pub type BulkObserverFn<T> = Box<dyn FnMut(u32, &Partitions<T>, &mut IterationStats)>;

/// Convergence probe for bulk iterations: called with the previous and the
/// freshly computed state after every superstep (telemetry-enabled runs
/// only); the measurement feeds the `ConvergenceSample` journal event.
pub type BulkConvergenceProbe<T> =
    Box<dyn FnMut(&Partitions<T>, &Partitions<T>) -> ConvergenceMeasure>;

/// Termination criterion: the body node to probe plus a closure measuring
/// its (type-erased) cardinality.
type CardinalityProbe = Box<dyn Fn(&Erased) -> Result<usize>>;
type TerminationProbe = (NodeId, CardinalityProbe);

/// Builder for a bulk iteration, Flink-style: the loop body is a nested
/// dataflow whose head is the current state; closing the loop yields a
/// dataset holding the final state.
///
/// ```
/// use dataflow::prelude::*;
///
/// // Iteratively halve numbers until all are zero.
/// let env = Environment::new(2);
/// let numbers = env.from_vec(vec![13u64, 64, 7]);
/// let mut iteration = BulkIteration::new(&numbers, 100);
/// let state = iteration.state();
/// let halved = state.map("halve", |n: &u64| n / 2);
/// let not_done = halved.filter("non-zero", |n| *n > 0);
/// let (result, stats) = iteration.close_with_termination(halved, not_done);
/// let out = result.collect().unwrap();
/// assert_eq!(out.iter().sum::<u64>(), 0);
/// assert!(stats.take().unwrap().converged);
/// ```
pub struct BulkIteration<T: Data> {
    outer: Environment,
    body: Environment,
    initial_id: NodeId,
    state_slot: SourceSlot,
    head: DataSet<T>,
    head_id: NodeId,
    import_ids: Vec<NodeId>,
    import_slots: Vec<SourceSlot>,
    max_iterations: u32,
    superstep_limit: u32,
    handler: Box<dyn FaultHandler<Partitions<T>>>,
    failures: Box<dyn FailureSource>,
    observer: Option<BulkObserverFn<T>>,
    convergence: Option<BulkConvergenceProbe<T>>,
}

impl<T: Data> BulkIteration<T> {
    /// Start building a bulk iteration over `initial`, running at most
    /// `max_iterations` logical iterations.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero.
    pub fn new(initial: &DataSet<T>, max_iterations: u32) -> Self {
        assert!(max_iterations > 0, "an iteration needs at least one iteration");
        let outer = initial.environment();
        let body = Environment::with_config(outer.config());
        let state_slot = SourceSlot::new();
        let head = body.add_node(
            "iteration-head",
            vec![],
            Box::new(InjectedSource::new(state_slot.clone())),
        );
        let head_id = head.node_id();
        BulkIteration {
            outer,
            body,
            initial_id: initial.node_id(),
            state_slot,
            head,
            head_id,
            import_ids: Vec::new(),
            import_slots: Vec::new(),
            max_iterations,
            // Generous default: rollbacks and restarts re-execute supersteps,
            // but runaway recovery loops should fail loudly.
            superstep_limit: max_iterations.saturating_mul(4).saturating_add(16),
            handler: Box::new(RestartHandler),
            failures: Box::new(NoFailures),
            observer: None,
            convergence: None,
        }
    }

    /// The loop-body handle onto the current iteration state.
    pub fn state(&self) -> DataSet<T> {
        self.head.clone()
    }

    /// The loop-body environment (for constructing body-local datasets).
    pub fn body_environment(&self) -> Environment {
        self.body.clone()
    }

    /// Make an outer dataset visible inside the loop body (a loop-invariant
    /// input, like the `links`/`graph` datasets of the paper's Figure 1).
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
    pub fn set_fault_handler(&mut self, handler: impl FaultHandler<Partitions<T>> + 'static) {
        self.handler = Box::new(handler);
    }

    /// Install a failure source (defaults to no failures).
    pub fn set_failure_source(&mut self, failures: impl FailureSource + 'static) {
        self.failures = Box::new(failures);
    }

    /// Install a per-superstep observer.
    pub fn set_observer(
        &mut self,
        observer: impl FnMut(u32, &Partitions<T>, &mut IterationStats) + 'static,
    ) {
        self.observer = Some(Box::new(observer));
    }

    /// Install a convergence probe: called after every superstep with the
    /// previous and the freshly computed state (telemetry-enabled runs
    /// only). Without a probe, every record of the new state counts as
    /// changed — bulk iterations recompute everything each superstep.
    pub fn set_convergence_probe(
        &mut self,
        probe: impl FnMut(&Partitions<T>, &Partitions<T>) -> ConvergenceMeasure + 'static,
    ) {
        self.convergence = Some(Box::new(probe));
    }

    /// Override the chronological superstep budget (safety net against
    /// recovery live-lock; defaults to `4 * max_iterations + 16`).
    pub fn set_superstep_limit(&mut self, limit: u32) {
        self.superstep_limit = limit;
    }

    /// Close the loop without a termination criterion: the iteration runs
    /// for exactly `max_iterations` logical iterations.
    pub fn close(self, next_state: DataSet<T>) -> (DataSet<T>, StatsHandle) {
        self.finish(next_state, None)
    }

    /// Close the loop with a termination criterion: the iteration stops
    /// early once `termination` evaluates to an empty dataset (Flink
    /// semantics — e.g. the paper's compare-to-old-rank join emits a record
    /// for every vertex whose rank still moves).
    pub fn close_with_termination<C: Data>(
        self,
        next_state: DataSet<T>,
        termination: DataSet<C>,
    ) -> (DataSet<T>, StatsHandle) {
        let term_id = termination.node_id();
        assert!(
            Rc::ptr_eq(&termination.environment().inner, &self.body.inner),
            "termination criterion must be built inside the loop body"
        );
        let probe: CardinalityProbe =
            Box::new(|e| Ok(e.downcast::<C>("termination criterion")?.total_len()));
        self.finish(next_state, Some((term_id, probe)))
    }

    fn finish(
        self,
        next_state: DataSet<T>,
        termination: Option<TerminationProbe>,
    ) -> (DataSet<T>, StatsHandle) {
        assert!(
            Rc::ptr_eq(&next_state.environment().inner, &self.body.inner),
            "next state must be built inside the loop body"
        );
        let stats = StatsHandle::new();
        let op = IterateBulkOp {
            body: self.body,
            head_id: self.head_id,
            state_slot: self.state_slot,
            import_slots: self.import_slots,
            next_id: next_state.node_id(),
            termination,
            max_iterations: self.max_iterations,
            superstep_limit: self.superstep_limit,
            handler: self.handler,
            failures: self.failures,
            observer: self.observer,
            convergence: self.convergence,
            stats: stats.clone(),
        };
        let mut inputs = vec![self.initial_id];
        inputs.extend(&self.import_ids);
        let result = self.outer.add_node("bulk-iteration", inputs, Box::new(op));
        (result, stats)
    }
}

struct IterateBulkOp<T: Data> {
    body: Environment,
    head_id: NodeId,
    state_slot: SourceSlot,
    import_slots: Vec<SourceSlot>,
    next_id: NodeId,
    termination: Option<TerminationProbe>,
    max_iterations: u32,
    superstep_limit: u32,
    handler: Box<dyn FaultHandler<Partitions<T>>>,
    failures: Box<dyn FailureSource>,
    observer: Option<BulkObserverFn<T>>,
    convergence: Option<BulkConvergenceProbe<T>>,
    stats: StatsHandle,
}

impl<T: Data> DynOp for IterateBulkOp<T> {
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let parallelism = ctx.config.parallelism;
        let initial: Partitions<T> = inputs[0].clone().take("BulkIteration(initial)")?;
        for (slot, input) in self.import_slots.iter().zip(&inputs[1..]) {
            slot.fill(input.clone());
        }

        // Loop-invariant caching: body nodes that never read the iteration
        // state run once and are reused in every superstep.
        let volatile = {
            let inner = self.body.inner.borrow();
            if ctx.config.loop_invariant_caching {
                inner.graph.volatility(&[self.head_id])
            } else {
                vec![true; inner.graph.len()]
            }
        };
        let mut invariant_cache = PlanCache::new();

        let mut run = RunStats::default();
        let mut state = initial.clone();
        let mut iteration: u32 = 0;
        let mut superstep: u32 = 0;
        let mut converged = false;
        let telemetry = ctx.config.telemetry.clone();
        telemetry.emit(|| JournalEvent::RunStarted {
            mode: IterationMode::Bulk,
            parallelism,
            max_iterations: self.max_iterations,
        });
        let run_timer = telemetry.timer(SpanKind::Run, None, None);
        let recovery = Recovery { telemetry: &telemetry, initial: &initial };

        while iteration < self.max_iterations {
            if superstep >= self.superstep_limit {
                return Err(EngineError::Iteration(format!(
                    "superstep budget of {} exhausted at logical iteration {iteration} \
                     (likely a recovery live-lock)",
                    self.superstep_limit
                )));
            }

            // 1. Execute the loop body over the current state.
            let step_timer = telemetry.timer(SpanKind::Superstep, Some(superstep), Some(iteration));
            let step_ctx = ExecContext::new(ctx.config.clone()).at_superstep(superstep);
            // The convergence probe compares against the pre-superstep
            // state, which the injection slot is about to consume.
            let probe_prev: Option<Partitions<T>> =
                (telemetry.enabled() && self.convergence.is_some()).then(|| state.clone());
            self.state_slot.fill(Erased::new(state));
            let compute_timer =
                telemetry.timer(SpanKind::Compute, Some(superstep), Some(iteration));
            let mut targets = vec![self.next_id];
            if let Some((term_id, _)) = &self.termination {
                targets.push(*term_id);
            }
            let body_result = {
                let mut inner = self.body.inner.borrow_mut();
                exec::execute_cached(
                    &mut inner.graph,
                    &targets,
                    &step_ctx,
                    &volatile,
                    &mut invariant_cache,
                )
            };
            let mut outputs = match body_result {
                Ok(outputs) => outputs,
                Err(error) => {
                    // A UDF panicked — or a cluster worker process died —
                    // mid-superstep: the step's outputs never materialised,
                    // so recover the pre-superstep state from the injection
                    // slot (which still holds it), treat the affected
                    // partitions as failed, and redo the logical iteration.
                    // Partial counters and shuffle bookkeeping of the
                    // aborted step are discarded — no SuperstepCompleted
                    // entry exists for it.
                    let failure = Failure::of_aborted_step(error)?;
                    let duration = compute_timer.finish();
                    let _ = step_ctx.drain();
                    let _ = step_ctx.take_shuffle_time();
                    let mut recovered: Partitions<T> = self
                        .state_slot
                        .get()
                        .ok_or_else(|| {
                            EngineError::Iteration(
                                "pre-superstep state lost after partition panic".into(),
                            )
                        })?
                        .take("BulkIteration(panic recovery)")?;
                    let (failure, next_iteration) = recovery.run(
                        &mut *self.handler,
                        (superstep, iteration),
                        failure,
                        &mut recovered,
                        iteration,
                    )?;
                    let mut istats = IterationStats {
                        superstep,
                        iteration,
                        duration,
                        records_shuffled: 0,
                        failure: Some(failure),
                        ..Default::default()
                    };
                    if let Some(observer) = &mut self.observer {
                        observer(iteration, &recovered, &mut istats);
                    }
                    run.iterations.push(istats);
                    let _ = step_timer.finish();
                    superstep += 1;
                    state = recovered;
                    iteration = next_iteration;
                    continue;
                }
            };
            let term_empty = match &self.termination {
                Some((_, probe)) => probe(&outputs[1])? == 0,
                None => false,
            };
            // The next state is moved out of the outputs and the rest of them
            // dropped, so the one handle left gives the partitions back
            // without copying them.
            let next = outputs.swap_remove(0);
            drop(outputs);
            let mut next: Partitions<T> = next.take("BulkIteration(next)")?;
            let duration = compute_timer.finish();

            // 2. Superstep statistics.
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
                workset_size: None,
            });
            if telemetry.enabled() {
                let measure = match (&mut self.convergence, &probe_prev) {
                    (Some(probe), Some(prev)) => probe(prev, &next),
                    // Bulk recomputes the whole state: without a probe,
                    // every record counts as changed.
                    _ => ConvergenceMeasure {
                        changed_per_partition: next
                            .partition_sizes()
                            .iter()
                            .map(|&n| n as u64)
                            .collect(),
                        delta_norm: None,
                    },
                };
                telemetry.emit(|| JournalEvent::ConvergenceSample {
                    superstep,
                    iteration,
                    changed: measure.changed(),
                    changed_per_partition: measure.changed_per_partition,
                    delta_norm: measure.delta_norm.map(Norm),
                    workset_per_partition: None,
                });
            }
            let mut istats = IterationStats {
                superstep,
                iteration,
                duration,
                counters,
                records_shuffled: shuffled,
                ..Default::default()
            };

            // 3. Fault-tolerance hook (checkpointing).
            if let Some(cost) = self.handler.after_superstep(iteration, &next)? {
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

            // 4. Failure injection and recovery.
            let mut failed = false;
            let mut next_iteration = iteration + 1;
            let lost = self.failures.poll(superstep, parallelism).filter(|lost| !lost.is_empty());
            if let Some(lost) = lost {
                failed = true;
                let (failure, resumed) = recovery.run(
                    &mut *self.handler,
                    (superstep, iteration),
                    Failure::injected(lost),
                    &mut next,
                    iteration + 1,
                )?;
                next_iteration = resumed;
                istats.failure = Some(failure);
            }

            // 5. Observe, record, decide termination.
            if let Some(observer) = &mut self.observer {
                observer(iteration, &next, &mut istats);
            }
            run.iterations.push(istats);
            let _ = step_timer.finish();
            superstep += 1;
            state = next;
            if term_empty && !failed {
                converged = true;
                break;
            }
            iteration = next_iteration;
        }

        run.converged = converged || self.termination.is_none();
        run.total_duration = run_timer.finish();
        telemetry.emit(|| JournalEvent::RunCompleted {
            supersteps: run.supersteps(),
            iterations: run.logical_iterations(),
            converged: run.converged,
        });
        self.stats.set(run);
        Ok(Erased::new(state))
    }

    fn kind(&self) -> &'static str {
        "BulkIteration"
    }

    fn body_explain(&self) -> Option<String> {
        let inner = self.body.inner.borrow();
        let mut text = inner.graph.explain(self.next_id);
        if let Some((term_id, _)) = &self.termination {
            text.push_str("(termination criterion:)\n");
            text.push_str(&inner.graph.explain(*term_id));
        }
        Some(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::DeterministicFailures;
    use crate::stats::RecoveryKind;

    /// Fixpoint toy: state records move towards zero by one per iteration.
    fn countdown_env() -> (Environment, DataSet<u64>) {
        let env = Environment::new(4);
        let initial = env.from_vec(vec![5u64, 3, 8, 1, 0, 4, 9, 2]);
        (env, initial)
    }

    #[test]
    fn fixed_iteration_count_runs_to_max() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let (result, stats) = it.close(next);
        let out = result.collect().unwrap();
        // Each value reduced by 3, floored at 0: 2,0,5,0,0,1,6,0 sums to 14.
        assert_eq!(out.iter().sum::<u64>(), 14);
        let stats = stats.take().unwrap();
        assert_eq!(stats.supersteps(), 3);
        assert!(stats.converged);
    }

    #[test]
    fn termination_criterion_stops_early() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 100);
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, stats) = it.close_with_termination(next, still_positive);
        let out = result.collect().unwrap();
        assert!(out.iter().all(|&n| n == 0));
        let stats = stats.take().unwrap();
        assert_eq!(stats.supersteps(), 9, "max initial value is 9");
        assert!(stats.converged);
    }

    #[test]
    fn non_converging_run_reports_not_converged() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.map("keep", |n: &u64| *n);
        let never_empty = next.filter("all", |_| true);
        let (result, stats) = it.close_with_termination(next, never_empty);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.supersteps(), 3);
    }

    #[test]
    fn imports_are_visible_in_every_superstep() {
        let env = Environment::new(2);
        let initial = env.from_vec(vec![0u64]);
        let step = env.from_vec(vec![10u64]);
        let mut it = BulkIteration::new(&initial, 4);
        let step_in = it.import(&step);
        let state = it.state();
        let next = state.map_with_broadcast("add-step", &step_in, |n, s| n + s[0]);
        let (result, _) = it.close(next);
        assert_eq!(result.collect().unwrap(), vec![40]);
    }

    #[test]
    fn restart_handler_recomputes_from_scratch() {
        let (_env, initial) = countdown_env();
        let mut it = BulkIteration::new(&initial, 20);
        it.set_failure_source(DeterministicFailures::new().fail_at(2, &[0]));
        // Default handler is RestartHandler.
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, stats) = it.close_with_termination(next, still_positive);
        let out = result.collect().unwrap();
        assert!(out.iter().all(|&n| n == 0));
        let stats = stats.take().unwrap();
        assert!(stats.converged);
        // 3 wasted supersteps (0,1,2) + 9 to converge after restart.
        assert_eq!(stats.supersteps(), 12);
        assert_eq!(stats.logical_iterations(), 9);
        let failures: Vec<_> = stats.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1.recovery, RecoveryKind::Restarted);
    }

    #[test]
    fn superstep_limit_guards_against_livelock() {
        let (_env, initial) = countdown_env();
        let mut it = BulkIteration::new(&initial, 1000);
        // Fail every superstep: restart forever.
        struct Always;
        impl FailureSource for Always {
            fn poll(&mut self, _s: u32, _p: usize) -> Option<Vec<usize>> {
                Some(vec![0])
            }
        }
        it.set_failure_source(Always);
        it.set_superstep_limit(10);
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, _) = it.close_with_termination(next, still_positive);
        let err = result.collect().unwrap_err();
        assert!(err.to_string().contains("superstep budget"), "{err}");
    }

    #[test]
    fn observer_sees_every_superstep_with_gauges() {
        let (_env, initial) = countdown_env();
        let mut it = BulkIteration::new(&initial, 5);
        it.set_observer(|iteration, state: &Partitions<u64>, stats: &mut IterationStats| {
            stats.gauges.insert("sum".into(), state.iter_records().sum::<u64>() as f64);
            assert_eq!(iteration, stats.iteration);
        });
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let (result, stats) = it.close(next);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        let sums = stats.gauge_series("sum");
        assert_eq!(sums.len(), 5);
        assert!(sums.windows(2).all(|w| w[1] <= w[0]), "sums must not increase: {sums:?}");
    }

    #[test]
    fn counters_are_scoped_per_superstep() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.measured("records").map("dec", |n: &u64| n.saturating_sub(1));
        let (result, stats) = it.close(next);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert_eq!(stats.counter_series("records"), vec![8, 8, 8]);
    }

    #[test]
    fn failure_on_converging_superstep_forces_continuation() {
        let env = Environment::new(2);
        let initial = env.from_vec(vec![1u64, 1]);
        let mut it = BulkIteration::new(&initial, 20);
        // The countdown would converge at superstep 0 (all zero after one
        // step); the failure at superstep 0 must keep it running.
        it.set_failure_source(DeterministicFailures::new().fail_at(0, &[0]));
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, stats) = it.close_with_termination(next, still_positive);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert!(stats.converged);
        assert!(stats.supersteps() > 1);
    }

    #[test]
    fn a_superstep_clones_no_record_of_the_state_it_is_handed() {
        use std::sync::atomic::{AtomicU64, Ordering};

        static CLONES: AtomicU64 = AtomicU64::new(0);
        struct Counted(u64);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }

        // Telemetry is off (the convergence probe's copy of the previous
        // state is its own, journaled cost). What a run clones then — the
        // initial dataset, the result — does not depend on its length.
        let clones_of = |iterations: u32| {
            let before = CLONES.load(Ordering::Relaxed);
            let env = Environment::new(2);
            let initial = env.from_vec((0..8).map(Counted).collect());
            let it = BulkIteration::new(&initial, iterations);
            let next = it.state().map("inc", |c: &Counted| Counted(c.0 + 1));
            let (result, _) = it.close(next);
            let out = result.collect().unwrap();
            assert_eq!(out.iter().map(|c| c.0).sum::<u64>(), 28 + 8 * u64::from(iterations));
            CLONES.load(Ordering::Relaxed) - before
        };
        assert_eq!(clones_of(9), clones_of(3), "six more supersteps, not one more clone");
    }

    #[test]
    fn loop_invariant_subplans_run_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let run = |caching: bool| {
            let env = Environment::with_config(
                crate::config::EnvConfig::new(2).with_loop_invariant_caching(caching),
            );
            let initial = env.from_vec(vec![0u64]);
            let lookup = env.from_vec(vec![(0u64, 5u64)]);
            let invocations = Arc::new(AtomicU64::new(0));
            let probe = invocations.clone();
            let mut it = BulkIteration::new(&initial, 4);
            let lookup_in = it.import(&lookup);
            // This branch never touches the iteration state: it must be
            // computed once with caching, every superstep without.
            let prepared = lookup_in.map("prepare", move |r: &(u64, u64)| {
                probe.fetch_add(1, Ordering::Relaxed);
                r.1
            });
            let state = it.state();
            let next = state.map_with_broadcast("add", &prepared, |n, p| n + p[0]);
            let (result, _) = it.close(next);
            assert_eq!(result.collect().unwrap(), vec![20]);
            invocations.load(Ordering::Relaxed)
        };
        assert_eq!(run(true), 1, "invariant branch must run once with caching");
        assert_eq!(run(false), 4, "and every superstep without");
    }

    #[test]
    fn state_dependent_subplans_never_cache() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let env = Environment::new(2);
        let initial = env.from_vec(vec![0u64]);
        let invocations = Arc::new(AtomicU64::new(0));
        let probe = invocations.clone();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.map("inc", move |n: &u64| {
            probe.fetch_add(1, Ordering::Relaxed);
            n + 1
        });
        let (result, _) = it.close(next);
        assert_eq!(result.collect().unwrap(), vec![3]);
        assert_eq!(invocations.load(Ordering::Relaxed), 3);
    }
}
