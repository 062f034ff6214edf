//! Bulk iterations: the whole state dataset is recomputed every superstep.

use telemetry::IterationMode;

use crate::api::{DataSet, Environment};
use crate::dataset::{Data, Erased, Partitions};
use crate::error::Result;
use crate::exec::ExecContext;
use crate::ft::{FailureSource, FaultHandler, IterationState};
use crate::iterate::{reclaim, ConvergenceMeasure, Driver, StatsHandle, Step, Stepped};
use crate::operators::{InjectedSource, SourceSlot};
use crate::plan::{DynOp, NodeId};
use crate::stats::IterationStats;

/// The state of a bulk iteration: the [`Partitions`] of its records, or a
/// state kept elsewhere that the loop body reads as a whole with
/// [`Erased::downcast_ref`] (the cluster's, whose partitions stay on the
/// processes that compute them).
pub trait BulkState: IterationState + Send + Sync + 'static {
    /// Records per partition: what a superstep changed when no convergence
    /// probe measures it.
    fn records_per_partition(&self) -> Vec<u64>;
}

impl<T: Data> BulkState for Partitions<T> {
    fn records_per_partition(&self) -> Vec<u64> {
        self.partition_sizes().iter().map(|&n| n as u64).collect()
    }
}

/// Observer callback invoked after every superstep with the (possibly
/// recovered) state; may record gauges/counters into the superstep's stats.
type BulkObserverFn<S> = Box<dyn FnMut(u32, &S, &mut IterationStats)>;

/// Convergence probe for bulk iterations: called with the previous and the
/// freshly computed state after every superstep (telemetry-enabled runs
/// only); the measurement feeds the `ConvergenceSample` journal event.
type BulkConvergenceProbe<S> = Box<dyn FnMut(&S, &S) -> ConvergenceMeasure>;

/// Termination criterion: a closure measuring the (type-erased) cardinality
/// of the body node it probes.
type CardinalityProbe = Box<dyn Fn(&Erased) -> Result<usize>>;

/// Builder for a bulk iteration, Flink-style: the loop body is a nested
/// dataflow whose head is the current state; closing the loop yields a
/// dataset holding the final state.
///
/// The state is the head's [`Partitions<T>`] unless the iteration was built
/// [`BulkIteration::over`] another [`BulkState`] `S`: then the head and the
/// result carry an `S`, which only nodes that read it as one may consume.
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
pub struct BulkIteration<T: Data, S: BulkState = Partitions<T>> {
    outer: Environment,
    initial_id: NodeId,
    head: DataSet<T>,
    driver: Driver<S>,
    step: BulkStep<S>,
}

impl<T: Data> BulkIteration<T> {
    /// Start building a bulk iteration over `initial`, running at most
    /// `max_iterations` logical iterations.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero.
    pub fn new(initial: &DataSet<T>, max_iterations: u32) -> Self {
        Self::over(initial, max_iterations)
    }
}

impl<T: Data, S: BulkState> BulkIteration<T, S> {
    /// [`BulkIteration::new`] over the state `S` that `initial`'s node
    /// produces.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero.
    pub fn over(initial: &DataSet<T>, max_iterations: u32) -> Self {
        let outer = initial.environment();
        let mut driver = Driver::new(&outer, max_iterations);
        let step = BulkStep { state_slot: SourceSlot::new(), termination: None, convergence: None };
        let head = step.state_slot.clone();
        let head =
            driver.body.add_node("iteration-head", vec![], Box::new(InjectedSource::new(head)));
        driver.heads.push(head.node_id());
        BulkIteration { outer, initial_id: initial.node_id(), head, driver, step }
    }

    /// The loop-body handle onto the current iteration state.
    pub fn state(&self) -> DataSet<T> {
        self.head.clone()
    }

    /// The loop-body environment (for constructing body-local datasets).
    pub fn body_environment(&self) -> Environment {
        self.driver.body.clone()
    }

    /// Make an outer dataset visible inside the loop body (a loop-invariant
    /// input, like the `links`/`graph` datasets of the paper's Figure 1).
    pub fn import<A: Data>(&mut self, outer: &DataSet<A>) -> DataSet<A> {
        let slot = self.driver.import(&self.outer, &outer.environment(), outer.node_id());
        self.driver.body.add_node("import", vec![], Box::new(InjectedSource::new(slot)))
    }

    /// Install a fault handler (defaults to restart-from-scratch).
    pub fn set_fault_handler(&mut self, handler: Box<dyn FaultHandler<S>>) {
        self.driver.handler = handler;
    }

    /// Install a failure source (defaults to no failures).
    pub fn set_failure_source(&mut self, failures: impl FailureSource + 'static) {
        self.driver.failures = Box::new(failures);
    }

    /// Install a per-superstep observer.
    pub fn set_observer(&mut self, observer: impl FnMut(u32, &S, &mut IterationStats) + 'static) {
        let observer: BulkObserverFn<S> = Box::new(observer);
        self.driver.observer = Some(observer);
    }

    /// Install a convergence probe: called after every superstep with the
    /// previous and the freshly computed state (telemetry-enabled runs
    /// only). Without a probe, every record of the new state counts as
    /// changed — bulk iterations recompute everything each superstep.
    pub fn set_convergence_probe(
        &mut self,
        probe: impl FnMut(&S, &S) -> ConvergenceMeasure + 'static,
    ) {
        self.step.convergence = Some(Box::new(probe));
    }

    /// Override the chronological superstep budget (safety net against
    /// recovery live-lock; defaults to `4 * max_iterations + 16`).
    pub fn set_superstep_limit(&mut self, limit: u32) {
        self.driver.superstep_limit = limit;
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
        self.driver.assert_in_body(&termination.environment(), "termination criterion");
        let probe: CardinalityProbe =
            Box::new(|e| Ok(e.downcast::<C>("termination criterion")?.total_len()));
        self.finish(next_state, Some((term_id, probe)))
    }

    fn finish(
        mut self,
        next_state: DataSet<T>,
        termination: Option<(NodeId, CardinalityProbe)>,
    ) -> (DataSet<T>, StatsHandle) {
        self.driver.assert_in_body(&next_state.environment(), "next state");
        self.driver.targets.push(next_state.node_id());
        if let Some((term_id, probe)) = termination {
            self.driver.targets.push(term_id);
            self.step.termination = Some(probe);
        }
        let mut inputs = vec![self.initial_id];
        inputs.extend(&self.driver.import_ids);
        let stats = StatsHandle::default();
        let op = IterateBulkOp { driver: self.driver, step: self.step, stats: stats.clone() };
        let result = self.outer.add_node("bulk-iteration", inputs, Box::new(op));
        (result, stats)
    }
}

/// A bulk iteration's share of the loop: the state goes into the head slot,
/// the body yields `[next, termination]`, and the run stops on an empty
/// termination set.
struct BulkStep<S> {
    state_slot: SourceSlot,
    termination: Option<CardinalityProbe>,
    convergence: Option<BulkConvergenceProbe<S>>,
}

impl<S: BulkState> Step<S> for BulkStep<S> {
    const MODE: IterationMode = IterationMode::Bulk;

    fn lend(&mut self, state: S) {
        self.state_slot.fill(Erased::of(state));
    }

    fn reclaim(&mut self) -> Result<S> {
        reclaim(&self.state_slot, "BulkIteration(pre-superstep state)")
    }

    fn finish(
        &mut self,
        mut outputs: Vec<Erased>,
        measure: bool,
        _ctx: &ExecContext,
    ) -> Result<Stepped<S>> {
        let done = match &self.termination {
            Some(probe) => probe(&outputs[1])? == 0,
            None => false,
        };
        // The next state is moved out of the outputs and the rest of them
        // dropped, so the one handle left gives the state back without
        // copying it.
        let next = outputs.swap_remove(0);
        drop(outputs);
        let next: S = next.into_inner("BulkIteration(next)")?;
        // The head slot still holds the state the superstep started from:
        // the convergence probe reads it there, and it is dropped after.
        let prev = self.state_slot.take();
        let measure = match (&mut self.convergence, prev) {
            _ if !measure => None,
            (Some(probe), Some(prev)) => {
                Some(probe(prev.downcast_ref("BulkIteration(previous state)")?, &next))
            }
            // Bulk recomputes the whole state: without a probe, every record
            // counts as changed.
            _ => Some(ConvergenceMeasure {
                changed_per_partition: next.records_per_partition(),
                delta_norm: None,
            }),
        };
        Ok(Stepped { state: next, measure, done, updates: None })
    }

    fn converged_at_budget(&self) -> bool {
        self.termination.is_none()
    }
}

struct IterateBulkOp<S: BulkState> {
    driver: Driver<S>,
    step: BulkStep<S>,
    stats: StatsHandle,
}

impl<S: BulkState> DynOp for IterateBulkOp<S> {
    fn execute(&mut self, mut inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let initial = inputs.remove(0);
        let (state, stats) = self.driver.run(&mut self.step, initial, &inputs, ctx)?;
        self.stats.set(stats);
        Ok(Erased::of(state))
    }

    fn kind(&self) -> &'static str {
        "BulkIteration"
    }

    fn body_explain(&self) -> Option<String> {
        let inner = self.driver.body.inner.borrow();
        let mut text = inner.graph.explain(self.driver.targets[0]);
        if let Some(&term_id) = self.driver.targets.get(1) {
            text.push_str("(termination criterion:)\n");
            text.push_str(&inner.graph.explain(term_id));
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

        // What a run clones — the initial dataset, the result — does not
        // depend on its length: not untraced, and not traced with a
        // convergence probe, which reads the state the superstep started
        // from where the head slot still holds it.
        let clones_of = |iterations: u32, traced: bool| {
            let before = CLONES.load(Ordering::Relaxed);
            let mut config = crate::config::EnvConfig::new(2);
            if traced {
                let sink = std::sync::Arc::new(telemetry::MemorySink::new());
                config = config.with_telemetry(telemetry::SinkHandle::new(sink));
            }
            let env = Environment::with_config(config);
            let initial = env.from_vec((0..8).map(Counted).collect());
            let mut it = BulkIteration::new(&initial, iterations);
            it.set_convergence_probe(|prev: &Partitions<Counted>, next: &Partitions<Counted>| {
                let changed = prev.as_parts().iter().zip(next.as_parts());
                let changed_per_partition = changed
                    .map(|(before, after)| before.iter().zip(after).filter(|(b, a)| b.0 != a.0))
                    .map(|moved| moved.count() as u64)
                    .collect();
                ConvergenceMeasure { changed_per_partition, delta_norm: None }
            });
            let next = it.state().map("inc", |c: &Counted| Counted(c.0 + 1));
            let (result, _) = it.close(next);
            let out = result.collect().unwrap();
            assert_eq!(out.iter().map(|c| c.0).sum::<u64>(), 28 + 8 * u64::from(iterations));
            CLONES.load(Ordering::Relaxed) - before
        };
        for traced in [false, true] {
            assert_eq!(
                clones_of(9, traced),
                clones_of(3, traced),
                "six more supersteps, not one more clone (traced: {traced})"
            );
        }
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
