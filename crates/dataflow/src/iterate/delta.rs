//! Delta iterations: a keyed solution set is selectively updated while a
//! working set carries the records that still change (paper §2.1).

use std::hash::Hash;

use telemetry::IterationMode;

use crate::api::{DataSet, Environment, Shared, SolutionHandle};
use crate::dataset::{Data, Erased, Partitions};
use crate::error::{EngineError, Result};
use crate::exec::{self, par_map_untimed, ExecContext};
use crate::ft::{solution_sets, DeltaState, FailureSource, FaultHandler, SolutionSets};
use crate::hash::fx_hash;
use crate::iterate::{reclaim, ConvergenceMeasure, Driver, StatsHandle, Step, Stepped};
use crate::operators::{InjectedSource, SourceSlot};
use crate::partition::exchange;
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
/// The body never sees the solution set as records: the driver lends it its
/// own per-partition maps for the step and [`DataSet::join_solution`] looks
/// keys up in place, so a superstep costs what the working set touches, not
/// the size of the solution. The solution is materialised as a dataset
/// once, for the final result.
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
/// let updates = candidates.join_solution(
///     "label-update",
///     &iteration.solution_set(),
///     |c| c.0,
///     |c, label: &u64| if c.1 < *label { Some((c.0, c.1)) } else { None },
/// ).flat_map("updated-only", |u| *u);
/// let (result, stats) = iteration.close(updates.clone(), updates);
/// let labels = result.collect().unwrap();
/// assert!(labels.iter().all(|&(_, l)| l == 0));
/// assert!(stats.take().unwrap().converged);
/// ```
pub struct DeltaIteration<K: SolutionKey, V: Data, W: Data> {
    outer: Environment,
    /// The plan nodes of the initial solution set and workset; `None` for
    /// an iteration that runs from state the caller keeps ([`Self::over`]).
    initial: Option<(NodeId, NodeId)>,
    solution_head: SolutionHandle<K, V>,
    workset_head: DataSet<W>,
    driver: Driver<DeltaState<K, V, W>>,
    step: DeltaStep<K, V>,
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
        let outer = initial_solution.environment();
        assert!(
            std::rc::Rc::ptr_eq(&initial_workset.environment().inner, &outer.inner),
            "solution set and workset must come from the same environment"
        );
        let mut iteration = Self::over(&outer, max_iterations);
        iteration.initial = Some((initial_solution.node_id(), initial_workset.node_id()));
        iteration
    }

    /// Start building a delta iteration over state the caller keeps: it has
    /// no initial datasets, is closed with [`Self::run_from`] and hands its
    /// state back instead of materialising it. `env` is where imports come
    /// from and whose configuration the run uses.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero.
    pub fn over(env: &Environment, max_iterations: u32) -> Self {
        let mut driver = Driver::new(env, max_iterations);
        let step = DeltaStep {
            solution_slot: SourceSlot::new(),
            workset_slot: SourceSlot::new(),
            norm_probe: None,
            upserted: None,
        };
        let body = &driver.body;
        let head = Box::new(InjectedSource::new(step.solution_slot.clone()));
        let solution_head_id = body.inner.borrow_mut().graph.add("solution-set", vec![], head);
        let head = Box::new(InjectedSource::new(step.workset_slot.clone()));
        let workset_head = body.add_node("workset", vec![], head);
        let solution_head = Shared::new(body.clone(), solution_head_id);
        driver.heads = vec![solution_head_id, workset_head.node_id()];
        DeltaIteration {
            outer: env.clone(),
            initial: None,
            solution_head,
            workset_head,
            driver,
            step,
        }
    }

    /// Loop-body handle onto the current solution set, to be joined against
    /// with [`DataSet::join_solution`].
    pub fn solution_set(&self) -> SolutionHandle<K, V> {
        self.solution_head.clone()
    }

    /// Loop-body view of the current working set.
    pub fn workset(&self) -> DataSet<W> {
        self.workset_head.clone()
    }

    /// The loop-body environment.
    pub fn body_environment(&self) -> Environment {
        self.driver.body.clone()
    }

    /// Make an outer dataset visible inside the loop body.
    pub fn import<A: Data>(&mut self, outer: &DataSet<A>) -> DataSet<A> {
        let slot = self.driver.import(&self.outer, &outer.environment(), outer.node_id());
        self.driver.body.add_node("import", vec![], Box::new(InjectedSource::new(slot)))
    }

    /// Make an outer shared value (a keyed index) visible inside the loop
    /// body.
    pub fn import_shared<T>(&mut self, outer: &Shared<T>) -> Shared<T> {
        let slot = self.driver.import(&self.outer, &outer.environment(), outer.node_id());
        let head = Box::new(InjectedSource::new(slot));
        let id = self.driver.body.inner.borrow_mut().graph.add("import", vec![], head);
        Shared::new(self.driver.body.clone(), id)
    }

    /// Install a fault handler (defaults to restart-from-scratch).
    pub fn set_fault_handler(&mut self, handler: Box<dyn FaultHandler<DeltaState<K, V, W>>>) {
        self.driver.handler = handler;
    }

    /// Install a failure source (defaults to no failures).
    pub fn set_failure_source(&mut self, failures: impl FailureSource + 'static) {
        self.driver.failures = Box::new(failures);
    }

    /// Install a per-superstep observer.
    pub fn set_observer(
        &mut self,
        observer: impl FnMut(u32, &SolutionSets<K, V>, &Partitions<W>, &mut IterationStats) + 'static,
    ) {
        let mut observer: DeltaObserverFn<K, V, W> = Box::new(observer);
        self.driver.observer =
            Some(Box::new(move |iteration, state: &DeltaState<K, V, W>, stats| {
                observer(iteration, &state.solution, &state.workset, stats)
            }));
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
        self.step.norm_probe = Some(Box::new(probe));
    }

    /// Override the chronological superstep budget.
    pub fn set_superstep_limit(&mut self, limit: u32) {
        self.driver.superstep_limit = limit;
    }

    /// Close the loop. `delta` contains solution-set upserts; `next_workset`
    /// feeds the next iteration. Returns the final solution set.
    ///
    /// # Panics
    /// Panics on an iteration built with [`Self::over`], which has no
    /// initial datasets to start from (close it with [`Self::run_from`]).
    // Closing an iteration over caller-kept state into a dataset is a
    // misuse of the builder, not a failure of the run: it panics like the
    // builder's other plan-shape assertions.
    #[allow(clippy::expect_used)]
    pub fn close(
        self,
        delta: DataSet<(K, V)>,
        next_workset: DataSet<W>,
    ) -> (DataSet<(K, V)>, StatsHandle) {
        let (initial_solution_id, initial_workset_id) = self
            .initial
            .expect("an iteration over caller-kept state is closed with run_from, not close");
        let outer = self.outer.clone();
        let op = self.close_loop(delta, next_workset);
        let mut inputs = vec![initial_solution_id, initial_workset_id];
        inputs.extend(&op.driver.import_ids);
        let stats = op.stats.clone();
        (outer.add_node("delta-iteration", inputs, Box::new(op)), stats)
    }

    /// Close the loop and run it now from `initial`, state the caller keeps
    /// resident between runs. The final state comes back as it is — solution
    /// maps and (empty, if converged) workset, nothing materialised — with
    /// the keys the run upserted, so the caller can patch whatever it
    /// derived from the previous state. `initial` is stepped in place: it is
    /// copied only as the restart origin of a handler that
    /// [restarts](crate::ft::FaultHandler::restarts), and a run that fails
    /// consumes it.
    pub fn run_from(
        self,
        delta: DataSet<(K, V)>,
        next_workset: DataSet<W>,
        initial: DeltaState<K, V, W>,
    ) -> Result<ResidentRun<K, V, W>> {
        let outer = self.outer.clone();
        let IterateDeltaOp { mut driver, mut step, .. } = self.close_loop(delta, next_workset);
        let ctx = ExecContext::new(outer.config());
        let imports = exec::execute(&mut outer.inner.borrow_mut().graph, &driver.import_ids, &ctx)?;
        step.upserted = Some(Vec::new());
        let (state, stats) = driver.run(&mut step, Erased::of(initial), &imports, &ctx)?;
        Ok(ResidentRun { state, upserted: step.upserted.unwrap_or_default(), stats })
    }

    fn close_loop(
        mut self,
        delta: DataSet<(K, V)>,
        next_workset: DataSet<W>,
    ) -> IterateDeltaOp<K, V, W> {
        self.driver.assert_in_body(&delta.environment(), "delta");
        self.driver.assert_in_body(&next_workset.environment(), "next workset");
        self.driver.targets = vec![delta.node_id(), next_workset.node_id()];
        IterateDeltaOp { driver: self.driver, step: self.step, stats: StatsHandle::default() }
    }
}

/// What [`DeltaIteration::run_from`] hands back.
pub struct ResidentRun<K, V, W> {
    /// The final state: the solution maps, and the workset left when the run
    /// stopped (empty if it converged).
    pub state: DeltaState<K, V, W>,
    /// Every key a delta upserted during the run, in application order,
    /// repeats included. A run without failures changed no other entry; a
    /// compensation writes entries that are not listed here.
    pub upserted: Vec<K>,
    /// Per-superstep statistics of the run.
    pub stats: RunStats,
}

/// A delta iteration's share of the loop: the solution maps and the workset
/// are lent to the body, the delta it yields is applied to the maps, and the
/// run stops when the workset is empty before a superstep.
struct DeltaStep<K: SolutionKey, V: Data> {
    solution_slot: SourceSlot,
    workset_slot: SourceSlot,
    norm_probe: Option<DeltaNormProbe<K, V>>,
    /// The key of every applied delta entry, when the run collects them.
    upserted: Option<Vec<K>>,
}

impl<K: SolutionKey, V: Data, W: Data> Step<DeltaState<K, V, W>> for DeltaStep<K, V> {
    const MODE: IterationMode = IterationMode::Delta;

    /// Both parts move into their slots for the step and come back out of
    /// them right after it, whatever became of the step.
    fn lend(&mut self, state: DeltaState<K, V, W>) {
        self.solution_slot.fill(Erased::of(state.solution));
        self.workset_slot.fill(Erased::new(state.workset));
    }

    /// The body only reads the solution sets (upserts happen after it), so
    /// an aborted step gives them back untouched, with its workset.
    fn reclaim(&mut self) -> Result<DeltaState<K, V, W>> {
        Ok(DeltaState {
            solution: reclaim(&self.solution_slot, "DeltaIteration(solution sets)")?,
            workset: reclaim(&self.workset_slot, "DeltaIteration(pre-superstep workset)")?,
        })
    }

    fn finish(
        &mut self,
        outputs: Vec<Erased>,
        measure: bool,
        ctx: &ExecContext,
    ) -> Result<Stepped<DeltaState<K, V, W>>> {
        let solution: SolutionSets<K, V> =
            reclaim(&self.solution_slot, "DeltaIteration(solution sets)")?;
        self.workset_slot.take();
        // Taken one after the other so that each handle is the last one
        // when its turn comes: a body that closes one dataset as both delta
        // and next workset pays one copy, not two.
        let mut outputs = outputs.into_iter();
        let (Some(delta), Some(next_workset)) = (outputs.next(), outputs.next()) else {
            return Err(EngineError::Iteration("a delta step yields two outputs".into()));
        };
        let delta: Partitions<(K, V)> = delta.take("DeltaIteration(delta)")?;
        let workset = next_workset.take("DeltaIteration(next workset)")?;

        // Apply the delta: route each entry to its key's partition, then
        // upsert every partition's entries into its map, in delta order, one
        // task per partition. The norm probe observes the solution *before*
        // the apply consumes the delta.
        let updates = delta.total_len() as u64;
        let delta_norm = if measure {
            self.norm_probe.as_mut().and_then(|probe| probe(&solution, &delta))
        } else {
            None
        };
        if let Some(keys) = &mut self.upserted {
            keys.extend(delta.iter_records().map(|(k, _)| k.clone()));
        }
        let p = solution.len();
        let routed = exchange(delta.into_parts(), p, ctx, |(k, _): &(K, V)| k.clone())?;
        let changed_per_partition =
            routed.partition_sizes().into_iter().map(|n| n as u64).collect();
        let maps = solution.into_iter().zip(routed.buckets).collect();
        let solution = par_map_untimed(maps, ctx, updates as usize, |_, (mut set, entries)| {
            for (k, v) in entries.into_iter().flatten() {
                set.insert(k, v);
            }
            set
        })?;
        Ok(Stepped {
            state: DeltaState { solution, workset },
            measure: measure.then_some(ConvergenceMeasure { changed_per_partition, delta_norm }),
            done: false,
            updates: Some(updates),
        })
    }

    fn converged(&self, state: &DeltaState<K, V, W>) -> bool {
        state.workset.is_empty()
    }

    fn workset(state: &DeltaState<K, V, W>) -> Option<Vec<u64>> {
        Some(state.workset.partition_sizes().iter().map(|&n| n as u64).collect())
    }
}

struct IterateDeltaOp<K: SolutionKey, V: Data, W: Data> {
    driver: Driver<DeltaState<K, V, W>>,
    step: DeltaStep<K, V>,
    stats: StatsHandle,
}

/// Materialise the solution sets as a partitioned dataset, in a
/// deterministic per-partition order (hash maps iterate in arbitrary order;
/// the sort keeps results bit-reproducible). Runs once per iteration, for
/// the result dataset: supersteps probe the maps in place.
fn materialize_solution<K: SolutionKey, V: Data>(sets: &SolutionSets<K, V>) -> Partitions<(K, V)> {
    let parts = sets
        .iter()
        .map(|set| {
            let mut records: Vec<(K, V)> =
                set.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            records.sort_by_cached_key(|(k, _)| fx_hash(k));
            records
        })
        .collect();
    Partitions::from_parts(parts)
}

impl<K: SolutionKey, V: Data, W: Data> DynOp for IterateDeltaOp<K, V, W> {
    fn execute(&mut self, mut inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let imports = inputs.split_off(2);
        let workset = inputs.swap_remove(1).take::<W>("DeltaIteration(workset)")?;
        let solution = inputs[0].downcast::<(K, V)>("DeltaIteration(solution)")?;
        let initial = DeltaState {
            solution: solution_sets(solution.iter_records().cloned(), ctx.config.parallelism),
            workset,
        };
        let (state, stats) = self.driver.run(&mut self.step, Erased::of(initial), &imports, ctx)?;
        self.stats.set(stats);
        Ok(Erased::new(materialize_solution(&state.solution)))
    }

    fn kind(&self) -> &'static str {
        "DeltaIteration"
    }

    fn body_explain(&self) -> Option<String> {
        let inner = self.driver.body.inner.borrow();
        let mut text = String::from("(delta:)\n");
        text.push_str(&inner.graph.explain(self.driver.targets[0]));
        text.push_str("(next workset:)\n");
        text.push_str(&inner.graph.explain(self.driver.targets[1]));
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
            .join_solution(
                "label-update",
                &it.solution_set(),
                |c| c.0,
                |c, label: &u64| if c.1 < *label { Some((c.0, c.1)) } else { None },
            )
            .flat_map("updated-only", |u: &Option<Label>| *u);
        let (result, stats) = it.close(updates.clone(), updates);
        let mut labels = result.collect().unwrap();
        labels.sort_unstable();
        (labels, stats.take().unwrap())
    }

    /// The min-label body over `workset` (the iteration's own, or something
    /// derived from it), its edges a kept index over the path 0-1-...-n-1;
    /// returns what `close` or `run_from` take.
    fn min_label_body(
        it: &mut DeltaIteration<u64, u64, Label>,
        env: &Environment,
        n: u64,
        workset: DataSet<Label>,
    ) -> DataSet<Label> {
        let rows = (0..n).map(|v| {
            let neighbours = [v.checked_sub(1), (v + 1 < n).then_some(v + 1)];
            neighbours.into_iter().flatten().collect()
        });
        let rows = crate::index::tests::DenseRows(rows.collect());
        let edges = it.import_shared(&env.from_index(std::sync::Arc::new(rows)));
        workset
            .join_index("to-neighbors", &edges, |w: &Label| w.0, |w, &u| (u, w.1))
            .reduce_by_key("min-candidate", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b })
            .join_solution(
                "label-update",
                &it.solution_set(),
                |c| c.0,
                |c, label: &u64| (c.1 < *label).then_some((c.0, c.1)),
            )
            .flat_map("updated-only", |u: &Option<Label>| *u)
    }

    fn resident_state(labels: &[Label], seeds: &[Label], p: usize) -> DeltaState<u64, u64, Label> {
        DeltaState {
            solution: solution_sets(labels.iter().copied(), p),
            workset: Partitions::keyed(seeds.to_vec(), p, |w| w.0),
        }
    }

    #[test]
    fn a_run_from_resident_state_hands_the_state_and_its_upserts_back() {
        // Two converged paths 0..8 and 8..16 joined by the edge (7, 8): only
        // the second path's labels fall, from 8 to 0.
        let n = 16u64;
        let env = Environment::new(3);
        let labels: Vec<Label> = (0..n).map(|v| (v, if v < 8 { 0 } else { 8 })).collect();
        let initial = resident_state(&labels, &[(7, 0), (8, 8)], 3);
        let mut it = DeltaIteration::over(&env, 100);
        let workset = it.workset();
        let updates = min_label_body(&mut it, &env, n, workset);
        let run = it.run_from(updates.clone(), updates, initial).unwrap();

        assert!(run.stats.converged);
        assert!(run.state.workset.is_empty());
        let mut after: Vec<Label> =
            run.state.solution.iter().flatten().map(|(&v, &l)| (v, l)).collect();
        after.sort_unstable();
        assert_eq!(after, (0..n).map(|v| (v, 0)).collect::<Vec<_>>());
        let mut upserted = run.upserted;
        upserted.sort_unstable();
        assert_eq!(upserted, (8..n).collect::<Vec<_>>(), "exactly the entries that changed");
    }

    #[test]
    #[should_panic(expected = "run_from, not close")]
    fn an_iteration_over_kept_state_cannot_be_closed_into_a_dataset() {
        let env = Environment::new(2);
        let mut it = DeltaIteration::over(&env, 10);
        let workset = it.workset();
        let updates = min_label_body(&mut it, &env, 4, workset);
        let _ = it.close(updates.clone(), updates);
    }

    #[test]
    fn a_body_panic_gives_the_solution_maps_back_untouched() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

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

        let n = 24u64;
        let env = Environment::new(3);
        let labels: Vec<Label> = (0..n).map(|v| (v, v)).collect();
        let initial = resident_state(&labels, &labels, 3);
        let mut it = DeltaIteration::over(&env, 200);
        it.set_fault_handler(Box::new(IgnoreAll));
        // Every superstep's view of the solution sets, as the observer gets
        // it: after the step's upserts, or after the failed partitions were
        // cleared.
        let seen: Rc<RefCell<Vec<SolutionSets<u64, u64>>>> = Rc::default();
        let sink = seen.clone();
        it.set_observer(move |_, solution, _, _| sink.borrow_mut().push(solution.clone()));
        // Panic in the third body execution, in whichever partition runs
        // the poisoned record first.
        let executions = Arc::new(AtomicU32::new(0));
        let counter = executions.clone();
        let ticking = it.workset().map_partition("tick", move |pid, ws: &[Label]| {
            if pid == 0 {
                counter.fetch_add(1, Ordering::SeqCst);
            }
            ws.to_vec()
        });
        let armed = executions.clone();
        let poisoned = ticking.map_partition("boom", move |pid, ws: &[Label]| {
            assert!(!(pid == 1 && armed.load(Ordering::SeqCst) == 3), "injected body panic");
            ws.to_vec()
        });
        let updates = min_label_body(&mut it, &env, n, poisoned);
        let run = it.run_from(updates.clone(), updates, initial).unwrap();

        let failed: Vec<u32> = run.stats.failures().map(|(s, _)| s).collect();
        assert_eq!(failed, vec![2], "the third body execution panicked");
        let seen = seen.borrow();
        // The aborted step lent the maps out and got them back as they were
        // after superstep 1 — minus partition 1, which the failure cleared.
        for pid in [0, 2] {
            assert_eq!(seen[2][pid], seen[1][pid], "partition {pid} came back changed");
        }
        assert!(seen[2][1].is_empty());
        assert!(!seen[1][1].is_empty());
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
            it.set_fault_handler(Box::new(IgnoreAll));
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
