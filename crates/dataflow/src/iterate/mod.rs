//! Iterative execution: bulk and delta iterations.
//!
//! Both iteration kinds run through one superstep loop, `Driver::run`,
//! generic over the iteration state. A kind supplies two hooks, its
//! `Step`: the step itself (lend the state to the loop body, make the next
//! state of the body's outputs, or take the lent state back when the body
//! aborted) and its termination rule (checked before a superstep, after one,
//! and at the iteration budget). Each superstep the loop
//!
//! 1. lends the state to the step and executes the body plan under a context
//!    that names the chronological superstep and the logical iteration;
//! 2. takes the next state back, drains the superstep's counters and
//!    journals `SuperstepCompleted` and `ConvergenceSample`;
//! 3. offers the fresh state to the fault handler (which may checkpoint);
//! 4. polls the failure source. Lost partitions of the step's output and a
//!    step the body aborted (a UDF panic, a lost worker process) take the
//!    one recovery call: the failed partitions are dropped and the fault
//!    handler recovers (compensate / roll back / restart / ignore). An
//!    aborted step recovers from its pre-superstep state, which the step
//!    hands back out of the body's head slots;
//! 5. builds the superstep's [`IterationStats`] once, runs the user
//!    observer on it and decides termination.
//!
//! The loop takes the initial state as an owned handle. Only for a handler
//! that may restart ([`FaultHandler::restarts`]) does it keep the handle as
//! the origin a restart resets to and step a copy: under optimistic
//! recovery a run steps the state it was handed and copies nothing of it.
//!
//! Logical iteration numbers move backwards on rollback and restart;
//! chronological superstep numbers never repeat. The difference between the
//! two is exactly the redundant work a recovery strategy pays.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod bulk;
mod delta;

pub use bulk::{BulkIteration, BulkState};
pub use delta::{DeltaIteration, ResidentRun};

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use telemetry::{IterationMode, JournalEvent, Norm, SinkHandle, SpanKind, SpanRecord};

use crate::api::Environment;
use crate::dataset::Erased;
use crate::error::{EngineError, Result};
use crate::exec::{self, ExecContext, PlanCache};
use crate::ft::{
    FailureSource, FaultHandler, IterationState, NoFailures, RecoveryAction, RestartHandler,
};
use crate::operators::SourceSlot;
use crate::partition::PartitionId;
use crate::plan::NodeId;
use crate::stats::{FailureRecord, IterationStats, RecoveryKind, RunStats};

/// What a convergence probe measured for one superstep.
///
/// Probes run between computing the next state and the fault-tolerance
/// hooks, so they see the *pre-failure* result of the superstep — the
/// numbers a `ConvergenceSample` journal event carries. Per-partition
/// counts are indexed by partition id; missing probes fall back to
/// driver-level defaults (bulk: every record counts as changed, delta:
/// solution-set upserts).
#[derive(Debug, Clone, Default)]
pub struct ConvergenceMeasure {
    /// Elements whose value moved during the superstep, per partition.
    pub changed_per_partition: Vec<u64>,
    /// Algorithm-specific aggregate delta norm (e.g. L1 rank movement);
    /// [`None`] when the probe measures counts only.
    pub delta_norm: Option<f64>,
}

impl ConvergenceMeasure {
    /// Total changed elements across all partitions.
    pub fn changed(&self) -> u64 {
        self.changed_per_partition.iter().sum()
    }
}

/// Per-superstep observer over the (possibly recovered) state.
type Observer<S> = Box<dyn FnMut(u32, &S, &mut IterationStats)>;

/// What an iteration kind's step made of a superstep the body completed.
pub(crate) struct Stepped<S> {
    /// The state the superstep computed.
    pub(crate) state: S,
    /// What the superstep changed, when asked for (telemetry on).
    pub(crate) measure: Option<ConvergenceMeasure>,
    /// Whether the kind's termination rule holds after the superstep.
    pub(crate) done: bool,
    /// Solution entries the superstep upserted (delta), counted as
    /// `delta_updates`.
    pub(crate) updates: Option<u64>,
}

/// An iteration kind's share of the superstep loop: how its state enters
/// the loop body and comes back out, and when it stops.
pub(crate) trait Step<S> {
    /// The kind, as `RunStarted` journals it.
    const MODE: IterationMode;

    /// Move `state` into the head slots for one body execution.
    fn lend(&mut self, state: S);

    /// The state lent to a superstep the body aborted, back out of the head
    /// slots.
    fn reclaim(&mut self) -> Result<S>;

    /// The next state, made from the body's outputs and the state lent to
    /// it (on `ctx`'s pool, where the kind has per-partition work); measured
    /// when `measure` is set.
    fn finish(
        &mut self,
        outputs: Vec<Erased>,
        measure: bool,
        ctx: &ExecContext,
    ) -> Result<Stepped<S>>;

    /// Whether the run has converged at `state`, checked before each
    /// superstep.
    fn converged(&self, _state: &S) -> bool {
        false
    }

    /// Whether a run that spends its iteration budget has converged.
    fn converged_at_budget(&self) -> bool {
        false
    }

    /// Per-partition sizes of the working set in `state`, for a kind that
    /// has one.
    fn workset(_state: &S) -> Option<Vec<u64>> {
        None
    }
}

/// The state an iteration lent its body, back out of the head slot: the
/// body's node outputs are dropped by then, so the slot holds the only
/// handle and nothing is copied.
fn reclaim<T: Clone + Send + Sync + 'static>(slot: &SourceSlot, what: &str) -> Result<T> {
    slot.take()
        .ok_or_else(|| EngineError::Iteration(format!("{what} lent to the loop body lost")))?
        .into_inner(what)
}

/// Everything an iteration holds whatever its kind: the loop body and its
/// imports, the budgets, and the fault-tolerance and observation hooks.
/// [`Self::run`] is the one superstep loop.
pub(crate) struct Driver<S> {
    pub(crate) body: Environment,
    /// The body's head nodes, which read the iteration state.
    pub(crate) heads: Vec<NodeId>,
    /// The body nodes a superstep executes, the next state first.
    pub(crate) targets: Vec<NodeId>,
    /// The outer nodes the imports read, in import order.
    pub(crate) import_ids: Vec<NodeId>,
    import_slots: Vec<SourceSlot>,
    max_iterations: u32,
    pub(crate) superstep_limit: u32,
    pub(crate) handler: Box<dyn FaultHandler<S>>,
    pub(crate) failures: Box<dyn FailureSource>,
    pub(crate) observer: Option<Observer<S>>,
}

impl<S: IterationState + Send + Sync + 'static> Driver<S> {
    /// A loop over a fresh body environment configured like `outer`,
    /// running at most `max_iterations` logical iterations.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero.
    pub(crate) fn new(outer: &Environment, max_iterations: u32) -> Self {
        assert!(max_iterations > 0, "an iteration needs at least one iteration");
        Driver {
            body: Environment::with_config(outer.config()),
            heads: Vec::new(),
            targets: Vec::new(),
            import_ids: Vec::new(),
            import_slots: Vec::new(),
            max_iterations,
            // Generous default: rollbacks and restarts re-execute supersteps,
            // but runaway recovery loops should fail loudly.
            superstep_limit: max_iterations.saturating_mul(4).saturating_add(16),
            handler: Box::new(RestartHandler),
            failures: Box::new(NoFailures),
            observer: None,
        }
    }

    /// Register node `id` of `from`, which must be the iteration's enclosing
    /// environment `outer`, as an import; the returned slot receives its
    /// output when the iteration runs.
    pub(crate) fn import(
        &mut self,
        outer: &Environment,
        from: &Environment,
        id: NodeId,
    ) -> SourceSlot {
        assert!(
            Rc::ptr_eq(&from.inner, &outer.inner),
            "import source must come from the enclosing environment"
        );
        let slot = SourceSlot::new();
        self.import_ids.push(id);
        self.import_slots.push(slot.clone());
        slot
    }

    /// Assert that `what`, a dataset of `env`, was built inside the body.
    pub(crate) fn assert_in_body(&self, env: &Environment, what: &str) {
        assert!(
            Rc::ptr_eq(&env.inner, &self.body.inner),
            "{what} must be built inside the loop body"
        );
    }

    /// Run the loop from `initial`, a handle on an `S`, with `imports` (the
    /// outputs of the import nodes) in the import slots. Returns the final
    /// state and the run's account. For a handler that
    /// [restarts](FaultHandler::restarts) the handle is kept as the restart
    /// origin and the loop steps a copy; otherwise the loop steps the state
    /// itself, copied only if another holder shares the handle.
    pub(crate) fn run<M: Step<S>>(
        &mut self,
        step: &mut M,
        initial: Erased,
        imports: &[Erased],
        ctx: &ExecContext,
    ) -> Result<(S, RunStats)> {
        let parallelism = ctx.config.parallelism;
        for (slot, input) in self.import_slots.iter().zip(imports) {
            slot.fill(input.clone());
        }

        // Loop-invariant caching: body nodes that never read the iteration
        // state run once and are reused in every superstep.
        let volatile = {
            let inner = self.body.inner.borrow();
            if ctx.config.loop_invariant_caching {
                inner.graph.volatility(&self.heads)
            } else {
                vec![true; inner.graph.len()]
            }
        };
        let mut invariant_cache = PlanCache::new();

        let telemetry = ctx.config.telemetry.clone();
        telemetry.emit(|| JournalEvent::RunStarted {
            mode: M::MODE,
            parallelism,
            max_iterations: self.max_iterations,
        });
        let run_timer = telemetry.timer(SpanKind::Run, None, None);
        let origin = self.handler.restarts().then(|| initial.clone());
        let recovery = Recovery { telemetry: &telemetry, origin: origin.as_ref() };
        let mut run = RunStats::default();
        let mut state: S = initial.into_inner("iteration (initial state)")?;
        let (mut iteration, mut superstep) = (0u32, 0u32);

        run.converged = loop {
            if step.converged(&state) {
                break true;
            }
            if iteration >= self.max_iterations {
                break step.converged_at_budget();
            }
            if superstep >= self.superstep_limit {
                return Err(EngineError::Iteration(format!(
                    "superstep budget of {} exhausted at logical iteration {iteration} \
                     (likely a recovery live-lock)",
                    self.superstep_limit
                )));
            }

            // 1. Execute the loop body over the state the step lends it.
            let step_timer = telemetry.timer(SpanKind::Superstep, Some(superstep), Some(iteration));
            let cut = self.handler.reads_state(iteration);
            let step_ctx =
                ExecContext::new(ctx.config.clone()).at_superstep(superstep, iteration, cut);
            let compute_timer =
                telemetry.timer(SpanKind::Compute, Some(superstep), Some(iteration));
            step.lend(state);
            let body_result = {
                let mut inner = self.body.inner.borrow_mut();
                exec::execute_cached(
                    &mut inner.graph,
                    &self.targets,
                    &step_ctx,
                    &volatile,
                    &mut invariant_cache,
                )
            };
            // A UDF panic or a lost worker process aborts the superstep: its
            // outputs never materialised. Any other error is the run's.
            let stepped = match body_result {
                Ok(outputs) => Ok(step.finish(outputs, telemetry.enabled(), &step_ctx)?),
                Err(error) => Err(Failure::of_aborted_step(error)?),
            };
            let mut istats = IterationStats {
                superstep,
                iteration,
                duration: compute_timer.finish(),
                ..Default::default()
            };

            let (mut next, done, resume_at, failure) = match stepped {
                Ok(Stepped { state: next, measure, done, updates }) => {
                    // 2. Superstep statistics.
                    let (counters, shuffled) = step_ctx.drain();
                    let shuffle_time = step_ctx.take_shuffle_time();
                    if shuffle_time > Duration::ZERO {
                        telemetry.span(&SpanRecord {
                            kind: SpanKind::Shuffle,
                            superstep: Some(superstep),
                            iteration: Some(iteration),
                            duration: shuffle_time,
                        });
                    }
                    let workset = M::workset(&next);
                    telemetry.emit(|| JournalEvent::SuperstepCompleted {
                        superstep,
                        iteration,
                        records_shuffled: shuffled,
                        workset_size: workset.as_ref().map(|sizes| sizes.iter().sum()),
                    });
                    if let Some(measure) = measure {
                        telemetry.emit(|| JournalEvent::ConvergenceSample {
                            superstep,
                            iteration,
                            changed: measure.changed(),
                            changed_per_partition: measure.changed_per_partition,
                            delta_norm: measure.delta_norm.map(Norm),
                            workset_per_partition: workset,
                        });
                    }
                    istats.counters = counters;
                    istats.records_shuffled = shuffled;
                    if let Some(updates) = updates {
                        istats.counters.insert("delta_updates".into(), updates);
                    }

                    // 3. Fault-tolerance hook (checkpointing).
                    if let Some(cost) = self.handler.after_superstep(iteration, &next)? {
                        telemetry.emit(|| JournalEvent::CheckpointWritten {
                            iteration,
                            bytes: cost.bytes,
                        });
                        telemetry.span(&SpanRecord {
                            kind: SpanKind::Checkpoint,
                            superstep: Some(superstep),
                            iteration: Some(iteration),
                            duration: cost.duration,
                        });
                        istats.checkpoint_bytes = Some(cost.bytes);
                        istats.checkpoint_duration = Some(cost.duration);
                    }

                    // 4. Failure injection: the failure destroys the step's
                    // output, so a state repaired in place moves on.
                    let failure = self
                        .failures
                        .poll(superstep, parallelism)
                        .filter(|lost| !lost.is_empty())
                        .map(|lost| Failure { cause: FailureCause::Injected, lost });
                    (next, done, iteration + 1, failure)
                }
                // The aborted step left no output and no account: its partial
                // counters are dropped with its context, no
                // `SuperstepCompleted` is journaled, and a state repaired in
                // place redoes its iteration.
                Err(failure) => (step.reclaim()?, false, iteration, Some(failure)),
            };
            let mut next_iteration = resume_at;
            if let Some(failure) = failure {
                let (record, resumed) = recovery.run(
                    &mut *self.handler,
                    (superstep, iteration),
                    failure,
                    &mut next,
                    resume_at,
                )?;
                istats.failure = Some(record);
                next_iteration = resumed;
            }
            istats.workset_size = M::workset(&next).map(|sizes| sizes.iter().sum());

            // 5. Observe, record, decide termination.
            if let Some(observer) = &mut self.observer {
                observer(iteration, &next, &mut istats);
            }
            let failed = istats.failure.is_some();
            run.iterations.push(istats);
            let _ = step_timer.finish();
            superstep += 1;
            state = next;
            if done && !failed {
                break true;
            }
            iteration = next_iteration;
        };

        run.total_duration = run_timer.finish();
        telemetry.emit(|| JournalEvent::RunCompleted {
            supersteps: run.supersteps(),
            iterations: run.logical_iterations(),
            converged: run.converged,
        });
        Ok((state, run))
    }
}

/// What took the partitions of a superstep away.
enum FailureCause {
    /// The failure source destroyed partitions of the step's output.
    Injected,
    /// A UDF panicked in this partition: the step produced no output.
    Panic(PartitionId),
    /// This worker process died mid-step: the step produced no output.
    WorkerLost(usize),
}

/// A failure the fault handler is asked to recover from.
struct Failure {
    cause: FailureCause,
    lost: Vec<PartitionId>,
}

impl Failure {
    /// The failure an aborted superstep stands for: a UDF panic or the loss
    /// of a cluster worker. Any other error is not a failure of partitions
    /// and is handed back to be propagated.
    fn of_aborted_step(error: EngineError) -> std::result::Result<Self, EngineError> {
        match error {
            EngineError::PartitionPanic { pid, .. } => {
                Ok(Failure { cause: FailureCause::Panic(pid), lost: vec![pid] })
            }
            EngineError::WorkerLost { worker, pids, .. } => {
                Ok(Failure { cause: FailureCause::WorkerLost(worker), lost: pids })
            }
            other => Err(other),
        }
    }
}

/// The loop's recovery step.
struct Recovery<'a> {
    telemetry: &'a SinkHandle,
    /// The iteration's input, where a restart resumes from; kept only when
    /// the handler restarts.
    origin: Option<&'a Erased>,
}

impl Recovery<'_> {
    /// Lose the failed partitions of `state`, journal the failure, let the
    /// handler recover and apply its verdict to `state`. `resume_at` is the
    /// logical iteration that runs next when the state was repaired in place
    /// (compensated or ignored): an injected failure destroys a step's
    /// *output*, so execution moves on to `iteration + 1`, while an aborted
    /// step left no output and `iteration` itself is redone. A restored
    /// checkpoint resumes after its own iteration, a restart at zero.
    /// Returns the failure's record and the iteration to run next.
    fn run<S: IterationState + 'static>(
        &self,
        handler: &mut dyn FaultHandler<S>,
        (superstep, iteration): (u32, u32),
        failure: Failure,
        state: &mut S,
        resume_at: u32,
    ) -> Result<(FailureRecord, u32)> {
        let Recovery { telemetry, origin } = *self;
        let Failure { cause, lost } = failure;
        let lost_records = lost.iter().map(|&pid| state.clear_partition(pid)).sum();
        match cause {
            FailureCause::Injected => {}
            FailureCause::Panic(pid) => {
                telemetry.emit(|| JournalEvent::PartitionPanicked { superstep, iteration, pid });
            }
            FailureCause::WorkerLost(worker) => telemetry.emit(|| JournalEvent::WorkerLost {
                superstep,
                iteration,
                worker,
                lost_partitions: lost.clone(),
            }),
        }
        telemetry.emit(|| JournalEvent::FailureInjected {
            superstep,
            iteration,
            lost_partitions: lost.clone(),
            lost_records,
        });
        let timer = telemetry.timer(SpanKind::Recovery, Some(superstep), Some(iteration));
        let (recovery, next_iteration) = match handler.on_failure(iteration, &lost, state)? {
            RecoveryAction::Compensated => (RecoveryKind::Compensated, resume_at),
            RecoveryAction::Restored { iteration: restored, state: restored_state } => {
                *state = restored_state;
                (RecoveryKind::RolledBack { to_iteration: restored }, restored + 1)
            }
            RecoveryAction::Restart => {
                let origin = origin.ok_or_else(|| {
                    EngineError::Recovery(
                        "the fault handler restarted but declared it never restarts, \
                         so no restart origin was kept"
                            .into(),
                    )
                })?;
                *state = origin.downcast_ref::<S>("iteration (restart origin)")?.clone();
                (RecoveryKind::Restarted, 0)
            }
            RecoveryAction::Ignore => (RecoveryKind::Ignored, resume_at),
        };
        let recovery_duration = timer.finish();
        telemetry.emit(|| JournalEvent::from_recovery(&recovery, iteration));
        let record =
            FailureRecord { lost_partitions: lost, lost_records, recovery, recovery_duration };
        Ok((record, next_iteration))
    }
}

/// Shared handle through which an iteration publishes its [`RunStats`].
///
/// Returned by `close(..)`; filled when the enclosing plan executes.
#[derive(Clone, Default)]
pub struct StatsHandle {
    inner: Rc<RefCell<Option<RunStats>>>,
}

impl StatsHandle {
    pub(crate) fn set(&self, stats: RunStats) {
        *self.inner.borrow_mut() = Some(stats);
    }

    /// Take the statistics of the last execution, leaving the handle empty.
    pub fn take(&self) -> Option<RunStats> {
        self.inner.borrow_mut().take()
    }

    /// Clone the statistics of the last execution.
    pub fn get(&self) -> Option<RunStats> {
        self.inner.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_handle_roundtrip() {
        let h = StatsHandle::default();
        assert!(h.get().is_none());
        h.set(RunStats::default());
        assert!(h.get().is_some());
        assert!(h.take().is_some());
        assert!(h.take().is_none());
    }
}
