//! Iterative execution: bulk and delta iterations.
//!
//! Both iteration kinds follow the same superstep protocol:
//!
//! 1. Inject the current iteration state into the loop body's head nodes and
//!    execute the body plan.
//! 2. Drain per-superstep counters into an [`crate::stats::IterationStats`].
//! 3. Offer the fresh state to the fault handler (which may checkpoint).
//! 4. Poll the failure source; on failure, drop the lost partitions and let
//!    the fault handler recover (compensate / roll back / restart / ignore).
//!    A superstep aborted by a UDF panic or a lost worker process takes the
//!    same step over its pre-superstep state: one routine serves all four
//!    sites.
//! 5. Run the user observer, then decide termination.
//!
//! Logical iteration numbers move backwards on rollback and restart;
//! chronological superstep numbers never repeat. The difference between the
//! two is exactly the redundant work a recovery strategy pays.

mod bulk;
mod delta;

pub use bulk::BulkIteration;
pub use delta::{DeltaIteration, ResidentRun};

use std::cell::RefCell;
use std::rc::Rc;

use telemetry::{JournalEvent, SinkHandle, SpanKind};

use crate::error::{EngineError, Result};
use crate::ft::{FaultHandler, IterationState, RecoveryAction};
use crate::partition::PartitionId;
use crate::stats::{FailureRecord, RecoveryKind, RunStats};

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
pub(crate) struct Failure {
    cause: FailureCause,
    lost: Vec<PartitionId>,
}

impl Failure {
    /// Partitions destroyed by the failure source after a completed step.
    pub(crate) fn injected(lost: Vec<PartitionId>) -> Self {
        Failure { cause: FailureCause::Injected, lost }
    }

    /// The failure an aborted superstep stands for: a UDF panic or the loss
    /// of a cluster worker. Any other error is not a failure of partitions
    /// and is handed back to be propagated.
    pub(crate) fn of_aborted_step(error: EngineError) -> std::result::Result<Self, EngineError> {
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

/// The drivers' recovery step, shared by both iteration kinds.
pub(crate) struct Recovery<'a, S> {
    pub(crate) telemetry: &'a SinkHandle,
    /// The iteration's input: where a restart resumes from.
    pub(crate) initial: &'a S,
}

impl<S: IterationState> Recovery<'_, S> {
    /// Lose the failed partitions of `state`, journal the failure, let the
    /// handler recover and apply its verdict to `state`. `resume_at` is the
    /// logical iteration that runs next when the state was repaired in place
    /// (compensated or ignored): an injected failure destroys a step's
    /// *output*, so execution moves on to `iteration + 1`, while an aborted
    /// step left no output and `iteration` itself is redone. A restored
    /// checkpoint resumes after its own iteration, a restart at zero.
    /// Returns the failure's record and the iteration to run next.
    pub(crate) fn run(
        &self,
        handler: &mut dyn FaultHandler<S>,
        (superstep, iteration): (u32, u32),
        failure: Failure,
        state: &mut S,
        resume_at: u32,
    ) -> Result<(FailureRecord, u32)> {
        let Recovery { telemetry, initial } = *self;
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
                *state = initial.clone();
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
    pub(crate) fn new() -> Self {
        StatsHandle::default()
    }

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
        let h = StatsHandle::new();
        assert!(h.get().is_none());
        h.set(RunStats::default());
        assert!(h.get().is_some());
        assert!(h.take().is_some());
        assert!(h.take().is_none());
    }
}
