//! The optimistic fault handler: no checkpoints, no lineage — on failure,
//! invoke the compensation function and keep iterating (paper §2.2).

use dataflow::error::Result;
use dataflow::ft::{FaultHandler, RecoveryAction};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

use crate::compensation::Compensation;

/// Optimistic recovery, for either iteration kind.
///
/// `after_superstep` does nothing — this is where the "optimal failure-free
/// performance" of the paper comes from: the handler adds zero work to a
/// failure-free run. Under a delta iteration the compensation re-initialises
/// the lost solution-set partitions *and* seeds workset records so the
/// restored keys (and, typically, their neighbours) re-propagate.
pub struct OptimisticHandler<C> {
    compensation: C,
    recoveries: u32,
    telemetry: SinkHandle,
}

impl<C> OptimisticHandler<C> {
    /// Handler around the given compensation function.
    pub fn new(compensation: C) -> Self {
        OptimisticHandler { compensation, recoveries: 0, telemetry: SinkHandle::disabled() }
    }

    /// Report compensation invocations to the given telemetry sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of failures compensated so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }
}

// `after_superstep` is the trait's default: no checkpoint, no lineage
// tracking. A compensation never restarts, so the driver keeps no copy of
// the initial state either.
impl<S, C: Compensation<S>> FaultHandler<S> for OptimisticHandler<C> {
    fn restarts(&self) -> bool {
        false
    }

    fn on_failure(
        &mut self,
        iteration: u32,
        lost: &[PartitionId],
        state: &mut S,
    ) -> Result<RecoveryAction<S>> {
        self.compensation.compensate(state, lost, iteration);
        self.recoveries += 1;
        self.telemetry.emit(|| JournalEvent::CompensationInvoked {
            name: self.compensation.name().to_owned(),
            iteration,
        });
        Ok(RecoveryAction::Compensated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::dataset::Partitions;
    use dataflow::ft::{DeltaState, IterationState};

    /// Lose partition 1 of `state`, let the handler compensate it and
    /// return the repaired state.
    fn compensates_in_place<S: IterationState>(
        mut state: S,
        compensation: impl FnMut(&mut S, &[PartitionId], u32),
    ) -> S {
        let mut handler = OptimisticHandler::new(compensation);
        assert!(handler.after_superstep(0, &state).unwrap().is_none());
        state.clear_partition(1);
        let action = handler.on_failure(1, &[1], &mut state).unwrap();
        assert!(matches!(action, RecoveryAction::Compensated));
        assert_eq!(handler.recoveries(), 1);
        state
    }

    #[test]
    fn compensates_both_state_shapes_in_place() {
        let bulk = compensates_in_place(
            Partitions::round_robin(vec![5u64, 6, 7, 8], 2),
            |state: &mut Partitions<u64>, lost: &[PartitionId], _iter: u32| {
                for &pid in lost {
                    *state.partition_mut(pid) = vec![0];
                }
            },
        );
        assert_eq!(bulk.partition(1), &[0]);
        assert_eq!(bulk.partition(0), &[5, 7], "survivors are untouched");

        let delta = compensates_in_place(
            DeltaState::<u64, u64, (u64, u64)> {
                solution: vec![Default::default(); 2],
                workset: Partitions::empty(2),
            },
            |state: &mut DeltaState<u64, u64, (u64, u64)>, lost: &[PartitionId], _iter: u32| {
                for &pid in lost {
                    state.solution[pid].insert(pid as u64, 0);
                    state.workset.partition_mut(pid).push((pid as u64, 0));
                }
            },
        );
        assert!(delta.solution[1].contains_key(&1));
        assert_eq!(delta.workset.total_len(), 1, "the restored key re-enters the workset");
    }

    #[test]
    fn failure_free_run_does_no_work() {
        let mut handler =
            OptimisticHandler::new(|_s: &mut Partitions<u64>, _l: &[PartitionId], _i: u32| {
                panic!("compensation must not run without a failure")
            });
        let state = Partitions::round_robin(vec![1u64], 1);
        for iteration in 0..100 {
            assert!(handler.after_superstep(iteration, &state).unwrap().is_none());
        }
        assert_eq!(handler.recoveries(), 0);
    }
}
