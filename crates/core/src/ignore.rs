//! The ablation "strategy": acknowledge the failure and do nothing.
//!
//! Without a compensation function the fixpoint still *terminates* in many
//! cases — but on the wrong input: Connected Components simply forgets the
//! lost vertices, PageRank loses probability mass and converges to ranks
//! that no longer form a distribution. Experiment A1 uses this handler to
//! show why optimistic recovery needs the compensation function at all.

use dataflow::error::Result;
use dataflow::ft::{FaultHandler, RecoveryAction};
use dataflow::partition::PartitionId;

/// Leaves lost partitions empty and lets the iteration continue.
#[derive(Debug, Default, Clone, Copy)]
pub struct IgnoreHandler;

impl<S> FaultHandler<S> for IgnoreHandler {
    fn restarts(&self) -> bool {
        false
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut S,
    ) -> Result<RecoveryAction<S>> {
        Ok(RecoveryAction::Ignore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::ft::IterationState;

    fn ignore_leaves<S: IterationState>(mut state: S, unchanged: impl Fn(&S, &S) -> bool) {
        state.clear_partition(0);
        let before = state.clone();
        let action = IgnoreHandler.on_failure(2, &[0], &mut state).unwrap();
        assert!(matches!(action, RecoveryAction::Ignore));
        assert!(unchanged(&before, &state), "ignore must leave the state as the failure left it");
    }

    #[test]
    fn ignore_leaves_both_state_shapes_untouched() {
        ignore_leaves(crate::test_states::bulk(0), |a, b| a == b);
        ignore_leaves(crate::test_states::delta(0), crate::test_states::same_delta);
    }
}
