//! Experiment-facing recovery-strategy descriptors, and the one table that
//! turns a descriptor into a handler.
//!
//! Handlers are typed against the iteration state and carry the
//! algorithm's compensation function; experiments instead describe *which*
//! strategy to run as plain data, and [`Strategy::handler`] builds the
//! concrete handler — for bulk and delta iterations (`algos::common`) and
//! for the cluster's coordinator alike.

use dataflow::error::Result;
use dataflow::ft::{FaultHandler, RestartHandler, Snapshot};
use telemetry::SinkHandle;

use crate::async_snapshot::AsyncSnapshotHandler;
use crate::checkpoint::{CheckpointHandler, StableStore};
use crate::compensation::Compensation;
use crate::ignore::IgnoreHandler;
use crate::optimistic::OptimisticHandler;

/// A fault handler over the iteration state `S`, of whichever strategy.
pub type Handler<S> = Box<dyn FaultHandler<S>>;

/// Which fault-tolerance strategy an experiment run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Optimistic recovery (the paper's mechanism): no checkpoints; on
    /// failure the algorithm's compensation function restores a consistent
    /// state. Optimal failure-free performance.
    Optimistic,
    /// Rollback recovery: checkpoint the iteration state every `interval`
    /// iterations, restore the latest snapshot on failure.
    Checkpoint {
        /// Iterations between snapshots.
        interval: u32,
    },
    /// Incremental rollback recovery (delta iterations only): a full
    /// snapshot every `full_interval` iterations, solution-set diffs in
    /// between, replayed on failure.
    IncrementalCheckpoint {
        /// Iterations between full snapshots.
        full_interval: u32,
    },
    /// Asynchronous barrier snapshots (Chandy–Lamport style, the mechanism
    /// behind Flink's checkpoints): a barrier every `interval` iterations
    /// captures a consistent cut without a global pause — the stable-storage
    /// writes are spread over the following supersteps while computation
    /// keeps running. Recovery restores the last *complete* snapshot.
    AsyncSnapshot {
        /// Iterations between barrier injections.
        interval: u32,
    },
    /// Restart from scratch on failure — what lineage-based recovery
    /// degenerates to for iterative jobs (paper §2.2). Zero failure-free
    /// overhead, maximal recovery cost.
    Restart,
    /// Ablation: leave lost partitions empty. Converges to *wrong* results;
    /// included to demonstrate why compensation functions are needed.
    Ignore,
}

impl Strategy {
    /// Stable label for reports and CSV columns.
    pub fn label(&self) -> String {
        match self {
            Strategy::Optimistic => "optimistic".to_string(),
            Strategy::Checkpoint { interval } => format!("checkpoint({interval})"),
            Strategy::IncrementalCheckpoint { full_interval } => {
                format!("incremental({full_interval})")
            }
            Strategy::AsyncSnapshot { interval } => format!("async-snapshot({interval})"),
            Strategy::Restart => "restart".to_string(),
            Strategy::Ignore => "ignore".to_string(),
        }
    }

    /// Whether recovery rolls back to a captured cut rather than
    /// recomputing forward: a restore rewinds the state to the cut (on a
    /// cluster the cut's state is pushed down and the workers regenerate
    /// its messages).
    pub fn is_rollback(self) -> bool {
        matches!(
            self,
            Strategy::Checkpoint { .. }
                | Strategy::IncrementalCheckpoint { .. }
                | Strategy::AsyncSnapshot { .. }
        )
    }

    /// The strategy → handler table, for any iteration state. `compensation`
    /// is what the optimistic handler invokes; `store` opens the stable
    /// store, called only for the strategies that write one; `incremental`
    /// builds the one strategy that is not generic over the state, from the
    /// store and its full-snapshot interval. A zero interval is refused by
    /// the handlers' constructors.
    pub fn handler<S, C>(
        self,
        compensation: C,
        store: impl FnOnce() -> Result<Box<dyn StableStore>>,
        telemetry: &SinkHandle,
        incremental: impl FnOnce(Box<dyn StableStore>, u32) -> Result<Handler<S>>,
    ) -> Result<Handler<S>>
    where
        S: Snapshot + 'static,
        C: Compensation<S> + 'static,
    {
        let telemetry = telemetry.clone();
        Ok(match self {
            Strategy::Optimistic => {
                Box::new(OptimisticHandler::new(compensation).with_telemetry(telemetry))
            }
            Strategy::Checkpoint { interval } => {
                Box::new(CheckpointHandler::new(store()?, interval)?.with_telemetry(telemetry))
            }
            Strategy::IncrementalCheckpoint { full_interval } => {
                incremental(store()?, full_interval)?
            }
            Strategy::AsyncSnapshot { interval } => {
                Box::new(AsyncSnapshotHandler::new(store()?, interval)?.with_telemetry(telemetry))
            }
            Strategy::Restart => Box::new(RestartHandler),
            Strategy::Ignore => Box::new(IgnoreHandler),
        })
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Strategy::Optimistic.label(), "optimistic");
        assert_eq!(Strategy::Checkpoint { interval: 3 }.label(), "checkpoint(3)");
        assert_eq!(Strategy::Restart.label(), "restart");
        assert_eq!(Strategy::IncrementalCheckpoint { full_interval: 4 }.label(), "incremental(4)");
        assert_eq!(Strategy::AsyncSnapshot { interval: 2 }.label(), "async-snapshot(2)");
        assert_eq!(Strategy::Ignore.to_string(), "ignore");
    }

    #[test]
    fn the_rollback_strategies_are_the_ones_that_restore_a_cut() {
        assert!(!Strategy::Optimistic.is_rollback());
        assert!(!Strategy::Restart.is_rollback());
        assert!(!Strategy::Ignore.is_rollback());
        assert!(Strategy::Checkpoint { interval: 2 }.is_rollback());
        assert!(Strategy::IncrementalCheckpoint { full_interval: 2 }.is_rollback());
        assert!(Strategy::AsyncSnapshot { interval: 2 }.is_rollback());
    }
}
