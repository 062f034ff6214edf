//! Optimistic recovery for iterative dataflows — the paper's contribution.
//!
//! In a distributed dataflow engine, the intermediate state of an iterative
//! algorithm is partitioned across workers; a worker failure destroys its
//! partitions. Classic *rollback recovery* periodically checkpoints the
//! state to stable storage and, on failure, restores the latest snapshot —
//! paying overhead on every run, failures or not.
//!
//! The optimistic alternative (Schelter et al., CIKM 2013; demonstrated in
//! Dudoladov et al., SIGMOD 2015) observes that a large class of fixpoint
//! algorithms converge to the correct solution from *many* intermediate
//! states, not just checkpointed ones. Instead of checkpointing, a
//! user-supplied **compensation function** re-initialises lost partitions to
//! a consistent state from which the algorithm keeps converging:
//!
//! * Connected Components: reset lost vertices to their initial labels and
//!   let them (and their neighbours) re-propagate.
//! * PageRank: ranks must sum to one, so uniformly redistribute the lost
//!   probability mass over the vertices of the failed partitions.
//!
//! Failure-free runs proceed with **zero** fault-tolerance overhead.
//!
//! This crate implements the strategies on top of the `dataflow` engine's
//! one recovery contract, [`dataflow::ft::FaultHandler`], which is generic
//! over the iteration state — so every strategy below is a single type that
//! serves bulk iterations, delta iterations and the cluster's coordinator:
//!
//! * [`compensation`] — the compensation-function trait with its closure
//!   adapter.
//! * [`optimistic`] — the optimistic fault handler.
//! * [`checkpoint`] — the rollback baseline: interval checkpointing into a
//!   [`checkpoint::StableStore`] (in-memory or on-disk) with a configurable
//!   stable-storage cost model.
//! * [`async_snapshot`] — the asynchronous-barrier-snapshot baseline
//!   (Chandy–Lamport / Flink style): barriers capture a consistent cut
//!   without a global pause and the stable-storage writes spread over the
//!   following supersteps; recovery restores the last *complete* epoch.
//! * [`incremental`] — an optimised rollback variant that logs solution-set
//!   diffs between full snapshots; the one handler that only makes sense
//!   for delta iterations.
//! * [`ignore`] — the do-nothing "handler" used by the ablation study.
//! * [`scenario`] — failure schedules (deterministic and random/MTBF).
//! * [`strategy`] — experiment-facing strategy descriptors and the one
//!   strategy → handler table ([`Strategy::handler`]) every run builds its
//!   handler through.

#![warn(missing_docs)]
// No panicking lookup on a recovery path: CI's clippy step denies warnings.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod async_snapshot;
pub mod checkpoint;
pub mod compensation;
pub mod ignore;
pub mod incremental;
pub mod optimistic;
pub mod scenario;
pub mod strategy;

pub use async_snapshot::AsyncSnapshotHandler;
pub use checkpoint::{cut_due, CheckpointHandler, CostModel, DiskStore, MemoryStore, StableStore};
pub use compensation::Compensation;
pub use ignore::IgnoreHandler;
pub use incremental::IncrementalDeltaHandler;
pub use optimistic::OptimisticHandler;
pub use scenario::{FailureScenario, RandomFailures};
pub use strategy::{Handler, Strategy};

/// One fixed state per shape, as of an iteration: the inputs the strategy
/// tests run the contract over.
#[cfg(test)]
pub(crate) mod test_states {
    use dataflow::dataset::Partitions;
    use dataflow::ft::DeltaState;

    pub(crate) type Delta = DeltaState<u64, u64, (u64, u64)>;

    /// Four partitions of two records.
    pub(crate) fn bulk(iteration: u32) -> Partitions<u64> {
        Partitions::round_robin((0..8).map(|v| v + 100 * u64::from(iteration)).collect(), 4)
    }

    /// Two partitions: three solution entries and three workset records.
    pub(crate) fn delta(iteration: u32) -> Delta {
        let shift = u64::from(iteration);
        let mut solution = vec![dataflow::hash::FxHashMap::default(); 2];
        solution[0].insert(2, 20 + shift);
        solution[0].insert(4, 40 + shift);
        solution[1].insert(1, 10 + shift);
        let workset =
            Partitions::from_parts(vec![vec![(2, 20 + shift)], vec![(1, 10 + shift), (3, 30)]]);
        DeltaState { solution, workset }
    }

    pub(crate) fn same_delta(a: &Delta, b: &Delta) -> bool {
        a.solution == b.solution && a.workset == b.workset
    }
}
