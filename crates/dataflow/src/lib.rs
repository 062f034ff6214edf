//! A miniature iterative dataflow engine in the spirit of Apache Flink /
//! Stratosphere, built as the substrate for reproducing *"Optimistic Recovery
//! for Iterative Dataflows in Action"* (Dudoladov et al., SIGMOD 2015).
//!
//! The engine provides:
//!
//! * **Partitioned datasets** ([`dataset::Partitions`]) — every dataset is
//!   split into `p` hash partitions, modelling the partitions that live on
//!   `p` workers of a distributed cluster.
//! * **A typed, fluent dataflow API** ([`api::Environment`],
//!   [`api::DataSet`]) that builds a DAG of operators: `map`, `filter`,
//!   `flat_map`, `reduce_by_key`, `join`, `co_group`, `cross`, `union`,
//!   `distinct`, and friends. Keyed operators shuffle their inputs with a
//!   deterministic hash partitioner and account for every record that crosses
//!   a partition boundary.
//! * **Bulk iterations** ([`iterate::BulkIteration`]) — the whole iteration
//!   state is recomputed every superstep, with an optional *termination
//!   criterion* dataset (the iteration stops once it becomes empty), exactly
//!   like Flink's bulk iterations.
//! * **Delta iterations** ([`iterate::DeltaIteration`]) — a keyed *solution
//!   set* is selectively updated by a *delta* dataset while a *working set*
//!   carries the records that still change; the iteration terminates once the
//!   working set is empty.
//! * **Fault-tolerance hooks** ([`ft`]) — failures are injected at superstep
//!   boundaries by a [`ft::FailureSource`] (partitions of the iteration state
//!   are dropped) and handled by a pluggable [`ft::FaultHandler`], one
//!   contract generic over the iteration state (bulk or delta). The
//!   `recovery` crate implements the paper's strategies (optimistic
//!   compensation, checkpoint rollback, restart) on top of it; the engine
//!   itself ships only the trivial restart-from-scratch handler.
//! * **Run statistics** ([`stats`]) — per-superstep durations, named record
//!   counters (e.g. the paper's "messages per iteration"), shuffled-record
//!   counts, checkpoint costs and failure/recovery events.
//!
//! # Quick example
//!
//! ```
//! use dataflow::prelude::*;
//!
//! let env = Environment::new(4);
//! let numbers = env.from_vec((0u64..100).collect());
//! let doubled = numbers.map("double", |n| n * 2);
//! let sum = doubled
//!     .reduce_by_key("sum-all", |_| 0u64, |a, b| a + b)
//!     .map("identity", |n| *n);
//! let out = sum.collect().unwrap();
//! assert_eq!(out, vec![(0..100u64).map(|n| n * 2).sum::<u64>()]);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod codec;
pub mod config;
pub mod dataset;
pub mod error;
pub mod exec;
pub mod ft;
pub mod hash;
mod index;
pub mod iterate;
pub mod operators;
pub mod partition;
pub mod plan;
pub mod pool;
pub mod stats;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::api::{DataSet, Environment};
    pub use crate::config::EnvConfig;
    pub use crate::dataset::{Data, Partitions};
    pub use crate::error::{EngineError, Result};
    pub use crate::ft::{
        DeltaState, DeterministicFailures, FailureSource, FaultHandler, IterationState,
        MtbfFailures, NoFailures, RecoveryAction, RestartHandler,
    };
    pub use crate::hash::{FxHashMap, FxHashSet};
    pub use crate::iterate::{BulkIteration, ConvergenceMeasure, DeltaIteration, StatsHandle};
    pub use crate::partition::{hash_partition, PartitionId};
    pub use crate::stats::{IterationStats, RunStats};
}
