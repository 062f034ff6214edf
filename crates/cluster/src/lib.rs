//! Multi-process distributed execution with network-level optimistic
//! recovery.
//!
//! Everything else in this repository simulates a cluster inside one
//! process: partitions model workers, and "failures" clear a partition's
//! records. This crate makes the failure model *real*: iteration supersteps
//! execute in separate `optirec worker` OS processes that exchange
//! length-prefixed TCP frames with a coordinator, failure injection is
//! `SIGKILL` of a live worker process, and loss is detected the way a real
//! engine detects it — connection reset, EOF, read timeout, or heartbeat
//! timeout. Detection converts into
//! [`dataflow::error::EngineError::WorkerLost`], which flows through the
//! *unchanged* bulk-iteration recovery machinery: the handler the run's
//! strategy builds through the one table, [`recovery::Strategy::handler`],
//! compensates the lost partitions (or restores a cut, or restarts) and
//! the superstep is redone, while the coordinator re-spawns the worker and
//! re-ships its partitions in the background.
//!
//! Layout:
//!
//! * [`protocol`] — the frame format and [`protocol::Message`] enum, built
//!   on the engine's existing [`dataflow::codec::Codec`] trait.
//! * [`program`] — named [`program::ClusterProgram`]s ("cc", "pagerank")
//!   compiled into both binaries, since closures cannot cross processes.
//! * [`exchange`] — the worker-side data-plane inbox: per-superstep slots
//!   of peer-shuffled messages with epoch-based stale-frame rejection.
//! * [`placement`] — the versioned partition → worker map every ownership
//!   lookup routes through, and the minimal-move rebalancer that rewrites
//!   it on elastic scale events.
//! * [`worker`] — the worker process: partition execution behind an accept
//!   loop, plus the direct data plane (peer links, batched shuffle,
//!   superstep execution from the partition state it alone holds).
//! * [`coordinator`] — worker lifecycle (spawn / heartbeat / kill /
//!   respawn-with-backoff), the distributed superstep operator, the
//!   iteration state the recovery handlers see, and the
//!   [`coordinator::run_cluster`] /
//!   [`coordinator::run_local`] entry points.

#![warn(missing_docs)]
// No panicking lookup on the cluster's paths: a slot, a frame or a peer that
// is not what it should be is a typed error. CI's clippy step denies warnings.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod coordinator;
pub mod exchange;
pub mod placement;
pub mod program;
pub mod protocol;
pub mod worker;

pub use coordinator::{
    default_worker_cmd, run_cluster, run_local, run_local_warm, unsupported_strategy, ChaosPlan,
    ClusterConfig, ClusterRun, KillPlan, LinkPlan, ScaleEvent, StragglerPlan,
};
pub use placement::{PartitionMap, Rebalance, Rebalancer};
pub use program::{lookup, program_names, ClusterProgram, StepBuffers, StepOutput};
pub use protocol::{Message, Msg, Record};
/// The one strategy type, [`recovery::Strategy`], under the name the
/// `benchmark/` package imports it by.
pub use recovery::Strategy as ClusterStrategy;
