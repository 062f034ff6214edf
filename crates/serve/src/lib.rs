//! `optirec serve` — the incremental serving engine.
//!
//! The paper treats every run as a batch job: load, iterate, converge,
//! exit. This crate makes the engine long-lived, which is where optimistic
//! recovery pays off hardest: a maintained solution set is exactly the
//! state a checkpoint-based system would have to snapshot continuously,
//! while compensation needs nothing but the live state itself.
//!
//! * [`mutation`] — the line protocol (`+ u v`, `- u v`, `commit`,
//!   `get v`, `top n`, `quit`), shared verbatim between TCP sessions and
//!   replay files.
//! * [`live_graph`] — the copy-on-write [`graphs::Graph`] that staging
//!   edits in place and every epoch (CC, PageRank, cluster-backed) runs
//!   over without a copy.
//! * [`chunked`] — the copy-on-write chunked vector the served solution is
//!   kept in, so a snapshot shares it and a commit copies what it writes.
//! * [`engine`] — epoch lifecycle: bootstrap convergence, workset-seeded
//!   (CC) / warm-started (PageRank) re-convergence per committed batch,
//!   and the failure injectors (UDF panic, deterministic loss, MTBF,
//!   cluster SIGKILL) wired *between* convergences.
//! * [`daemon`] — the TCP server and the replay runner; queries answer
//!   from a shared snapshot while commits re-converge.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod chunked;
pub mod daemon;
pub mod engine;
pub mod live_graph;
pub mod mutation;

pub use chunked::ChunkedVec;
pub use daemon::{apply_command, replay, spawn, DaemonHandle};
pub use engine::{
    ElasticController, ElasticRange, EpochInjection, EpochReport, InjectionKind, PointAnswer,
    ServeAlgorithm, ServeConfig, ServeEngine, Snapshot, Solution, TopEntry,
};
pub use live_graph::LiveGraph;
pub use mutation::{load_replay, parse_line, Command};
