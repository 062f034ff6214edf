//! Umbrella crate re-exporting the full reproduction of *"Optimistic
//! Recovery for Iterative Dataflows in Action"* (Dudoladov et al.,
//! SIGMOD 2015).
//!
//! * [`dataflow`] — the mini iterative dataflow engine (bulk & delta
//!   iterations, operators, failure injection).
//! * [`recovery`] — the paper's contribution: optimistic compensation-based
//!   recovery plus the checkpoint/restart baselines.
//! * [`graphs`] — graph structures, generators, and exact references.
//! * [`algos`] — Connected Components, PageRank, and extension fixpoint
//!   algorithms with their compensation functions.
//! * [`flowviz`] — terminal rendering of the demo's statistics and graphs.
//! * [`flowscope`] — post-hoc inspection of captured telemetry: timeline,
//!   profile, convergence, and regression diff views.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the `optirec`
//! binary ([`cli`]) for the interactive demo launcher.

#![warn(missing_docs)]

pub mod cli;
pub mod journal;
pub mod stdout;

pub use algos;
pub use dataflow;
pub use flowscope;
pub use flowviz;
pub use graphs;
pub use recovery;
