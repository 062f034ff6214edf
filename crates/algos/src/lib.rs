//! Fixpoint algorithms on the mini dataflow engine, each with the
//! compensation function that makes it optimistically recoverable.
//!
//! The two algorithms of the demonstration:
//!
//! * [`connected_components`] — delta iteration (paper Figure 1a): the
//!   minimum label of each component diffuses along edges; the
//!   `FixComponents` compensation resets lost vertices to their initial
//!   labels and re-seeds propagation from them and their surviving
//!   neighbours.
//! * [`pagerank`] — bulk iteration (paper Figure 1b): ranks are recomputed
//!   from neighbour contributions every superstep; the `FixRanks`
//!   compensation uniformly redistributes the lost probability mass so all
//!   ranks keep summing to one.
//!
//! Extension algorithms demonstrating the generality of the mechanism for
//! the "large class of fixpoint algorithms" the paper appeals to:
//!
//! * [`sssp`] — single-source shortest paths (delta iteration; monotone
//!   min-distance fixpoint; the `FixDistances` compensation resets lost
//!   vertices to the initial +∞ / 0-at-source state).
//! * [`reachability`] — multi-source reachability (delta iteration; a
//!   monotone boolean fixpoint, the simplest member of the class; the
//!   `FixReachability` compensation resets lost vertices to their seed
//!   status).
//!
//! `FixComponents`, `FixDistances` and `FixReachability` are one type,
//! [`common::FixPropagation`], instantiated three times: the three
//! algorithms are the monotone min-propagation class, and differ only in
//! the initial value of a vertex and in which values are worth
//! re-propagating.
//! * [`kmeans`] — k-means clustering (bulk iteration; compensation re-seeds
//!   lost centroids near the global point mean).
//! * [`jacobi`] — Jacobi iteration for diagonally dominant linear systems
//!   (bulk iteration; the iteration matrix is a contraction, so resetting
//!   lost entries to the initial guess preserves convergence).
//! * [`als`] — low-rank matrix factorisation with Alternating Least Squares
//!   (bulk iteration; the third algorithm class of the underlying CIKM '13
//!   evaluation — compensation resets lost factor rows to their initial
//!   vectors and the sweep-monotone objective keeps decreasing).
//!
//! Every `run` function takes a [`common::FtConfig`] choosing the recovery
//! strategy (optimistic / checkpoint / incremental / async-snapshot /
//! restart / ignore; the handler comes from the one table,
//! [`recovery::Strategy::handler`]) and a failure
//! scenario, and returns the algorithm output together with the engine's
//! per-superstep [`dataflow::stats::RunStats`] — the raw material for all of
//! the paper's plots.

#![warn(missing_docs)]

pub mod als;
pub mod common;
pub mod connected_components;
pub mod jacobi;
pub mod kmeans;
pub mod pagerank;
pub mod reachability;
pub mod sssp;

pub use common::FtConfig;
