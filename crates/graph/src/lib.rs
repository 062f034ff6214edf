//! Graph substrate for the optimistic-recovery reproduction.
//!
//! The demonstration runs Connected Components and PageRank over two
//! inputs: a small hand-crafted graph that the GUI visualises, and a large
//! snapshot of the Twitter social network. This crate provides:
//!
//! * [`Graph`] — a compact adjacency-list graph over contiguous vertex ids.
//! * [`generators`] — the hand-crafted demo graphs plus synthetic families
//!   (Erdős–Rényi, preferential attachment as the Twitter-scale substitute,
//!   grids, rings, stars, paths, cliques and disjoint unions).
//! * [`exact`] — reference implementations used as ground truth: union-find
//!   connected components and power-iteration PageRank. The demo GUI plots
//!   "vertices converged to their *true* value per iteration"; these exact
//!   solvers provide the precomputed truth.
//! * [`io`] — a plain-text edge-list format with vertex-id remapping.

#![warn(missing_docs)]

pub mod exact;
pub mod generators;
pub mod graph;
pub mod io;
pub mod unionfind;

pub use exact::{exact_components, exact_pagerank, PageRankParams, PAGERANK_DAMPING};
pub use graph::{Graph, GraphBuilder, VertexId};
pub use unionfind::UnionFind;
