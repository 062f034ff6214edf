//! The live graph behind the serving engine: a copy-on-write handle on the
//! one [`Graph`] that takes edge inserts and deletes in place.
//!
//! The graph is what a Connected Components epoch iterates over — the build
//! side of its *label-to-neighbors* join and the adjacency its compensation
//! walks, both read by vertex id — and what PageRank and cluster-backed
//! epochs run on, so an epoch borrows the engine's own graph and copies
//! nothing of its size. An insert or delete touches the two rows of its
//! endpoints, `O(degree)` ([`Graph::insert_edge`], [`Graph::remove_edge`]);
//! a running epoch's plan shares the graph, but mutations arrive between
//! epochs, when the handle is ours alone and is edited without a copy.
//!
//! The vertex set only ever grows: a vertex whose last edge is deleted
//! stays in the graph as an isolate, so solution-set entries are never
//! silently dropped.

use std::ops::Deref;
use std::sync::Arc;

use graphs::{Graph, VertexId};

/// A mutable graph, shared with the epoch that runs over it. Reads go
/// straight to the [`Graph`] (`Deref`).
#[derive(Debug, Clone)]
pub struct LiveGraph {
    graph: Arc<Graph>,
}

impl LiveGraph {
    /// Start from an existing graph's edge set.
    pub fn from_graph(graph: &Graph) -> Self {
        LiveGraph { graph: Arc::new(graph.clone()) }
    }

    /// The graph, for an epoch's plan to share.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Insert an edge, growing the vertex set to cover both endpoints.
    /// Returns `false` when the edge was already present (the vertex set
    /// still grows — naming a vertex brings it into existence).
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> bool {
        Arc::make_mut(&mut self.graph).insert_edge(u, v)
    }

    /// Delete an edge. Returns `false` when it was not present; the vertex
    /// set never shrinks.
    pub fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        Arc::make_mut(&mut self.graph).remove_edge(u, v)
    }

    /// An owned copy of the graph for the current edge set.
    pub fn build(&self) -> Graph {
        Graph::clone(&self.graph)
    }
}

impl Deref for LiveGraph {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.graph
    }
}
