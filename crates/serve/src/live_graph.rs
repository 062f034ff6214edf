//! The live graph behind the serving engine: a mutable adjacency index that
//! takes edge inserts and deletes in place.
//!
//! The index is the one a Connected Components epoch iterates over — the
//! build side of its *label-to-neighbors* join and the adjacency its
//! compensation walks ([`algos::connected_components::Adjacency`]) — so a
//! commit hands the engine's own index to the plan and copies nothing of
//! the size of the graph. An insert or delete touches the two rows of its
//! endpoints, `O(degree)`. [`LiveGraph::build`] still produces an immutable
//! [`Graph`], an `O(E log E)` rebuild that PageRank epochs, cluster-backed
//! epochs and tests pay; resident CC epochs never call it.
//!
//! The vertex set only ever grows: a vertex whose last edge is deleted
//! stays in the graph as an isolate, so solution-set entries are never
//! silently dropped.

use std::sync::Arc;

use algos::connected_components::{adjacency_of, Adjacency};
use graphs::{Graph, GraphBuilder, VertexId};

/// A mutable graph: out-neighbours by vertex, kept ascending.
#[derive(Debug, Clone)]
pub struct LiveGraph {
    directed: bool,
    num_vertices: usize,
    /// Edges as [`Graph::num_edges`] counts them: an undirected edge once.
    num_edges: usize,
    /// Out-neighbours per vertex; an undirected edge sits in both of its
    /// endpoints' rows (a self-loop once), a vertex without edges has no
    /// row. Shared with a running epoch's plan, exclusively ours between
    /// epochs — which is when mutations arrive.
    adjacency: Arc<Adjacency>,
}

impl LiveGraph {
    /// Start from an existing graph's edge set.
    pub fn from_graph(graph: &Graph) -> Self {
        LiveGraph {
            directed: graph.is_directed(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            adjacency: Arc::new(adjacency_of(graph)),
        }
    }

    /// Whether rebuilt graphs are directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Current number of vertices (monotonically growing).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Current number of edges (an undirected edge counts once).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The adjacency index, for an epoch's plan to share.
    pub fn adjacency(&self) -> &Arc<Adjacency> {
        &self.adjacency
    }

    /// Out-neighbours of `v` (all neighbours for undirected graphs),
    /// ascending.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.adjacency.get(&v)
    }

    /// True when the edge is present (undirected edges match either
    /// direction).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Insert an edge, growing the vertex set to cover both endpoints.
    /// Returns `false` when the edge was already present (the vertex set
    /// still grows — naming a vertex brings it into existence).
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> bool {
        self.num_vertices = self.num_vertices.max(u.max(v) as usize + 1);
        let adjacency = Arc::make_mut(&mut self.adjacency);
        let row = adjacency.row_mut(u);
        let Err(at) = row.binary_search(&v) else { return false };
        row.insert(at, v);
        if !self.directed && u != v {
            // An undirected edge sits in both rows: absent from `u`'s, it is
            // absent from `v`'s too.
            let row = adjacency.row_mut(v);
            if let Err(at) = row.binary_search(&u) {
                row.insert(at, u);
            }
        }
        self.num_edges += 1;
        true
    }

    /// Delete an edge. Returns `false` when it was not present; the vertex
    /// set never shrinks.
    pub fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        let adjacency = Arc::make_mut(&mut self.adjacency);
        let mut unlink = |from: VertexId, to: VertexId| {
            // An undirected edge sits in both rows, so `to` is found.
            let row = adjacency.row_mut(from);
            if let Ok(at) = row.binary_search(&to) {
                row.remove(at);
            }
            if row.is_empty() {
                adjacency.remove_row(&from);
            }
        };
        unlink(u, v);
        if !self.directed && u != v {
            unlink(v, u);
        }
        self.num_edges -= 1;
        true
    }

    /// Rebuild the immutable graph for the current edge set.
    pub fn build(&self) -> Graph {
        let mut builder = if self.directed {
            GraphBuilder::directed(self.num_vertices)
        } else {
            GraphBuilder::undirected(self.num_vertices)
        };
        for (&u, row) in self.adjacency.rows() {
            // One direction of an undirected edge is enough: the builder
            // adds the other.
            for &v in row.iter().filter(|&&v| self.directed || u <= v) {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_an_undirected_graph() {
        let mut b = GraphBuilder::undirected(4);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let graph = b.build();
        let live = LiveGraph::from_graph(&graph);
        assert_eq!(live.num_edges(), 3);
        let rebuilt = live.build();
        assert_eq!(rebuilt.num_vertices(), graph.num_vertices());
        assert_eq!(rebuilt.num_edges(), graph.num_edges());
        assert!(rebuilt.has_edge(1, 0), "undirected edges keep both directions");
    }

    #[test]
    fn inserts_grow_the_vertex_set_and_deletes_do_not_shrink_it() {
        let mut live = LiveGraph::from_graph(&GraphBuilder::undirected(2).build());
        assert!(live.insert(0, 5));
        assert_eq!(live.num_vertices(), 6);
        assert!(!live.insert(5, 0), "same undirected edge, other direction");
        assert!(live.remove(0, 5));
        assert!(!live.remove(0, 5), "double delete is a no-op");
        assert_eq!(live.num_vertices(), 6, "vertex 5 survives as an isolate");
        assert_eq!(live.build().num_vertices(), 6);
    }

    #[test]
    fn rows_stay_sorted_and_empty_rows_are_dropped() {
        let mut live = LiveGraph::from_graph(&GraphBuilder::undirected(6).build());
        for (u, v) in [(3, 5), (3, 1), (3, 4), (3, 3), (0, 3)] {
            assert!(live.insert(u, v));
        }
        assert_eq!(live.neighbors(3), &[0, 1, 3, 4, 5], "ascending, the self-loop once");
        assert_eq!(live.num_edges(), 5);
        assert_eq!(live.adjacency().len(), 5, "vertex 2 has no edge and so no row");
        assert!(live.remove(1, 3), "an undirected edge goes by either direction");
        assert!(live.remove(3, 3));
        assert_eq!(live.neighbors(3), &[0, 4, 5]);
        assert!(live.neighbors(1).is_empty());
        assert_eq!(live.adjacency().len(), 4, "vertex 1's row went with its last edge");
        assert_eq!(live.num_edges(), 3);
        let graph = live.build();
        assert_eq!(graph.num_edges(), 3);
        assert_eq!(graph.neighbors(3), live.neighbors(3));
    }

    #[test]
    fn directed_edges_keep_their_direction() {
        let mut live = LiveGraph::from_graph(&GraphBuilder::directed(3).build());
        assert!(live.insert(2, 1));
        assert!(live.has_edge(2, 1));
        assert!(!live.has_edge(1, 2));
        assert!(live.insert(1, 2), "reverse direction is a distinct edge");
        let graph = live.build();
        assert!(graph.has_edge(2, 1));
        assert!(graph.has_edge(1, 2));
    }
}
