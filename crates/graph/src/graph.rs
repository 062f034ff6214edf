//! Adjacency-list graphs over contiguous vertex ids.
//!
//! A [`Graph`] is the one adjacency everything reads by vertex id: the
//! generators build it, the dataflow joins probe it (it indexes by
//! [`VertexId`]), the compensations walk it and the serving engine edits it
//! in place ([`Graph::insert_edge`], [`Graph::remove_edge`]).

/// Vertex identifier. Graphs use contiguous ids `0..num_vertices`;
/// [`crate::io`] remaps arbitrary external ids on load.
pub type VertexId = u64;

/// A graph stored as adjacency lists.
///
/// Undirected graphs store every edge in both endpoint lists; directed
/// graphs store out-edges only. Self-loops are allowed (in their vertex's
/// list once), parallel edges are collapsed, and every list is ascending —
/// at build time and after every edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<VertexId>>,
    directed: bool,
    num_edges: usize,
}

impl Graph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges (each undirected edge counted once).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether edges are directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.adjacency.len() as VertexId
    }

    /// Neighbours of `v` (out-neighbours for directed graphs).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[v as usize]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v as usize].len()
    }

    /// True when the edge `u -> v` exists (`u - v` for undirected graphs);
    /// false when `u` is not a vertex.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adjacency.get(u as usize).is_some_and(|ns| ns.binary_search(&v).is_ok())
    }

    /// Insert the edge `u -> v` (`u - v` for undirected graphs), growing
    /// the vertex set to cover both endpoints. Returns `false` when the
    /// edge was already present (the vertex set still grows: naming a
    /// vertex brings it into existence), and when an endpoint is
    /// `VertexId::MAX`, which no vertex set of contiguous ids can hold.
    /// Touches the endpoints' lists only, `O(degree)`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let Some(needed) = usize::try_from(u.max(v)).ok().and_then(|top| top.checked_add(1)) else {
            return false;
        };
        if needed > self.adjacency.len() {
            self.adjacency.resize(needed, Vec::new());
        }
        let row = &mut self.adjacency[u as usize];
        let Err(at) = row.binary_search(&v) else { return false };
        row.insert(at, v);
        if !self.directed && u != v {
            // An undirected edge sits in both lists: absent from `u`'s, it
            // is absent from `v`'s too.
            let row = &mut self.adjacency[v as usize];
            if let Err(at) = row.binary_search(&u) {
                row.insert(at, u);
            }
        }
        self.num_edges += 1;
        true
    }

    /// Remove the edge `u -> v` (`u - v` for undirected graphs). Returns
    /// `false` when it was not present. The vertex set never shrinks: a
    /// vertex whose last edge goes stays as an isolate.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let Some(Ok(at)) = self.adjacency.get(u as usize).map(|ns| ns.binary_search(&v)) else {
            return false;
        };
        self.adjacency[u as usize].remove(at);
        if !self.directed && u != v {
            let row = &mut self.adjacency[v as usize];
            if let Ok(at) = row.binary_search(&u) {
                row.remove(at);
            }
        }
        self.num_edges -= 1;
        true
    }

    /// Iterate over directed edges; undirected edges appear in both
    /// directions (which is exactly the message-passing view dataflow
    /// algorithms need).
    pub fn directed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().map(move |&v| (u as VertexId, v)))
    }

    /// Adjacency rows `(vertex, neighbours)` — the `graph`/`links` input
    /// datasets of the paper's dataflows.
    pub fn adjacency_rows(&self) -> Vec<(VertexId, Vec<VertexId>)> {
        self.adjacency.iter().enumerate().map(|(v, ns)| (v as VertexId, ns.clone())).collect()
    }

    /// The transpose (directed graphs only; undirected graphs are their own
    /// transpose and are returned unchanged).
    pub fn transpose(&self) -> Graph {
        if !self.directed {
            return self.clone();
        }
        let mut builder = GraphBuilder::directed(self.num_vertices());
        for (u, v) in self.directed_edges() {
            builder.add_edge(v, u);
        }
        builder.build()
    }

    /// Total number of directed edge entries (2·|E| for undirected graphs).
    pub fn num_directed_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }
}

/// A graph indexes by vertex id: `graph[v]` is [`Graph::neighbors`], so a
/// dataflow join can take it as its build side.
impl std::ops::Index<VertexId> for Graph {
    type Output = [VertexId];

    fn index(&self, v: VertexId) -> &[VertexId] {
        self.neighbors(v)
    }
}

/// Incremental graph construction with duplicate-edge collapsing.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    adjacency: Vec<Vec<VertexId>>,
    directed: bool,
}

impl GraphBuilder {
    /// Builder for an undirected graph over `n` vertices.
    pub fn undirected(n: usize) -> Self {
        GraphBuilder { adjacency: vec![Vec::new(); n], directed: false }
    }

    /// Builder for a directed graph over `n` vertices.
    pub fn directed(n: usize) -> Self {
        GraphBuilder { adjacency: vec![Vec::new(); n], directed: true }
    }

    /// Grow to hold at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.adjacency.len() {
            self.adjacency.resize(n, Vec::new());
        }
    }

    /// Current vertex capacity.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Add an edge, growing the vertex set as needed. For undirected
    /// builders the reverse direction is added automatically.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        let needed = (u.max(v) as usize) + 1;
        self.ensure_vertices(needed);
        self.adjacency[u as usize].push(v);
        if !self.directed && u != v {
            self.adjacency[v as usize].push(u);
        }
        self
    }

    /// Finish: sorts neighbour lists and collapses parallel edges.
    pub fn build(mut self) -> Graph {
        for ns in &mut self.adjacency {
            ns.sort_unstable();
            ns.dedup();
        }
        let entries: usize = self.adjacency.iter().map(Vec::len).sum();
        let num_edges = if self.directed {
            entries
        } else {
            let self_loops = self
                .adjacency
                .iter()
                .enumerate()
                .filter(|(v, ns)| ns.contains(&(*v as VertexId)))
                .count();
            (entries - self_loops) / 2 + self_loops
        };
        Graph { adjacency: self.adjacency, directed: self.directed, num_edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_edges_are_symmetric() {
        let mut b = GraphBuilder::undirected(0);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(0, 1).add_edge(0, 1).add_edge(1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn self_loops_count_once() {
        let mut b = GraphBuilder::undirected(1);
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[0]);
    }

    #[test]
    fn directed_edges_are_one_way() {
        let mut b = GraphBuilder::directed(0);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
        assert!(g.is_directed());
    }

    #[test]
    fn transpose_reverses_directed_edges() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1).add_edge(0, 2);
        let g = b.build();
        let t = g.transpose();
        assert!(t.has_edge(1, 0) && t.has_edge(2, 0));
        assert!(!t.has_edge(0, 1));
        assert_eq!(t.num_edges(), 2);
    }

    #[test]
    fn adjacency_rows_cover_isolated_vertices() {
        let mut b = GraphBuilder::undirected(5);
        b.add_edge(0, 1);
        let g = b.build();
        let rows = g.adjacency_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4], (4, vec![]));
    }

    /// `graph` equals a fresh build of `edges` over its vertex set: rows,
    /// direction and `num_edges` alike.
    fn assert_built(graph: &Graph, edges: &[(VertexId, VertexId)]) {
        let n = graph.num_vertices();
        let mut b = if graph.is_directed() {
            GraphBuilder::directed(n)
        } else {
            GraphBuilder::undirected(n)
        };
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        assert_eq!(graph, &b.build());
    }

    #[test]
    fn edits_of_an_undirected_graph_match_a_fresh_build() {
        let mut edges = vec![(0, 1), (1, 2), (2, 3)];
        let mut b = GraphBuilder::undirected(4);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let mut graph = b.build();
        assert!(!graph.insert_edge(2, 1), "present, from the other end");
        assert_built(&graph, &edges);
        assert!(graph.insert_edge(3, 0));
        edges.push((3, 0));
        assert_built(&graph, &edges);
        assert!(graph.has_edge(0, 3), "undirected edges keep both directions");
        assert_eq!(graph.num_edges(), 4);
    }

    #[test]
    fn inserts_grow_the_vertex_set_and_deletes_do_not_shrink_it() {
        let mut graph = GraphBuilder::undirected(2).build();
        assert!(graph.insert_edge(0, 5));
        assert_eq!(graph.num_vertices(), 6);
        assert_built(&graph, &[(0, 5)]);
        assert!(!graph.insert_edge(5, 0), "same undirected edge, other direction");
        assert_built(&graph, &[(0, 5)]);
        assert!(graph.remove_edge(0, 5));
        assert_built(&graph, &[]);
        assert!(!graph.remove_edge(0, 5), "double delete is a no-op");
        assert!(!graph.remove_edge(9, 0), "so is one from a vertex that does not exist");
        assert!(!graph.insert_edge(0, VertexId::MAX), "no vertex set holds the last id");
        assert_eq!(graph.num_vertices(), 6, "vertex 5 survives as an isolate");
        assert_built(&graph, &[]);
    }

    #[test]
    fn rows_stay_sorted_through_edits() {
        let mut graph = GraphBuilder::undirected(6).build();
        let mut edges = Vec::new();
        for (u, v) in [(3, 5), (3, 1), (3, 4), (3, 3), (0, 3)] {
            assert!(graph.insert_edge(u, v));
            edges.push((u, v));
            assert_built(&graph, &edges);
        }
        assert!(!graph.insert_edge(3, 3), "the self-loop is there once");
        assert_eq!(graph.neighbors(3), &[0, 1, 3, 4, 5], "ascending, the self-loop once");
        assert_eq!(graph.num_edges(), 5);
        assert!(graph.remove_edge(1, 3), "an undirected edge goes by either direction");
        assert!(graph.remove_edge(3, 3));
        edges.retain(|&e| e != (3, 1) && e != (3, 3));
        assert_built(&graph, &edges);
        assert_eq!(graph.neighbors(3), &[0, 4, 5]);
        assert!(graph.neighbors(1).is_empty());
        assert_eq!(&graph[3], graph.neighbors(3), "indexing by id reads the same row");
        assert_eq!(graph.num_edges(), 3);
    }

    #[test]
    fn directed_edits_keep_their_direction() {
        let mut graph = GraphBuilder::directed(3).build();
        assert!(graph.insert_edge(2, 1));
        assert!(graph.has_edge(2, 1));
        assert!(!graph.has_edge(1, 2));
        assert_built(&graph, &[(2, 1)]);
        assert!(graph.insert_edge(1, 2), "reverse direction is a distinct edge");
        assert!(graph.insert_edge(2, 2));
        assert_built(&graph, &[(2, 1), (1, 2), (2, 2)]);
        assert!(!graph.remove_edge(0, 2), "absent");
        assert!(graph.remove_edge(2, 1));
        assert!(graph.has_edge(1, 2), "the reverse edge stays");
        assert_built(&graph, &[(1, 2), (2, 2)]);
        assert!(graph.insert_edge(4, 0), "a fresh source id grows the vertex set");
        assert_built(&graph, &[(1, 2), (2, 2), (4, 0)]);
    }

    #[test]
    fn edge_addition_grows_vertex_set() {
        let mut b = GraphBuilder::undirected(0);
        b.add_edge(10, 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 11);
        assert_eq!(g.degree(5), 0);
    }
}
