//! Exact reference algorithms.
//!
//! The demo GUI plots how many vertices have already converged to their
//! *true* connected component / PageRank value at each iteration ("we
//! precompute the true values for presentation reasons", §3.2). These
//! single-machine solvers provide that ground truth, and the property tests
//! check the dataflow algorithms against them.

use crate::graph::{Graph, VertexId};
use crate::unionfind::UnionFind;

/// Exact connected components via union-find.
///
/// Returns one label per vertex: the *minimum vertex id* of its component —
/// exactly the fixpoint of the paper's min-label diffusion algorithm.
pub fn exact_components(graph: &Graph) -> Vec<VertexId> {
    assert!(!graph.is_directed(), "connected components expects an undirected graph");
    let n = graph.num_vertices();
    let mut uf = UnionFind::new(n);
    for (u, v) in graph.directed_edges() {
        uf.union(u as usize, v as usize);
    }
    // Minimum id per representative.
    let mut min_of_root: Vec<VertexId> = (0..n as VertexId).collect();
    for v in 0..n {
        let root = uf.find(v);
        if (v as VertexId) < min_of_root[root] {
            min_of_root[root] = v as VertexId;
        }
    }
    (0..n).map(|v| min_of_root[uf.find(v)]).collect()
}

/// Number of connected components.
pub fn num_components(graph: &Graph) -> usize {
    let labels = exact_components(graph);
    let mut distinct = labels;
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

/// The PageRank damping factor `d` (teleport probability `1 - d`): the
/// paper's standard 0.85, declared once for every PageRank in the repo.
pub const PAGERANK_DAMPING: f64 = 0.85;

/// PageRank parameters shared by the exact solver and the dataflow
/// implementation, so "converged to the true rank" is well-defined.
#[derive(Debug, Clone, Copy)]
pub struct PageRankParams {
    /// Damping factor `d` (teleport probability `1 - d`).
    pub damping: f64,
    /// Convergence threshold on the L1 norm between iterations.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: u32,
}

impl Default for PageRankParams {
    fn default() -> Self {
        PageRankParams { damping: PAGERANK_DAMPING, epsilon: 1e-9, max_iterations: 200 }
    }
}

/// Exact PageRank by dense power iteration, with dangling mass
/// redistributed uniformly. Ranks always sum to one.
pub fn exact_pagerank(graph: &Graph, params: PageRankParams) -> Vec<f64> {
    let n = graph.num_vertices();
    assert!(n > 0, "pagerank needs at least one vertex");
    let uniform = 1.0 / n as f64;
    let mut ranks = vec![uniform; n];
    for _ in 0..params.max_iterations {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0f64;
        for (v, &rank) in ranks.iter().enumerate() {
            let degree = graph.degree(v as VertexId);
            if degree == 0 {
                dangling += rank;
            } else {
                let share = rank / degree as f64;
                for &w in graph.neighbors(v as VertexId) {
                    next[w as usize] += share;
                }
            }
        }
        let teleport = (1.0 - params.damping) * uniform + params.damping * dangling * uniform;
        let mut l1 = 0.0;
        for (entry, old) in next.iter_mut().zip(&ranks) {
            let updated = teleport + params.damping * *entry;
            l1 += (updated - old).abs();
            *entry = updated;
        }
        ranks = next;
        if l1 < params.epsilon {
            break;
        }
    }
    ranks
}

/// L1 distance between two rank vectors.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_disconnected_paths() {
        let g = generators::disjoint_union(&[generators::path(4), generators::path(3)]);
        let labels = exact_components(&g);
        assert_eq!(labels, vec![0, 0, 0, 0, 4, 4, 4]);
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn isolated_vertices_are_their_own_component() {
        let g = crate::graph::GraphBuilder::undirected(3).build();
        assert_eq!(exact_components(&g), vec![0, 1, 2]);
    }

    #[test]
    fn pagerank_sums_to_one() {
        for g in [generators::demo_pagerank(), generators::ring(7)] {
            let ranks = exact_pagerank(&g, PageRankParams::default());
            let total: f64 = ranks.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "ranks sum to {total}");
        }
    }

    #[test]
    fn pagerank_of_symmetric_ring_is_uniform() {
        let mut b = crate::graph::GraphBuilder::directed(5);
        for v in 0..5u64 {
            b.add_edge(v, (v + 1) % 5);
        }
        let ranks = exact_pagerank(&b.build(), PageRankParams::default());
        for r in &ranks {
            assert!((r - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_hub_outranks_spokes() {
        let g = generators::demo_pagerank();
        let ranks = exact_pagerank(&g, PageRankParams::default());
        // Hub 1 sits in the rank-trapping 1<->6 cycle and dominates; hub 0
        // receives four spokes and outranks each pure spoke.
        let top = ranks.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(ranks[1], top);
        assert!(ranks[0] > ranks[3] && ranks[0] > ranks[4] && ranks[0] > ranks[5]);
        assert!(ranks[7] < ranks[0], "pure spoke must rank low");
    }

    #[test]
    fn dangling_mass_is_not_lost() {
        // 0 -> 1, 1 dangling: without redistribution the sum would decay.
        let mut b = crate::graph::GraphBuilder::directed(2);
        b.add_edge(0, 1);
        let ranks = exact_pagerank(&b.build(), PageRankParams::default());
        assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(ranks[1] > ranks[0], "sink must accumulate rank");
    }

    #[test]
    fn l1_distance_basics() {
        assert_eq!(l1_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((l1_distance(&[1.0, 0.0], &[0.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
