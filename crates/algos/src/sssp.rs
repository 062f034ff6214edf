//! Single-source shortest paths as a delta iteration — an extension
//! algorithm demonstrating the generality of optimistic recovery.
//!
//! Hop distances diffuse outward from the source: vertices that improved
//! their distance send `distance + 1` to their neighbours; each vertex keeps
//! the minimum incoming candidate. Like Connected Components, the fixpoint
//! is the componentwise minimum of a monotone function, so resetting lost
//! vertices to their *initial* distances (`0` for the source, `∞`
//! otherwise) and re-seeding propagation recovers the exact result.

use std::sync::Arc;

use dataflow::api::Environment;
use dataflow::error::Result;
use dataflow::ft::SolutionSets;
use dataflow::prelude::DeltaIteration;
use dataflow::stats::RunStats;
use graphs::{Graph, VertexId};

use crate::common::{self, FixPropagation, FtConfig};

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u64 = u64::MAX;

/// A `(vertex, distance)` record.
pub type Distance = (VertexId, u64);

/// Configuration of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspConfig {
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// The source vertex.
    pub source: VertexId,
    /// Recovery strategy and failure scenario.
    pub ft: FtConfig,
    /// Compare against a BFS reference.
    pub track_truth: bool,
}

impl Default for SsspConfig {
    fn default() -> Self {
        SsspConfig {
            parallelism: 4,
            max_iterations: 200,
            source: 0,
            ft: FtConfig::default(),
            track_truth: true,
        }
    }
}

/// Result of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// Final `(vertex, distance)` pairs, sorted by vertex id;
    /// [`UNREACHABLE`] marks vertices outside the source's component.
    pub distances: Vec<Distance>,
    /// `Some(true)` when the distances match the BFS reference.
    pub correct: Option<bool>,
    /// Per-superstep engine statistics.
    pub stats: RunStats,
}

/// Exact hop distances by breadth-first search.
pub fn bfs_distances(graph: &Graph, source: VertexId) -> Vec<u64> {
    let n = graph.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &u in graph.neighbors(v) {
            if dist[u as usize] == UNREACHABLE {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Compensation for SSSP (`FixDistances`) over `graph`: lost vertices
/// restart from their initial distances, and only a finite distance is
/// worth re-propagating.
pub fn fix_distances(
    graph: Arc<Graph>,
    source: VertexId,
    parallelism: usize,
) -> FixPropagation<u64> {
    let initial = move |v| if v == source { 0 } else { UNREACHABLE };
    let finite = |d: &u64| *d != UNREACHABLE;
    FixPropagation::new("FixDistances", graph, parallelism, initial, finite)
}

/// Run single-source shortest paths over an undirected graph.
pub fn run(graph: &Graph, config: &SsspConfig) -> Result<SsspResult> {
    run_in(&crate::common::environment(config.parallelism, &config.ft), graph, config)
}

/// [`run`] inside `env`, whose configuration (threading included) the run
/// uses; its telemetry should be `config.ft`'s.
pub fn run_in(env: &Environment, graph: &Graph, config: &SsspConfig) -> Result<SsspResult> {
    assert!(
        (config.source as usize) < graph.num_vertices(),
        "source vertex {} out of range",
        config.source
    );
    let source = config.source;
    let initial: Vec<Distance> =
        graph.vertices().map(|v| (v, if v == source { 0 } else { UNREACHABLE })).collect();
    let solution = env.from_keyed_vec(initial, |r| r.0);
    let workset = env.from_keyed_vec(vec![(source, 0u64)], |r| r.0);
    let edges: Vec<(VertexId, VertexId)> = graph.directed_edges().collect();
    let edges_ds = env.from_keyed_vec(edges, |e| e.0);

    let mut iteration = DeltaIteration::new(&solution, &workset, config.max_iterations);
    iteration.set_fault_handler(common::delta_handler(
        &config.ft,
        fix_distances(Arc::new(graph.clone()), source, config.parallelism),
    )?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Convergence norm: summed distance improvement; a vertex leaving
    // UNREACHABLE (or re-seeded after a failure) counts as one unit.
    iteration.set_norm_probe(common::delta_norm_probe(|old: Option<&u64>, new| match old {
        Some(&o) if o != UNREACHABLE => o.saturating_sub(*new) as f64,
        _ => 1.0,
    }));

    if config.track_truth {
        let truth = bfs_distances(graph, source);
        iteration.set_observer(move |_iter, solution: &SolutionSets<VertexId, u64>, _ws, stats| {
            let converged = solution
                .iter()
                .flat_map(|set| set.iter())
                .filter(|(&v, &d)| truth[v as usize] == d)
                .count();
            stats.gauges.insert(common::CONVERGED.into(), converged as f64);
        });
    }

    let edges_in = iteration.import(&edges_ds);
    let candidates = iteration
        .workset()
        .join(
            "distance-to-neighbors",
            &edges_in,
            |w: &Distance| w.0,
            |e| e.0,
            |w, e| (e.1, w.1.saturating_add(1)),
        )
        .measured(common::MESSAGES)
        .reduce_by_key("candidate-distance", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    let updates = candidates
        .join_solution(
            "distance-update",
            &iteration.solution_set(),
            |c| c.0,
            |c, known: &u64| if c.1 < *known { Some((c.0, c.1)) } else { None },
        )
        .flat_map("updated-distances", |u: &Option<Distance>| *u);
    let (result, handle) = iteration.close(updates.clone(), updates);

    let mut distances = result.collect()?;
    distances.sort_unstable();
    let stats = handle.take().expect("iteration executed");
    let correct = config.track_truth.then(|| {
        let truth = bfs_distances(graph, source);
        distances.len() == truth.len() && distances.iter().all(|&(v, d)| truth[v as usize] == d)
    });
    Ok(SsspResult { distances, correct, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use recovery::scenario::FailureScenario;
    use recovery::strategy::Strategy;

    #[test]
    fn path_graph_distances_are_positions() {
        let graph = generators::path(10);
        let result = run(&graph, &SsspConfig::default()).unwrap();
        assert_eq!(result.correct, Some(true));
        for &(v, d) in &result.distances {
            assert_eq!(d, v);
        }
        assert!(result.stats.converged);
    }

    #[test]
    fn disconnected_vertices_stay_unreachable() {
        let graph = generators::disjoint_union(&[generators::path(4), generators::ring(3)]);
        let result = run(&graph, &SsspConfig::default()).unwrap();
        assert_eq!(result.correct, Some(true));
        for &(v, d) in &result.distances {
            if v >= 4 {
                assert_eq!(d, UNREACHABLE);
            }
        }
    }

    #[test]
    fn source_can_be_any_vertex() {
        let graph = generators::ring(8);
        let config = SsspConfig { source: 5, ..Default::default() };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert_eq!(result.distances[5], (5, 0));
    }

    #[test]
    fn optimistic_recovery_is_exact() {
        let graph = generators::grid(8, 8);
        let config = SsspConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(3, &[0, 2])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert_eq!(result.stats.failures().count(), 1);
    }

    #[test]
    fn losing_the_source_partition_still_recovers() {
        let graph = generators::path(16);
        let source_partition = dataflow::partition::hash_partition(&0u64, 4);
        let config = SsspConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(2, &[source_partition])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
    }

    #[test]
    fn all_strategies_except_ignore_are_correct() {
        let graph = generators::preferential_attachment(150, 2, 21);
        for strategy in
            [Strategy::Optimistic, Strategy::Checkpoint { interval: 2 }, Strategy::Restart]
        {
            let config = SsspConfig {
                ft: FtConfig {
                    strategy,
                    scenario: FailureScenario::none().fail_at(2, &[1]),
                    ..Default::default()
                },
                ..Default::default()
            };
            let result = run(&graph, &config).unwrap();
            assert_eq!(result.correct, Some(true), "strategy {strategy:?}");
        }
    }

    #[test]
    fn bfs_reference_is_correct_on_grid() {
        let graph = generators::grid(4, 3);
        let dist = bfs_distances(&graph, 0);
        // Manhattan distances from the corner.
        assert_eq!(dist[0], 0);
        assert_eq!(dist[3], 3);
        assert_eq!(dist[4], 1);
        assert_eq!(dist[11], 3 + 2);
    }
}
