//! Multi-source reachability as a delta iteration — the simplest member of
//! the paper's "robust fixpoint" class: a monotone boolean fixpoint.
//!
//! Given a set of seed vertices, compute which vertices can be reached from
//! *any* seed. Reached-ness only ever flips from false to true, so — like
//! Connected Components — resetting lost vertices to their initial value
//! (reached iff seed) and re-seeding propagation recovers the exact result.
//! Used e.g. for garbage-collection-style liveness over object graphs and
//! influence spread over social networks.

use std::sync::Arc;

use dataflow::api::Environment;
use dataflow::error::Result;
use dataflow::ft::SolutionSets;
use dataflow::hash::FxHashSet;
use dataflow::prelude::DeltaIteration;
use dataflow::stats::RunStats;
use graphs::{Graph, VertexId};

use crate::common::{self, FixPropagation, FtConfig};

/// A `(vertex, reached)` record.
pub type Reach = (VertexId, bool);

/// Configuration of a reachability run.
#[derive(Debug, Clone)]
pub struct ReachConfig {
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// The seed vertices.
    pub seeds: Vec<VertexId>,
    /// Recovery strategy and failure scenario.
    pub ft: FtConfig,
    /// Compare against a BFS reference.
    pub track_truth: bool,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig {
            parallelism: 4,
            max_iterations: 200,
            seeds: vec![0],
            ft: FtConfig::default(),
            track_truth: true,
        }
    }
}

/// Result of a reachability run.
#[derive(Debug, Clone)]
pub struct ReachResult {
    /// One `(vertex, reached)` entry per vertex, sorted by vertex id.
    pub reached: Vec<Reach>,
    /// Number of reached vertices.
    pub num_reached: usize,
    /// `Some(true)` when the result matches the BFS reference.
    pub correct: Option<bool>,
    /// Per-superstep engine statistics.
    pub stats: RunStats,
}

/// Exact reachability by multi-source BFS.
pub fn bfs_reachability(graph: &Graph, seeds: &[VertexId]) -> Vec<bool> {
    let mut reached = vec![false; graph.num_vertices()];
    let mut queue: std::collections::VecDeque<VertexId> = seeds.iter().copied().collect();
    for &s in seeds {
        reached[s as usize] = true;
    }
    while let Some(v) = queue.pop_front() {
        for &u in graph.neighbors(v) {
            if !reached[u as usize] {
                reached[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    reached
}

/// Compensation for reachability (`FixReachability`) over `graph`: lost
/// vertices restart from their seed status, and only a reached vertex is
/// worth re-propagating.
pub fn fix_reachability(
    graph: Arc<Graph>,
    seeds: &[VertexId],
    parallelism: usize,
) -> FixPropagation<bool> {
    let seeds: FxHashSet<VertexId> = seeds.iter().copied().collect();
    let initial = move |v| seeds.contains(&v);
    let reached = |reached: &bool| *reached;
    FixPropagation::new("FixReachability", graph, parallelism, initial, reached)
}

/// Run multi-source reachability over an undirected graph.
///
/// # Panics
/// Panics when a seed vertex is out of range.
pub fn run(graph: &Graph, config: &ReachConfig) -> Result<ReachResult> {
    run_in(&crate::common::environment(config.parallelism, &config.ft), graph, config)
}

/// [`run`] inside `env`, whose configuration (threading included) the run
/// uses; its telemetry should be `config.ft`'s.
pub fn run_in(env: &Environment, graph: &Graph, config: &ReachConfig) -> Result<ReachResult> {
    for &s in &config.seeds {
        assert!((s as usize) < graph.num_vertices(), "seed {s} out of range");
    }
    let seeds: FxHashSet<VertexId> = config.seeds.iter().copied().collect();
    let initial: Vec<Reach> = graph.vertices().map(|v| (v, seeds.contains(&v))).collect();
    let workset0: Vec<Reach> = config.seeds.iter().map(|&s| (s, true)).collect();
    let solution = env.from_keyed_vec(initial, |r| r.0);
    let workset = env.from_keyed_vec(workset0, |r| r.0);
    let edges: Vec<(VertexId, VertexId)> = graph.directed_edges().collect();
    let edges_ds = env.from_keyed_vec(edges, |e| e.0);

    let mut iteration = DeltaIteration::new(&solution, &workset, config.max_iterations);
    iteration.set_fault_handler(common::delta_handler(
        &config.ft,
        fix_reachability(Arc::new(graph.clone()), &config.seeds, config.parallelism),
    )?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Convergence norm: vertices flipped to reached this superstep (each
    // upsert is exactly one unreached-to-reached transition).
    iteration.set_norm_probe(common::delta_norm_probe(|_old: Option<&bool>, _new| 1.0));
    if config.track_truth {
        let truth = bfs_reachability(graph, &config.seeds);
        iteration.set_observer(
            move |_iter, solution: &SolutionSets<VertexId, bool>, _ws, stats| {
                let converged = solution
                    .iter()
                    .flat_map(|set| set.iter())
                    .filter(|(&v, &reached)| truth[v as usize] == reached)
                    .count();
                stats.gauges.insert(common::CONVERGED.into(), converged as f64);
            },
        );
    }

    let edges_in = iteration.import(&edges_ds);
    // Reached vertices notify their neighbours...
    let candidates = iteration
        .workset()
        .join("reach-neighbors", &edges_in, |w: &Reach| w.0, |e| e.0, |_, e| (e.1, true))
        .measured(common::MESSAGES)
        .distinct_by("dedupe-notifications", |c: &Reach| c.0);
    // ...and a vertex flips exactly once, from unreached to reached.
    let updates = candidates
        .join_solution(
            "reach-update",
            &iteration.solution_set(),
            |c| c.0,
            |c, reached: &bool| if !*reached { Some((c.0, true)) } else { None },
        )
        .flat_map("newly-reached", |u: &Option<Reach>| *u);
    let (result, handle) = iteration.close(updates.clone(), updates);

    let mut reached = result.collect()?;
    reached.sort_unstable();
    let stats = handle.take().expect("iteration executed");
    let num_reached = reached.iter().filter(|&&(_, r)| r).count();
    let correct = config.track_truth.then(|| {
        let truth = bfs_reachability(graph, &config.seeds);
        reached.len() == truth.len() && reached.iter().all(|&(v, r)| truth[v as usize] == r)
    });
    Ok(ReachResult { reached, num_reached, correct, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use recovery::scenario::FailureScenario;
    use recovery::strategy::Strategy;

    #[test]
    fn single_seed_covers_its_component_only() {
        let graph = generators::disjoint_union(&[generators::path(5), generators::ring(4)]);
        let result = run(&graph, &ReachConfig::default()).unwrap();
        assert_eq!(result.correct, Some(true));
        assert_eq!(result.num_reached, 5);
        for &(v, r) in &result.reached {
            assert_eq!(r, v < 5, "vertex {v}");
        }
    }

    #[test]
    fn multiple_seeds_union_their_components() {
        let graph = generators::disjoint_union(&[generators::path(5), generators::ring(4)]);
        let config = ReachConfig { seeds: vec![0, 7], ..Default::default() };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert_eq!(result.num_reached, 9);
    }

    #[test]
    fn optimistic_recovery_is_exact() {
        let graph = generators::grid(10, 10);
        let config = ReachConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(2, &[0]).fail_at(5, &[1, 3])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert_eq!(result.num_reached, 100);
        assert_eq!(result.stats.failures().count(), 2);
    }

    #[test]
    fn incremental_checkpointing_works_for_reachability() {
        let graph = generators::grid(8, 8);
        let config = ReachConfig {
            ft: FtConfig {
                strategy: Strategy::IncrementalCheckpoint { full_interval: 4 },
                scenario: FailureScenario::none().fail_at(6, &[1]),
                ..Default::default()
            },
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        // Diffs were checkpointed every superstep.
        assert!(result.stats.iterations.iter().all(|i| i.checkpoint_bytes.is_some()));
    }

    #[test]
    fn ignoring_failures_loses_reached_flags() {
        let graph = generators::path(32);
        let config = ReachConfig {
            ft: FtConfig::ignore(FailureScenario::none().fail_at(20, &[0, 1, 2])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(false));
        assert!(result.reached.len() < 32);
    }

    #[test]
    fn bfs_reference_handles_empty_seed_component() {
        let graph = generators::disjoint_union(&[generators::path(3), generators::path(3)]);
        let truth = bfs_reachability(&graph, &[4]);
        assert_eq!(truth, vec![false, false, false, true, true, true]);
    }
}
