//! Connected Components as a delta iteration — the paper's Figure 1a.
//!
//! The diffusion-based algorithm (Kang et al., PEGASUS): every vertex starts
//! with its own id as label; each iteration, vertices that updated their
//! label send it to their neighbours (*label-to-neighbors* join), every
//! vertex reduces its incoming candidates to the minimum (*candidate-label*
//! reduce) and updates its solution-set entry when the candidate is smaller
//! (*label-update* join). At convergence all vertices of a component carry
//! the component's minimum vertex id.
//!
//! **Compensation (`FixComponents`)**: failures destroy the labels of the
//! vertices hashed to the lost partitions. Re-initialising those vertices to
//! their initial labels guarantees convergence to the correct solution
//! (Schelter et al., CIKM 2013). The restored vertices — as well as their
//! neighbours — must propagate their labels again, so the compensation also
//! re-seeds the working set; that extra propagation is the message spike the
//! demo GUI shows in the iterations after a failure.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use dataflow::api::{DataSet, Environment};
use dataflow::dataset::Partitions;
use dataflow::error::Result;
use dataflow::ft::{solution_sets, DeltaState, SolutionSets};
use dataflow::hash::FxHashSet;
use dataflow::iterate::ResidentRun;
use dataflow::partition::PartitionId;
use dataflow::prelude::DeltaIteration;
use dataflow::stats::RunStats;
use graphs::{exact_components, Graph, VertexId};
use recovery::compensation::lost_keys;

use crate::common::{self, FixPropagation, FtConfig};

/// A `(vertex, label)` record — both the solution-set entry and the workset
/// message type of the dataflow.
pub type Label = (VertexId, VertexId);

/// Configuration of a Connected Components run.
#[derive(Debug, Clone)]
pub struct CcConfig {
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Iteration cap (the algorithm normally terminates on an empty
    /// workset long before).
    pub max_iterations: u32,
    /// Recovery strategy and failure scenario.
    pub ft: FtConfig,
    /// Precompute the exact components and record the per-iteration
    /// `converged` / `distinct_labels` gauges the demo GUI plots. A run
    /// over a demo-sized graph with telemetry on also journals its state
    /// after every superstep ([`common::SAMPLE_MAX_VERTICES`]).
    pub track_truth: bool,
    /// Panic exactly once inside the delta body at this chronological
    /// superstep — the serving engine's UDF-failure injector. The unwind is
    /// caught by the executor and converted into a partition failure handled
    /// by the configured recovery strategy.
    pub panic_at: Option<u32>,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            parallelism: 4,
            max_iterations: 200,
            ft: FtConfig::default(),
            track_truth: true,
            panic_at: None,
        }
    }
}

/// The state of a CC delta iteration: per-partition `vertex -> label` maps
/// plus the workset of labels still to propagate. A caller that keeps it
/// between runs ([`run_resident`]) re-converges from where the last run
/// stopped instead of from every vertex.
pub type CcState = DeltaState<VertexId, VertexId, Label>;

/// The state a cold run starts from: every vertex labelled with its own id,
/// every vertex in the workset.
pub fn initial_state(num_vertices: usize, parallelism: usize) -> CcState {
    let labels = || (0..num_vertices as VertexId).map(|v| (v, v));
    CcState {
        solution: solution_sets(labels(), parallelism),
        workset: Partitions::keyed(labels().collect(), parallelism, |l| l.0),
    }
}

/// Result of a Connected Components run.
#[derive(Debug, Clone)]
pub struct CcResult {
    /// Final `(vertex, label)` pairs, sorted by vertex id.
    pub labels: Vec<Label>,
    /// Number of distinct labels in the result.
    pub num_components: usize,
    /// `Some(true)` when the labels match the exact reference
    /// (only computed when [`CcConfig::track_truth`] is set).
    pub correct: Option<bool>,
    /// Per-superstep engine statistics.
    pub stats: RunStats,
}

/// The paper's `FixComponents` compensation function over `graph`: lost
/// vertices restart from their own ids, and every label is worth
/// propagating.
pub fn fix_components(graph: Arc<Graph>, parallelism: usize) -> FixPropagation<VertexId> {
    FixPropagation::new("FixComponents", graph, parallelism, |v| v, |_| true)
}

/// Run Connected Components over an undirected graph.
///
/// # Panics
/// Panics when the graph is directed.
pub fn run(graph: &Graph, config: &CcConfig) -> Result<CcResult> {
    assert!(!graph.is_directed(), "connected components expects an undirected graph");
    let env = crate::common::environment(config.parallelism, &config.ft);
    let built = build(&env, graph, config)?;

    let mut labels = built.result.collect()?;
    labels.sort_unstable();
    let stats = built.stats.take().expect("iteration executed");

    let mut distinct: Vec<VertexId> = labels.iter().map(|&(_, l)| l).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let correct = config.track_truth.then(|| {
        let truth = exact_components(graph);
        labels.len() == truth.len() && labels.iter().all(|&(v, l)| truth[v as usize] == l)
    });
    Ok(CcResult { labels, num_components: distinct.len(), correct, stats })
}

/// The dataflow pieces [`build`] returns: the (lazy) result dataset and the
/// statistics handle.
pub struct BuiltCc {
    /// Final solution-set dataset; `collect()` triggers execution.
    pub result: dataflow::api::DataSet<Label>,
    /// Filled with [`RunStats`] once the plan executes.
    pub stats: dataflow::prelude::StatsHandle,
}

/// Build the CC dataflow inside `env` without executing it. Exposed so
/// callers can inspect or `explain()` the plan (Figure 1a).
pub fn build(env: &Environment, graph: &Graph, config: &CcConfig) -> Result<BuiltCc> {
    let initial: Vec<Label> = graph.vertices().map(|v| (v, v)).collect();
    let solution = env.from_keyed_vec(initial.clone(), |r| r.0);
    let workset = env.from_keyed_vec(initial, |r| r.0);
    let iteration = DeltaIteration::new(&solution, &workset, config.max_iterations);
    let truth = config.track_truth.then(|| exact_components(graph));
    let Plan { iteration, updates } =
        plan(iteration, env, &Arc::new(graph.clone()), truth, config)?;
    let (result, stats) = iteration.close(updates.clone(), updates);
    Ok(BuiltCc { result, stats })
}

/// Run the CC dataflow from `state`, which the caller keeps between runs,
/// over a graph it keeps too: the serving engine's incremental
/// re-convergence, and — from [`initial_state`] — its bootstrap. The same
/// plan as [`build`], closed over resident state instead of datasets:
/// nothing of the size of the graph is built, copied or sorted — the plan
/// joins against `graph` itself, and `state` is stepped in place, copied
/// only as the restart origin of a strategy that restarts (optimistic
/// recovery does not). The final state comes back with the vertices whose
/// labels the run changed. `state` must hold a label for every vertex of
/// `graph`; [`CcConfig::track_truth`] is ignored.
pub fn run_resident(
    graph: &Arc<Graph>,
    state: CcState,
    config: &CcConfig,
) -> Result<ResidentRun<VertexId, VertexId, Label>> {
    let env = crate::common::environment(config.parallelism, &config.ft);
    let iteration = DeltaIteration::over(&env, config.max_iterations);
    let Plan { iteration, updates } = plan(iteration, &env, graph, None, config)?;
    iteration.run_from(updates.clone(), updates, state)
}

/// A configured iteration with its loop body, ready to be closed.
struct Plan {
    iteration: DeltaIteration<VertexId, VertexId, Label>,
    /// Both the delta and the next workset.
    updates: DataSet<Label>,
}

/// The one constructor of the CC plan (Figure 1a): recovery strategy,
/// failure source, probes and the loop body, over whichever iteration —
/// dataset-fed or resident — the caller opened.
fn plan(
    mut iteration: DeltaIteration<VertexId, VertexId, Label>,
    env: &Environment,
    graph: &Arc<Graph>,
    truth: Option<Vec<VertexId>>,
    config: &CcConfig,
) -> Result<Plan> {
    iteration.set_fault_handler(common::delta_handler(
        &config.ft,
        fix_components(graph.clone(), config.parallelism),
    )?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Convergence norm: total label decrease per superstep (labels only
    // ever shrink towards the component minimum).
    iteration.set_norm_probe(common::delta_norm_probe(|old: Option<&VertexId>, new| {
        old.map_or(0.0, |&o| o.saturating_sub(*new) as f64)
    }));

    let sampler = common::Sampler::of(
        &config.ft,
        truth.is_some(),
        "cc",
        graph.num_vertices(),
        config.parallelism,
        &[common::MESSAGES, common::CONVERGED, common::DISTINCT_LABELS],
    );
    // The panic injector needs to know which superstep the body is
    // executing; the observer publishes it after each completed superstep.
    let superstep_cell = config.panic_at.map(|_| Arc::new(AtomicU32::new(0)));
    let observer_cell = superstep_cell.clone();
    if truth.is_some() || observer_cell.is_some() {
        iteration.set_observer(
            move |iter, solution: &SolutionSets<VertexId, VertexId>, _ws, stats| {
                if let Some(cell) = &observer_cell {
                    cell.store(iter + 1, Ordering::SeqCst);
                }
                if let Some(truth) = &truth {
                    let mut converged = 0u64;
                    let mut distinct: FxHashSet<VertexId> = FxHashSet::default();
                    for set in solution {
                        for (&v, &label) in set {
                            if truth[v as usize] == label {
                                converged += 1;
                            }
                            distinct.insert(label);
                        }
                    }
                    stats.gauges.insert(common::CONVERGED.into(), converged as f64);
                    stats.gauges.insert(common::DISTINCT_LABELS.into(), distinct.len() as f64);
                }
                if let Some(sampler) = &sampler {
                    let labels = solution.iter().flatten().map(|(&v, &l)| (v, l as f64));
                    sampler.sample(stats, labels);
                }
            },
        );
    }

    // The graph is the build side: its rows are read by vertex id.
    let neighbours = iteration.import_shared(&env.from_index(graph.clone()));
    let workset_in = iteration.workset();
    let workset_in = match (config.panic_at, superstep_cell) {
        (Some(target), Some(cell)) => {
            let fired = Arc::new(AtomicBool::new(false));
            workset_in.map("panic-inject", move |&w: &Label| {
                if cell.load(Ordering::SeqCst) == target && !fired.swap(true, Ordering::SeqCst) {
                    panic!("injected UDF panic at superstep {target}");
                }
                w
            })
        }
        _ => workset_in,
    };
    // Updated vertices send their label to every neighbour...
    let candidates = workset_in
        .join_index("label-to-neighbors", &neighbours, |w: &Label| w.0, |w, &u| (u, w.1))
        .measured(common::MESSAGES)
        // ...each vertex keeps the smallest incoming candidate...
        .reduce_by_key("candidate-label", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    // ...and updates its solution entry when the candidate improves on it.
    let updates = candidates
        .join_solution(
            "label-update",
            &iteration.solution_set(),
            |c| c.0,
            |c, label: &VertexId| if c.1 < *label { Some((c.0, c.1)) } else { None },
        )
        .flat_map("updated-labels", |u: &Option<Label>| *u);
    Ok(Plan { iteration, updates })
}

/// Textual rendering of the Figure 1a dataflow, compensation included.
pub fn plan_text(parallelism: usize) -> String {
    let graph = graphs::generators::demo_components();
    let env = Environment::new(parallelism);
    let config = CcConfig { parallelism, track_truth: false, ..Default::default() };
    let built = build(&env, &graph, &config).expect("plan construction cannot fail");
    let mut text = built.result.explain();
    text.push_str(
        "\n(compensation, invoked only after failures:)\n  FixComponents [Map] — reset lost \
         vertices to initial labels, re-seed propagation\n",
    );
    text
}

/// Connected Components as a **bulk** iteration: every superstep, every
/// vertex recomputes `min(own label, neighbours' labels)` — no working set,
/// the whole state is recomputed even where it already converged (§2.1).
/// Exists for the bulk-vs-delta ablation and as a second recovery target:
/// the compensation is simply "reset lost vertices to their initial
/// labels"; the next superstep re-derives their minima from the imports.
pub fn run_bulk(graph: &Graph, config: &CcConfig) -> Result<CcResult> {
    assert!(!graph.is_directed(), "connected components expects an undirected graph");
    let env = crate::common::environment(config.parallelism, &config.ft);
    let initial: Vec<Label> = graph.vertices().map(|v| (v, v)).collect();
    let labels0 = env.from_keyed_vec(initial, |r| r.0);
    let edges: Vec<(VertexId, VertexId)> = graph.directed_edges().collect();
    let edges_ds = env.from_keyed_vec(edges, |e| e.0);

    let mut iteration = dataflow::prelude::BulkIteration::new(&labels0, config.max_iterations);
    let parallelism = config.parallelism;
    let num_vertices = graph.num_vertices() as VertexId;
    iteration.set_fault_handler(common::bulk_handler(
        &config.ft,
        recovery::compensation::Named::new(
            "FixComponents",
            move |state: &mut Partitions<Label>, lost: &[PartitionId], _iter: u32| {
                for (v, pid) in lost_keys(num_vertices, parallelism, lost) {
                    state.partition_mut(pid).push((v, v));
                }
            },
        ),
    )?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Same norm as the delta variant: summed label decrease; a vertex
    // counts as changed when its label moved at all.
    iteration.set_convergence_probe(common::keyed_bulk_probe(
        |l: &Label| l.0,
        |old, new| old.map_or(0.0, |o| o.1.saturating_sub(new.1) as f64),
        0.0,
    ));
    if config.track_truth {
        let truth = exact_components(graph);
        iteration.set_observer(move |_iter, state: &Partitions<Label>, stats| {
            let converged = state.iter_records().filter(|&&(v, l)| truth[v as usize] == l).count();
            stats.gauges.insert(common::CONVERGED.into(), converged as f64);
        });
    }

    let edges_in = iteration.import(&edges_ds);
    let labels = iteration.state();
    let candidates = labels
        .join("label-to-neighbors", &edges_in, |l: &Label| l.0, |e| e.0, |l, e| (e.1, l.1))
        .measured(common::MESSAGES)
        .union("with-own-label", &labels)
        .reduce_by_key("candidate-label", |c: &Label| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    let still_changing = candidates
        .join("label-update", &labels, |c: &Label| c.0, |l: &Label| l.0, |c, l| c.1 != l.1)
        .filter("changed", |changed| *changed);
    let (result, handle) = iteration.close_with_termination(candidates, still_changing);

    let mut labels = result.collect()?;
    labels.sort_unstable();
    let stats = handle.take().expect("iteration executed");
    let mut distinct: Vec<VertexId> = labels.iter().map(|&(_, l)| l).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let correct = config.track_truth.then(|| {
        let truth = exact_components(graph);
        labels.len() == truth.len() && labels.iter().all(|&(v, l)| truth[v as usize] == l)
    });
    Ok(CcResult { labels, num_components: distinct.len(), correct, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use recovery::scenario::FailureScenario;
    use recovery::strategy::Strategy;

    fn assert_correct(result: &CcResult, graph: &Graph) {
        let truth = exact_components(graph);
        assert_eq!(result.labels.len(), truth.len());
        for &(v, label) in &result.labels {
            assert_eq!(label, truth[v as usize], "vertex {v}");
        }
    }

    #[test]
    fn failure_free_demo_graph() {
        let graph = generators::demo_components();
        let result = run(&graph, &CcConfig::default()).unwrap();
        assert_eq!(result.num_components, 3);
        assert_eq!(result.correct, Some(true));
        assert!(result.stats.converged);
        assert_correct(&result, &graph);
    }

    #[test]
    fn messages_start_at_two_e() {
        let graph = generators::demo_components();
        let result = run(&graph, &CcConfig::default()).unwrap();
        let messages = result.stats.counter_series(common::MESSAGES);
        assert_eq!(messages[0] as usize, 2 * graph.num_edges());
    }

    #[test]
    fn converged_gauge_is_monotone_without_failures() {
        let graph = generators::demo_components();
        let result = run(&graph, &CcConfig::default()).unwrap();
        let converged = result.stats.gauge_series(common::CONVERGED);
        assert!(converged.windows(2).all(|w| w[1] >= w[0]), "{converged:?}");
        assert_eq!(*converged.last().unwrap() as usize, 16);
    }

    #[test]
    fn optimistic_recovery_converges_to_exact_labels() {
        let graph = generators::demo_components();
        let config = CcConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(2, &[1])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert!(result.stats.converged);
        assert_eq!(result.stats.failures().count(), 1);
        assert_correct(&result, &graph);
    }

    #[test]
    fn failure_plummets_converged_gauge_and_spikes_messages() {
        // The demo's signature plots: a plummet in converged vertices at the
        // failure iteration and elevated messages right after.
        let graph = generators::demo_components();
        let failure_free = run(&graph, &CcConfig::default()).unwrap();
        let config = CcConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(2, &[0, 1])),
            ..Default::default()
        };
        let failed = run(&graph, &config).unwrap();
        let ff_converged = failure_free.stats.gauge_series(common::CONVERGED);
        let f_converged = failed.stats.gauge_series(common::CONVERGED);
        assert!(
            f_converged[2] < ff_converged[2],
            "converged count must plummet at the failure superstep: {f_converged:?} vs {ff_converged:?}"
        );
        let ff_messages = failure_free.stats.counter_series(common::MESSAGES);
        let f_messages = failed.stats.counter_series(common::MESSAGES);
        assert!(
            f_messages[3] > *ff_messages.get(3).unwrap_or(&0),
            "messages must spike after the failure: {f_messages:?} vs {ff_messages:?}"
        );
    }

    #[test]
    fn all_strategies_except_ignore_are_correct() {
        let graph = generators::random_components(3, 5..12, 0.3, 11);
        for strategy in
            [Strategy::Optimistic, Strategy::Checkpoint { interval: 2 }, Strategy::Restart]
        {
            let config = CcConfig {
                ft: FtConfig {
                    strategy,
                    scenario: FailureScenario::none().fail_at(1, &[0]),
                    ..Default::default()
                },
                ..Default::default()
            };
            let result = run(&graph, &config).unwrap();
            assert_eq!(result.correct, Some(true), "strategy {strategy:?}");
            assert!(result.stats.converged);
        }
    }

    #[test]
    fn ignore_strategy_loses_vertices() {
        let graph = generators::demo_components();
        let config = CcConfig {
            ft: FtConfig::ignore(FailureScenario::none().fail_at(1, &[0, 1])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert!(result.labels.len() < 16, "lost vertices must stay lost");
        assert_eq!(result.correct, Some(false));
    }

    #[test]
    fn rollback_repeats_iterations() {
        let graph = generators::path(24);
        let config = CcConfig {
            ft: FtConfig::checkpoint(3, FailureScenario::none().fail_at(7, &[0])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        // Rolled back from superstep 7 to checkpoint at logical iteration 6:
        // the run pays extra supersteps compared to its logical count.
        assert!(result.stats.supersteps() > result.stats.logical_iterations());
    }

    #[test]
    fn multiple_failures_still_converge() {
        let graph = generators::preferential_attachment(300, 2, 5);
        let config = CcConfig {
            ft: FtConfig::optimistic(
                FailureScenario::none().fail_at(1, &[0]).fail_at(3, &[2, 3]).fail_at(4, &[1]),
            ),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert_eq!(result.stats.failures().count(), 3);
    }

    #[test]
    fn plan_text_names_the_figure_1a_operators() {
        let text = plan_text(4);
        for name in ["label-to-neighbors", "candidate-label", "label-update", "FixComponents"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn seeded_runs_reconverge_in_fewer_supersteps() {
        // Two disjoint 16-vertex paths; the "mutation" inserts the bridging
        // edge (15, 16). A cold run over the mutated graph propagates label
        // 0 across all 32 vertices; the seeded run starts from the two old
        // fixpoints and only re-labels the second path.
        let mut b = graphs::GraphBuilder::undirected(0);
        for v in 0..15u64 {
            b.add_edge(v, v + 1);
        }
        for v in 16..31u64 {
            b.add_edge(v, v + 1);
        }
        b.add_edge(15, 16);
        let mutated = b.build();
        let config = CcConfig::default();
        let cold = run(&mutated, &config).unwrap();
        assert_eq!(cold.correct, Some(true));

        // Fixpoint before the mutation: label 0 on 0..=15, label 16 on the
        // second path. Only the bridge endpoints need to propagate.
        let fixpoint = (0..32u64).map(|v| (v, if v <= 15 { 0 } else { 16 }));
        let state = CcState {
            solution: solution_sets(fixpoint, config.parallelism),
            workset: Partitions::keyed(vec![(15, 0), (16, 16)], config.parallelism, |w| w.0),
        };
        let warm = run_resident(&Arc::new(mutated), state, &config).unwrap();
        let mut labels: Vec<Label> =
            warm.state.solution.iter().flatten().map(|(&v, &l)| (v, l)).collect();
        labels.sort_unstable();
        assert_eq!(labels, cold.labels, "warm start must reach the cold fixpoint");
        assert!(warm.stats.converged);
        assert!(
            warm.stats.supersteps() < cold.stats.supersteps(),
            "seeded: {} supersteps, cold: {}",
            warm.stats.supersteps(),
            cold.stats.supersteps()
        );
        let mut changed = warm.upserted;
        changed.sort_unstable();
        changed.dedup();
        assert_eq!(changed, (16..32).collect::<Vec<_>>(), "only the second path was relabelled");
    }

    #[test]
    fn panic_at_injects_one_compensated_failure() {
        let graph = generators::path(24);
        let config = CcConfig {
            ft: FtConfig::optimistic(FailureScenario::none()),
            panic_at: Some(3),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert!(result.stats.converged);
        let failures: Vec<_> = result.stats.failures().collect();
        assert_eq!(failures.len(), 1, "the injected panic must surface as one failure");
        assert_eq!(failures[0].1.recovery, dataflow::stats::RecoveryKind::Compensated);
    }

    #[test]
    fn bulk_variant_matches_delta_variant() {
        let graph = generators::random_components(3, 4..10, 0.3, 77);
        let delta = run(&graph, &CcConfig::default()).unwrap();
        let bulk = run_bulk(&graph, &CcConfig::default()).unwrap();
        assert_eq!(bulk.labels, delta.labels);
        assert_eq!(bulk.correct, Some(true));
    }

    #[test]
    fn bulk_variant_recovers_optimistically() {
        let graph = generators::demo_components();
        let config = CcConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(2, &[0, 1])),
            ..Default::default()
        };
        let result = run_bulk(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        assert_eq!(result.stats.failures().count(), 1);
    }

    #[test]
    fn bulk_variant_does_more_message_work_on_skewed_convergence() {
        // §2.1's motivation: "in many cases parts of the intermediate state
        // converge at different speeds". A big star converges in two
        // iterations; the attached path takes ~64. The bulk mode keeps
        // recomputing the whole star for every path superstep, the delta
        // working set drops the star immediately.
        let graph = generators::disjoint_union(&[generators::star(2000), generators::path(64)]);
        let delta = run(&graph, &CcConfig::default()).unwrap();
        let bulk = run_bulk(&graph, &CcConfig::default()).unwrap();
        assert_eq!(bulk.labels, delta.labels);
        let delta_messages: u64 = delta.stats.counter_series(common::MESSAGES).iter().sum();
        let bulk_messages: u64 = bulk.stats.counter_series(common::MESSAGES).iter().sum();
        assert!(
            bulk_messages > 5 * delta_messages,
            "bulk {bulk_messages} vs delta {delta_messages}"
        );
    }
}
