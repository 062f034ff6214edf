//! PageRank as a bulk iteration — the paper's Figure 1b.
//!
//! Every superstep: each vertex sends `rank / out-degree` to its neighbours
//! (*find-neighbors* join), every vertex sums its incoming contributions
//! (*recompute-ranks* reduce), the teleport term and the uniformly
//! redistributed dangling mass are folded in, and the new ranks are compared
//! to the previous ones (*compare-to-old-rank* join) — the iteration stops
//! once no rank moves by more than `epsilon`.
//!
//! **Compensation (`FixRanks`)**: failures destroy the current ranks of the
//! vertices in the lost partitions. As long as all ranks sum up to one, the
//! power iteration converges to the stationary distribution, so the
//! compensation re-initialises each lost vertex with an equal share of the
//! lost probability mass (paper §2.2.2). The rescaled ranks are farther from
//! the fixpoint than the destroyed ones were — visible as the spike in the
//! L1-difference plot of the demo GUI.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use dataflow::api::Environment;
use dataflow::dataset::Partitions;
use dataflow::error::Result;
use dataflow::partition::PartitionId;
use dataflow::prelude::BulkIteration;
use dataflow::stats::RunStats;
use graphs::{exact_pagerank, Graph, PageRankParams, VertexId, PAGERANK_DAMPING};
use recovery::compensation::{lost_keys, Compensation};

use crate::common::{self, FtConfig};

/// A `(vertex, rank)` record — the iteration state of the dataflow.
pub type Rank = (VertexId, f64);

/// Configuration of a PageRank run.
#[derive(Debug, Clone)]
pub struct PrConfig {
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Termination threshold: stop once no single rank moves by more than
    /// `epsilon` between consecutive iterations.
    pub epsilon: f64,
    /// Recovery strategy and failure scenario.
    pub ft: FtConfig,
    /// Precompute exact ranks and record the `converged` gauge (vertices
    /// within tolerance of their true rank) plus the `l1_diff` gauge. A run
    /// over a demo-sized graph with telemetry on also journals its state
    /// after every superstep ([`common::SAMPLE_MAX_VERTICES`]).
    pub track_truth: bool,
    /// "Converged to the true rank" tolerance, as a fraction of the uniform
    /// rank `1/n` (the demo GUI's plot (i)).
    pub truth_tolerance: f64,
    /// Panic exactly once inside the rank-propagation body at this
    /// chronological superstep — the serving engine's UDF-failure injector.
    /// The unwind is caught by the executor and converted into a partition
    /// failure handled by the configured recovery strategy.
    pub panic_at: Option<u32>,
}

impl Default for PrConfig {
    fn default() -> Self {
        PrConfig {
            parallelism: 4,
            max_iterations: 100,
            epsilon: 1e-7,
            ft: FtConfig::default(),
            track_truth: true,
            truth_tolerance: 0.01,
            panic_at: None,
        }
    }
}

/// Result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PrResult {
    /// Final `(vertex, rank)` pairs, sorted by vertex id.
    pub ranks: Vec<Rank>,
    /// Sum of all final ranks (1 up to floating-point error — the invariant
    /// `FixRanks` maintains; `Ignore` runs violate it).
    pub rank_sum: f64,
    /// L1 distance to the exact power-iteration reference
    /// (only computed when [`PrConfig::track_truth`] is set).
    pub l1_to_exact: Option<f64>,
    /// Per-superstep engine statistics.
    pub stats: RunStats,
}

/// The paper's `FixRanks` compensation function.
pub struct FixRanks {
    num_vertices: usize,
    parallelism: usize,
}

impl FixRanks {
    /// Compensation for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize, parallelism: usize) -> Self {
        FixRanks { num_vertices, parallelism }
    }
}

impl Compensation<Partitions<Rank>> for FixRanks {
    fn compensate(&mut self, state: &mut Partitions<Rank>, lost: &[PartitionId], _iteration: u32) {
        // Ranks always sum to one; whatever the survivors don't hold was
        // destroyed with the failed partitions.
        let surviving_mass: f64 = state.iter_records().map(|&(_, r)| r).sum();
        let lost_vertices: Vec<(VertexId, PartitionId)> =
            lost_keys(self.num_vertices as u64, self.parallelism, lost).collect();
        if lost_vertices.is_empty() {
            return;
        }
        let share = (1.0 - surviving_mass).max(0.0) / lost_vertices.len() as f64;
        for (v, pid) in lost_vertices {
            state.partition_mut(pid).push((v, share));
        }
    }

    fn name(&self) -> &str {
        "FixRanks"
    }
}

/// Run PageRank over a (directed) graph.
pub fn run(graph: &Graph, config: &PrConfig) -> Result<PrResult> {
    let env = crate::common::environment(config.parallelism, &config.ft);
    let built = build(&env, graph, config)?;

    let mut ranks = built.result.collect()?;
    ranks.sort_by_key(|a| a.0);
    let stats = built.stats.take().expect("iteration executed");
    let rank_sum = ranks.iter().map(|&(_, r)| r).sum();
    let truth_ref = built.truth;
    let l1_to_exact = config.track_truth.then(|| {
        // Reuse the reference the observer already computed.
        let truth = truth_ref.expect("track_truth implies a reference");
        let covered: f64 = ranks.iter().map(|&(v, r)| (r - truth[v as usize]).abs()).sum();
        // Vertices missing from the output (Ignore runs) count with their
        // full true rank.
        let present: std::collections::HashSet<VertexId> = ranks.iter().map(|&(v, _)| v).collect();
        let missing: f64 = truth
            .iter()
            .enumerate()
            .filter(|(v, _)| !present.contains(&(*v as VertexId)))
            .map(|(_, r)| r.abs())
            .sum();
        covered + missing
    });
    Ok(PrResult { ranks, rank_sum, l1_to_exact, stats })
}

fn exact_truth(graph: &Graph) -> Vec<f64> {
    exact_pagerank(
        graph,
        PageRankParams { epsilon: 1e-12, max_iterations: 1000, ..PageRankParams::default() },
    )
}

/// The dataflow pieces [`build`] returns.
pub struct BuiltPr {
    /// Final rank dataset; `collect()` triggers execution.
    pub result: dataflow::api::DataSet<Rank>,
    /// Filled with [`RunStats`] once the plan executes.
    pub stats: dataflow::prelude::StatsHandle,
    /// The exact power-iteration reference, computed once (when tracking
    /// truth) and shared between the observer and the final report.
    pub truth: Option<Arc<Vec<f64>>>,
}

/// Build the PageRank dataflow inside `env` without executing it. Exposed so
/// callers can `explain()` the plan (Figure 1b).
pub fn build(env: &Environment, graph: &Graph, config: &PrConfig) -> Result<BuiltPr> {
    build_warm(env, graph, config, None)
}

/// [`build`] with an optional warm start: instead of the uniform `1/n`
/// distribution, the power iteration starts from the given ranks (one entry
/// per vertex, summing to one) — the serving engine hands in the previous
/// epoch's fixpoint, renormalised over the mutated vertex set, which
/// converges in far fewer supersteps than a cold start after a small
/// mutation batch.
pub fn build_warm(
    env: &Environment,
    graph: &Graph,
    config: &PrConfig,
    warm: Option<&[Rank]>,
) -> Result<BuiltPr> {
    let n = graph.num_vertices();
    assert!(n > 0, "pagerank needs at least one vertex");
    let uniform = 1.0 / n as f64;
    let initial: Vec<Rank> = match warm {
        Some(ranks) => {
            assert_eq!(ranks.len(), n, "warm start must cover every vertex");
            ranks.to_vec()
        }
        None => graph.vertices().map(|v| (v, uniform)).collect(),
    };
    // The observer's L1-between-estimates gauge diffs against the actual
    // starting distribution, warm or cold.
    let mut initial_dist = vec![uniform; n];
    if let Some(ranks) = warm {
        for &(v, r) in ranks {
            initial_dist[v as usize] = r;
        }
    }
    let ranks0 = env.from_keyed_vec(initial, |r| r.0);
    let links: Vec<(VertexId, Vec<VertexId>)> = graph.adjacency_rows();
    let links_ds = env.from_keyed_vec(links, |l| l.0);

    let mut iteration = BulkIteration::new(&ranks0, config.max_iterations);
    iteration
        .set_fault_handler(common::bulk_handler(&config.ft, FixRanks::new(n, config.parallelism))?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Convergence norm: L1 rank movement; vertices moving more than the
    // termination epsilon count as changed (mirrors Figure 1b's check).
    let probe_epsilon = config.epsilon;
    iteration.set_convergence_probe(common::keyed_bulk_probe(
        |r: &Rank| r.0,
        |old, new| old.map_or_else(|| new.1.abs(), |o| (new.1 - o.1).abs()),
        probe_epsilon,
    ));

    // Observer: rank-sum invariant, L1 between consecutive estimates, and
    // (optionally) the converged-to-true-rank count.
    let truth = if config.track_truth { Some(Arc::new(exact_truth(graph))) } else { None };
    let truth_ret = truth.clone();
    let tolerance = config.truth_tolerance * uniform;
    let sampler = common::Sampler::of(
        &config.ft,
        truth.is_some(),
        "pagerank",
        n,
        config.parallelism,
        &[common::L1_DIFF, common::RANK_SUM, common::CONVERGED],
    );
    // The panic injector needs to know which superstep the body is
    // executing; the observer publishes it after each completed superstep.
    let superstep_cell = config.panic_at.map(|_| Arc::new(AtomicU32::new(0)));
    let observer_cell = superstep_cell.clone();
    let mut previous: Vec<f64> = initial_dist;
    iteration.set_observer(move |iter, state: &Partitions<Rank>, stats| {
        if let Some(cell) = &observer_cell {
            cell.store(iter + 1, Ordering::SeqCst);
        }
        let mut current = vec![0.0f64; n];
        for &(v, r) in state.iter_records() {
            current[v as usize] = r;
        }
        let sum: f64 = current.iter().sum();
        let l1: f64 = current.iter().zip(&previous).map(|(c, p)| (c - p).abs()).sum();
        stats.gauges.insert(common::RANK_SUM.into(), sum);
        stats.gauges.insert(common::L1_DIFF.into(), l1);
        if let Some(truth) = &truth {
            let converged = current
                .iter()
                .zip(truth.iter())
                .filter(|(c, t)| (**c - **t).abs() <= tolerance)
                .count();
            stats.gauges.insert(common::CONVERGED.into(), converged as f64);
        }
        if let Some(sampler) = &sampler {
            sampler.sample(stats, state.iter_records().copied());
        }
        previous = current;
    });

    let links_in = iteration.import(&links_ds);
    let ranks = iteration.state();
    let ranks_in = match (config.panic_at, superstep_cell) {
        (Some(target), Some(cell)) => {
            let fired = Arc::new(AtomicBool::new(false));
            ranks.map("panic-inject", move |&r: &Rank| {
                if cell.load(Ordering::SeqCst) == target && !fired.swap(true, Ordering::SeqCst) {
                    panic!("injected UDF panic at superstep {target}");
                }
                r
            })
        }
        _ => ranks.clone(),
    };

    // Each vertex pairs its rank with its out-links...
    let with_links = ranks_in.join(
        "find-neighbors",
        &links_in,
        |r: &Rank| r.0,
        |l: &(VertexId, Vec<VertexId>)| l.0,
        |r, l| (r.0, r.1, l.1.clone()),
    );
    // ...and propagates a fraction of its rank to each of them.
    let contributions = with_links
        .flat_map("contribute", |&(_, rank, ref neighbors): &(VertexId, f64, Vec<VertexId>)| {
            let share = rank / neighbors.len().max(1) as f64;
            neighbors.iter().map(|&w| (w, share)).collect::<Vec<_>>()
        })
        .measured(common::MESSAGES);
    // Dangling vertices have nowhere to send their rank; collect that mass
    // globally so it can be redistributed uniformly.
    let dangling_mass = with_links.global_fold(
        "dangling-mass",
        0.0f64,
        |acc, r: &(VertexId, f64, Vec<VertexId>)| {
            if r.2.is_empty() {
                *acc += r.1;
            }
        },
        |acc, partial| *acc += partial,
    );
    // Sum the contributions per target vertex...
    let summed =
        contributions.reduce_by_key("recompute-ranks", |c: &Rank| c.0, |a, b| (a.0, a.1 + b.1));
    // ...re-attach vertices that received nothing...
    let collected = ranks.co_group(
        "collect-ranks",
        &summed,
        |r: &Rank| r.0,
        |s: &Rank| s.0,
        |&v, _old, sums| vec![(v, sums.first().map_or(0.0, |s| s.1))],
    );
    // ...and apply damping, teleport, and the dangling mass.
    let damping = PAGERANK_DAMPING;
    let new_ranks = collected.map_with_broadcast(
        "apply-teleport",
        &dangling_mass,
        move |&(v, sum): &Rank, dangling: &[f64]| {
            let mass = dangling.first().copied().unwrap_or(0.0);
            (v, (1.0 - damping) * uniform + damping * (sum + mass * uniform))
        },
    );
    // Figure 1b's termination check: which ranks still move?
    let epsilon = config.epsilon;
    let still_moving = new_ranks
        .join(
            "compare-to-old-rank",
            &ranks,
            |a: &Rank| a.0,
            |b: &Rank| b.0,
            |a, b| (a.1 - b.1).abs(),
        )
        .filter("still-moving", move |delta| *delta > epsilon);
    let (result, stats) = iteration.close_with_termination(new_ranks, still_moving);
    Ok(BuiltPr { result, stats, truth: truth_ret })
}

/// Textual rendering of the Figure 1b dataflow, compensation included.
pub fn plan_text(parallelism: usize) -> String {
    let graph = graphs::generators::demo_pagerank();
    let env = Environment::new(parallelism);
    let config = PrConfig { parallelism, track_truth: false, ..Default::default() };
    let built = build(&env, &graph, &config).expect("plan construction cannot fail");
    let mut text = built.result.explain();
    text.push_str(
        "\n(compensation, invoked only after failures:)\n  FixRanks [Map] — uniformly \
         redistribute the lost probability mass over the lost vertices\n",
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use recovery::scenario::FailureScenario;
    use recovery::strategy::Strategy;

    fn close_to_truth(result: &PrResult) -> bool {
        result.l1_to_exact.expect("track_truth on") < 1e-3
    }

    #[test]
    fn failure_free_demo_graph_matches_exact() {
        let graph = generators::demo_pagerank();
        let result = run(&graph, &PrConfig::default()).unwrap();
        assert!(result.stats.converged);
        assert!((result.rank_sum - 1.0).abs() < 1e-9, "sum {}", result.rank_sum);
        assert!(close_to_truth(&result), "l1 {:?}", result.l1_to_exact);
    }

    #[test]
    fn l1_diff_trends_downward() {
        let graph = generators::demo_pagerank();
        let result = run(&graph, &PrConfig::default()).unwrap();
        let l1 = result.stats.gauge_series(common::L1_DIFF);
        assert!(l1.len() > 3);
        assert!(l1.last().unwrap() < &l1[0], "{l1:?}");
    }

    #[test]
    fn optimistic_recovery_converges_to_true_ranks() {
        let graph = generators::demo_pagerank();
        let config = PrConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(5, &[1])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert!(result.stats.converged);
        assert_eq!(result.stats.failures().count(), 1);
        assert!((result.rank_sum - 1.0).abs() < 1e-9);
        assert!(close_to_truth(&result), "l1 {:?}", result.l1_to_exact);
    }

    #[test]
    fn failure_spikes_l1_and_plummets_converged() {
        // The demo's signature PageRank plots: failure at iteration 5 →
        // L1 spike and converged-vertex plummet (§3.3).
        let graph = generators::preferential_attachment(500, 2, 3);
        let failure_free = run(&graph, &PrConfig::default()).unwrap();
        let config = PrConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(5, &[0])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        // The L1 between consecutive estimates spikes right after the
        // failure, where the failure-free curve keeps decaying...
        let l1 = result.stats.gauge_series(common::L1_DIFF);
        let l1_ff = failure_free.stats.gauge_series(common::L1_DIFF);
        assert!(l1[6] > l1[4], "L1 must spike after the failure: {:?}", &l1[..10]);
        assert!(
            l1[6] > 3.0 * l1_ff[6],
            "spike must exceed the failure-free decay: {:?}",
            &l1[..10]
        );
        // ...and the compensated run has fewer vertices at their true rank
        // than the failure-free run at the same superstep.
        let converged = result.stats.gauge_series(common::CONVERGED);
        let converged_ff = failure_free.stats.gauge_series(common::CONVERGED);
        assert!(
            converged[5] < converged_ff[5],
            "converged count must plummet vs. failure-free: {:?} vs {:?}",
            &converged[..10],
            &converged_ff[..10]
        );
        assert!(close_to_truth(&result));
    }

    #[test]
    fn rank_sum_invariant_holds_through_compensation() {
        let graph = generators::demo_pagerank();
        let config = PrConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(3, &[0, 2])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        for (superstep, sum) in result.stats.gauge_series(common::RANK_SUM).iter().enumerate() {
            assert!((sum - 1.0).abs() < 1e-9, "superstep {superstep}: sum {sum}");
        }
    }

    #[test]
    fn all_strategies_except_ignore_are_correct() {
        let graph = generators::demo_pagerank();
        for strategy in
            [Strategy::Optimistic, Strategy::Checkpoint { interval: 2 }, Strategy::Restart]
        {
            let config = PrConfig {
                ft: FtConfig {
                    strategy,
                    scenario: FailureScenario::none().fail_at(4, &[1]),
                    ..Default::default()
                },
                ..Default::default()
            };
            let result = run(&graph, &config).unwrap();
            assert!(result.stats.converged, "strategy {strategy:?}");
            assert!(close_to_truth(&result), "strategy {strategy:?}: {:?}", result.l1_to_exact);
        }
    }

    #[test]
    fn ignore_strategy_violates_the_distribution_invariant() {
        // Without compensation the rank sum drops below one after the
        // failure. (With the damped teleport formulation the iteration is an
        // affine contraction, so the mass slowly regenerates — the paper's
        // invariant argument is about restoring it *immediately*; the
        // lasting damage of Ignore is the transient violation and the extra
        // iterations spent recovering, and the `connected_components`
        // ablation shows the permanently-wrong-result case.)
        let graph = generators::preferential_attachment(200, 2, 9);
        let failure_free = run(&graph, &PrConfig::default()).unwrap();
        let config = PrConfig {
            ft: FtConfig::ignore(FailureScenario::none().fail_at(3, &[0, 1])),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        let sums = result.stats.gauge_series(common::RANK_SUM);
        assert!(sums[3] < 0.99, "mass must be lost at the failure superstep: {:?}", &sums[..6]);
        assert!(
            result.stats.supersteps() > failure_free.stats.supersteps(),
            "recovering the lost mass costs extra iterations: {} vs {}",
            result.stats.supersteps(),
            failure_free.stats.supersteps()
        );
    }

    #[test]
    fn dangling_vertices_keep_mass_at_one() {
        // demo_pagerank has a dangling vertex (9).
        let graph = generators::demo_pagerank();
        let result = run(&graph, &PrConfig::default()).unwrap();
        for sum in result.stats.gauge_series(common::RANK_SUM) {
            assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        }
    }

    #[test]
    fn messages_equal_directed_edges_each_superstep() {
        let graph = generators::demo_pagerank();
        let result = run(&graph, &PrConfig::default()).unwrap();
        let expected = graph.num_directed_edges() as u64;
        for m in result.stats.counter_series(common::MESSAGES) {
            assert_eq!(m, expected);
        }
    }

    #[test]
    fn warm_start_reconverges_in_fewer_supersteps_to_the_same_ranks() {
        let graph = generators::preferential_attachment(200, 2, 3);
        let config = PrConfig { track_truth: false, ..Default::default() };
        let cold = run(&graph, &config).unwrap();
        assert!(cold.stats.converged);

        // Restart from the cold fixpoint: the warm run must terminate almost
        // immediately and stay at the fixpoint.
        let env = common::environment(config.parallelism, &config.ft);
        let built = build_warm(&env, &graph, &config, Some(&cold.ranks)).unwrap();
        let mut ranks = built.result.collect().unwrap();
        ranks.sort_by_key(|r| r.0);
        let stats = built.stats.take().unwrap();
        assert!(stats.converged);
        assert!(
            stats.supersteps() < cold.stats.supersteps(),
            "warm: {} supersteps, cold: {}",
            stats.supersteps(),
            cold.stats.supersteps()
        );
        for (&(v, warm), &(_, exact)) in ranks.iter().zip(cold.ranks.iter()) {
            assert!((warm - exact).abs() < 1e-6, "vertex {v}: {warm} vs {exact}");
        }
    }

    #[test]
    fn panic_at_injects_one_compensated_failure() {
        let graph = generators::demo_pagerank();
        let config = PrConfig {
            ft: FtConfig::optimistic(FailureScenario::none()),
            panic_at: Some(4),
            ..Default::default()
        };
        let result = run(&graph, &config).unwrap();
        assert!(result.stats.converged);
        let failures: Vec<_> = result.stats.failures().collect();
        assert_eq!(failures.len(), 1, "the injected panic must surface as one failure");
        assert_eq!(failures[0].1.recovery, dataflow::stats::RecoveryKind::Compensated);
        assert!(close_to_truth(&result), "l1 {:?}", result.l1_to_exact);
    }

    #[test]
    fn plan_text_names_the_figure_1b_operators() {
        let text = plan_text(4);
        for name in ["find-neighbors", "recompute-ranks", "compare-to-old-rank", "FixRanks"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
