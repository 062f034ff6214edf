//! Engine-level integration: compose operators, iterations, failure
//! injection and recovery handlers across crate boundaries without the
//! prebuilt algorithms.

use dataflow::partition::hash_partition;
use dataflow::prelude::*;
use recovery::checkpoint::{CheckpointHandler, MemoryStore};
use recovery::optimistic::OptimisticHandler;
use recovery::scenario::FailureScenario;

#[test]
fn batch_pipeline_across_operators() {
    let env = Environment::new(4);
    let orders = env.from_vec(vec![
        (1u64, "apples".to_string(), 3u64),
        (2, "pears".to_string(), 5),
        (1, "apples".to_string(), 2),
        (3, "plums".to_string(), 7),
    ]);
    let customers = env.from_vec(vec![
        (1u64, "ada".to_string()),
        (2, "grace".to_string()),
        (3, "edsger".to_string()),
    ]);
    let totals = orders
        .map("strip-product", |o: &(u64, String, u64)| (o.0, o.2))
        .reduce_by_key("sum-per-customer", |r: &(u64, u64)| r.0, |a, b| (a.0, a.1 + b.1))
        .join(
            "attach-name",
            &customers,
            |t: &(u64, u64)| t.0,
            |c: &(u64, String)| c.0,
            |t, c| (c.1.clone(), t.1),
        );
    let mut out = totals.collect().unwrap();
    out.sort();
    assert_eq!(
        out,
        vec![("ada".to_string(), 5), ("edsger".to_string(), 7), ("grace".to_string(), 5)]
    );
}

#[test]
fn iterative_job_with_custom_compensation_converges() {
    // Fixpoint: x <- max(x - 1, target), per key; compensation restores
    // lost entries to their start value, which only delays convergence.
    let parallelism = 4;
    let env = Environment::new(parallelism);
    let n: u64 = 64;
    let initial: Vec<(u64, u64)> = (0..n).map(|k| (k, 100 + k)).collect();
    let state0 = env.from_keyed_vec(initial.clone(), |r| r.0);

    let mut iteration = BulkIteration::new(&state0, 1000);
    let state = iteration.state();
    let next = state.map("decay", |&(k, x): &(u64, u64)| (k, x.saturating_sub(1).max(k)));
    let moving = next.filter("not-done", |&(k, x)| x > k);

    let start = initial.clone();
    iteration.set_fault_handler(Box::new(OptimisticHandler::new(
        move |state: &mut Partitions<(u64, u64)>, lost: &[usize], _i: u32| {
            for &(k, x0) in &start {
                let pid = hash_partition(&k, parallelism);
                if lost.contains(&pid) {
                    state.partition_mut(pid).push((k, x0));
                }
            }
        },
    )));
    iteration.set_failure_source(
        FailureScenario::none().fail_at(20, &[1]).fail_at(60, &[2]).to_source(),
    );
    let (result, stats) = iteration.close_with_termination(next, moving);
    let mut out = result.collect().unwrap();
    out.sort_unstable();
    assert_eq!(out, (0..n).map(|k| (k, k)).collect::<Vec<_>>());
    let stats = stats.take().unwrap();
    assert!(stats.converged);
    assert_eq!(stats.failures().count(), 2);
}

#[test]
fn checkpoint_handler_with_engine_iteration_rolls_back() {
    let parallelism = 2;
    let env = Environment::new(parallelism);
    let state0 = env.from_keyed_vec(vec![(0u64, 0u64), (1, 0)], |r| r.0);
    let mut iteration = BulkIteration::new(&state0, 10);
    let state = iteration.state();
    let next = state.map("inc", |&(k, x): &(u64, u64)| (k, x + 1));
    iteration.set_fault_handler(Box::new(CheckpointHandler::new(MemoryStore::new(), 2).unwrap()));
    iteration.set_failure_source(FailureScenario::none().fail_at(5, &[0]).to_source());
    let (result, stats) = iteration.close(next);
    let mut out = result.collect().unwrap();
    out.sort_unstable();
    // All entries reach 10 despite the rollback (logical iterations 0..9).
    assert_eq!(out, vec![(0, 10), (1, 10)]);
    let stats = stats.take().unwrap();
    // Rolled back from superstep 5 to the checkpoint of iteration 4 →
    // exactly one redone superstep.
    assert_eq!(stats.supersteps(), 11);
    assert!(stats.total_checkpoint_bytes() > 0);
}

#[test]
fn nested_iterations_work() {
    // An outer bulk iteration whose body runs an inner bulk iteration.
    let env = Environment::new(2);
    let initial = env.from_vec(vec![1u64]);
    let outer = BulkIteration::new(&initial, 3);
    let outer_state = outer.state();

    // Inner loop: double the value 3 times (x * 8), inside each outer step.
    let inner = BulkIteration::new(&outer_state, 3);
    let inner_state = inner.state();
    let doubled = inner_state.map("double", |n: &u64| n * 2);
    let (inner_result, _) = inner.close(doubled);

    let (result, stats) = outer.close(inner_result);
    assert_eq!(result.collect().unwrap(), vec![8 * 8 * 8]);
    assert!(stats.take().unwrap().converged);
}

#[test]
fn explain_spans_nested_plans() {
    let env = Environment::new(2);
    let initial = env.from_vec(vec![1u64]);
    let iteration = BulkIteration::new(&initial, 2);
    let state = iteration.state();
    let next = state.map("body-map", |n: &u64| n + 1);
    let (result, _) = iteration.close(next);
    let text = result.explain();
    assert!(text.contains("bulk-iteration [BulkIteration]"), "{text}");
    assert!(text.contains("body-map [Map]"), "{text}");
    assert!(text.contains("iteration-head [IterationHead]"), "{text}");
}

#[test]
fn workloads_survive_single_partition_parallelism() {
    // Degenerate but legal: one partition means failures lose everything.
    let graph = graphs::generators::demo_components();
    let config = algos::connected_components::CcConfig {
        parallelism: 1,
        ft: algos::FtConfig::optimistic(FailureScenario::none().fail_at(1, &[0])),
        ..Default::default()
    };
    let result = algos::connected_components::run(&graph, &config).unwrap();
    assert_eq!(result.correct, Some(true));
}

#[test]
fn high_parallelism_exceeding_data_size_works() {
    let graph = graphs::generators::path(5);
    let config = algos::connected_components::CcConfig {
        parallelism: 16,
        ft: algos::FtConfig::optimistic(FailureScenario::none().fail_at(2, &[7, 11])),
        ..Default::default()
    };
    let result = algos::connected_components::run(&graph, &config).unwrap();
    assert_eq!(result.correct, Some(true));
}
