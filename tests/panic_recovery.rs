//! Panic-to-failure conversion, end to end: a partition task that panics
//! mid-superstep must not abort the process. The worker pool catches the
//! unwind, the executor surfaces a typed `PartitionPanic` error, and the
//! iteration drivers convert it into a regular partition failure handed to
//! the active recovery handler — after which the run completes normally.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dataflow::config::EnvConfig;
use dataflow::partition::hash_partition;
use dataflow::prelude::*;
use recovery::optimistic::OptimisticHandler;
use telemetry::{JournalEvent, MemorySink, SinkHandle};

type KV = (u64, u64);

/// Threaded environment (threshold 0 forces dispatch) with a capturing sink.
fn telemetry_env(parallelism: usize) -> (Environment, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let config = EnvConfig::new(parallelism)
        .with_thread_threshold(0)
        .with_telemetry(SinkHandle::new(sink.clone()));
    (Environment::with_config(config), sink)
}

/// A map UDF that panics exactly once, when it first sees `trigger`.
fn panic_once_on(trigger: u64) -> impl Fn(&KV) -> KV + Clone {
    let fired = Arc::new(AtomicBool::new(false));
    move |&(k, v): &KV| {
        if v == trigger && !fired.swap(true, Ordering::SeqCst) {
            panic!("injected UDF panic at value {trigger}");
        }
        (k, v.saturating_sub(1))
    }
}

#[test]
fn bulk_iteration_survives_a_udf_panic_on_the_pool() {
    let parallelism = 4;
    let (env, sink) = telemetry_env(parallelism);
    let n: u64 = 32;
    let initial: Vec<KV> = (0..n).map(|k| (k, 8 + k % 4)).collect();
    let state0 = env.from_keyed_vec(initial.clone(), |r| r.0);

    let mut iteration = BulkIteration::new(&state0, 100);
    // The record with value 5 first appears at superstep 3 (8 - 3); its key
    // determines the partition the panic is attributed to.
    let trigger = 5u64;
    let start = initial.clone();
    iteration.set_fault_handler(Box::new(OptimisticHandler::new(
        move |state: &mut Partitions<KV>, lost: &[usize], _i: u32| {
            for &(k, v) in &start {
                if lost.contains(&hash_partition(&k, parallelism)) {
                    state.partition_mut(hash_partition(&k, parallelism)).push((k, v));
                }
            }
        },
    )));
    let state = iteration.state();
    let next = state.map("decay", panic_once_on(trigger));
    let moving = next.filter("not-done", |&(_, v)| v > 0);
    let (result, stats) = iteration.close_with_termination(next, moving);

    let mut out = result.collect().expect("run survives the UDF panic");
    out.sort_unstable();
    assert_eq!(out, (0..n).map(|k| (k, 0)).collect::<Vec<_>>());

    let stats = stats.take().unwrap();
    assert!(stats.converged);
    let failures: Vec<_> = stats.failures().collect();
    assert_eq!(failures.len(), 1, "the panic must surface as exactly one failure");
    let record = failures[0].1;
    assert_eq!(record.recovery, dataflow::stats::RecoveryKind::Compensated);
    let panicked_step = stats.iterations.iter().find(|i| i.failure.is_some()).unwrap();
    assert_eq!(
        panicked_step.records_shuffled, 0,
        "the aborted superstep produced no completed shuffle"
    );
    // Compensation redoes the panicked logical iteration, so the run costs
    // exactly one extra superstep.
    assert_eq!(stats.supersteps(), stats.logical_iterations() + 1);

    let events = sink.events();
    let panicked: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::PartitionPanicked { superstep, iteration, pid } => {
                Some((*superstep, *iteration, *pid))
            }
            _ => None,
        })
        .collect();
    assert_eq!(panicked.len(), 1);
    assert_eq!(record.lost_partitions, vec![panicked[0].2]);
    // No SuperstepCompleted entry exists for the aborted superstep.
    let completed: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::SuperstepCompleted { superstep, .. } => Some(*superstep),
            _ => None,
        })
        .collect();
    assert!(!completed.contains(&panicked[0].0));
}

#[test]
fn delta_iteration_survives_a_udf_panic() {
    // Min-label propagation over a path graph, with a workset-side UDF that
    // panics once mid-run. The compensation restores the lost solution
    // partition to initial labels and reseeds its workset records.
    let parallelism = 4;
    let n: u64 = 16;
    let (env, sink) = telemetry_env(parallelism);
    let labels: Vec<KV> = (0..n).map(|v| (v, v)).collect();
    let solution = env.from_keyed_vec(labels.clone(), |r| r.0);
    let workset = env.from_keyed_vec(labels.clone(), |r| r.0);
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for v in 0..n - 1 {
        edges.push((v, v + 1));
        edges.push((v + 1, v));
    }
    let edges_ds = env.from_keyed_vec(edges, |e| e.0);

    let mut it = DeltaIteration::new(&solution, &workset, 200);
    let start = labels.clone();
    it.set_fault_handler(Box::new(OptimisticHandler::new(
        move |state: &mut DeltaState<u64, u64, KV>, lost: &[usize], _i: u32| {
            let DeltaState { solution: sets, workset } = state;
            // Restore lost vertices to their initial labels and let them
            // propagate again; surviving path-neighbours must also re-send
            // their (correct) labels, exactly like the paper's
            // FixComponents compensation.
            for &(k, v) in &start {
                let pid = hash_partition(&k, parallelism);
                if lost.contains(&pid) {
                    sets[pid].insert(k, v);
                    workset.partition_mut(pid).push((k, v));
                    for u in [k.wrapping_sub(1), k + 1] {
                        let upid = hash_partition(&u, parallelism);
                        if u < n && !lost.contains(&upid) {
                            if let Some(&label) = sets[upid].get(&u) {
                                workset.partition_mut(upid).push((u, label));
                            }
                        }
                    }
                }
            }
        },
    )));
    let fired = Arc::new(AtomicBool::new(false));
    let edges_in = it.import(&edges_ds);
    let candidates = it
        .workset()
        .map("panic-once", move |&w: &KV| {
            // Label 0 reaches vertex 4 at iteration 4; panic the first time
            // that update flows through.
            if w == (4, 0) && !fired.swap(true, Ordering::SeqCst) {
                panic!("injected UDF panic in the delta body");
            }
            w
        })
        .join("to-neighbors", &edges_in, |w: &KV| w.0, |e| e.0, |w, e| (e.1, w.1))
        .reduce_by_key("min-candidate", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    let updates = candidates
        .join_solution(
            "label-update",
            &it.solution_set(),
            |c| c.0,
            |c, label: &u64| if c.1 < *label { Some((c.0, c.1)) } else { None },
        )
        .flat_map("updated-only", |u: &Option<KV>| *u);
    let (result, stats) = it.close(updates.clone(), updates);

    let mut out = result.collect().expect("run survives the UDF panic");
    out.sort_unstable();
    assert!(out.iter().all(|&(_, l)| l == 0), "all labels must reach 0: {out:?}");

    let stats = stats.take().unwrap();
    assert!(stats.converged);
    let failures: Vec<_> = stats.failures().collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].1.recovery, dataflow::stats::RecoveryKind::Compensated);
    let panicked_step = stats.iterations.iter().find(|i| i.failure.is_some()).unwrap();
    assert_eq!(panicked_step.records_shuffled, 0);

    let events = sink.events();
    assert_eq!(
        events.iter().filter(|e| e.kind() == "PartitionPanicked").count(),
        1,
        "the journal must record the panic"
    );
}

#[test]
fn inline_execution_survives_a_udf_panic_too() {
    // The inline (non-threaded) path catches unwinds per record batch as
    // well — a debugging configuration must not die where the threaded one
    // survives.
    let parallelism = 2;
    let config = EnvConfig::new(parallelism).with_threaded(false);
    let env = Environment::with_config(config);
    let initial: Vec<KV> = (0..8u64).map(|k| (k, 4)).collect();
    let state0 = env.from_keyed_vec(initial.clone(), |r| r.0);

    let mut iteration = BulkIteration::new(&state0, 50);
    let start = initial.clone();
    iteration.set_fault_handler(Box::new(OptimisticHandler::new(
        move |state: &mut Partitions<KV>, lost: &[usize], _i: u32| {
            for &(k, v) in &start {
                if lost.contains(&hash_partition(&k, parallelism)) {
                    state.partition_mut(hash_partition(&k, parallelism)).push((k, v));
                }
            }
        },
    )));
    let state = iteration.state();
    let next = state.map("decay", panic_once_on(2));
    let moving = next.filter("not-done", |&(_, v)| v > 0);
    let (result, stats) = iteration.close_with_termination(next, moving);
    let out = result.collect().expect("inline run survives the UDF panic");
    assert!(out.iter().all(|&(_, v)| v == 0));
    assert_eq!(stats.take().unwrap().failures().count(), 1);
}
