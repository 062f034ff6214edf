//! End-to-end telemetry: run the prebuilt algorithms with failures under a
//! capturing sink and assert on the structured event journal — the ordered
//! recovery sequences, replay determinism, and reconciliation between the
//! journal-derived `RunReport` and the engine's legacy `RunStats`.

use std::sync::Arc;

use algos::connected_components::{self, CcConfig};
use algos::pagerank::{self, PrConfig};
use algos::FtConfig;
use dataflow::dataset::Erased;
use dataflow::error::EngineError;
use dataflow::exec::ExecContext;
use dataflow::plan::DynOp;
use dataflow::prelude::*;
use dataflow::stats::RecoveryKind;
use recovery::compensation::Named;
use recovery::optimistic::OptimisticHandler;
use recovery::scenario::FailureScenario;
use telemetry::{JournalEvent, MemorySink, RunReport, SinkHandle, SpanKind};

fn cc_run(ft: FtConfig) -> (Arc<MemorySink>, dataflow::stats::RunStats) {
    let sink = Arc::new(MemorySink::new());
    let config = CcConfig {
        parallelism: 4,
        ft: ft.with_telemetry(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    let graph = graphs::generators::demo_components();
    let result = connected_components::run(&graph, &config).expect("cc run");
    (sink, result.stats)
}

fn pr_run(ft: FtConfig) -> (Arc<MemorySink>, dataflow::stats::RunStats) {
    let sink = Arc::new(MemorySink::new());
    let config = PrConfig {
        parallelism: 4,
        ft: ft.with_telemetry(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    let graph = graphs::generators::demo_pagerank();
    let result = pagerank::run(&graph, &config).expect("pagerank run");
    (sink, result.stats)
}

/// Positions of each event kind, in journal order.
fn kind_positions(events: &[JournalEvent], kind: &str) -> Vec<usize> {
    events.iter().enumerate().filter(|(_, e)| e.kind() == kind).map(|(i, _)| i).collect()
}

#[test]
fn optimistic_journal_records_compensation_sequence() {
    let scenario = FailureScenario::none().fail_at(1, &[1]);
    let (sink, stats) = cc_run(FtConfig::optimistic(scenario));
    let events = sink.events();

    let failures = kind_positions(&events, "FailureInjected");
    assert_eq!(failures.len(), 1, "exactly one injected failure");
    let fail_at = failures[0];

    // The handler's own account comes first, then the engine's verdict:
    // FailureInjected → CompensationInvoked → CompensationApplied.
    assert!(
        matches!(&events[fail_at + 1], JournalEvent::CompensationInvoked { name, .. }
            if name == "FixComponents"),
        "expected the named compensation right after the failure, got {:?}",
        events[fail_at + 1]
    );
    assert!(
        matches!(&events[fail_at + 2], JournalEvent::CompensationApplied { iteration: 1 }),
        "expected CompensationApplied at iteration 1, got {:?}",
        events[fail_at + 2]
    );

    // No rollback machinery fired, and the legacy stats agree.
    assert!(kind_positions(&events, "RolledBack").is_empty());
    assert!(kind_positions(&events, "CheckpointWritten").is_empty());
    assert_eq!(stats.failures().count(), 1);
}

#[test]
fn checkpoint_journal_records_rollback_sequence() {
    let scenario = FailureScenario::none().fail_at(3, &[1]);
    let (sink, stats) = cc_run(FtConfig::checkpoint(2, scenario));
    let events = sink.events();

    assert!(
        !kind_positions(&events, "CheckpointWritten").is_empty(),
        "interval-2 strategy must write checkpoints"
    );
    let failures = kind_positions(&events, "FailureInjected");
    assert_eq!(failures.len(), 1);
    let fail_at = failures[0];

    // FailureInjected → CheckpointRestored (handler) → RolledBack (engine),
    // rolling back to the latest checkpoint before the failure iteration.
    assert!(
        matches!(&events[fail_at + 1], JournalEvent::CheckpointRestored { iteration: 2 }),
        "expected restore from the iteration-2 checkpoint, got {:?}",
        events[fail_at + 1]
    );
    assert!(
        matches!(&events[fail_at + 2], JournalEvent::RolledBack { to_iteration: 2 }),
        "expected RolledBack to iteration 2, got {:?}",
        events[fail_at + 2]
    );

    // The rollback re-executes iterations: more supersteps than logical ones.
    assert!(stats.supersteps() > stats.logical_iterations());
    assert!(kind_positions(&events, "CompensationApplied").is_empty());
}

#[test]
fn deterministic_scenario_replays_to_byte_identical_journal() {
    let scenario = || FailureScenario::none().fail_at(1, &[1]).fail_at(3, &[0, 2]);
    let (first, _) = cc_run(FtConfig::optimistic(scenario()));
    let (second, _) = cc_run(FtConfig::optimistic(scenario()));
    let a = first.journal_lines();
    assert!(!a.is_empty() && a.ends_with('\n'));
    // Events carry no wall-clock data, so a deterministic schedule replays
    // to the byte. (Spans and metrics carry the timings instead.)
    assert_eq!(a, second.journal_lines());
}

#[test]
fn run_report_reconciles_with_legacy_stats() {
    let cc = [
        FtConfig::optimistic(FailureScenario::none().fail_at(1, &[1])),
        FtConfig::checkpoint(2, FailureScenario::none().fail_at(3, &[1])),
        FtConfig::restart(FailureScenario::none().fail_at(2, &[0])),
        FtConfig::ignore(FailureScenario::none().fail_at(1, &[3])),
        // Figure 3's schedule.
        FtConfig::optimistic(FailureScenario::none().fail_at(1, &[1]).fail_at(3, &[2])),
    ]
    .map(|ft| (format!("cc {}", ft.label()), cc_run(ft)));
    // Figure 5's schedule.
    let figure5 = FtConfig::optimistic(FailureScenario::none().fail_at(5, &[1]));
    let pagerank = (format!("pagerank {}", figure5.label()), pr_run(figure5));
    for (label, (sink, stats)) in cc.into_iter().chain([pagerank]) {
        let report = RunReport::from_sink(&sink);
        assert!(report.failures > 0, "{label}: the run ended before its failure");
        let diffs = flowviz::reconcile(&report, &stats);
        assert!(diffs.is_empty(), "{label}: journal disagrees with RunStats: {diffs:#?}");
    }
}

#[test]
fn spans_cover_the_superstep_hierarchy() {
    let sink = Arc::new(MemorySink::new());
    let config = PrConfig {
        parallelism: 4,
        ft: FtConfig::optimistic(FailureScenario::none().fail_at(2, &[1]))
            .with_telemetry(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    let graph = graphs::generators::demo_pagerank();
    let result = pagerank::run(&graph, &config).expect("pagerank run");

    let spans = sink.spans();
    let count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count() as u32;
    assert_eq!(count(SpanKind::Run), 1);
    assert_eq!(count(SpanKind::Superstep), result.stats.supersteps());
    assert_eq!(count(SpanKind::Compute), result.stats.supersteps());
    assert_eq!(count(SpanKind::Recovery), 1);
    // The run span is the root: it must dominate every superstep span.
    let run_span = spans.iter().find(|s| s.kind == SpanKind::Run).unwrap();
    assert!(spans
        .iter()
        .filter(|s| s.kind == SpanKind::Superstep)
        .all(|s| s.duration <= run_span.duration));

    // Per-partition timing landed in the registry for all four partitions.
    let handle = config.ft.telemetry.clone();
    let snapshot = handle.metrics().snapshot();
    let hist =
        snapshot.histograms.get("partition_task_ns").expect("partition task histogram recorded");
    assert!(hist.count > 0);
}

/// How the countdown runs below lose partition 1 at superstep 2.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Cause {
    Injected,
    UdfPanic,
    WorkerLoss,
}

/// Which iteration kind runs the countdown.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Bulk,
    Delta,
}

/// Passes its input through, except once at superstep 2, where it reports
/// the loss of the worker owning partition 1 — what the cluster backend does
/// when a worker process dies.
struct LoseWorkerOnce(bool);

impl DynOp for LoseWorkerOnce {
    fn execute(
        &mut self,
        inputs: Vec<Erased>,
        ctx: &ExecContext,
    ) -> dataflow::error::Result<Erased> {
        if ctx.superstep() == Some(2) && !std::mem::replace(&mut self.0, true) {
            return Err(EngineError::WorkerLost {
                worker: 1,
                pids: vec![1],
                superstep: ctx.superstep(),
                message: "connection reset".into(),
            });
        }
        Ok(inputs[0].clone())
    }

    fn kind(&self) -> &'static str {
        "LoseWorkerOnce"
    }
}

/// The journal lines from the cause of the bulk countdown's failure at
/// superstep 2 through the engine's verdict on it.
fn recovery_window(cause: Cause) -> Vec<String> {
    recovery_run(Kind::Bulk, cause).0
}

/// The journal lines from the cause of the failure at superstep 2 through
/// the engine's verdict on it, and the failed superstep's `RunStats` row.
fn recovery_run(kind: Kind, cause: Cause) -> (Vec<String>, IterationStats) {
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());
    let env = Environment::with_config(
        dataflow::config::EnvConfig::new(2).with_telemetry(telemetry.clone()),
    );
    let stats = match kind {
        Kind::Bulk => bulk_countdown(&env, telemetry, cause),
        Kind::Delta => delta_countdown(&env, telemetry, cause),
    };

    let lines: Vec<String> = sink.events().iter().map(JournalEvent::to_json).collect();
    let end = lines.iter().position(|l| l.contains("\"CompensationApplied\"")).expect("verdict");
    let start = (0..end)
        .rev()
        .take_while(|&i| !lines[i].contains("\"ConvergenceSample\""))
        .last()
        .expect("a failure precedes the verdict");
    let row = stats.iterations.into_iter().find(|row| row.failure.is_some()).expect("a failure");
    (lines[start..=end].to_vec(), row)
}

/// Counts every value down to zero, one per superstep.
fn bulk_countdown(env: &Environment, telemetry: SinkHandle, cause: Cause) -> RunStats {
    // Partition 1 holds 110, 130, 150 and 170.
    let initial = env.from_vec((10u64..18).map(|v| v * 10).collect());
    let mut iteration = BulkIteration::new(&initial, 400);
    let compensation = Named::new(
        "FixComponents",
        |state: &mut Partitions<u64>, lost: &[usize], _iteration: u32| {
            for &pid in lost {
                *state.partition_mut(pid) = vec![9; 4];
            }
        },
    );
    iteration.set_fault_handler(Box::new(
        OptimisticHandler::new(compensation).with_telemetry(telemetry),
    ));
    if cause == Cause::Injected {
        iteration.set_failure_source(FailureScenario::none().fail_at(2, &[1]).to_source());
    }
    let fired = std::sync::atomic::AtomicBool::new(cause != Cause::UdfPanic);
    let state = iteration.state();
    let stepped = if cause == Cause::WorkerLoss {
        iteration.body_environment().custom_node::<u64>(
            "lose-worker",
            vec![state.node_id()],
            Box::new(LoseWorkerOnce(false)),
        )
    } else {
        state
    };
    let next = stepped.map("dec", move |&n: &u64| {
        // Only 110 ever becomes 108, as superstep 2 starts.
        if n == 108 && !fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("injected UDF panic");
        }
        n.saturating_sub(1)
    });
    let moving = next.filter("positive", |&n| n > 0);
    let (result, stats) = iteration.close_with_termination(next, moving);
    assert!(result.collect().expect("the run recovers").iter().all(|&n| n == 0));
    stats.take().expect("a finished run")
}

/// The same countdown as a delta iteration: each value is a key whose
/// solution entry counts down, and the workset carries the counts still
/// above zero.
fn delta_countdown(env: &Environment, telemetry: SinkHandle, cause: Cause) -> RunStats {
    let keys: Vec<u64> = (10u64..18).map(|v| v * 10).collect();
    let counts: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let solution = env.from_keyed_vec(counts.clone(), |c| c.0);
    let workset = env.from_keyed_vec(counts, |c| c.0);
    let mut iteration = DeltaIteration::new(&solution, &workset, 400);
    // A lost key comes back at zero, with nothing left to count.
    let compensation = Named::new(
        "FixComponents",
        move |state: &mut DeltaState<u64, u64, (u64, u64)>, lost: &[usize], _iteration: u32| {
            for &pid in lost {
                for &key in keys.iter().filter(|&k| hash_partition(k, 2) == pid) {
                    state.solution[pid].insert(key, 0);
                }
            }
        },
    );
    iteration.set_fault_handler(Box::new(
        OptimisticHandler::new(compensation).with_telemetry(telemetry),
    ));
    if cause == Cause::Injected {
        iteration.set_failure_source(FailureScenario::none().fail_at(2, &[1]).to_source());
    }
    let fired = std::sync::atomic::AtomicBool::new(cause != Cause::UdfPanic);
    let trigger = (10u64..18).map(|v| v * 10).find(|k| hash_partition(k, 2) == 1).expect("a key");
    let counting = iteration.workset();
    let counting = if cause == Cause::WorkerLoss {
        iteration.body_environment().custom_node::<(u64, u64)>(
            "lose-worker",
            vec![counting.node_id()],
            Box::new(LoseWorkerOnce(false)),
        )
    } else {
        counting
    };
    let next = counting.map("dec", move |&(key, n): &(u64, u64)| {
        // The trigger's count enters superstep 2 two below its start.
        if key == trigger && n == key - 2 && !fired.swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            panic!("injected UDF panic");
        }
        (key, n - 1)
    });
    let moving = next.filter("positive", |c| c.1 > 0);
    let (result, stats) = iteration.close(next, moving);
    assert!(result.collect().expect("the run recovers").iter().all(|c| c.1 == 0));
    stats.take().expect("a finished run")
}

fn event_kinds(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            let event = JournalEvent::from_json(line).expect("a journal line").expect("known kind");
            event.kind().to_string()
        })
        .collect()
}

#[test]
fn every_failure_cause_journals_the_baseline_recovery_sequence() {
    // The sequence an injected failure leaves in the checked-in journal of
    // the figure-3 run, which predates the shared recovery routine.
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/figure3_cc_small_journal.jsonl"
    ))
    .expect("checked-in baseline journal");
    let baseline: Vec<String> = baseline
        .lines()
        .skip_while(|l| !l.contains("\"FailureInjected\""))
        .take(3)
        .map(str::to_string)
        .collect();
    let sequence = event_kinds(&baseline);
    assert_eq!(sequence, ["FailureInjected", "CompensationInvoked", "CompensationApplied"]);

    // An injected failure destroys the step's output: four records.
    let injected = recovery_window(Cause::Injected);
    assert_eq!(
        injected,
        [
            r#"{"event":"FailureInjected","superstep":2,"iteration":2,"lost_partitions":[1],"lost_records":4}"#,
            r#"{"event":"CompensationInvoked","name":"FixComponents","iteration":2}"#,
            r#"{"event":"CompensationApplied","iteration":2}"#,
        ]
    );
    // An aborted step names its cause first, then journals the same three.
    for (cause, first) in [
        (Cause::UdfPanic, r#"{"event":"PartitionPanicked","superstep":2,"iteration":2,"pid":1}"#),
        (
            Cause::WorkerLoss,
            r#"{"event":"WorkerLost","superstep":2,"iteration":2,"worker":1,"lost_partitions":[1]}"#,
        ),
    ] {
        let window = recovery_window(cause);
        assert_eq!(window[0], first);
        assert_eq!(event_kinds(&window[1..]), sequence);
        assert_eq!(window[1], injected[0], "the same loss is journaled");
    }
}

#[test]
fn both_iteration_kinds_journal_and_tally_every_failure_cause() {
    // A delta countdown's workset after recovery: the keys of partition 0.
    let survivors = (10u64..18).filter(|v| hash_partition(&(v * 10), 2) == 0).count() as u64;
    for kind in [Kind::Bulk, Kind::Delta] {
        let (injected, _) = recovery_run(kind, Cause::Injected);
        for cause in [Cause::Injected, Cause::UdfPanic, Cause::WorkerLoss] {
            let (window, row) = recovery_run(kind, cause);
            let aborted = cause != Cause::Injected;
            // An aborted step names its cause first; then both kinds journal
            // the loss the injected failure does, and the same verdict.
            let loss = &window[usize::from(aborted)];
            assert_eq!(loss, &injected[0], "{kind:?} {cause:?}");
            assert_eq!(
                event_kinds(&window[usize::from(aborted)..]),
                ["FailureInjected", "CompensationInvoked", "CompensationApplied"],
                "{kind:?} {cause:?}"
            );

            // The failed superstep's row says what the journal says.
            assert_eq!((row.superstep, row.iteration), (2, 2), "{kind:?} {cause:?}");
            let Some(JournalEvent::FailureInjected { lost_records, .. }) =
                JournalEvent::from_json(loss).expect("a journal line")
            else {
                panic!("{kind:?} {cause:?}: not a failure: {loss}");
            };
            let failure = row.failure.as_ref().expect("a failure record");
            assert_eq!(failure.lost_partitions, [1], "{kind:?} {cause:?}");
            assert_eq!(failure.lost_records, lost_records, "{kind:?} {cause:?}");
            assert_eq!(failure.recovery, RecoveryKind::Compensated, "{kind:?} {cause:?}");
            // An aborted step left no output, so it shuffled nothing and
            // counted nothing; a completed delta step counts its upserts.
            if aborted {
                assert_eq!(row.records_shuffled, 0, "{kind:?} {cause:?}");
                assert!(row.counters.is_empty(), "{kind:?} {cause:?}: {:?}", row.counters);
            } else if kind == Kind::Delta {
                assert_eq!(row.counters.get("delta_updates"), Some(&8), "{kind:?} {cause:?}");
            }
            // The workset row is the one recovery left behind.
            let workset = (kind == Kind::Delta).then_some(survivors);
            assert_eq!(row.workset_size, workset, "{kind:?} {cause:?}");
        }
    }
}
