//! Multi-process integration tests: real worker processes on loopback TCP,
//! real `SIGKILL` failure injection, recovery validated against the
//! single-process baseline.

use std::sync::Arc;
use std::time::Duration;

use cluster::protocol::{AdjRows, Message};
use cluster::{
    run_cluster, run_local, ClusterConfig, ClusterStrategy, KillPlan, LinkPlan, PartitionMap,
    Rebalancer, ScaleEvent, StragglerPlan,
};
use dataflow::codec::encode_to_vec;
use graphs::GraphBuilder;
use telemetry::{JournalEvent, MemorySink, SinkHandle};

/// Cluster configuration pointed at this crate's test worker binary, with
/// timings tightened for test latency.
fn test_config(workers: usize, parallelism: usize, max_iterations: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(workers, parallelism, max_iterations);
    cfg.worker_cmd = vec![env!("CARGO_BIN_EXE_cluster-worker").to_string()];
    cfg.heartbeat_interval = Duration::from_millis(20);
    cfg.heartbeat_timeout = Duration::from_millis(500);
    cfg.step_timeout = Duration::from_secs(10);
    cfg
}

fn cc_graph() -> graphs::Graph {
    // Three components over 24 vertices, so every one of 4 partitions holds
    // vertices of several components.
    let mut b = GraphBuilder::undirected(24);
    for v in 0..7 {
        b.add_edge(v, v + 1);
    }
    for v in 8..15 {
        b.add_edge(v, v + 1);
    }
    for v in 16..23 {
        b.add_edge(v, v + 1);
    }
    b.build()
}

fn pagerank_graph() -> graphs::Graph {
    // Strongly connected (a ring with chords): no dangling mass, non-trivial
    // rank distribution.
    let mut b = GraphBuilder::directed(20);
    for v in 0..20u64 {
        b.add_edge(v, (v + 1) % 20);
    }
    for v in (0..20u64).step_by(3) {
        b.add_edge(v, (v + 7) % 20);
    }
    b.build()
}

#[test]
fn failure_free_cluster_cc_is_bitwise_identical_to_local() {
    let graph = cc_graph();
    let local = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    let cluster = run_cluster("cc", &graph, test_config(2, 4, 60), SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, local.values);
    assert_eq!(cluster.stats.supersteps(), local.stats.supersteps());
    assert!(cluster.stats.converged);
    let labels: Vec<u64> = cluster.values.iter().map(|&(_, l)| l).collect();
    assert_eq!(labels, graphs::exact_components(&graph));
}

#[test]
fn failure_free_cluster_pagerank_is_bitwise_identical_to_local() {
    let graph = pagerank_graph();
    let local = run_local("pagerank", &graph, 4, 300, SinkHandle::disabled()).unwrap();
    let cluster =
        run_cluster("pagerank", &graph, test_config(2, 4, 300), SinkHandle::disabled()).unwrap();
    // Both backends fold the same sorted message lists in the same order:
    // equality holds down to the bit pattern, not just within a tolerance.
    assert_eq!(cluster.values, local.values);
    assert!(cluster.stats.converged);
}

#[test]
fn pooled_local_pagerank_is_bitwise_identical_to_a_two_worker_cluster() {
    // Past the engine's thread threshold, so `run_local` folds the runs its
    // partitions routed on the worker pool while the cluster merges in its
    // workers' exchange inboxes: two assembly paths, one canonical order.
    let graph = graphs::generators::preferential_attachment(3_000, 3, 17);
    let local = run_local("pagerank", &graph, 4, 200, SinkHandle::disabled()).unwrap();
    let cluster =
        run_cluster("pagerank", &graph, test_config(2, 4, 200), SinkHandle::disabled()).unwrap();
    assert!(local.stats.converged);
    assert_eq!(cluster.values, local.values);
    assert_eq!(cluster.stats.supersteps(), local.stats.supersteps());
}

#[test]
fn teardown_does_not_wait_out_a_heartbeat_interval() {
    // The heartbeat thread parks between probes; dropping the backend must
    // wake it, not join it after the interval. With a 20 s interval the
    // whole run (spawn, 2 workers, teardown) still finishes in a fraction.
    let mut cfg = test_config(2, 4, 60);
    cfg.heartbeat_interval = Duration::from_secs(20);
    let started = std::time::Instant::now();
    let run = run_cluster("cc", &cc_graph(), cfg, SinkHandle::disabled()).unwrap();
    assert!(run.stats.converged);
    assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
}

#[test]
fn sigkilled_worker_mid_iteration_recovers_via_compensation() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    let mut cfg = test_config(2, 4, 60);
    cfg = cfg.with_kill(KillPlan { superstep: 2, worker: 1 });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    // Compensation (not restart) recovered the run, and it still converged
    // to exactly the same result as the failure-free single-process run.
    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values);
    assert!(cluster.stats.converged);
    assert!(
        cluster.stats.supersteps() > baseline.stats.supersteps(),
        "the failed superstep must be redone"
    );
    let failures: Vec<_> = cluster.stats.failures().collect();
    assert_eq!(failures.len(), 1, "exactly one injected failure");
    assert_eq!(failures[0].1.lost_partitions, vec![1, 3], "worker 1 owned partitions 1 and 3");

    let journal = sink.journal_lines();
    assert!(journal.contains("\"event\":\"WorkerLost\""), "journal:\n{journal}");
    assert!(journal.contains("\"lost_partitions\":[1,3]"), "journal:\n{journal}");
    assert!(journal.contains("\"event\":\"WorkerRejoined\""), "journal:\n{journal}");
    assert!(journal.contains("\"event\":\"CompensationInvoked\""), "journal:\n{journal}");
}

fn labels(run: &cluster::ClusterRun) -> Vec<u64> {
    run.values.iter().map(|&(_, label)| label).collect()
}

#[test]
fn a_kill_at_the_final_converged_superstep_still_ends_at_the_exact_components() {
    // The failure-free run's last superstep changes nothing and sends
    // nothing. Killed there, worker 1's partitions are reset to their vertex
    // ids while every surviving neighbour stopped sending supersteps ago:
    // the retry reports `changed == 0` on both sides, and only because it is
    // a full-send superstep that may not end the run are the labels repaired.
    let graph = cc_graph();
    let failure_free =
        run_cluster("cc", &graph, test_config(2, 4, 60), SinkHandle::disabled()).unwrap();
    let last = failure_free.stats.supersteps() - 1;
    assert_eq!(failure_free.stats.iterations[last as usize].records_shuffled, 0);

    let cfg = test_config(2, 4, 60).with_kill(KillPlan { superstep: last, worker: 1 });
    let killed = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap();
    assert!(killed.stats.converged);
    let failures: Vec<u32> = killed.stats.failures().map(|(superstep, _)| superstep).collect();
    assert_eq!(failures, vec![last], "the kill must land on the converged superstep");
    assert_eq!(labels(&killed), graphs::exact_components(&graph));
}

#[test]
fn a_kill_right_after_a_scale_event_still_ends_at_the_exact_components() {
    // Superstep 2 rescales 2 → 3 workers: everybody computes from an empty
    // inbound, so the messages of superstep 1 are lost and superstep 2 is a
    // full-send one. The kill lands on superstep 3, the first to consume
    // what that full send re-sent, and makes its retry a full-send too.
    let graph = cc_graph();
    let cfg = test_config(2, 6, 60)
        .with_scale_event(ScaleEvent { superstep: 2, workers: 3 })
        .with_kill(KillPlan { superstep: 3, worker: 2 });
    let run = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap();
    assert!(run.stats.converged);
    assert_eq!(run.stats.failures().count(), 1, "exactly the injected kill");
    assert_eq!(labels(&run), graphs::exact_components(&graph));
}

#[test]
fn a_rescale_on_the_retry_of_a_kill_moves_only_what_was_committed() {
    // Worker 1 dies in superstep 2, and the rescale 2 → 4 fires as its retry
    // starts: the replacement holds nothing of its partitions yet. What a
    // rescale moves comes up from the old owners only where they committed
    // it; a partition the recovery rebuilds or restores goes to its new
    // owner that way instead.
    let graph = cc_graph();
    for strategy in [
        ClusterStrategy::Optimistic,
        ClusterStrategy::Checkpoint { interval: 2 },
        ClusterStrategy::AsyncSnapshot { interval: 2 },
        ClusterStrategy::Restart,
    ] {
        let cfg = test_config(2, 4, 60)
            .with_strategy(strategy)
            .with_kill(KillPlan { superstep: 2, worker: 1 })
            .with_scale_event(ScaleEvent { superstep: 3, workers: 4 });
        let sink = Arc::new(MemorySink::new());
        let run = run_cluster("cc", &graph, cfg, SinkHandle::new(sink.clone())).unwrap();
        assert!(run.stats.converged, "{strategy:?}");
        assert_eq!(run.stats.failures().count(), 1, "{strategy:?}: exactly the injected kill");
        assert_eq!(labels(&run), graphs::exact_components(&graph), "{strategy:?}");
        let rescaled = sink
            .events()
            .iter()
            .any(|event| matches!(event, JournalEvent::RebalanceCompleted { .. }));
        assert!(rescaled, "{strategy:?}: the rescale happened");
    }
}

#[test]
fn failure_free_cc_sends_with_the_set_of_vertices_still_changing() {
    // Bulk CC sends 2|E| messages every superstep. Change-driven CC sends
    // |E| at step 0 (a label never travels to a smaller vertex id) and from
    // then on only from vertices whose label just changed.
    let graph = graphs::generators::preferential_attachment(2_000, 3, 7);
    let run = run_cluster("cc", &graph, test_config(2, 4, 60), SinkHandle::disabled()).unwrap();
    assert_eq!(labels(&run), graphs::exact_components(&graph));

    let series: Vec<u64> = run.stats.iterations.iter().map(|it| it.records_shuffled).collect();
    let bulk = series.len() as u64 * graph.num_directed_edges() as u64;
    let total: u64 = series.iter().sum();
    assert!(2 * total <= bulk, "{total} messages sent, bulk sends {bulk}: {series:?}");
    let peak = series.iter().position(|&sent| Some(&sent) == series.iter().max()).unwrap();
    assert!(
        series[peak..].windows(2).all(|w| w[0] >= w[1]),
        "messages must fall with the changing set once past their peak: {series:?}"
    );
    assert_eq!(series.last(), Some(&0), "a converged superstep sends nothing: {series:?}");
}

#[test]
fn sigkilled_pagerank_still_matches_the_failure_free_fixed_point() {
    let graph = pagerank_graph();
    let mut cfg = test_config(2, 4, 300);
    cfg = cfg.with_kill(KillPlan { superstep: 3, worker: 0 });
    let cluster = run_cluster("pagerank", &graph, cfg, SinkHandle::disabled()).unwrap();
    let baseline = run_local("pagerank", &graph, 4, 300, SinkHandle::disabled()).unwrap();

    // After a failure the trajectories differ, but both terminate within
    // EPSILON (1e-9) of the unique fixed point, so ranks agree to far better
    // than 1e-6.
    assert!(cluster.stats.converged);
    for (&(v, a), &(_, b)) in cluster.values.iter().zip(&baseline.values) {
        let (a, b) = (f64::from_bits(a), f64::from_bits(b));
        assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs baseline {b}");
    }
    let total: f64 = cluster.values.iter().map(|&(_, bits)| f64::from_bits(bits)).sum();
    assert!((total - 1.0).abs() < 1e-6, "compensation must preserve total rank mass, got {total}");
}

#[test]
fn async_snapshot_cluster_restores_from_the_last_complete_epoch() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    // Interval 1 with 4 partitions: epoch 0's chunks persist one per
    // superstep and complete at superstep 3. Killing during superstep 5
    // forces a restore from epoch 0 — the only complete snapshot.
    let cfg = test_config(2, 4, 60)
        .with_strategy(ClusterStrategy::AsyncSnapshot { interval: 1 })
        .with_kill(KillPlan { superstep: 5, worker: 1 });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values, "rollback must reach the exact baseline");
    assert!(cluster.stats.converged);

    let journal = sink.journal_lines();
    assert!(journal.contains("\"event\":\"SnapshotBarrierStarted\""), "journal:\n{journal}");
    assert!(journal.contains("\"event\":\"SnapshotBarrierCompleted\""), "journal:\n{journal}");
    assert!(journal.contains("\"event\":\"ChaosInjected\""), "journal:\n{journal}");
    assert!(
        journal.contains("\"event\":\"CheckpointRestored\",\"iteration\":"),
        "a complete epoch must be the restore point, journal:\n{journal}"
    );
    assert!(journal.contains("\"event\":\"WorkerLost\""), "journal:\n{journal}");
}

#[test]
fn kill_storm_takes_out_several_workers_in_one_superstep() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    let cfg = test_config(3, 6, 60)
        .with_kill(KillPlan { superstep: 2, worker: 0 })
        .with_kill(KillPlan { superstep: 2, worker: 2 });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    let baseline = run_local("cc", &graph, 6, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values);
    assert!(cluster.stats.converged);

    let journal = sink.journal_lines();
    let chaos_kills = journal
        .lines()
        .filter(|l| l.contains("\"event\":\"ChaosInjected\"") && l.contains("\"kind\":\"kill\""))
        .count();
    assert_eq!(chaos_kills, 2, "both storm kills journaled:\n{journal}");
    assert!(journal.contains("\"event\":\"CompensationInvoked\""), "journal:\n{journal}");
}

/// The workers the journal says were lost, in the order they were.
fn lost_workers(sink: &MemorySink) -> Vec<usize> {
    sink.events()
        .iter()
        .filter_map(|event| match event {
            JournalEvent::WorkerLost { worker, .. } => Some(*worker),
            _ => None,
        })
        .collect()
}

#[test]
fn a_storm_that_spares_one_worker_never_blames_it() {
    // Workers 1 and 2 of three die in one superstep. The survivor cannot
    // link to a peer that is still listed when the membership goes out again
    // after the first respawn (at superstep 0: when it goes out at all); that
    // is a lost link in its log, not its own loss. The two that died are the
    // two the coordinator declares lost, once each.
    let graph = cc_graph();
    let baseline = run_local("cc", &graph, 6, 60, SinkHandle::disabled()).unwrap();
    let strategies = [ClusterStrategy::Optimistic, ClusterStrategy::Checkpoint { interval: 2 }];
    for strategy in strategies {
        for superstep in [0, 2] {
            let sink = Arc::new(MemorySink::new());
            let cfg = test_config(3, 6, 60)
                .with_strategy(strategy)
                .with_kill(KillPlan { superstep, worker: 1 })
                .with_kill(KillPlan { superstep, worker: 2 });
            let run = run_cluster("cc", &graph, cfg, SinkHandle::new(sink.clone())).unwrap();
            let case = format!("{strategy:?}, storm at superstep {superstep}");
            assert!(run.stats.converged, "{case}");
            assert_eq!(run.values, baseline.values, "{case}");
            let mut lost = lost_workers(&sink);
            lost.sort_unstable();
            assert_eq!(lost, [1, 2], "{case}");
        }
    }
}

/// Live processes whose command line carries `tag` (Linux `/proc`; `None`
/// where there is none to read).
fn processes_tagged(tag: &str) -> Option<usize> {
    let entries = std::fs::read_dir("/proc").ok()?;
    let tagged = entries.flatten().filter(|entry| {
        std::fs::read(entry.path().join("cmdline"))
            .is_ok_and(|cmdline| String::from_utf8_lossy(&cmdline).contains(tag))
    });
    Some(tagged.count())
}

#[test]
fn the_leavers_of_a_scale_down_are_told_to_go_and_reaped() {
    // 4 → 2 at superstep 2: workers 2 and 3 get a `Shutdown` at the barrier
    // — there is no drain round to wait out — and are reaped with their
    // handles; the run goes on over two workers and leaves no process behind.
    let graph = cc_graph();
    let tag = format!("--leavers-of-{}", std::process::id());
    let mut cfg = test_config(4, 4, 60).with_scale_event(ScaleEvent { superstep: 2, workers: 2 });
    cfg.worker_cmd.push(tag.clone());
    let sink = Arc::new(MemorySink::new());
    let run = run_cluster("cc", &graph, cfg, SinkHandle::new(sink.clone())).unwrap();
    assert!(run.stats.converged);
    assert_eq!(labels(&run), graphs::exact_components(&graph));
    assert_eq!(lost_workers(&sink), Vec::<usize>::new(), "a planned departure is not a loss");
    let completed = sink
        .events()
        .iter()
        .any(|event| matches!(event, JournalEvent::RebalanceCompleted { moved_partitions: 2, .. }));
    assert!(completed, "the rescale moved the leavers' two partitions");
    if let Some(alive) = processes_tagged(&tag) {
        assert_eq!(alive, 0, "worker processes outlived their run");
    }
}

#[test]
fn stragglers_and_degraded_links_only_slow_the_run_down() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    let mut cfg = test_config(2, 4, 60);
    cfg.chaos.stragglers.push(StragglerPlan {
        from: 1,
        to: 3,
        worker: 1,
        delay: Duration::from_millis(30),
    });
    cfg.chaos.links.push(LinkPlan {
        from: 2,
        to: 4,
        worker: 0,
        delay: Duration::from_millis(5),
        drop_probability: 0.0,
        seed: 7,
    });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    // Delays never corrupt state: the run is still bitwise identical to the
    // failure-free local baseline, with no recovery at all.
    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values);
    assert_eq!(cluster.stats.supersteps(), baseline.stats.supersteps());
    assert!(cluster.stats.converged);

    let journal = sink.journal_lines();
    assert!(journal.contains("\"kind\":\"straggler\",\"param\":30"), "journal:\n{journal}");
    assert!(journal.contains("\"kind\":\"link_delay\",\"param\":5"), "journal:\n{journal}");
    assert!(!journal.contains("\"event\":\"WorkerLost\""), "no loss expected:\n{journal}");
}

#[test]
fn certain_link_drops_sever_the_connection_and_recovery_compensates() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    let mut cfg = test_config(2, 4, 60);
    cfg.chaos.links.push(LinkPlan {
        from: 2,
        to: 2,
        worker: 1,
        delay: Duration::ZERO,
        drop_probability: 1.0,
        seed: 11,
    });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values);
    assert!(cluster.stats.converged);

    let journal = sink.journal_lines();
    assert!(journal.contains("\"kind\":\"link_drop\""), "journal:\n{journal}");
    assert!(journal.contains("\"event\":\"WorkerLost\""), "severed link is a loss:\n{journal}");
    assert!(journal.contains("\"event\":\"CompensationInvoked\""), "journal:\n{journal}");
}

#[test]
fn network_metrics_are_recorded() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink);

    let mut cfg = test_config(2, 4, 60);
    cfg = cfg.with_kill(KillPlan { superstep: 1, worker: 0 });
    run_cluster("cc", &graph, cfg, telemetry.clone()).unwrap();

    let metrics = telemetry.metrics();
    assert!(metrics.counter("net/bytes_out").get() > 0, "frames were sent");
    assert!(metrics.counter("net/bytes_in").get() > 0, "frames were received");
    assert_eq!(metrics.counter("net/reconnects").get(), 1, "one worker rejoined");
    assert!(
        metrics.histogram("net/heartbeat_rtt_ns").count() > 0,
        "heartbeat round-trips were measured"
    );
    // Direct mode (the default): worker-to-worker shuffle traffic is
    // accounted separately from the control plane, attributed to the
    // worker that shipped it.
    assert!(metrics.counter("net/data_bytes_out").get() > 0, "peer frames were shipped");
    let snapshot = metrics.snapshot();
    assert!(
        snapshot.histograms.keys().any(|k| k.starts_with("net/peer_bytes/p")),
        "per-worker traffic tracks exist: {:?}",
        snapshot.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        snapshot.histograms.keys().any(|k| k.starts_with("worker_exchange_ns/p")),
        "exchange waits were measured: {:?}",
        snapshot.histograms.keys().collect::<Vec<_>>()
    );
}

#[test]
fn cluster_and_local_agree_bitwise_when_failure_free() {
    for program in ["cc", "pagerank"] {
        let graph = if program == "cc" { cc_graph() } else { pagerank_graph() };
        let cluster =
            run_cluster(program, &graph, test_config(2, 4, 300), SinkHandle::disabled()).unwrap();
        let local = run_local(program, &graph, 4, 300, SinkHandle::disabled()).unwrap();
        // Workers bucket and merge shuffled messages into the same canonical
        // order the in-process step assembly produces, so the two agree down
        // to the bit pattern — and in the same number of supersteps.
        assert_eq!(cluster.values, local.values, "{program}: cluster diverged from local");
        assert_eq!(cluster.stats.supersteps(), local.stats.supersteps(), "{program}");
        assert!(cluster.stats.converged && local.stats.converged, "{program}");
    }
}

#[test]
fn checkpoint_cluster_rolls_back_to_the_captured_interval() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    let cfg = test_config(2, 4, 60)
        .with_strategy(ClusterStrategy::Checkpoint { interval: 1 })
        .with_kill(KillPlan { superstep: 3, worker: 1 });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values, "rollback must reach the exact baseline");
    assert!(cluster.stats.converged);
    assert!(
        cluster.stats.supersteps() > baseline.stats.supersteps(),
        "rolled-back supersteps must be redone"
    );

    let journal = sink.journal_lines();
    assert!(journal.contains("\"event\":\"WorkerLost\""), "journal:\n{journal}");
    assert!(
        journal.contains("\"event\":\"CheckpointRestored\""),
        "the kill must restore a synchronous checkpoint, journal:\n{journal}"
    );
}

#[test]
fn restart_cluster_reruns_from_scratch_and_reaches_the_fixpoint() {
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    let cfg = test_config(2, 4, 60)
        .with_strategy(ClusterStrategy::Restart)
        .with_kill(KillPlan { superstep: 3, worker: 0 });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values);
    assert!(cluster.stats.converged);
    assert!(
        cluster.stats.supersteps() >= baseline.stats.supersteps() + 3,
        "a restart repeats every superstep run before the kill, got {} vs baseline {}",
        cluster.stats.supersteps(),
        baseline.stats.supersteps()
    );
    let journal = sink.journal_lines();
    assert!(journal.contains("\"event\":\"WorkerLost\""), "journal:\n{journal}");
}

#[test]
fn frames_delivered_by_a_worker_declared_dead_do_not_double_deliver() {
    // Satellite regression for the data plane: the straggler stalls the
    // coordinator's read of worker 0's replies over supersteps 2..=4 while
    // both workers keep exchanging shuffle frames directly, and the kill
    // then takes worker 1 out at superstep 3 — after frames for in-flight
    // supersteps already landed in peer inboxes. The retry runs under a
    // fresh chronological superstep and a bumped epoch, so every frame of
    // the dead incarnation sits below the exchange floor: folding any of
    // them in twice would corrupt the labels.
    let graph = cc_graph();
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());

    let mut cfg = test_config(2, 4, 60);
    cfg.chaos.stragglers.push(StragglerPlan {
        from: 2,
        to: 4,
        worker: 0,
        delay: Duration::from_millis(60),
    });
    cfg = cfg.with_kill(KillPlan { superstep: 3, worker: 1 });
    let cluster = run_cluster("cc", &graph, cfg, telemetry).unwrap();

    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(cluster.values, baseline.values, "stale peer frames must not double-deliver");
    assert!(cluster.stats.converged);

    let journal = sink.journal_lines();
    assert!(journal.contains("\"kind\":\"straggler\""), "journal:\n{journal}");
    assert!(journal.contains("\"event\":\"WorkerLost\""), "journal:\n{journal}");
    assert!(journal.contains("\"event\":\"CompensationInvoked\""), "journal:\n{journal}");
}

#[test]
fn a_kill_at_any_superstep_under_any_rollback_strategy_redoes_what_the_parent_redid() {
    // Supersteps beyond the failure-free run's, by the superstep the kill
    // lands on (0..=7), measured at the commit before channel state was
    // staged on cut supersteps only — the same for both programs. A kill
    // redoes the failed superstep and whatever lies between it and the last
    // cut; `AsyncSnapshot{2}` over 4 partitions completes an epoch four
    // supersteps after its barrier, so its kills fall back further. A kill at
    // superstep 0 lands before the first membership goes out: the survivor
    // cannot link to its dead peer, says so in its log and acknowledges, and
    // the dead worker's missing acknowledgement is the one loss — the failed
    // superstep alone is redone, whatever the strategy.
    let table = [
        (ClusterStrategy::Checkpoint { interval: 1 }, [1, 1, 1, 1, 1, 1, 1, 1]),
        (ClusterStrategy::Checkpoint { interval: 2 }, [1, 1, 2, 1, 2, 1, 2, 1]),
        (ClusterStrategy::Checkpoint { interval: 3 }, [1, 1, 2, 3, 1, 2, 3, 1]),
        (ClusterStrategy::AsyncSnapshot { interval: 2 }, [1, 2, 3, 4, 4, 5, 6, 7]),
    ];
    for program in ["cc", "pagerank"] {
        let graph = if program == "cc" { cc_graph() } else { pagerank_graph() };
        let baseline = run_local(program, &graph, 4, 300, SinkHandle::disabled()).unwrap();
        for (strategy, extra) in table {
            for (kill, extra) in (0u32..).zip(extra) {
                let cfg = test_config(2, 4, 300)
                    .with_strategy(strategy)
                    .with_kill(KillPlan { superstep: kill, worker: 1 });
                let run = run_cluster(program, &graph, cfg, SinkHandle::disabled()).unwrap();
                let case = format!("{program} under {strategy:?}, killed at superstep {kill}");
                assert!(run.stats.converged, "{case}");
                assert_eq!(run.stats.supersteps(), baseline.stats.supersteps() + extra, "{case}");
                if program == "cc" {
                    assert_eq!(run.values, baseline.values, "{case}");
                } else {
                    for (&(v, a), &(_, b)) in run.values.iter().zip(&baseline.values) {
                        let (a, b) = (f64::from_bits(a), f64::from_bits(b));
                        assert!((a - b).abs() < 1e-6, "{case}: vertex {v}: {a} vs {b}");
                    }
                }
            }
        }
    }
}

#[test]
fn the_retry_of_a_restored_cut_sends_what_the_failure_free_superstep_sent() {
    // Killed at superstep 3 under `Checkpoint{2}`, the run restores the cut
    // after iteration 2 — state and the messages in flight, both exact — so
    // the retry of iteration 3 is an ordinary change-driven superstep, not a
    // full-send one.
    let graph = graphs::generators::preferential_attachment(2_000, 3, 7);
    let strategy = ClusterStrategy::Checkpoint { interval: 2 };
    let failure_free = run_cluster(
        "cc",
        &graph,
        test_config(2, 4, 60).with_strategy(strategy),
        SinkHandle::disabled(),
    )
    .unwrap();
    let cfg = test_config(2, 4, 60)
        .with_strategy(strategy)
        .with_kill(KillPlan { superstep: 3, worker: 1 });
    let killed = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap();
    assert_eq!(labels(&killed), graphs::exact_components(&graph));
    assert_eq!(killed.values, failure_free.values);

    let sent = |run: &cluster::ClusterRun, iteration: u32| -> Vec<u64> {
        let of_iteration = run.stats.iterations.iter().filter(|it| it.iteration == iteration);
        of_iteration.filter(|it| it.failure.is_none()).map(|it| it.records_shuffled).collect()
    };
    assert_eq!(killed.stats.supersteps(), failure_free.stats.supersteps() + 1);
    assert!(sent(&failure_free, 3)[0] > 0, "iteration 3 still moves labels on this graph");
    for iteration in 0..failure_free.stats.logical_iterations() {
        assert_eq!(
            sent(&killed, iteration),
            sent(&failure_free, iteration),
            "iteration {iteration}"
        );
    }
}

#[test]
fn a_second_kill_on_the_regenerating_superstep_restores_the_cut_again() {
    // The first kill restores a cut; the second lands on the superstep that
    // regenerates its messages, so the regenerate round meets a dead peer and
    // the cut is restored once more. Under `Checkpoint{2}` that is 3:1 then
    // 4:0. Under `AsyncSnapshot{2}` a kill at 3 finds no complete epoch and
    // restarts, so 5:1 then 6:0 is its regenerating pair.
    let schedules = [
        (ClusterStrategy::Checkpoint { interval: 2 }, [3, 4], 2),
        (ClusterStrategy::AsyncSnapshot { interval: 2 }, [3, 4], 0),
        (ClusterStrategy::AsyncSnapshot { interval: 2 }, [5, 6], 2),
    ];
    for program in ["cc", "pagerank"] {
        let graph = if program == "cc" { cc_graph() } else { pagerank_graph() };
        let baseline = run_local(program, &graph, 4, 300, SinkHandle::disabled()).unwrap();
        for (strategy, [first, second], restores) in schedules {
            let cfg = test_config(2, 4, 300)
                .with_strategy(strategy)
                .with_kill(KillPlan { superstep: first, worker: 1 })
                .with_kill(KillPlan { superstep: second, worker: 0 });
            let sink = Arc::new(MemorySink::new());
            let run = run_cluster(program, &graph, cfg, SinkHandle::new(sink.clone())).unwrap();
            let case = format!("{program} under {strategy:?}, killed at {first} and {second}");
            assert!(run.stats.converged, "{case}");
            assert_eq!(run.stats.failures().count(), 2, "{case}");
            let restored = sink
                .events()
                .iter()
                .filter(|event| matches!(event, JournalEvent::CheckpointRestored { .. }))
                .count();
            assert_eq!(restored, restores, "{case}");
            if program == "cc" {
                assert_eq!(run.values, baseline.values, "{case}");
            } else {
                for (&(v, a), &(_, b)) in run.values.iter().zip(&baseline.values) {
                    let (a, b) = (f64::from_bits(a), f64::from_bits(b));
                    assert!((a - b).abs() < 1e-6, "{case}: vertex {v}: {a} vs {b}");
                }
            }
        }
    }
}

#[test]
fn a_failure_free_rollback_run_ships_what_an_optimistic_one_does() {
    // One heartbeat probe per worker (the first, at connect time), so the
    // control connections carry the same bytes in every run of a strategy.
    let quiet = |strategy: ClusterStrategy| {
        let mut cfg = test_config(2, 4, 60).with_strategy(strategy);
        cfg.heartbeat_interval = Duration::from_secs(20);
        cfg
    };
    let graph = graphs::generators::preferential_attachment(2_000, 3, 7);
    let traced = |strategy: ClusterStrategy| {
        let sink = Arc::new(MemorySink::new());
        let telemetry = SinkHandle::new(sink.clone());
        let run = run_cluster("cc", &graph, quiet(strategy), telemetry.clone()).unwrap();
        let metrics = telemetry.metrics();
        let bytes = (metrics.counter("net/bytes_in").get(), metrics.counter("net/bytes_out").get());
        (run, sink, bytes)
    };
    let (optimistic, _, optimistic_bytes) = traced(ClusterStrategy::Optimistic);
    // A cut brings every partition's state up as one `PartState` frame: the
    // length prefix, the tag, the pid, the superstep and the record count
    // (25 bytes), then 16 bytes a record — 2 000 vertices over 4 partitions.
    let pulled_per_cut = 4 * 25 + 16 * 2_000;
    // A cut is due after every even logical iteration the run commits.
    let cuts = |run: &cluster::ClusterRun| {
        run.stats.iterations.iter().filter(|it| it.iteration % 2 == 0).count() as u64
    };

    // Down, a rollback run ships what an optimistic one does — the cut rides
    // the dispatch — and up, it ships its cuts' state besides, to the byte.
    let (checkpointed, journal, (bytes_in, bytes_out)) =
        traced(ClusterStrategy::Checkpoint { interval: 2 });
    assert_eq!(checkpointed.values, optimistic.values);
    assert_eq!(checkpointed.stats.supersteps(), optimistic.stats.supersteps());
    let written: Vec<u64> = journal
        .events()
        .iter()
        .filter_map(|event| match event {
            JournalEvent::CheckpointWritten { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect();
    assert_eq!(written.len() as u32, checkpointed.stats.logical_iterations().div_ceil(2));
    assert_eq!(written.len() as u64, cuts(&checkpointed));
    // What a checkpoint writes is the state that came up: the same records
    // under one partition count instead of four frame heads.
    assert!(written.iter().all(|&bytes| bytes + 4 * 17 - 8 == pulled_per_cut));
    assert_eq!(bytes_out, optimistic_bytes.1);
    assert_eq!(bytes_in - optimistic_bytes.0, cuts(&checkpointed) * pulled_per_cut);

    // An asynchronous snapshot pulls exactly where a barrier fires — not
    // where one is skipped because the previous epoch is still being
    // written — and ships nothing else: no barrier frame goes down, no ack
    // comes up.
    let (snapshotted, journal, (bytes_in, bytes_out)) =
        traced(ClusterStrategy::AsyncSnapshot { interval: 2 });
    assert_eq!(snapshotted.values, optimistic.values);
    let barriers = journal
        .events()
        .iter()
        .filter(|event| matches!(event, JournalEvent::SnapshotBarrierStarted { .. }))
        .count() as u64;
    assert!(barriers > 0 && barriers < cuts(&snapshotted), "{barriers} barriers");
    assert_eq!(bytes_out, optimistic_bytes.1);
    assert_eq!(bytes_in - optimistic_bytes.0, barriers * pulled_per_cut);
}

/// The bytes of the `Hello` and `LoadProgram` frames that bring up `worker`
/// of a CC cluster placed by `map`.
fn load_bytes(graph: &graphs::Graph, map: &PartitionMap, worker: usize) -> u64 {
    let rows = cluster::program::partition_rows(graph, map.parallelism());
    let adjacency: Vec<(u64, AdjRows)> =
        map.pids_of(worker).into_iter().map(|pid| (pid as u64, rows[pid].clone())).collect();
    let load =
        Message::LoadProgram { program: "cc".into(), n: graph.num_vertices() as u64, adjacency };
    (4 + 1 + 8) + 4 + encode_to_vec(&load).len() as u64
}

#[test]
fn a_reshipped_bill_counts_the_frames_shipped_and_no_heartbeat() {
    // Heartbeat probes every millisecond write the same byte counter the
    // reships do; the bills must not move with them.
    let busy = |cfg: ClusterConfig| cfg.with_heartbeat_interval(Duration::from_millis(1));
    let graph = cc_graph();
    for worker in [0, 1] {
        let cfg = busy(test_config(2, 4, 60)).with_kill(KillPlan { superstep: 2, worker });
        let sink = Arc::new(MemorySink::new());
        run_cluster("cc", &graph, cfg, SinkHandle::new(sink.clone())).unwrap();
        let bills: Vec<(usize, u64)> = sink
            .events()
            .iter()
            .filter_map(|event| match event {
                JournalEvent::RecoveryCost { worker, reshipped_bytes, .. } => {
                    Some((*worker, *reshipped_bytes))
                }
                _ => None,
            })
            .collect();
        let map = PartitionMap::initial(4, 2);
        assert_eq!(bills, vec![(worker, load_bytes(&graph, &map, worker))]);
    }

    let rescale_bills = || {
        let cfg = busy(test_config(2, 4, 60))
            .with_scale_event(ScaleEvent { superstep: 2, workers: 4 })
            .with_scale_event(ScaleEvent { superstep: 4, workers: 2 });
        let sink = Arc::new(MemorySink::new());
        run_cluster("cc", &graph, cfg, SinkHandle::new(sink.clone())).unwrap();
        sink.events()
            .iter()
            .filter_map(|event| match event {
                JournalEvent::RebalanceCompleted { reshipped_bytes, .. } => Some(*reshipped_bytes),
                _ => None,
            })
            .collect::<Vec<u64>>()
    };
    let first = rescale_bills();
    assert_eq!(first.len(), 2);
    // Growing, the bill is the two joiners' bring-up, to the byte.
    let grown = Rebalancer::rebalance(&PartitionMap::initial(4, 2), 4).map;
    let joiners: u64 = (2..4).map(|worker| load_bytes(&graph, &grown, worker)).sum();
    assert_eq!(first[0], joiners);
    for _ in 0..2 {
        assert_eq!(rescale_bills(), first);
    }
}
