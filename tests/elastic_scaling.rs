//! Elastic cluster end-to-end: planned rescales through the `optirec`
//! binary's worker processes must be invisible in the result — a cluster
//! that grows 2→4 and shrinks back mid-computation converges to exactly the
//! fixpoint of a static run (bitwise for CC, 1e-6 for PageRank), the moved
//! partitions ride the recovery reship path, and the journal bills the
//! whole thing as *planned* work, separate from failure recovery.

use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use cluster::{run_cluster, run_local, ClusterConfig, ClusterStrategy, KillPlan, ScaleEvent};
use graphs::{Graph, GraphBuilder};
use proptest::prelude::*;
use telemetry::{JournalEvent, MemorySink, SinkHandle};

fn optirec() -> &'static str {
    env!("CARGO_BIN_EXE_optirec")
}

/// Cluster configuration whose workers are `optirec worker` subprocesses.
fn optirec_config(workers: usize, parallelism: usize, max_iterations: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(workers, parallelism, max_iterations);
    cfg.worker_cmd = vec![optirec().to_string(), "worker".to_string()];
    cfg.heartbeat_interval = Duration::from_millis(20);
    cfg.heartbeat_timeout = Duration::from_millis(500);
    cfg.step_timeout = Duration::from_secs(10);
    cfg
}

fn cc_graph() -> Graph {
    let mut b = GraphBuilder::undirected(24);
    for start in [0u64, 8, 16] {
        for v in start..start + 7 {
            b.add_edge(v, v + 1);
        }
    }
    b.build()
}

fn pagerank_graph() -> Graph {
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
fn cc_scale_up_then_down_matches_the_static_fixpoint_bitwise() {
    let graph = cc_graph();
    let cfg = optirec_config(2, 4, 60)
        .with_scale_event(ScaleEvent { superstep: 2, workers: 4 })
        .with_scale_event(ScaleEvent { superstep: 4, workers: 2 });
    let sink = Arc::new(MemorySink::new());
    let handle = SinkHandle::new(sink.clone());
    let elastic = run_cluster("cc", &graph, cfg, handle.clone()).unwrap();
    handle.flush();

    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    assert_eq!(elastic.values, baseline.values, "rescales must not change the fixpoint");
    assert!(elastic.stats.converged);
    assert_eq!(elastic.stats.failures().count(), 0, "a planned rescale is not a failure");

    // The journal records the whole round trip: two joiners on the way up,
    // two partitions moved per rescale (the minimal-move plan for 4 pids
    // going 2→4→2), and every reship carries bytes.
    let events = sink.events();
    let joined =
        events.iter().filter(|event| matches!(event, JournalEvent::WorkerJoined { .. })).count();
    assert_eq!(joined, 2, "scale-up 2→4 spawns exactly two joiners");
    let completed: Vec<(usize, u64)> = events
        .iter()
        .filter_map(|event| match event {
            JournalEvent::RebalanceCompleted { moved_partitions, reshipped_bytes, .. } => {
                Some((*moved_partitions, *reshipped_bytes))
            }
            _ => None,
        })
        .collect();
    assert_eq!(completed.len(), 2, "one RebalanceCompleted per scale event");
    for &(moved, bytes) in &completed {
        assert_eq!(moved, 2, "minimal-move plan relocates exactly the surplus");
        assert!(bytes > 0, "moved partitions re-ship real state");
    }
}

#[test]
fn pagerank_rescale_stays_within_tolerance_of_the_static_run() {
    let graph = pagerank_graph();
    let cfg = optirec_config(2, 4, 300)
        .with_scale_event(ScaleEvent { superstep: 3, workers: 4 })
        .with_scale_event(ScaleEvent { superstep: 6, workers: 2 });
    let elastic = run_cluster("pagerank", &graph, cfg, SinkHandle::disabled()).unwrap();
    let baseline = run_local("pagerank", &graph, 4, 300, SinkHandle::disabled()).unwrap();
    assert!(elastic.stats.converged);
    for (&(v, a), &(_, b)) in elastic.values.iter().zip(&baseline.values) {
        let (a, b) = (f64::from_bits(a), f64::from_bits(b));
        assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs baseline {b}");
    }
}

#[test]
fn pagerank_grown_under_a_rollback_strategy_regenerates_its_inbound() {
    // Under a rollback strategy the superstep after a rescale is pushed the
    // state of the barrier it fires at, and the workers regenerate what that
    // state sends: on an iteration the strategy cuts after (4) and on one it
    // does not (3). PageRank folds whatever inbox it is given — an empty one
    // would cost it rank mass and supersteps — so equal bits in equal
    // supersteps say the regenerated inboxes were the exact ones.
    let graph = pagerank_graph();
    let baseline = run_local("pagerank", &graph, 4, 300, SinkHandle::disabled()).unwrap();
    let strategies = [
        ClusterStrategy::Checkpoint { interval: 2 },
        ClusterStrategy::AsyncSnapshot { interval: 2 },
    ];
    for (strategy, at) in strategies.into_iter().flat_map(|strategy| [(strategy, 3), (strategy, 4)])
    {
        let cfg = optirec_config(2, 4, 300)
            .with_strategy(strategy)
            .with_scale_event(ScaleEvent { superstep: at, workers: 4 });
        let elastic = run_cluster("pagerank", &graph, cfg, SinkHandle::disabled()).unwrap();
        assert!(elastic.stats.converged);
        assert_eq!(elastic.stats.failures().count(), 0);
        let case = format!("{strategy:?}, rescale at {at}");
        assert_eq!(elastic.stats.supersteps(), baseline.stats.supersteps(), "{case}");
        assert_eq!(elastic.values, baseline.values, "{case}");
    }
}

#[test]
fn a_kill_landing_during_a_rebalance_recovers_under_every_strategy() {
    // The kill targets worker 3 at the same chronological superstep the
    // cluster grows 2→4: the rescale fires at the barrier, then the brand
    // new worker is SIGKILLed while its first superstep is in flight.
    let graph = cc_graph();
    let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
    let strategies = [
        ClusterStrategy::Optimistic,
        ClusterStrategy::Checkpoint { interval: 2 },
        ClusterStrategy::AsyncSnapshot { interval: 2 },
        ClusterStrategy::Restart,
    ];
    for strategy in strategies {
        let cfg = optirec_config(2, 4, 60)
            .with_strategy(strategy)
            .with_scale_event(ScaleEvent { superstep: 2, workers: 4 })
            .with_kill(KillPlan { superstep: 2, worker: 3 });
        let run = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap();
        assert_eq!(run.values, baseline.values, "{strategy:?} diverged after kill-in-rebalance");
        assert!(run.stats.converged, "{strategy:?} did not converge");
        assert!(run.stats.failures().count() >= 1, "{strategy:?} swallowed the kill");
    }
}

proptest! {
    // Every case spawns real worker processes; keep the case count low.
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    #[test]
    fn cc_reaches_the_static_fixpoint_under_seeded_scale_plans(
        first in 1u32..4,
        gap in 1u32..3,
        up in 3usize..5,
        down in 1usize..3,
    ) {
        let graph = cc_graph();
        let cfg = optirec_config(2, 4, 60)
            .with_scale_event(ScaleEvent { superstep: first, workers: up })
            .with_scale_event(ScaleEvent { superstep: first + gap, workers: down });
        let run = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap();
        let baseline = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
        prop_assert_eq!(&run.values, &baseline.values);
        prop_assert!(run.stats.converged);
    }
}

#[test]
fn serve_scale_verb_rescales_the_next_commit_and_bills_it_as_planned() {
    let dir = std::env::temp_dir().join(format!("optirec_elastic_serve_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let replay = dir.join("session.replay");
    let journal = dir.join("serve_journal.jsonl");
    // An operator scales the serving cluster to 4 workers, then commits a
    // batch: the epoch starts on the bootstrap membership (2 workers) and
    // rescales at its first barrier.
    std::fs::write(&replay, "scale 4\n- 5 6\ncommit\nget 9\nquit\n").unwrap();

    let output = Command::new(optirec())
        .args([
            "serve",
            "cc",
            "--graph",
            "path:12",
            "--min-workers",
            "2",
            "--max-workers",
            "4",
            "--replay",
        ])
        .arg(&replay)
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("spawn optirec serve");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("elastic: epochs run on 2..=4 worker processes"), "{stdout}");
    assert!(stdout.contains("ok scale target 4"), "{stdout}");
    assert!(stdout.contains("ok label 6"), "the split half takes its own minimum\n{stdout}");

    let text = std::fs::read_to_string(&journal).expect("journal written");
    assert!(text.contains("\"event\":\"RebalanceStarted\""), "{text}");
    assert!(text.contains("\"event\":\"WorkerJoined\""), "{text}");
    assert!(text.contains("\"event\":\"RebalanceCompleted\""), "{text}");

    // `inspect recovery` bills the rescale as planned reships, not outages.
    let inspect = Command::new(optirec())
        .args(["inspect", "recovery", "--journal"])
        .arg(&journal)
        .output()
        .expect("spawn optirec inspect");
    let report = String::from_utf8_lossy(&inspect.stdout);
    assert!(inspect.status.success(), "{report}");
    assert!(report.contains("planned rescales:"), "{report}");
    assert!(report.contains("rescale 2->4 workers"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}
