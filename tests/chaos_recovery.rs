//! Chaos-class property tests: every chaos scenario class — kill storm,
//! lossy link, straggler — under each of the four recovery strategies
//! (optimistic, checkpoint, async-snapshot, restart) converges to the
//! failure-free fixpoint: bitwise for connected components, within 1e-6
//! for PageRank. Closes with snapshot-completeness units: recovery never
//! restores from a partial asynchronous snapshot.
//!
//! The classes map the cluster chaos plane onto the in-process failure
//! model: a *storm* loses several partitions in one superstep, a *lossy
//! link* loses single partitions at scattered supersteps, and a
//! *straggler* is a worker so slow it keeps getting declared dead — the
//! same partition lost at consecutive supersteps. Every schedule is
//! finite, so even restart recovery terminates.

use algos::connected_components::{self, CcConfig};
use algos::pagerank::{self, PrConfig};
use algos::FtConfig;
use dataflow::dataset::Partitions;
use dataflow::ft::{FaultHandler, RecoveryAction};
use graphs::{Graph, GraphBuilder};
use proptest::prelude::*;
use recovery::checkpoint::{MemoryStore, StableStore};
use recovery::scenario::FailureScenario;
use recovery::strategy::Strategy as RecoveryStrategy;
use recovery::AsyncSnapshotHandler;

/// Arbitrary undirected graph: vertex count and edge list.
fn arb_graph(max_vertices: u64) -> impl Strategy<Value = Graph> {
    (2..max_vertices).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..(3 * n as usize)).prop_map(move |edges| {
            let mut builder = GraphBuilder::undirected(n as usize);
            for (u, v) in edges {
                builder.add_edge(u, v);
            }
            builder.build()
        })
    })
}

/// Kill storm: several of the four partitions lost in one superstep.
fn arb_storm() -> impl Strategy<Value = FailureScenario> {
    (0u32..6, proptest::collection::vec(0usize..4, 1..4))
        .prop_map(|(superstep, partitions)| FailureScenario::none().fail_at(superstep, &partitions))
}

/// Lossy link: independent single-partition losses at scattered supersteps.
fn arb_lossy_link() -> impl Strategy<Value = FailureScenario> {
    proptest::collection::vec((0u32..10, 0usize..4), 1..5).prop_map(|drops| {
        let mut scenario = FailureScenario::none();
        for (superstep, partition) in drops {
            scenario = scenario.fail_at(superstep, &[partition]);
        }
        scenario
    })
}

/// Straggler: one partition declared dead at consecutive supersteps.
fn arb_straggler() -> impl Strategy<Value = FailureScenario> {
    (0u32..5, 1u32..4, 0usize..4).prop_map(|(start, len, partition)| {
        let mut scenario = FailureScenario::none();
        for offset in 0..len {
            scenario = scenario.fail_at(start + offset, &[partition]);
        }
        scenario
    })
}

/// The four strategies under test, sharing one failure schedule.
fn four_strategies(scenario: FailureScenario, interval: u32) -> Vec<FtConfig> {
    vec![
        FtConfig::optimistic(scenario.clone()),
        FtConfig::checkpoint(interval, scenario.clone()),
        FtConfig {
            strategy: RecoveryStrategy::AsyncSnapshot { interval },
            scenario: scenario.clone(),
            ..FtConfig::optimistic(FailureScenario::none())
        },
        FtConfig::restart(scenario),
    ]
}

fn assert_cc_reaches_baseline(graph: &Graph, scenario: FailureScenario, interval: u32) {
    let baseline = connected_components::run(graph, &CcConfig::default()).unwrap();
    for ft in four_strategies(scenario, interval) {
        let label = ft.label();
        let config = CcConfig { ft, max_iterations: 400, ..Default::default() };
        let result = connected_components::run(graph, &config).unwrap();
        assert!(result.stats.converged, "{label}: did not converge");
        assert_eq!(result.labels, baseline.labels, "{label}: labels diverged from baseline");
    }
}

fn assert_pagerank_reaches_baseline(graph: &Graph, scenario: FailureScenario, interval: u32) {
    let failure_free = PrConfig { epsilon: 1e-9, max_iterations: 600, ..Default::default() };
    let baseline = pagerank::run(graph, &failure_free).unwrap();
    for ft in four_strategies(scenario, interval) {
        let label = ft.label();
        let config = PrConfig { ft, epsilon: 1e-9, max_iterations: 600, ..Default::default() };
        let result = pagerank::run(graph, &config).unwrap();
        assert!(result.stats.converged, "{label}: did not converge");
        assert!((result.rank_sum - 1.0).abs() < 1e-9, "{label}: rank mass {}", result.rank_sum);
        for (&(v, rank), &(_, reference)) in result.ranks.iter().zip(&baseline.ranks) {
            assert!(
                (rank - reference).abs() < 1e-6,
                "{label}: vertex {v}: {rank} vs baseline {reference}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn cc_survives_kill_storms_under_all_four_strategies(
        graph in arb_graph(28),
        scenario in arb_storm(),
        interval in 1u32..4,
    ) {
        assert_cc_reaches_baseline(&graph, scenario, interval);
    }

    #[test]
    fn cc_survives_lossy_links_under_all_four_strategies(
        graph in arb_graph(24),
        scenario in arb_lossy_link(),
        interval in 1u32..4,
    ) {
        assert_cc_reaches_baseline(&graph, scenario, interval);
    }

    #[test]
    fn cc_survives_stragglers_under_all_four_strategies(
        graph in arb_graph(24),
        scenario in arb_straggler(),
        interval in 1u32..4,
    ) {
        assert_cc_reaches_baseline(&graph, scenario, interval);
    }

    #[test]
    fn pagerank_survives_kill_storms_under_all_four_strategies(
        graph in arb_graph(16),
        scenario in arb_storm(),
        interval in 1u32..4,
    ) {
        assert_pagerank_reaches_baseline(&graph, scenario, interval);
    }

    #[test]
    fn pagerank_survives_stragglers_under_all_four_strategies(
        graph in arb_graph(14),
        scenario in arb_straggler(),
        interval in 1u32..4,
    ) {
        assert_pagerank_reaches_baseline(&graph, scenario, interval);
    }
}

// ---- multi-process cluster vs the single-process run --------------------
//
// A seeded kill plan drives one run per strategy on real `optirec worker`
// processes. Whatever the chaos does, the cluster must land on the answer
// of the failure-free single-process run of the same program: bitwise for
// connected components, 1e-6 for PageRank (optimistic compensation
// legitimately takes a different trajectory, but terminates within the
// 1e-9 epsilon of the unique fixed point).

use cluster::{run_cluster, run_local, ClusterConfig, ClusterStrategy, KillPlan};
use telemetry::SinkHandle;

fn cluster_strategies(interval: u32) -> Vec<ClusterStrategy> {
    vec![
        ClusterStrategy::Optimistic,
        ClusterStrategy::Checkpoint { interval },
        ClusterStrategy::AsyncSnapshot { interval },
        ClusterStrategy::Restart,
    ]
}

fn cluster_cfg(strategy: ClusterStrategy, kill: KillPlan, max_iterations: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(2, 4, max_iterations).with_strategy(strategy).with_kill(kill);
    cfg.worker_cmd = vec![env!("CARGO_BIN_EXE_optirec").to_string(), "worker".to_string()];
    cfg.heartbeat_interval = std::time::Duration::from_millis(20);
    cfg.heartbeat_timeout = std::time::Duration::from_millis(500);
    cfg.step_timeout = std::time::Duration::from_secs(10);
    cfg
}

fn cluster_cc_graph() -> Graph {
    let mut b = GraphBuilder::undirected(24);
    for start in [0u64, 8, 16] {
        for v in start..start + 7 {
            b.add_edge(v, v + 1);
        }
    }
    b.build()
}

fn cluster_pagerank_graph() -> Graph {
    let mut b = GraphBuilder::directed(20);
    for v in 0..20u64 {
        b.add_edge(v, (v + 1) % 20);
    }
    for v in (0..20u64).step_by(3) {
        b.add_edge(v, (v + 7) % 20);
    }
    b.build()
}

proptest! {
    // Each case spawns 8 worker processes (4 strategies x 2 workers); keep
    // the case count low.
    #![proptest_config(ProptestConfig { cases: 2, .. ProptestConfig::default() })]

    #[test]
    fn cluster_and_local_cc_agree_bitwise_under_seeded_kills(
        superstep in 1u32..5,
        worker in 0usize..2,
        interval in 1u32..3,
    ) {
        let graph = cluster_cc_graph();
        let kill = KillPlan { superstep, worker };
        let local = run_local("cc", &graph, 4, 60, SinkHandle::disabled()).unwrap();
        prop_assert!(local.stats.converged, "local did not converge");
        for strategy in cluster_strategies(interval) {
            let cluster = run_cluster(
                "cc",
                &graph,
                cluster_cfg(strategy, kill, 60),
                SinkHandle::disabled(),
            ).unwrap();
            prop_assert!(cluster.stats.converged, "{strategy:?}: cluster did not converge");
            prop_assert_eq!(
                &cluster.values,
                &local.values,
                "{:?}: cluster diverged from local under kill@{}:{}",
                strategy, superstep, worker
            );
        }
    }

    #[test]
    fn cluster_and_local_pagerank_agree_under_seeded_kills(
        superstep in 1u32..5,
        worker in 0usize..2,
        interval in 1u32..3,
    ) {
        let graph = cluster_pagerank_graph();
        let kill = KillPlan { superstep, worker };
        let local = run_local("pagerank", &graph, 4, 300, SinkHandle::disabled()).unwrap();
        prop_assert!(local.stats.converged, "local did not converge");
        for strategy in cluster_strategies(interval) {
            let cluster = run_cluster(
                "pagerank",
                &graph,
                cluster_cfg(strategy, kill, 300),
                SinkHandle::disabled(),
            ).unwrap();
            prop_assert!(cluster.stats.converged, "{strategy:?}: cluster did not converge");
            for (&(v, a), &(_, b)) in cluster.values.iter().zip(&local.values) {
                let (a, b) = (f64::from_bits(a), f64::from_bits(b));
                prop_assert!(
                    (a - b).abs() < 1e-6,
                    "{:?}: vertex {} rank {} (cluster) vs {} (local)",
                    strategy, v, a, b
                );
            }
        }
    }
}

/// Two-partition state with distinguishable contents per epoch.
fn state_at(epoch: u64) -> Partitions<u64> {
    Partitions::from_parts(vec![vec![epoch, epoch + 1], vec![epoch + 2]])
}

#[test]
fn async_snapshot_never_restores_a_partial_epoch() {
    // Interval 2 over 2 partitions: the barrier at iteration 2 persists its
    // first chunk during iteration 2 and would complete at iteration 3. Fail
    // at iteration 3 — mid-flight — and recovery must fall back to epoch 0
    // (complete since iteration 1), never the half-persisted epoch 2.
    let mut handler =
        AsyncSnapshotHandler::<Partitions<u64>, _>::new(MemoryStore::new(), 2).unwrap();
    for iteration in 0..3u32 {
        handler.after_superstep(iteration, &state_at(u64::from(iteration))).unwrap();
    }
    assert_eq!(handler.latest_complete(), Some(0));
    assert_eq!(handler.in_flight_epoch(), Some(2), "epoch 2 must still be persisting");

    let mut state = state_at(99);
    let action = handler.on_failure(3, &[1], &mut state).unwrap();
    match action {
        RecoveryAction::Restored { iteration, state } => {
            assert_eq!(iteration, 0, "must restore the last complete epoch");
            assert_eq!(state.into_parts(), state_at(0).into_parts());
        }
        _ => panic!("expected a restore from epoch 0"),
    }
    assert_eq!(handler.in_flight_epoch(), None, "the partial epoch is aborted");
    // The aborted epoch's persisted chunk is removed from stable storage,
    // so a later crash cannot mistake it for a restore point.
    assert_eq!(handler.store().get("async-bulk-2-p0").unwrap(), None);
    assert_eq!(handler.store().get("async-bulk-2-p1").unwrap(), None);
}

#[test]
fn async_snapshot_restarts_when_no_epoch_ever_completed() {
    // Fail before the very first epoch finishes persisting: with no
    // complete restore point the handler must order a restart, not hand
    // back half an epoch.
    let mut handler =
        AsyncSnapshotHandler::<Partitions<u64>, _>::new(MemoryStore::new(), 4).unwrap();
    handler.after_superstep(0, &state_at(0)).unwrap();
    assert_eq!(handler.latest_complete(), None);
    assert_eq!(handler.in_flight_epoch(), Some(0));

    let mut state = state_at(99);
    let action = handler.on_failure(0, &[0], &mut state).unwrap();
    assert!(matches!(action, RecoveryAction::Restart), "no complete epoch: restart");
    assert_eq!(handler.store().get("async-bulk-0-p0").unwrap(), None, "partial chunk dropped");
}
