//! Integration tests for the incremental serving engine.
//!
//! Covers the PR's acceptance criteria: a mutation batch re-converges in
//! strictly fewer supersteps than a cold run over the same mutated graph
//! (asserted via `ConvergenceSample` counts in the journal), random
//! insert/delete batches match a full recomputation (bitwise for CC, 1e-6
//! for PageRank), and a failure injected between two convergences recovers
//! to the failure-free fixpoint while queries keep seeing only pre- or
//! post-batch values — never intermediate state.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use algos::connected_components::{self as cc, CcConfig};
use graphs::{exact_components, Graph, GraphBuilder};
use proptest::prelude::*;
use serve::{
    spawn, EpochInjection, InjectionKind, LiveGraph, PointAnswer, ServeAlgorithm, ServeConfig,
    ServeEngine, Solution,
};
use telemetry::{JournalEvent, MemorySink, SinkHandle};

fn journalled_config() -> (ServeConfig, Arc<MemorySink>, SinkHandle) {
    let sink = Arc::new(MemorySink::new());
    let handle = SinkHandle::new(sink.clone());
    let config = ServeConfig { telemetry: handle.clone(), ..Default::default() };
    (config, sink, handle)
}

fn convergence_samples(events: &[JournalEvent]) -> usize {
    events.iter().filter(|e| matches!(e, JournalEvent::ConvergenceSample { .. })).count()
}

/// Two 32-vertex paths: deleting an edge splits one, an insert bridges them.
fn two_paths() -> Graph {
    let mut b = GraphBuilder::undirected(64);
    for v in 0..31u64 {
        b.add_edge(v, v + 1);
    }
    for v in 32..63u64 {
        b.add_edge(v, v + 1);
    }
    b.build()
}

#[test]
fn mutation_batch_reconverges_in_strictly_fewer_supersteps_than_a_cold_run() {
    let graph = two_paths();
    let (config, sink, handle) = journalled_config();
    let (mut engine, _) = ServeEngine::bootstrap(config, &graph).unwrap();
    // A local batch: split the first path and add a chord to one half. The
    // re-convergence only has to fix the 32 reset vertices; a cold run must
    // also re-propagate along the untouched 32-vertex path.
    engine.stage_delete(15, 16);
    engine.stage_insert(20, 24);
    let report = engine.commit().unwrap();
    assert!(report.converged);
    handle.flush();

    // Samples after the MutationBatch marker = the incremental run's
    // supersteps; they must agree with the epoch report.
    let events = sink.events();
    let batch_at = events
        .iter()
        .rposition(|e| matches!(e, JournalEvent::MutationBatch { .. }))
        .expect("commit journals a MutationBatch");
    let incremental = convergence_samples(&events[batch_at..]);
    assert_eq!(incremental as u32, report.supersteps);

    // Cold run over the same mutated graph, with its own journal.
    let mut mirror = LiveGraph::from_graph(&graph);
    assert!(mirror.remove(15, 16));
    assert!(mirror.insert(20, 24));
    let (cold_config, cold_sink, cold_handle) = journalled_config();
    let (cold_engine, cold_report) = ServeEngine::bootstrap(cold_config, &mirror.build()).unwrap();
    cold_handle.flush();
    let cold = convergence_samples(&cold_sink.events());
    assert_eq!(cold as u32, cold_report.supersteps);

    assert!(incremental < cold, "incremental run took {incremental} supersteps, cold run {cold}");
    assert_eq!(
        engine.snapshot().solution,
        cold_engine.snapshot().solution,
        "the shortcut must not change the fixpoint"
    );
}

#[test]
fn injected_failures_between_convergences_recover_the_failure_free_fixpoint() {
    let graph = two_paths();
    let (clean_engine, _) = ServeEngine::bootstrap(ServeConfig::default(), &graph).unwrap();
    let mut clean = clean_engine;
    clean.stage_delete(15, 16);
    clean.stage_insert(40, 0);
    clean.commit().unwrap();
    let expected = clean.snapshot().solution;

    let kinds = [
        InjectionKind::Panic { superstep: 2 },
        InjectionKind::Fail { superstep: 1, partitions: vec![0, 2] },
        InjectionKind::Mtbf { probability: 0.3, seed: 11 },
    ];
    for kind in kinds {
        let (config, sink, handle) = journalled_config();
        let config =
            ServeConfig { inject: Some(EpochInjection { epoch: 1, kind: kind.clone() }), ..config };
        let (mut engine, _) = ServeEngine::bootstrap(config, &graph).unwrap();
        engine.stage_delete(15, 16);
        engine.stage_insert(40, 0);
        let report = engine.commit().unwrap();
        assert!(report.converged, "{kind:?} must still converge");
        assert_eq!(
            engine.snapshot().solution,
            expected,
            "{kind:?} must recover the failure-free fixpoint"
        );
        handle.flush();
        let injected =
            sink.events().iter().any(|e| matches!(e, JournalEvent::FailureInjected { .. }));
        assert!(injected, "{kind:?} must actually fire inside the epoch");
    }
}

/// While a failure-hit commit re-converges, concurrent TCP queries must only
/// ever observe the pre-batch or post-batch label — never intermediate state
/// of the compensated re-run. Vertex 20 moves from component 0 (pre-split)
/// to component 16 (post-split), and intermediate supersteps of the reset
/// component hold other labels, so any leak would be visible.
#[test]
fn queries_concurrent_with_a_failing_commit_only_see_committed_solutions() {
    let graph = two_paths();
    let config = ServeConfig {
        inject: Some(EpochInjection {
            epoch: 1,
            kind: InjectionKind::Mtbf { probability: 0.3, seed: 11 },
        }),
        ..Default::default()
    };
    let (engine, _) = ServeEngine::bootstrap(config, &graph).unwrap();
    let pre = engine.point(20);
    assert_eq!(pre, Some(PointAnswer::Label(0)));

    let daemon = spawn(engine, "127.0.0.1:0").unwrap();
    let addr = daemon.addr();
    let connect = move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        (stream, reader)
    };

    // Reader thread: hammer `get 20` until the post-batch label appears.
    let reader_thread = std::thread::spawn(move || {
        let (mut stream, mut reader) = connect();
        let mut observed = Vec::new();
        for _ in 0..20_000 {
            writeln!(stream, "get 20").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end().to_string();
            let done = response == "ok label 16";
            observed.push(response);
            if done {
                break;
            }
        }
        observed
    });

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut responses = BufReader::new(stream);
    let mut line = String::new();
    responses.read_line(&mut line).unwrap(); // greeting
    for command in ["- 15 16", "+ 40 0", "commit"] {
        writeln!(writer, "{command}").unwrap();
        line.clear();
        responses.read_line(&mut line).unwrap();
        assert!(line.starts_with("ok "), "{command}: {line}");
    }

    let observed = reader_thread.join().unwrap();
    assert!(!observed.is_empty());
    for response in &observed {
        assert!(
            response == "ok label 0" || response == "ok label 16",
            "query observed uncommitted state: {response}"
        );
    }
    assert_eq!(
        observed.last().map(String::as_str),
        Some("ok label 16"),
        "the post-batch solution must eventually be served"
    );
    daemon.stop();
}

/// A cluster-backed epoch between two resident ones. Epoch 2 runs on two
/// worker processes, one of which is SIGKILLed mid-run, so the workers —
/// not the engine — own that epoch's state: the engine drops its resident
/// maps and epoch 3 reloads them from what the cluster run returned. Every
/// vertex is read back after every commit and compared with the exact
/// components of the graph as it then is.
#[test]
fn a_cluster_backed_epoch_between_two_resident_ones_reloads_the_state() {
    let dir = std::env::temp_dir().join(format!("optirec_serve_reload_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let mut live = LiveGraph::from_graph(&graphs::generators::path(24));
    let mut session = String::new();
    let mut expected: Vec<String> = Vec::new();
    // Epoch 1, resident: grow the graph and split the path. Epoch 2, on the
    // cluster: cut again and bridge two pieces. Epoch 3, resident again:
    // extend the new vertex's chain and cut the far end loose.
    let epochs: [&[(char, u64, u64)]; 3] = [
        &[('+', 3, 24), ('-', 11, 12)],
        &[('-', 5, 6), ('+', 0, 20)],
        &[('+', 24, 25), ('-', 17, 18), ('+', 25, 9)],
    ];
    for batch in epochs {
        for &(verb, u, v) in batch {
            session.push_str(&format!("{verb} {u} {v}\n"));
            let changed = if verb == '+' { live.insert(u, v) } else { live.remove(u, v) };
            assert!(changed, "{verb} {u} {v} must change the graph");
        }
        session.push_str("commit\n");
        let graph = live.build();
        let exact = exact_components(&graph);
        for v in 0..graph.num_vertices() as u64 {
            session.push_str(&format!("get {v}\n"));
            expected.push(format!("ok label {}", exact[v as usize]));
        }
    }
    session.push_str("quit\n");
    let replay = dir.join("session.replay");
    std::fs::write(&replay, session).unwrap();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_optirec"))
        .args(["serve", "cc", "--graph", "path:24", "--inject", "kill:2:1:1:2", "--replay"])
        .arg(&replay)
        .output()
        .expect("spawn optirec serve");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The transcript echoes each command as `> cmd`, its answer on the next
    // line.
    let lines: Vec<&str> = stdout.lines().collect();
    let answers_to = |prefix: &str| -> Vec<String> {
        lines.windows(2).filter(|w| w[0].starts_with(prefix)).map(|w| w[1].to_string()).collect()
    };
    let commits = answers_to("> commit");
    assert_eq!(commits.len(), 3, "{stdout}");
    for (epoch, answer) in commits.iter().enumerate() {
        assert!(answer.starts_with(&format!("ok epoch {} ", epoch + 1)), "{answer}");
        assert!(answer.ends_with("converged true"), "{answer}");
    }
    assert_eq!(answers_to("> get "), expected, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Arbitrary base graph plus a few batches of random edge mutations.
fn arb_graph(max_vertices: u64, directed: bool) -> impl Strategy<Value = Graph> {
    (3..max_vertices).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 1..(3 * n as usize)).prop_map(move |edges| {
            let mut builder = if directed {
                GraphBuilder::directed(n as usize)
            } else {
                GraphBuilder::undirected(n as usize)
            };
            for (u, v) in edges {
                if u != v {
                    builder.add_edge(u, v);
                }
            }
            builder.build()
        })
    })
}

/// Batches of `(is_insert, u, v)` mutations over the same vertex range.
fn arb_batches(max_vertices: u64) -> impl Strategy<Value = Vec<Vec<(bool, u64, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0..max_vertices, 0..max_vertices), 1..6),
        1..4,
    )
}

/// Run the batches through the engine while mirroring them on a plain
/// [`LiveGraph`], then bootstrap cold over the final graph for comparison.
fn run_batches(
    algorithm: ServeAlgorithm,
    graph: &Graph,
    batches: &[Vec<(bool, u64, u64)>],
) -> (Solution, Solution) {
    let config = ServeConfig { algorithm, ..Default::default() };
    let (mut engine, _) = ServeEngine::bootstrap(config.clone(), graph).unwrap();
    let mut mirror = LiveGraph::from_graph(graph);
    for batch in batches {
        for &(insert, u, v) in batch {
            if u == v {
                continue;
            }
            if insert {
                engine.stage_insert(u, v);
                mirror.insert(u, v);
            } else {
                engine.stage_delete(u, v);
                mirror.remove(u, v);
            }
        }
        let report = engine.commit().unwrap();
        assert!(report.converged);
    }
    let (cold, _) = ServeEngine::bootstrap(config, &mirror.build()).unwrap();
    (engine.snapshot().solution, cold.snapshot().solution)
}

/// The live edge set as the engine kept it before it kept an adjacency
/// index: canonical `(min, max)` pairs in a `BTreeSet`, rebuilt through
/// `GraphBuilder` on demand. The reference for `LiveGraph`.
struct EdgeSetOracle {
    vertices: usize,
    edges: BTreeSet<(u64, u64)>,
}

impl EdgeSetOracle {
    fn from_graph(graph: &Graph) -> Self {
        let edges = graph.directed_edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
        EdgeSetOracle { vertices: graph.num_vertices(), edges }
    }

    fn insert(&mut self, u: u64, v: u64) -> bool {
        self.vertices = self.vertices.max(u.max(v) as usize + 1);
        self.edges.insert((u.min(v), u.max(v)))
    }

    fn remove(&mut self, u: u64, v: u64) -> bool {
        self.edges.remove(&(u.min(v), u.max(v)))
    }

    fn build(&self) -> Graph {
        let mut builder = GraphBuilder::undirected(self.vertices);
        for &(u, v) in &self.edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }
}

/// One staged mutation, drawn blind and resolved against the graph as it
/// is when its turn comes.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Insert between two existing vertices (maybe present already, maybe
    /// a self-loop).
    Insert(u64, u64),
    /// Insert an edge to a vertex id nobody has named yet.
    Grow(u64),
    /// Delete whatever `(u, v)` is, usually nothing.
    Delete(u64, u64),
    /// Delete the `i`-th edge that exists: pendant or in the giant
    /// component, as the draw has it.
    DeleteExisting(usize),
    /// Stage the previous mutation again: a duplicate, so a no-op.
    Repeat,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0u8..5, 0u64..64, 0u64..64).prop_map(|(kind, a, b)| match kind {
        0 => Mutation::Insert(a, b),
        1 => Mutation::Grow(a),
        2 => Mutation::Delete(a, b),
        3 => Mutation::DeleteExisting(a as usize),
        _ => Mutation::Repeat,
    })
}

/// `(kind, superstep, partition, seed)` of the failure to inject, `kind` 0
/// meaning none.
fn injection(kind: u8, superstep: u32, partition: usize, seed: u64) -> Option<InjectionKind> {
    match kind {
        0 => None,
        1 => Some(InjectionKind::Panic { superstep }),
        2 => Some(InjectionKind::Fail { superstep, partitions: vec![partition] }),
        _ => Some(InjectionKind::Mtbf { probability: 0.3, seed }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Resident epochs, commit by commit: whatever the batch does to the
    /// graph — grow it, cut a pendant vertex or the giant component loose,
    /// nothing at all — and whichever epoch a failure is injected into, the
    /// labels served after every commit are the cold run's over the graph
    /// as it then is, which are the exact components; and the live graph
    /// rebuilds to exactly what the edge-set formulation rebuilds to.
    #[test]
    fn cc_resident_epochs_match_a_cold_run_after_every_commit(
        graph in arb_graph(20, false),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_mutation(), 0..6), 1..6),
        failure in (0u8..4, 0u32..3, 0usize..4, any::<u64>()),
        failed_epoch in 1u32..6,
    ) {
        let (kind, superstep, partition, seed) = failure;
        let inject = injection(kind, superstep, partition, seed)
            .map(|kind| EpochInjection { epoch: failed_epoch, kind });
        let config = ServeConfig { inject, ..Default::default() };
        let (mut engine, _) = ServeEngine::bootstrap(config, &graph).unwrap();
        let mut live = LiveGraph::from_graph(&graph);
        let mut oracle = EdgeSetOracle::from_graph(&graph);
        let mut last: Option<(bool, u64, u64)> = None;
        for (index, batch) in batches.iter().enumerate() {
            for &mutation in batch {
                let n = oracle.vertices as u64;
                let resolved = match mutation {
                    Mutation::Insert(u, v) => Some((true, u % n, v % n)),
                    Mutation::Grow(u) => Some((true, u % n, n)),
                    Mutation::Delete(u, v) => Some((false, u % n, v % n)),
                    Mutation::DeleteExisting(i) => {
                        let m = oracle.edges.len();
                        oracle.edges.iter().nth(i % m.max(1)).map(|&(u, v)| (false, u, v))
                    }
                    Mutation::Repeat => last,
                };
                let Some((insert, u, v)) = resolved else { continue };
                last = resolved;
                let (staged, mirrored, expected) = if insert {
                    (engine.stage_insert(u, v), live.insert(u, v), oracle.insert(u, v))
                } else {
                    (engine.stage_delete(u, v), live.remove(u, v), oracle.remove(u, v))
                };
                prop_assert_eq!(staged, expected, "{:?} staged", resolved);
                prop_assert_eq!(mirrored, expected, "{:?} on the live graph", resolved);
                prop_assert_eq!(live.has_edge(v, u), oracle.edges.contains(&(u.min(v), u.max(v))));
            }
            let report = engine.commit().unwrap();
            prop_assert!(report.converged);
            prop_assert_eq!(report.epoch as usize, index + 1);
            prop_assert_eq!(engine.staged(), 0);

            let rebuilt = live.build();
            prop_assert_eq!(&rebuilt, &oracle.build(), "LiveGraph::build, edge for edge");
            prop_assert_eq!(live.num_edges(), rebuilt.num_edges());
            let cold = cc::run(&rebuilt, &CcConfig { track_truth: false, ..Default::default() })
                .unwrap();
            let exact = exact_components(&rebuilt);
            let Solution::Components(served) = engine.snapshot().solution else {
                panic!("a CC engine serves components")
            };
            let served: Vec<(u64, u64)> = served.entries().collect();
            prop_assert_eq!(&served, &cold.labels, "epoch {} against the cold run", index + 1);
            prop_assert!(served.iter().all(|&(v, label)| exact[v as usize] == label));
            prop_assert_eq!(engine.vertices(), rebuilt.num_vertices());
        }
    }

    #[test]
    fn cc_incremental_batches_match_full_recomputation_bitwise(
        graph in arb_graph(24, false),
        batches in arb_batches(24),
    ) {
        let (incremental, cold) = run_batches(
            ServeAlgorithm::ConnectedComponents, &graph, &batches,
        );
        prop_assert_eq!(incremental, cold);
    }

    #[test]
    fn pagerank_incremental_batches_match_full_recomputation(
        graph in arb_graph(14, true),
        batches in arb_batches(14),
    ) {
        let (incremental, cold) =
            run_batches(ServeAlgorithm::PageRank, &graph, &batches);
        match (incremental, cold) {
            (Solution::Ranks(warm), Solution::Ranks(exact)) => {
                prop_assert_eq!(warm.len(), exact.len());
                for ((v, w), (u, e)) in warm.entries().zip(exact.entries()) {
                    prop_assert_eq!(v, u);
                    prop_assert!((w - e).abs() < 1e-6, "vertex {}: {} vs {}", v, w, e);
                }
            }
            _ => prop_assert!(false, "both engines maintain rank solutions"),
        }
    }
}
