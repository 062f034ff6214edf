//! The serving workloads: `ServeEngine::bootstrap` (CC), the daemon on a
//! loopback port, and one TCP client that stages a mutation and times
//! `commit`, or times `get`. Every answer is checked against the harness's
//! own mirror of the live edge set.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use algos::common::FtConfig;
use algos::connected_components::{self, CcConfig};
use graphs::Graph;
use serve::{DaemonHandle, LiveGraph, PointAnswer, ServeConfig, ServeEngine};
use telemetry::{MemorySink, SinkHandle};

use crate::batch::PARTITIONS;
use crate::ledger::Workload;
use crate::stats::{self, Stat};
use crate::{ms_since, sample, time_reps, trace_overhead, Metrics, Rng, Scale, Tally};

/// Pendant edges `(u, fresh vertex)` committed during set-up so that the
/// traced runs' delete commits have something to delete whose removal changes
/// an answer: the fresh vertex falls out of the giant component. A run
/// deletes three at most.
const POOL: usize = 16;
/// Vertex ids beyond the live graph that `get` must answer `none` for.
const UNKNOWN_VERTICES: u64 = 8;

/// Union-find over the mirror's edges; a vertex's label is the smallest
/// vertex id of its component, which is what CC converges to.
fn component_labels(vertices: usize, edges: impl Iterator<Item = (u64, u64)>) -> Vec<u64> {
    fn find(parent: &mut [u64], mut x: u64) -> u64 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut parent: Vec<u64> = (0..vertices as u64).collect();
    for (u, v) in edges {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        // The smaller root wins, so every root is its component's minimum.
        parent[a.max(b) as usize] = a.min(b);
    }
    (0..vertices as u64).map(|v| find(&mut parent, v)).collect()
}

/// The harness's own copy of the live edge set and the labels it implies.
struct Mirror {
    vertices: usize,
    base: Vec<(u64, u64)>,
    extra: BTreeSet<(u64, u64)>,
    labels: Vec<u64>,
}

impl Mirror {
    fn new(graph: &Graph) -> Self {
        let base = graph.directed_edges().filter(|&(u, v)| u < v).collect();
        Mirror { vertices: graph.num_vertices(), base, extra: BTreeSet::new(), labels: Vec::new() }
    }

    fn insert(&mut self, u: u64, v: u64) {
        self.vertices = self.vertices.max(u.max(v) as usize + 1);
        self.extra.insert((u, v));
    }

    fn remove(&mut self, u: u64, v: u64) {
        self.extra.remove(&(u, v));
    }

    /// Recompute the labels of the current epoch.
    fn relabel(&mut self) {
        let edges = self.base.iter().chain(&self.extra).copied();
        self.labels = component_labels(self.vertices, edges);
    }

    fn label(&self, v: u64) -> Option<u64> {
        self.labels.get(v as usize).copied()
    }

    /// The daemon's answer to `get v`.
    fn expected_get(&self, v: u64) -> String {
        match self.label(v) {
            Some(label) => format!("ok label {label}"),
            None => "ok none".to_string(),
        }
    }
}

/// One line-protocol session.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let mut client = Client { writer, reader: BufReader::new(stream) };
        let hello = client.read_line()?;
        if !hello.starts_with("hello cc ") {
            return Err(format!("unexpected greeting `{hello}`"));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send one command and wait for its answer; returns the answer and the
    /// round trip in ms.
    fn request(&mut self, command: &str) -> Result<(String, f64), String> {
        let started = Instant::now();
        self.writer
            .write_all(format!("{command}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let answer = self.read_line()?;
        Ok((answer, ms_since(started)))
    }

    /// A command whose round trip is not a sample.
    fn expect(&mut self, command: &str, expected: &str) -> Result<(), String> {
        let (answer, _) = self.request(command)?;
        if answer == expected {
            Ok(())
        } else {
            Err(format!("`{command}` answered `{answer}`, expected `{expected}`"))
        }
    }

    /// `commit`; the sample is the client-observed round trip.
    fn commit(&mut self) -> Result<f64, String> {
        let (answer, round_trip) = self.request("commit")?;
        if answer.starts_with("ok epoch ") && answer.ends_with(" converged true") {
            Ok(round_trip)
        } else {
            Err(format!("`commit` answered `{answer}`"))
        }
    }
}

/// The harness's side of a session: what the live edge set is, which pool
/// edges are left to delete, and the seeded stream the next mutation or
/// query comes from.
struct Book {
    mirror: Mirror,
    pool: Vec<(u64, u64)>,
    rng: Rng,
    /// Vertices of the generated graph: the ones pendant edges attach to.
    graph_vertices: u64,
}

impl Book {
    /// A pendant edge from a random vertex of the generated graph to a
    /// vertex id nobody has named yet.
    fn fresh_edge(&mut self) -> (u64, u64) {
        (self.rng.below(self.graph_vertices), self.mirror.vertices as u64)
    }

    /// A vertex to ask about, known or (a few ids past the end) not.
    fn any_vertex(&mut self) -> u64 {
        self.rng.below(self.mirror.vertices as u64 + UNKNOWN_VERTICES)
    }

    fn next_delete(&mut self) -> Result<(u64, u64), String> {
        self.pool.pop().ok_or_else(|| "the delete pool ran dry".to_string())
    }
}

/// The engine before the daemon owns it; the direct-call probes visit it
/// here and keep the book in step.
struct Bootstrapped {
    engine: ServeEngine,
    book: Book,
}

fn bootstrap(graph: &Graph, seed: u64, telemetry: SinkHandle) -> Result<Bootstrapped, String> {
    let config = ServeConfig { parallelism: PARTITIONS, telemetry, ..ServeConfig::default() };
    let (mut engine, report) = ServeEngine::bootstrap(config, graph)?;
    if !report.converged {
        return Err("bootstrap hit the iteration cap".to_string());
    }
    let mut book = Book {
        mirror: Mirror::new(graph),
        pool: Vec::new(),
        rng: Rng::new(seed),
        graph_vertices: graph.num_vertices() as u64,
    };
    for _ in 0..POOL {
        let (u, fresh) = book.fresh_edge();
        if !engine.stage_insert(u, fresh) {
            return Err(format!("pool edge ({u}, {fresh}) was already present"));
        }
        book.mirror.insert(u, fresh);
        book.pool.push((u, fresh));
    }
    if !engine.commit()?.converged {
        return Err("the pool commit hit the iteration cap".to_string());
    }
    book.mirror.relabel();
    Ok(Bootstrapped { engine, book })
}

/// A bootstrapped engine behind a running daemon, one connected client, and
/// the book that knows what every answer must be.
pub struct Served {
    workload: Workload,
    daemon: Option<DaemonHandle>,
    addr: SocketAddr,
    client: Client,
    book: Book,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.client.request("quit");
        if let Some(daemon) = self.daemon.take() {
            daemon.stop();
        }
    }
}

impl Served {
    /// What an operator waits for before the first query: bootstrap, the
    /// pool commit, the daemon, one connected client.
    pub fn stand_up(workload: Workload, graph: &Graph, seed: u64) -> Result<Self, String> {
        Served::publish(workload, bootstrap(graph, seed, SinkHandle::disabled())?)
    }

    fn publish(workload: Workload, boot: Bootstrapped) -> Result<Self, String> {
        let daemon =
            serve::daemon::spawn(boot.engine, "127.0.0.1:0").map_err(|e| format!("spawn: {e}"))?;
        let addr = daemon.addr();
        let client = match Client::connect(addr) {
            Ok(client) => client,
            Err(e) => {
                daemon.stop();
                return Err(e);
            }
        };
        Ok(Served { workload, daemon: Some(daemon), addr, client, book: boot.book })
    }

    /// Stage one mutation of a pendant edge (`+` or `-`), time `commit`,
    /// then read the pendant vertex's label back.
    fn commit_op(&mut self, verb: char, (u, fresh): (u64, u64)) -> Result<f64, String> {
        self.client.expect(&format!("{verb} {u} {fresh}"), "ok staged")?;
        let round_trip = self.client.commit()?;
        let mirror = &mut self.book.mirror;
        match verb {
            '+' => mirror.insert(u, fresh),
            _ => mirror.remove(u, fresh),
        }
        mirror.relabel();
        self.client.expect(&format!("get {fresh}"), &mirror.expected_get(fresh))?;
        Ok(round_trip)
    }

    fn delete_op(&mut self) -> Result<f64, String> {
        let edge = self.book.next_delete()?;
        self.commit_op('-', edge)
    }

    /// Time one `get` of a random vertex.
    fn query_op(&mut self) -> Result<f64, String> {
        let v = self.book.any_vertex();
        let (answer, round_trip) = self.client.request(&format!("get {v}"))?;
        let expected = self.book.mirror.expected_get(v);
        if answer == expected {
            Ok(round_trip)
        } else {
            Err(format!("`get {v}` answered `{answer}`, expected `{expected}`"))
        }
    }

    fn op(&mut self) -> Result<f64, String> {
        match self.workload {
            Workload::ServeInsert => {
                let edge = self.book.fresh_edge();
                self.commit_op('+', edge)
            }
            Workload::ServeQuery => self.query_op(),
            other => unreachable!("{} is not a serving workload", other.name()),
        }
    }

    /// The loop behind `latency_ms`, over `share` of the run's budget.
    pub fn measure(
        &mut self,
        scale: &Scale,
        share: f64,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        tally.record(self.op().map(drop)); // warm-up: first request on the socket
        sample(scale, share, tally, || self.op())
    }
}

/// The traced run: the workload's loop against an untraced daemon, then
/// against a traced one whose engine the direct-call probes visit first.
pub fn trace(
    workload: Workload,
    graph: &Graph,
    seed: u64,
    scale: &Scale,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut metrics = Metrics::new();
    // p95 needs ten samples beyond it, so the query loops get most of the run.
    let share = if workload == Workload::ServeQuery { 0.4 } else { 0.25 };

    let untraced = Served::stand_up(workload, graph, seed)?.measure(scale, share, tally)?;

    let memory = Arc::new(MemorySink::new());
    let on = SinkHandle::new(memory.clone());
    let mut boot = bootstrap(graph, seed, on.clone())?;
    let engine_ms = match workload {
        Workload::ServeInsert => {
            probe_delete(&mut boot, graph, &mut metrics)?;
            probe_insert(&mut boot, graph, &mut metrics)?
        }
        _ => probe_query(&mut boot, &mut metrics)?,
    };
    let mut served = Served::publish(workload, boot)?;
    on.flush();
    memory.clear();
    let traced = served.measure(scale, share, tally)?;
    on.flush();
    // The warm-up operation journals too.
    let ops = traced.len() as f64 + 1.0;
    trace_overhead(&untraced, &traced, &memory, ops, &mut metrics);

    if workload == Workload::ServeQuery {
        let mut gets = untraced;
        gets.extend(&traced);
        metrics.insert(
            "daemon.wire_overhead_us",
            Stat::single((stats::median(&gets) - engine_ms) * 1e3),
        );
        // Refused (and reported as 0) below two hundred gets.
        let p95 = stats::percentile(&gets, 95.0).map(|p95| p95 * 1e3);
        if let Err(refusal) = &p95 {
            eprintln!("note: daemon.query_p95_us not reported: {refusal}");
        }
        metrics.insert(
            "daemon.query_p95_us",
            Stat { n: gets.len(), ..Stat::single(p95.unwrap_or(0.0)) },
        );
        served.probe_daemon(scale, tally, &mut metrics)?;
    } else {
        metrics.insert(
            "daemon.commit_wire_overhead_ms",
            Stat::single(Stat::median(&traced).value - engine_ms),
        );
    }
    Ok(metrics)
}

/// `reps` direct stage + commit calls of one pendant-edge mutation each
/// (`+` or `-`); the samples are the engine-side commit times in ms.
fn probe_commits(boot: &mut Bootstrapped, verb: char, reps: usize) -> Result<Stat, String> {
    let mut commits = Vec::new();
    for _ in 0..reps {
        let insert = verb == '+';
        let (u, fresh) = if insert { boot.book.fresh_edge() } else { boot.book.next_delete()? };
        let started = Instant::now();
        let staged = if insert {
            boot.engine.stage_insert(u, fresh)
        } else {
            boot.engine.stage_delete(u, fresh)
        };
        let report = boot.engine.commit()?;
        commits.push(ms_since(started));
        if !staged || !report.converged || report.inserts + report.deletes != 1 {
            return Err(format!("direct `{verb} {u} {fresh}` + commit reported {report:?}"));
        }
        if insert {
            boot.book.mirror.insert(u, fresh);
        } else {
            boot.book.mirror.remove(u, fresh);
        }
    }
    boot.book.mirror.relabel();
    Ok(Stat::median(&commits))
}

/// serve::engine and serve::live_graph under an insert commit; returns the
/// engine-side commit time in ms.
fn probe_insert(
    boot: &mut Bootstrapped,
    graph: &Graph,
    metrics: &mut Metrics,
) -> Result<f64, String> {
    let commit = probe_commits(boot, '+', 5)?;
    metrics.insert("engine.commit_insert_ms", commit);
    let snapshots = time_reps(20, || drop(std::hint::black_box(boot.engine.snapshot())));
    metrics.insert("engine.snapshot_us", Stat::median(&snapshots).scaled(1e3));
    let live = LiveGraph::from_graph(graph);
    let builds = time_reps(3, || drop(std::hint::black_box(live.build())));
    metrics.insert("live_graph.build_ms", Stat::median(&builds));
    Ok(commit.value)
}

/// serve::engine under a delete commit, and the cold delta iteration in
/// algos + dataflow that both bootstrap and a delete commit amount to.
fn probe_delete(
    boot: &mut Bootstrapped,
    graph: &Graph,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let commit = probe_commits(boot, '-', 3)?;
    metrics.insert("engine.commit_delete_ms", commit);

    let on = SinkHandle::new(Arc::new(MemorySink::new()));
    let config = CcConfig {
        parallelism: PARTITIONS,
        ft: FtConfig { telemetry: on.clone(), ..FtConfig::default() },
        track_truth: false,
        ..CcConfig::default()
    };
    let started = Instant::now();
    let cold = connected_components::run(graph, &config).map_err(|e| format!("algos cc: {e}"))?;
    let wall = started.elapsed();
    let exact = graphs::exact_components(graph);
    if !cold.stats.converged || cold.labels.iter().any(|&(v, label)| exact[v as usize] != label) {
        return Err("the cold delta iteration is wrong".to_string());
    }
    metrics.insert("algos.cc_delta_ttf_s", Stat::single(wall.as_secs_f64()));
    metrics.insert("algos.cc_delta_supersteps", Stat::single(f64::from(cold.stats.supersteps())));
    // The delta-iteration shape: the last non-empty workset against the first.
    let mut worksets =
        cold.stats.iterations.iter().filter_map(|i| i.workset_size).filter(|&w| w > 0);
    let first = worksets.next().ok_or("the cold run reported no workset")?;
    let last = worksets.next_back().unwrap_or(first);
    metrics.insert("algos.cc_workset_last_over_first", Stat::single(last as f64 / first as f64));
    let registry = on.metrics();
    let busy_ns = registry.partitioned_histogram("partition_task_ns", PARTITIONS).global().sum();
    metrics.insert(
        "dataflow.partition_task_busy_share",
        Stat::single(busy_ns as f64 / (wall.as_nanos() as f64 * PARTITIONS as f64)),
    );
    metrics.insert(
        "dataflow.pool_queue_depth_max",
        Stat::single(registry.histogram("pool/queue_depth").max() as f64),
    );
    Ok(())
}

/// serve::engine's read path, called directly; returns `point` in ms.
fn probe_query(boot: &mut Bootstrapped, metrics: &mut Metrics) -> Result<f64, String> {
    let mut points = Vec::new();
    for _ in 0..200 {
        let v = boot.book.any_vertex();
        let started = Instant::now();
        let answer = boot.engine.point(v);
        points.push(ms_since(started));
        let expected = boot.book.mirror.label(v).map(PointAnswer::Label);
        if answer != expected {
            return Err(format!("point({v}) = {answer:?}, mirror {expected:?}"));
        }
    }
    let point = Stat::median(&points);
    metrics.insert("engine.point_us", point.scaled(1e3));
    let tops = time_reps(20, || drop(std::hint::black_box(boot.engine.top(10))));
    metrics.insert("engine.top10_us", Stat::median(&tops).scaled(1e3));
    Ok(point.value)
}

impl Served {
    /// serve::daemon beyond `get`: `top 10`, and `get` while a delete
    /// commit holds the engine. The second client oversubscribes two cores,
    /// which is why this is a traced-run number only.
    fn probe_daemon(
        &mut self,
        scale: &Scale,
        tally: &mut Tally,
        metrics: &mut Metrics,
    ) -> Result<(), String> {
        let giant = self.book.mirror.labels.iter().filter(|&&label| label == 0).count();
        let tops = sample(scale, 0.0, tally, || {
            let (answer, round_trip) = self.client.request("top 10")?;
            if answer.split(' ').nth(2) == Some(format!("0:{giant}").as_str()) {
                Ok(round_trip)
            } else {
                Err(format!("`top 10` answered `{answer}`, giant component has {giant}"))
            }
        })?;
        metrics.insert("daemon.top_p50_us", Stat::median(&tops).scaled(1e3));

        let committing = AtomicBool::new(true);
        let mut reader = Client::connect(self.addr)?;
        let during = std::thread::scope(|scope| {
            let gets = scope.spawn(|| -> Result<Vec<f64>, String> {
                let mut samples = Vec::new();
                while committing.load(Ordering::SeqCst) {
                    let (answer, round_trip) = reader.request("get 0")?;
                    if answer != "ok label 0" {
                        return Err(format!("`get 0` during a commit answered `{answer}`"));
                    }
                    samples.push(round_trip);
                }
                reader.request("quit")?;
                Ok(samples)
            });
            let commits = sample(scale, 0.0, tally, || self.delete_op());
            committing.store(false, Ordering::SeqCst);
            let gets = gets.join().map_err(|_| "the reading client panicked".to_string())??;
            commits?;
            if gets.is_empty() {
                return Err("no `get` completed while a delete commit ran".to_string());
            }
            Ok(gets)
        })?;
        metrics.insert("daemon.query_during_commit_p50_us", Stat::median(&during).scaled(1e3));
        Ok(())
    }
}
