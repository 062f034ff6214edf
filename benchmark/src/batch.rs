//! The batch workloads: `run_cluster` (failure-free and under one SIGKILL
//! per strategy) and `run_local`, their references, and their traced
//! per-layer probes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cluster::{ClusterConfig, ClusterRun, ClusterStrategy, KillPlan, Message, Record};
use dataflow::codec::encode_to_vec;
use dataflow::stats::RunStats;
use graphs::Graph;
use telemetry::{MemorySink, SinkHandle};

use crate::ledger::Workload;
use crate::replay;
use crate::stats::Stat;
use crate::{ms_since, sample, time_reps, trace_overhead, Metrics, Scale, Tally};

pub const PARTITIONS: usize = 4;
pub const WORKERS: usize = 2;
pub const MAX_ITERATIONS: u32 = 100;
/// The paper's experiment: one worker of two dies mid-run.
const KILL: KillPlan = KillPlan { superstep: 3, worker: 1 };
/// Per-vertex tolerance against the dense power iteration.
const RANK_TOLERANCE: f64 = 1e-6;

enum Reference {
    /// `labels[v]`: the minimum vertex id of `v`'s component.
    Labels(Vec<u64>),
    /// `ranks[v]`, by the harness's own dense power iteration.
    Ranks(Vec<f64>),
}

/// One batch workload's generated inputs.
pub struct Batch {
    workload: Workload,
    pub graph: Graph,
    reference: Reference,
    worker_log: PathBuf,
    /// The first PageRank result: later reps must equal it bit for bit.
    pinned: Option<Vec<Record>>,
}

impl Batch {
    /// Generate the graph and its reference solution from `seed`.
    pub fn generate(workload: Workload, vertices: usize, seed: u64, worker_log: PathBuf) -> Self {
        let graph = graphs::generators::preferential_attachment(vertices, 3, seed);
        let reference = match workload {
            Workload::PagerankLocal => Reference::Ranks(dense_pagerank(&graph)),
            _ => Reference::Labels(graphs::exact_components(&graph)),
        };
        Batch { workload, graph, reference, worker_log, pinned: None }
    }

    fn program(&self) -> &'static str {
        match self.workload {
            Workload::PagerankLocal => "pagerank",
            _ => "cc",
        }
    }

    /// `ClusterConfig::new` timing defaults. The worker command is a wrapper
    /// that sends the worker's stderr (one `optirec-worker …` line per
    /// superstep) to the log file; `exec` keeps the pid, so the coordinator's
    /// kill and reap reach the worker itself.
    fn config(&self, workers: usize, strategy: ClusterStrategy) -> Result<ClusterConfig, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cfg =
            ClusterConfig::new(workers, PARTITIONS, MAX_ITERATIONS).with_strategy(strategy);
        cfg.worker_cmd = vec![
            "sh".to_string(),
            "-c".to_string(),
            "exec \"$0\" worker 2>>\"$1\"".to_string(),
            exe.display().to_string(),
            self.worker_log.display().to_string(),
        ];
        Ok(cfg)
    }

    /// One timed and checked `run_cluster("cc")` call, spawn, load and
    /// teardown included; returns its wall time in ms.
    fn cluster_run(
        &mut self,
        workers: usize,
        strategy: ClusterStrategy,
        kill: bool,
        sink: &SinkHandle,
    ) -> Result<(f64, RunStats), String> {
        let mut cfg = self.config(workers, strategy)?;
        if kill {
            cfg = cfg.with_kill(KILL);
        }
        let started = Instant::now();
        let run = cluster::run_cluster("cc", &self.graph, cfg, sink.clone());
        let wall = ms_since(started);
        let run = run.map_err(|e| format!("run_cluster: {e}"))?;
        if kill && run.stats.failures().next().is_none() {
            return Err("the planned SIGKILL never registered as a failure".to_string());
        }
        self.verify(&run)?;
        Ok((wall, run.stats))
    }

    /// One timed and checked `run_local` call.
    fn local_run(&mut self, program: &str, sink: &SinkHandle) -> Result<(f64, RunStats), String> {
        let started = Instant::now();
        let run =
            cluster::run_local(program, &self.graph, PARTITIONS, MAX_ITERATIONS, sink.clone());
        let wall = ms_since(started);
        let run = run.map_err(|e| format!("run_local: {e}"))?;
        self.verify(&run)?;
        Ok((wall, run.stats))
    }

    /// The workload's timed operation; the sample is its wall time.
    fn op(&mut self, sink: &SinkHandle) -> Result<(f64, RunStats), String> {
        match self.workload {
            Workload::PagerankLocal => self.local_run("pagerank", sink),
            w => {
                let strategy = w.strategy().expect("cluster workloads have a strategy");
                self.cluster_run(WORKERS, strategy, w.is_kill(), sink)
            }
        }
    }

    /// A run that errors, hits the iteration cap or returns a wrong answer
    /// is a failed operation.
    fn verify(&mut self, run: &ClusterRun) -> Result<(), String> {
        if !run.stats.converged {
            return Err(format!("hit the iteration cap of {MAX_ITERATIONS}"));
        }
        if run.values.len() != self.graph.num_vertices() {
            return Err(format!(
                "{} records for {} vertices",
                run.values.len(),
                self.graph.num_vertices()
            ));
        }
        match &self.reference {
            Reference::Labels(labels) => {
                let wrong = run
                    .values
                    .iter()
                    .enumerate()
                    .find(|&(i, &(v, label))| v != i as u64 || label != labels[i]);
                if let Some((i, got)) = wrong {
                    return Err(format!("vertex {i}: got {got:?}, exact label {}", labels[i]));
                }
            }
            Reference::Ranks(ranks) => {
                for (i, &(v, bits)) in run.values.iter().enumerate() {
                    let rank = f64::from_bits(bits);
                    if v != i as u64 || (rank - ranks[i]).abs() > RANK_TOLERANCE {
                        return Err(format!(
                            "vertex {i}: got ({v}, {rank}), dense rank {}",
                            ranks[i]
                        ));
                    }
                }
                match &self.pinned {
                    Some(first) if *first != run.values => {
                        return Err("ranks differ bitwise from the first rep".to_string());
                    }
                    Some(_) => {}
                    None => self.pinned = Some(run.values.clone()),
                }
            }
        }
        Ok(())
    }

    /// The untraced loop behind `latency_ms`.
    pub fn measure(&mut self, scale: &Scale, tally: &mut Tally) -> Result<Vec<f64>, String> {
        let sink = SinkHandle::disabled();
        tally.record(self.op(&sink).map(drop)); // warm-up: binary page-in, first accept
        sample(scale, 1.0, tally, || self.op(&sink).map(|(wall, _)| wall))
    }

    /// The traced run: the operation with telemetry off, then on, then the
    /// harness-side probes of every layer this workload exercises.
    pub fn trace(&mut self, scale: &Scale, tally: &mut Tally) -> Result<Metrics, String> {
        let workload = self.workload;
        let mut metrics = Metrics::new();

        let off = SinkHandle::disabled();
        tally.record(self.op(&off).map(drop));
        let untraced = sample(scale, 0.25, tally, || self.op(&off).map(|(wall, _)| wall))?;

        let memory = Arc::new(MemorySink::new());
        let on = SinkHandle::new(memory.clone());
        let mut runs: Vec<RunStats> = Vec::new();
        let traced = sample(scale, 0.25, tally, || {
            let (wall, stats) = self.op(&on)?;
            runs.push(stats);
            Ok(wall)
        })?;
        on.flush();
        let ops = runs.len() as f64;
        let untraced = trace_overhead(&untraced, &traced, &memory, ops, &mut metrics);

        // cluster::coordinator, from the RunStats the traced runs returned.
        let supersteps: f64 = runs.iter().map(|s| f64::from(s.supersteps())).sum();
        let step_ms: Vec<f64> = runs
            .iter()
            .flat_map(|s| s.iterations.iter().map(|i| i.duration.as_secs_f64() * 1e3))
            .collect();
        let step_total_ms: f64 = step_ms.iter().sum();
        let superstep_mean_ms = step_total_ms / supersteps;
        let shuffled: u64 =
            runs.iter().flat_map(|s| &s.iterations).map(|i| i.records_shuffled).sum();
        metrics.insert("coordinator.superstep_p50_ms", Stat::median(&step_ms));
        metrics.insert("coordinator.superstep_mean_ms", Stat::single(superstep_mean_ms));
        metrics.insert(
            "coordinator.startup_ms",
            Stat::single(Stat::median(&traced).value - step_total_ms / ops),
        );
        metrics.insert(
            "coordinator.edges_per_s",
            Stat::single(shuffled as f64 / (step_total_ms / 1e3)),
        );

        if workload != Workload::PagerankLocal {
            self.trace_workers(&on, supersteps, ops, &mut metrics);
            self.trace_load_program(&mut metrics);
        }
        if workload.is_kill() {
            self.trace_recovery(scale, tally, &on, &runs, untraced.value, &mut metrics)?;
        }
        if matches!(workload, Workload::CcCluster | Workload::PagerankLocal) {
            let wire = workload == Workload::CcCluster;
            let replayed = replay::replay(self.program(), &self.graph, wire, &mut metrics)?;
            let expected = f64::from(runs[0].supersteps());
            if replayed.supersteps != expected {
                return Err(format!(
                    "the replay took {} supersteps, the run {expected}",
                    replayed.supersteps
                ));
            }
            let mut result = ClusterRun { values: replayed.state, stats: runs[0].clone() };
            result.values.sort_unstable();
            self.verify(&result).map_err(|e| format!("the replay's result is wrong: {e}"))?;
        }
        if workload == Workload::CcCluster {
            self.trace_scaling(scale, tally, untraced.value, &mut metrics)?;
            // The reconciliation: a superstep is the slower worker's spans
            // plus a remainder no span covers -- inbox assembly, final
            // flushes, barrier idle, control round trip -- that is itself
            // reported and, in `run`, bounded.
            let attributed: f64 = [
                "worker.compute_ms_per_superstep",
                "worker.shuffle_ms_per_superstep",
                "worker.exchange_ms_per_superstep",
            ]
            .iter()
            .map(|name| metrics[name].value)
            .sum();
            let unattributed = superstep_mean_ms - attributed;
            metrics.insert("ledger.unattributed_ms_per_superstep", Stat::single(unattributed));
            metrics.insert(
                "ledger.unattributed_share",
                Stat::single(unattributed / superstep_mean_ms),
            );
        }
        Ok(metrics)
    }

    /// cluster::worker and the sockets, read back from the registry the
    /// traced runs filled.
    fn trace_workers(&self, on: &SinkHandle, supersteps: f64, ops: f64, metrics: &mut Metrics) {
        let registry = on.metrics();
        let per_superstep_ms = |name: &str, worker: usize| -> f64 {
            let track = registry.partitioned_histogram(name, WORKERS);
            track.partition(worker).map_or(0.0, |h| h.sum() as f64) / 1e6 / supersteps
        };
        // A superstep ends when the slower worker is done, so the slower
        // worker's spans are the attributed part of the barrier path.
        let (compute, shuffle, exchange) = (0..WORKERS)
            .map(|w| {
                (
                    per_superstep_ms("worker_compute_ns", w),
                    per_superstep_ms("worker_shuffle_ns", w),
                    per_superstep_ms("worker_exchange_ns", w),
                )
            })
            .max_by(|a, b| (a.0 + a.1 + a.2).total_cmp(&(b.0 + b.1 + b.2)))
            .expect("at least one worker");
        metrics.insert("worker.compute_ms_per_superstep", Stat::single(compute));
        metrics.insert("worker.shuffle_ms_per_superstep", Stat::single(shuffle));
        metrics.insert("worker.exchange_ms_per_superstep", Stat::single(exchange));
        metrics.insert(
            "net.data_bytes_per_superstep",
            Stat::single(registry.counter("net/data_bytes_out").get() as f64 / supersteps),
        );
        metrics.insert(
            "net.control_bytes_out",
            Stat::single(registry.counter("net/bytes_out").get() as f64 / ops),
        );
        metrics.insert(
            "net.heartbeat_rtt_mean_us",
            Stat::single(registry.histogram("net/heartbeat_rtt_ns").mean() / 1e3),
        );
    }

    /// cluster::protocol: what shipping one worker's partitions costs to
    /// encode, at start-up and again on every respawn.
    fn trace_load_program(&self, metrics: &mut Metrics) {
        let rows = cluster::program::partition_rows(&self.graph, PARTITIONS);
        let adjacency = (0..PARTITIONS)
            .filter(|pid| pid % WORKERS == KILL.worker)
            .map(|pid| (pid as u64, rows[pid].clone()))
            .collect();
        let message = Message::LoadProgram {
            program: "cc".to_string(),
            n: self.graph.num_vertices() as u64,
            adjacency,
        };
        let mut bytes = 0;
        let encode_ms = time_reps(3, || bytes = encode_to_vec(&message).len());
        metrics.insert("protocol.load_program_encode_ms", Stat::median(&encode_ms));
        metrics.insert("protocol.load_program_bytes", Stat::single(bytes as f64));
    }

    /// What the kill cost, from the registry and RunStats of the traced
    /// runs, beside the same strategy's failure-free run.
    fn trace_recovery(
        &mut self,
        scale: &Scale,
        tally: &mut Tally,
        on: &SinkHandle,
        runs: &[RunStats],
        kill_latency_ms: f64,
        metrics: &mut Metrics,
    ) -> Result<(), String> {
        let workload = self.workload;
        let strategy = workload.strategy().expect("kill workloads have a strategy");
        let registry = on.metrics();
        let ops = runs.len() as f64;
        let mean = |f: &dyn Fn(&RunStats) -> f64| runs.iter().map(f).sum::<f64>() / ops;
        metrics.insert(
            "recovery.detect_ms",
            Stat::single(registry.histogram("recovery/detect_ns").mean() / 1e6),
        );
        metrics.insert(
            "recovery.respawn_ms",
            Stat::single(registry.histogram("recovery/respawn_ns").mean() / 1e6),
        );
        metrics.insert(
            "recovery.reshipped_bytes",
            Stat::single(registry.counter("recovery/reshipped_bytes").get() as f64 / ops),
        );
        metrics.insert(
            "recovery.handler_ms",
            Stat::single(mean(&|s| s.total_recovery_duration().as_secs_f64() * 1e3)),
        );

        let off = SinkHandle::disabled();
        let mut failure_free = |batch: &mut Batch, strategy| -> Result<(Stat, f64), String> {
            let mut supersteps = 0.0;
            let samples = sample(scale, 0.0, tally, || {
                let (wall, stats) = batch.cluster_run(WORKERS, strategy, false, &off)?;
                supersteps = f64::from(stats.supersteps());
                Ok(wall)
            })?;
            Ok((Stat::median(&samples).scaled(1e-3), supersteps))
        };
        let (ff_optimistic, ff_supersteps) = failure_free(self, ClusterStrategy::Optimistic)?;
        metrics.insert("recovery.ff_optimistic_ttf_s", ff_optimistic);
        metrics.insert(
            "recovery.extra_supersteps",
            Stat::single(mean(&|s| f64::from(s.supersteps())) - ff_supersteps),
        );
        let ff_own = if workload == Workload::KillOptimistic {
            ff_optimistic
        } else {
            let (ff_own, _) = failure_free(self, strategy)?;
            metrics.insert("recovery.ff_ttf_s", ff_own);
            metrics
                .insert("recovery.ff_overhead", Stat::single(ff_own.value / ff_optimistic.value));
            metrics.insert(
                "recovery.checkpoint_bytes",
                Stat::single(mean(&|s| s.total_checkpoint_bytes() as f64)),
            );
            metrics.insert(
                "recovery.checkpoint_write_ms",
                Stat::single(mean(&|s| s.total_checkpoint_duration().as_secs_f64() * 1e3)),
            );
            ff_own
        };
        metrics.insert("recovery.kill_over_ff", Stat::single(kill_latency_ms / 1e3 / ff_own.value));

        if workload == Workload::KillOptimistic {
            // The lineage baseline is not the paper's comparison and has no
            // workload of its own; its kill run is recorded here.
            let restart = sample(scale, 0.0, tally, || {
                self.cluster_run(WORKERS, ClusterStrategy::Restart, true, &off)
                    .map(|(wall, _)| wall)
            })?;
            metrics.insert("recovery.restart_ttf_s", Stat::median(&restart).scaled(1e-3));

            let program = cluster::lookup("cc").expect("cc is registered");
            let rows = cluster::program::partition_rows(&self.graph, PARTITIONS);
            let n = self.graph.num_vertices() as u64;
            let compensate_ms = time_reps(3, || {
                for pid in (0..PARTITIONS).filter(|pid| pid % WORKERS == KILL.worker) {
                    std::hint::black_box(program.compensate_partition(&rows[pid], n));
                }
            });
            metrics.insert("program.compensate_partition_ms", Stat::median(&compensate_ms));
        }
        Ok(())
    }

    /// The single-process baseline and the only scaling point two cores
    /// support: the same CC in-process and on one worker process.
    fn trace_scaling(
        &mut self,
        scale: &Scale,
        tally: &mut Tally,
        cluster_latency_ms: f64,
        metrics: &mut Metrics,
    ) -> Result<(), String> {
        let off = SinkHandle::disabled();
        let local = sample(scale, 0.0, tally, || self.local_run("cc", &off).map(|(wall, _)| wall))?;
        let one_worker = sample(scale, 0.0, tally, || {
            self.cluster_run(1, ClusterStrategy::Optimistic, false, &off).map(|(wall, _)| wall)
        })?;
        let local = Stat::median(&local);
        metrics.insert("coordinator.local_ttf_s", local.scaled(1e-3));
        metrics.insert("coordinator.w1_ttf_s", Stat::median(&one_worker).scaled(1e-3));
        metrics.insert(
            "coordinator.cluster_over_local",
            Stat::single(cluster_latency_ms / local.value),
        );
        Ok(())
    }
}

/// Dense power iteration with the programs' constants and termination
/// rule, written against the graph alone: the reference `pagerank-local`
/// is held to.
fn dense_pagerank(graph: &Graph) -> Vec<f64> {
    let n = graph.num_vertices();
    let damping = cluster::program::PAGERANK_DAMPING;
    let epsilon = cluster::program::PAGERANK_EPSILON;
    let teleport = (1.0 - damping) / n as f64;
    let mut ranks = vec![1.0 / n as f64; n];
    for _ in 0..MAX_ITERATIONS {
        let mut sums = vec![0.0; n];
        for v in graph.vertices() {
            let targets = graph.neighbors(v);
            let share = ranks[v as usize] / targets.len() as f64;
            for &u in targets {
                sums[u as usize] += share;
            }
        }
        let mut changed = false;
        for (rank, sum) in ranks.iter_mut().zip(sums) {
            let new = teleport + damping * sum;
            changed |= (new - *rank).abs() > epsilon;
            *rank = new;
        }
        if !changed {
            break;
        }
    }
    ranks
}
