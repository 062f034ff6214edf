//! The serving engine: epoch lifecycle, workset seeding, and
//! between-convergence recovery.
//!
//! An engine converges once at bootstrap (epoch 0), then alternates between
//! accepting staged edge mutations and `commit`s. Staging applies a mutation
//! to the live graph at once; each commit opens a new epoch and re-runs the
//! iteration *incrementally*. Connected Components keeps its iteration
//! state resident: the solution maps the last epoch handed back are seeded
//! in place (delete-touched components reset to their initial labels,
//! mirroring `FixComponents`; the workset is the mutated vertices), the one
//! CC plan steps them in place, joining against the live graph itself
//! (optimistic recovery keeps no restart origin, so nothing copies them),
//! and the served vector is patched at the entries the run changed. The
//! served vector is copy-on-write in fixed chunks ([`ChunkedVec`]): a
//! snapshot shares every chunk, and a patch copies only the chunks it
//! writes that a snapshot still holds — so an insert commit, publish
//! included, costs what its workset and its patch touch, not what the
//! graph holds. PageRank
//! warm-starts the power iteration over the live graph from the previous
//! fixpoint renormalised over the new vertex set. Both re-converge in far
//! fewer supersteps than a cold run.
//!
//! Failures between convergences reuse the batch machinery unchanged: the
//! UDF-panic, deterministic-loss, and MTBF injectors run inside the epoch's
//! dataflow and are compensated by the optimistic handler; the cluster
//! SIGKILL injector runs the epoch on real worker processes warm-started
//! from the previous fixpoint. The pre-batch solution set is only replaced
//! once the epoch's run succeeds — a failed commit leaves the batch staged
//! and the epoch unopened so the commit can simply be retried, and never
//! corrupts what queries see.

use std::collections::BTreeSet;
use std::time::Instant;

use algos::common::FtConfig;
use algos::connected_components::{self as cc, CcConfig, CcState, Label};
use algos::pagerank::{self as pr, PrConfig, Rank};
use cluster::{ClusterConfig, KillPlan, ScaleEvent};
use dataflow::dataset::Partitions;
use dataflow::ft::{solution_sets, SolutionSets};
use dataflow::partition::hash_partition;
use dataflow::stats::RunStats;
use graphs::{Graph, VertexId};
use recovery::scenario::FailureScenario;
use telemetry::{JournalEvent, SinkHandle};

use crate::chunked::ChunkedVec;
use crate::live_graph::LiveGraph;

/// Which iterative algorithm the engine maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeAlgorithm {
    /// Incremental Connected Components over an undirected live graph.
    ConnectedComponents,
    /// Incremental PageRank over a directed live graph.
    PageRank,
}

/// Failure injected into one specific epoch's (re-)convergence.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochInjection {
    /// The epoch to fail: 0 is the bootstrap convergence, `k > 0` the
    /// re-convergence of the `k`-th commit.
    pub epoch: u32,
    /// How the epoch fails.
    pub kind: InjectionKind,
}

/// The existing failure injectors, lifted to the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionKind {
    /// Panic once inside the iteration body at this chronological
    /// superstep of the epoch's run (caught by the executor, converted to a
    /// partition failure, compensated).
    Panic {
        /// Chronological superstep within the epoch's run.
        superstep: u32,
    },
    /// Deterministically destroy partitions at a superstep of the epoch.
    Fail {
        /// Chronological superstep within the epoch's run.
        superstep: u32,
        /// Partitions to destroy.
        partitions: Vec<usize>,
    },
    /// Seeded MTBF-style random failures throughout the epoch's run.
    Mtbf {
        /// Per-superstep failure probability.
        probability: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Run the epoch on real worker processes and SIGKILL one of them
    /// mid-run; the coordinator detects the loss at the network level and
    /// compensates, warm-started state and all.
    ClusterKill {
        /// Number of worker processes.
        workers: usize,
        /// Chronological superstep at which to kill.
        superstep: u32,
        /// Index of the worker to kill.
        worker: usize,
    },
}

/// Elastic worker range for cluster-backed epochs
/// (`optirec serve --min-workers/--max-workers`).
///
/// When set, every epoch — bootstrap included — runs on real worker
/// processes, and the [`ElasticController`] decides how many. Planned
/// rescales fire at the epoch's first superstep barrier and ride the same
/// `LoadProgram` reship path recovery uses, journalled as
/// `RebalanceStarted`/`WorkerJoined`/`RebalanceCompleted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticRange {
    /// Smallest cluster the controller will shrink to (also the bootstrap
    /// size). Must be at least 1.
    pub min_workers: usize,
    /// Largest cluster the controller will grow to. Must be at least
    /// `min_workers` and at most the parallelism.
    pub max_workers: usize,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The maintained algorithm.
    pub algorithm: ServeAlgorithm,
    /// Partitions per epoch run.
    pub parallelism: usize,
    /// Superstep cap per epoch run.
    pub max_iterations: u32,
    /// PageRank termination threshold (ignored by CC).
    pub epsilon: f64,
    /// Journal sink shared by the engine and every epoch's dataflow.
    pub telemetry: SinkHandle,
    /// Optional failure injection into one epoch.
    pub inject: Option<EpochInjection>,
    /// Optional elastic worker range: when set, epochs run on worker
    /// processes sized by the load-driven [`ElasticController`].
    pub elastic: Option<ElasticRange>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            algorithm: ServeAlgorithm::ConnectedComponents,
            parallelism: 4,
            max_iterations: 200,
            epsilon: 1e-9,
            telemetry: SinkHandle::disabled(),
            inject: None,
            elastic: None,
        }
    }
}

/// Epoch wall-clock (milliseconds) above which the controller grows the
/// cluster by one worker.
pub const GROW_ABOVE_MS: u64 = 500;

/// Epoch wall-clock (milliseconds) below which the controller shrinks the
/// cluster by one worker toward the minimum.
pub const SHRINK_BELOW_MS: u64 = 50;

/// The load-driven scaling controller: a pure state machine deciding how
/// many workers the next epoch runs on.
///
/// It tracks the worker count the last epoch actually ran with (`workers`)
/// and the desired count for the next one (`target`). The two diverge when
/// an operator issues a `scale N` verb or when an epoch's wall time crosses
/// the [`GROW_ABOVE_MS`]/[`SHRINK_BELOW_MS`] thresholds; the next committed
/// epoch then starts on the old membership and rescales to the target at
/// its first superstep barrier — a planned rebalance, not a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticController {
    min: usize,
    max: usize,
    /// Worker count of the last epoch that ran (rescales included).
    workers: usize,
    /// Desired worker count for the next epoch.
    target: usize,
}

impl ElasticController {
    /// A controller starting (and bootstrapping) at `range.min_workers`.
    pub fn new(range: ElasticRange) -> Self {
        ElasticController {
            min: range.min_workers,
            max: range.max_workers,
            workers: range.min_workers,
            target: range.min_workers,
        }
    }

    /// Worker count the cluster currently has (last applied).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Desired worker count for the next epoch.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Operator override (`scale N`): clamps to the elastic range and
    /// returns the effective target.
    pub fn set_target(&mut self, n: usize) -> usize {
        self.target = n.clamp(self.min, self.max);
        self.target
    }

    /// The next epoch's cluster plan: the worker count to start on, plus
    /// the rescale target to apply at the epoch's first superstep barrier
    /// (`None` when the cluster is already at target).
    pub fn plan(&self) -> (usize, Option<usize>) {
        (self.workers, (self.target != self.workers).then_some(self.target))
    }

    /// Record a successfully finished epoch (its planned rescale, if any,
    /// has been applied) and nudge the target by its wall time: grow one
    /// worker under latency pressure, shrink one toward the minimum when
    /// nearly idle.
    pub fn observe(&mut self, epoch_wall_ms: u64) {
        self.workers = self.target;
        if epoch_wall_ms > GROW_ABOVE_MS && self.target < self.max {
            self.target += 1;
        } else if epoch_wall_ms < SHRINK_BELOW_MS && self.target > self.min {
            self.target -= 1;
        }
    }
}

/// The maintained solution set, dense by vertex: entry `v` is vertex `v`'s.
/// Clones share the storage chunk by chunk ([`ChunkedVec`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Solution {
    /// The component label of every vertex.
    Components(ChunkedVec<VertexId>),
    /// The rank of every vertex.
    Ranks(ChunkedVec<f64>),
}

/// A point-query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointAnswer {
    /// The vertex's component label (CC).
    Label(VertexId),
    /// The vertex's rank (PageRank).
    Rank(f64),
}

/// One top-N entry: for CC `(component label, size)`, for PageRank
/// `(vertex, rank)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopEntry {
    /// Component label (CC) or vertex id (PageRank).
    pub id: VertexId,
    /// Component size (CC) or rank (PageRank).
    pub score: f64,
}

/// An immutable view of the maintained solution, to query concurrently
/// while the next batch re-converges. A clone copies chunk handles only, and
/// a later commit copies the chunks it writes instead of writing into the
/// clone's.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The epoch this solution belongs to.
    pub epoch: u32,
    /// The solution set.
    pub solution: Solution,
}

impl Snapshot {
    /// Vertices in the solution set.
    pub fn vertices(&self) -> usize {
        match &self.solution {
            Solution::Components(labels) => labels.len(),
            Solution::Ranks(ranks) => ranks.len(),
        }
    }

    /// Point query: the vertex's label/rank, `None` for unknown vertices.
    pub fn point(&self, v: VertexId) -> Option<PointAnswer> {
        match &self.solution {
            Solution::Components(labels) => labels.get(v).map(|&label| PointAnswer::Label(label)),
            Solution::Ranks(ranks) => ranks.get(v).map(|&rank| PointAnswer::Rank(rank)),
        }
    }

    /// Top-N query: the `n` largest components (size desc, label asc) or the
    /// `n` highest-ranked vertices (rank desc, vertex asc).
    pub fn top(&self, n: usize) -> Vec<TopEntry> {
        match &self.solution {
            Solution::Components(labels) => {
                let mut sizes: std::collections::BTreeMap<VertexId, u64> =
                    std::collections::BTreeMap::new();
                for &label in labels.iter() {
                    *sizes.entry(label).or_insert(0) += 1;
                }
                let mut entries: Vec<(VertexId, u64)> = sizes.into_iter().collect();
                entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                entries
                    .into_iter()
                    .take(n)
                    .map(|(id, size)| TopEntry { id, score: size as f64 })
                    .collect()
            }
            Solution::Ranks(ranks) => {
                let mut entries: Vec<Rank> = ranks.entries().collect();
                entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                entries.into_iter().take(n).map(|(id, score)| TopEntry { id, score }).collect()
            }
        }
    }
}

/// What one committed epoch did.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// The epoch that was opened (bootstrap reports epoch 0).
    pub epoch: u32,
    /// Effective edge inserts in the batch.
    pub inserts: u64,
    /// Effective edge deletes in the batch.
    pub deletes: u64,
    /// Vertices seeded into the workset / warm start.
    pub seeded: u64,
    /// Supersteps the (re-)convergence took.
    pub supersteps: u32,
    /// Whether the run converged below the cap.
    pub converged: bool,
}

/// The serving engine. See the module docs for the epoch lifecycle.
pub struct ServeEngine {
    config: ServeConfig,
    live: LiveGraph,
    /// The last committed epoch and its solution, dense by vertex: what
    /// queries read and [`ServeEngine::snapshot`] shares out.
    served: Snapshot,
    /// CC only: the iteration's own solution maps, kept between epochs so a
    /// commit resumes from them. `None` when they have to be rebuilt from
    /// `served` first: after an epoch that ran on the cluster, and after one
    /// that failed (its maps were seeded for a batch that did not commit).
    resident: Option<SolutionSets<VertexId, VertexId>>,
    staged_inserts: Vec<(VertexId, VertexId)>,
    staged_deletes: Vec<(VertexId, VertexId)>,
    /// Present iff `config.elastic` is: sizes every cluster-backed epoch.
    elastic: Option<ElasticController>,
}

impl ServeEngine {
    /// Bootstrap: converge cold over the initial graph (epoch 0). CC
    /// expects an undirected graph, PageRank a directed one — same contract
    /// as the batch runners. With [`ServeConfig::elastic`] set the bootstrap
    /// (and every later epoch) runs on worker processes, starting at
    /// `min_workers`.
    pub fn bootstrap(config: ServeConfig, graph: &Graph) -> Result<(Self, EpochReport), String> {
        let elastic = match config.elastic {
            Some(range) => {
                if range.min_workers == 0 {
                    return Err("elastic range needs at least one worker".to_string());
                }
                if range.min_workers > range.max_workers {
                    return Err(format!(
                        "elastic range is empty: min {} > max {}",
                        range.min_workers, range.max_workers
                    ));
                }
                if range.max_workers > config.parallelism {
                    return Err(format!(
                        "elastic max {} exceeds parallelism {}",
                        range.max_workers, config.parallelism
                    ));
                }
                Some(ElasticController::new(range))
            }
            None => None,
        };
        let solution = match config.algorithm {
            ServeAlgorithm::ConnectedComponents => Solution::Components(ChunkedVec::default()),
            ServeAlgorithm::PageRank => Solution::Ranks(ChunkedVec::default()),
        };
        let mut engine = ServeEngine {
            config,
            live: LiveGraph::from_graph(graph),
            served: Snapshot { epoch: 0, solution },
            resident: None,
            staged_inserts: Vec::new(),
            staged_deletes: Vec::new(),
            elastic,
        };
        let started = Instant::now();
        let stats = engine.converge(None, 0)?;
        if let Some(controller) = &mut engine.elastic {
            controller.observe(started.elapsed().as_millis() as u64);
        }
        let report = EpochReport {
            epoch: 0,
            inserts: 0,
            deletes: 0,
            seeded: graph.num_vertices() as u64,
            supersteps: stats.supersteps(),
            converged: stats.converged,
        };
        engine.config.telemetry.emit(|| JournalEvent::Reconverge {
            epoch: 0,
            supersteps: report.supersteps,
            converged: report.converged,
        });
        Ok((engine, report))
    }

    /// The engine's journal sink.
    pub fn telemetry(&self) -> &SinkHandle {
        &self.config.telemetry
    }

    /// The maintained algorithm.
    pub fn algorithm(&self) -> ServeAlgorithm {
        self.config.algorithm
    }

    /// The current epoch (0 until the first commit).
    pub fn epoch(&self) -> u32 {
        self.served.epoch
    }

    /// Vertices in the maintained solution.
    pub fn vertices(&self) -> usize {
        self.served.vertices()
    }

    /// Number of staged (uncommitted) mutations.
    pub fn staged(&self) -> usize {
        self.staged_inserts.len() + self.staged_deletes.len()
    }

    /// Current cluster worker count, `None` when the engine is not elastic.
    pub fn workers(&self) -> Option<usize> {
        self.elastic.as_ref().map(ElasticController::workers)
    }

    /// The controller's target worker count for the next epoch, `None` when
    /// the engine is not elastic.
    pub fn scale_target(&self) -> Option<usize> {
        self.elastic.as_ref().map(ElasticController::target)
    }

    /// The `scale N` verb: set the target worker count for the next epoch,
    /// clamped to the elastic range. The rescale itself happens at the next
    /// commit's first superstep barrier. Errors when the engine was started
    /// without an elastic range.
    pub fn set_scale_target(&mut self, n: usize) -> Result<usize, String> {
        match &mut self.elastic {
            Some(controller) => Ok(controller.set_target(n)),
            None => {
                Err("engine is not elastic (serve without --min-workers/--max-workers)".to_string())
            }
        }
    }

    /// The maintained solution, for readers that outlive the next commit
    /// (the daemon publishes one per epoch). It shares the engine's chunks,
    /// O(n / [`crate::chunked::CHUNK`]) handles: a later commit copies a
    /// chunk before writing to one a snapshot still holds, so the snapshot
    /// keeps answering for its own epoch.
    pub fn snapshot(&self) -> Snapshot {
        self.served.clone()
    }

    /// Stage an edge insert. Returns `false` (and stages nothing) when the
    /// edge is already present.
    pub fn stage_insert(&mut self, u: VertexId, v: VertexId) -> bool {
        let changed = self.live.insert(u, v);
        if changed {
            self.staged_inserts.push(self.canonical(u, v));
        }
        changed
    }

    /// Stage an edge delete. Returns `false` (and stages nothing) when the
    /// edge is not present.
    pub fn stage_delete(&mut self, u: VertexId, v: VertexId) -> bool {
        let changed = self.live.remove(u, v);
        if changed {
            self.staged_deletes.push(self.canonical(u, v));
        }
        changed
    }

    fn canonical(&self, u: VertexId, v: VertexId) -> (VertexId, VertexId) {
        if self.live.is_directed() || u <= v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Point query against the maintained solution (journalled).
    pub fn point(&self, v: VertexId) -> Option<PointAnswer> {
        let answer = self.served.point(v);
        self.config.telemetry.emit(|| JournalEvent::Query {
            epoch: self.served.epoch,
            kind: "point".to_string(),
            results: answer.is_some() as u64,
        });
        answer
    }

    /// Top-N query against the maintained solution (journalled).
    pub fn top(&self, n: usize) -> Vec<TopEntry> {
        let entries = self.served.top(n);
        self.config.telemetry.emit(|| JournalEvent::Query {
            epoch: self.served.epoch,
            kind: "top".to_string(),
            results: entries.len() as u64,
        });
        entries
    }

    /// Apply the staged batch: open a new epoch and incrementally
    /// re-converge from the previous fixpoint. The live graph already holds
    /// the batch's edges (staging applies them); a CC epoch seeds the
    /// resident solution maps in place and runs over the live graph, so
    /// an insert-only commit costs what its workset touches and the chunks
    /// its patch writes: optimistic recovery keeps no restart origin, and
    /// no copy of the maps or of the served vector is made. The served
    /// solution is replaced — patched, for CC — only when the run succeeds.
    ///
    /// On a convergence error the engine serves what it served before the
    /// call — the batch stays staged and the epoch is not advanced — so a
    /// retried `commit` re-processes the whole batch (whose edges the live
    /// graph already holds) instead of silently serving the stale pre-batch
    /// fixpoint over a mutated graph. The failed attempt leaves a
    /// `MutationBatch` event with no matching `Reconverge` in the journal;
    /// the retry re-journals the batch under the same epoch.
    pub fn commit(&mut self) -> Result<EpochReport, String> {
        let epoch = self.served.epoch + 1;
        let inserts = self.staged_inserts.len() as u64;
        let deletes = self.staged_deletes.len() as u64;
        // A pending `scale N` makes even an empty commit run its epoch: the
        // rescale fires at the epoch's first barrier, so committing is how
        // an operator forces the resize through.
        let pending_rescale = self.elastic.as_ref().is_some_and(|c| c.plan().1.is_some());
        let report = if inserts == 0 && deletes == 0 && !pending_rescale {
            // Nothing changed: the previous fixpoint is still the fixpoint,
            // and nothing is built or seeded to find that out.
            self.config.telemetry.emit(|| JournalEvent::MutationBatch {
                epoch,
                inserts: 0,
                deletes: 0,
                seeded: 0,
            });
            EpochReport { epoch, inserts: 0, deletes: 0, seeded: 0, supersteps: 0, converged: true }
        } else {
            let (seed, seeded) = self.seed();
            self.config.telemetry.emit(|| JournalEvent::MutationBatch {
                epoch,
                inserts,
                deletes,
                seeded,
            });
            let started = Instant::now();
            let stats = self.converge(Some(seed), epoch)?;
            if let Some(controller) = &mut self.elastic {
                controller.observe(started.elapsed().as_millis() as u64);
            }
            EpochReport {
                epoch,
                inserts,
                deletes,
                seeded,
                supersteps: stats.supersteps(),
                converged: stats.converged,
            }
        };
        self.staged_inserts.clear();
        self.staged_deletes.clear();
        self.served.epoch = epoch;
        self.config.telemetry.emit(|| JournalEvent::Reconverge {
            epoch,
            supersteps: report.supersteps,
            converged: report.converged,
        });
        Ok(report)
    }

    /// Compute the incremental seed of the staged batch against the served
    /// fixpoint, and how many vertices it seeds.
    ///
    /// CC mirrors `FixComponents` between convergences: every vertex of a
    /// component touched by a delete is reset to its initial `(v, v)` label,
    /// and the workset is seeded with the reset vertices, their surviving
    /// neighbours (which hold correct labels but stopped propagating), and
    /// the endpoints of inserted edges. Without deletes that is the insert
    /// endpoints and nothing else — no pass over the vertices. PageRank
    /// renormalises the previous fixpoint over the new vertex set.
    fn seed(&self) -> (EpochSeed, u64) {
        let n = self.live.num_vertices();
        match &self.served.solution {
            Solution::Components(prev) => {
                // Served labels, with (v, v) for vertices the batch named.
                let label = |v: VertexId| prev.get(v).copied().unwrap_or(v);
                let affected: BTreeSet<VertexId> =
                    self.staged_deletes.iter().flat_map(|&(u, v)| [label(u), label(v)]).collect();
                let reset: BTreeSet<VertexId> = if affected.is_empty() {
                    BTreeSet::new()
                } else {
                    (0..n as VertexId).filter(|&v| affected.contains(&label(v))).collect()
                };
                let mut seeds = reset.clone();
                for &v in &reset {
                    seeds.extend(self.live.neighbors(v));
                }
                for &(u, v) in &self.staged_inserts {
                    seeds.insert(u);
                    seeds.insert(v);
                }
                let seeded = |v: VertexId| (v, if reset.contains(&v) { v } else { label(v) });
                let workset: Vec<Label> = seeds.iter().map(|&v| seeded(v)).collect();
                let patch: Vec<Label> = (prev.len() as VertexId..n as VertexId)
                    .chain(reset.iter().copied())
                    .map(|v| (v, v))
                    .collect();
                let count = workset.len() as u64;
                (EpochSeed::Cc { patch, workset }, count)
            }
            Solution::Ranks(prev) => {
                let uniform = 1.0 / n as f64;
                let mut dist = vec![uniform; n];
                for (v, &r) in prev.iter().enumerate() {
                    dist[v] = r;
                }
                let sum: f64 = dist.iter().sum();
                for r in &mut dist {
                    *r /= sum;
                }
                let warm: Vec<Rank> = (0..n as VertexId).map(|v| (v, dist[v as usize])).collect();
                // Informational: mutated endpoints plus freshly named
                // vertices — the state the warm start actually perturbs.
                let mut touched: BTreeSet<VertexId> = self
                    .staged_inserts
                    .iter()
                    .chain(&self.staged_deletes)
                    .flat_map(|&(u, v)| [u, v])
                    .collect();
                touched.extend(prev.len() as VertexId..n as VertexId);
                (EpochSeed::Pr(warm), touched.len() as u64)
            }
        }
    }

    /// Run one epoch's (re-)convergence — cold when `seed` is `None` —
    /// applying the configured failure injection when `epoch` matches, and
    /// install its solution as the served one. On an error nothing served
    /// has changed.
    fn converge(&mut self, seed: Option<EpochSeed>, epoch: u32) -> Result<RunStats, String> {
        let inject = self.config.inject.as_ref().filter(|i| i.epoch == epoch).map(|i| &i.kind);
        let mut scenario = FailureScenario::none();
        let mut panic_at = None;
        let mut cluster_kill = None;
        match inject {
            Some(InjectionKind::Panic { superstep }) => panic_at = Some(*superstep),
            Some(InjectionKind::Fail { superstep, partitions }) => {
                scenario = scenario.fail_at(*superstep, partitions);
            }
            Some(InjectionKind::Mtbf { probability, seed }) => {
                scenario = scenario.random(*probability, 1, 1, *seed);
            }
            Some(InjectionKind::ClusterKill { workers, superstep, worker }) => {
                cluster_kill =
                    Some((*workers, KillPlan { superstep: *superstep, worker: *worker }));
            }
            None => {}
        }
        if let Some(controller) = &self.elastic {
            // Elastic engines run every epoch on the cluster; the controller
            // decides the worker count (an injected ClusterKill's worker
            // count is ignored, its kill plan rides along).
            let (workers, rescale_to) = controller.plan();
            let kill = cluster_kill.map(|(_, kill)| kill);
            return self.converge_on_cluster(seed, workers, kill, rescale_to);
        }
        if let Some((workers, kill)) = cluster_kill {
            return self.converge_on_cluster(seed, workers, Some(kill), None);
        }

        let ft =
            FtConfig { scenario, telemetry: self.config.telemetry.clone(), ..Default::default() };
        match self.config.algorithm {
            ServeAlgorithm::ConnectedComponents => {
                let config = CcConfig {
                    parallelism: self.config.parallelism,
                    max_iterations: self.config.max_iterations,
                    ft,
                    track_truth: false,
                    panic_at,
                };
                self.converge_cc(seed, &config)
            }
            ServeAlgorithm::PageRank => {
                let config = PrConfig {
                    parallelism: self.config.parallelism,
                    max_iterations: self.config.max_iterations,
                    epsilon: self.config.epsilon,
                    ft,
                    track_truth: false,
                    panic_at,
                    ..Default::default()
                };
                let warm = match &seed {
                    Some(EpochSeed::Pr(w)) => Some(w.as_slice()),
                    Some(EpochSeed::Cc { .. }) => unreachable!("PR engine builds PR seeds"),
                    None => None,
                };
                let env = algos::common::environment(config.parallelism, &config.ft);
                let built =
                    pr::build_warm(&env, &self.live, &config, warm).map_err(|e| e.to_string())?;
                let mut ranks = vec![0.0; self.live.num_vertices()];
                for (v, rank) in built.result.collect().map_err(|e| e.to_string())? {
                    ranks[v as usize] = rank;
                }
                let stats = built.stats.take().ok_or("pagerank run produced no statistics")?;
                self.served.solution = Solution::Ranks(ranks.into_iter().collect());
                Ok(stats)
            }
        }
    }

    /// The in-process CC epoch: the one CC plan, run from the resident
    /// solution maps over the live graph. The seed is applied to
    /// the maps in place, the run steps them and hands them back, and the
    /// served vector is patched at the seeded and upserted vertices whose
    /// label moved — copying only the chunks a published snapshot still
    /// shares — unless a failure fired, whose compensation rewrote entries
    /// no delta lists, or the run was cold: then it is re-materialised
    /// whole.
    fn converge_cc(
        &mut self,
        seed: Option<EpochSeed>,
        config: &CcConfig,
    ) -> Result<RunStats, String> {
        let p = config.parallelism;
        let n = self.live.num_vertices();
        let Solution::Components(served) = &mut self.served.solution else {
            unreachable!("a CC engine serves components")
        };
        let (state, patch) = match seed {
            None => (cc::initial_state(n, p), None),
            Some(EpochSeed::Cc { patch, workset }) => {
                let mut solution =
                    self.resident.take().unwrap_or_else(|| solution_sets(served.entries(), p));
                for &(v, label) in &patch {
                    solution[hash_partition(&v, p)].insert(v, label);
                }
                let workset = Partitions::keyed(workset, p, |w| w.0);
                (CcState { solution, workset }, Some(patch))
            }
            Some(EpochSeed::Pr(_)) => unreachable!("CC engine builds CC seeds"),
        };
        // An error leaves `resident` empty: these maps were seeded for a
        // batch that did not commit, so the retry starts from `served`.
        let run = cc::run_resident(self.live.graph(), state, config).map_err(|e| e.to_string())?;
        let label_of = |v: VertexId| run.state.solution[hash_partition(&v, p)][&v];
        match patch {
            Some(patch) if run.stats.failures().next().is_none() => {
                for v in served.len() as VertexId..n as VertexId {
                    served.push(v);
                }
                for v in patch.iter().map(|&(v, _)| v).chain(run.upserted) {
                    let label = label_of(v);
                    if served.get(v) != Some(&label) {
                        served.set(v, label);
                    }
                }
            }
            _ => {
                let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
                for (&v, &label) in run.state.solution.iter().flatten() {
                    labels[v as usize] = label;
                }
                *served = labels.into_iter().collect();
            }
        }
        self.resident = Some(run.state.solution);
        Ok(run.stats)
    }

    /// The cluster epoch path: run the epoch on real worker processes,
    /// warm-started from the seed. Used by the SIGKILL injector (the
    /// coordinator's network-level detection plus the optimistic handler
    /// absorb the kill) and by elastic engines, whose planned rescale — if
    /// any — fires at the epoch's first superstep barrier. The workers own
    /// the state of such an epoch, so the resident maps are dropped and the
    /// next in-process epoch reloads them from the served result.
    fn converge_on_cluster(
        &mut self,
        seed: Option<EpochSeed>,
        workers: usize,
        kill: Option<KillPlan>,
        rescale_to: Option<usize>,
    ) -> Result<RunStats, String> {
        let mut cfg =
            ClusterConfig::new(workers, self.config.parallelism, self.config.max_iterations)
                .with_env_timing();
        if let Some(kill) = kill {
            cfg = cfg.with_kill(kill);
        }
        if let Some(target) = rescale_to {
            cfg = cfg.with_scale_event(ScaleEvent { superstep: 0, workers: target });
        }
        let program = match self.config.algorithm {
            ServeAlgorithm::ConnectedComponents => "cc",
            ServeAlgorithm::PageRank => "pagerank",
        };
        match (seed, &self.served.solution) {
            (Some(EpochSeed::Cc { patch, .. }), Solution::Components(served)) => {
                let mut records: Vec<(u64, u64)> = served.entries().collect();
                for (v, label) in patch {
                    match records.get_mut(v as usize) {
                        Some(record) => record.1 = label,
                        // New vertices lead the patch, in ascending order.
                        None => records.push((v, label)),
                    }
                }
                cfg = cfg.with_initial_state(records);
            }
            (Some(EpochSeed::Pr(warm)), _) => {
                cfg = cfg.with_initial_state(warm.iter().map(|&(v, r)| (v, r.to_bits())).collect());
            }
            (Some(EpochSeed::Cc { .. }), Solution::Ranks(_)) => {
                unreachable!("CC seeds come from served components")
            }
            (None, _) => {}
        }
        let run = cluster::run_cluster(program, &self.live, cfg, self.config.telemetry.clone())
            .map_err(|e| e.to_string())?;
        let values = run.values.iter();
        self.served.solution = match self.config.algorithm {
            ServeAlgorithm::ConnectedComponents => {
                Solution::Components(values.map(|&(_, label)| label).collect())
            }
            ServeAlgorithm::PageRank => {
                Solution::Ranks(values.map(|&(_, bits)| f64::from_bits(bits)).collect())
            }
        };
        self.resident = None;
        Ok(run.stats)
    }
}

/// The per-epoch warm-start payload.
enum EpochSeed {
    /// CC: the served entries to overwrite (vertices the batch named, then
    /// vertices a delete resets, each to its own id) and the workset to
    /// propagate from.
    Cc { patch: Vec<Label>, workset: Vec<Label> },
    /// PageRank: the previous fixpoint renormalised over the new vertex set.
    Pr(Vec<Rank>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::GraphBuilder;

    fn cc_engine(graph: &Graph) -> (ServeEngine, EpochReport) {
        ServeEngine::bootstrap(ServeConfig::default(), graph).unwrap()
    }

    fn labels_of(engine: &ServeEngine) -> Vec<Label> {
        match &engine.snapshot().solution {
            Solution::Components(labels) => labels.entries().collect(),
            other => panic!("expected components, got {other:?}"),
        }
    }

    fn cold_cc(graph: &Graph) -> Vec<Label> {
        let config = CcConfig { track_truth: false, ..Default::default() };
        cc::run(graph, &config).unwrap().labels
    }

    #[test]
    fn bootstrap_converges_and_serves_queries() {
        let graph = graphs::generators::demo_components();
        let (engine, report) = cc_engine(&graph);
        assert!(report.converged);
        assert!(report.supersteps > 0);
        assert_eq!(labels_of(&engine), cold_cc(&graph));
        assert!(engine.point(0).is_some());
        assert!(engine.point(10_000).is_none());
        let top = engine.top(2);
        assert!(!top.is_empty());
        assert!(top[0].score >= top[top.len() - 1].score);
    }

    #[test]
    fn insert_commit_matches_full_recomputation() {
        // Two 8-vertex paths; an insert bridges them.
        let mut b = GraphBuilder::undirected(16);
        for v in 0..7u64 {
            b.add_edge(v, v + 1);
            b.add_edge(8 + v, 8 + v + 1);
        }
        let graph = b.build();
        let (mut engine, _) = cc_engine(&graph);
        assert!(engine.stage_insert(7, 8));
        assert!(!engine.stage_insert(7, 8), "duplicate insert is a no-op");
        let report = engine.commit().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.inserts, 1);
        assert!(report.converged);

        let mut expected = GraphBuilder::undirected(16);
        for v in 0..7u64 {
            expected.add_edge(v, v + 1);
            expected.add_edge(8 + v, 8 + v + 1);
        }
        expected.add_edge(7, 8);
        assert_eq!(labels_of(&engine), cold_cc(&expected.build()));
    }

    #[test]
    fn an_insert_commit_leaves_earlier_snapshots_as_they_were_and_copies_only_what_it_writes() {
        use crate::chunked::CHUNK;
        use std::sync::Arc;

        // Components of two, (2k, 2k + 1), over three full chunks and part
        // of a fourth.
        let n = 3 * CHUNK as u64 + 10;
        let mut b = GraphBuilder::undirected(n as usize);
        for v in (0..n).step_by(2) {
            b.add_edge(v, v + 1);
        }
        let (mut engine, _) = cc_engine(&b.build());
        let before = engine.snapshot();
        let answers: Vec<_> = (0..n).map(|v| before.point(v)).collect();

        // Vertex CHUNK + 2's pair joins component 0; new vertex n joins 4.
        // An epoch's plan lets go of the live graph when it ends, so staging
        // edits the graph in place, not a copy of it.
        let graph = Arc::as_ptr(engine.live.graph());
        let far = CHUNK as u64 + 2;
        assert!(engine.stage_insert(1, far));
        assert!(engine.stage_insert(5, n));
        engine.commit().unwrap();
        let after = engine.snapshot();

        assert_eq!((before.epoch, after.epoch), (0, 1));
        for v in 0..n {
            assert_eq!(before.point(v), answers[v as usize], "vertex {v} moved under a snapshot");
        }
        assert_eq!(before.point(n), None);
        assert_eq!(after.point(far + 1), Some(PointAnswer::Label(0)));
        assert_eq!(after.point(n), Some(PointAnswer::Label(4)));
        assert_eq!(after.point(n + 1), None, "a vertex past the last one is unknown");
        assert_eq!(after.point(u64::MAX), None);

        // Only the chunk the relabelled pair lives in and the chunk the new
        // vertex was appended to were copied; the first chunk, whose named
        // vertices 1 and 5 kept their labels, is still shared.
        let (Solution::Components(old), Solution::Components(new)) =
            (&before.solution, &after.solution)
        else {
            panic!("a CC engine serves components")
        };
        let shared: Vec<bool> =
            new.chunks().iter().zip(old.chunks()).map(|(a, b)| Arc::ptr_eq(a, b)).collect();
        assert_eq!(shared, [true, false, true, false]);
        assert_eq!(new.chunks().len(), old.chunks().len());

        assert!(engine.stage_insert(0, 2));
        assert_eq!(Arc::as_ptr(engine.live.graph()), graph, "a staged edit copied the graph");
    }

    #[test]
    fn snapshots_of_two_epochs_answer_their_own_top() {
        // Components {0, 1, 2}, {3, 4} and {5}.
        let mut b = GraphBuilder::undirected(6);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(3, 4);
        let (mut engine, _) = cc_engine(&b.build());
        let top = |snapshot: &Snapshot, n| -> Vec<(VertexId, f64)> {
            snapshot.top(n).iter().map(|entry| (entry.id, entry.score)).collect()
        };
        let before = engine.snapshot();
        assert_eq!(top(&before, 10), [(0, 3.0), (3, 2.0), (5, 1.0)]);
        assert_eq!(top(&before, 1), [(0, 3.0)]);

        // {5} joins {3, 4}: two components of three, label ascending.
        assert!(engine.stage_insert(4, 5));
        engine.commit().unwrap();
        let after = engine.snapshot();
        assert_eq!(top(&after, 10), [(0, 3.0), (3, 3.0)]);
        assert_eq!(engine.top(10), after.top(10));
        assert_eq!(top(&before, 10), [(0, 3.0), (3, 2.0), (5, 1.0)], "epoch 0 answers for itself");
        assert_eq!((before.epoch, after.epoch), (0, 1));
    }

    #[test]
    fn delete_commit_resets_the_split_component() {
        let graph = graphs::generators::path(12);
        let (mut engine, _) = cc_engine(&graph);
        assert!(engine.stage_delete(5, 6));
        assert!(!engine.stage_delete(5, 6), "double delete is a no-op");
        let report = engine.commit().unwrap();
        assert!(report.converged);
        // The split halves get their own minima: 0 and 6.
        let labels = labels_of(&engine);
        assert_eq!(labels[3].1, 0);
        assert_eq!(labels[9].1, 6);
        let mut expected = GraphBuilder::undirected(12);
        for v in 0..11u64 {
            if v != 5 {
                expected.add_edge(v, v + 1);
            }
        }
        assert_eq!(labels, cold_cc(&expected.build()));
    }

    #[test]
    fn empty_commit_is_free() {
        let graph = graphs::generators::demo_components();
        let (mut engine, _) = cc_engine(&graph);
        let before = labels_of(&engine);
        let report = engine.commit().unwrap();
        assert_eq!(report.supersteps, 0);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(labels_of(&engine), before);
    }

    #[test]
    fn pagerank_commit_matches_full_recomputation() {
        let graph = graphs::generators::demo_pagerank();
        let config = ServeConfig { algorithm: ServeAlgorithm::PageRank, ..Default::default() };
        let (mut engine, report) = ServeEngine::bootstrap(config, &graph).unwrap();
        assert!(report.converged);
        assert!(engine.stage_insert(4, 2));
        let report = engine.commit().unwrap();
        assert!(report.converged);
        assert!(report.supersteps > 0);

        let mut live = LiveGraph::from_graph(&graph);
        live.insert(4, 2);
        let pr_config = PrConfig { track_truth: false, epsilon: 1e-9, ..Default::default() };
        let cold = pr::run(&live.build(), &pr_config).unwrap();
        match &engine.snapshot().solution {
            Solution::Ranks(ranks) => {
                assert_eq!(ranks.len(), cold.ranks.len());
                for ((v, warm), &(_, exact)) in ranks.entries().zip(&cold.ranks) {
                    assert!((warm - exact).abs() < 1e-6, "vertex {v}: {warm} vs {exact}");
                }
            }
            other => panic!("expected ranks, got {other:?}"),
        }
    }

    #[test]
    fn failed_commit_keeps_the_batch_staged_and_the_epoch_closed() {
        use std::sync::Arc;
        use telemetry::MemorySink;

        let graph = graphs::generators::path(12);
        let sink = Arc::new(MemorySink::new());
        let config = ServeConfig {
            telemetry: SinkHandle::new(sink.clone()),
            // A cluster run with zero workers is rejected by the
            // coordinator's plan validation — a deterministic convergence
            // error without touching any process machinery.
            inject: Some(EpochInjection {
                epoch: 1,
                kind: InjectionKind::ClusterKill { workers: 0, superstep: 0, worker: 0 },
            }),
            ..Default::default()
        };
        let (mut engine, _) = ServeEngine::bootstrap(config, &graph).unwrap();
        let before = labels_of(&engine);
        assert!(engine.stage_delete(5, 6));
        engine.commit().unwrap_err();

        // The engine is exactly as it was before the commit: batch still
        // staged, epoch still 0, pre-batch fixpoint still served, and no
        // Reconverge journalled for the failed epoch.
        assert_eq!(engine.staged(), 1);
        assert_eq!(engine.epoch(), 0);
        assert_eq!(labels_of(&engine), before);
        engine.config.telemetry.flush();
        let failed_epoch_reconverged =
            sink.events().iter().any(|e| matches!(e, JournalEvent::Reconverge { epoch: 1, .. }));
        assert!(!failed_epoch_reconverged, "a failed epoch must not journal a Reconverge");

        // A retried commit (failure cause gone) re-processes the whole
        // batch and reaches the same fixpoint as a full recomputation.
        engine.config.inject = None;
        let report = engine.commit().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.deletes, 1);
        assert!(report.converged);
        assert_eq!(engine.staged(), 0);
        let mut expected = GraphBuilder::undirected(12);
        for v in 0..11u64 {
            if v != 5 {
                expected.add_edge(v, v + 1);
            }
        }
        assert_eq!(labels_of(&engine), cold_cc(&expected.build()));
    }

    #[test]
    fn a_retry_after_a_failed_commit_takes_the_grown_batch_from_the_served_fixpoint() {
        let graph = graphs::generators::path(12);
        let config = ServeConfig {
            inject: Some(EpochInjection {
                epoch: 1,
                kind: InjectionKind::ClusterKill { workers: 0, superstep: 0, worker: 0 },
            }),
            ..Default::default()
        };
        let (mut engine, _) = ServeEngine::bootstrap(config, &graph).unwrap();
        let before = labels_of(&engine);
        // A batch that cuts the path and names a new vertex fails to commit.
        assert!(engine.stage_delete(5, 6));
        assert!(engine.stage_insert(2, 12));
        engine.commit().unwrap_err();
        assert_eq!((engine.staged(), engine.epoch(), engine.vertices()), (2, 0, 12));
        assert_eq!(labels_of(&engine), before);
        assert_eq!(engine.point(12), None, "the new vertex is not served yet");

        // More mutations arrive before the retry; it commits all of them.
        assert!(engine.stage_insert(12, 13));
        assert!(engine.stage_delete(8, 9));
        engine.config.inject = None;
        let report = engine.commit().unwrap();
        assert_eq!((report.epoch, report.inserts, report.deletes), (1, 2, 2));
        let mut live = LiveGraph::from_graph(&graph);
        for (u, v) in [(5, 6), (8, 9)] {
            live.remove(u, v);
        }
        for (u, v) in [(2, 12), (12, 13)] {
            live.insert(u, v);
        }
        assert_eq!(labels_of(&engine), cold_cc(&live.build()));
        assert_eq!(engine.vertices(), 14);

        // The next epoch resumes from the state that commit left resident.
        assert!(engine.stage_insert(13, 11));
        live.insert(13, 11);
        assert!(engine.commit().unwrap().converged);
        assert_eq!(labels_of(&engine), cold_cc(&live.build()));
        assert_eq!(engine.algorithm(), ServeAlgorithm::ConnectedComponents);
    }

    #[test]
    fn elastic_controller_plans_rescales_and_tracks_load() {
        let mut c = ElasticController::new(ElasticRange { min_workers: 2, max_workers: 4 });
        assert_eq!((c.workers(), c.target()), (2, 2));
        assert_eq!(c.plan(), (2, None), "already at target: no rescale");

        // Operator override clamps to the range and plans a rescale.
        assert_eq!(c.set_target(9), 4);
        assert_eq!(c.plan(), (2, Some(4)), "epoch starts on 2 workers, rescales to 4");
        c.observe(100);
        assert_eq!(c.workers(), 4, "observe applies the rescale");
        assert_eq!(c.plan(), (4, None));

        // Idle epochs shrink one worker at a time toward the minimum.
        c.observe(SHRINK_BELOW_MS - 1);
        assert_eq!(c.plan(), (4, Some(3)));
        c.observe(SHRINK_BELOW_MS - 1);
        c.observe(SHRINK_BELOW_MS - 1);
        assert_eq!((c.workers(), c.target()), (2, 2), "shrink stops at min");

        // Latency pressure grows one worker at a time up to the maximum.
        c.observe(GROW_ABOVE_MS + 1);
        assert_eq!(c.plan(), (2, Some(3)));
        assert_eq!(c.set_target(0), 2, "scale below min clamps up");
    }

    #[test]
    fn elastic_ranges_are_validated_at_bootstrap() {
        let graph = graphs::generators::path(8);
        let bad = |min_workers, max_workers| {
            let config = ServeConfig {
                elastic: Some(ElasticRange { min_workers, max_workers }),
                ..Default::default()
            };
            match ServeEngine::bootstrap(config, &graph) {
                Ok(_) => panic!("elastic range {min_workers}..={max_workers} must be rejected"),
                Err(message) => message,
            }
        };
        assert!(bad(0, 2).contains("at least one worker"));
        assert!(bad(3, 2).contains("min 3 > max 2"));
        assert!(bad(2, 9).contains("exceeds parallelism 4"));
    }

    #[test]
    fn scale_verbs_require_an_elastic_engine() {
        let graph = graphs::generators::path(8);
        let (mut engine, _) = cc_engine(&graph);
        assert_eq!(engine.workers(), None);
        assert_eq!(engine.scale_target(), None);
        assert!(engine.set_scale_target(3).unwrap_err().contains("not elastic"));
    }

    #[test]
    fn injected_panic_between_convergences_keeps_the_fixpoint() {
        let graph = graphs::generators::path(24);
        let config = ServeConfig {
            inject: Some(EpochInjection { epoch: 1, kind: InjectionKind::Panic { superstep: 2 } }),
            ..Default::default()
        };
        let (mut engine, _) = ServeEngine::bootstrap(config, &graph).unwrap();
        assert!(engine.stage_delete(11, 12));
        let report = engine.commit().unwrap();
        assert!(report.converged);
        let mut expected = GraphBuilder::undirected(24);
        for v in 0..23u64 {
            if v != 11 {
                expected.add_edge(v, v + 1);
            }
        }
        assert_eq!(labels_of(&engine), cold_cc(&expected.build()));
    }
}
