//! The coordinator: drives the existing bulk-iteration machinery while the
//! per-superstep compute happens in separate worker OS processes.
//!
//! Architecture (see DESIGN.md, "Cluster architecture"):
//!
//! * The coordinator owns the dataflow plan, the iteration driver, the
//!   telemetry sink and the recovery handler. It never holds a message, and
//!   between supersteps it holds no partition state either: the process
//!   that computes a partition holds the only copy of it (`ClusterState`).
//! * Workers own the loop-invariant adjacency and the state of their
//!   partitions in a `PartitionStore` and step them through it; the
//!   coordinator keeps the adjacency only as the bytes it ships. It is a
//!   pure control plane: it sends every worker the
//!   membership (epoch, peer addresses, placement), dispatches supersteps as
//!   thin `StepGo` frames, and receives counts in `StepDone`s — while the
//!   shuffled messages flow directly between workers as batched peer
//!   frames, never touching the coordinator.
//! * State moves only where something reads it: up on a rollback
//!   strategy's cut (the cut's dispatch says so, and the `PartState`s ride
//!   ahead of the `StepDone`s), once at the end of the run for the values,
//!   and out of the old owner of a partition a rescale moves; down for a
//!   rollback restore, a warm start and the new owner of a moved partition.
//!   Optimistic recovery moves none: a worker keeps its state
//!   double-buffered as committed and tentative, so a retry rolls survivors
//!   back to committed without a push, and a lost partition is rebuilt by
//!   its new owner from the program's compensation function. A restored cut
//!   is its state alone: the workers regenerate the messages in flight from
//!   it over their data plane ([`Inbound::Regenerate`],
//!   the program's `emit`; DESIGN.md, "A cut is the state alone").
//! * Failure is detected at the network level: a dead worker surfaces as a
//!   connection reset / EOF / read timeout on the control connection, or as
//!   a heartbeat timeout on the dedicated heartbeat connection. Either
//!   detection converts into [`EngineError::WorkerLost`], which the bulk
//!   driver maps onto the exact same failure/recovery path as an in-process
//!   partition panic — the installed optimistic handler compensates the
//!   lost partitions and the superstep is redone.
//! * Replacement: the slot of a lost worker is cleared immediately; at the
//!   next superstep the coordinator re-spawns the process, reconnects with
//!   exponential backoff, re-ships the program and the kept encoded
//!   adjacency, and emits [`JournalEvent::WorkerRejoined`].

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dataflow::api::Environment;
use dataflow::codec::{decode_exact, encode_slice, encode_to_vec, Codec};
use dataflow::config::EnvConfig;
use dataflow::dataset::{Erased, Partitions};
use dataflow::error::{EngineError, Result};
use dataflow::exec::{par_map, ExecContext};
use dataflow::ft::{IterationState, Snapshot};
use dataflow::iterate::{BulkIteration, BulkState, ConvergenceMeasure};
use dataflow::partition::PartitionId;
use dataflow::plan::DynOp;
use dataflow::stats::RunStats;
use graphs::Graph;
use recovery::compensation::Named;
use recovery::{MemoryStore, StableStore, Strategy};
use telemetry::metrics::{Counter, Histogram, PartitionedHistogram};
use telemetry::{JournalEvent, SinkHandle};

use crate::placement::{PartitionMap, Rebalancer};
use crate::program::{lookup, partition_len, partition_rows, ClusterProgram, PartitionStore};
use crate::protocol::{
    assemble_load_program, read_frame, read_frame_buffered, write_encoded_frame, write_frame,
    AdjRows, Inbound, Message, Record, Seed, SpanRow, SPAN_PHASE_COMPUTE, SPAN_PHASE_EXCHANGE,
    SPAN_PHASE_PEER_BYTES, SPAN_PHASE_SHUFFLE,
};
use crate::worker::LISTENING_MARKER;

/// A planned membership change: at chronological superstep `superstep` the
/// cluster rescales to `workers` worker processes. Scale-down is a
/// [`EngineError::WorkerLost`] we scheduled ourselves — the retiring workers
/// are told to [`Message::Shutdown`] at a barrier, when nothing of theirs is
/// in flight, and their partitions are re-shipped over the same
/// `LoadProgram` path recovery uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Chronological superstep at which the rescale happens (fires at the
    /// first superstep barrier at or after this value).
    pub superstep: u32,
    /// Target worker count (`1 ..= parallelism`).
    pub workers: usize,
}

/// Deterministic failure injection: SIGKILL `worker` just before its frames
/// for chronological superstep `superstep` are sent, so the loss is always
/// detected mid-superstep by the coordinator's network I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Chronological superstep at which to kill.
    pub superstep: u32,
    /// Index of the worker process to kill.
    pub worker: usize,
}

/// Straggler injection: the coordinator's read of `worker`'s replies is
/// delayed by `delay` once per superstep in `from..=to`, modelling a worker
/// whose compute is slow without being dead. Keep `delay` below the step
/// timeout to model a straggler; push it above to model a wedged worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerPlan {
    /// First chronological superstep of the slowdown (inclusive).
    pub from: u32,
    /// Last chronological superstep of the slowdown (inclusive).
    pub to: u32,
    /// Index of the straggling worker.
    pub worker: usize,
    /// Extra latency injected per superstep.
    pub delay: Duration,
}

/// Link degradation on the control connection to one worker: every frame
/// sent in supersteps `from..=to` is delayed by `delay`, and each superstep
/// the connection is severed with probability `drop_probability` — decided
/// deterministically from `seed` so paired strategy runs see the *same*
/// drops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPlan {
    /// First chronological superstep of the degradation (inclusive).
    pub from: u32,
    /// Last chronological superstep of the degradation (inclusive).
    pub to: u32,
    /// Index of the worker whose link degrades.
    pub worker: usize,
    /// Extra latency injected before each frame sent to the worker.
    pub delay: Duration,
    /// Per-superstep probability of severing the connection (`0.0..=1.0`).
    pub drop_probability: f64,
    /// Seed of the deterministic drop decisions.
    pub seed: u64,
}

impl LinkPlan {
    fn active(&self, superstep: u32) -> bool {
        (self.from..=self.to).contains(&superstep)
    }
}

impl StragglerPlan {
    fn active(&self, superstep: u32) -> bool {
        (self.from..=self.to).contains(&superstep)
    }
}

/// A schedule of failure-mode injections — kill storms, link degradation,
/// stragglers — applied by the coordinator as supersteps execute. Every
/// injection is journaled as [`JournalEvent::ChaosInjected`] so recovery
/// reports bill the run's chaos alongside its recoveries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// SIGKILL injections; several entries with the same superstep form a
    /// kill storm.
    pub kills: Vec<KillPlan>,
    /// Slow-worker injections.
    pub stragglers: Vec<StragglerPlan>,
    /// Delayed/lossy-link injections.
    pub links: Vec<LinkPlan>,
}

impl ChaosPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.stragglers.is_empty() && self.links.is_empty()
    }

    /// The largest worker index any scenario targets, if any.
    pub fn max_worker(&self) -> Option<usize> {
        self.kills
            .iter()
            .map(|k| k.worker)
            .chain(self.stragglers.iter().map(|s| s.worker))
            .chain(self.links.iter().map(|l| l.worker))
            .max()
    }
}

/// SplitMix64 finalizer: the chaos plane's deterministic hash. Vendored
/// inline (three lines) so the cluster crate needs no RNG dependency.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic coin in `[0, 1)` for one `(seed, superstep, worker)`
/// decision point: identical across runs, independent across points.
fn chaos_coin(seed: u64, superstep: u32, worker: usize) -> f64 {
    let h = splitmix64(
        seed ^ splitmix64(u64::from(superstep)) ^ splitmix64(worker as u64 ^ 0x5bd1_e995),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Maximum TCP connect attempts per (re)connect.
const CONNECT_ATTEMPTS: u32 = 10;
/// Initial reconnect delay; doubled after every failed attempt, up to
/// [`CONNECT_BACKOFF_CAP`].
const CONNECT_BACKOFF: Duration = Duration::from_millis(25);
/// The longest wait between two connect attempts.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Configuration of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker processes at start (`1 ..= parallelism`); scale
    /// events can change the live count mid-run.
    pub workers: usize,
    /// Number of partitions. Ownership (partition → worker) is the
    /// [`crate::placement::PartitionMap`]'s business; the initial assignment
    /// is `p % workers` and only rebalances change it.
    pub parallelism: usize,
    /// Logical iteration cap handed to the bulk driver.
    pub max_iterations: u32,
    /// Command line used to spawn one worker process. Defaults to
    /// `[current_exe, "worker"]` — the coordinator and worker are the same
    /// binary, which is what lets named programs replace closure shipping.
    pub worker_cmd: Vec<String>,
    /// Scheduled failure injections (kills, stragglers, link degradation).
    pub chaos: ChaosPlan,
    /// Planned membership changes, applied at superstep barriers in order.
    pub scale: Vec<ScaleEvent>,
    /// How the run recovers from worker loss: optimistic compensation,
    /// checkpoints, async snapshots or restart. [`run_cluster`] refuses the
    /// in-process-only strategies before it spawns anything.
    pub strategy: Strategy,
    /// Delay between heartbeat probes.
    pub heartbeat_interval: Duration,
    /// Read timeout on the heartbeat connection; exceeding it marks the
    /// worker dead.
    pub heartbeat_timeout: Duration,
    /// Read timeout on the control connection while waiting for `StepDone`
    /// (the backstop when a worker wedges without dropping the connection).
    pub step_timeout: Duration,
    /// Optional warm-start state, sorted or not: `(vertex, value-bits)`
    /// records that replace the program's `init_partition` output. Used by
    /// serving mode to re-converge from the previous epoch's fixpoint
    /// instead of from scratch. There must be one record per vertex of the
    /// graph (anything else is a plan error), satisfying the program's
    /// state invariant (CC: `label <= vertex`, which its send rule relies
    /// on).
    pub initial_state: Option<Vec<Record>>,
}

impl ClusterConfig {
    /// Configuration with production-ish timing defaults.
    pub fn new(workers: usize, parallelism: usize, max_iterations: u32) -> Self {
        ClusterConfig {
            workers,
            parallelism,
            max_iterations,
            worker_cmd: default_worker_cmd(),
            chaos: ChaosPlan::default(),
            scale: Vec::new(),
            strategy: Strategy::Optimistic,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(3),
            step_timeout: Duration::from_secs(30),
            initial_state: None,
        }
    }

    /// Schedule one SIGKILL injection (composes: each call appends to the
    /// chaos plan's kill list).
    pub fn with_kill(mut self, kill: KillPlan) -> Self {
        self.chaos.kills.push(kill);
        self
    }

    /// Schedule one planned membership change (composes: each call appends
    /// to the scale plan).
    pub fn with_scale_event(mut self, event: ScaleEvent) -> Self {
        self.scale.push(event);
        self
    }

    /// Override the recovery strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the delay between heartbeat probes.
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Override the heartbeat read timeout (how long a worker may stay
    /// silent before it is declared dead). Serving mode sits idle between
    /// mutation batches and wants this comfortably above the batch cadence.
    pub fn with_heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Override the per-superstep control read timeout.
    pub fn with_step_timeout(mut self, timeout: Duration) -> Self {
        self.step_timeout = timeout;
        self
    }

    /// Apply timing overrides from the environment, following the repo's
    /// `OPTIREC_*` convention: `OPTIREC_HEARTBEAT_INTERVAL_MS`,
    /// `OPTIREC_HEARTBEAT_TIMEOUT_MS`, and `OPTIREC_STEP_TIMEOUT_MS`
    /// (all integral milliseconds; unset or unparsable values keep the
    /// current setting). Explicit CLI flags are applied after this, so
    /// flags win over the environment.
    pub fn with_env_timing(mut self) -> Self {
        let ms = |name: &str| -> Option<Duration> {
            std::env::var(name).ok()?.parse().ok().map(Duration::from_millis)
        };
        if let Some(interval) = ms("OPTIREC_HEARTBEAT_INTERVAL_MS") {
            self.heartbeat_interval = interval;
        }
        if let Some(timeout) = ms("OPTIREC_HEARTBEAT_TIMEOUT_MS") {
            self.heartbeat_timeout = timeout;
        }
        if let Some(timeout) = ms("OPTIREC_STEP_TIMEOUT_MS") {
            self.step_timeout = timeout;
        }
        self
    }

    /// Warm-start the run from a previous fixpoint instead of the program's
    /// `init_partition` output. Records are routed to partitions by
    /// `vertex % parallelism`, matching `partition_rows`.
    pub fn with_initial_state(mut self, state: Vec<Record>) -> Self {
        self.initial_state = Some(state);
        self
    }
}

/// The default worker command: re-invoke the current executable with the
/// `worker` subcommand (both `optirec` and the test binary's companion
/// `cluster-worker` understand it via [`crate::worker::run`]).
pub fn default_worker_cmd() -> Vec<String> {
    let exe = std::env::current_exe()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|_| "optirec".to_string());
    vec![exe, "worker".to_string()]
}

/// The result of a cluster (or single-process baseline) run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Final state, sorted by vertex id: `(vertex, value-bits)`.
    pub values: Vec<Record>,
    /// The bulk driver's run statistics (supersteps, failures, recoveries).
    pub stats: RunStats,
}

/// One partition of the cluster's iteration state, as the coordinator holds
/// it.
#[derive(Debug, Clone)]
enum Part {
    /// Held by the process that computes it alone: its vertex count.
    Resident(u64),
    /// Came up on a cut: the owner's committed state is the same.
    Pulled(Vec<Record>),
    /// Goes down with the next dispatch: a restored cut or a warm start.
    Pushed(Vec<Record>),
    /// Lost with its process, and rebuilt by its new owner with the
    /// program's compensation function: its vertex count.
    Compensated(u64),
}

impl Part {
    fn vertices(&self) -> u64 {
        match self {
            Part::Resident(vertices) | Part::Compensated(vertices) => *vertices,
            Part::Pulled(records) | Part::Pushed(records) => records.len() as u64,
        }
    }

    fn records(&self) -> &[Record] {
        match self {
            Part::Resident(_) | Part::Compensated(_) => &[],
            Part::Pulled(records) | Part::Pushed(records) => records,
        }
    }
}

/// The iteration state of a cluster run as the bulk driver and the recovery
/// handlers see it: one [`Part`] per partition, which between supersteps is
/// [`Part::Resident`] — the coordinator holds no record — and carries
/// records only where something reads or restores them, plus what each
/// partition's last superstep changed. Its encoding, whole or a partition at
/// a time, is that of the `Partitions<Record>` it stands for, so a cut
/// writes the same bytes a coordinator-held state did; decoding one yields
/// records to push down.
#[derive(Debug, Clone)]
struct ClusterState {
    parts: Vec<Part>,
    /// Records each partition's last superstep counted as changed.
    changed: Vec<u64>,
}

impl ClusterState {
    fn of(parts: Vec<Part>) -> Self {
        let changed = vec![0; parts.len()];
        ClusterState { parts, changed }
    }

    fn pushed(parts: Vec<Vec<Record>>) -> Self {
        Self::of(parts.into_iter().map(Part::Pushed).collect())
    }

    /// Where partition `pid`'s state comes from in logical step `step`:
    /// records pushed down, a rebuild by compensation, the program's init at
    /// the first step, or else what its owner committed.
    fn seed(&self, pid: usize, step: u64) -> Seed {
        match &self.parts[pid] {
            Part::Pushed(records) => Seed::Pushed(records.clone()),
            Part::Compensated(_) => Seed::Compensate,
            _ if step == 0 => Seed::Init,
            _ => Seed::Committed,
        }
    }
}

impl IterationState for ClusterState {
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// The partition's records are gone with its process: the coordinator
    /// holds nothing of it, and recovery says how its owner rebuilds it.
    fn clear_partition(&mut self, pid: PartitionId) -> u64 {
        let lost = self.parts[pid].vertices();
        self.parts[pid] = Part::Resident(lost);
        lost
    }
}

impl BulkState for ClusterState {
    fn records_per_partition(&self) -> Vec<u64> {
        self.parts.iter().map(Part::vertices).collect()
    }
}

/// Encoded only on a cut, where every partition came up.
impl Codec for ClusterState {
    fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.parts.iter().all(|part| !matches!(part, Part::Resident(_))));
        (self.parts.len() as u64).encode(out);
        for part in &self.parts {
            encode_slice(part.records(), out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(Self::pushed(Vec::decode(input)?))
    }
}

impl Snapshot for ClusterState {
    const KIND: &'static str = "bulk";

    fn encode_partition(&self, pid: PartitionId, out: &mut Vec<u8>) {
        encode_slice(self.parts[pid].records(), out)
    }

    fn from_chunks(chunks: &[Vec<u8>]) -> Result<Self> {
        let parts = chunks.iter().map(|chunk| decode_exact::<Vec<Record>>(chunk));
        Ok(Self::pushed(parts.collect::<Result<_>>()?))
    }
}

/// One partition's account of a superstep.
struct StepResult {
    pid: usize,
    changed: u64,
    /// Messages the partition produced for the next superstep.
    shuffled: u64,
}

/// What a backend made of one superstep: every partition's account, and on
/// a cut every partition's new state, in pid order.
type Stepped = (Vec<StepResult>, Option<Vec<Vec<Record>>>);

/// Where a superstep's partition work actually runs: in-process (the
/// baseline) or on worker processes over TCP. Each holds the only copy of
/// the partitions' state in a [`PartitionStore`] — the local backend one
/// over every partition, the cluster's workers one over their share each —
/// and what the last committed superstep sent where it ran. Both fold a
/// partition's inbound straight from the runs addressed to it, one per
/// source partition in source order (neither builds an inbox or merges
/// one), so both execute bit-identical supersteps in failure-free runs.
///
/// `Send` because the engine may dispatch the step operator onto its
/// worker pool; the `Arc<Mutex<…>>` wrapper then crosses threads.
trait StepBackend: Send {
    /// Acquire what the backend runs `graph` on. Called once, after the
    /// run's recovery handler has been built — a plan that is rejected there
    /// has spawned nothing. Default: nothing to acquire.
    fn start(&mut self, _graph: &Graph) -> Result<()> {
        Ok(())
    }

    /// Run logical step `step` as chronological superstep `superstep` over
    /// every partition of `state`, each seeded as [`ClusterState::seed`]
    /// says. Returning `Ok` commits it; on a `cut` the new state comes back
    /// as well.
    fn run_step(
        &mut self,
        superstep: u32,
        step: u64,
        state: &ClusterState,
        cut: bool,
        ctx: &ExecContext,
    ) -> Result<Stepped>;

    /// Every partition's committed state, in pid order: the run's values,
    /// taken once at its end.
    fn pull(&mut self) -> Result<Vec<Vec<Record>>>;
}

/// In-process execution of the same named program — the single-process
/// baseline that cluster results are diffed against. Partitions step in
/// parallel on the engine's worker pool, each from its committed side into
/// its own buffers, which the store swaps in once the superstep succeeds.
struct LocalBackend {
    store: PartitionStore,
    /// Whether the previous attempt failed (a partition panicked), so this
    /// one runs on compensated state: the retry is a full-send superstep,
    /// and its commit may not terminate the run (see
    /// [`ClusterBackend::force_changed`]).
    retrying: bool,
}

impl LocalBackend {
    fn new(program: Arc<dyn ClusterProgram>, adjacency: Arc<Vec<AdjRows>>, n: u64) -> Self {
        let mut store = PartitionStore::new(program, n, adjacency.len());
        let parts = Arc::unwrap_or_clone(adjacency).into_iter().zip(0..);
        store.load(parts.map(|(rows, pid)| (pid, rows)).collect());
        LocalBackend { store, retrying: false }
    }
}

impl StepBackend for LocalBackend {
    fn run_step(
        &mut self,
        superstep: u32,
        step: u64,
        state: &ClusterState,
        cut: bool,
        ctx: &ExecContext,
    ) -> Result<Stepped> {
        // Stays set if this attempt fails too.
        let retrying = std::mem::replace(&mut self.retrying, true);
        let parts = (0..state.num_partitions()).map(|pid| (pid as u64, state.seed(pid, step)));
        self.store.seed(parts.collect())?;
        // Every partition steps, in pid order, writing its own buffers.
        let (from, outs) = self.store.begin(superstep);
        let mut results = par_map(outs, ctx, from.work(), |pid, (_, out)| {
            let changed = from.step(pid, step, retrying, &from.sent_to(pid), out);
            let shuffled = out.runs.iter().map(Vec::len).sum::<usize>() as u64;
            StepResult { pid, changed, shuffled }
        })?;
        self.store.commit();
        self.retrying = false;
        if retrying {
            keep_running(&mut results);
        }
        let states = || self.store.committed().map(|(_, state)| state.to_vec()).collect();
        Ok((results, cut.then(states)))
    }

    fn pull(&mut self) -> Result<Vec<Vec<Record>>> {
        Ok(self.store.committed().map(|(_, state)| state.to_vec()).collect())
    }
}

/// Make sure the superstep that produced `results` is not the run's last:
/// what a full-send superstep sent is only folded in by the next one, so its
/// own `changed == 0` says nothing about convergence.
fn keep_running(results: &mut [StepResult]) {
    if results.iter().all(|result| result.changed == 0) {
        if let Some(first) = results.first_mut() {
            first.changed = 1;
        }
    }
}

/// A worker OS process, hard-stopped and reaped when dropped — on every
/// path, including a bring-up that fails half way.
struct WorkerProcess(Child);

impl WorkerProcess {
    /// SIGKILL the process without waiting for it.
    fn signal(&mut self) {
        let _ = self.0.kill();
    }

    /// Wait for the (signalled) process to exit.
    fn reap(&mut self) {
        let _ = self.0.wait();
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        self.signal();
        self.reap();
    }
}

/// A worker whose process is up and whose [`Message::LoadProgram`] is on the
/// wire but not yet acknowledged.
struct LoadingWorker {
    stream: TcpStream,
    port: u16,
    /// Connect attempts the control connection needed.
    attempts: u32,
    /// Bytes of the greeting and the program shipped to it.
    shipped: u64,
}

/// A live worker process: child handle, control connection, and the
/// heartbeat monitor flagging it dead on probe timeout. Dropping it
/// hard-stops the process, reaps it and joins the heartbeat thread.
struct WorkerHandle {
    child: WorkerProcess,
    stream: TcpStream,
    /// Receive buffer of the control connection, kept across frames: a
    /// `PartState` carries a partition's whole state.
    payload: Vec<u8>,
    /// Loopback port the worker listens on — published to peers in
    /// [`Message::Membership`] so they can open data-plane links.
    port: u16,
    dead: Arc<AtomicBool>,
    hb_stop: Arc<AtomicBool>,
    hb_thread: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Tell the heartbeat monitor to stand down and SIGKILL the process,
    /// waiting for neither.
    fn signal(&mut self) {
        self.hb_stop.store(true, Ordering::SeqCst);
        self.child.signal();
    }

    /// Tell the worker to exit, then [`Self::signal`]: how a run, and a
    /// scale-down, part with a worker whose work is done.
    fn dismiss(&mut self, bytes_out: Option<&Counter>) {
        let _ = write_frame(&mut self.stream, &Message::Shutdown, bytes_out);
        self.signal();
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.signal();
        self.child.reap();
        if let Some(thread) = self.hb_thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// Detection facts about a worker loss, held until the replacement rejoins
/// and the matching [`JournalEvent::RecoveryCost`] entry can be emitted
/// with the respawn side of the bill filled in.
struct PendingRecovery {
    worker: usize,
    detection: &'static str,
    detect_ns: u64,
}

/// Multi-process execution over TCP frames.
struct ClusterBackend {
    cfg: ClusterConfig,
    program_name: String,
    n: u64,
    /// Each partition's rows as [`Message::LoadProgram`] carries them, encoded once.
    rows: Vec<Vec<u8>>,
    /// The live worker processes by coordinator-side index; `None` between
    /// a worker's loss and its respawn.
    slots: Vec<Option<WorkerHandle>>,
    telemetry: SinkHandle,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    reconnects: Arc<Counter>,
    heartbeat_rtt: Arc<Histogram>,
    worker_compute: Arc<PartitionedHistogram>,
    worker_shuffle: Arc<PartitionedHistogram>,
    worker_exchange: Arc<PartitionedHistogram>,
    peer_bytes: Arc<PartitionedHistogram>,
    data_bytes_out: Arc<Counter>,
    detect_latency: Arc<Histogram>,
    respawn_latency: Arc<Histogram>,
    reshipped_bytes: Arc<Counter>,
    /// Bytes re-shipped by *planned* rebalances — billed separately from
    /// `recovery/reshipped_bytes` so `inspect recovery` can split planned
    /// from unplanned reships.
    rebalance_reshipped_bytes: Arc<Counter>,
    chaos: ChaosPlan,
    /// Planned membership changes still to fire; drained like chaos kills.
    scale: Vec<ScaleEvent>,
    /// The single source of truth for partition → worker ownership. Every
    /// lookup — dispatch, result collection, pulls, reships, `WorkerLost`
    /// blame — routes through here; rebalances replace it.
    map: PartitionMap,
    /// When the current superstep's frames started going out — the baseline
    /// for failure-detection latency.
    step_started: Option<Instant>,
    /// Losses detected but not yet re-billed against a respawn.
    pending_recovery: Vec<PendingRecovery>,
    /// Membership epoch: bumped every time the membership is sent out, so
    /// workers can reject data-plane frames from replaced incarnations and
    /// from before a placement change.
    epoch: u64,
    /// Whether every live worker holds the current membership and placement.
    /// Cleared by a respawn and a rescale; the next superstep sends them
    /// again before dispatching.
    membership_current: bool,
    /// Chronological superstep of the last committed superstep — the slot
    /// name steady-state `StepGo` dispatches tell workers to consume.
    last_committed: Option<u32>,
    /// Whether the next dispatch is a `StepReset`, which says where each
    /// partition's state comes from: set initially, after every failure or
    /// rollback and by a rescale, cleared on commit. Under a non-rollback
    /// strategy these are exactly the supersteps whose inbound history is
    /// not exact, so a worker runs such a `StepReset` as a full-send
    /// superstep ([`ClusterProgram::fold_and_send`]); under a rollback
    /// strategy the workers regenerate the messages of the state they step
    /// from, which makes the history exact again.
    reset: bool,
    /// The committed state of partitions a rescale moved, pulled from their
    /// old owners and pushed to the new ones by the next dispatch; cleared
    /// on commit.
    moved: BTreeMap<usize, Vec<Record>>,
    /// Workers respawned since the last commit: their data plane holds no
    /// slots, so an optimistic retry hands them [`Inbound::Empty`]
    /// (compensation absorbs the gap) while survivors re-consume the
    /// committed slot.
    respawned_since_commit: Vec<bool>,
    /// Set by a failure or a rescale, consumed by the next commit: under a
    /// non-rollback strategy, compensated partitions recompute from an
    /// *empty* inbound and survivors from messages they have already folded
    /// in, so the full-send retry can report `changed == 0` on a converged
    /// graph and terminate the run before what it re-sent repairs the reset
    /// labels. The first post-failure commit therefore forces at least one
    /// changed record, buying the one superstep that consumes the full
    /// send; from there change-only sending is exact again and
    /// `changed == 0` means converged.
    force_changed: bool,
}

impl ClusterBackend {
    /// A backend with every worker slot empty; [`StepBackend::start`]
    /// brings the processes up.
    fn new(cfg: ClusterConfig, program_name: &str, n: u64, telemetry: SinkHandle) -> Self {
        let metrics = telemetry.metrics();
        // Per-worker instruments are sized for the largest membership the
        // scale plan can reach, not the starting count — a track must exist
        // for every worker index that can ever report.
        let max_workers =
            cfg.scale.iter().map(|event| event.workers).chain([cfg.workers]).max().unwrap_or(1);
        ClusterBackend {
            slots: (0..cfg.workers).map(|_| None).collect(),
            chaos: cfg.chaos.clone(),
            scale: cfg.scale.clone(),
            map: PartitionMap::initial(cfg.parallelism, cfg.workers),
            bytes_in: metrics.counter("net/bytes_in"),
            bytes_out: metrics.counter("net/bytes_out"),
            reconnects: metrics.counter("net/reconnects"),
            heartbeat_rtt: metrics.histogram("net/heartbeat_rtt_ns"),
            worker_compute: metrics.partitioned_histogram("worker_compute_ns", max_workers),
            worker_shuffle: metrics.partitioned_histogram("worker_shuffle_ns", max_workers),
            worker_exchange: metrics.partitioned_histogram("worker_exchange_ns", max_workers),
            peer_bytes: metrics.partitioned_histogram("net/peer_bytes", max_workers),
            data_bytes_out: metrics.counter("net/data_bytes_out"),
            detect_latency: metrics.histogram("recovery/detect_ns"),
            respawn_latency: metrics.histogram("recovery/respawn_ns"),
            reshipped_bytes: metrics.counter("recovery/reshipped_bytes"),
            rebalance_reshipped_bytes: metrics.counter("rebalance/reshipped_bytes"),
            step_started: None,
            pending_recovery: Vec::new(),
            epoch: 0,
            membership_current: false,
            last_committed: None,
            reset: true,
            moved: BTreeMap::new(),
            respawned_since_commit: vec![false; cfg.workers],
            force_changed: false,
            cfg,
            program_name: program_name.to_string(),
            n,
            rows: Vec::new(),
            telemetry,
        }
    }

    /// Partitions owned by `worker`, per the placement map.
    fn pids_of(&self, worker: usize) -> Vec<usize> {
        self.map.pids_of(worker)
    }

    /// Bring `workers` up for chronological superstep `superstep`: spawn
    /// them, encode the rows from `graph` while they boot (the run's first
    /// bring-up), and put every [`Message::LoadProgram`] on the wire before
    /// any ack is awaited; one [`JournalEvent::BringUp`] bills the phases.
    /// Returns each handle with its connect attempts and the bytes shipped to
    /// it; on failure every process spawned here is reaped.
    fn bring_up(
        &mut self,
        superstep: u32,
        workers: &[usize],
        graph: Option<&Graph>,
    ) -> Result<Vec<(WorkerHandle, u32, u64)>> {
        if workers.is_empty() {
            return Ok(Vec::new());
        }
        let failed = |worker: usize, e: io::Error| {
            EngineError::Io(io::Error::other(format!("failed to bring up worker {worker}: {e}")))
        };
        let (spawned, cmd) = (Instant::now(), &self.cfg.worker_cmd);
        let mut processes = Vec::with_capacity(workers.len());
        for &worker in workers {
            let mut command = Command::new(&cmd[0]);
            let child = command.args(&cmd[1..]).stdin(Stdio::null()).stdout(Stdio::piped()).spawn();
            processes.push(child.map(WorkerProcess).map_err(|e| failed(worker, e))?);
        }
        let encoding = Instant::now();
        if let Some(graph) = graph {
            self.rows = crate::program::encode_partitions(graph, self.map.parallelism());
        }
        let encoded = Instant::now();
        let mut ports = Vec::with_capacity(workers.len());
        for (&worker, process) in workers.iter().zip(&mut processes) {
            ports.push(announced_port(process).map_err(|e| failed(worker, e))?);
        }
        let (booted, mut loading) = (Instant::now(), Vec::with_capacity(workers.len()));
        for (&worker, port) in workers.iter().zip(ports) {
            let loaded = self.connect_and_ship(worker, port, &self.load_program_payload(worker));
            loading.push(loaded.map_err(|e| failed(worker, e))?);
        }
        let (acking, mut handles) = (Instant::now(), Vec::with_capacity(workers.len()));
        for ((&worker, process), loading) in workers.iter().zip(processes).zip(loading) {
            let (attempts, shipped) = (loading.attempts, loading.shipped);
            let handle = self.finish_load(process, loading).map_err(|e| failed(worker, e))?;
            handles.push((handle, attempts, shipped));
        }
        self.telemetry.emit(|| JournalEvent::BringUp {
            superstep,
            workers: workers.len(),
            bytes: handles.iter().map(|handle| handle.2).sum(),
            encode_ns: (encoded - encoding).as_nanos() as u64,
            boot_ns: (booted - spawned).as_nanos() as u64,
            ship_ns: (acking - booted).as_nanos() as u64,
            ack_ns: acking.elapsed().as_nanos() as u64,
        });
        Ok(handles)
    }

    /// Connect to the worker listening on `port` with exponential backoff,
    /// and send the greeting and its [`Message::LoadProgram`] `load` without
    /// waiting for the one acknowledgement that covers them.
    fn connect_and_ship(&self, worker: usize, port: u16, load: &[u8]) -> io::Result<LoadingWorker> {
        let (mut stream, attempts) = connect_with_backoff(&loopback(port))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.cfg.step_timeout))?;
        let mut shipped = 0;
        let hello = encode_to_vec(&Message::Hello { worker: worker as u64 });
        for frame in [&hello, load] {
            write_encoded_frame(&mut stream, frame, Some(&self.bytes_out))?;
            shipped += frame_bytes(frame);
        }
        Ok(LoadingWorker { stream, port, attempts, shipped })
    }

    /// Await the [`Message::LoadProgram`] acknowledgement, open the
    /// heartbeat connection and start its monitor.
    fn finish_load(
        &self,
        process: WorkerProcess,
        loading: LoadingWorker,
    ) -> io::Result<WorkerHandle> {
        let LoadingWorker { mut stream, port, .. } = loading;
        read_ack(&mut stream, &self.bytes_in, welcome)?;
        let (hb_stream, _) = connect_with_backoff(&loopback(port))?;
        hb_stream.set_nodelay(true).ok();
        hb_stream.set_read_timeout(Some(self.cfg.heartbeat_timeout))?;

        let dead = Arc::new(AtomicBool::new(false));
        let hb_stop = Arc::new(AtomicBool::new(false));
        let hb_thread = {
            let dead = dead.clone();
            let stop = hb_stop.clone();
            let interval = self.cfg.heartbeat_interval;
            let rtt = self.heartbeat_rtt.clone();
            let bytes_out = self.bytes_out.clone();
            let bytes_in = self.bytes_in.clone();
            thread::spawn(move || {
                heartbeat_loop(hb_stream, stop, dead, interval, rtt, bytes_out, bytes_in)
            })
        };
        Ok(WorkerHandle {
            child: process,
            stream,
            payload: Vec::new(),
            port,
            dead,
            hb_stop,
            hb_thread: Some(hb_thread),
        })
    }

    /// The [`Message::LoadProgram`] payload for `worker`: the program name
    /// and the adjacency of the partitions the placement map gives it,
    /// assembled from the encoded rows the coordinator keeps.
    fn load_program_payload(&self, worker: usize) -> Vec<u8> {
        let pids = self.pids_of(worker).into_iter();
        let parts: Vec<(u64, &[u8])> = pids.map(|pid| (pid as u64, &self.rows[pid][..])).collect();
        let mut payload = Vec::new();
        assemble_load_program(&mut payload, &self.program_name, self.n, &parts);
        payload
    }

    /// Bring every slot to a live worker: newly detected deaths become
    /// [`EngineError::WorkerLost`] (handled by the driver), cleared slots
    /// are re-spawned and announced via [`JournalEvent::WorkerRejoined`]
    /// plus a [`JournalEvent::RecoveryCost`] bill pairing the loss's
    /// detection latency with the respawn time and re-shipped bytes.
    fn ensure_workers(&mut self, superstep: u32) -> Result<()> {
        for worker in 0..self.slots.len() {
            let flagged_dead =
                self.slots[worker].as_ref().is_some_and(|h| h.dead.load(Ordering::SeqCst));
            if flagged_dead {
                return Err(self.fail(worker, superstep, "heartbeat timed out".to_string()));
            }
            if self.slots[worker].is_none() {
                let respawn_started = Instant::now();
                let (handle, attempts, reshipped) =
                    self.bring_up(superstep, &[worker], None)?.remove(0);
                let respawn_ns = respawn_started.elapsed().as_nanos() as u64;
                self.slots[worker] = Some(handle);
                // The replacement listens on a fresh port and holds no
                // data-plane state: the whole cluster needs a new membership
                // epoch before the next dispatch.
                self.membership_current = false;
                self.respawned_since_commit[worker] = true;
                self.reconnects.inc();
                self.respawn_latency.observe(respawn_ns);
                self.reshipped_bytes.add(reshipped);
                self.telemetry.emit(|| JournalEvent::WorkerRejoined {
                    superstep,
                    worker,
                    reconnect_attempts: attempts,
                });
                let pending = self.pending_recovery.iter().position(|p| p.worker == worker);
                let pending = pending.map(|i| self.pending_recovery.remove(i));
                // A slot can be empty without a recorded loss only on paths
                // that never got to fail() — bill it as unknown rather than
                // dropping the respawn cost.
                let (detection, detect_ns) = pending
                    .map_or(("unknown", 0), |pending| (pending.detection, pending.detect_ns));
                self.telemetry.emit(|| JournalEvent::RecoveryCost {
                    superstep,
                    worker,
                    detection: detection.to_string(),
                    detect_ns,
                    respawn_ns,
                    reshipped_bytes: reshipped,
                });
            }
        }
        Ok(())
    }

    /// Fire every scale event due at `superstep` (drained from the plan
    /// like chaos kills, so a post-failure retry of the same chronological
    /// superstep cannot rescale twice).
    fn apply_scale_events(
        &mut self,
        superstep: u32,
        step: u64,
        state: &ClusterState,
    ) -> Result<()> {
        if self.scale.is_empty() {
            return Ok(());
        }
        let (due, rest): (Vec<ScaleEvent>, Vec<ScaleEvent>) = std::mem::take(&mut self.scale)
            .into_iter()
            .partition(|event| event.superstep <= superstep);
        self.scale = rest;
        for event in due {
            self.rescale(superstep, event.workers, step, state)?;
        }
        Ok(())
    }

    /// Rescale the live cluster to `target` workers at a superstep barrier.
    ///
    /// This is recovery's reship path, scheduled instead of suffered: the
    /// [`Rebalancer`] computes a minimal-move map, joining workers are
    /// brought up exactly like respawned replacements (journaled as
    /// `WorkerJoined` instead of billed as `WorkerRejoined`) and learn where
    /// the run stands from their first [`Message::StepReset`], retiring
    /// workers are told to [`Message::Shutdown`], and survivors that gained
    /// partitions receive their full new set over the same `LoadProgram`
    /// frame a rejoin uses. The membership — and with it the new map — goes
    /// out under a bumped epoch before the next dispatch, so any in-flight
    /// frames addressed by the old ownership stay dropped.
    fn rescale(
        &mut self,
        superstep: u32,
        target: usize,
        step: u64,
        state: &ClusterState,
    ) -> Result<()> {
        let current = self.slots.len();
        if target == current {
            return Ok(());
        }
        self.telemetry.emit(|| JournalEvent::RebalanceStarted {
            superstep,
            from_workers: current,
            to_workers: target,
        });
        let outcome = Rebalancer::rebalance(&self.map, target);
        // What the moved partitions committed comes up from their old
        // owners — a leaver, or a survivor handing a partition to a joiner —
        // before anything changes hands; the next dispatch pushes it down.
        // A partition the next superstep seeds otherwise (init, compensation,
        // a restore) stays where it is: its old owner may hold none of it.
        if let Some(committed) = self.last_committed {
            let mut from: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for m in &outcome.moved {
                if state.seed(m.pid, step) == Seed::Committed {
                    from.entry(m.from).or_default().push(m.pid);
                }
            }
            let states = self.pull_states(superstep, committed, from)?;
            self.moved.extend(states);
        }
        let moved = outcome.moved;
        self.map = outcome.map;
        // Scale-up: the joiners come up with the new map already installed,
        // so each is shipped exactly the partitions the rebalance gave it.
        let joiners: Vec<usize> = (current..target).collect();
        let mut reshipped = 0;
        for (worker, (handle, _attempts, shipped)) in
            joiners.iter().zip(self.bring_up(superstep, &joiners, None)?)
        {
            reshipped += shipped;
            self.slots.push(Some(handle));
            self.telemetry.emit(|| JournalEvent::WorkerJoined { superstep, worker: *worker });
        }
        // Scale-down: a planned WorkerLost. At a barrier nothing a leaver
        // sent is still in flight, its partitions are already reassigned and
        // their state pulled, so it is told to go and reaped — a leaver that
        // dies first is not a loss.
        for mut leaver in self.slots.drain(target..).flatten() {
            leaver.dismiss(Some(&self.bytes_out));
        }
        // A pending loss bill for a retired index can never pair with a
        // respawn now.
        self.pending_recovery.retain(|pending| pending.worker < target);
        // Survivors that gained partitions get their full new set re-shipped
        // over the recovery path (LoadProgram replaces the worker's whole
        // assignment). On scale-up the rebalancer only moves partitions to
        // the joiners, so this set is empty there.
        let mut gainers: Vec<usize> =
            moved.iter().map(|m| m.to).filter(|&w| w < current.min(target)).collect();
        gainers.sort_unstable();
        gainers.dedup();
        for worker in gainers {
            let payload = self.load_program_payload(worker);
            reshipped += self.send_to(worker, superstep, "rebalance reship", &payload)?;
            self.await_ack(worker, superstep, "rebalance reship", welcome)?;
        }
        // The epilogue mirrors an unplanned loss: the membership, new map
        // included, goes out under a bumped epoch, the moved state is pushed
        // in the next dispatch, and — because moved partitions' in-flight
        // messages live in old owners' data-plane slots — every worker
        // computes the post-scale superstep from an empty inbound under
        // non-rollback strategies (`respawned_since_commit` forces
        // [`Inbound::Empty`] per worker). Those messages are lost, which is
        // why the post-scale superstep — a `StepReset` dispatch — is a
        // full-send one: every vertex re-sends its label, and
        // `force_changed` buys the superstep that folds the re-sent labels
        // in. Rollback strategies regenerate the messages from the state
        // instead ([`Inbound::Regenerate`]), which keeps the history exact
        // and the post-scale superstep change-driven.
        self.membership_current = false;
        self.reset = true;
        self.force_changed = true;
        self.respawned_since_commit = vec![true; target];
        self.rebalance_reshipped_bytes.add(reshipped);
        let moved_partitions = moved.len();
        self.telemetry.emit(|| JournalEvent::RebalanceCompleted {
            superstep,
            moved_partitions,
            reshipped_bytes: reshipped,
        });
        Ok(())
    }

    /// Write one encoded frame to `worker`'s control connection, returning
    /// the bytes written. With [`Self::await_ack`], the one way the
    /// coordinator talks to a member: the two own the slot lookup, the byte
    /// counters and the conversion of whatever goes wrong into the loss of
    /// that worker.
    fn send_to(&mut self, worker: usize, superstep: u32, what: &str, frame: &[u8]) -> Result<u64> {
        handle_of(&mut self.slots, worker)
            .and_then(|handle| {
                write_encoded_frame(&mut handle.stream, frame, Some(&self.bytes_out))
            })
            .map(|()| frame_bytes(frame))
            .map_err(|e| self.fail(worker, superstep, format!("sending {what} failed: {e}")))
    }

    /// Read `worker`'s control connection up to the acknowledgement
    /// `accepts` recognises: the effect the coordinator has to wait for has
    /// happened ([`read_ack`] says what may precede it).
    fn await_ack(
        &mut self,
        worker: usize,
        superstep: u32,
        what: &str,
        accepts: impl Fn(&Message) -> bool,
    ) -> Result<Message> {
        handle_of(&mut self.slots, worker)
            .and_then(|handle| read_ack(&mut handle.stream, &self.bytes_in, accepts))
            .map_err(|e| self.fail(worker, superstep, format!("{what} ack failed: {e}")))
    }

    /// Tear the worker's slot down, record the loss's detection facts for
    /// the eventual [`JournalEvent::RecoveryCost`] bill, and build the
    /// error the driver's recovery arm consumes.
    fn fail(&mut self, worker: usize, superstep: u32, message: String) -> EngineError {
        if let Some(slot) = self.slots.get_mut(worker) {
            *slot = None;
        }
        // Declared lost ⇒ actually dead: dropping the handle SIGKILLs even a
        // merely-slow worker, so its late data-plane frames stop at the
        // epoch check and its late control frames at the superstep echo.
        // The retry is a `StepReset` (survivors drop the failed attempt's
        // tentative state and step from their committed one), and the first
        // post-failure commit must not be allowed to terminate the run (see
        // `force_changed`).
        self.reset = true;
        self.force_changed = true;
        let detection = if message.starts_with("heartbeat") { "heartbeat" } else { "read_error" };
        let detect_ns =
            self.step_started.map(|started| started.elapsed().as_nanos() as u64).unwrap_or(0);
        self.detect_latency.observe(detect_ns);
        // One bill per worker per outage: a worker that fails again before
        // rejoining keeps its first (earliest) detection record.
        if !self.pending_recovery.iter().any(|p| p.worker == worker) {
            self.pending_recovery.push(PendingRecovery { worker, detection, detect_ns });
        }
        EngineError::WorkerLost {
            worker,
            pids: self.pids_of(worker),
            superstep: Some(superstep),
            message,
        }
    }

    /// Merge one committed superstep's worker telemetry into the journal in
    /// causal `(superstep, worker, seq)` order — the arrival interleaving
    /// across connections is nondeterministic, the sorted order is not — and
    /// feed the per-worker compute/shuffle histograms.
    fn merge_telemetry(&mut self, superstep: u32, mut frames: Vec<(usize, u64, Vec<SpanRow>)>) {
        if frames.is_empty() || !self.telemetry.enabled() {
            return;
        }
        frames.sort_unstable_by_key(|&(worker, seq, _)| (worker, seq));
        for (worker, seq, spans) in frames {
            for (pid, phase, records, duration_ns) in spans {
                let (label, histogram, observed) = match phase {
                    SPAN_PHASE_COMPUTE => ("compute", &self.worker_compute, duration_ns),
                    SPAN_PHASE_SHUFFLE => ("shuffle", &self.worker_shuffle, duration_ns),
                    SPAN_PHASE_EXCHANGE => ("exchange", &self.worker_exchange, duration_ns),
                    // Data-plane byte accounting: `pid` is the peer the bytes
                    // went to, `records` the bytes, `duration_ns` the frame
                    // count. Billed to the *sending* worker (the connection
                    // the row arrived on) and kept out of the duration
                    // histograms.
                    SPAN_PHASE_PEER_BYTES => {
                        self.data_bytes_out.add(records);
                        ("peer_bytes", &self.peer_bytes, records)
                    }
                    _ => continue,
                };
                histogram.observe(worker, observed);
                self.telemetry.emit(|| JournalEvent::WorkerSpan {
                    superstep,
                    worker,
                    seq,
                    pid: pid as usize,
                    span: label.to_string(),
                    records,
                    duration_ns,
                });
            }
        }
    }

    /// SIGKILL a worker's process outright, leaving the stale handle in the
    /// slot: the loss must be *discovered* through network I/O, exactly like
    /// an unplanned crash.
    fn kill_worker(&mut self, worker: usize) {
        if let Some(handle) = self.slots[worker].as_mut() {
            handle.signal();
            handle.child.reap();
        }
    }

    /// Apply the chaos plan's injections due at `superstep`, journaling
    /// each. Returns per-worker `(send_delay, recv_delay)` latencies the
    /// step loop weaves into its I/O: link delay slows every frame sent to
    /// the worker, straggler delay stalls the first read of its replies.
    fn inject_chaos(&mut self, superstep: u32) -> (Vec<Option<Duration>>, Vec<Option<Duration>>) {
        let workers = self.slots.len();
        let mut send_delay: Vec<Option<Duration>> = vec![None; workers];
        let mut recv_delay: Vec<Option<Duration>> = vec![None; workers];
        if self.chaos.is_empty() {
            return (send_delay, recv_delay);
        }
        let telemetry = self.telemetry.clone();
        let injected = |worker, kind: &str, param| {
            let kind = kind.to_string();
            telemetry.emit(|| JournalEvent::ChaosInjected { superstep, worker, kind, param });
        };

        // Kills drain from the plan: each fires exactly once even though
        // the superstep is re-attempted after the failure. Several kills on
        // one superstep form a storm; recovery handles them one detected
        // loss at a time.
        let (due, rest): (Vec<KillPlan>, Vec<KillPlan>) = std::mem::take(&mut self.chaos.kills)
            .into_iter()
            .partition(|k| k.superstep == superstep);
        self.chaos.kills = rest;
        for plan in due {
            // A kill aimed at a worker the cluster has (elastically) scaled
            // away from is a no-op: the target already left gracefully.
            if plan.worker >= workers {
                continue;
            }
            self.kill_worker(plan.worker);
            injected(plan.worker, "kill", 0);
        }

        for link in self.chaos.links.clone() {
            if !link.active(superstep) || link.worker >= workers {
                continue;
            }
            if !link.delay.is_zero() {
                send_delay[link.worker] = Some(link.delay);
                injected(link.worker, "link_delay", link.delay.as_millis() as u64);
            }
            if link.drop_probability > 0.0
                && chaos_coin(link.seed, superstep, link.worker) < link.drop_probability
            {
                // Sever the control connection; the step loop's next I/O on
                // it fails and flows through the ordinary WorkerLost path —
                // a lossy link is indistinguishable from a crash until the
                // respawned connection proves otherwise.
                if let Some(handle) = self.slots[link.worker].as_ref() {
                    let _ = handle.stream.shutdown(std::net::Shutdown::Both);
                }
                injected(link.worker, "link_drop", 0);
            }
        }

        for straggler in self.chaos.stragglers.clone() {
            if !straggler.active(superstep) || straggler.worker >= workers {
                continue;
            }
            recv_delay[straggler.worker] = Some(straggler.delay);
            injected(straggler.worker, "straggler", straggler.delay.as_millis() as u64);
        }
        (send_delay, recv_delay)
    }

    /// Make sure every worker holds the current membership: the epoch, every
    /// member's address and the placement map, one frame. A no-op while
    /// current; after any respawn or rescale the epoch is bumped and the
    /// frame sent again, which is what retires the dead incarnation's — and
    /// the old ownership's — in-flight frames cluster-wide. One worker at a
    /// time, each acknowledged before the next is told: a send that fails
    /// half way leaves no acknowledgement unread on another connection.
    fn ensure_membership(&mut self, superstep: u32) -> Result<()> {
        if self.membership_current {
            return Ok(());
        }
        self.epoch += 1;
        let mut peers = Vec::with_capacity(self.slots.len());
        for worker in 0..self.slots.len() {
            match handle_of(&mut self.slots, worker) {
                Ok(handle) => peers.push((worker as u64, u64::from(handle.port))),
                Err(e) => return Err(self.fail(worker, superstep, e.to_string())),
            }
        }
        let frame = encode_to_vec(&Message::Membership {
            epoch: self.epoch,
            // Half the control read timeout: a worker that gives up waiting
            // for peer data still gets its StepFailed out well before the
            // coordinator's own read deadline.
            data_timeout_ms: (self.cfg.step_timeout / 2).as_millis() as u64,
            peers,
            assignment: self.map.assignment().iter().map(|&w| w as u64).collect(),
        });
        for worker in 0..self.slots.len() {
            self.send_to(worker, superstep, "Membership", &frame)?;
            self.await_ack(worker, superstep, "Membership", welcome)?;
        }
        self.membership_current = true;
        Ok(())
    }

    /// The dispatch: one thin frame per *worker*. Steady state is `StepGo`
    /// (compute the named pids from what the last superstep left, consuming
    /// its data-plane slot); after a failure, rollback or rescale, and at the
    /// start, it is `StepReset`, which says where each partition's state
    /// comes from — pushed down only for a restore, a warm start or a moved
    /// partition — and under a rollback strategy orders the messages of that
    /// state regenerated. On a `cut` the new state comes up with the replies.
    fn dispatch(
        &mut self,
        superstep: u32,
        step: u64,
        state: &ClusterState,
        cut: bool,
        send_delay: &[Option<Duration>],
    ) -> Result<()> {
        self.ensure_membership(superstep)?;
        // The slot steady-state dispatches consume: the messages produced by
        // the last committed superstep. The logical first step has none.
        let committed = self.last_committed.filter(|_| step > 0);
        let rollback = self.cfg.strategy.is_rollback();
        for (worker, delay) in send_delay.iter().enumerate() {
            if let Some(delay) = delay {
                thread::sleep(*delay);
            }
            let pids = self.pids_of(worker);
            let msg = if self.reset {
                let inbound = match (committed, rollback, self.respawned_since_commit[worker]) {
                    (None, _, _) => Inbound::Empty,
                    // A restored cut, or what the last commit left after a
                    // rescale: either way exactly what the next superstep
                    // folds in, once the workers regenerate what it sends.
                    (Some(_), true, _) => Inbound::Regenerate,
                    (Some(slot), false, false) => Inbound::Slot(slot),
                    // A worker respawned since the last commit holds no
                    // data-plane slots: under optimistic recovery it computes
                    // from an empty inbound (compensation absorbs the gap)
                    // instead of stalling on a slot it can never complete.
                    (Some(_), false, true) => Inbound::Empty,
                };
                let seed = |pid: usize| match state.seed(pid, step) {
                    Seed::Committed => {
                        self.moved.get(&pid).cloned().map_or(Seed::Committed, Seed::Pushed)
                    }
                    seed => seed,
                };
                let parts = pids.iter().map(|&pid| (pid as u64, seed(pid))).collect();
                let committed = self.last_committed;
                Message::StepReset { superstep, step, committed, parts, inbound, cut }
            } else {
                let pids = pids.iter().map(|&pid| pid as u64).collect();
                Message::StepGo { superstep, step, inbound: committed, pids, cut }
            };
            self.send_to(worker, superstep, "step dispatch", &encode_to_vec(&msg))?;
        }
        Ok(())
    }

    /// Pull the committed state of `from`'s partitions (`worker → pids`) up:
    /// every `Pull` goes out before any reply is read, and each worker
    /// answers in pid order. `committed` is the last committed superstep.
    fn pull_states(
        &mut self,
        superstep: u32,
        committed: u32,
        from: BTreeMap<usize, Vec<usize>>,
    ) -> Result<Vec<(usize, Vec<Record>)>> {
        for (&worker, pids) in &from {
            let pids = pids.iter().map(|&pid| pid as u64).collect();
            let frame = encode_to_vec(&Message::Pull { committed, pids });
            self.send_to(worker, superstep, "Pull", &frame)?;
        }
        let mut states = Vec::new();
        for (worker, pids) in from {
            for pid in pids {
                let state_of = |msg: &Message| {
                    matches!(msg, Message::PartState { pid: p, superstep: s, .. }
                        if *p == pid as u64 && *s == committed)
                };
                if let Message::PartState { state, .. } =
                    self.await_ack(worker, superstep, "Pull", state_of)?
                {
                    states.push((pid, state));
                }
            }
        }
        Ok(states)
    }

    /// Receive phase. Replies on one
    /// connection arrive in send order; frames tagged with an older
    /// superstep are leftovers of a superstep that failed after this worker
    /// had already answered — skip them. Workers write each telemetry frame,
    /// and on a `cut` each partition's state, *before* its StepDone, so by
    /// the time every StepDone is in, so is everything else this superstep
    /// sends up. Frames of a superstep that fails are dropped with the local
    /// stash, keeping the journal free of half-superstep data.
    fn collect_step_results(
        &mut self,
        superstep: u32,
        cut: bool,
        mut recv_delay: Vec<Option<Duration>>,
    ) -> Result<Stepped> {
        let parallelism = self.map.parallelism();
        let mut results = Vec::with_capacity(parallelism);
        let mut states = Vec::with_capacity(if cut { parallelism } else { 0 });
        let mut pending_spans: Vec<(usize, u64, Vec<SpanRow>)> = Vec::new();
        for pid in 0..parallelism {
            let mut pulled = None;
            let worker = self.map.worker_of(pid);
            // Straggler injection: the first read of this worker's replies
            // stalls, as if its compute ran slow. One stall per superstep.
            if let Some(delay) = recv_delay[worker].take() {
                thread::sleep(delay);
            }
            loop {
                let frame = handle_of(&mut self.slots, worker).and_then(|handle| {
                    read_frame_buffered(
                        &mut handle.stream,
                        &mut handle.payload,
                        Some(&self.bytes_in),
                    )
                });
                let (lost, violation) = match frame {
                    Ok(
                        Message::StepDone { superstep: rss, .. }
                        | Message::PartState { superstep: rss, .. }
                        | Message::StepFailed { superstep: rss, .. },
                    ) if rss < superstep => continue,
                    Ok(Message::StepDone { pid: rpid, superstep: rss, changed, shuffled }) => {
                        if rss == superstep && rpid == pid as u64 && cut == pulled.is_some() {
                            results.push(StepResult { pid, changed, shuffled });
                            states.extend(pulled);
                            break;
                        }
                        (
                            worker,
                            format!("protocol violation: StepDone for pid {rpid} superstep {rss}"),
                        )
                    }
                    Ok(Message::PartState { pid: rpid, superstep: rss, state }) => {
                        if rss == superstep && rpid == pid as u64 && cut {
                            pulled = Some(state);
                            continue;
                        }
                        (
                            worker,
                            format!("protocol violation: PartState for pid {rpid} superstep {rss}"),
                        )
                    }
                    Ok(Message::TelemetryFrame { superstep: rss, seq, spans, .. }) => {
                        // Attribution by connection (the slot index), not by
                        // the frame's self-reported worker id.
                        if rss == superstep {
                            pending_spans.push((worker, seq, spans));
                        }
                        continue;
                    }
                    // A worker gave up waiting for peer data: the peer it
                    // names is the loss; this worker computed nothing and is
                    // intact. Declaring the peer lost SIGKILLs it (see
                    // `fail`), so a slow-but-alive straggler cannot leak
                    // frames into the retry either. A blamed peer index can
                    // be stale after a scale-down (the worker waited on a
                    // member that since left); out-of-range blame falls back
                    // to the reporter.
                    Ok(Message::StepFailed { waiting_on, .. }) => {
                        let blamed = waiting_on.first().map(|&w| w as usize);
                        let lost = blamed.filter(|&w| w < self.slots.len()).unwrap_or(worker);
                        (
                            lost,
                            format!(
                                "worker {worker} timed out waiting for data from {waiting_on:?}"
                            ),
                        )
                    }
                    Ok(other) => {
                        (worker, format!("protocol violation: expected StepDone, got {other:?}"))
                    }
                    Err(e) => (worker, format!("reading StepDone failed: {e}")),
                };
                return Err(self.fail(lost, superstep, violation));
            }
        }
        self.merge_telemetry(superstep, pending_spans);
        Ok((results, cut.then_some(states)))
    }
}

impl StepBackend for ClusterBackend {
    fn start(&mut self, graph: &Graph) -> Result<()> {
        let workers: Vec<usize> = (0..self.cfg.workers).collect();
        for (worker, (handle, ..)) in workers.iter().zip(self.bring_up(0, &workers, Some(graph))?) {
            self.slots[*worker] = Some(handle);
        }
        Ok(())
    }

    fn run_step(
        &mut self,
        superstep: u32,
        step: u64,
        state: &ClusterState,
        cut: bool,
        _ctx: &ExecContext,
    ) -> Result<Stepped> {
        self.ensure_workers(superstep)?;
        self.apply_scale_events(superstep, step, state)?;
        let (send_delay, recv_delay) = self.inject_chaos(superstep);
        self.step_started = Some(Instant::now());

        // Send phase: every frame goes out before any reply is awaited, so
        // workers compute their partitions concurrently.
        self.dispatch(superstep, step, state, cut, &send_delay)?;
        let (mut results, states) = self.collect_step_results(superstep, cut, recv_delay)?;

        // Returning `Ok` *is* the commit: nothing in the step operator can
        // fail past this point, so the bookkeeping that distinguishes a
        // steady-state dispatch from a recovery dispatch settles here.
        if std::mem::take(&mut self.force_changed) && !self.cfg.strategy.is_rollback() {
            keep_running(&mut results);
        }
        self.last_committed = Some(superstep);
        self.reset = false;
        self.moved.clear();
        self.respawned_since_commit.iter_mut().for_each(|flag| *flag = false);
        Ok((results, states))
    }

    fn pull(&mut self) -> Result<Vec<Vec<Record>>> {
        let committed = self.last_committed.ok_or_else(|| {
            EngineError::Iteration("no superstep committed: no state to pull".into())
        })?;
        let from = (0..self.slots.len()).map(|worker| (worker, self.pids_of(worker))).collect();
        let mut parts = vec![Vec::new(); self.map.parallelism()];
        for (pid, state) in self.pull_states(committed, committed, from)? {
            parts[pid] = state;
        }
        Ok(parts)
    }
}

impl Drop for ClusterBackend {
    fn drop(&mut self) {
        // Every worker is told to go before any is waited for, so the
        // processes exit side by side; dropping the handles then reaps them.
        self.slots.iter_mut().flatten().for_each(|handle| handle.dismiss(None));
        self.slots.clear();
    }
}

/// The live handle in `worker`'s slot. [`ClusterBackend::ensure_workers`]
/// fills every slot before a superstep's I/O starts; one found empty all the
/// same fails that I/O the way a dead connection would, not with a panic.
fn handle_of(slots: &mut [Option<WorkerHandle>], worker: usize) -> io::Result<&mut WorkerHandle> {
    let empty = || io::Error::other("no live process in the worker's slot");
    slots.get_mut(worker).and_then(Option::as_mut).ok_or_else(empty)
}

/// [`read_ack`]'s `accepts` for the frames acknowledged with a bare
/// [`Message::Welcome`]: `LoadProgram` and `Membership`.
fn welcome(msg: &Message) -> bool {
    matches!(msg, Message::Welcome)
}

/// The one reader of acknowledgements: consume `stream` up to the frame
/// `accepts` recognises, and return it. What a worker may still be pushing
/// up the control connection from a superstep that failed — its
/// `StepDone`s, `TelemetryFrame`s, `PartState`s and `StepFailed` — is
/// skipped; any other frame is a protocol violation.
fn read_ack(
    stream: &mut TcpStream,
    bytes_in: &Counter,
    accepts: impl Fn(&Message) -> bool,
) -> io::Result<Message> {
    loop {
        match read_frame(stream, Some(bytes_in))? {
            msg if accepts(&msg) => return Ok(msg),
            Message::StepDone { .. }
            | Message::TelemetryFrame { .. }
            | Message::StepFailed { .. }
            | Message::PartState { .. } => continue,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected an acknowledgement, got {other:?}"),
                ))
            }
        }
    }
}

/// Read a spawned worker's stdout up to its port announcement.
fn announced_port(process: &mut WorkerProcess) -> io::Result<u16> {
    let stdout = process.0.stdout.take().ok_or_else(|| io::Error::other("no stdout pipe"))?;
    for line in BufReader::new(stdout).lines() {
        if let Some(rest) = line?.trim().strip_prefix(LISTENING_MARKER) {
            let bad = |e| io::Error::new(io::ErrorKind::InvalidData, format!("bad port: {e}"));
            return rest.trim().parse::<u16>().map_err(bad);
        }
    }
    Err(io::Error::other("worker exited before announcing its port"))
}

/// Bytes a frame of `payload` takes on the wire: its length prefix and itself.
fn frame_bytes(payload: &[u8]) -> u64 {
    4 + payload.len() as u64
}

/// A worker's listener address: workers are loopback processes.
fn loopback(port: u16) -> String {
    format!("127.0.0.1:{port}")
}

fn connect_with_backoff(addr: &str) -> io::Result<(TcpStream, u32)> {
    let mut delay = CONNECT_BACKOFF;
    let mut last = io::Error::other("no connect attempts configured");
    for attempt in 1..=CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok((stream, attempt)),
            Err(e) => last = e,
        }
        thread::sleep(delay);
        delay = (delay * 2).min(CONNECT_BACKOFF_CAP);
    }
    Err(last)
}

fn heartbeat_loop(
    mut stream: TcpStream,
    stop: Arc<AtomicBool>,
    dead: Arc<AtomicBool>,
    interval: Duration,
    rtt: Arc<Histogram>,
    bytes_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
) {
    let mut nonce = 0u64;
    while !stop.load(Ordering::SeqCst) {
        nonce += 1;
        let started = Instant::now();
        if write_frame(&mut stream, &Message::Heartbeat { nonce }, Some(&bytes_out)).is_err() {
            break;
        }
        match read_frame(&mut stream, Some(&bytes_in)) {
            Ok(Message::HeartbeatAck { nonce: ack }) if ack == nonce => {
                rtt.observe(started.elapsed().as_nanos() as u64);
            }
            _ => break,
        }
        // Wait out the interval parked rather than asleep, so teardown's
        // unpark ends the wait at once; a spurious wake-up re-parks for the
        // remainder.
        let next_probe = Instant::now() + interval;
        while !stop.load(Ordering::SeqCst) {
            match next_probe.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => thread::park_timeout(left),
                _ => break,
            }
        }
    }
    // A probe failure during normal operation flags the worker; during
    // coordinator-initiated teardown (stop already set) it is expected.
    if !stop.load(Ordering::SeqCst) {
        dead.store(true, Ordering::SeqCst);
    }
}

/// The backend a run's operators and its compensation share.
type SharedBackend = Arc<parking_lot::Mutex<Box<dyn StepBackend>>>;

/// The distributed-superstep operator injected into the iteration body. It
/// runs the logical step the driver computes: the count of committed
/// supersteps, rewound with the state on a restore or a restart. A
/// superstep after which the recovery handler reads the state
/// ([`ExecContext::reads_state`]) brings the partitions' state up.
struct ClusterStepOp {
    backend: SharedBackend,
}

impl DynOp for ClusterStepOp {
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let superstep = ctx.superstep().unwrap_or(0);
        let iteration = ctx.iteration().unwrap_or(0);
        let state: &ClusterState = inputs[0].downcast_ref("ClusterStep(state)")?;
        let step = u64::from(iteration);
        let cut = ctx.reads_state();
        let (results, states) = self.backend.lock().run_step(superstep, step, state, cut, ctx)?;

        // Commit: the convergence counts, and the state if it came up.
        let parts = match states {
            Some(states) => states.into_iter().map(Part::Pulled).collect(),
            None => state.parts.iter().map(|part| Part::Resident(part.vertices())).collect(),
        };
        let mut next = ClusterState::of(parts);
        let mut shuffled = 0u64;
        for result in results {
            next.changed[result.pid] = result.changed;
            shuffled += result.shuffled;
        }
        ctx.add_shuffled(shuffled);
        Ok(Erased::of(next))
    }

    fn kind(&self) -> &'static str {
        "ClusterStep"
    }
}

/// Termination probe: empty once the step operator saw zero changed records,
/// feeding the bulk driver's standard empty-termination-set convention.
struct ChangedProbeOp {
    parallelism: usize,
}

impl DynOp for ChangedProbeOp {
    fn execute(&mut self, inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let state: &ClusterState = inputs[0].downcast_ref("ClusterChangedProbe(state)")?;
        let mut parts = Partitions::<u8>::empty(self.parallelism);
        if state.changed.iter().any(|&changed| changed > 0) {
            parts.partition_mut(0).push(1);
        }
        Ok(Erased::new(parts))
    }

    fn kind(&self) -> &'static str {
        "ClusterChangedProbe"
    }
}

/// The run's initial state, handed to the iteration as it is: the outer plan
/// runs once, and nothing else reads the state, so nothing copies it.
struct InitialStateOp(Option<ClusterState>);

impl DynOp for InitialStateOp {
    fn execute(&mut self, _inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let state = self.0.take().ok_or_else(|| {
            EngineError::Plan("the cluster state was already handed to its iteration".into())
        })?;
        Ok(Erased::of(state))
    }

    fn kind(&self) -> &'static str {
        "ClusterState"
    }
}

/// The run's values: every partition's committed state, pulled from the
/// backend once the iteration is done.
struct ValuesOp {
    backend: SharedBackend,
}

impl DynOp for ValuesOp {
    fn execute(&mut self, _inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        Ok(Erased::new(Partitions::from_parts(self.backend.lock().pull()?)))
    }

    fn kind(&self) -> &'static str {
        "ClusterValues"
    }
}

/// Why a cluster run cannot recover with `strategy`, if it cannot: `ignore`
/// is the in-process ablation, and incremental checkpoints log solution-set
/// diffs that only a delta iteration has.
pub fn unsupported_strategy(strategy: Strategy) -> Option<String> {
    matches!(strategy, Strategy::Ignore | Strategy::IncrementalCheckpoint { .. }).then(|| {
        format!(
            "a cluster recovers by optimistic compensation, checkpoints, async snapshots or \
             restart; {strategy} is in-process only"
        )
    })
}

/// Run `program_name` on a cluster of worker processes.
pub fn run_cluster(
    program_name: &str,
    graph: &Graph,
    mut cfg: ClusterConfig,
    telemetry: SinkHandle,
) -> Result<ClusterRun> {
    if cfg.workers == 0 || cfg.workers > cfg.parallelism {
        return Err(EngineError::Plan(format!(
            "cluster needs 1..=parallelism workers, got {} workers for {} partitions",
            cfg.workers, cfg.parallelism
        )));
    }
    if let Some(event) =
        cfg.scale.iter().find(|event| event.workers == 0 || event.workers > cfg.parallelism)
    {
        return Err(EngineError::Plan(format!(
            "scale event at superstep {} targets {} workers, but the cluster has {} partitions",
            event.superstep, event.workers, cfg.parallelism
        )));
    }
    // Chaos may target any worker index the cluster will *ever* have: a kill
    // aimed at a worker that only exists after a scale-up is legitimate (and
    // a no-op if it fires while that worker is absent).
    let max_workers =
        cfg.scale.iter().map(|event| event.workers).chain([cfg.workers]).max().unwrap_or(1);
    if let Some(worker) = cfg.chaos.max_worker().filter(|&w| w >= max_workers) {
        return Err(EngineError::Plan(format!(
            "chaos plan targets worker {worker}, but the cluster never has more than {max_workers} workers"
        )));
    }
    if let Some(reason) = unsupported_strategy(cfg.strategy) {
        return Err(EngineError::Plan(reason));
    }
    // A zero read timeout is refused by the socket, and a zero interval
    // probes back to back.
    let timing = [
        ("heartbeat interval", cfg.heartbeat_interval),
        ("heartbeat timeout", cfg.heartbeat_timeout),
        ("step timeout", cfg.step_timeout),
    ];
    if let Some((name, _)) = timing.iter().find(|(_, duration)| duration.is_zero()) {
        return Err(EngineError::Plan(format!("the {name} must be positive, got 0")));
    }
    let program = resolve(program_name)?;
    let n = graph.num_vertices() as u64;
    let env = EnvConfig::new(cfg.parallelism).with_telemetry(telemetry.clone());
    let max_iterations = cfg.max_iterations;
    let strategy = cfg.strategy;
    let initial_state = cfg.initial_state.take();
    let backend = ClusterBackend::new(cfg, program_name, n, telemetry);
    run_with_backend(
        program,
        Box::new(backend),
        graph,
        max_iterations,
        env,
        strategy,
        initial_state,
    )
}

/// Run the *same* named program single-process: the baseline a cluster run
/// is diffed against. Failure-free local and cluster runs are bitwise
/// identical because both route through the same step assembly.
pub fn run_local(
    program_name: &str,
    graph: &Graph,
    parallelism: usize,
    max_iterations: u32,
    telemetry: SinkHandle,
) -> Result<ClusterRun> {
    run_local_warm(program_name, graph, parallelism, max_iterations, telemetry, None)
}

/// [`run_local`], optionally warm-started from a previous fixpoint instead
/// of the program's `init_partition` output: one record per vertex, or the
/// run is a plan error.
pub fn run_local_warm(
    program_name: &str,
    graph: &Graph,
    parallelism: usize,
    max_iterations: u32,
    telemetry: SinkHandle,
    initial_state: Option<Vec<Record>>,
) -> Result<ClusterRun> {
    let env = EnvConfig::new(parallelism).with_telemetry(telemetry);
    run_local_in(program_name, graph, max_iterations, env, initial_state)
}

/// [`run_local_warm`] under an explicit engine configuration (pooled or
/// inline partition work, pool size).
fn run_local_in(
    program_name: &str,
    graph: &Graph,
    max_iterations: u32,
    env: EnvConfig,
    initial_state: Option<Vec<Record>>,
) -> Result<ClusterRun> {
    let program = resolve(program_name)?;
    let n = graph.num_vertices() as u64;
    let adjacency = Arc::new(partition_rows(graph, env.parallelism));
    let backend = LocalBackend::new(program.clone(), adjacency, n);
    let strategy = Strategy::Optimistic;
    run_with_backend(
        program,
        Box::new(backend),
        graph,
        max_iterations,
        env,
        strategy,
        initial_state,
    )
}

fn resolve(program_name: &str) -> Result<Arc<dyn ClusterProgram>> {
    lookup(program_name).ok_or_else(|| {
        EngineError::Plan(format!(
            "unknown cluster program `{program_name}` (known: {})",
            crate::program::program_names().join(", ")
        ))
    })
}

#[allow(clippy::too_many_arguments)]
fn run_with_backend(
    program: Arc<dyn ClusterProgram>,
    backend: Box<dyn StepBackend>,
    graph: &Graph,
    max_iterations: u32,
    config: EnvConfig,
    strategy: Strategy,
    initial_state: Option<Vec<Record>>,
) -> Result<ClusterRun> {
    let (parallelism, n) = (config.parallelism, graph.num_vertices() as u64);
    let telemetry = config.telemetry.clone();
    let env = Environment::with_config(config);
    let initial = match initial_state {
        Some(state) => {
            // Warm start: route the previous fixpoint's records to the same
            // partitions `partition_rows` uses (`vertex % parallelism`).
            let mut parts = vec![Vec::new(); parallelism];
            for record in state {
                parts[(record.0 % parallelism as u64) as usize].push(record);
            }
            for (pid, part) in parts.iter_mut().enumerate() {
                part.sort_unstable_by_key(|record| record.0);
                let refuse = |problem| EngineError::Plan(format!("warm-start state has {problem}"));
                misfit(part, pid, parallelism, n).map(refuse).map_or(Ok(()), Err)?;
            }
            ClusterState::pushed(parts)
        }
        // Cold start: each partition's owner initialises it at step 0.
        None => ClusterState::of(
            (0..parallelism)
                .map(|pid| Part::Resident(partition_len(n, parallelism, pid)))
                .collect(),
        ),
    };
    let initial =
        env.custom_node::<Record>("cluster-state", vec![], Box::new(InitialStateOp(Some(initial))));

    let backend: SharedBackend = Arc::new(parking_lot::Mutex::new(backend));
    let mut iteration = BulkIteration::<Record, ClusterState>::over(&initial, max_iterations);
    // Rollback and restart rewind the driver's logical iteration, which is
    // the step the backend runs, with the state; optimistic recovery
    // recomputes forward and needs no cut. The owners of the lost partitions
    // rebuild them from the (loop-invariant) adjacency with the program's
    // compensation function: the coordinator only says which.
    let compensation = Named::new(
        format!("{}-compensation", program.name()),
        |state: &mut ClusterState, lost: &[PartitionId], _iteration: u32| {
            for &pid in lost {
                state.parts[pid] = Part::Compensated(state.parts[pid].vertices());
            }
        },
    );
    let store = || Ok(Box::new(MemoryStore::new()) as Box<dyn StableStore>);
    iteration.set_fault_handler(strategy.handler(compensation, store, &telemetry, |_, _| {
        Err(EngineError::Plan("a cluster run has no incremental checkpoints".into()))
    })?);
    // What changed is what the partitions' programs counted.
    iteration.set_convergence_probe(|_: &ClusterState, next: &ClusterState| ConvergenceMeasure {
        changed_per_partition: next.changed.clone(),
        delta_norm: None,
    });

    let state = iteration.state();
    let body = iteration.body_environment();
    let step = body.custom_node::<Record>(
        "cluster-step",
        vec![state.node_id()],
        Box::new(ClusterStepOp { backend: backend.clone() }),
    );
    let probe = body.custom_node::<u8>(
        "changed-probe",
        vec![step.node_id()],
        Box::new(ChangedProbeOp { parallelism }),
    );

    let (result, stats) = iteration.close_with_termination(step, probe);
    let values = env.custom_node::<Record>(
        "cluster-values",
        vec![result.node_id()],
        Box::new(ValuesOp { backend: backend.clone() }),
    );
    backend.lock().start(graph)?;
    let values = merge_by_vertex(values.collect_partitions()?.as_parts(), n)?;
    let stats = stats
        .take()
        .ok_or_else(|| EngineError::Iteration("cluster run produced no statistics".into()))?;
    Ok(ClusterRun { values, stats })
}

/// The first vertex without a record, or with an extra one, where `part`
/// breaks partition `pid`'s strided layout (`pid`, `pid + parallelism`, … < `n`).
fn misfit(part: &[Record], pid: usize, parallelism: usize, n: u64) -> Option<String> {
    let len = partition_len(n, parallelism, pid);
    let vertex = |i: u64| (i < len).then(|| pid as u64 + i * parallelism as u64);
    let at = |i: u64| (part.get(i as usize).map(|record| record.0), vertex(i));
    let (got, want) = (0..len.max(part.len() as u64)).map(at).find(|(got, want)| got != want)?;
    let v = got.into_iter().chain(want).min().unwrap_or_default();
    let problem = if want == Some(v) { "no record" } else { "an extra record" };
    Some(format!("{problem} for vertex {v}"))
}

/// The run's values, `parts[v % P][v / P]` at `v < n`: a part pulled from a
/// worker that breaks that layout is an error, not a misordered result.
fn merge_by_vertex(parts: &[Vec<Record>], n: u64) -> Result<Vec<Record>> {
    let stride = parts.len();
    for (pid, part) in parts.iter().enumerate() {
        let refuse = |problem| EngineError::Iteration(format!("the pulled state has {problem}"));
        misfit(part, pid, stride, n).map(refuse).map_or(Ok(()), Err)?;
    }
    Ok((0..n as usize).map(|v| parts[v % stride][v / stride]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::StepBuffers;
    use crate::protocol::Msg;
    use graphs::GraphBuilder;

    #[test]
    fn local_cc_matches_the_exact_reference() {
        let graph = graphs::generators::demo_components();
        let run = run_local("cc", &graph, 4, 50, SinkHandle::disabled()).unwrap();
        let labels: Vec<u64> = run.values.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, graphs::exact_components(&graph));
        assert!(run.stats.converged);
    }

    #[test]
    fn local_pagerank_matches_the_exact_reference() {
        let mut b = GraphBuilder::directed(5);
        b.add_edge(0, 1).add_edge(0, 3).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 0).add_edge(3, 1).add_edge(4, 3);
        let graph = b.build();
        let run = run_local("pagerank", &graph, 2, 300, SinkHandle::disabled()).unwrap();
        let exact = graphs::exact_pagerank(&graph, graphs::PageRankParams::default());
        for (&(v, bits), reference) in run.values.iter().zip(&exact) {
            let rank = f64::from_bits(bits);
            assert!((rank - reference).abs() < 1e-6, "vertex {v}: {rank} vs {reference}");
        }
        assert!(run.stats.converged);
    }

    #[test]
    fn local_runs_are_bitwise_deterministic() {
        let graph = graphs::generators::erdos_renyi(60, 0.1, 7);
        let a = run_local("pagerank", &graph, 4, 300, SinkHandle::disabled()).unwrap();
        let b = run_local("pagerank", &graph, 4, 300, SinkHandle::disabled()).unwrap();
        assert_eq!(a.values, b.values, "identical runs must produce identical bits");
    }

    #[test]
    fn local_pagerank_is_bitwise_identical_inline_and_pooled() {
        // Large enough that the pooled run really dispatches (the engine
        // keeps work under its thread threshold inline).
        let graph = graphs::generators::preferential_attachment(3_000, 3, 17);
        let run = |env: EnvConfig| run_local_in("pagerank", &graph, 200, env, None).unwrap();
        let inline = run(EnvConfig::new(4).with_threaded(false));
        let pooled = run(EnvConfig::new(4));
        let one_thread = run(EnvConfig::new(4).with_worker_threads(1));
        assert!(inline.stats.converged);
        assert_eq!(inline.values, pooled.values);
        assert_eq!(inline.values, one_thread.values);
        assert_eq!(inline.stats.supersteps(), pooled.stats.supersteps());
    }

    /// A shipped program whose partition 1 panics the first time it is
    /// stepped at logical step `at` — the one failure the in-process backend
    /// can meet. With `partial`, it first writes half of the state and of
    /// every run it would have routed.
    struct PanicsOnce {
        inner: Arc<dyn ClusterProgram>,
        at: u64,
        partial: bool,
        fired: AtomicBool,
    }

    impl PanicsOnce {
        fn wrapping(name: &str, at: u64, partial: bool) -> Arc<dyn ClusterProgram> {
            let inner = resolve(name).unwrap();
            Arc::new(PanicsOnce { inner, at, partial, fired: AtomicBool::new(false) })
        }
    }

    impl ClusterProgram for PanicsOnce {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn init_partition(&self, rows: &AdjRows, n: u64) -> Vec<Record> {
            self.inner.init_partition(rows, n)
        }

        fn folds_by_source_class(&self) -> bool {
            self.inner.folds_by_source_class()
        }

        fn fold_and_send(
            &self,
            step: u64,
            full_send: bool,
            state: &[Record],
            inbound: &[&[Msg]],
            rows: &AdjRows,
            n: u64,
            out: &mut StepBuffers,
        ) -> u64 {
            let hit = step == self.at && state.first().is_some_and(|record| record.0 == 1);
            if hit && !self.fired.swap(true, Ordering::SeqCst) {
                if self.partial {
                    self.inner.fold_and_send(step, full_send, state, inbound, rows, n, out);
                    out.state.truncate(out.state.len() / 2);
                    out.runs.iter_mut().for_each(|run| run.truncate(run.len() / 2));
                }
                panic!("injected partition panic at step {step}");
            }
            self.inner.fold_and_send(step, full_send, state, inbound, rows, n, out)
        }
    }

    /// Run `program` in process on the backend `backend` builds.
    fn run_on<B: StepBackend + 'static>(
        backend: impl FnOnce(Arc<dyn ClusterProgram>, Arc<Vec<AdjRows>>, u64) -> B,
        program: Arc<dyn ClusterProgram>,
        graph: &Graph,
        parallelism: usize,
    ) -> ClusterRun {
        let n = graph.num_vertices() as u64;
        let adjacency = Arc::new(partition_rows(graph, parallelism));
        let backend = Box::new(backend(program.clone(), adjacency, n));
        let (config, strategy) = (EnvConfig::new(parallelism), Strategy::Optimistic);
        run_with_backend(program, backend, graph, 200, config, strategy, None).unwrap()
    }

    /// A run's statistics without their durations: what must not move.
    fn account(stats: &RunStats) -> Vec<String> {
        let failure = |f: &telemetry::FailureRecord| {
            format!("{:?} {} {:?}", f.lost_partitions, f.lost_records, f.recovery)
        };
        let superstep = |it: &dataflow::stats::IterationStats| {
            let fail = it.failure.as_ref().map(failure);
            format!(
                "{} {} {} {:?} {fail:?}",
                it.superstep, it.iteration, it.records_shuffled, it.counters
            )
        };
        stats.iterations.iter().map(superstep).chain([format!("{}", stats.converged)]).collect()
    }

    #[test]
    fn a_local_partition_panic_is_repaired_by_a_full_send_retry() {
        // Compensation resets the panicked partition; its neighbours stopped
        // sending supersteps ago, so only a retry in which every vertex
        // re-sends — and which may not end the run — reaches the true labels.
        // PageRank's retry folds the committed runs again: its result is the
        // parent assembly's for the same panic, bit for bit.
        let graph = graphs::generators::demo_components();
        let exact = graphs::exact_components(&graph);
        for name in ["cc", "pagerank"] {
            let failure_free = run_local(name, &graph, 4, 200, SinkHandle::disabled()).unwrap();
            let last = u64::from(failure_free.stats.supersteps()) - 1;
            for at in [2, last] {
                let panics = || PanicsOnce::wrapping(name, at, false);
                let run = run_on(LocalBackend::new, panics(), &graph, 4);
                assert_eq!(run.stats.failures().count(), 1, "{name}: panic at step {at}");
                let reference = run_on(InboxAssembly::new, panics(), &graph, 4);
                assert_eq!(run.values, reference.values, "{name}: panic at step {at}");
                assert_eq!(account(&run.stats), account(&reference.stats));
                if name == "cc" {
                    let labels: Vec<u64> = run.values.iter().map(|&(_, l)| l).collect();
                    assert_eq!(labels, exact, "panic at step {at}");
                }
            }
        }
    }

    #[test]
    fn a_local_failed_attempt_cannot_leak_into_its_retry() {
        // An attempt that wrote half its output before panicking is the
        // attempt that wrote nothing: the retry reads the committed runs, so
        // its superstep shuffles what a clean full-send superstep does, and
        // the run — labels and every superstep's account — is the same.
        let graph = graphs::generators::preferential_attachment(400, 3, 9);
        let exact = graphs::exact_components(&graph);
        for name in ["cc", "pagerank"] {
            for at in [1, 3] {
                let partial =
                    run_on(LocalBackend::new, PanicsOnce::wrapping(name, at, true), &graph, 4);
                let clean =
                    run_on(LocalBackend::new, PanicsOnce::wrapping(name, at, false), &graph, 4);
                assert_eq!(partial.stats.failures().count(), 1, "{name}: panic at step {at}");
                assert_eq!(partial.values, clean.values, "{name}: panic at step {at}");
                assert_eq!(account(&partial.stats), account(&clean.stats), "{name}: {at}");
                if name == "cc" {
                    let labels: Vec<u64> = partial.values.iter().map(|&(_, l)| l).collect();
                    assert_eq!(labels, exact, "panic at step {at}");
                }
            }
        }
    }

    #[test]
    fn unknown_program_is_a_plan_error() {
        let graph = GraphBuilder::undirected(2).build();
        let err = run_local("nope", &graph, 1, 5, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("unknown cluster program"), "{err}");
        assert!(err.to_string().contains("cc, pagerank"), "{err}");
    }

    #[test]
    fn cluster_config_validates_worker_count() {
        let graph = GraphBuilder::undirected(4).build();
        let cfg = ClusterConfig::new(8, 4, 10);
        let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("1..=parallelism"), "{err}");
    }

    #[test]
    fn timing_builders_override_the_defaults() {
        let cfg = ClusterConfig::new(2, 4, 10)
            .with_heartbeat_interval(Duration::from_millis(250))
            .with_heartbeat_timeout(Duration::from_secs(20))
            .with_step_timeout(Duration::from_secs(120));
        assert_eq!(cfg.heartbeat_interval, Duration::from_millis(250));
        assert_eq!(cfg.heartbeat_timeout, Duration::from_secs(20));
        assert_eq!(cfg.step_timeout, Duration::from_secs(120));
    }

    #[test]
    fn chaos_coin_is_deterministic_in_range_and_decorrelated() {
        for superstep in 0..16u32 {
            for worker in 0..4usize {
                let a = chaos_coin(42, superstep, worker);
                let b = chaos_coin(42, superstep, worker);
                assert_eq!(a, b, "same point must flip the same coin");
                assert!((0.0..1.0).contains(&a), "coin {a} out of [0,1)");
            }
        }
        // Different seeds, supersteps, or workers decide independently.
        assert_ne!(chaos_coin(1, 3, 0), chaos_coin(2, 3, 0));
        assert_ne!(chaos_coin(1, 3, 0), chaos_coin(1, 4, 0));
        assert_ne!(chaos_coin(1, 3, 0), chaos_coin(1, 3, 1));
        // A fair-ish spread: with p=0.5, roughly half of 256 coins land low.
        let low = (0..256).filter(|&s| chaos_coin(7, s, 0) < 0.5).count();
        assert!((96..=160).contains(&low), "suspicious coin distribution: {low}/256 low");
    }

    #[test]
    fn chaos_plan_reports_emptiness_and_the_largest_targeted_worker() {
        let mut plan = ChaosPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.max_worker(), None);

        plan.kills.push(KillPlan { superstep: 2, worker: 1 });
        plan.stragglers.push(StragglerPlan {
            from: 1,
            to: 3,
            worker: 4,
            delay: Duration::from_millis(5),
        });
        plan.links.push(LinkPlan {
            from: 0,
            to: 9,
            worker: 2,
            delay: Duration::ZERO,
            drop_probability: 0.25,
            seed: 11,
        });
        assert!(!plan.is_empty());
        assert_eq!(plan.max_worker(), Some(4), "straggler targets the largest index");
    }

    #[test]
    fn with_kill_composes_into_a_storm() {
        let cfg = ClusterConfig::new(2, 4, 10)
            .with_kill(KillPlan { superstep: 2, worker: 0 })
            .with_kill(KillPlan { superstep: 2, worker: 1 });
        assert_eq!(cfg.chaos.kills.len(), 2);
        assert_eq!(cfg.strategy, Strategy::Optimistic, "default strategy");
        let cfg = cfg.with_strategy(Strategy::AsyncSnapshot { interval: 3 });
        assert_eq!(cfg.strategy, Strategy::AsyncSnapshot { interval: 3 });
    }

    #[test]
    fn chaos_plans_targeting_absent_workers_are_plan_errors() {
        let graph = GraphBuilder::undirected(4).build();
        let cfg = ClusterConfig::new(2, 4, 10).with_kill(KillPlan { superstep: 1, worker: 5 });
        let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("targets worker 5"), "{err}");
        assert!(err.to_string().contains("never has more than 2 workers"), "{err}");
    }

    #[test]
    fn chaos_may_target_workers_a_scale_up_will_add() {
        // A kill aimed at worker 3 is valid when a scale event grows the
        // cluster to 4, even though the cluster starts with 2 workers —
        // but a target beyond the scale ceiling is still a plan error.
        let graph = GraphBuilder::undirected(4).build();
        let cfg = ClusterConfig::new(2, 4, 10)
            .with_scale_event(ScaleEvent { superstep: 1, workers: 4 })
            .with_kill(KillPlan { superstep: 9, worker: 5 });
        let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("never has more than 4 workers"), "{err}");
    }

    #[test]
    fn scale_events_beyond_parallelism_are_plan_errors() {
        let graph = GraphBuilder::undirected(4).build();
        let cfg =
            ClusterConfig::new(2, 4, 10).with_scale_event(ScaleEvent { superstep: 1, workers: 5 });
        let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("targets 5 workers"), "{err}");
        let cfg =
            ClusterConfig::new(2, 4, 10).with_scale_event(ScaleEvent { superstep: 1, workers: 0 });
        let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("targets 0 workers"), "{err}");
    }

    #[test]
    fn zero_interval_async_snapshots_are_plan_errors() {
        let graph = GraphBuilder::undirected(4).build();
        let cfg =
            ClusterConfig::new(2, 4, 10).with_strategy(Strategy::AsyncSnapshot { interval: 0 });
        let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("interval"), "{err}");
    }

    #[test]
    fn zero_interval_checkpoints_are_plan_errors() {
        let graph = GraphBuilder::undirected(4).build();
        let cfg = ClusterConfig::new(2, 4, 10).with_strategy(Strategy::Checkpoint { interval: 0 });
        let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
        assert!(err.to_string().contains("interval"), "{err}");
    }

    #[test]
    fn zero_timing_is_a_plan_error_before_anything_is_spawned() {
        // The worker command names no binary: spawning anything would fail
        // with a different error than the plan's.
        let graph = GraphBuilder::undirected(4).build();
        let zero = Duration::ZERO;
        let cases = [
            (ClusterConfig::new(2, 4, 10).with_heartbeat_interval(zero), "heartbeat interval"),
            (ClusterConfig::new(2, 4, 10).with_heartbeat_timeout(zero), "heartbeat timeout"),
            (ClusterConfig::new(2, 4, 10).with_step_timeout(zero), "step timeout"),
        ];
        for (mut cfg, name) in cases {
            cfg.worker_cmd = vec!["no-such-worker-binary".into()];
            let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
            assert!(matches!(err, EngineError::Plan(_)), "{name}: {err}");
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    /// Counts every partition as changed, records the logical step it is
    /// asked to run, and loses worker 1 at superstep `lose_at`. It holds no
    /// state: a cut brings up empty partitions, and the values of a
    /// four-vertex graph are zeros.
    struct RecordsSteps {
        steps: Arc<parking_lot::Mutex<Vec<u64>>>,
        lose_at: u32,
    }

    impl StepBackend for RecordsSteps {
        fn run_step(
            &mut self,
            superstep: u32,
            step: u64,
            state: &ClusterState,
            cut: bool,
            _ctx: &ExecContext,
        ) -> Result<Stepped> {
            self.steps.lock().push(step);
            if superstep == self.lose_at {
                return Err(EngineError::WorkerLost {
                    worker: 1,
                    pids: vec![1],
                    superstep: Some(superstep),
                    message: "killed".into(),
                });
            }
            let partitions = state.num_partitions();
            let result = |pid| StepResult { pid, changed: 1, shuffled: 0 };
            Ok(((0..partitions).map(result).collect(), cut.then(|| vec![vec![]; partitions])))
        }

        fn pull(&mut self) -> Result<Vec<Vec<Record>>> {
            Ok(vec![vec![(0, 0), (2, 0)], vec![(1, 0), (3, 0)]])
        }
    }

    #[test]
    fn a_backend_runs_step_one_past_a_restored_cut_and_step_zero_after_a_restart() {
        let steps_handed = |strategy, lose_at| {
            let graph = GraphBuilder::undirected(4).build();
            let steps = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let backend = Box::new(RecordsSteps { steps: steps.clone(), lose_at });
            let program = resolve("cc").unwrap();
            let config = EnvConfig::new(2);
            run_with_backend(program, backend, &graph, 8, config, strategy, None).unwrap();
            let handed = steps.lock().clone();
            handed
        };
        // Cuts after iterations 0, 2 and 4; superstep 6 loses a worker, and
        // its retry restores the cut at 4 and runs step 5.
        let checkpoint = Strategy::Checkpoint { interval: 2 };
        assert_eq!(steps_handed(checkpoint, 6), [0, 1, 2, 3, 4, 5, 6, 5, 6, 7]);
        // A restart runs step 0 again.
        assert_eq!(steps_handed(Strategy::Restart, 3), [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// The in-process step assembly before partitions routed their output,
    /// kept as the oracle of the routed one: a commit keeps each partition's
    /// state and its outbound as one run, and every superstep buckets the
    /// runs by destination, merges each destination's buckets into an inbox
    /// and steps it through the one-run wrappers.
    struct InboxAssembly {
        program: Arc<dyn ClusterProgram>,
        adjacency: Arc<Vec<AdjRows>>,
        n: u64,
        committed: Vec<Vec<Record>>,
        sent: Vec<Vec<Msg>>,
        retrying: bool,
    }

    impl InboxAssembly {
        fn new(program: Arc<dyn ClusterProgram>, adjacency: Arc<Vec<AdjRows>>, n: u64) -> Self {
            let (committed, sent) = (Vec::new(), Vec::new());
            InboxAssembly { program, adjacency, n, committed, sent, retrying: false }
        }

        fn inbox(&self, pid: usize) -> Vec<Msg> {
            let parallelism = self.adjacency.len() as u64;
            let to_pid = |msg: &Msg| msg.1 % parallelism == pid as u64;
            let buckets: Vec<Vec<Msg>> =
                self.sent.iter().map(|run| run.iter().copied().filter(to_pid).collect()).collect();
            let buckets: Vec<&[Msg]> = buckets.iter().map(Vec::as_slice).collect();
            crate::exchange::merge_runs(&buckets, 1).pop().unwrap()
        }
    }

    impl StepBackend for InboxAssembly {
        fn run_step(
            &mut self,
            _superstep: u32,
            step: u64,
            state: &ClusterState,
            _cut: bool,
            ctx: &ExecContext,
        ) -> Result<Stepped> {
            let retrying = std::mem::replace(&mut self.retrying, true);
            let this = &*self;
            let pids: Vec<usize> = (0..this.adjacency.len()).collect();
            let outputs = par_map(pids, ctx, 0, |_, pid| {
                let (rows, inbound, n) = (&this.adjacency[pid], this.inbox(pid), this.n);
                let input = match state.seed(pid, step) {
                    Seed::Committed => this.committed[pid].clone(),
                    Seed::Init => this.program.init_partition(rows, n),
                    Seed::Compensate => this.program.compensate_partition(rows, n),
                    Seed::Pushed(records) => records,
                };
                let out = if retrying {
                    this.program.full_send_step(step, &input, &inbound, rows, n)
                } else {
                    this.program.step(step, &input, &inbound, rows, n)
                };
                let shuffled = out.outbound.len() as u64;
                (StepResult { pid, changed: out.changed, shuffled }, out.state, out.outbound)
            })?;
            let mut results = Vec::new();
            (self.committed, self.sent) = (Vec::new(), Vec::new());
            for (result, state, sent) in outputs {
                results.push(result);
                self.committed.push(state);
                self.sent.push(sent);
            }
            self.retrying = false;
            if retrying {
                keep_running(&mut results);
            }
            Ok((results, None))
        }

        fn pull(&mut self) -> Result<Vec<Vec<Record>>> {
            Ok(std::mem::take(&mut self.committed))
        }
    }

    /// [`LocalBackend`], recording the records the coordinator's state holds
    /// at the start of every superstep, and losing worker 1 — partition 1 —
    /// at superstep `lose_at`.
    struct RecordsHeld {
        inner: LocalBackend,
        held: Arc<parking_lot::Mutex<Vec<usize>>>,
        lose_at: Option<u32>,
    }

    impl StepBackend for RecordsHeld {
        fn run_step(
            &mut self,
            superstep: u32,
            step: u64,
            state: &ClusterState,
            cut: bool,
            ctx: &ExecContext,
        ) -> Result<Stepped> {
            let held = state.parts.iter().map(|part| part.records().len()).sum();
            self.held.lock().push(held);
            if self.lose_at == Some(superstep) {
                return Err(EngineError::WorkerLost {
                    worker: 1,
                    pids: vec![1],
                    superstep: Some(superstep),
                    message: "killed".into(),
                });
            }
            self.inner.run_step(superstep, step, state, cut, ctx)
        }

        fn pull(&mut self) -> Result<Vec<Vec<Record>>> {
            self.inner.pull()
        }
    }

    #[test]
    fn between_optimistic_supersteps_the_coordinator_holds_no_record() {
        // Failure-free and with a worker lost mid-run: the state the driver
        // hands every superstep is counts alone, the lost partition is
        // rebuilt by its owner, and its loss is still billed by its vertex
        // count.
        let graph = graphs::generators::preferential_attachment(400, 3, 9);
        let adjacency = Arc::new(partition_rows(&graph, 4));
        for lose_at in [None, Some(3)] {
            let held = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let program = resolve("cc").unwrap();
            let inner = LocalBackend::new(program.clone(), adjacency.clone(), 400);
            let backend = Box::new(RecordsHeld { inner, held: held.clone(), lose_at });
            let (config, strategy) = (EnvConfig::new(4), Strategy::Optimistic);
            let run =
                run_with_backend(program, backend, &graph, 200, config, strategy, None).unwrap();
            let labels: Vec<u64> = run.values.iter().map(|&(_, l)| l).collect();
            assert_eq!(labels, graphs::exact_components(&graph), "lost at {lose_at:?}");
            let held = held.lock().clone();
            assert_eq!(held.len() as u32, run.stats.supersteps());
            assert!(held.iter().all(|&records| records == 0), "{held:?}");
            let lost: Vec<u64> = run.stats.failures().map(|(_, f)| f.lost_records).collect();
            let expected = lose_at.map(|_| adjacency[1].len() as u64);
            assert_eq!(lost, expected.into_iter().collect::<Vec<_>>());
        }
    }

    mod properties {
        use super::*;
        use crate::program::directed;
        use proptest::prelude::*;
        use proptest::strategy::Strategy as _;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
            #[test]
            fn run_local_equals_the_inbox_assembly(
                shape in (any::<bool>(), 3usize..120, any::<u64>()),
                parallelism in (0usize..5).prop_map(|i| [1, 3, 4, 5, 8][i]),
                panic_at in 0u64..6,
            ) {
                // Whole runs, failure-free (`panic_at == 0`) and with a
                // panicked partition: the routed assembly is the inbox
                // assembly, bit for bit and superstep by superstep.
                let (is_directed, size, seed) = shape;
                let graph = if is_directed {
                    directed(size as u64, seed)
                } else {
                    graphs::generators::preferential_attachment(size, 3, seed)
                };
                for name in crate::program_names() {
                    let program = || match panic_at {
                        0 => resolve(name).unwrap(),
                        at => PanicsOnce::wrapping(name, at, false),
                    };
                    let routed = match panic_at {
                        0 => run_local(name, &graph, parallelism, 200, SinkHandle::disabled())
                            .unwrap(),
                        _ => run_on(LocalBackend::new, program(), &graph, parallelism),
                    };
                    let reference = run_on(InboxAssembly::new, program(), &graph, parallelism);
                    prop_assert_eq!(&routed.values, &reference.values, "{} P={}", name, parallelism);
                    prop_assert_eq!(account(&routed.stats), account(&reference.stats));
                }
            }

            #[test]
            fn merging_the_partitions_equals_sorting_the_result(
                vertices in prop::collection::vec(0u64..200, 0..60),
                parallelism in (0usize..3).prop_map(|i| [1, 3, 4][i]),
                strided in any::<bool>(),
            ) {
                // A run's state holds every vertex of its stride, cold or
                // warm (a warm start that does not is a plan error): then the
                // merge is the sorted result. Any other vertex set — a vertex
                // missing, one past the graph, one in the wrong partition or
                // out of order — is an error, never a misordered result.
                let n = vertices.len() as u64;
                let vertices: Vec<u64> = if strided {
                    (0..n).collect()
                } else {
                    vertices.into_iter().collect()
                };
                let mut parts = vec![Vec::new(); parallelism];
                for &v in &vertices {
                    parts[(v % parallelism as u64) as usize].push((v, v.wrapping_mul(31)));
                }
                let merged = merge_by_vertex(&parts, n);
                if vertices == (0..n).collect::<Vec<_>>() {
                    let mut sorted: Vec<Record> = parts.concat();
                    sorted.sort_unstable_by_key(|record| record.0);
                    prop_assert_eq!(merged.unwrap(), sorted);
                    // The same records under the wrong pids, or out of order.
                    parts.rotate_left(1);
                    prop_assert!(parallelism == 1 || n == 0 || merge_by_vertex(&parts, n).is_err());
                    parts.rotate_right(1);
                    parts[0].reverse();
                    prop_assert!(parts[0].len() < 2 || merge_by_vertex(&parts, n).is_err());
                } else {
                    prop_assert!(merged.is_err());
                }
            }
        }
    }

    #[test]
    fn warm_started_local_run_reconverges_in_fewer_supersteps() {
        let graph = graphs::generators::demo_components();
        let cold = run_local("cc", &graph, 4, 50, SinkHandle::disabled()).unwrap();
        let warm =
            run_local_warm("cc", &graph, 4, 50, SinkHandle::disabled(), Some(cold.values.clone()))
                .unwrap();
        assert_eq!(warm.values, cold.values, "warm start must preserve the fixpoint");
        assert!(warm.stats.converged);
        assert!(
            warm.stats.supersteps() < cold.stats.supersteps(),
            "warm {} vs cold {}",
            warm.stats.supersteps(),
            cold.stats.supersteps()
        );
    }

    /// A converged CC fixpoint of a 2 000-vertex graph, broken four ways:
    /// vertex 5 missing, vertex 7 twice, a vertex past the graph's end, and
    /// vertex 1 999 renamed past it; and a graph of fewer vertices than the
    /// four partitions, given a record for a vertex it does not have.
    fn malformed_warm_starts() -> Vec<(Graph, Vec<Record>, &'static str)> {
        let graph = graphs::generators::preferential_attachment(2_000, 3, 5);
        let fixpoint = run_local("cc", &graph, 4, 200, SinkHandle::disabled()).unwrap().values;
        let without_5: Vec<Record> = fixpoint.iter().copied().filter(|r| r.0 != 5).collect();
        let mut twice_7 = fixpoint.clone();
        twice_7.push(fixpoint[7]);
        let mut beyond = fixpoint.clone();
        beyond.push((2_003, 0));
        let mut renamed = fixpoint.clone();
        renamed[1_999].0 = u64::MAX;
        let small = GraphBuilder::undirected(3).build();
        let cases = vec![
            (without_5, "no record for vertex 5"),
            (twice_7, "an extra record for vertex 7"),
            (beyond, "an extra record for vertex 2003"),
            (renamed, "no record for vertex 1999"),
        ];
        let mut cases: Vec<_> = cases.into_iter().map(|(s, p)| (graph.clone(), s, p)).collect();
        cases.push((small, vec![(0, 0), (1, 1), (2, 2), (3, 3)], "an extra record for vertex 3"));
        cases
    }

    #[test]
    fn a_malformed_local_warm_start_is_a_plan_error() {
        for (graph, state, problem) in malformed_warm_starts() {
            let err = run_local_warm("cc", &graph, 4, 200, SinkHandle::disabled(), Some(state))
                .unwrap_err();
            assert!(matches!(err, EngineError::Plan(_)), "{err}");
            assert!(err.to_string().contains(problem), "{err}");
        }
    }

    #[test]
    fn a_malformed_cluster_warm_start_is_refused_before_anything_is_spawned() {
        // The worker command names no binary: spawning anything would fail
        // with a different error than the plan's.
        for (graph, state, problem) in malformed_warm_starts() {
            let mut cfg = ClusterConfig::new(2, 4, 200).with_initial_state(state);
            cfg.worker_cmd = vec!["no-such-worker-binary".into()];
            let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
            assert!(matches!(err, EngineError::Plan(_)), "{err}");
            assert!(err.to_string().contains(problem), "{err}");
        }
    }

    #[test]
    fn an_in_process_only_strategy_is_refused_before_anything_is_spawned() {
        // As above: a spawn would fail with a different error than the plan's.
        let graph = GraphBuilder::undirected(4).build();
        for strategy in [Strategy::Ignore, Strategy::IncrementalCheckpoint { full_interval: 2 }] {
            let mut cfg = ClusterConfig::new(2, 4, 10).with_strategy(strategy);
            cfg.worker_cmd = vec!["no-such-worker-binary".into()];
            let err = run_cluster("cc", &graph, cfg, SinkHandle::disabled()).unwrap_err();
            assert!(matches!(err, EngineError::Plan(_)), "{strategy}: {err}");
            assert!(err.to_string().contains("in-process only"), "{strategy}: {err}");
        }
    }
}
