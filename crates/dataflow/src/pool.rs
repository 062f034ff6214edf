//! The persistent worker pool: long-lived partition-execution threads.
//!
//! The seed engine spawned fresh scoped threads for every operator
//! invocation — thousands of spawns per run for an iterative job. This
//! module replaces that with `p` long-lived workers owned (via the shared
//! [`PoolHandle`] in [`crate::config::EnvConfig`]) by the environment, the
//! way an actual cluster keeps its task managers running across supersteps:
//!
//! * **One channel per worker.** Each worker owns an `mpsc` receiver and
//!   drains it in a loop; dispatch pushes a task onto exactly one worker's
//!   queue.
//! * **Stable partition→worker affinity.** A task for partition `pid` always
//!   lands on worker `pid % workers`, so a partition's state is touched by
//!   the same OS thread every superstep (cache- and NUMA-friendly, and it
//!   mirrors the paper's "partition lives on a worker" failure model).
//! * **Panic isolation.** Workers run every task under
//!   [`std::panic::catch_unwind`]; a panicking UDF marks its own task as
//!   failed and the worker lives on to serve the next superstep. The
//!   executor turns the captured payload into
//!   [`crate::error::EngineError::PartitionPanic`].
//! * **Graceful shutdown.** Dropping the pool (when the last configuration
//!   clone holding the [`PoolHandle`] goes away) closes every task channel
//!   and joins the worker threads.
//!
//! Dispatch blocks until every submitted task has finished *and its closure
//! environment has been dropped* — that ordering is what makes it sound to
//! run borrowing closures on `'static` worker threads (see
//! [`WorkerPool::run`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use telemetry::metrics::PartitionedHistogram;
use telemetry::SinkHandle;

/// A type-erased task queued on one worker.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One queued unit of work plus the completion signal for its dispatcher.
struct Job {
    task: Task,
    /// Signalled by the worker loop *after* the task closure has been
    /// consumed and dropped. If the job is dropped unrun (pool teardown),
    /// dropping this sender wakes the dispatcher with a disconnect instead.
    done: Sender<()>,
}

/// Per-worker bookkeeping shared between the worker thread and observers.
#[derive(Default)]
struct WorkerShared {
    /// Tasks currently sitting in this worker's queue (or in flight).
    queued: AtomicUsize,
    /// Cumulative nanoseconds this worker spent running tasks.
    busy_ns: AtomicU64,
    /// Tasks this worker has completed (including panicked ones).
    tasks_run: AtomicU64,
}

struct Worker {
    /// `None` after shutdown has begun; dropping the sender is what tells
    /// the worker loop to exit. Behind a mutex so [`WorkerPool::shutdown`]
    /// can tear down through a shared reference, idempotently.
    sender: Mutex<Option<Sender<Job>>>,
    shared: Arc<WorkerShared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// A fixed-size pool of long-lived worker threads executing partition tasks.
pub struct WorkerPool {
    workers: Vec<Worker>,
}

fn worker_loop(
    rx: Receiver<Job>,
    shared: Arc<WorkerShared>,
    wid: usize,
    hist: Option<Arc<PartitionedHistogram>>,
) {
    while let Ok(Job { task, done }) = rx.recv() {
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        let start = Instant::now();
        // Calling the boxed closure consumes it: by the time `catch_unwind`
        // returns, the closure environment — including every borrow it
        // captured — has been dropped, on success and unwind alike. Only
        // then may the dispatcher be released.
        let _ = catch_unwind(AssertUnwindSafe(task));
        let elapsed = start.elapsed().as_nanos() as u64;
        shared.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
        shared.tasks_run.fetch_add(1, Ordering::Relaxed);
        if let Some(hist) = &hist {
            hist.observe(wid, elapsed);
        }
        let _ = done.send(());
    }
}

impl WorkerPool {
    /// Spawn a pool of `size` workers. Per-worker task latencies are
    /// recorded into the sink's `pool/worker_task_ns` histogram when
    /// telemetry is enabled.
    ///
    /// # Panics
    /// Panics if `size == 0` or the OS refuses to spawn a thread.
    pub fn new(size: usize, telemetry: &SinkHandle) -> Self {
        assert!(size > 0, "a worker pool needs at least one worker");
        let task_hist = telemetry
            .enabled()
            .then(|| telemetry.metrics().partitioned_histogram("pool/worker_task_ns", size));
        let workers = (0..size)
            .map(|wid| {
                let (sender, receiver) = channel::<Job>();
                let shared = Arc::new(WorkerShared::default());
                let worker_shared = Arc::clone(&shared);
                let hist = task_hist.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("dataflow-worker-{wid}"))
                    .spawn(move || worker_loop(receiver, worker_shared, wid, hist))
                    .expect("failed to spawn pool worker");
                Worker {
                    sender: Mutex::new(Some(sender)),
                    shared,
                    handle: Mutex::new(Some(handle)),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Tasks currently queued or running across all workers — the dispatch
    /// backlog an incoming operator invocation queues behind.
    pub fn queued(&self) -> usize {
        self.workers.iter().map(|w| w.shared.queued.load(Ordering::Relaxed)).sum()
    }

    /// Per-worker `(busy_nanoseconds, tasks_run)` utilization snapshot.
    pub fn worker_stats(&self) -> Vec<(u64, u64)> {
        self.workers
            .iter()
            .map(|w| {
                (
                    w.shared.busy_ns.load(Ordering::Relaxed),
                    w.shared.tasks_run.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Run a batch of tasks to completion. Each task is routed to worker
    /// `affinity % size`, so callers passing partition ids get stable
    /// partition→worker affinity. Blocks until every task has run (or been
    /// dropped by a tearing-down worker) and its closure dropped.
    ///
    /// Tasks must not dispatch onto the pool themselves: a task waiting on
    /// its own worker's queue would deadlock. The engine's operators fan out
    /// exactly one level, so this cannot happen from the public API.
    pub fn run<'scope>(&self, tasks: Vec<(usize, Box<dyn FnOnce() + Send + 'scope>)>) {
        let size = self.workers.len();
        let (done_tx, done_rx) = channel::<()>();
        let mut dispatched = 0usize;
        for (affinity, task) in tasks {
            // SAFETY: the worker channels require `'static` tasks, but this
            // function does not return before every submitted closure has
            // been consumed and dropped: the worker loop signals `done` only
            // after `catch_unwind(task)` returns (closure environment gone),
            // and the loop below blocks until all `dispatched` signals have
            // arrived or every `done` sender — one per outstanding job — has
            // been dropped with its unrun job. Either way no borrow captured
            // by a task outlives this call, so erasing `'scope` is sound.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
            let worker = &self.workers[affinity % size];
            worker.shared.queued.fetch_add(1, Ordering::Relaxed);
            let job = Job { task, done: done_tx.clone() };
            // Clone the sender out of the lock instead of sending under it:
            // a `Sender` clone is two atomic bumps, and holding the lock
            // across `send` would serialise dispatch against shutdown.
            let sender = worker.sender.lock().clone();
            match sender {
                Some(sender) => match sender.send(job) {
                    Ok(()) => dispatched += 1,
                    // The worker is gone (shutdown race): run the task on
                    // the dispatching thread so results and borrows stay
                    // correct.
                    Err(err) => {
                        worker.shared.queued.fetch_sub(1, Ordering::Relaxed);
                        let _ = catch_unwind(AssertUnwindSafe(err.0.task));
                    }
                },
                None => {
                    worker.shared.queued.fetch_sub(1, Ordering::Relaxed);
                    let _ = catch_unwind(AssertUnwindSafe(job.task));
                }
            }
        }
        drop(done_tx);
        for _ in 0..dispatched {
            // A disconnect means every remaining job was dropped unrun
            // (teardown); their closures are gone either way, so returning
            // is safe and the caller surfaces the missing results.
            if done_rx.recv().is_err() {
                break;
            }
        }
    }

    /// Tear the pool down: close every task queue and join the worker
    /// threads. Idempotent — a second call (or the eventual `Drop`) finds
    /// the senders and handles already taken and does nothing, so a
    /// coordinator can shut down a local pool and a cluster backend in
    /// either order without double-join panics. Tasks dispatched after
    /// shutdown fall back to inline execution in [`WorkerPool::run`].
    pub fn shutdown(&self) {
        // Close every queue first so all workers wind down concurrently...
        for worker in &self.workers {
            worker.sender.lock().take();
        }
        // ...then join them.
        for worker in &self.workers {
            let handle = worker.handle.lock().take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cheaply clonable, lazily initializing handle to the environment's
/// worker pool.
///
/// The handle lives in [`crate::config::EnvConfig`]; configuration clones
/// (iteration bodies, per-superstep execution contexts) all share the same
/// underlying pool, so one environment spawns its workers exactly once —
/// on the first threaded dispatch — and they are joined when the last
/// handle drops.
#[derive(Clone, Default)]
pub struct PoolHandle {
    inner: Arc<OnceLock<WorkerPool>>,
}

impl PoolHandle {
    /// A fresh handle with no pool spawned yet.
    pub fn new() -> Self {
        PoolHandle::default()
    }

    /// The pool, spawning `size` workers on first use. The size and
    /// telemetry sink of the first caller win; configuration clones share
    /// one `EnvConfig`-derived size, so in practice they always agree.
    pub fn get_or_spawn(&self, size: usize, telemetry: &SinkHandle) -> &WorkerPool {
        self.inner.get_or_init(|| WorkerPool::new(size, telemetry))
    }

    /// The pool, if one has been spawned.
    pub fn get(&self) -> Option<&WorkerPool> {
        self.inner.get()
    }

    /// Shut the shared pool down now, without waiting for the last handle
    /// to drop. Idempotent and double-drop safe: repeated calls — and the
    /// pool's own `Drop` afterwards — are no-ops, and clones of this handle
    /// keep working (their dispatches fall back to inline execution).
    pub fn shutdown(&self) {
        if let Some(pool) = self.inner.get() {
            pool.shutdown();
        }
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.get() {
            Some(pool) => {
                write!(
                    f,
                    "PoolHandle(spawned, workers: {}, queued: {})",
                    pool.size(),
                    pool.queued()
                )
            }
            None => write!(f, "PoolHandle(idle)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn pool(size: usize) -> WorkerPool {
        WorkerPool::new(size, &SinkHandle::disabled())
    }

    #[test]
    fn runs_borrowing_tasks_to_completion() {
        let pool = pool(4);
        let slots: Vec<Mutex<Option<u64>>> = (0..16).map(|_| Mutex::new(None)).collect();
        let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = slots
            .iter()
            .enumerate()
            .map(|(pid, slot)| {
                let task = move || {
                    *slot.lock() = Some(pid as u64 * 3);
                };
                (pid, Box::new(task) as Box<dyn FnOnce() + Send + '_>)
            })
            .collect();
        pool.run(tasks);
        let values: Vec<u64> = slots.into_iter().map(|s| s.into_inner().unwrap()).collect();
        assert_eq!(values, (0..16).map(|p| p * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn a_panicking_task_does_not_kill_its_worker() {
        let pool = pool(2);
        for round in 0..3 {
            let results: Vec<Mutex<Option<bool>>> = (0..4).map(|_| Mutex::new(None)).collect();
            let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = results
                .iter()
                .enumerate()
                .map(|(pid, slot)| {
                    let task = move || {
                        if pid == 1 {
                            panic!("udf exploded in round {round}");
                        }
                        *slot.lock() = Some(true);
                    };
                    (pid, Box::new(task) as Box<dyn FnOnce() + Send + '_>)
                })
                .collect();
            pool.run(tasks);
            // Worker 1 swallowed the panic; everyone else finished.
            let done: Vec<bool> = results.into_iter().map(|s| s.into_inner().is_some()).collect();
            assert_eq!(done, vec![true, false, true, true]);
        }
        let stats = pool.worker_stats();
        assert_eq!(stats.iter().map(|&(_, n)| n).sum::<u64>(), 12);
    }

    #[test]
    fn affinity_routes_partitions_to_fixed_workers() {
        let pool = pool(3);
        let thread_of: Vec<Mutex<Vec<std::thread::ThreadId>>> =
            (0..3).map(|_| Mutex::new(Vec::new())).collect();
        for _ in 0..5 {
            let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = (0..3)
                .map(|pid| {
                    let log = &thread_of[pid];
                    let task = move || log.lock().push(std::thread::current().id());
                    (pid, Box::new(task) as Box<dyn FnOnce() + Send + '_>)
                })
                .collect();
            pool.run(tasks);
        }
        for log in thread_of {
            let ids = log.into_inner();
            assert_eq!(ids.len(), 5);
            assert!(ids.iter().all(|&id| id == ids[0]), "partition hopped workers");
        }
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = pool(4);
        let counter = AtomicU64::new(0);
        let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = (0..8)
            .map(|pid| {
                let counter = &counter;
                let task = move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                };
                (pid, Box::new(task) as Box<dyn FnOnce() + Send + '_>)
            })
            .collect();
        pool.run(tasks);
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn handle_spawns_lazily_and_shares_one_pool() {
        let handle = PoolHandle::new();
        assert!(handle.get().is_none());
        assert_eq!(format!("{handle:?}"), "PoolHandle(idle)");
        let clone = handle.clone();
        let first = handle.get_or_spawn(2, &SinkHandle::disabled()) as *const WorkerPool;
        // The clone sees the already-spawned pool; a differing size is
        // ignored (first caller wins).
        let second = clone.get_or_spawn(8, &SinkHandle::disabled()) as *const WorkerPool;
        assert_eq!(first, second);
        assert_eq!(clone.get().unwrap().size(), 2);
        assert!(format!("{handle:?}").contains("workers: 2"));
    }

    #[test]
    fn shutdown_is_idempotent_and_degrades_to_inline_execution() {
        let pool = pool(2);
        pool.shutdown();
        pool.shutdown(); // second call must be a no-op, not a double-join
                         // Dispatch after shutdown still runs every task (inline).
        let counter = AtomicU64::new(0);
        let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = (0..4)
            .map(|pid| {
                let counter = &counter;
                let task = move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                };
                (pid, Box::new(task) as Box<dyn FnOnce() + Send + '_>)
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        drop(pool); // Drop after explicit shutdown must also be a no-op.
    }

    #[test]
    fn handle_shutdown_is_safe_in_any_order() {
        // Unspawned handle: shutdown is a no-op.
        let idle = PoolHandle::new();
        idle.shutdown();
        // Spawned handle: explicit shutdown twice, then drop both clones in
        // either order — the coordinator tears down a local pool and a
        // cluster backend without caring which goes first.
        let handle = PoolHandle::new();
        let clone = handle.clone();
        let _ = handle.get_or_spawn(2, &SinkHandle::disabled());
        handle.shutdown();
        clone.shutdown();
        let counter = AtomicU64::new(0);
        let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = (0..2)
            .map(|pid| {
                let counter = &counter;
                let task = move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                };
                (pid, Box::new(task) as Box<dyn FnOnce() + Send + '_>)
            })
            .collect();
        clone.get().unwrap().run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 2);
        drop(handle);
        drop(clone);
    }

    #[test]
    fn queue_depth_settles_back_to_zero() {
        let pool = pool(2);
        let tasks: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = (0..6)
            .map(|pid| (pid, Box::new(std::thread::yield_now) as Box<dyn FnOnce() + Send + '_>))
            .collect();
        pool.run(tasks);
        assert_eq!(pool.queued(), 0);
        let busy: u64 = pool.worker_stats().iter().map(|&(ns, _)| ns).sum();
        let _ = busy; // busy time is platform-dependent; just exercised.
    }
}
