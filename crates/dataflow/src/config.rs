//! Engine configuration.

use telemetry::SinkHandle;

use crate::pool::PoolHandle;

/// Configuration of an [`crate::api::Environment`].
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Degree of parallelism: the number of partitions every dataset is split
    /// into. Each partition models the share of the data held by one worker
    /// of a distributed cluster; failures destroy whole partitions.
    pub parallelism: usize,
    /// Execute per-partition work on worker threads (`true`, the default) or
    /// inline on the calling thread (`false`).
    ///
    /// Inline execution is useful when debugging (deterministic stack
    /// traces, no interleaving) and for tiny datasets where dispatch
    /// overhead dominates the actual work. Correctness never depends on this
    /// knob: partition tasks are independent and results are assembled in
    /// partition order either way.
    pub threaded: bool,
    /// Minimum number of records (summed across partitions of one operator
    /// invocation) before the executor bothers dispatching to threads;
    /// below this, partition work runs inline even when
    /// [`EnvConfig::threaded`] is set.
    ///
    /// The default of 4096 is conservative: even pool dispatch costs a few
    /// microseconds of channel traffic per partition, so per-partition work
    /// should comfortably exceed that. Lower it (e.g. to 0 in tests) to
    /// force the threaded path, raise it to keep small intermediate datasets
    /// inline in otherwise large runs.
    pub thread_threshold: usize,
    /// Worker threads in the persistent pool; `None` (the default) sizes the
    /// pool to [`EnvConfig::parallelism`], giving every partition its own
    /// pinned worker. Smaller pools oversubscribe workers (partitions keep
    /// stable affinity via `pid % workers`).
    pub worker_threads: Option<usize>,
    /// Cache loop-body sub-plans that do not depend on the iteration state
    /// across supersteps (`true`, the default). Disable only for the
    /// engine-ablation benchmarks.
    pub loop_invariant_caching: bool,
    /// Telemetry sink receiving the structured event journal, spans and
    /// metrics of every iteration run in this environment. Defaults to the
    /// disabled no-op sink, which reduces every instrumentation site to a
    /// branch.
    pub telemetry: SinkHandle,
    /// Shared handle to the environment's persistent worker pool. All
    /// configuration clones (iteration bodies, per-superstep contexts) share
    /// one pool; it spawns lazily on the first threaded dispatch and joins
    /// its workers when the last handle drops.
    pub pool: PoolHandle,
}

impl EnvConfig {
    /// Configuration with the given parallelism and default knobs.
    ///
    /// # Panics
    /// Panics if `parallelism == 0` — a dataflow needs at least one partition.
    pub fn new(parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be at least 1");
        EnvConfig {
            parallelism,
            threaded: true,
            thread_threshold: 4096,
            worker_threads: None,
            loop_invariant_caching: true,
            telemetry: SinkHandle::disabled(),
            pool: PoolHandle::new(),
        }
    }

    /// Builder-style toggle for threaded partition execution.
    pub fn with_threaded(mut self, threaded: bool) -> Self {
        self.threaded = threaded;
        self
    }

    /// Builder-style override of the threading threshold.
    pub fn with_thread_threshold(mut self, threshold: usize) -> Self {
        self.thread_threshold = threshold;
        self
    }

    /// Builder-style override of the worker-pool size.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn with_worker_threads(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the worker pool needs at least one thread");
        self.worker_threads = Some(workers);
        self
    }

    /// Builder-style toggle for loop-invariant caching.
    pub fn with_loop_invariant_caching(mut self, enabled: bool) -> Self {
        self.loop_invariant_caching = enabled;
        self
    }

    /// Builder-style attachment of a telemetry sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Effective worker-pool size: the explicit override, or parallelism.
    pub fn pool_size(&self) -> usize {
        self.worker_threads.unwrap_or(self.parallelism).max(1)
    }
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use telemetry::MemorySink;

    #[test]
    fn builder_chains() {
        let c = EnvConfig::new(8)
            .with_threaded(false)
            .with_thread_threshold(10)
            .with_loop_invariant_caching(false)
            .with_worker_threads(3);
        assert_eq!(c.parallelism, 8);
        assert!(!c.threaded);
        assert_eq!(c.thread_threshold, 10);
        assert!(!c.loop_invariant_caching);
        assert_eq!(c.pool_size(), 3);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_rejected() {
        let _ = EnvConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "worker pool")]
    fn zero_worker_threads_rejected() {
        let _ = EnvConfig::new(2).with_worker_threads(0);
    }

    #[test]
    fn default_is_four_way() {
        assert_eq!(EnvConfig::default().parallelism, 4);
        assert!(EnvConfig::default().threaded);
        assert!(EnvConfig::default().loop_invariant_caching);
        assert_eq!(EnvConfig::default().pool_size(), 4);
    }

    #[test]
    fn telemetry_defaults_to_disabled() {
        assert!(!EnvConfig::default().telemetry.enabled());
        let c = EnvConfig::new(2).with_telemetry(SinkHandle::new(Arc::new(MemorySink::new())));
        assert!(c.telemetry.enabled());
    }

    #[test]
    fn clones_share_one_pool_handle() {
        let c = EnvConfig::new(2);
        let d = c.clone();
        let first = c.pool.get_or_spawn(c.pool_size(), &c.telemetry) as *const _;
        let second = d.pool.get_or_spawn(d.pool_size(), &d.telemetry) as *const _;
        assert_eq!(first, second, "configuration clones must share the worker pool");
    }
}
