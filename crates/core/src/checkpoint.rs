//! Rollback recovery: interval checkpointing into stable storage.
//!
//! This is the pessimistic baseline the paper argues against (§2.2): every
//! `interval` iterations the full iteration state is serialised and written
//! to a [`StableStore`]; on failure the latest snapshot is restored and the
//! iterations since then are re-executed. The overhead is paid on *every*
//! run, failure or not — the quantity Experiment C1 measures.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dataflow::codec::{decode_exact, encode_to_vec};
use dataflow::error::{EngineError, Result};
use dataflow::ft::{CheckpointCost, FaultHandler, RecoveryAction, Snapshot};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

/// Latency/throughput model of the stable storage behind a checkpoint store.
///
/// Local laptop memory is orders of magnitude faster than the replicated
/// distributed file systems real deployments checkpoint into; the model
/// injects a sleep so measured run times reproduce the *shape* of
/// checkpointing overhead. The default is [`CostModel::instant`] (no
/// sleeping) so unit tests stay fast.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-write latency (round trips, replication pipeline setup).
    pub base: Duration,
    /// Transfer time per byte written.
    pub nanos_per_byte: f64,
}

impl CostModel {
    /// No modelled cost (pure in-memory behaviour).
    pub fn instant() -> Self {
        CostModel { base: Duration::ZERO, nanos_per_byte: 0.0 }
    }

    /// Model from a base latency and sustained throughput.
    pub fn throughput(base: Duration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "throughput must be positive");
        CostModel { base, nanos_per_byte: 1.0e9 / bytes_per_sec as f64 }
    }

    /// A replicated distributed file system: 2 ms setup, 100 MB/s sustained.
    pub fn distributed_fs() -> Self {
        CostModel::throughput(Duration::from_millis(2), 100 * 1024 * 1024)
    }

    /// The modelled delay for writing `bytes`.
    pub fn delay_for(&self, bytes: u64) -> Duration {
        if self.base.is_zero() && self.nanos_per_byte == 0.0 {
            return Duration::ZERO;
        }
        self.base + Duration::from_nanos((bytes as f64 * self.nanos_per_byte) as u64)
    }

    /// Sleep for the modelled delay and return it.
    pub fn simulate(&self, bytes: u64) -> Duration {
        let delay = self.delay_for(bytes);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        delay
    }
}

/// Key-value blob storage for checkpoints.
pub trait StableStore {
    /// Persist `bytes` under `key`, replacing any previous value.
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()>;

    /// Fetch the value stored under `key`.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;

    /// Remove the value stored under `key` (idempotent).
    fn remove(&mut self, key: &str) -> Result<()>;

    /// Total bytes written over the store's lifetime.
    fn bytes_written(&self) -> u64;
}

// Boxed stores forward, so a handler's store can be picked at runtime.
impl StableStore for Box<dyn StableStore> {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()> {
        (**self).put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        (**self).get(key)
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        (**self).remove(key)
    }

    fn bytes_written(&self) -> u64 {
        (**self).bytes_written()
    }
}

/// In-memory store with a stable-storage cost model.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: HashMap<String, Vec<u8>>,
    model: Option<CostModel>,
    bytes_written: u64,
}

impl MemoryStore {
    /// Store without modelled latency.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// Store sleeping per the given model on every write.
    pub fn with_cost_model(model: CostModel) -> Self {
        MemoryStore { model: Some(model), ..Default::default() }
    }

    /// Number of blobs currently held.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

impl StableStore for MemoryStore {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()> {
        if let Some(model) = &self.model {
            model.simulate(bytes.len() as u64);
        }
        self.bytes_written += bytes.len() as u64;
        self.blobs.insert(key.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.blobs.get(key).cloned())
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        self.blobs.remove(key);
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// On-disk store: one file per key under a directory. Real I/O, plus an
/// optional extra cost model on top.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    model: Option<CostModel>,
    bytes_written: u64,
    cleanup_on_drop: bool,
}

impl DiskStore {
    /// Store under `dir` (created if missing).
    pub fn new(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore { dir, model: None, bytes_written: 0, cleanup_on_drop: false })
    }

    /// Store under a fresh directory inside the system temp dir.
    pub fn temp() -> Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "optirec-ckpt-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let mut store = DiskStore::new(std::env::temp_dir().join(unique))?;
        store.cleanup_on_drop = true;
        Ok(store)
    }

    /// Add a cost model on top of the real file I/O.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.model = Some(model);
        self
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        let sanitized: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
            .collect();
        self.dir.join(format!("{sanitized}.ckpt"))
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if self.cleanup_on_drop {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }
}

impl StableStore for DiskStore {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()> {
        if let Some(model) = &self.model {
            model.simulate(bytes.len() as u64);
        }
        self.bytes_written += bytes.len() as u64;
        std::fs::write(self.path_for(key), bytes)?;
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path_for(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        match std::fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// Reject a snapshot interval of zero: "every 0 iterations" is not a
/// schedule. Shared by the interval-driven handlers' constructors.
pub(crate) fn positive_interval(strategy: &str, interval: u32) -> Result<u32> {
    if interval == 0 {
        return Err(EngineError::Plan(format!(
            "{strategy} needs an interval of at least 1 iteration"
        )));
    }
    Ok(interval)
}

/// The cut schedule of the interval-driven handlers: whether a handler built
/// with `interval` cuts after logical iteration `iteration` — iterations
/// `0, interval, 2·interval, ...`. [`CheckpointHandler`] cuts at exactly
/// these; [`crate::AsyncSnapshotHandler`] at these unless an earlier epoch is
/// still in flight. Each says where it cuts through
/// [`FaultHandler::reads_state`].
pub fn cut_due(interval: u32, iteration: u32) -> bool {
    iteration.is_multiple_of(interval)
}

/// Rollback-recovery handler: checkpoint the iteration state (for a delta
/// iteration, solution sets and working set together) every `interval`
/// iterations, restore the latest snapshot on failure.
pub struct CheckpointHandler<S, Store> {
    store: Store,
    interval: u32,
    latest: Option<(u32, String)>,
    telemetry: SinkHandle,
    _state: PhantomData<fn(S)>,
}

impl<S, Store: StableStore> CheckpointHandler<S, Store> {
    /// Checkpoint into `store` at iterations `0, interval, 2·interval, ...`.
    /// An `interval` of zero is an [`EngineError::Plan`].
    pub fn new(store: Store, interval: u32) -> Result<Self> {
        Ok(CheckpointHandler {
            store,
            interval: positive_interval("checkpoint", interval)?,
            latest: None,
            telemetry: SinkHandle::disabled(),
            _state: PhantomData,
        })
    }

    /// Report checkpoint restores to the given telemetry sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The iteration of the most recent snapshot, if any.
    pub fn latest_checkpoint(&self) -> Option<u32> {
        self.latest.as_ref().map(|(iteration, _)| *iteration)
    }

    /// Borrow the underlying store (e.g. for byte accounting).
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl<S: Snapshot, Store: StableStore> FaultHandler<S> for CheckpointHandler<S, Store> {
    fn reads_state(&self, iteration: u32) -> bool {
        cut_due(self.interval, iteration)
    }

    fn after_superstep(&mut self, iteration: u32, state: &S) -> Result<Option<CheckpointCost>> {
        if !self.reads_state(iteration) {
            return Ok(None);
        }
        let start = Instant::now();
        let bytes = encode_to_vec(state);
        let key = format!("{}-{iteration}", S::KIND);
        self.store.put(&key, &bytes)?;
        if let Some((_, old_key)) = self.latest.replace((iteration, key)) {
            self.store.remove(&old_key)?;
        }
        Ok(Some(CheckpointCost { bytes: bytes.len() as u64, duration: start.elapsed() }))
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut S,
    ) -> Result<RecoveryAction<S>> {
        let Some((iteration, key)) = &self.latest else { return Ok(RecoveryAction::Restart) };
        let bytes = self.store.get(key)?.ok_or_else(|| {
            EngineError::Recovery(format!("checkpoint {key} vanished from stable storage"))
        })?;
        let state = decode_exact::<S>(&bytes)?;
        let iteration = *iteration;
        self.telemetry.emit(|| JournalEvent::CheckpointRestored { iteration });
        Ok(RecoveryAction::Restored { iteration, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::dataset::Partitions;

    #[test]
    fn cost_model_delay_scales_with_bytes() {
        let model = CostModel::throughput(Duration::from_millis(1), 1_000_000);
        assert_eq!(model.delay_for(0), Duration::from_millis(1));
        assert_eq!(model.delay_for(1_000_000), Duration::from_millis(1001));
        assert_eq!(CostModel::instant().delay_for(u64::MAX), Duration::ZERO);
    }

    #[test]
    fn memory_store_roundtrip_and_accounting() {
        let mut store = MemoryStore::new();
        store.put("a", &[1, 2, 3]).unwrap();
        store.put("b", &[4]).unwrap();
        assert_eq!(store.get("a").unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(store.get("missing").unwrap(), None);
        assert_eq!(store.bytes_written(), 4);
        store.remove("a").unwrap();
        assert_eq!(store.get("a").unwrap(), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn disk_store_roundtrip() {
        let mut store = DiskStore::temp().unwrap();
        store.put("bulk-3", b"snapshot").unwrap();
        assert_eq!(store.get("bulk-3").unwrap(), Some(b"snapshot".to_vec()));
        assert_eq!(store.get("bulk-4").unwrap(), None);
        store.remove("bulk-3").unwrap();
        assert_eq!(store.get("bulk-3").unwrap(), None);
        store.remove("bulk-3").unwrap(); // idempotent
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn disk_store_sanitizes_keys() {
        let mut store = DiskStore::temp().unwrap();
        store.put("../evil/../../key", b"x").unwrap();
        // The file must live inside the store directory.
        let entries: Vec<_> = std::fs::read_dir(store.dir()).unwrap().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(store.get("../evil/../../key").unwrap(), Some(b"x".to_vec()));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// The contract's checkpoint life cycle over one state shape: `states`
    /// yields the state as of an iteration, `same` compares two states.
    fn checkpoint_life_cycle<S: Snapshot>(
        states: impl Fn(u32) -> S,
        same: impl Fn(&S, &S) -> bool,
    ) {
        // Before the first snapshot a failure can only restart.
        let mut handler = CheckpointHandler::<S, _>::new(MemoryStore::new(), 5).unwrap();
        let mut broken = states(0);
        broken.clear_partition(0);
        assert!(matches!(
            handler.on_failure(0, &[0], &mut broken).unwrap(),
            RecoveryAction::Restart
        ));

        // Interval 2: iteration 0 checkpointed, 1 skipped, 2 checkpointed.
        let mut handler = CheckpointHandler::<S, _>::new(MemoryStore::new(), 2).unwrap();
        assert!(handler.after_superstep(0, &states(0)).unwrap().is_some());
        assert!(handler.after_superstep(1, &states(1)).unwrap().is_none());
        let cost = handler.after_superstep(2, &states(2)).unwrap().unwrap();
        assert!(cost.bytes > 0);
        assert_eq!(handler.latest_checkpoint(), Some(2));
        assert_eq!(handler.store().len(), 1, "only the latest snapshot is kept");
        assert!(handler.store().get(&format!("{}-2", S::KIND)).unwrap().is_some());

        let mut broken = states(3);
        broken.clear_partition(0);
        match handler.on_failure(3, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state } => {
                assert_eq!(iteration, 2);
                assert!(same(&state, &states(2)), "the restored state is the snapshot's");
            }
            _ => panic!("expected a rollback"),
        }
    }

    #[test]
    fn checkpoints_on_interval_restores_and_garbage_collects() {
        checkpoint_life_cycle(crate::test_states::bulk, |a, b| a == b);
        checkpoint_life_cycle(crate::test_states::delta, crate::test_states::same_delta);
    }

    #[test]
    fn the_cut_schedule_is_the_rule_the_handler_applies() {
        for interval in 1..4 {
            let mut handler = CheckpointHandler::new(MemoryStore::new(), interval).unwrap();
            for iteration in 0..8 {
                let state = crate::test_states::bulk(iteration);
                let cut = handler.after_superstep(iteration, &state).unwrap().is_some();
                assert_eq!(cut, cut_due(interval, iteration), "interval {interval} at {iteration}");
            }
        }
    }

    #[test]
    fn checkpoint_sizes_are_the_parents() {
        // Measured at the commit before the handlers were unified: these are
        // the bytes `CheckpointWritten` journals and the ledger's
        // `recovery.checkpoint_bytes` sums.
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 1).unwrap();
        let cost = handler.after_superstep(0, &crate::test_states::bulk(0)).unwrap().unwrap();
        assert_eq!(cost.bytes, 104);
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 1).unwrap();
        let cost = handler.after_superstep(0, &crate::test_states::delta(0)).unwrap().unwrap();
        assert_eq!(cost.bytes, 144);
    }

    #[test]
    fn a_checkpoint_is_a_barrier_that_starts_and_completes_in_one_call() {
        // Each cut is written and its predecessor dropped inside the call
        // that takes it: the store holds exactly the latest cut in between.
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 2).unwrap();
        let mut held = Vec::new();
        for iteration in 0..5 {
            handler.after_superstep(iteration, &crate::test_states::bulk(iteration)).unwrap();
            let latest = (0..=iteration)
                .rev()
                .find(|&cut| handler.store().get(&format!("bulk-{cut}")).unwrap().is_some());
            held.push((handler.store().len(), latest));
        }
        assert_eq!(held, [(1, Some(0)), (1, Some(0)), (1, Some(2)), (1, Some(2)), (1, Some(4))]);
    }

    #[test]
    fn a_zero_interval_is_a_plan_error_not_a_panic() {
        let err = CheckpointHandler::<Partitions<u64>, _>::new(MemoryStore::new(), 0).err();
        assert!(matches!(err, Some(EngineError::Plan(message)) if message.contains("interval")));
    }
}
