//! Asynchronous barrier snapshots: rollback recovery without a global pause.
//!
//! The strongest production competitor to optimistic recovery is not the
//! blocking checkpoint of [`crate::checkpoint`] but the Chandy–Lamport-style
//! *asynchronous* barrier snapshot used by Apache Flink ("Lightweight
//! Asynchronous Snapshots for Distributed Dataflows"): a barrier marker is
//! injected into the dataflow every `interval` iterations, each partition
//! captures its state when the marker passes, and the expensive
//! stable-storage writes happen in the background while the computation
//! keeps running.
//!
//! This module reproduces that cost structure on the superstep loop, once
//! for every iteration state: like the Flink protocol, the bookkeeping
//! handles per-task state as opaque bytes and leaves the encoding of one
//! partition to [`Snapshot`]. When a barrier fires at iteration `E` the
//! handler encodes every partition's state locally (the cheap, aligned capture — the superstep boundary *is*
//! the consistent cut, so no channel draining is needed), then persists
//! **one partition chunk per subsequent superstep**: with parallelism `P`
//! the snapshot of epoch `E` reaches stable storage at iteration `E+P-1`,
//! spreading the write cost instead of stalling the run. An epoch counts
//! only once *every* chunk is durable; recovery restores the last
//! **complete** epoch and never a partial one — a failure mid-flight aborts
//! the in-flight barrier, rolls back to the previous complete epoch (or
//! restarts when none exists), and a fresh barrier fires on recomputation.
//!
//! A snapshot is the state alone: the messages in flight at its barrier are
//! regenerated from that state on a restore. The barrier's life cycle is
//! journaled (`SnapshotBarrierStarted` / `SnapshotBarrierCompleted`) and its
//! chunks are the store's keys; nothing else observes it.

use std::marker::PhantomData;
use std::time::Instant;

use dataflow::error::{EngineError, Result};
use dataflow::ft::{CheckpointCost, FaultHandler, RecoveryAction, Snapshot};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

use crate::checkpoint::{cut_due, positive_interval, StableStore};

/// One barrier whose chunks are still being written to stable storage.
struct InFlight {
    epoch: u32,
    /// Locally captured chunks, one per partition, persisted in order.
    chunks: Vec<Vec<u8>>,
    /// Index of the next chunk to persist.
    next: usize,
}

/// The last epoch whose every chunk reached stable storage.
#[derive(Debug, Clone, Copy)]
struct Complete {
    epoch: u32,
    partitions: usize,
}

fn chunk_key(kind: &str, epoch: u32, pid: usize) -> String {
    format!("async-{kind}-{epoch}-p{pid}")
}

/// The barrier bookkeeping, independent of the state's shape: it sees
/// partitions only as opaque encoded chunks.
struct BarrierCore<S> {
    store: S,
    interval: u32,
    /// [`Snapshot::KIND`] of the state, part of every chunk's store key.
    kind: &'static str,
    telemetry: SinkHandle,
    in_flight: Option<InFlight>,
    complete: Option<Complete>,
}

impl<S: StableStore> BarrierCore<S> {
    fn new(store: S, interval: u32, kind: &'static str) -> Result<Self> {
        Ok(BarrierCore {
            store,
            interval: positive_interval("async-snapshot", interval)?,
            kind,
            telemetry: SinkHandle::disabled(),
            in_flight: None,
            complete: None,
        })
    }

    /// Whether [`Self::advance`] after `iteration` fires a barrier: one is
    /// due, and none will still be in flight once this superstep's chunk is
    /// persisted. A barrier due while one is in flight is skipped (the next
    /// multiple of `interval` after completion fires instead) — one snapshot
    /// at a time, like Flink's default concurrent-checkpoint limit of 1.
    fn fires(&self, iteration: u32) -> bool {
        let lands = |in_flight: &InFlight| in_flight.next + 1 == in_flight.chunks.len();
        cut_due(self.interval, iteration) && self.in_flight.as_ref().is_none_or(lands)
    }

    /// Persist the next pending chunk, completing the epoch when it was the
    /// last one; then fire a new barrier if [`Self::fires`] says so.
    /// `capture` encodes one partition's chunk.
    fn advance(
        &mut self,
        iteration: u32,
        partitions: usize,
        capture: impl Fn(usize) -> Vec<u8>,
    ) -> Result<Option<CheckpointCost>> {
        let start = Instant::now();
        let fires = self.fires(iteration);
        let mut persisted = 0u64;
        if let Some(in_flight) = &mut self.in_flight {
            let (epoch, pid) = (in_flight.epoch, in_flight.next);
            self.store.put(&chunk_key(self.kind, epoch, pid), &in_flight.chunks[pid])?;
            persisted += in_flight.chunks[pid].len() as u64;
            in_flight.next += 1;
            if in_flight.next == in_flight.chunks.len() {
                let bytes = in_flight.chunks.iter().map(|c| c.len() as u64).sum();
                let count = in_flight.chunks.len();
                self.in_flight = None;
                self.complete(epoch, count, bytes)?;
            }
        }
        if fires {
            let chunks: Vec<Vec<u8>> = (0..partitions).map(&capture).collect();
            self.telemetry
                .emit(|| JournalEvent::SnapshotBarrierStarted { epoch: iteration, partitions });
            let first = &chunks[0];
            self.store.put(&chunk_key(self.kind, iteration, 0), first)?;
            persisted += first.len() as u64;
            if partitions == 1 {
                // Degenerate single-partition case: durable immediately.
                self.complete(iteration, partitions, first.len() as u64)?;
            } else {
                self.in_flight = Some(InFlight { epoch: iteration, chunks, next: 1 });
            }
        }
        if persisted == 0 {
            return Ok(None);
        }
        Ok(Some(CheckpointCost { bytes: persisted, duration: start.elapsed() }))
    }

    /// Make `epoch`, every chunk of it durable, the restore point: it
    /// supersedes the previous epoch, whose chunks are removed.
    fn complete(&mut self, epoch: u32, partitions: usize, bytes: u64) -> Result<()> {
        if let Some(old) = self.complete.replace(Complete { epoch, partitions }) {
            for old_pid in 0..old.partitions {
                self.store.remove(&chunk_key(self.kind, old.epoch, old_pid))?;
            }
        }
        self.telemetry.emit(|| JournalEvent::SnapshotBarrierCompleted { epoch, partitions, bytes });
        Ok(())
    }

    /// Discard a partial in-flight epoch (failure mid-snapshot): recovery
    /// must never restore from it.
    fn abort_in_flight(&mut self) -> Result<()> {
        if let Some(in_flight) = self.in_flight.take() {
            for pid in 0..in_flight.next {
                self.store.remove(&chunk_key(self.kind, in_flight.epoch, pid))?;
            }
        }
        Ok(())
    }

    /// Fetch the chunks of the last complete epoch, if any.
    fn complete_chunks(&self) -> Result<Option<(u32, Vec<Vec<u8>>)>> {
        let Some(complete) = self.complete else { return Ok(None) };
        let mut chunks = Vec::with_capacity(complete.partitions);
        for pid in 0..complete.partitions {
            let key = chunk_key(self.kind, complete.epoch, pid);
            let chunk = self.store.get(&key)?.ok_or_else(|| {
                EngineError::Recovery(format!("snapshot chunk {key} vanished from stable storage"))
            })?;
            chunks.push(chunk);
        }
        Ok(Some((complete.epoch, chunks)))
    }
}

/// Asynchronous-barrier-snapshot handler, for either iteration kind (a delta
/// iteration's partition chunk carries that partition's solution set and
/// workset).
///
/// See the [module docs](self) for the mechanism. Restores carry the last
/// complete epoch's state; before the first epoch completes, failures
/// degrade to a restart (exactly like [`crate::checkpoint`] before its
/// first snapshot).
pub struct AsyncSnapshotHandler<S, Store> {
    core: BarrierCore<Store>,
    _state: PhantomData<fn(S)>,
}

impl<S: Snapshot, Store: StableStore> AsyncSnapshotHandler<S, Store> {
    /// Fire a barrier at iterations `0, interval, 2·interval, ...` (skipping
    /// multiples that land while a snapshot is still in flight). An
    /// `interval` of zero is an [`EngineError::Plan`].
    pub fn new(store: Store, interval: u32) -> Result<Self> {
        Ok(AsyncSnapshotHandler {
            core: BarrierCore::new(store, interval, S::KIND)?,
            _state: PhantomData,
        })
    }

    /// Report barrier starts/completions and restores to the given sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.core.telemetry = telemetry;
        self
    }

    /// The epoch of the last complete (restorable) snapshot, if any.
    pub fn latest_complete(&self) -> Option<u32> {
        self.core.complete.map(|c| c.epoch)
    }

    /// The epoch of the snapshot currently being written, if any.
    pub fn in_flight_epoch(&self) -> Option<u32> {
        self.core.in_flight.as_ref().map(|f| f.epoch)
    }

    /// Borrow the underlying store (e.g. for byte accounting).
    pub fn store(&self) -> &Store {
        &self.core.store
    }
}

impl<S: Snapshot, Store: StableStore> FaultHandler<S> for AsyncSnapshotHandler<S, Store> {
    fn reads_state(&self, iteration: u32) -> bool {
        self.core.fires(iteration)
    }

    fn after_superstep(&mut self, iteration: u32, state: &S) -> Result<Option<CheckpointCost>> {
        self.core.advance(iteration, state.num_partitions(), |pid| {
            let mut out = Vec::new();
            state.encode_partition(pid, &mut out);
            out
        })
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut S,
    ) -> Result<RecoveryAction<S>> {
        self.core.abort_in_flight()?;
        let Some((epoch, chunks)) = self.core.complete_chunks()? else {
            return Ok(RecoveryAction::Restart);
        };
        let state = S::from_chunks(&chunks)?;
        self.core.telemetry.emit(|| JournalEvent::CheckpointRestored { iteration: epoch });
        Ok(RecoveryAction::Restored { iteration: epoch, state })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::checkpoint::{CheckpointHandler, MemoryStore};
    use crate::test_states::{bulk, delta, same_delta};
    use dataflow::dataset::Partitions;
    use telemetry::MemorySink;

    type Handler<S> = AsyncSnapshotHandler<S, MemoryStore>;

    /// A handler that saw `after_superstep` for iterations `0..supersteps`.
    fn advanced<S: Snapshot>(
        interval: u32,
        supersteps: u32,
        states: &impl Fn(u32) -> S,
    ) -> Handler<S> {
        let mut handler = Handler::new(MemoryStore::new(), interval).unwrap();
        for iteration in 0..supersteps {
            handler.after_superstep(iteration, &states(iteration)).unwrap();
        }
        handler
    }

    /// Fail partition 0 at `iteration` and return what the handler restored:
    /// `None` for a restart.
    fn fail<S: Snapshot>(
        handler: &mut Handler<S>,
        iteration: u32,
        states: &impl Fn(u32) -> S,
    ) -> Option<(u32, S)> {
        let mut broken = states(iteration);
        broken.clear_partition(0);
        match handler.on_failure(iteration, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state } => Some((iteration, state)),
            RecoveryAction::Restart => None,
            _ => panic!("a snapshot handler restores or restarts"),
        }
    }

    /// The contract's barrier life cycle over one state shape with
    /// `partitions` partitions: `states` yields the state as of an
    /// iteration, `same` compares two states.
    fn barrier_life_cycle<S: Snapshot>(
        partitions: u32,
        states: impl Fn(u32) -> S,
        same: impl Fn(&S, &S) -> bool,
    ) {
        let interval = partitions;
        // Writes spread over supersteps: the barrier at iteration 0 persists
        // one chunk per superstep, so the epoch completes at `partitions-1`.
        let mut handler = Handler::<S>::new(MemoryStore::new(), interval).unwrap();
        for iteration in 0..partitions {
            assert_eq!(handler.latest_complete(), None);
            assert!(handler.after_superstep(iteration, &states(iteration)).unwrap().is_some());
            assert_eq!(handler.store().len(), iteration as usize + 1);
        }
        assert_eq!(handler.in_flight_epoch(), None);
        assert_eq!(handler.latest_complete(), Some(0));
        let key = format!("async-{}-0-p0", S::KIND);
        assert!(handler.store().get(&key).unwrap().is_some(), "chunk keys are {key}-shaped");
        // A complete epoch restores the state as of the barrier iteration.
        let (epoch, restored) = fail(&mut handler, partitions, &states).expect("a restore");
        assert_eq!(epoch, 0);
        assert!(same(&restored, &states(0)));

        // Restart before the first snapshot completes — and never restore a
        // partial one: its persisted chunks are discarded.
        let mut handler = advanced(interval, partitions - 1, &states);
        assert!(fail(&mut handler, partitions - 1, &states).is_none());
        assert_eq!(handler.store().len(), 0, "partial chunks were discarded");
        assert_eq!(handler.in_flight_epoch(), None);

        // A completed epoch supersedes and garbage-collects the older one.
        let mut handler = advanced(interval, 2 * partitions, &states);
        assert_eq!(handler.latest_complete(), Some(partitions));
        assert_eq!(handler.store().len(), partitions as usize, "epoch 0's chunks are gone");
        let (epoch, restored) = fail(&mut handler, 2 * partitions, &states).expect("a restore");
        assert_eq!(epoch, partitions);
        assert!(same(&restored, &states(partitions)));

        // A failure mid-flight falls back to the previous complete epoch.
        let mut handler = advanced(interval, partitions + 1, &states);
        assert_eq!(handler.latest_complete(), Some(0));
        assert_eq!(handler.in_flight_epoch(), Some(partitions));
        let (epoch, restored) = fail(&mut handler, partitions + 1, &states).expect("a restore");
        assert_eq!(epoch, 0, "the in-flight epoch must be skipped");
        assert!(same(&restored, &states(0)));
        assert_eq!(handler.store().len(), partitions as usize, "its partial chunk is gone");
    }

    #[test]
    fn barrier_life_cycle_holds_for_both_state_shapes() {
        barrier_life_cycle(4, bulk, |a, b| a == b);
        barrier_life_cycle(2, delta, same_delta);
    }

    /// Bytes each of five supersteps over an unchanging `state` persists.
    fn chunk_sizes<S: Snapshot>(state: S) -> Vec<Option<u64>> {
        let mut handler = Handler::new(MemoryStore::new(), 8).unwrap();
        (0..5)
            .map(|iteration| handler.after_superstep(iteration, &state).unwrap().map(|c| c.bytes))
            .collect()
    }

    #[test]
    fn snapshot_chunk_sizes_are_the_parents() {
        // Measured at the commit before the handlers were unified: a chunk
        // per superstep, then nothing once the epoch is complete.
        assert_eq!(chunk_sizes(bulk(0)), [Some(24), Some(24), Some(24), Some(24), None]);
        assert_eq!(chunk_sizes(delta(0)), [Some(64), Some(64), None, None, None]);
    }

    #[test]
    fn barriers_due_mid_flight_are_skipped() {
        // interval 2 < parallelism 4: the barrier at iteration 2 lands while
        // epoch 0 is still persisting and is skipped; the next barrier fires
        // at iteration 4 (the first multiple after completion).
        let mut handler = advanced(2, 4, &bulk);
        assert_eq!(handler.latest_complete(), Some(0));
        assert_eq!(handler.in_flight_epoch(), None);
        handler.after_superstep(4, &bulk(4)).unwrap();
        assert_eq!(handler.in_flight_epoch(), Some(4));
    }

    /// What each of supersteps `0..=partitions` and then a failure leave
    /// behind at interval = partition count: the barrier rows journaled and
    /// the chunks in the store.
    fn barrier_log<S: Snapshot>(partitions: u32, states: impl Fn(u32) -> S) -> Vec<String> {
        let sink = Arc::new(MemorySink::new());
        let mut handler = Handler::<S>::new(MemoryStore::new(), partitions)
            .unwrap()
            .with_telemetry(SinkHandle::new(sink.clone()));
        let mut log = Vec::new();
        let mut seen = 0;
        let mut record = |handler: &Handler<S>, log: &mut Vec<String>| {
            let events = sink.events();
            for event in &events[seen..] {
                log.push(match event {
                    JournalEvent::SnapshotBarrierStarted { epoch, partitions } => {
                        format!("start:{epoch}:{partitions}")
                    }
                    JournalEvent::SnapshotBarrierCompleted { epoch, .. } => format!("done:{epoch}"),
                    JournalEvent::CheckpointRestored { iteration } => {
                        format!("restore:{iteration}")
                    }
                    other => format!("{other:?}"),
                });
            }
            seen = events.len();
            log.push(format!("chunks:{}", handler.store().len()));
        };
        for iteration in 0..=partitions {
            handler.after_superstep(iteration, &states(iteration)).unwrap();
            record(&handler, &mut log);
        }
        fail(&mut handler, partitions + 1, &states);
        record(&handler, &mut log);
        log
    }

    #[test]
    fn the_journal_and_the_store_see_the_barrier_life_cycle_in_order() {
        // A chunk a superstep, completion after the final chunk, and a
        // failure mid-flight discards the partial epoch: its chunk leaves the
        // store and the complete epoch is restored.
        assert_eq!(
            barrier_log(4, bulk),
            [
                "start:0:4",
                "chunks:1",
                "chunks:2",
                "chunks:3",
                "done:0",
                "chunks:4",
                "start:4:4",
                "chunks:5",
                "restore:0",
                "chunks:4"
            ]
        );
        assert_eq!(
            barrier_log(2, delta),
            [
                "start:0:2",
                "chunks:1",
                "done:0",
                "chunks:2",
                "start:2:2",
                "chunks:3",
                "restore:0",
                "chunks:2"
            ]
        );
    }

    #[test]
    fn barriers_fire_only_where_the_cut_schedule_says_one_is_due() {
        // Four partitions, interval 2: barriers fire at 0, 4, 8 — a subset of
        // the due iterations 0, 2, 4, 6, 8, never an iteration outside them.
        let sink = Arc::new(MemorySink::new());
        let mut handler = Handler::new(MemoryStore::new(), 2)
            .unwrap()
            .with_telemetry(SinkHandle::new(sink.clone()));
        for iteration in 0..10 {
            handler.after_superstep(iteration, &bulk(iteration)).unwrap();
        }
        let fired: Vec<u32> = sink
            .events()
            .iter()
            .filter_map(|event| match event {
                JournalEvent::SnapshotBarrierStarted { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![0, 4, 8]);
        assert!(fired.iter().all(|&epoch| cut_due(2, epoch)));
    }

    #[test]
    fn reads_state_names_exactly_the_iterations_a_cut_is_taken() {
        // Asked before each superstep, `reads_state` names the iterations a
        // checkpoint is written after and a barrier starts at — skipped
        // barriers, the single-partition case and a failure mid-flight
        // included (superstep 9 fails and rolls the snapshot back).
        for interval in 1..=3 {
            for partitions in [1, 2, 4, 5] {
                let state = |iteration: u32| {
                    let records = (0..10).map(|v| v + u64::from(iteration)).collect();
                    Partitions::round_robin(records, partitions)
                };
                let sink = Arc::new(MemorySink::new());
                let mut snapshot = Handler::new(MemoryStore::new(), interval)
                    .unwrap()
                    .with_telemetry(SinkHandle::new(sink.clone()));
                let mut checkpoint = CheckpointHandler::new(MemoryStore::new(), interval).unwrap();
                let (mut named, mut written, mut iteration) = ((vec![], vec![]), vec![], 0);
                for superstep in 0..24 {
                    if superstep == 9 {
                        iteration =
                            fail(&mut snapshot, iteration, &state).map_or(0, |(e, _)| e + 1);
                        continue;
                    }
                    if snapshot.reads_state(iteration) {
                        named.0.push(iteration);
                    }
                    if checkpoint.reads_state(iteration) {
                        named.1.push(iteration);
                    }
                    snapshot.after_superstep(iteration, &state(iteration)).unwrap();
                    if checkpoint.after_superstep(iteration, &state(iteration)).unwrap().is_some() {
                        written.push(iteration);
                    }
                    iteration += 1;
                }
                let started: Vec<u32> = sink
                    .events()
                    .iter()
                    .filter_map(|event| match event {
                        JournalEvent::SnapshotBarrierStarted { epoch, .. } => Some(*epoch),
                        _ => None,
                    })
                    .collect();
                let at = format!("interval {interval}, {partitions} partitions");
                assert_eq!(named.0, started, "{at}");
                assert_eq!(named.1, written, "{at}");
            }
        }
    }

    #[test]
    fn single_partition_snapshots_complete_immediately() {
        let mut handler = Handler::new(MemoryStore::new(), 3).unwrap();
        let state = Partitions::round_robin(vec![7u64, 8, 9], 1);
        handler.after_superstep(0, &state).unwrap();
        assert_eq!(handler.latest_complete(), Some(0));
        assert_eq!(handler.in_flight_epoch(), None);
    }

    #[test]
    fn a_zero_interval_is_a_plan_error_not_a_panic() {
        let err = Handler::<Partitions<u64>>::new(MemoryStore::new(), 0).err();
        assert!(matches!(err, Some(EngineError::Plan(message)) if message.contains("interval")));
    }
}
