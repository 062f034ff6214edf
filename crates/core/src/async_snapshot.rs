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
//! The cluster coordinator observes barrier life-cycle points through a
//! [`BarrierProbe`] to ship chunks to the owning workers (the barrier
//! marker flowing through the topology). A snapshot is the state alone: the
//! messages in flight at its barrier are regenerated from that state on a
//! restore.

use std::marker::PhantomData;
use std::time::Instant;

use dataflow::error::{EngineError, Result};
use dataflow::ft::{CheckpointCost, FaultHandler, RecoveryAction, Snapshot};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

use crate::checkpoint::{cut_due, positive_interval, StableStore};

/// Barrier life-cycle notification delivered to a [`BarrierProbe`].
#[derive(Debug)]
pub enum BarrierEvent<'a> {
    /// A barrier fired: every partition's chunk was captured locally.
    Started {
        /// The iteration the snapshot belongs to.
        epoch: u32,
        /// Number of partition chunks captured.
        partitions: usize,
    },
    /// One staged chunk reached stable storage.
    ChunkPersisted {
        /// The epoch the chunk belongs to.
        epoch: u32,
        /// The partition the chunk captures.
        pid: PartitionId,
        /// The encoded chunk (for shipping to the owning worker).
        chunk: &'a [u8],
    },
    /// Every chunk of the epoch is durable; it is now the restore point.
    Completed {
        /// The completed epoch.
        epoch: u32,
    },
    /// A failure struck mid-flight; the partial epoch was discarded.
    Aborted {
        /// The discarded epoch.
        epoch: u32,
    },
}

/// Observer of barrier life-cycle points (chunk shipping, channel capture).
pub type BarrierProbe = Box<dyn FnMut(BarrierEvent<'_>)>;

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
    probe: Option<BarrierProbe>,
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
            probe: None,
            in_flight: None,
            complete: None,
        })
    }

    fn notify(&mut self, event: BarrierEvent<'_>) {
        if let Some(probe) = &mut self.probe {
            probe(event);
        }
    }

    /// Persist the next pending chunk, completing the epoch when it was the
    /// last one; then fire a new barrier if `iteration` is due and no
    /// barrier is in flight. `capture` encodes one partition's chunk.
    fn advance(
        &mut self,
        iteration: u32,
        partitions: usize,
        capture: impl Fn(usize) -> Vec<u8>,
    ) -> Result<Option<CheckpointCost>> {
        let start = Instant::now();
        let mut persisted = 0u64;
        if self.in_flight.is_some() {
            let (epoch, pid, chunk, is_last) = {
                let in_flight = self.in_flight.as_mut().expect("in-flight barrier present");
                let pid = in_flight.next;
                let chunk = std::mem::take(&mut in_flight.chunks[pid]);
                in_flight.next += 1;
                (in_flight.epoch, pid, chunk, in_flight.next == in_flight.chunks.len())
            };
            self.store.put(&chunk_key(self.kind, epoch, pid), &chunk)?;
            persisted += chunk.len() as u64;
            self.notify(BarrierEvent::ChunkPersisted { epoch, pid, chunk: &chunk });
            self.in_flight.as_mut().expect("in-flight barrier present").chunks[pid] = chunk;
            if is_last {
                let done = self.in_flight.take().expect("in-flight barrier present");
                let bytes: u64 = done.chunks.iter().map(|c| c.len() as u64).sum();
                let count = done.chunks.len();
                // The new restore point supersedes the previous epoch.
                if let Some(old) = self.complete.replace(Complete { epoch, partitions: count }) {
                    for old_pid in 0..old.partitions {
                        self.store.remove(&chunk_key(self.kind, old.epoch, old_pid))?;
                    }
                }
                self.telemetry.emit(|| JournalEvent::SnapshotBarrierCompleted {
                    epoch,
                    partitions: count,
                    bytes,
                });
                self.notify(BarrierEvent::Completed { epoch });
            }
        }
        // A barrier due while one is still in flight is skipped (the next
        // multiple of `interval` after completion fires instead) — one
        // snapshot at a time, like Flink's default concurrent-checkpoint
        // limit of 1.
        if self.in_flight.is_none() && cut_due(self.interval, iteration) {
            let chunks: Vec<Vec<u8>> = (0..partitions).map(&capture).collect();
            self.telemetry
                .emit(|| JournalEvent::SnapshotBarrierStarted { epoch: iteration, partitions });
            self.notify(BarrierEvent::Started { epoch: iteration, partitions });
            let first = &chunks[0];
            self.store.put(&chunk_key(self.kind, iteration, 0), first)?;
            persisted += first.len() as u64;
            self.notify(BarrierEvent::ChunkPersisted { epoch: iteration, pid: 0, chunk: first });
            if partitions == 1 {
                // Degenerate single-partition case: durable immediately.
                let bytes = first.len() as u64;
                if let Some(old) = self.complete.replace(Complete { epoch: iteration, partitions })
                {
                    for old_pid in 0..old.partitions {
                        self.store.remove(&chunk_key(self.kind, old.epoch, old_pid))?;
                    }
                }
                self.telemetry.emit(|| JournalEvent::SnapshotBarrierCompleted {
                    epoch: iteration,
                    partitions,
                    bytes,
                });
                self.notify(BarrierEvent::Completed { epoch: iteration });
            } else {
                self.in_flight = Some(InFlight { epoch: iteration, chunks, next: 1 });
            }
        }
        if persisted == 0 {
            return Ok(None);
        }
        Ok(Some(CheckpointCost { bytes: persisted, duration: start.elapsed() }))
    }

    /// Discard a partial in-flight epoch (failure mid-snapshot): recovery
    /// must never restore from it.
    fn abort_in_flight(&mut self) -> Result<()> {
        if let Some(in_flight) = self.in_flight.take() {
            for pid in 0..in_flight.next {
                self.store.remove(&chunk_key(self.kind, in_flight.epoch, pid))?;
            }
            self.notify(BarrierEvent::Aborted { epoch: in_flight.epoch });
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

    /// Observe barrier life-cycle points (the cluster coordinator ships
    /// chunks to workers from here).
    pub fn with_probe(mut self, probe: BarrierProbe) -> Self {
        self.core.probe = Some(probe);
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
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::checkpoint::MemoryStore;
    use crate::test_states::{bulk, delta, same_delta};
    use dataflow::dataset::Partitions;

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

    #[test]
    fn barriers_fire_only_where_the_cut_schedule_says_one_is_due() {
        // Four partitions, interval 2: barriers fire at 0, 4, 8 — a subset of
        // the due iterations 0, 2, 4, 6, 8, never an iteration outside them.
        let fired: Rc<RefCell<Vec<u32>>> = Rc::default();
        let log = fired.clone();
        let mut handler =
            Handler::new(MemoryStore::new(), 2).unwrap().with_probe(Box::new(move |event| {
                if let BarrierEvent::Started { epoch, .. } = event {
                    log.borrow_mut().push(epoch);
                }
            }));
        for iteration in 0..10 {
            handler.after_superstep(iteration, &bulk(iteration)).unwrap();
        }
        assert_eq!(*fired.borrow(), vec![0, 4, 8]);
        assert!(fired.borrow().iter().all(|&epoch| cut_due(2, epoch)));
    }

    /// The probe's view of five supersteps and a failure at interval =
    /// partition count.
    fn probe_log<S: Snapshot>(partitions: u32, states: impl Fn(u32) -> S) -> Vec<String> {
        let seen: Rc<RefCell<Vec<String>>> = Rc::default();
        let log = seen.clone();
        let mut handler = Handler::<S>::new(MemoryStore::new(), partitions).unwrap().with_probe(
            Box::new(move |event| {
                log.borrow_mut().push(match event {
                    BarrierEvent::Started { epoch, partitions } => {
                        format!("start:{epoch}:{partitions}")
                    }
                    BarrierEvent::ChunkPersisted { epoch, pid, .. } => {
                        format!("chunk:{epoch}:{pid}")
                    }
                    BarrierEvent::Completed { epoch } => format!("done:{epoch}"),
                    BarrierEvent::Aborted { epoch } => format!("abort:{epoch}"),
                });
            }),
        );
        for iteration in 0..=partitions {
            handler.after_superstep(iteration, &states(iteration)).unwrap();
        }
        fail(&mut handler, partitions + 1, &states);
        let log = seen.borrow().clone();
        log
    }

    #[test]
    fn probe_sees_the_barrier_life_cycle_in_order() {
        assert_eq!(
            probe_log(4, bulk),
            vec![
                "start:0:4",
                "chunk:0:0",
                "chunk:0:1",
                "chunk:0:2",
                "chunk:0:3",
                "done:0",
                "start:4:4",
                "chunk:4:0",
                "abort:4",
            ],
            "every chunk is reported, completion after the final chunk, partials via Aborted"
        );
        assert_eq!(
            probe_log(2, delta),
            vec![
                "start:0:2",
                "chunk:0:0",
                "chunk:0:1",
                "done:0",
                "start:2:2",
                "chunk:2:0",
                "abort:2"
            ]
        );
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
