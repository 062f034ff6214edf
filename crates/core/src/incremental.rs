//! Incremental checkpointing for delta iterations — an optimisation of the
//! rollback baseline that exploits the same observation as delta iterations
//! themselves: late in a run, only a small fraction of the solution set
//! changes per superstep.
//!
//! Instead of a full snapshot every superstep, the handler writes a full
//! *base* snapshot every `full_interval` supersteps and, in between, only
//! the *diff* of the solution set since the previous superstep (plus the
//! current working set, which is small exactly when the diffs are small).
//! On failure it restores the base and replays the logged diffs.
//!
//! This narrows — but does not close — the failure-free gap to optimistic
//! recovery: the bytes written per superstep shrink as the algorithm
//! converges, yet every superstep still pays a stable-storage round trip.
//! The `incremental_vs_full` rows of the recovery-comparison experiment
//! quantify this.

use std::marker::PhantomData;
use std::time::Instant;

use dataflow::codec::Codec;
use dataflow::dataset::{Data, Partitions};
use dataflow::error::{EngineError, Result};
use dataflow::ft::{CheckpointCost, DeltaState, FaultHandler, RecoveryAction, SolutionSets};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

use crate::checkpoint::{positive_interval, StableStore};

/// Incremental rollback recovery for delta iterations.
pub struct IncrementalDeltaHandler<K, V, W, S> {
    store: S,
    full_interval: u32,
    /// Iteration and key of the latest full snapshot.
    base: Option<(u32, String)>,
    /// Keys of the diff logs written since the base, in replay order.
    diff_chain: Vec<String>,
    /// Shadow copy of the solution set as of the last checkpointed
    /// superstep, used to compute diffs locally (local memory is cheap; the
    /// modelled cost is stable-storage traffic).
    shadow: SolutionSets<K, V>,
    sequence: u64,
    telemetry: SinkHandle,
    _records: PhantomData<fn(K, V, W)>,
}

impl<K, V, W, S: StableStore> IncrementalDeltaHandler<K, V, W, S> {
    /// Handler writing full snapshots every `full_interval` supersteps and
    /// diffs in between. A `full_interval` of zero is an
    /// [`EngineError::Plan`].
    pub fn new(store: S, full_interval: u32) -> Result<Self> {
        Ok(IncrementalDeltaHandler {
            store,
            full_interval: positive_interval("incremental", full_interval)?,
            base: None,
            diff_chain: Vec::new(),
            shadow: Vec::new(),
            sequence: 0,
            telemetry: SinkHandle::disabled(),
            _records: PhantomData,
        })
    }

    /// Report restores and diff-chain replays to the given telemetry sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Borrow the underlying store (byte accounting).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Number of diff logs currently chained onto the base snapshot.
    pub fn chain_length(&self) -> usize {
        self.diff_chain.len()
    }
}

impl<K, V, W, S> FaultHandler<DeltaState<K, V, W>> for IncrementalDeltaHandler<K, V, W, S>
where
    K: Data + Codec + std::hash::Hash + Eq,
    V: Data + Codec + PartialEq,
    W: Data + Codec,
    S: StableStore,
{
    /// Every superstep writes a base snapshot or a diff.
    fn reads_state(&self, _iteration: u32) -> bool {
        true
    }

    fn after_superstep(
        &mut self,
        iteration: u32,
        state: &DeltaState<K, V, W>,
    ) -> Result<Option<CheckpointCost>> {
        let DeltaState { solution, workset } = state;
        let start = Instant::now();
        self.sequence += 1;
        let take_full = self.base.is_none() || iteration.is_multiple_of(self.full_interval);
        let mut bytes = Vec::new();
        if take_full {
            // Full base snapshot: solution + workset.
            state.encode(&mut bytes);
            let key = format!("base-{iteration}-{}", self.sequence);
            self.store.put(&key, &bytes)?;
            // Drop the superseded chain from stable storage.
            if let Some((_, old_base)) = self.base.replace((iteration, key)) {
                self.store.remove(&old_base)?;
            }
            for old_diff in self.diff_chain.drain(..) {
                self.store.remove(&old_diff)?;
            }
        } else {
            // Diff since the shadow: upserts per partition + the workset.
            let upserts: Vec<Vec<(K, V)>> = solution
                .iter()
                .enumerate()
                .map(|(pid, set)| {
                    let shadow = self.shadow.get(pid);
                    set.iter()
                        .filter(|(k, v)| shadow.and_then(|s| s.get(k)) != Some(v))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect()
                })
                .collect();
            (upserts.len() as u64).encode(&mut bytes);
            for part in &upserts {
                part.encode(&mut bytes);
            }
            workset.encode(&mut bytes);
            let key = format!("diff-{iteration}-{}", self.sequence);
            self.store.put(&key, &bytes)?;
            self.diff_chain.push(key);
        }
        self.shadow = solution.clone();
        Ok(Some(CheckpointCost { bytes: bytes.len() as u64, duration: start.elapsed() }))
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut DeltaState<K, V, W>,
    ) -> Result<RecoveryAction<DeltaState<K, V, W>>> {
        let (base_iteration, base_key) = match &self.base {
            None => return Ok(RecoveryAction::Restart),
            Some(base) => base.clone(),
        };
        let blob = self.store.get(&base_key)?.ok_or_else(|| {
            EngineError::Recovery(format!("base snapshot {base_key} vanished from stable storage"))
        })?;
        let DeltaState { mut solution, mut workset } = DeltaState::decode(&mut blob.as_slice())?;
        let mut iteration = base_iteration;

        // Replay the diff chain on top of the base.
        for diff_key in &self.diff_chain {
            let blob = self.store.get(diff_key)?.ok_or_else(|| {
                EngineError::Recovery(format!("diff log {diff_key} vanished from stable storage"))
            })?;
            let mut input = blob.as_slice();
            let num_parts = u64::decode(&mut input)? as usize;
            if num_parts != solution.len() {
                return Err(EngineError::Recovery(format!(
                    "diff log {diff_key} has {num_parts} partitions, snapshot has {}",
                    solution.len()
                )));
            }
            for set in solution.iter_mut() {
                let upserts = Vec::<(K, V)>::decode(&mut input)?;
                set.extend(upserts);
            }
            workset = Partitions::decode(&mut input)?;
            iteration += 1;
        }
        self.telemetry.emit(|| JournalEvent::CheckpointRestored { iteration: base_iteration });
        if !self.diff_chain.is_empty() {
            self.telemetry.emit(|| JournalEvent::DiffChainReplayed {
                base_iteration,
                diffs: self.diff_chain.len() as u32,
            });
        }
        // The restored state is exactly the latest checkpointed superstep.
        Ok(RecoveryAction::Restored { iteration, state: DeltaState { solution, workset } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemoryStore;
    use dataflow::hash::FxHashMap;

    type State = DeltaState<u64, u64, (u64, u64)>;
    type Handler = IncrementalDeltaHandler<u64, u64, (u64, u64), MemoryStore>;

    /// Two partitions: `(pid, key, value)` solution entries plus a workset.
    fn state_of(entries: &[(usize, u64, u64)], workset: Vec<Vec<(u64, u64)>>) -> State {
        let mut solution: SolutionSets<u64, u64> = vec![FxHashMap::default(); 2];
        for &(pid, k, v) in entries {
            solution[pid].insert(k, v);
        }
        DeltaState { solution, workset: Partitions::from_parts(workset) }
    }

    #[test]
    fn diffs_are_smaller_than_full_snapshots() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 100).unwrap();
        let mut entries: Vec<(usize, u64, u64)> =
            (0..200).map(|k| ((k % 2) as usize, k, k)).collect();
        let workset = vec![vec![(0u64, 0u64)], vec![]];

        let full =
            handler.after_superstep(0, &state_of(&entries, workset.clone())).unwrap().unwrap();
        // One entry changes: the diff must be far smaller than the base.
        entries[7].2 = 999;
        let diff = handler.after_superstep(1, &state_of(&entries, workset)).unwrap().unwrap();
        assert!(diff.bytes * 10 < full.bytes, "diff {} vs full {}", diff.bytes, full.bytes);
        assert_eq!(handler.chain_length(), 1);
    }

    #[test]
    fn replay_restores_the_latest_state() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 100).unwrap();
        let mut entries: Vec<(usize, u64, u64)> = (0..10).map(|k| (0usize, k, k)).collect();
        handler.after_superstep(0, &state_of(&entries, vec![vec![(1, 1)], vec![]])).unwrap();

        entries[3].2 = 42;
        handler.after_superstep(1, &state_of(&entries, vec![vec![], vec![(2, 2)]])).unwrap();

        entries.push((1usize, 77, 78)); // new key appears in partition 1
        handler.after_superstep(2, &state_of(&entries, vec![vec![(3, 3)], vec![]])).unwrap();

        let mut broken = state_of(&[], vec![vec![], vec![]]);
        match handler.on_failure(3, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state } => {
                assert_eq!(iteration, 2);
                assert_eq!(state.solution[0].get(&3), Some(&42));
                assert_eq!(state.solution[1].get(&77), Some(&78));
                assert_eq!(state.solution[0].len(), 10);
                assert_eq!(state.workset.partition(0), &[(3, 3)]);
            }
            _ => panic!("expected restore"),
        }
    }

    #[test]
    fn full_interval_resets_the_chain() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 2).unwrap();
        let entries: Vec<(usize, u64, u64)> = (0..5).map(|k| (0usize, k, k)).collect();
        let state = state_of(&entries, vec![vec![], vec![]]);
        handler.after_superstep(0, &state).unwrap(); // full (0 % 2 == 0)
        handler.after_superstep(1, &state).unwrap(); // diff
        assert_eq!(handler.chain_length(), 1);
        handler.after_superstep(2, &state).unwrap(); // full again
        assert_eq!(handler.chain_length(), 0);
        // Stable storage holds only the latest base.
        assert_eq!(handler.store().len(), 1);
    }

    #[test]
    fn restart_before_first_snapshot() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 3).unwrap();
        let mut state = state_of(&[], vec![vec![], vec![]]);
        assert!(matches!(
            handler.on_failure(0, &[0], &mut state).unwrap(),
            RecoveryAction::Restart
        ));
    }

    #[test]
    fn unchanged_state_produces_empty_diffs() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 100).unwrap();
        let entries: Vec<(usize, u64, u64)> = (0..50).map(|k| (0usize, k, k)).collect();
        let state = state_of(&entries, vec![vec![], vec![]]);
        let full = handler.after_superstep(0, &state).unwrap().unwrap();
        let diff = handler.after_superstep(1, &state).unwrap().unwrap();
        assert!(diff.bytes < full.bytes / 10, "empty diff must be tiny ({})", diff.bytes);
    }

    #[test]
    fn a_zero_interval_is_a_plan_error_not_a_panic() {
        let err = Handler::new(MemoryStore::new(), 0).err();
        assert!(matches!(err, Some(EngineError::Plan(message)) if message.contains("interval")));
    }
}
