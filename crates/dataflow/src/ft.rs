//! Fault-tolerance hooks: failure injection and the one recovery contract.
//!
//! The engine itself is policy-free. At every superstep boundary of an
//! iteration it (1) offers the fresh state to the configured
//! [`FaultHandler`] (which may checkpoint it), (2) asks the
//! [`FailureSource`] whether a failure strikes, and if so drops the affected
//! partitions and (3) asks the handler to recover. The contract is generic
//! over the [`IterationState`] — [`Partitions`] for bulk iterations,
//! [`DeltaState`] for delta iterations — so a strategy is one type that runs
//! under either driver (and, wrapped, on the cluster). The `recovery` crate
//! implements the paper's policies on top of it; the engine ships only
//! [`RestartHandler`], the trivially correct restart-from-scratch baseline.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{decode_exact, encode_slice, Codec};
use crate::dataset::{Data, Partitions};
use crate::error::Result;
use crate::hash::FxHashMap;
use crate::partition::{hash_partition, PartitionId};

/// Decides when failures strike and which partitions they destroy.
///
/// `superstep` is the *chronological* superstep index (it never repeats,
/// unlike logical iteration numbers under rollback), so a deterministic
/// schedule cannot re-trigger endlessly after recovery.
pub trait FailureSource {
    /// Partitions lost at the end of this superstep, if any.
    fn poll(&mut self, superstep: u32, parallelism: usize) -> Option<Vec<PartitionId>>;
}

/// No failures: the failure-free baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFailures;

impl FailureSource for NoFailures {
    fn poll(&mut self, _superstep: u32, _parallelism: usize) -> Option<Vec<PartitionId>> {
        None
    }
}

/// A fixed schedule of `(superstep, partitions)` failure events.
#[derive(Debug, Default, Clone)]
pub struct DeterministicFailures {
    events: BTreeMap<u32, Vec<PartitionId>>,
}

impl DeterministicFailures {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a failure of the given partitions at the end of `superstep`.
    pub fn fail_at(mut self, superstep: u32, partitions: &[PartitionId]) -> Self {
        self.events.entry(superstep).or_default().extend_from_slice(partitions);
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no failures are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl FailureSource for DeterministicFailures {
    fn poll(&mut self, superstep: u32, parallelism: usize) -> Option<Vec<PartitionId>> {
        self.events.remove(&superstep).map(|mut parts| {
            parts.retain(|&p| p < parallelism);
            parts.sort_unstable();
            parts.dedup();
            parts
        })
    }
}

/// A seeded MTBF-style random failure model.
///
/// Gaps between consecutive failures are geometrically distributed with the
/// configured mean (in supersteps) — the discrete analogue of the
/// memoryless mean-time-between-failures processes used to model cluster
/// node churn. Each firing kills between one and `max_partitions` distinct
/// partitions, chosen uniformly.
///
/// The model is fully deterministic given its seed: the same seed, workload
/// and parallelism replay the exact same failure schedule, so experiments
/// that sweep recovery strategies under "random" failures stay comparable
/// run-to-run (and the journal's byte-identical-replay guarantee holds).
#[derive(Debug, Clone)]
pub struct MtbfFailures {
    rng: StdRng,
    /// Mean supersteps between failures (`>= 1`).
    mean: f64,
    max_partitions: usize,
    min_superstep: u32,
    /// The next superstep at which a failure strikes.
    next_failure_at: u64,
}

impl MtbfFailures {
    /// A failure model with the given mean superstep gap between failures,
    /// killing one partition per firing. The first gap is sampled from the
    /// same geometric distribution as every later one.
    ///
    /// # Panics
    /// Panics if `mean_supersteps < 1.0` (the engine polls once per
    /// superstep, so failures cannot arrive faster than that).
    pub fn new(mean_supersteps: f64, seed: u64) -> Self {
        assert!(mean_supersteps >= 1.0, "mean time between failures must be at least 1 superstep");
        let mut source = MtbfFailures {
            rng: StdRng::seed_from_u64(seed),
            mean: mean_supersteps,
            max_partitions: 1,
            min_superstep: 0,
            next_failure_at: 0,
        };
        source.next_failure_at = source.sample_gap();
        source
    }

    /// Let each firing destroy up to `max` distinct partitions (at least
    /// one; the count is drawn uniformly from `1..=max`).
    ///
    /// # Panics
    /// Panics if `max == 0`.
    pub fn with_max_partitions(mut self, max: usize) -> Self {
        assert!(max >= 1, "a failure must destroy at least one partition");
        self.max_partitions = max;
        self
    }

    /// Suppress failures before the given superstep (failures scheduled
    /// earlier are pushed to `min_superstep`).
    pub fn with_min_superstep(mut self, min_superstep: u32) -> Self {
        self.min_superstep = min_superstep;
        self
    }

    /// Sample a geometric inter-arrival gap with mean `self.mean` via
    /// inversion: `ceil(ln(u) / ln(1 - 1/mean))`, `u` uniform in `(0, 1]`.
    fn sample_gap(&mut self) -> u64 {
        let p = 1.0 / self.mean;
        if p >= 1.0 {
            return 1;
        }
        // `gen::<f64>()` is uniform in [0, 1); flip it to (0, 1] so the
        // logarithm stays finite.
        let u = 1.0 - self.rng.gen::<f64>();
        let gap = (u.ln() / (1.0 - p).ln()).ceil();
        gap.max(1.0) as u64
    }
}

impl FailureSource for MtbfFailures {
    fn poll(&mut self, superstep: u32, parallelism: usize) -> Option<Vec<PartitionId>> {
        if superstep < self.min_superstep || u64::from(superstep) < self.next_failure_at {
            return None;
        }
        self.next_failure_at = u64::from(superstep) + self.sample_gap();
        let count = self.rng.gen_range(1..=self.max_partitions.min(parallelism));
        // Partial Fisher-Yates: the first `count` slots end up holding a
        // uniform sample of distinct partitions.
        let mut partitions: Vec<PartitionId> = (0..parallelism).collect();
        for i in 0..count {
            let j = self.rng.gen_range(i..parallelism);
            partitions.swap(i, j);
        }
        partitions.truncate(count);
        partitions.sort_unstable();
        Some(partitions)
    }
}

/// Cost of a checkpoint taken by a fault handler, for the run statistics.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCost {
    /// Snapshot size in bytes (estimated or exact, store-dependent).
    pub bytes: u64,
    /// Wall-clock time spent writing, including any modelled stable-storage
    /// latency.
    pub duration: Duration,
}

/// Partitioned iteration state: the thing a failure destroys part of and a
/// [`FaultHandler`] repairs. Implemented for the two state shapes the engine
/// iterates over — [`Partitions`] (bulk) and [`DeltaState`] (delta) — so the
/// drivers' recovery step and every recovery strategy are written once.
pub trait IterationState: Clone {
    /// Number of partitions the state is split into.
    fn num_partitions(&self) -> usize;

    /// Destroy partition `pid`, returning the number of records lost.
    fn clear_partition(&mut self, pid: PartitionId) -> u64;
}

/// An [`IterationState`] that can be written to stable storage. The whole
/// state's blob is its [`Codec`] encoding (what a synchronous checkpoint
/// writes); this trait adds the per-partition chunks an asynchronous barrier
/// snapshot persists one at a time.
pub trait Snapshot: IterationState + Codec {
    /// Stem of the keys snapshots of this state shape are stored under.
    const KIND: &'static str;

    /// Append the encoded chunk of partition `pid` to `out`.
    fn encode_partition(&self, pid: PartitionId, out: &mut Vec<u8>);

    /// Rebuild the state from one [`Self::encode_partition`] chunk per
    /// partition, in partition order.
    fn from_chunks(chunks: &[Vec<u8>]) -> Result<Self>;
}

impl<T: Data> IterationState for Partitions<T> {
    fn num_partitions(&self) -> usize {
        Partitions::num_partitions(self)
    }

    fn clear_partition(&mut self, pid: PartitionId) -> u64 {
        Partitions::clear_partition(self, pid) as u64
    }
}

/// Same bytes as the `Vec<Vec<T>>` of the partitions.
impl<T: Codec> Codec for Partitions<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.num_partitions() as u64).encode(out);
        for part in self.as_parts() {
            part.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(Partitions::from_parts(Vec::<Vec<T>>::decode(input)?))
    }
}

impl<T: Data + Codec> Snapshot for Partitions<T> {
    const KIND: &'static str = "bulk";

    fn encode_partition(&self, pid: PartitionId, out: &mut Vec<u8>) {
        encode_slice(self.partition(pid), out)
    }

    fn from_chunks(chunks: &[Vec<u8>]) -> Result<Self> {
        let parts = chunks.iter().map(|chunk| decode_exact::<Vec<T>>(chunk));
        Ok(Partitions::from_parts(parts.collect::<Result<_>>()?))
    }
}

/// Per-partition solution sets of a delta iteration: one keyed map per
/// partition, holding the current value for every key of that partition.
pub type SolutionSets<K, V> = Vec<FxHashMap<K, V>>;

/// Build solution sets from `(key, value)` entries, routing each entry to
/// its key's partition (a later entry for a key replaces an earlier one).
pub fn solution_sets<K: Hash + Eq, V>(
    entries: impl IntoIterator<Item = (K, V)>,
    parallelism: usize,
) -> SolutionSets<K, V> {
    let mut sets: SolutionSets<K, V> = (0..parallelism).map(|_| FxHashMap::default()).collect();
    for (k, v) in entries {
        sets[hash_partition(&k, parallelism)].insert(k, v);
    }
    sets
}

/// The state of a delta iteration: the keyed solution sets plus the working
/// set entering the next superstep. A failure destroys both the solution-set
/// partition and the workset partition of the lost workers.
#[derive(Debug, Clone)]
pub struct DeltaState<K, V, W> {
    /// Solution sets, hash-partitioned by key.
    pub solution: SolutionSets<K, V>,
    /// The working set, partitioned like the solution sets.
    pub workset: Partitions<W>,
}

impl<K: Data, V: Data, W: Data> IterationState for DeltaState<K, V, W> {
    fn num_partitions(&self) -> usize {
        self.solution.len()
    }

    fn clear_partition(&mut self, pid: PartitionId) -> u64 {
        let entries = std::mem::take(&mut self.solution[pid]).len();
        (entries + self.workset.clear_partition(pid)) as u64
    }
}

fn solution_entries<K: Clone, V: Clone>(set: &FxHashMap<K, V>) -> Vec<(K, V)> {
    set.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// All solution sets (a count, then each set as a `Vec<(K, V)>`), then the
/// working set.
impl<K, V, W> Codec for DeltaState<K, V, W>
where
    K: Codec + Clone + Hash + Eq,
    V: Codec + Clone,
    W: Codec,
{
    fn encode(&self, out: &mut Vec<u8>) {
        (self.solution.len() as u64).encode(out);
        for set in &self.solution {
            solution_entries(set).encode(out);
        }
        self.workset.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let sets = Vec::<Vec<(K, V)>>::decode(input)?;
        let solution = sets.into_iter().map(|entries| entries.into_iter().collect()).collect();
        Ok(DeltaState { solution, workset: Partitions::decode(input)? })
    }
}

impl<K, V, W> Snapshot for DeltaState<K, V, W>
where
    K: Data + Codec + Hash + Eq,
    V: Data + Codec,
    W: Data + Codec,
{
    const KIND: &'static str = "delta";

    fn encode_partition(&self, pid: PartitionId, out: &mut Vec<u8>) {
        solution_entries(&self.solution[pid]).encode(out);
        encode_slice(self.workset.partition(pid), out);
    }

    fn from_chunks(chunks: &[Vec<u8>]) -> Result<Self> {
        let mut solution: SolutionSets<K, V> = Vec::with_capacity(chunks.len());
        let mut worksets = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let (entries, part) = decode_exact::<(Vec<(K, V)>, Vec<W>)>(chunk)?;
            solution.push(entries.into_iter().collect());
            worksets.push(part);
        }
        Ok(DeltaState { solution, workset: Partitions::from_parts(worksets) })
    }
}

/// How a fault handler recovered.
pub enum RecoveryAction<S> {
    /// Lost partitions were re-initialised in place (optimistic recovery);
    /// execution continues.
    Compensated,
    /// State restored from a checkpoint of the given logical iteration;
    /// execution resumes at `iteration + 1`.
    Restored {
        /// Logical iteration the restored snapshot belongs to.
        iteration: u32,
        /// The restored state.
        state: S,
    },
    /// Recompute everything: the engine resets to the initial input and
    /// logical iteration 0.
    Restart,
    /// Leave the lost partitions empty and continue (ablation only —
    /// produces incorrect results and exists to demonstrate why).
    Ignore,
}

/// The recovery contract, generic over the iteration state `S`: the drivers
/// call it with [`Partitions`] (bulk) or [`DeltaState`] (delta).
pub trait FaultHandler<S> {
    /// Called after every completed superstep with the fresh state. Return
    /// the cost of a checkpoint if one was taken.
    fn after_superstep(&mut self, iteration: u32, state: &S) -> Result<Option<CheckpointCost>> {
        let _ = (iteration, state);
        Ok(None)
    }

    /// Whether [`Self::after_superstep`] reads the state after `iteration`
    /// (a cut), asked before the superstep runs. Default: never.
    fn reads_state(&self, _iteration: u32) -> bool {
        false
    }

    /// Whether [`Self::on_failure`] may answer [`RecoveryAction::Restart`].
    /// Only then does the driver keep a copy of the initial state to restart
    /// from; a handler that declares `false` and restarts anyway fails the
    /// run. Default: it may.
    fn restarts(&self) -> bool {
        true
    }

    /// Called when partitions `lost` of `state` have been cleared by a
    /// failure. Repair `state` in place or return replacement state.
    fn on_failure(
        &mut self,
        iteration: u32,
        lost: &[PartitionId],
        state: &mut S,
    ) -> Result<RecoveryAction<S>>;
}

// A boxed failure source forwards, so callers can pick one at runtime and
// still use the `set_failure_source` builder methods.
impl FailureSource for Box<dyn FailureSource> {
    fn poll(&mut self, superstep: u32, parallelism: usize) -> Option<Vec<PartitionId>> {
        (**self).poll(superstep, parallelism)
    }
}

/// The engine's built-in baseline: restart from scratch on any failure.
/// This is what lineage-based recovery degenerates to for iterative jobs
/// whose every partition depends on all partitions of the previous iteration
/// (paper §2.2).
#[derive(Debug, Default, Clone, Copy)]
pub struct RestartHandler;

impl<S> FaultHandler<S> for RestartHandler {
    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut S,
    ) -> Result<RecoveryAction<S>> {
        Ok(RecoveryAction::Restart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_failures_never_fires() {
        let mut src = NoFailures;
        for s in 0..100 {
            assert!(src.poll(s, 4).is_none());
        }
    }

    #[test]
    fn deterministic_schedule_fires_once_per_superstep() {
        let mut src = DeterministicFailures::new().fail_at(3, &[1, 2]).fail_at(5, &[0]);
        assert_eq!(src.poll(0, 4), None);
        assert_eq!(src.poll(3, 4), Some(vec![1, 2]));
        // A second poll of the same superstep (should never happen, but) is
        // empty — events are consumed.
        assert_eq!(src.poll(3, 4), None);
        assert_eq!(src.poll(5, 4), Some(vec![0]));
    }

    #[test]
    fn out_of_range_partitions_are_dropped() {
        let mut src = DeterministicFailures::new().fail_at(0, &[0, 7, 2, 2]);
        assert_eq!(src.poll(0, 4), Some(vec![0, 2]));
    }

    #[test]
    fn mtbf_same_seed_replays_the_same_schedule() {
        let schedule = |seed: u64| -> Vec<(u32, Vec<PartitionId>)> {
            let mut src = MtbfFailures::new(3.0, seed).with_max_partitions(2);
            (0..200u32).filter_map(|s| src.poll(s, 4).map(|p| (s, p))).collect()
        };
        let a = schedule(7);
        assert_eq!(a, schedule(7), "same seed must replay the same failures");
        assert!(!a.is_empty(), "mean 3 over 200 supersteps should fire");
        assert_ne!(a, schedule(8), "different seeds should diverge");
    }

    #[test]
    fn mtbf_mean_gap_is_approximately_the_configured_mean() {
        let mut src = MtbfFailures::new(5.0, 42);
        let firings: Vec<u32> = (0..5000u32).filter(|&s| src.poll(s, 4).is_some()).collect();
        let mean_gap = 5000.0 / firings.len() as f64;
        assert!(
            (3.5..=6.5).contains(&mean_gap),
            "observed mean gap {mean_gap:.2} should be near the configured 5.0"
        );
    }

    #[test]
    fn mtbf_schedules_are_distinct_across_seeds() {
        let schedule = |seed: u64| -> Vec<(u32, Vec<PartitionId>)> {
            let mut src = MtbfFailures::new(4.0, seed).with_max_partitions(2);
            (0..300u32).filter_map(|s| src.poll(s, 8).map(|p| (s, p))).collect()
        };
        // Every pair of seeds in a small window must produce a different
        // schedule — a weak seeding scheme (e.g. truncating the seed) would
        // collapse neighbours onto the same stream.
        let schedules: Vec<_> = (0..16u64).map(schedule).collect();
        for i in 0..schedules.len() {
            for j in (i + 1)..schedules.len() {
                assert_ne!(
                    schedules[i], schedules[j],
                    "seeds {i} and {j} produced identical failure schedules"
                );
            }
        }
    }

    #[test]
    fn mtbf_inter_arrival_gaps_average_to_the_configured_mean() {
        // Measure the actual gaps between consecutive firings (not just the
        // firing count): with mean 6 over 30k supersteps the sample mean of
        // a geometric distribution lands within ~10% of the target.
        let mean = 6.0;
        let mut src = MtbfFailures::new(mean, 1234);
        let firings: Vec<u32> = (0..30_000u32).filter(|&s| src.poll(s, 4).is_some()).collect();
        assert!(firings.len() > 1_000, "expected thousands of firings, got {}", firings.len());
        let gaps: Vec<u64> =
            firings.windows(2).map(|w| u64::from(w[1]) - u64::from(w[0])).collect();
        let sample_mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.10,
            "observed inter-arrival mean {sample_mean:.3} strays over 10% from {mean}"
        );
        assert!(gaps.iter().all(|&g| g >= 1), "gaps are at least one superstep");
    }

    #[test]
    fn mtbf_respects_partition_bounds_and_min_superstep() {
        let mut src = MtbfFailures::new(2.0, 11).with_max_partitions(3).with_min_superstep(10);
        for s in 0..10u32 {
            assert_eq!(src.poll(s, 4), None, "no failures before min_superstep");
        }
        let mut fired = false;
        for s in 10..500u32 {
            if let Some(pids) = src.poll(s, 4) {
                fired = true;
                assert!(!pids.is_empty() && pids.len() <= 3);
                assert!(pids.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
                assert!(pids.iter().all(|&p| p < 4), "partitions in range");
            }
        }
        assert!(fired);
    }

    #[test]
    #[should_panic(expected = "at least 1 superstep")]
    fn mtbf_rejects_sub_superstep_mean() {
        let _ = MtbfFailures::new(0.5, 0);
    }

    #[test]
    fn restart_handler_always_restarts() {
        let mut h = RestartHandler;
        let mut state = Partitions::round_robin(vec![1u64, 2, 3], 2);
        assert!(matches!(h.on_failure(5, &[0], &mut state).unwrap(), RecoveryAction::Restart));
    }
}
