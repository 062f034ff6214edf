//! Compensation functions: user-defined state re-initialisers.
//!
//! A compensation function is invoked once per failure, after the engine has
//! dropped the lost partitions. It must bring the *whole* partitioned state
//! back to a configuration from which the fixpoint algorithm provably
//! converges (paper §2.2): typically it rebuilds the lost partitions from
//! the (re-computable) initial input, and may adjust surviving partitions to
//! restore a global invariant (e.g. "all ranks sum to one").

use dataflow::partition::{hash_partition, PartitionId};

/// A compensation function over the iteration state `S`: repair the
/// partitioned state in place.
///
/// `lost` lists the partitions that were cleared; all other partitions hold
/// their pre-failure content and may be read (and adjusted) to restore
/// global invariants. For a delta iteration (`S` is a
/// [`dataflow::ft::DeltaState`]) both the solution-set and the workset
/// partitions of the lost workers were cleared, and the compensation must
/// also seed the working set so that restored keys re-participate — while
/// respecting the hash partitioning: a key `k` belongs into
/// `solution[hash_partition(&k, solution.len())]`.
pub trait Compensation<S> {
    /// Restore a consistent state.
    fn compensate(&mut self, state: &mut S, lost: &[PartitionId], iteration: u32);

    /// Short human-readable name, used in plan rendering and reports
    /// (e.g. `"FixRanks"`).
    fn name(&self) -> &str {
        "compensation"
    }
}

impl<S, F> Compensation<S> for F
where
    F: FnMut(&mut S, &[PartitionId], u32),
{
    fn compensate(&mut self, state: &mut S, lost: &[PartitionId], iteration: u32) {
        self(state, lost, iteration)
    }
}

/// The dense keys `0..count` that were lost with the given partitions —
/// i.e. the keys whose hash routes them to a lost partition. Every
/// compensation function over dense-id state (vertices, matrix rows,
/// centroid ids) starts with exactly this scan; sharing it keeps the
/// partition-routing rule in one place.
pub fn lost_keys(
    count: u64,
    parallelism: usize,
    lost: &[PartitionId],
) -> impl Iterator<Item = (u64, PartitionId)> + '_ {
    let mut lost_mask = vec![false; parallelism];
    for &pid in lost {
        lost_mask[pid] = true;
    }
    (0..count).filter_map(move |key| {
        let pid = hash_partition(&key, parallelism);
        lost_mask[pid].then_some((key, pid))
    })
}

/// Wrap a compensation with an explicit display name.
pub struct Named<C> {
    inner: C,
    name: String,
}

impl<C> Named<C> {
    /// Attach `name` to `inner`.
    pub fn new(name: impl Into<String>, inner: C) -> Self {
        Named { inner, name: name.into() }
    }
}

impl<S, C: Compensation<S>> Compensation<S> for Named<C> {
    fn compensate(&mut self, state: &mut S, lost: &[PartitionId], iteration: u32) {
        self.inner.compensate(state, lost, iteration)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::dataset::Partitions;
    use dataflow::ft::DeltaState;

    #[test]
    fn closures_are_bulk_compensations() {
        let mut calls = 0u32;
        {
            let mut comp = |state: &mut Partitions<u64>, lost: &[PartitionId], _iter: u32| {
                for &pid in lost {
                    state.partition_mut(pid).push(42);
                }
                calls += 1;
            };
            let mut state = Partitions::round_robin(vec![1u64, 2, 3, 4], 2);
            state.clear_partition(1);
            comp.compensate(&mut state, &[1], 3);
            assert_eq!(state.partition(1), &[42]);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn named_wrapper_reports_its_name() {
        let comp =
            Named::new("FixRanks", |_s: &mut Partitions<f64>, _l: &[PartitionId], _i: u32| {});
        assert_eq!(Compensation::<Partitions<f64>>::name(&comp), "FixRanks");
    }

    #[test]
    fn closures_are_delta_compensations() {
        let mut comp =
            |state: &mut DeltaState<u64, u64, (u64, u64)>, lost: &[PartitionId], _iter: u32| {
                for &pid in lost {
                    state.solution[pid].insert(7, 7);
                    state.workset.partition_mut(pid).push((7, 7));
                }
            };
        let mut state = DeltaState {
            solution: vec![Default::default(), Default::default()],
            workset: Partitions::empty(2),
        };
        comp.compensate(&mut state, &[0], 1);
        assert_eq!(state.solution[0].get(&7), Some(&7));
        assert_eq!(state.workset.partition(0), &[(7, 7)]);
        assert!(state.solution[1].is_empty());
    }

    #[test]
    fn lost_keys_selects_exactly_the_lost_partitions() {
        let parallelism = 4;
        let lost = vec![1usize, 3];
        let selected: Vec<(u64, usize)> = lost_keys(100, parallelism, &lost).collect();
        assert!(!selected.is_empty());
        for &(key, pid) in &selected {
            assert_eq!(hash_partition(&key, parallelism), pid);
            assert!(lost.contains(&pid));
        }
        let missed: Vec<u64> =
            (0..100).filter(|k| lost.contains(&hash_partition(k, parallelism))).collect();
        assert_eq!(selected.len(), missed.len());
    }

    #[test]
    fn lost_keys_of_nothing_is_empty() {
        assert_eq!(lost_keys(50, 4, &[]).count(), 0);
        assert_eq!(lost_keys(0, 4, &[0, 1, 2, 3]).count(), 0);
    }
}
