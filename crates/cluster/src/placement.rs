//! Placement subsystem: the explicit, versioned partition → worker map and
//! the minimal-move rebalancer that rewrites it on scale events.
//!
//! Before this module existed the coordinator computed ownership as
//! `pid % workers` at six independent call sites (and the worker mirrored the
//! same formula on the data plane), which only works while the worker count
//! never changes and every site agrees on *which* worker count to use. The
//! [`PartitionMap`] is the single source of truth: every ownership lookup —
//! dispatch, result collection, snapshot staging, `LoadProgram` reships,
//! `WorkerLost` blame — routes
//! through it, and the map itself only changes via [`Rebalancer::rebalance`],
//! which bumps the map version so stale assignments are detectable.
//!
//! The initial assignment is deliberately `pid % workers`: a cluster that
//! never scales produces bit-identical placement (and therefore bit-identical
//! results) to the pre-placement coordinator.

/// Versioned partition → worker assignment.
///
/// `version` starts at 0 for the initial assignment and is bumped by every
/// [`Rebalancer::rebalance`]; the assignment travels to the workers inside
/// every [`Membership`](crate::protocol::Message::Membership) frame, under
/// that frame's epoch, so workers route outbound messages by the same truth
/// the coordinator dispatches by. The version itself stays at the
/// coordinator: every map change already bumps the epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Monotonic map version; bumped on every rebalance.
    version: u64,
    /// Current worker count (assignment targets are `0..workers`).
    workers: usize,
    /// `assignment[pid]` = owning worker index.
    assignment: Vec<usize>,
}

impl PartitionMap {
    /// The initial assignment: partition `pid` lives on worker
    /// `pid % workers`, exactly what the pre-placement coordinator computed
    /// inline. `workers` must be in `1..=parallelism`.
    pub fn initial(parallelism: usize, workers: usize) -> Self {
        assert!(workers >= 1, "a partition map needs at least one worker");
        assert!(workers <= parallelism, "more workers than partitions");
        Self {
            version: 0,
            workers,
            assignment: (0..parallelism).map(|pid| pid % workers).collect(),
        }
    }

    /// Owning worker of `pid`.
    pub fn worker_of(&self, pid: usize) -> usize {
        self.assignment[pid]
    }

    /// All partitions owned by `worker`, ascending.
    pub fn pids_of(&self, worker: usize) -> Vec<usize> {
        (0..self.assignment.len()).filter(|&pid| self.assignment[pid] == worker).collect()
    }

    /// Current worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total partition count (the cluster parallelism).
    pub fn parallelism(&self) -> usize {
        self.assignment.len()
    }

    /// Monotonic map version (0 = initial assignment).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The raw `pid → worker` table, for shipping over the wire.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Per-worker quota under a balanced assignment: sizes differ by at most
    /// one, with the larger shares on the lower worker indices.
    fn quota(parallelism: usize, workers: usize, worker: usize) -> usize {
        parallelism / workers + usize::from(worker < parallelism % workers)
    }
}

/// One partition move computed by the [`Rebalancer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The partition that moved.
    pub pid: usize,
    /// Its previous owner.
    pub from: usize,
    /// Its new owner.
    pub to: usize,
}

/// A rebalance outcome: the new map plus the minimal move list that turns
/// the old assignment into it.
#[derive(Debug, Clone)]
pub struct Rebalance {
    /// The rewritten map (version bumped).
    pub map: PartitionMap,
    /// Every partition whose owner changed, ascending by pid.
    pub moved: Vec<Move>,
}

/// Computes minimal-move assignments on scale events.
///
/// The algorithm is deterministic and moves only what it must: each
/// surviving worker keeps its lowest-numbered partitions up to its balanced
/// quota; everything else (surplus above quota, plus all partitions on
/// removed workers) becomes homeless and is dealt out in ascending pid
/// order, preferring each pid's home slot `pid % workers` when it is below
/// quota and falling back to the lowest under-quota worker. Scaling up and
/// back down with this scheme returns the exact initial `pid % workers`
/// map, which is what makes the elastic-vs-static bitwise equivalence test
/// possible.
pub struct Rebalancer;

impl Rebalancer {
    /// Rewrite `map` for `target_workers`, moving as few partitions as
    /// possible. `target_workers` must be in `1..=parallelism`. A no-op
    /// target (same worker count) still returns a valid result with an
    /// empty move list and an *unbumped* version.
    pub fn rebalance(map: &PartitionMap, target_workers: usize) -> Rebalance {
        let parallelism = map.parallelism();
        assert!(target_workers >= 1, "cannot scale to zero workers");
        assert!(target_workers <= parallelism, "more workers than partitions");
        if target_workers == map.workers {
            return Rebalance { map: map.clone(), moved: Vec::new() };
        }
        let mut assignment = map.assignment.clone();
        let mut kept = vec![0usize; target_workers];
        let mut homeless = Vec::new();
        // Pass 1: survivors keep their lowest pids up to quota; surplus and
        // every partition on a removed worker go homeless.
        for (pid, &owner) in assignment.iter().enumerate() {
            if owner < target_workers
                && kept[owner] < PartitionMap::quota(parallelism, target_workers, owner)
            {
                kept[owner] += 1;
            } else {
                homeless.push(pid);
            }
        }
        // Pass 2: deal homeless pids (ascending) to under-quota workers,
        // preferring each pid's home slot `pid % target` when it has room —
        // destination choice is free among under-quota workers, and the home
        // preference is what makes up-then-down a true round trip.
        let mut moved = Vec::new();
        for pid in homeless {
            let under_quota = |worker: usize| {
                kept[worker] < PartitionMap::quota(parallelism, target_workers, worker)
            };
            // The quotas sum to the partition count, so while a pid is
            // homeless some worker is under quota and the search finds it.
            let home = pid % target_workers;
            let worker = [home]
                .into_iter()
                .chain(0..target_workers)
                .find(|&w| under_quota(w))
                .unwrap_or(home);
            kept[worker] += 1;
            moved.push(Move { pid, from: assignment[pid], to: worker });
            assignment[pid] = worker;
        }
        let map = PartitionMap { version: map.version + 1, workers: target_workers, assignment };
        Rebalance { map, moved }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_matches_modulo_assignment() {
        let map = PartitionMap::initial(8, 3);
        for pid in 0..8 {
            assert_eq!(map.worker_of(pid), pid % 3);
        }
        assert_eq!(map.version(), 0);
        assert_eq!(map.workers(), 3);
        assert_eq!(map.pids_of(0), vec![0, 3, 6]);
        assert_eq!(map.pids_of(2), vec![2, 5]);
    }

    #[test]
    fn scale_up_moves_only_surplus_partitions() {
        let map = PartitionMap::initial(4, 2);
        let out = Rebalancer::rebalance(&map, 4);
        assert_eq!(out.map.assignment(), &[0, 1, 2, 3]);
        assert_eq!(out.map.version(), 1);
        assert_eq!(
            out.moved,
            vec![Move { pid: 2, from: 0, to: 2 }, Move { pid: 3, from: 1, to: 3 }]
        );
    }

    #[test]
    fn scale_down_rehomes_only_removed_workers_partitions() {
        let map = PartitionMap::initial(4, 4);
        let out = Rebalancer::rebalance(&map, 2);
        assert_eq!(out.map.assignment(), &[0, 1, 0, 1]);
        assert_eq!(
            out.moved,
            vec![Move { pid: 2, from: 2, to: 0 }, Move { pid: 3, from: 3, to: 1 }]
        );
    }

    #[test]
    fn up_then_down_round_trips_to_the_initial_map() {
        let map = PartitionMap::initial(16, 2);
        let up = Rebalancer::rebalance(&map, 5);
        let down = Rebalancer::rebalance(&up.map, 2);
        assert_eq!(down.map.assignment(), PartitionMap::initial(16, 2).assignment());
        assert_eq!(down.map.version(), 2);
    }

    #[test]
    fn rebalance_is_minimal_and_balanced() {
        for parallelism in 1..=12 {
            for from in 1..=parallelism {
                for to in 1..=parallelism {
                    let map = PartitionMap::initial(parallelism, from);
                    let out = Rebalancer::rebalance(&map, to);
                    // Balanced: counts differ by at most one.
                    let counts: Vec<usize> = (0..to).map(|w| out.map.pids_of(w).len()).collect();
                    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
                    assert!(max - min <= 1, "unbalanced {counts:?}");
                    // Minimal: a partition already on an under-quota
                    // survivor never moves.
                    for m in &out.moved {
                        assert_ne!(m.from, m.to);
                        assert_eq!(out.map.worker_of(m.pid), m.to);
                    }
                    // Every pid is assigned to a live worker.
                    for pid in 0..parallelism {
                        assert!(out.map.worker_of(pid) < to);
                    }
                }
            }
        }
    }

    #[test]
    fn noop_rebalance_keeps_the_version() {
        let map = PartitionMap::initial(6, 3);
        let out = Rebalancer::rebalance(&map, 3);
        assert_eq!(out.map.version(), 0);
        assert!(out.moved.is_empty());
        assert_eq!(out.map.assignment(), map.assignment());
    }
}
