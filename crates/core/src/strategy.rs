//! Experiment-facing recovery-strategy descriptors.
//!
//! Handlers are typed against the algorithm's record types and carry the
//! algorithm's compensation function; experiments instead describe *which*
//! strategy to run as plain data, and each algorithm translates the
//! description into concrete handlers (see `algos::*::run`).

/// Which fault-tolerance strategy an experiment run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Optimistic recovery (the paper's mechanism): no checkpoints; on
    /// failure the algorithm's compensation function restores a consistent
    /// state. Optimal failure-free performance.
    Optimistic,
    /// Rollback recovery: checkpoint the iteration state every `interval`
    /// iterations, restore the latest snapshot on failure.
    Checkpoint {
        /// Iterations between snapshots.
        interval: u32,
    },
    /// Incremental rollback recovery (delta iterations only): a full
    /// snapshot every `full_interval` iterations, solution-set diffs in
    /// between, replayed on failure.
    IncrementalCheckpoint {
        /// Iterations between full snapshots.
        full_interval: u32,
    },
    /// Asynchronous barrier snapshots (Chandy–Lamport style, the mechanism
    /// behind Flink's checkpoints): a barrier every `interval` iterations
    /// captures a consistent cut without a global pause — the stable-storage
    /// writes are spread over the following supersteps while computation
    /// keeps running. Recovery restores the last *complete* snapshot.
    AsyncSnapshot {
        /// Iterations between barrier injections.
        interval: u32,
    },
    /// Restart from scratch on failure — what lineage-based recovery
    /// degenerates to for iterative jobs (paper §2.2). Zero failure-free
    /// overhead, maximal recovery cost.
    Restart,
    /// Ablation: leave lost partitions empty. Converges to *wrong* results;
    /// included to demonstrate why compensation functions are needed.
    Ignore,
}

impl Strategy {
    /// Stable label for reports and CSV columns.
    pub fn label(&self) -> String {
        match self {
            Strategy::Optimistic => "optimistic".to_string(),
            Strategy::Checkpoint { interval } => format!("checkpoint({interval})"),
            Strategy::IncrementalCheckpoint { full_interval } => {
                format!("incremental({full_interval})")
            }
            Strategy::AsyncSnapshot { interval } => format!("async-snapshot({interval})"),
            Strategy::Restart => "restart".to_string(),
            Strategy::Ignore => "ignore".to_string(),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Strategy::Optimistic.label(), "optimistic");
        assert_eq!(Strategy::Checkpoint { interval: 3 }.label(), "checkpoint(3)");
        assert_eq!(Strategy::Restart.label(), "restart");
        assert_eq!(Strategy::IncrementalCheckpoint { full_interval: 4 }.label(), "incremental(4)");
        assert_eq!(Strategy::AsyncSnapshot { interval: 2 }.label(), "async-snapshot(2)");
        assert_eq!(Strategy::Ignore.to_string(), "ignore");
    }
}
