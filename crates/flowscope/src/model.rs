//! A structured view of a journal: one row per superstep, with failures,
//! recovery actions, checkpoints, and convergence samples attached to the
//! superstep they happened in.
//!
//! The journal is flat and chronological; the analyses (timeline, profile,
//! convergence) all want "what happened during superstep N". This module
//! does that fold once. Attribution rule: events between
//! `SuperstepCompleted(N)` and `SuperstepCompleted(N+1)` belong to row N —
//! failures strike after a superstep's body finishes, and recovery runs
//! before the next superstep starts, so this matches the engine's actual
//! sequencing. The kinds journaled *before* the superstep they belong to
//! (chaos injections, rescales, worker spans) attach forward instead; the
//! per-kind table is `placement`. Rows hold the journal's own events, not
//! copies of their fields.

use telemetry::{IterationMode, JournalEvent};

use crate::timeline::format_ns;

/// A recovery action taken after a failure, in journal terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Optimistic recovery: a compensation function repaired the state.
    Compensation {
        /// `Compensation::name()` if the strategy layer recorded it.
        name: Option<String>,
    },
    /// Pessimistic recovery: rolled back to a checkpointed iteration.
    Rollback {
        /// Iteration the run resumed from.
        to_iteration: u32,
    },
    /// The run restarted from scratch.
    Restart,
    /// The failure was deliberately ignored (ablation runs).
    Ignored,
}

impl RecoveryAction {
    /// Short label for timeline annotations.
    pub fn label(&self) -> String {
        match self {
            RecoveryAction::Compensation { name: Some(name) } => format!("compensate[{name}]"),
            RecoveryAction::Compensation { name: None } => "compensate".to_string(),
            RecoveryAction::Rollback { to_iteration } => format!("rollback->it{to_iteration}"),
            RecoveryAction::Restart => "restart".to_string(),
            RecoveryAction::Ignored => "ignored".to_string(),
        }
    }
}

/// Annotation text for the journal events a timeline row displays; `None`
/// for kinds that are folded into the row itself or not shown.
pub fn label(event: &JournalEvent) -> Option<String> {
    use JournalEvent as E;
    Some(match event {
        E::FailureInjected { lost_partitions, lost_records, .. } => {
            format!("FAIL p{lost_partitions:?} (-{lost_records} records)")
        }
        E::WorkerLost { worker, lost_partitions, .. } => {
            format!("worker {worker} LOST p{lost_partitions:?}")
        }
        E::WorkerRejoined { worker, reconnect_attempts, .. } => {
            format!("worker {worker} rejoined ({reconnect_attempts} attempts)")
        }
        E::WorkerJoined { worker, .. } => format!("worker {worker} joined (scale-up)"),
        E::RebalanceStarted { from_workers, to_workers, .. } => {
            format!("rescale {from_workers}->{to_workers} workers")
        }
        E::RebalanceCompleted { moved_partitions, reshipped_bytes, .. } => {
            format!("rebalanced: {moved_partitions} moved, {reshipped_bytes}B reshipped")
        }
        E::MutationBatch { epoch, inserts, deletes, seeded } => {
            format!("epoch {epoch}: +{inserts}/-{deletes} edges, {seeded} seeded")
        }
        E::Reconverge { epoch, supersteps, converged } => {
            let status = if *converged { "converged" } else { "capped" };
            format!("epoch {epoch} reconverged in {supersteps} supersteps ({status})")
        }
        E::Query { epoch, kind, results } => format!("epoch {epoch} query[{kind}] -> {results}"),
        E::SnapshotBarrierStarted { epoch, partitions } => {
            format!("barrier e{epoch} started ({partitions} chunks)")
        }
        E::SnapshotBarrierCompleted { epoch, bytes, .. } => {
            format!("barrier e{epoch} complete ({bytes}B)")
        }
        E::ChaosInjected { worker, kind, param, .. } if *param > 0 => {
            format!("chaos {kind} w{worker} +{param}ms")
        }
        E::ChaosInjected { worker, kind, .. } => format!("chaos {kind} w{worker}"),
        E::RecoveryCost { worker, detection, detect_ns, respawn_ns, reshipped_bytes, .. } => {
            format!(
                "bill[w{worker} {detection}: detect {} respawn {} reship {reshipped_bytes}B]",
                format_ns(*detect_ns),
                format_ns(*respawn_ns),
            )
        }
        _ => return None,
    })
}

/// Everything the journal says about one chronological superstep. Apart
/// from the row's own coordinates the journal's events are kept as they
/// are, grouped into the lists below by the per-kind `placement` rule.
#[derive(Debug, Clone, Default)]
pub struct SuperstepRow {
    /// Chronological superstep index.
    pub superstep: u32,
    /// Logical iteration (repeats after rollback/restart).
    pub iteration: u32,
    /// Records that crossed partitions during the step.
    pub records_shuffled: u64,
    /// Working-set size entering the next iteration (delta only).
    pub workset_size: Option<u64>,
    /// Convergence sample for the step, when the run recorded one.
    pub sample: Option<ConvergencePoint>,
    /// The `FailureInjected` event after this superstep, if any (the last
    /// one when a failure struck again before the next superstep completed).
    pub failure: Option<JournalEvent>,
    /// Recovery actions that ran before the next superstep.
    pub recovery: Vec<RecoveryAction>,
    /// `WorkerLost` / `WorkerRejoined` before the next superstep completed,
    /// and the `WorkerJoined` of a scale-up that preceded this superstep's
    /// dispatch (cluster runs only).
    pub worker_events: Vec<JournalEvent>,
    /// `WorkerSpan`s for this superstep, in merge order (cluster runs only).
    pub worker_spans: Vec<JournalEvent>,
    /// `RecoveryCost` bills charged to this superstep's failures (cluster
    /// runs only).
    pub recovery_costs: Vec<JournalEvent>,
    /// `RebalanceStarted` / `RebalanceCompleted` fired at the barrier before
    /// this superstep's dispatch (elastic cluster runs only).
    pub rebalances: Vec<JournalEvent>,
    /// `MutationBatch` / `Reconverge` / `Query` after this superstep (serve
    /// runs only).
    pub serve_events: Vec<JournalEvent>,
    /// `SnapshotBarrierStarted` / `SnapshotBarrierCompleted` after this
    /// superstep (async-snapshot runs only).
    pub snapshots: Vec<JournalEvent>,
    /// `ChaosInjected` during this superstep (chaos-plane runs only).
    pub chaos: Vec<JournalEvent>,
    /// Bytes checkpointed after this superstep (0 = no checkpoint).
    pub checkpoint_bytes: Option<u64>,
}

/// Which row an event belongs to.
enum Attach {
    /// The last completed row: failures strike after a superstep's body
    /// finishes and recovery runs before the next one starts.
    Last,
    /// The next row to complete: chaos injections fire while their
    /// superstep is still open, and rescales (with the joins they cause)
    /// fire at the barrier before a superstep's dispatch.
    Next,
    /// The row of the named superstep: worker spans are journaled before
    /// the `SuperstepCompleted` they describe, and those of a superstep that
    /// never completes (a mid-step failure) are dropped.
    Named(u32),
}

/// One of a row's event lists.
type ListOf = fn(&mut SuperstepRow) -> &mut Vec<JournalEvent>;

/// The attribution rule, per event kind: which row, and which of its lists.
/// `None` for kinds the fold handles itself or ignores.
fn placement(event: &JournalEvent) -> Option<(Attach, ListOf)> {
    use JournalEvent as E;
    Some(match event {
        E::WorkerLost { .. } | E::WorkerRejoined { .. } => (Attach::Last, |r| &mut r.worker_events),
        E::WorkerJoined { .. } => (Attach::Next, |r| &mut r.worker_events),
        E::WorkerSpan { superstep, .. } => (Attach::Named(*superstep), |r| &mut r.worker_spans),
        E::RecoveryCost { .. } => (Attach::Last, |r| &mut r.recovery_costs),
        E::RebalanceStarted { .. } | E::RebalanceCompleted { .. } => {
            (Attach::Next, |r| &mut r.rebalances)
        }
        E::MutationBatch { .. } | E::Reconverge { .. } | E::Query { .. } => {
            (Attach::Last, |r| &mut r.serve_events)
        }
        E::SnapshotBarrierStarted { .. } | E::SnapshotBarrierCompleted { .. } => {
            (Attach::Last, |r| &mut r.snapshots)
        }
        E::ChaosInjected { .. } => (Attach::Next, |r| &mut r.chaos),
        _ => return None,
    })
}

/// The convergence measurements of one superstep.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Elements changed across all partitions.
    pub changed: u64,
    /// Elements changed per partition.
    pub changed_per_partition: Vec<u64>,
    /// Algorithm-specific delta norm, when a probe was registered.
    pub delta_norm: Option<f64>,
    /// Working-set size per partition (delta runs only).
    pub workset_per_partition: Option<Vec<u64>>,
}

/// A whole run folded into per-superstep rows.
#[derive(Debug, Clone, Default)]
pub struct RunModel {
    /// Bulk or delta, from `RunStarted`.
    pub mode: Option<IterationMode>,
    /// Worker partitions, from `RunStarted`.
    pub parallelism: usize,
    /// One row per chronological superstep, in order.
    pub rows: Vec<SuperstepRow>,
    /// Whether the run converged (from `RunCompleted`; `false` if the
    /// journal is truncated).
    pub converged: bool,
    /// Highest logical iteration reached plus one.
    pub logical_iterations: u32,
    /// Highest serving epoch seen (0 for plain batch journals). A serve
    /// journal concatenates one `RunStarted`..`RunCompleted` sequence per
    /// epoch; rows keep journal order, with epoch boundaries marked by
    /// `MutationBatch` events on the preceding row.
    pub epochs: u32,
}

impl SuperstepRow {
    /// Fold in an event that changes what the row *is* rather than adding
    /// to one of its lists.
    fn absorb(&mut self, event: &JournalEvent) {
        use JournalEvent as E;
        match event {
            E::ConvergenceSample {
                changed,
                changed_per_partition,
                delta_norm,
                workset_per_partition,
                ..
            } => {
                self.sample = Some(ConvergencePoint {
                    changed: *changed,
                    changed_per_partition: changed_per_partition.clone(),
                    delta_norm: delta_norm.map(|n| n.0),
                    workset_per_partition: workset_per_partition.clone(),
                });
            }
            E::CheckpointWritten { bytes, .. } => self.checkpoint_bytes = Some(*bytes),
            E::FailureInjected { .. } => self.failure = Some(event.clone()),
            E::CompensationInvoked { name, .. } => {
                // Upgrade the engine's anonymous CompensationApplied
                // (if already attached) with the strategy's name.
                match self.recovery.last_mut() {
                    Some(RecoveryAction::Compensation { name: slot @ None }) => {
                        *slot = Some(name.clone());
                    }
                    _ => self
                        .recovery
                        .push(RecoveryAction::Compensation { name: Some(name.clone()) }),
                }
            }
            // The strategy layer may have already recorded the named
            // invocation; don't double-count.
            E::CompensationApplied { .. }
                if !matches!(self.recovery.last(), Some(RecoveryAction::Compensation { .. })) =>
            {
                self.recovery.push(RecoveryAction::Compensation { name: None });
            }
            E::RolledBack { to_iteration } => {
                self.recovery.push(RecoveryAction::Rollback { to_iteration: *to_iteration });
            }
            E::Restarted => self.recovery.push(RecoveryAction::Restart),
            E::FailureIgnored { .. } => self.recovery.push(RecoveryAction::Ignored),
            // CheckpointRestored / DiffChainReplayed are mechanics of a
            // rollback already represented by RolledBack.
            _ => {}
        }
    }
}

impl RunModel {
    /// Fold a journal into per-superstep rows.
    pub fn from_events(events: &[JournalEvent]) -> RunModel {
        use JournalEvent as E;
        let mut model = RunModel::default();
        // Events waiting for a row that has not completed yet.
        let mut pending: Vec<(Attach, ListOf, &JournalEvent)> = Vec::new();
        // A failure in the very first superstep has no completed row behind
        // it: what it journals waits for the first row that does complete.
        let mut before_first_row: Vec<&JournalEvent> = Vec::new();
        for event in events {
            if let E::MutationBatch { epoch, .. } | E::Reconverge { epoch, .. } = event {
                model.epochs = model.epochs.max(*epoch);
            }
            match event {
                E::RunStarted { mode, parallelism, .. } => {
                    model.mode = Some(*mode);
                    model.parallelism = *parallelism;
                }
                E::RunCompleted { iterations, converged, .. } => {
                    model.converged = *converged;
                    model.logical_iterations = *iterations;
                }
                E::SuperstepCompleted { superstep, iteration, records_shuffled, workset_size } => {
                    let mut row = SuperstepRow {
                        superstep: *superstep,
                        iteration: *iteration,
                        records_shuffled: *records_shuffled,
                        workset_size: *workset_size,
                        ..Default::default()
                    };
                    for (attach, list, waiting) in pending.drain(..) {
                        if !matches!(attach, Attach::Named(named) if named != *superstep) {
                            list(&mut row).push(waiting.clone());
                        }
                    }
                    before_first_row.drain(..).for_each(|waiting| row.absorb(waiting));
                    model.rows.push(row);
                }
                _ => match placement(event) {
                    Some((Attach::Last, list)) => match model.rows.last_mut() {
                        Some(row) => list(row).push(event.clone()),
                        None => pending.push((Attach::Next, list, event)),
                    },
                    Some((attach, list)) => pending.push((attach, list, event)),
                    None => match model.rows.last_mut() {
                        Some(row) => row.absorb(event),
                        None => before_first_row.push(event),
                    },
                },
            }
        }
        model
    }

    /// Supersteps that carry a failure mark.
    pub fn failure_supersteps(&self) -> Vec<u32> {
        self.rows.iter().filter(|r| r.failure.is_some()).map(|r| r.superstep).collect()
    }

    /// Supersteps after which a compensation ran.
    pub fn compensation_supersteps(&self) -> Vec<u32> {
        self.rows
            .iter()
            .filter(|r| r.recovery.iter().any(|a| matches!(a, RecoveryAction::Compensation { .. })))
            .map(|r| r.superstep)
            .collect()
    }

    /// Supersteps after which a rollback or restart ran.
    pub fn rollback_supersteps(&self) -> Vec<u32> {
        self.rows
            .iter()
            .filter(|r| {
                r.recovery
                    .iter()
                    .any(|a| matches!(a, RecoveryAction::Rollback { .. } | RecoveryAction::Restart))
            })
            .map(|r| r.superstep)
            .collect()
    }

    /// Supersteps after which an async-snapshot epoch completed.
    pub fn snapshot_supersteps(&self) -> Vec<u32> {
        self.rows
            .iter()
            .filter(|r| {
                r.snapshots
                    .iter()
                    .any(|s| matches!(s, JournalEvent::SnapshotBarrierCompleted { .. }))
            })
            .map(|r| r.superstep)
            .collect()
    }

    /// Total chaos injections the run absorbed.
    pub fn chaos_injections(&self) -> usize {
        self.rows.iter().map(|r| r.chaos.len()).sum()
    }

    /// Supersteps whose dispatch a completed rescale preceded.
    pub fn rebalance_supersteps(&self) -> Vec<u32> {
        self.rows
            .iter()
            .filter(|r| {
                r.rebalances.iter().any(|m| matches!(m, JournalEvent::RebalanceCompleted { .. }))
            })
            .map(|r| r.superstep)
            .collect()
    }

    /// Distinct worker ids that reported spans, ascending (cluster runs
    /// only — empty for single-process journals).
    pub fn span_workers(&self) -> Vec<usize> {
        let mut workers: Vec<usize> = self
            .rows
            .iter()
            .flat_map(|r| &r.worker_spans)
            .filter_map(|span| match span {
                JournalEvent::WorkerSpan { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    /// Redundant supersteps: executed minus logical progress. Nonzero only
    /// for rollback/restart runs, which re-execute work — the paper's
    /// recovery-overhead measure.
    pub fn redundant_supersteps(&self) -> u32 {
        (self.rows.len() as u32).saturating_sub(self.logical_iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Norm;

    fn labels(events: &[JournalEvent]) -> Vec<String> {
        events.iter().map(|e| label(e).expect("an annotated kind")).collect()
    }

    fn step(superstep: u32, iteration: u32) -> JournalEvent {
        JournalEvent::SuperstepCompleted {
            superstep,
            iteration,
            records_shuffled: 10,
            workset_size: None,
        }
    }

    #[test]
    fn recovery_events_attach_to_the_failed_superstep() {
        let events = vec![
            JournalEvent::RunStarted {
                mode: IterationMode::Bulk,
                parallelism: 4,
                max_iterations: 10,
            },
            step(0, 0),
            step(1, 1),
            JournalEvent::FailureInjected {
                superstep: 1,
                iteration: 1,
                lost_partitions: vec![2],
                lost_records: 7,
            },
            JournalEvent::CompensationInvoked { name: "Fix".into(), iteration: 1 },
            JournalEvent::CompensationApplied { iteration: 1 },
            step(2, 2),
            JournalEvent::RunCompleted { supersteps: 3, iterations: 3, converged: true },
        ];
        let model = RunModel::from_events(&events);
        assert_eq!(model.rows.len(), 3);
        assert_eq!(model.parallelism, 4);
        assert!(model.converged);
        let failed = &model.rows[1];
        assert!(matches!(
            failed.failure,
            Some(JournalEvent::FailureInjected { lost_records: 7, .. })
        ));
        assert_eq!(
            failed.recovery,
            vec![RecoveryAction::Compensation { name: Some("Fix".into()) }]
        );
        assert!(model.rows[0].failure.is_none());
        assert_eq!(model.failure_supersteps(), vec![1]);
        assert_eq!(model.compensation_supersteps(), vec![1]);
        assert_eq!(model.redundant_supersteps(), 0);
    }

    #[test]
    fn rollback_runs_count_redundant_supersteps() {
        let events = vec![
            step(0, 0),
            step(1, 1),
            JournalEvent::FailureInjected {
                superstep: 1,
                iteration: 1,
                lost_partitions: vec![0],
                lost_records: 3,
            },
            JournalEvent::RolledBack { to_iteration: 0 },
            step(2, 1),
            step(3, 2),
            JournalEvent::RunCompleted { supersteps: 4, iterations: 3, converged: true },
        ];
        let model = RunModel::from_events(&events);
        assert_eq!(model.rollback_supersteps(), vec![1]);
        assert_eq!(model.redundant_supersteps(), 1);
    }

    #[test]
    fn worker_events_attach_to_the_interrupted_superstep() {
        let lost = JournalEvent::WorkerLost {
            superstep: 1,
            iteration: 1,
            worker: 1,
            lost_partitions: vec![1, 3],
        };
        let rejoined =
            JournalEvent::WorkerRejoined { superstep: 2, worker: 1, reconnect_attempts: 3 };
        let events = vec![
            step(0, 0),
            lost.clone(),
            JournalEvent::FailureInjected {
                superstep: 1,
                iteration: 1,
                lost_partitions: vec![1, 3],
                lost_records: 6,
            },
            JournalEvent::CompensationApplied { iteration: 1 },
            rejoined.clone(),
            step(1, 1),
            JournalEvent::RunCompleted { supersteps: 2, iterations: 2, converged: true },
        ];
        let model = RunModel::from_events(&events);
        assert_eq!(model.rows[0].worker_events, vec![lost, rejoined]);
        assert!(model.rows[1].worker_events.is_empty());
        assert_eq!(labels(&model.rows[0].worker_events)[0], "worker 1 LOST p[1, 3]");
        assert_eq!(labels(&model.rows[0].worker_events)[1], "worker 1 rejoined (3 attempts)");
        assert_eq!(
            label(model.rows[0].failure.as_ref().unwrap()).unwrap(),
            "FAIL p[1, 3] (-6 records)"
        );
    }

    #[test]
    fn a_loss_in_the_very_first_superstep_is_carried_by_the_first_row_to_complete() {
        // Superstep 0 never completes, so there is no row behind its failure
        // to attach to; dropping it would report a run with a kill at
        // superstep 0 as failure-free.
        let lost = JournalEvent::WorkerLost {
            superstep: 0,
            iteration: 0,
            worker: 1,
            lost_partitions: vec![1, 3],
        };
        let rejoined =
            JournalEvent::WorkerRejoined { superstep: 1, worker: 1, reconnect_attempts: 1 };
        let cost = JournalEvent::RecoveryCost {
            superstep: 1,
            worker: 1,
            detection: "read_error".into(),
            detect_ns: 5,
            respawn_ns: 7,
            reshipped_bytes: 340,
        };
        let events = vec![
            lost.clone(),
            JournalEvent::FailureInjected {
                superstep: 0,
                iteration: 0,
                lost_partitions: vec![1, 3],
                lost_records: 8,
            },
            JournalEvent::Restarted,
            rejoined.clone(),
            cost.clone(),
            step(1, 0),
            step(2, 1),
        ];
        let model = RunModel::from_events(&events);
        assert_eq!(model.failure_supersteps(), vec![1]);
        assert_eq!(model.rows[0].worker_events, vec![lost, rejoined]);
        assert_eq!(model.rows[0].recovery_costs, vec![cost]);
        assert_eq!(model.rows[0].recovery, vec![RecoveryAction::Restart]);
        assert!(model.rows[1].failure.is_none() && model.rows[1].worker_events.is_empty());
    }

    #[test]
    fn rebalance_marks_attach_to_the_first_post_scale_row() {
        let started =
            JournalEvent::RebalanceStarted { superstep: 1, from_workers: 2, to_workers: 4 };
        let joined = |worker| JournalEvent::WorkerJoined { superstep: 1, worker };
        let completed = JournalEvent::RebalanceCompleted {
            superstep: 1,
            moved_partitions: 2,
            reshipped_bytes: 512,
        };
        let events = vec![
            step(0, 0),
            started.clone(),
            joined(2),
            joined(3),
            completed.clone(),
            step(1, 1),
            JournalEvent::RunCompleted { supersteps: 2, iterations: 2, converged: true },
        ];
        let model = RunModel::from_events(&events);
        assert!(model.rows[0].rebalances.is_empty());
        assert_eq!(model.rows[1].rebalances, vec![started, completed]);
        assert_eq!(model.rows[1].worker_events, vec![joined(2), joined(3)]);
        assert_eq!(
            labels(&model.rows[1].rebalances),
            ["rescale 2->4 workers", "rebalanced: 2 moved, 512B reshipped"]
        );
        assert_eq!(labels(&model.rows[1].worker_events)[0], "worker 2 joined (scale-up)");
        assert_eq!(model.rebalance_supersteps(), vec![1]);
    }

    #[test]
    fn serve_epoch_events_attach_in_journal_order() {
        let events = vec![
            JournalEvent::RunStarted {
                mode: IterationMode::Delta,
                parallelism: 2,
                max_iterations: 50,
            },
            step(0, 0),
            JournalEvent::RunCompleted { supersteps: 1, iterations: 1, converged: true },
            JournalEvent::Query { epoch: 0, kind: "point".into(), results: 1 },
            JournalEvent::MutationBatch { epoch: 1, inserts: 2, deletes: 0, seeded: 4 },
            JournalEvent::RunStarted {
                mode: IterationMode::Delta,
                parallelism: 2,
                max_iterations: 50,
            },
            step(0, 0),
            JournalEvent::RunCompleted { supersteps: 1, iterations: 1, converged: true },
            JournalEvent::Reconverge { epoch: 1, supersteps: 1, converged: true },
        ];
        let model = RunModel::from_events(&events);
        assert_eq!(model.epochs, 1);
        assert_eq!(model.rows.len(), 2);
        assert_eq!(
            model.rows[0].serve_events,
            vec![
                JournalEvent::Query { epoch: 0, kind: "point".into(), results: 1 },
                JournalEvent::MutationBatch { epoch: 1, inserts: 2, deletes: 0, seeded: 4 },
            ]
        );
        assert_eq!(
            model.rows[1].serve_events,
            vec![JournalEvent::Reconverge { epoch: 1, supersteps: 1, converged: true }]
        );
        assert_eq!(
            labels(&model.rows[0].serve_events),
            ["epoch 0 query[point] -> 1", "epoch 1: +2/-0 edges, 4 seeded"]
        );
        assert_eq!(
            labels(&model.rows[1].serve_events),
            ["epoch 1 reconverged in 1 supersteps (converged)"]
        );
    }

    fn span(superstep: u32, worker: usize, seq: u64, label: &str) -> JournalEvent {
        JournalEvent::WorkerSpan {
            superstep,
            worker,
            seq,
            pid: worker,
            span: label.into(),
            records: 4,
            duration_ns: 1000,
        }
    }

    #[test]
    fn worker_spans_attach_to_the_superstep_they_describe() {
        // Spans precede their SuperstepCompleted in the journal; spans of a
        // superstep that never completes are dropped.
        let events = vec![
            span(0, 0, 0, "compute"),
            span(0, 1, 0, "compute"),
            step(0, 0),
            span(1, 0, 0, "compute"),
            span(1, 0, 1, "shuffle"),
            step(1, 1),
            span(9, 1, 0, "compute"), // truncated journal: superstep 9 never completed
            JournalEvent::RecoveryCost {
                superstep: 2,
                worker: 1,
                detection: "heartbeat".into(),
                detect_ns: 500,
                respawn_ns: 2000,
                reshipped_bytes: 64,
            },
            step(2, 2),
        ];
        let model = RunModel::from_events(&events);
        assert_eq!(
            model.rows[0].worker_spans,
            vec![span(0, 0, 0, "compute"), span(0, 1, 0, "compute")]
        );
        assert_eq!(
            model.rows[1].worker_spans,
            vec![span(1, 0, 0, "compute"), span(1, 0, 1, "shuffle")]
        );
        // The superstep-9 span belongs to no completed row: dropped.
        assert!(model.rows[2].worker_spans.is_empty());
        assert_eq!(
            labels(&model.rows[1].recovery_costs),
            ["bill[w1 heartbeat: detect 500ns respawn 2.0us reship 64B]"]
        );
        assert_eq!(model.span_workers(), vec![0, 1]);
    }

    #[test]
    fn snapshot_and_chaos_marks_attach_to_the_right_rows() {
        let straggler = JournalEvent::ChaosInjected {
            superstep: 0,
            worker: 1,
            kind: "straggler".into(),
            param: 50,
        };
        let barrier = JournalEvent::SnapshotBarrierStarted { epoch: 0, partitions: 2 };
        let persisted =
            JournalEvent::SnapshotBarrierCompleted { epoch: 0, partitions: 2, bytes: 128 };
        let events = vec![
            // Chaos fires while superstep 0 is open, before its completion.
            straggler.clone(),
            step(0, 0),
            barrier.clone(),
            step(1, 1),
            persisted.clone(),
            JournalEvent::ChaosInjected { superstep: 2, worker: 0, kind: "kill".into(), param: 0 },
            step(2, 2),
            JournalEvent::RunCompleted { supersteps: 3, iterations: 3, converged: true },
        ];
        let model = RunModel::from_events(&events);
        assert_eq!(model.rows[0].chaos, vec![straggler]);
        assert_eq!(labels(&model.rows[0].chaos), ["chaos straggler w1 +50ms"]);
        assert_eq!(model.rows[0].snapshots, vec![barrier]);
        assert_eq!(labels(&model.rows[0].snapshots), ["barrier e0 started (2 chunks)"]);
        assert_eq!(model.rows[1].snapshots, vec![persisted]);
        assert_eq!(labels(&model.rows[1].snapshots), ["barrier e0 complete (128B)"]);
        assert_eq!(labels(&model.rows[2].chaos), ["chaos kill w0"]);
        assert_eq!(model.snapshot_supersteps(), vec![1]);
        assert_eq!(model.chaos_injections(), 2);
    }

    #[test]
    fn convergence_samples_land_on_their_row() {
        let events = vec![
            step(0, 0),
            JournalEvent::ConvergenceSample {
                superstep: 0,
                iteration: 0,
                changed: 5,
                changed_per_partition: vec![2, 3],
                delta_norm: Some(Norm(1.5)),
                workset_per_partition: Some(vec![4, 1]),
            },
        ];
        let model = RunModel::from_events(&events);
        let sample = model.rows[0].sample.as_ref().unwrap();
        assert_eq!(sample.changed, 5);
        assert_eq!(sample.delta_norm, Some(1.5));
        assert_eq!(sample.workset_per_partition.as_deref(), Some(&[4, 1][..]));
    }
}
