//! Recovery-cost accounting: what each failure actually cost the run.
//!
//! The coordinator journals one [`telemetry::JournalEvent::RecoveryCost`]
//! per worker outage — how the loss was detected (heartbeat timeout vs a
//! read error on the control connection), the dispatch-to-detection
//! latency, the respawn + reload wall time, and the bytes re-shipped to
//! the replacement worker. This module folds those bills together with the
//! journal's failure marks into a per-failure report: each bill is charged
//! the supersteps it forced the engine to recompute (the interrupted
//! in-flight superstep under optimistic recovery, the whole rolled-back
//! span under pessimistic recovery), and the report closes with run-level
//! totals and the recovery wall-clock from the spans sidecar when one is
//! available.

use telemetry::{JournalEvent, PartitionId, RunReport, SpanKind};

use crate::model::{label, RecoveryAction, RunModel};
use crate::timeline::format_ns;

/// The cost of one worker outage, attributed to the superstep it
/// interrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryBill {
    /// Superstep the outage interrupted (the last completed row).
    pub superstep: u32,
    /// Worker process that was lost.
    pub worker: usize,
    /// How the loss was detected (`heartbeat` or `read_error`).
    pub detection: String,
    /// Dispatch-to-detection latency.
    pub detect_ns: u64,
    /// Respawn + program-reload wall time.
    pub respawn_ns: u64,
    /// Bytes re-shipped (program + adjacency) to the replacement.
    pub reshipped_bytes: u64,
    /// Supersteps the failure forced the engine to recompute: the
    /// interrupted in-flight superstep under compensation, plus the
    /// rolled-back span under rollback.
    pub supersteps_recomputed: u32,
    /// Partitions the dead worker owned, when the journal recorded them.
    pub lost_partitions: Vec<PartitionId>,
}

/// The cost of one *planned* rescale — an elastic scale event, billed
/// separately from the unplanned [`RecoveryBill`]s so "what did elasticity
/// cost" and "what did failures cost" stay distinguishable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceBill {
    /// Superstep whose dispatch the rescale preceded.
    pub superstep: u32,
    /// Worker count before the rescale.
    pub from_workers: usize,
    /// Worker count after the rescale.
    pub to_workers: usize,
    /// Partitions whose owner changed.
    pub moved_partitions: usize,
    /// Bytes the planned reship moved.
    pub reshipped_bytes: u64,
}

/// A whole run's recovery accounting.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// One bill per worker outage, in journal order.
    pub bills: Vec<RecoveryBill>,
    /// One bill per elastic rescale, in journal order — planned reships,
    /// kept apart from the unplanned outage bills above.
    pub rebalances: Vec<RebalanceBill>,
    /// Failures recorded in the journal (includes single-process injected
    /// failures that carry no worker bill).
    pub failures: u32,
    /// Journal-level redundant supersteps (executed minus logical
    /// progress) — the paper's recovery-overhead measure, as a
    /// cross-check on the per-bill attribution.
    pub redundant_supersteps: u32,
    /// Wall-clock spent in the `recovery` span, when a spans sidecar or
    /// report was available.
    pub recovery_wall_ns: Option<u64>,
    /// Chaos-plane injections (`ChaosInjected` events), in journal order:
    /// the faults the run was billed for absorbing.
    pub chaos: Vec<JournalEvent>,
    /// Async-snapshot epochs that reached stable storage.
    pub snapshot_epochs: u32,
    /// Total bytes the completed snapshot epochs persisted.
    pub snapshot_bytes: u64,
    /// What rollback cost the failure-free path: its state writes.
    pub cuts: CutCosts,
}

/// The failure-free cost of a rollback strategy, summed over a run: its
/// `CheckpointWritten` entries. A cut is the state alone — its messages are
/// regenerated from that state on a restore — so nothing else is billed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CutCosts {
    /// State writes to stable storage (whole checkpoints, or the chunks of
    /// asynchronous snapshots).
    pub writes: u32,
    /// Bytes of state those writes persisted.
    pub written_bytes: u64,
}

impl RecoveryReport {
    /// Sum of detection latencies across bills.
    pub fn total_detect_ns(&self) -> u64 {
        self.bills.iter().map(|b| b.detect_ns).sum()
    }

    /// Sum of respawn wall time across bills.
    pub fn total_respawn_ns(&self) -> u64 {
        self.bills.iter().map(|b| b.respawn_ns).sum()
    }

    /// Sum of re-shipped bytes across bills.
    pub fn total_reshipped_bytes(&self) -> u64 {
        self.bills.iter().map(|b| b.reshipped_bytes).sum()
    }

    /// Sum of recomputed supersteps across bills.
    pub fn total_recomputed(&self) -> u32 {
        self.bills.iter().map(|b| b.supersteps_recomputed).sum()
    }

    /// Sum of *planned* re-shipped bytes across rescales.
    pub fn total_planned_reshipped_bytes(&self) -> u64 {
        self.rebalances.iter().map(|b| b.reshipped_bytes).sum()
    }
}

/// Supersteps a failure at `row` forced the engine to recompute.
///
/// Under optimistic recovery the interrupted superstep is re-dispatched
/// after compensation — one superstep of lost work per outage. Under
/// pessimistic recovery the engine replays everything back to the
/// checkpointed iteration.
fn recomputed_for(row: &crate::model::SuperstepRow) -> u32 {
    let rollback: u32 = row
        .recovery
        .iter()
        .map(|action| match action {
            RecoveryAction::Rollback { to_iteration } => {
                row.iteration.saturating_sub(*to_iteration) + 1
            }
            RecoveryAction::Restart => row.iteration + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    rollback.max(1)
}

/// Build the recovery report from a folded journal, plus the report
/// sidecar (for the `recovery` span total) when available.
pub fn build_recovery_report(model: &RunModel, report: Option<&RunReport>) -> RecoveryReport {
    let recovery_wall = report.and_then(|r| r.span_totals.get(SpanKind::Recovery.label()));
    let mut out = RecoveryReport {
        failures: model.failure_supersteps().len() as u32,
        redundant_supersteps: model.redundant_supersteps(),
        recovery_wall_ns: recovery_wall.map(|total| total.as_nanos() as u64),
        ..Default::default()
    };
    for row in &model.rows {
        out.chaos.extend(row.chaos.iter().cloned());
        // A Started/Completed pair journals per rescale; pair them up in
        // order. A Started with no Completed (journal truncated mid-scale)
        // is dropped.
        let mut pending_scale: Option<(usize, usize)> = None;
        for mark in &row.rebalances {
            match mark {
                JournalEvent::RebalanceStarted { from_workers, to_workers, .. } => {
                    pending_scale = Some((*from_workers, *to_workers));
                }
                JournalEvent::RebalanceCompleted { moved_partitions, reshipped_bytes, .. } => {
                    let (from_workers, to_workers) = pending_scale.take().unwrap_or((0, 0));
                    out.rebalances.push(RebalanceBill {
                        superstep: row.superstep,
                        from_workers,
                        to_workers,
                        moved_partitions: *moved_partitions,
                        reshipped_bytes: *reshipped_bytes,
                    });
                }
                _ => {}
            }
        }
        if let Some(bytes) = row.checkpoint_bytes {
            out.cuts.writes += 1;
            out.cuts.written_bytes += bytes;
        }
        for snapshot in &row.snapshots {
            if let JournalEvent::SnapshotBarrierCompleted { bytes, .. } = snapshot {
                out.snapshot_epochs += 1;
                out.snapshot_bytes += bytes;
            }
        }
        for cost in &row.recovery_costs {
            let JournalEvent::RecoveryCost {
                worker,
                detection,
                detect_ns,
                respawn_ns,
                reshipped_bytes,
                ..
            } = cost
            else {
                continue;
            };
            let lost_partitions = row
                .worker_events
                .iter()
                .find_map(|event| match event {
                    JournalEvent::WorkerLost { worker: lost, lost_partitions, .. }
                        if lost == worker =>
                    {
                        Some(lost_partitions.clone())
                    }
                    _ => None,
                })
                .unwrap_or_default();
            out.bills.push(RecoveryBill {
                superstep: row.superstep,
                worker: *worker,
                detection: detection.clone(),
                detect_ns: *detect_ns,
                respawn_ns: *respawn_ns,
                reshipped_bytes: *reshipped_bytes,
                supersteps_recomputed: recomputed_for(row),
                lost_partitions,
            });
        }
    }
    out
}

/// Render the recovery report as aligned text.
pub fn render_recovery(report: &RecoveryReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "recovery report: {} failure(s), {} worker outage(s)\n",
        report.failures,
        report.bills.len(),
    ));
    if !report.chaos.is_empty() {
        out.push_str(&format!("chaos plane: {} injection(s)\n", report.chaos.len()));
        for mark in &report.chaos {
            if let (JournalEvent::ChaosInjected { superstep, .. }, Some(text)) = (mark, label(mark))
            {
                out.push_str(&format!("  s{superstep:>3} {text}\n"));
            }
        }
    }
    if report.snapshot_epochs > 0 {
        out.push_str(&format!(
            "async snapshots: {} epoch(s) completed, {}B persisted\n",
            report.snapshot_epochs, report.snapshot_bytes,
        ));
    }
    if report.cuts != CutCosts::default() {
        let cuts = &report.cuts;
        out.push_str(&format!(
            "rollback cuts: {} state write(s), {}B written\n",
            cuts.writes, cuts.written_bytes,
        ));
    }
    if !report.rebalances.is_empty() {
        out.push_str(&format!(
            "planned rescales: {} event(s), {}B reshipped (planned)\n",
            report.rebalances.len(),
            report.total_planned_reshipped_bytes(),
        ));
        for bill in &report.rebalances {
            out.push_str(&format!(
                "  s{:>3} rescale {}->{} workers  moved {:>2} partition(s)  \
                 reshipped {:>8}B (planned)\n",
                bill.superstep,
                bill.from_workers,
                bill.to_workers,
                bill.moved_partitions,
                bill.reshipped_bytes,
            ));
        }
    }
    if report.bills.is_empty() && report.failures == 0 {
        if report.rebalances.is_empty() {
            out.push_str("  no failures recorded; nothing to account\n");
        } else {
            out.push_str("  no unplanned failures; all reships above were scheduled\n");
        }
        return out;
    }
    for bill in &report.bills {
        out.push_str(&format!(
            "  s{:>3} w{:<2} detect[{}] {:>9}  respawn {:>9}  reshipped {:>8}B  \
             recomputed {} superstep(s)  lost p{:?}\n",
            bill.superstep,
            bill.worker,
            bill.detection,
            format_ns(bill.detect_ns),
            format_ns(bill.respawn_ns),
            bill.reshipped_bytes,
            bill.supersteps_recomputed,
            bill.lost_partitions,
        ));
    }
    if !report.bills.is_empty() {
        out.push_str(&format!(
            "totals: detect {}  respawn {}  reshipped {}B (unplanned)  \
             recomputed {} superstep(s)\n",
            format_ns(report.total_detect_ns()),
            format_ns(report.total_respawn_ns()),
            report.total_reshipped_bytes(),
            report.total_recomputed(),
        ));
    }
    out.push_str(&format!("redundant supersteps (journal): {}\n", report.redundant_supersteps));
    if let Some(ns) = report.recovery_wall_ns {
        out.push_str(&format!("recovery wall-clock (spans): {}\n", format_ns(ns)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SuperstepRow;
    use std::time::Duration;

    fn cluster_model() -> RunModel {
        let mut model = RunModel { parallelism: 4, converged: true, ..Default::default() };
        model.rows.push(SuperstepRow { superstep: 0, iteration: 0, ..Default::default() });
        model.rows.push(SuperstepRow {
            superstep: 1,
            iteration: 1,
            failure: Some(JournalEvent::FailureInjected {
                superstep: 2,
                iteration: 2,
                lost_partitions: vec![1, 3],
                lost_records: 9,
            }),
            recovery: vec![RecoveryAction::Compensation { name: Some("Fix".into()) }],
            worker_events: vec![
                JournalEvent::WorkerLost {
                    superstep: 2,
                    iteration: 2,
                    worker: 1,
                    lost_partitions: vec![1, 3],
                },
                JournalEvent::WorkerRejoined { superstep: 2, worker: 1, reconnect_attempts: 2 },
            ],
            recovery_costs: vec![JournalEvent::RecoveryCost {
                superstep: 2,
                worker: 1,
                detection: "read_error".into(),
                detect_ns: 1_500_000,
                respawn_ns: 4_000_000,
                reshipped_bytes: 2048,
            }],
            ..Default::default()
        });
        model.rows.push(SuperstepRow { superstep: 2, iteration: 2, ..Default::default() });
        model.logical_iterations = 3;
        model
    }

    #[test]
    fn bills_attach_lost_partitions_and_charge_the_interrupted_superstep() {
        let report = build_recovery_report(&cluster_model(), None);
        assert_eq!(report.failures, 1);
        assert_eq!(report.bills.len(), 1);
        let bill = &report.bills[0];
        assert_eq!(bill.superstep, 1);
        assert_eq!(bill.worker, 1);
        assert_eq!(bill.detection, "read_error");
        assert_eq!(bill.lost_partitions, vec![1, 3]);
        assert_eq!(bill.supersteps_recomputed, 1, "optimistic: only the in-flight superstep");
        assert_eq!(report.total_reshipped_bytes(), 2048);
        assert_eq!(report.redundant_supersteps, 0);
    }

    #[test]
    fn rollback_bills_charge_the_replayed_span() {
        let mut model = cluster_model();
        model.rows[1].recovery = vec![RecoveryAction::Rollback { to_iteration: 0 }];
        let report = build_recovery_report(&model, None);
        assert_eq!(report.bills[0].supersteps_recomputed, 2, "iterations 0 and 1 replayed");
    }

    #[test]
    fn render_shows_bills_totals_and_wall_clock() {
        let mut summary = RunReport::default();
        summary.span_totals.insert("recovery".into(), Duration::from_millis(6));
        let report = build_recovery_report(&cluster_model(), Some(&summary));
        let text = render_recovery(&report);
        assert!(text.contains("1 failure(s), 1 worker outage(s)"), "{text}");
        assert!(text.contains("detect[read_error]"), "{text}");
        assert!(text.contains("1.5ms"), "{text}");
        assert!(text.contains("reshipped     2048B"), "{text}");
        assert!(text.contains("recovery wall-clock (spans): 6.0ms"), "{text}");
    }

    #[test]
    fn chaos_and_snapshot_accounting_reach_the_report() {
        let mut model = cluster_model();
        model.rows[1].chaos = vec![JournalEvent::ChaosInjected {
            superstep: 1,
            worker: 1,
            kind: "kill".into(),
            param: 0,
        }];
        model.rows[0].snapshots =
            vec![JournalEvent::SnapshotBarrierStarted { epoch: 0, partitions: 4 }];
        model.rows[2].snapshots =
            vec![JournalEvent::SnapshotBarrierCompleted { epoch: 0, partitions: 4, bytes: 512 }];
        let report = build_recovery_report(&model, None);
        assert_eq!(report.chaos.len(), 1);
        assert_eq!(report.snapshot_epochs, 1);
        assert_eq!(report.snapshot_bytes, 512);
        let text = render_recovery(&report);
        assert!(text.contains("chaos plane: 1 injection(s)"), "{text}");
        assert!(text.contains("chaos kill w1"), "{text}");
        assert!(text.contains("async snapshots: 1 epoch(s) completed, 512B persisted"), "{text}");
    }

    #[test]
    fn a_rollback_strategy_is_billed_its_state_writes() {
        let mut model = cluster_model();
        for row in [0usize, 2] {
            model.rows[row].checkpoint_bytes = Some(296);
        }
        let report = build_recovery_report(&model, None);
        assert_eq!(report.cuts, CutCosts { writes: 2, written_bytes: 592 });
        let text = render_recovery(&report);
        assert!(text.contains("rollback cuts: 2 state write(s), 592B written\n"), "{text}");
        // An optimistic run pays none and says nothing about them.
        let text = render_recovery(&build_recovery_report(&cluster_model(), None));
        assert!(!text.contains("rollback cuts"), "{text}");
    }

    #[test]
    fn planned_rescales_bill_separately_from_outages() {
        let mut model = cluster_model();
        model.rows[2].rebalances = vec![
            JournalEvent::RebalanceStarted { superstep: 2, from_workers: 2, to_workers: 4 },
            JournalEvent::RebalanceCompleted {
                superstep: 2,
                moved_partitions: 2,
                reshipped_bytes: 1024,
            },
        ];
        let report = build_recovery_report(&model, None);
        assert_eq!(
            report.rebalances,
            vec![RebalanceBill {
                superstep: 2,
                from_workers: 2,
                to_workers: 4,
                moved_partitions: 2,
                reshipped_bytes: 1024,
            }]
        );
        assert_eq!(report.total_planned_reshipped_bytes(), 1024);
        assert_eq!(report.total_reshipped_bytes(), 2048, "unplanned total excludes the rescale");
        let text = render_recovery(&report);
        assert!(text.contains("planned rescales: 1 event(s), 1024B reshipped (planned)"), "{text}");
        assert!(text.contains("rescale 2->4 workers"), "{text}");
        assert!(text.contains("2048B (unplanned)"), "{text}");
    }

    #[test]
    fn failure_free_elastic_runs_note_the_scheduled_reships() {
        let mut model = RunModel::default();
        model.rows.push(SuperstepRow {
            superstep: 0,
            rebalances: vec![
                JournalEvent::RebalanceStarted { superstep: 0, from_workers: 2, to_workers: 3 },
                JournalEvent::RebalanceCompleted {
                    superstep: 0,
                    moved_partitions: 1,
                    reshipped_bytes: 64,
                },
            ],
            ..Default::default()
        });
        let text = render_recovery(&build_recovery_report(&model, None));
        assert!(text.contains("all reships above were scheduled"), "{text}");
    }

    #[test]
    fn failure_free_runs_render_a_placeholder() {
        let model = RunModel::default();
        let text = render_recovery(&build_recovery_report(&model, None));
        assert!(text.contains("no failures recorded"), "{text}");
    }
}
