//! Cross-checking of telemetry [`RunReport`]s.
//!
//! The report is derived purely from the event journal; the engine's legacy
//! [`RunStats`] is filled independently by the iteration driver. [`reconcile`]
//! diffs the two, which is how the test suite proves the journal faithfully
//! describes the run it came from.

use dataflow::stats::{RecoveryKind, RunStats};
use telemetry::RunReport;

/// Cross-check a journal-derived [`RunReport`] against the engine's legacy
/// [`RunStats`] for the same run. Returns one human-readable line per
/// discrepancy; an empty vector means the two accounts agree.
pub fn reconcile(report: &RunReport, stats: &RunStats) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut check = |name: &str, journal: u64, legacy: u64| {
        if journal != legacy {
            diffs.push(format!("{name}: journal says {journal}, RunStats says {legacy}"));
        }
    };

    check("supersteps", u64::from(report.supersteps), u64::from(stats.supersteps()));
    check(
        "logical_iterations",
        u64::from(report.logical_iterations),
        u64::from(stats.logical_iterations()),
    );
    check(
        "records_shuffled",
        report.records_shuffled,
        stats.iterations.iter().map(|i| i.records_shuffled).sum(),
    );
    check("failures", report.failures, stats.failures().count() as u64);
    check("lost_records", report.lost_records, stats.failures().map(|(_, f)| f.lost_records).sum());
    check("checkpoint_bytes", report.checkpoint_bytes, stats.total_checkpoint_bytes());
    check(
        "checkpoints",
        report.checkpoints,
        stats.iterations.iter().filter(|i| i.checkpoint_bytes.is_some()).count() as u64,
    );

    let kind_count = |want: fn(&RecoveryKind) -> bool| {
        stats.failures().filter(|(_, f)| want(&f.recovery)).count() as u64
    };
    check(
        "compensations",
        report.compensations,
        kind_count(|k| matches!(k, RecoveryKind::Compensated)),
    );
    check(
        "rollbacks",
        report.rollbacks,
        kind_count(|k| matches!(k, RecoveryKind::RolledBack { .. })),
    );
    check("restarts", report.restarts, kind_count(|k| matches!(k, RecoveryKind::Restarted)));
    check("ignored", report.ignored, kind_count(|k| matches!(k, RecoveryKind::Ignored)));

    if report.converged != stats.converged {
        diffs.push(format!(
            "converged: journal says {}, RunStats says {}",
            report.converged, stats.converged
        ));
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::stats::{FailureRecord, IterationStats};
    use std::time::Duration;
    use telemetry::{IterationMode, JournalEvent};

    fn matching_pair() -> (RunReport, RunStats) {
        let events = vec![
            JournalEvent::RunStarted {
                mode: IterationMode::Bulk,
                parallelism: 2,
                max_iterations: 5,
            },
            JournalEvent::SuperstepCompleted {
                superstep: 0,
                iteration: 0,
                records_shuffled: 10,
                workset_size: None,
            },
            JournalEvent::FailureInjected {
                superstep: 1,
                iteration: 1,
                lost_partitions: vec![0],
                lost_records: 3,
            },
            JournalEvent::CompensationApplied { iteration: 1 },
            JournalEvent::SuperstepCompleted {
                superstep: 1,
                iteration: 1,
                records_shuffled: 5,
                workset_size: None,
            },
            JournalEvent::RunCompleted { supersteps: 2, iterations: 2, converged: true },
        ];
        let report = RunReport::from_journal(&events, &[]);

        let mut stats = RunStats { converged: true, ..Default::default() };
        let mut s0 = IterationStats { superstep: 0, iteration: 0, ..Default::default() };
        s0.records_shuffled = 10;
        let mut s1 = IterationStats { superstep: 1, iteration: 1, ..Default::default() };
        s1.records_shuffled = 5;
        s1.failure = Some(FailureRecord {
            lost_partitions: vec![0],
            lost_records: 3,
            recovery: RecoveryKind::Compensated,
            recovery_duration: Duration::from_millis(1),
        });
        stats.iterations = vec![s0, s1];
        (report, stats)
    }

    #[test]
    fn matching_accounts_reconcile() {
        let (report, stats) = matching_pair();
        assert_eq!(reconcile(&report, &stats), Vec::<String>::new());
    }

    #[test]
    fn mismatches_are_reported_by_name() {
        let (report, mut stats) = matching_pair();
        stats.iterations[0].records_shuffled = 999;
        stats.converged = false;
        let diffs = reconcile(&report, &stats);
        assert!(diffs.iter().any(|d| d.starts_with("records_shuffled:")), "{diffs:?}");
        assert!(diffs.iter().any(|d| d.starts_with("converged:")), "{diffs:?}");
    }
}
