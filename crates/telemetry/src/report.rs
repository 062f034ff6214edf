//! Aggregation of a finished run's telemetry into a serializable report.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::event::JournalEvent;
use crate::json::{self, json_record, Fields, Json, Obj, ReadError};
use crate::metrics::MetricsSnapshot;
use crate::sink::MemorySink;
use crate::span::{SpanKind, SpanRecord};

json_record! {
    /// Totals of one iterative run, derived from its event journal and spans.
    ///
    /// The report intentionally overlaps with the engine's legacy `RunStats`:
    /// tests reconcile the two, proving the journal faithfully describes the
    /// run it came from.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RunReport {
        /// Supersteps actually executed (rollbacks re-execute).
        pub supersteps: u32,
        /// Highest logical iteration reached plus one.
        pub logical_iterations: u32,
        /// Whether the run converged (from `RunCompleted`).
        pub converged: bool,
        /// Total records shuffled across partitions, summed over supersteps.
        pub records_shuffled: u64,
        /// Failures injected.
        pub failures: u64,
        /// Records destroyed by failures.
        pub lost_records: u64,
        /// Failures answered by compensation (optimistic recovery).
        pub compensations: u64,
        /// Failures answered by checkpoint rollback.
        pub rollbacks: u64,
        /// Failures answered by full restart.
        pub restarts: u64,
        /// Failures deliberately ignored.
        pub ignored: u64,
        /// Checkpoints written.
        pub checkpoints: u64,
        /// Total bytes written by checkpoints.
        pub checkpoint_bytes: u64,
        /// Count of every event kind seen, by kind name.
        pub event_counts: BTreeMap<String, u64>,
        /// Total wall-clock per span kind (label → duration).
        pub span_totals: BTreeMap<String, Duration>,
    }
}

impl RunReport {
    /// Aggregate a journal and the spans recorded alongside it.
    pub fn from_journal(events: &[JournalEvent], spans: &[SpanRecord]) -> Self {
        let mut report = RunReport::default();
        for event in events {
            *report.event_counts.entry(event.kind().to_owned()).or_insert(0) += 1;
            match event {
                JournalEvent::SuperstepCompleted { records_shuffled, .. } => {
                    report.records_shuffled += records_shuffled;
                }
                JournalEvent::CheckpointWritten { bytes, .. } => {
                    report.checkpoints += 1;
                    report.checkpoint_bytes += bytes;
                }
                JournalEvent::FailureInjected { lost_records, .. } => {
                    report.failures += 1;
                    report.lost_records += lost_records;
                }
                JournalEvent::CompensationApplied { .. } => report.compensations += 1,
                JournalEvent::RolledBack { .. } => report.rollbacks += 1,
                JournalEvent::Restarted => report.restarts += 1,
                JournalEvent::FailureIgnored { .. } => report.ignored += 1,
                JournalEvent::RunCompleted { supersteps, iterations, converged } => {
                    report.supersteps = *supersteps;
                    report.logical_iterations = *iterations;
                    report.converged = *converged;
                }
                _ => {}
            }
        }
        for span in spans {
            *report.span_totals.entry(span.kind.label().to_owned()).or_insert(Duration::ZERO) +=
                span.duration;
        }
        report
    }

    /// Aggregate everything a [`MemorySink`] captured.
    pub fn from_sink(sink: &MemorySink) -> Self {
        RunReport::from_journal(&sink.events(), &sink.spans())
    }

    /// Total wall-clock attributed to one span kind.
    pub fn span_total(&self, kind: SpanKind) -> Duration {
        self.span_totals.get(kind.label()).copied().unwrap_or(Duration::ZERO)
    }

    /// Serialize the report together with a metrics snapshot: the
    /// `*_report.json` sidecar.
    pub fn to_json_with_metrics(&self, metrics: &MetricsSnapshot) -> String {
        Obj::new().field("report", self).field("metrics", metrics).finish()
    }

    /// Read a `*_report.json` sidecar back. A bare report object (no
    /// `report`/`metrics` wrapper) is accepted with an empty snapshot.
    pub fn from_json_with_metrics(text: &str) -> Result<(Self, MetricsSnapshot), ReadError> {
        let root = json::parse(text)?;
        let mut fields = Fields::of(&root)?;
        match fields.take::<Option<RunReport>>("report")? {
            Some(report) => Ok((report, fields.take("metrics")?)),
            None => Ok((RunReport::read(&root)?, MetricsSnapshot::default())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IterationMode;
    use crate::json::arb::{from_fn, Arb};
    use proptest::prelude::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::RunStarted {
                mode: IterationMode::Bulk,
                parallelism: 4,
                max_iterations: 10,
            },
            JournalEvent::SuperstepCompleted {
                superstep: 0,
                iteration: 0,
                records_shuffled: 100,
                workset_size: None,
            },
            JournalEvent::CheckpointWritten { iteration: 0, bytes: 64 },
            JournalEvent::SuperstepCompleted {
                superstep: 1,
                iteration: 1,
                records_shuffled: 80,
                workset_size: None,
            },
            JournalEvent::FailureInjected {
                superstep: 1,
                iteration: 1,
                lost_partitions: vec![2],
                lost_records: 7,
            },
            JournalEvent::RolledBack { to_iteration: 0 },
            JournalEvent::SuperstepCompleted {
                superstep: 2,
                iteration: 1,
                records_shuffled: 80,
                workset_size: None,
            },
            JournalEvent::RunCompleted { supersteps: 3, iterations: 2, converged: true },
        ]
    }

    #[test]
    fn aggregates_event_totals() {
        let report = RunReport::from_journal(&sample_events(), &[]);
        assert_eq!(report.supersteps, 3);
        assert_eq!(report.logical_iterations, 2);
        assert!(report.converged);
        assert_eq!(report.records_shuffled, 260);
        assert_eq!(report.failures, 1);
        assert_eq!(report.lost_records, 7);
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.compensations, 0);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(report.checkpoint_bytes, 64);
        assert_eq!(report.event_counts["SuperstepCompleted"], 3);
    }

    #[test]
    fn aggregates_span_totals() {
        let spans = vec![
            SpanRecord {
                kind: SpanKind::Compute,
                superstep: Some(0),
                iteration: Some(0),
                duration: Duration::from_millis(5),
            },
            SpanRecord {
                kind: SpanKind::Compute,
                superstep: Some(1),
                iteration: Some(1),
                duration: Duration::from_millis(7),
            },
            SpanRecord {
                kind: SpanKind::Run,
                superstep: None,
                iteration: None,
                duration: Duration::from_millis(20),
            },
        ];
        let report = RunReport::from_journal(&[], &spans);
        assert_eq!(report.span_total(SpanKind::Compute), Duration::from_millis(12));
        assert_eq!(report.span_total(SpanKind::Run), Duration::from_millis(20));
        assert_eq!(report.span_total(SpanKind::Shuffle), Duration::ZERO);
    }

    #[test]
    fn serializes_to_json() {
        let report = RunReport::from_journal(&sample_events(), &[]);
        let json = report.to_json();
        assert!(json.starts_with("{\"supersteps\":3,"));
        assert!(json.contains("\"event_counts\":{"));
        assert!(json.contains("\"RolledBack\":1"));
    }

    proptest! {
        /// Both sidecar shapes, over every field the two records declare.
        /// Compared through `{:?}`, which is bit-exact for floats (−0.0 and
        /// NaN included) where `==` is not.
        #[test]
        fn reports_survive_the_round_trip(
            report in from_fn(RunReport::arb),
            metrics in from_fn(MetricsSnapshot::arb),
        ) {
            let bare = report.to_json();
            let back = RunReport::from_json(&bare).expect(&bare);
            prop_assert_eq!(&back, &report, "{}", bare);
            prop_assert_eq!(back.to_json(), bare);

            let snapshot = metrics.to_json();
            let back = MetricsSnapshot::from_json(&snapshot).expect(&snapshot);
            prop_assert_eq!(format!("{back:?}"), format!("{metrics:?}"), "{}", snapshot);
            prop_assert_eq!(back.to_json(), snapshot);

            let wrapped = report.to_json_with_metrics(&metrics);
            let (r, m) = RunReport::from_json_with_metrics(&wrapped).expect(&wrapped);
            prop_assert_eq!(r.to_json_with_metrics(&m), wrapped);
            let (r, m) = RunReport::from_json_with_metrics(&bare).expect(&bare);
            prop_assert_eq!((r, m), (report, MetricsSnapshot::default()));
        }
    }

    #[test]
    fn a_report_with_a_missing_or_mistyped_counter_is_an_error() {
        let good = RunReport::from_journal(&sample_events(), &[]).to_json();
        assert!(RunReport::from_json(&good).is_ok());
        let err = |text: &str| RunReport::from_json_with_metrics(text).unwrap_err().0;
        // `{}` used to be a valid all-zero report.
        assert_eq!(err("{}"), "missing required key \"supersteps\"");
        assert_eq!(err(&good.replace("\"failures\":1,", "")), "missing required key \"failures\"");
        // ... and an oversized superstep count used to be truncated.
        assert_eq!(
            err(&good.replace("\"supersteps\":3", "\"supersteps\":4294967299")),
            "key \"supersteps\": expected u32"
        );
        assert_eq!(
            err(&good.replace("\"converged\":true", "\"converged\":1")),
            "key \"converged\": expected a bool"
        );
        assert_eq!(err(&format!("{{\"report\":{good}}}")), "missing required key \"metrics\"");
        assert_eq!(
            err(&format!(
                "{{\"report\":{good},\"metrics\":{{\"counters\":{{}},\"gauges\":{{}},\
                 \"histograms\":{{\"task_ns\":{{\"count\":1,\"sum\":2,\"mean\":2.0,\"max\":2}}}}}}}}"
            )),
            "key \"metrics\": key \"histograms\": key \"task_ns\": missing required key \"p99\""
        );
    }
}
