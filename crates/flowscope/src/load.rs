//! Loaders: JSONL journals, span sidecars, and run reports, read back into
//! the telemetry crate's own types.
//!
//! What a line means is `telemetry`'s business — every reader used here is
//! generated from, or written beside, the writer that produced the file, so
//! the two cannot drift. This module adds what a file adds: I/O, the line
//! loop, line-numbered error context, and the count of what a newer writer
//! put there that this build does not know. A journal round-trips
//! byte-identically (asserted by tests), which is what lets `inspect diff`
//! compare a fresh run against a checked-in baseline.

use std::fmt;
use std::path::Path;

use telemetry::json::{self, Fields, ReadError};
use telemetry::metrics::MetricsSnapshot;
use telemetry::{JournalEvent, RunReport, SpanRecord};

/// A loading failure: IO, JSON syntax, or a line that fails validation.
#[derive(Debug)]
pub struct LoadError(pub String);

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LoadError {}

/// Result alias for loaders.
pub type Result<T> = std::result::Result<T, LoadError>;

fn read_file(path: &Path) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| LoadError(format!("{}: {e}", path.display())))
}

/// Run `read` over every non-blank line, naming the file kind and the line
/// number in any error.
fn each_line(
    what: &str,
    text: &str,
    mut read: impl FnMut(&str) -> std::result::Result<(), ReadError>,
) -> Result<()> {
    for (lineno, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            read(line).map_err(|e| LoadError(format!("{what} line {}: {e}", lineno + 1)))?;
        }
    }
    Ok(())
}

/// A parsed journal: the recognized events plus a count of what was skipped.
#[derive(Debug, Clone)]
pub struct Journal {
    /// Events in journal order.
    pub events: Vec<JournalEvent>,
    /// What a newer writer wrote that this build does not declare: lines of
    /// an unknown `event` kind, plus unknown extra keys on known kinds.
    pub skipped: usize,
}

/// Parse a JSONL journal from text.
pub fn parse_journal(text: &str) -> Result<Journal> {
    let mut journal = Journal { events: Vec::new(), skipped: 0 };
    each_line("journal", text, |line| {
        let value = json::parse(line)?;
        let mut fields = Fields::of(&value)?;
        match JournalEvent::read(&mut fields)? {
            Some(event) => {
                journal.events.push(event);
                journal.skipped += fields.unread();
            }
            None => journal.skipped += 1,
        }
        Ok(())
    })?;
    Ok(journal)
}

/// Load a JSONL journal from disk.
pub fn load_journal(path: &Path) -> Result<Journal> {
    parse_journal(&read_file(path)?)
}

/// Parse a span sidecar from text. Spans of a kind this build does not
/// declare are skipped.
pub fn parse_spans(text: &str) -> Result<Vec<SpanRecord>> {
    let mut spans = Vec::new();
    each_line("spans", text, |line| {
        spans.extend(SpanRecord::from_json(line)?);
        Ok(())
    })?;
    Ok(spans)
}

/// Load a span sidecar from disk.
pub fn load_spans(path: &Path) -> Result<Vec<SpanRecord>> {
    parse_spans(&read_file(path)?)
}

/// Parse a run report (the `*_report.json` the capture helpers write),
/// either the bare report object or the `{"report":…,"metrics":…}` wrapper;
/// a bare report comes with an empty metrics snapshot.
pub fn parse_report(text: &str) -> Result<(RunReport, MetricsSnapshot)> {
    RunReport::from_json_with_metrics(text).map_err(|e| LoadError(format!("report: {e}")))
}

/// Load a report from disk.
pub fn load_report(path: &Path) -> Result<(RunReport, MetricsSnapshot)> {
    parse_report(&read_file(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_roundtrips_byte_identically() {
        let text = "{\"event\":\"RunStarted\",\"mode\":\"delta\",\"parallelism\":2,\
                    \"max_iterations\":9}\n\n\
                    {\"event\":\"CheckpointWritten\",\"iteration\":1,\
                    \"bytes\":18446744073709551614}\n";
        let journal = parse_journal(text).unwrap();
        assert_eq!(journal.skipped, 0);
        assert_eq!(journal.events.len(), 2, "the blank line is not an event");
        // Above 2^53 an `f64` detour would have rounded this to ...615.
        assert_eq!(
            journal.events[1],
            JournalEvent::CheckpointWritten { iteration: 1, bytes: u64::MAX - 1 }
        );
        let rewritten: String = journal.events.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(rewritten, text.replace("\n\n", "\n"));
    }

    #[test]
    fn what_a_newer_writer_added_is_counted_not_fatal() {
        let text = "{\"event\":\"SomethingNew\",\"x\":1}\n\
                    {\"event\":\"Restarted\",\"since\":3}\n\
                    {\"event\":\"Restarted\"}\n";
        let journal = parse_journal(text).unwrap();
        assert_eq!(journal.skipped, 2, "one unknown kind, one unknown key");
        assert_eq!(journal.events, vec![JournalEvent::Restarted, JournalEvent::Restarted]);
    }

    #[test]
    fn a_retired_event_kind_is_counted_not_fatal() {
        // Rollback runs once journaled the channel state they staged; a
        // journal written then still loads, with that line skipped.
        let text = "{\"event\":\"ChannelStaged\",\"superstep\":4,\"iteration\":2,\
                    \"msgs\":998403,\"bytes\":23961672}\n\
                    {\"event\":\"CheckpointWritten\",\"iteration\":2,\"bytes\":10}\n";
        let journal = parse_journal(text).unwrap();
        assert_eq!(journal.skipped, 1);
        assert_eq!(
            journal.events,
            vec![JournalEvent::CheckpointWritten { iteration: 2, bytes: 10 }]
        );
    }

    #[test]
    fn malformed_lines_are_errors_naming_line_and_key() {
        let err = |text: &str| parse_journal(text).unwrap_err().0;
        assert_eq!(
            err("{\"event\":\"Restarted\"}\n{\"event\":\"RunCompleted\"}\n"),
            "journal line 2: missing required key \"supersteps\""
        );
        assert_eq!(
            err("{\"event\":\"CheckpointWritten\",\"iteration\":\"one\",\"bytes\":1}\n"),
            "journal line 1: key \"iteration\": expected u32"
        );
        assert!(err("not json\n").starts_with("journal line 1: "));
        // A hostile line is an error, not a stack overflow.
        assert_eq!(err(&"[".repeat(200_000)), "journal line 1: nesting too deep at byte 16");
    }

    #[test]
    fn spans_parse_with_optional_coordinates() {
        let text = "{\"span\":\"run\",\"duration_ns\":500}\n\
                    {\"span\":\"from_the_future\",\"duration_ns\":1}\n\
                    {\"span\":\"compute\",\"superstep\":1,\"iteration\":1,\"duration_ns\":120}\n";
        let spans = parse_spans(text).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, telemetry::SpanKind::Run);
        assert_eq!(spans[0].superstep, None);
        assert_eq!(spans[1].superstep, Some(1));
        assert_eq!(spans[1].duration.as_nanos(), 120);
        assert_eq!(
            parse_spans("{\"span\":\"run\"}\n").unwrap_err().0,
            "spans line 1: missing required key \"duration_ns\""
        );
    }

    #[test]
    fn reports_parse_bare_and_wrapped() {
        let bare = "{\"supersteps\":7,\"logical_iterations\":7,\"converged\":true,\
                    \"records_shuffled\":88,\"failures\":2,\"lost_records\":12,\
                    \"compensations\":2,\"rollbacks\":0,\"restarts\":0,\"ignored\":0,\
                    \"checkpoints\":0,\"checkpoint_bytes\":0,\"event_counts\":{},\
                    \"span_totals\":{\"run_ns\":1000,\"compute_ns\":700}}";
        let (report, metrics) = parse_report(bare).unwrap();
        assert_eq!(report.supersteps, 7);
        assert_eq!(report.span_total(telemetry::SpanKind::Run).as_nanos(), 1000);
        assert!(metrics.histograms.is_empty());

        let wrapped = format!(
            "{{\"report\":{bare},\"metrics\":{{\"counters\":{{\"c\":4}},\"gauges\":{{}},\
             \"histograms\":{{\"partition_task_ns/p0\":{{\"count\":3,\"sum\":900,\
             \"mean\":300.0,\"p99\":512,\"max\":400}}}}}}}}"
        );
        let (report, metrics) = parse_report(&wrapped).unwrap();
        assert_eq!(report.failures, 2);
        assert_eq!(metrics.counters.get("c"), Some(&4));
        let h = metrics.histograms.get("partition_task_ns/p0").unwrap();
        assert_eq!(h.sum, 900);
        assert_eq!(h.mean, 300.0);

        // `{}` used to load as an all-zero report that `inspect diff` compared.
        assert_eq!(
            parse_report("{}").unwrap_err().0,
            "report: missing required key \"supersteps\""
        );
    }
}
