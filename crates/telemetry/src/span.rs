//! Hierarchical timing spans.
//!
//! The engine wraps each phase of the superstep protocol in a
//! [`SpanTimer`]; finishing the timer reports a [`SpanRecord`] to the sink
//! *and* returns the measured [`Duration`], so the legacy per-superstep
//! statistics keep getting the same numbers they always did. The hierarchy
//! is positional rather than pointer-based: every record carries its
//! superstep / logical-iteration coordinates, which is all a single-loop
//! engine needs to reconstruct `run > superstep > phase` nesting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::json::{self, Fields, Obj, ReadError};
use crate::sink::TelemetrySink;

/// The phase of the run a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The whole iterative run, entry to exit.
    Run,
    /// One executed superstep, including its checkpoint/recovery hooks.
    Superstep,
    /// The dataflow-body execution of one superstep.
    Compute,
    /// Time spent in operators that moved records across partitions during
    /// one superstep.
    Shuffle,
    /// Writing a checkpoint after one superstep.
    Checkpoint,
    /// Running the fault handler after an injected failure.
    Recovery,
}

impl SpanKind {
    /// Stable lowercase label (used in reports and metric names).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Superstep => "superstep",
            SpanKind::Compute => "compute",
            SpanKind::Shuffle => "shuffle",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Recovery => "recovery",
        }
    }

    /// All kinds, in hierarchy order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Run,
        SpanKind::Superstep,
        SpanKind::Compute,
        SpanKind::Shuffle,
        SpanKind::Checkpoint,
        SpanKind::Recovery,
    ];
}

/// A finished span: a phase, its position in the run, and how long it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which phase this span covers.
    pub kind: SpanKind,
    /// Chronological superstep index ([`None`] for run-level spans).
    pub superstep: Option<u32>,
    /// Logical iteration number ([`None`] for run-level spans).
    pub iteration: Option<u32>,
    /// Wall-clock duration of the phase.
    pub duration: Duration,
}

impl SpanRecord {
    /// Serialize as one line of JSON (no trailing newline), for the
    /// `*.spans.jsonl` sidecar that run-capture helpers write next to the
    /// event journal. Spans carry wall-clock durations, so the sidecar is
    /// *not* replay-deterministic — which is exactly why spans stay out of
    /// the journal proper.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("span", self.kind.label())
            .field("superstep", &self.superstep)
            .field("iteration", &self.iteration)
            .field("duration_ns", &(self.duration.as_nanos() as u64))
            .finish()
    }

    /// Read one sidecar line back. `Ok(None)` is a well-formed line whose
    /// span kind this build does not declare (a newer writer).
    pub fn from_json(line: &str) -> Result<Option<SpanRecord>, ReadError> {
        let value = json::parse(line)?;
        let mut fields = Fields::of(&value)?;
        let label: String = fields.take("span")?;
        let Some(kind) = SpanKind::ALL.into_iter().find(|kind| kind.label() == label) else {
            return Ok(None);
        };
        Ok(Some(SpanRecord {
            kind,
            superstep: fields.take("superstep")?,
            iteration: fields.take("iteration")?,
            duration: Duration::from_nanos(fields.take("duration_ns")?),
        }))
    }
}

/// An in-flight span; construct via `SinkHandle::timer`, stop with
/// [`SpanTimer::finish`].
pub struct SpanTimer {
    sink: Option<Arc<dyn TelemetrySink>>,
    kind: SpanKind,
    superstep: Option<u32>,
    iteration: Option<u32>,
    start: Instant,
}

impl SpanTimer {
    /// Start a timer that reports to `sink` on finish (pass [`None`] for a
    /// measure-only timer, e.g. when the sink is disabled).
    pub fn start(
        sink: Option<Arc<dyn TelemetrySink>>,
        kind: SpanKind,
        superstep: Option<u32>,
        iteration: Option<u32>,
    ) -> Self {
        SpanTimer { sink, kind, superstep, iteration, start: Instant::now() }
    }

    /// Stop the timer, report the span, and return the measured duration.
    pub fn finish(self) -> Duration {
        let duration = self.start.elapsed();
        if let Some(sink) = &self.sink {
            sink.span(&SpanRecord {
                kind: self.kind,
                superstep: self.superstep,
                iteration: self.iteration,
                duration,
            });
        }
        duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::arb::{below, from_fn, Arb};
    use crate::sink::MemorySink;
    use proptest::prelude::*;

    #[test]
    fn finished_timers_report_their_coordinates() {
        let sink = Arc::new(MemorySink::new());
        let timer = SpanTimer::start(
            Some(sink.clone() as Arc<dyn TelemetrySink>),
            SpanKind::Compute,
            Some(3),
            Some(2),
        );
        let duration = timer.finish();
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::Compute);
        assert_eq!(spans[0].superstep, Some(3));
        assert_eq!(spans[0].iteration, Some(2));
        assert_eq!(spans[0].duration, duration);
    }

    #[test]
    fn sinkless_timers_still_measure() {
        let timer = SpanTimer::start(None, SpanKind::Run, None, None);
        let _ = timer.finish(); // must not panic
    }

    #[test]
    fn span_json_omits_run_level_coordinates() {
        let step = SpanRecord {
            kind: SpanKind::Compute,
            superstep: Some(3),
            iteration: Some(2),
            duration: Duration::from_nanos(1500),
        };
        assert_eq!(
            step.to_json(),
            "{\"span\":\"compute\",\"superstep\":3,\"iteration\":2,\"duration_ns\":1500}"
        );
        let run = SpanRecord {
            kind: SpanKind::Run,
            superstep: None,
            iteration: None,
            duration: Duration::from_nanos(10),
        };
        assert_eq!(run.to_json(), "{\"span\":\"run\",\"duration_ns\":10}");
    }

    impl Arb for SpanKind {
        fn arb(runner: &mut proptest::test_runner::TestRunner) -> Self {
            SpanKind::ALL[below(runner, SpanKind::ALL.len())]
        }
    }

    impl Arb for SpanRecord {
        fn arb(runner: &mut proptest::test_runner::TestRunner) -> Self {
            SpanRecord {
                kind: Arb::arb(runner),
                superstep: Arb::arb(runner),
                iteration: Arb::arb(runner),
                duration: Arb::arb(runner),
            }
        }
    }

    proptest! {
        #[test]
        fn span_lines_survive_the_round_trip(span in from_fn(SpanRecord::arb)) {
            let line = span.to_json();
            let back = SpanRecord::from_json(&line).expect(&line).expect("a declared kind");
            prop_assert_eq!(&back, &span, "{}", line);
            prop_assert_eq!(back.to_json(), line, "stable on the second pass");
        }
    }

    #[test]
    fn a_newer_span_kind_is_skipped_and_a_broken_line_is_an_error() {
        assert_eq!(
            SpanRecord::from_json("{\"span\":\"barrier_idle\",\"duration_ns\":5}"),
            Ok(None)
        );
        let err = |line: &str| SpanRecord::from_json(line).unwrap_err().0;
        // A missing duration used to load as zero.
        assert_eq!(err("{\"span\":\"run\"}"), "missing required key \"duration_ns\"");
        assert_eq!(
            err("{\"span\":\"compute\",\"superstep\":4294967296,\"duration_ns\":5}"),
            "key \"superstep\": expected u32"
        );
        assert_eq!(err("{\"duration_ns\":5}"), "missing required key \"span\"");
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<_> = SpanKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["run", "superstep", "compute", "shuffle", "checkpoint", "recovery"]);
    }
}
