//! Sinks: where events and spans go, and the handle the engine carries.
//!
//! The engine is instrumented unconditionally but configured with a
//! [`SinkHandle`] that defaults to the [`NoopSink`]. Every emission site
//! checks [`SinkHandle::enabled`] first — with the no-op sink that is a
//! single non-atomic bool read, and event payloads are built lazily via
//! [`SinkHandle::emit`], so disabled telemetry costs near nothing.
//!
//! Enabled telemetry batches journal writes: the handle accumulates the
//! high-frequency per-superstep events (`SuperstepCompleted`,
//! `ConvergenceSample`) in a buffer shared by all clones and hands them to
//! the sink in one [`TelemetrySink::event_batch`] call — one sink lock and
//! zero per-event clones instead of one of each per superstep. Rare events
//! (failures, recovery decisions, run lifecycle) flush the buffer
//! immediately, so a run that aborts mid-iteration still leaves every
//! decision-relevant event visible in the sink without an explicit
//! [`SinkHandle::flush`].

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::JournalEvent;
use crate::metrics::MetricRegistry;
use crate::span::{SpanKind, SpanRecord, SpanTimer};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Receiver of telemetry signals. Implementations must be cheap and
/// thread-safe; the engine may call them from worker threads.
pub trait TelemetrySink: Send + Sync {
    /// Whether the sink wants signals at all. When `false` the engine skips
    /// event construction and span reporting entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one journal event.
    fn event(&self, event: &JournalEvent);

    /// Receive a batch of journal events, draining `events`. Sinks that can
    /// ingest a whole batch under one lock (or one write) should override
    /// this; the default forwards to [`TelemetrySink::event`] one by one.
    fn event_batch(&self, events: &mut Vec<JournalEvent>) {
        for event in events.drain(..) {
            self.event(&event);
        }
    }

    /// Receive one finished span.
    fn span(&self, span: &SpanRecord);
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&self, _: &JournalEvent) {}

    fn span(&self, _: &SpanRecord) {}
}

/// In-memory sink capturing events and spans for inspection — the workhorse
/// of tests and of report generation in the bench binaries.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<JournalEvent>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl MemorySink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Copy of every captured event, in emission order.
    pub fn events(&self) -> Vec<JournalEvent> {
        lock(&self.events).clone()
    }

    /// Copy of every captured span, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.spans).clone()
    }

    /// The captured events rendered as a JSONL journal (one event per line,
    /// trailing newline). Byte-identical across replays of a deterministic
    /// run, because events carry no wall-clock data.
    pub fn journal_lines(&self) -> String {
        let mut out = String::new();
        for event in lock(&self.events).iter() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Drop all captured events and spans.
    pub fn clear(&self) {
        lock(&self.events).clear();
        lock(&self.spans).clear();
    }
}

impl TelemetrySink for MemorySink {
    fn event(&self, event: &JournalEvent) {
        lock(&self.events).push(event.clone());
    }

    fn event_batch(&self, events: &mut Vec<JournalEvent>) {
        lock(&self.events).append(events);
    }

    fn span(&self, span: &SpanRecord) {
        lock(&self.spans).push(span.clone());
    }
}

/// Sink that streams the event journal to a JSONL file as it happens.
///
/// Spans are *not* written: their durations are nondeterministic, and the
/// file exists to be diffed and asserted on. Use a [`MemorySink`] (or the
/// metric registry) when timings matter.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink { writer: Mutex::new(BufWriter::new(file)) })
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) -> io::Result<()> {
        lock(&self.writer).flush()
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TelemetrySink for JsonlSink {
    fn event(&self, event: &JournalEvent) {
        let mut writer = lock(&self.writer);
        let _ = writer.write_all(event.to_json().as_bytes());
        let _ = writer.write_all(b"\n");
    }

    fn event_batch(&self, events: &mut Vec<JournalEvent>) {
        let mut writer = lock(&self.writer);
        for event in events.drain(..) {
            let _ = writer.write_all(event.to_json().as_bytes());
            let _ = writer.write_all(b"\n");
        }
    }

    fn span(&self, _: &SpanRecord) {}
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Buffered per-superstep events before a forced hand-off to the sink.
const EVENT_BATCH_CAPACITY: usize = 32;

/// Whether an event may sit in the handle's batch buffer. Only the
/// high-frequency per-superstep events qualify — superstep/convergence
/// markers and demo state samples, plus the per-partition worker spans a
/// cluster superstep fans out — while everything rarer (failures, recovery,
/// run lifecycle, serve epochs) flushes the buffer immediately so the
/// sink's view is current whenever anything noteworthy happens.
fn batchable(event: &JournalEvent) -> bool {
    matches!(
        event,
        JournalEvent::SuperstepCompleted { .. }
            | JournalEvent::ConvergenceSample { .. }
            | JournalEvent::StateSample { .. }
            | JournalEvent::WorkerSpan { .. }
    )
}

/// The event buffer shared by every clone of a [`SinkHandle`], with the
/// final flush in its `Drop`: the destructor runs exactly once, when the
/// true last clone releases the `Arc`, no matter how many clones race their
/// drops across threads.
struct EventBuffer {
    sink: Arc<dyn TelemetrySink>,
    enabled: bool,
    events: Mutex<Vec<JournalEvent>>,
}

impl Drop for EventBuffer {
    fn drop(&mut self) {
        // Last handle out flushes whatever the run left buffered, so sinks
        // read after a handle's lifetime (bench reports, journal files) see
        // every event without an explicit flush call.
        if self.enabled {
            let events = self.events.get_mut().unwrap_or_else(PoisonError::into_inner);
            if !events.is_empty() {
                self.sink.event_batch(events);
            }
        }
    }
}

/// The handle the engine and strategies carry: a shared sink plus a shared
/// metric registry. Cloning is three `Arc` bumps; the default is the no-op
/// sink with a fresh (unused) registry.
///
/// All clones of a handle share one event buffer, so emission order is
/// preserved across the engine, the recovery strategies, and the cluster
/// backend. The buffer drains into the sink when a non-batchable event
/// arrives, when it reaches capacity, on [`SinkHandle::flush`], and when the
/// last clone drops (via the internal buffer's destructor).
#[derive(Clone)]
pub struct SinkHandle {
    sink: Arc<dyn TelemetrySink>,
    enabled: bool,
    buffer: Arc<EventBuffer>,
    metrics: Arc<MetricRegistry>,
}

impl SinkHandle {
    /// Handle around an existing sink.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        let enabled = sink.enabled();
        let buffer =
            Arc::new(EventBuffer { sink: sink.clone(), enabled, events: Mutex::new(Vec::new()) });
        SinkHandle { sink, enabled, buffer, metrics: Arc::new(MetricRegistry::new()) }
    }

    /// The disabled default handle.
    pub fn disabled() -> Self {
        SinkHandle::new(Arc::new(NoopSink))
    }

    /// Whether telemetry is live. Checked (cheaply) before every emission.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emit an event, constructing it lazily so disabled telemetry pays for
    /// neither the payload allocation nor the sink call. Per-superstep
    /// events are buffered and handed to the sink in batches; everything
    /// else drains the buffer immediately (in order).
    pub fn emit(&self, event: impl FnOnce() -> JournalEvent) {
        if !self.enabled {
            return;
        }
        let event = event();
        let flush_now = !batchable(&event);
        let mut buffer = lock(&self.buffer.events);
        buffer.push(event);
        if flush_now || buffer.len() >= EVENT_BATCH_CAPACITY {
            self.sink.event_batch(&mut buffer);
        }
    }

    /// Hand any buffered events to the sink now. Needed only when reading
    /// the sink outside a run (runs flush on every non-superstep event).
    pub fn flush(&self) {
        if self.enabled {
            let mut buffer = lock(&self.buffer.events);
            if !buffer.is_empty() {
                self.sink.event_batch(&mut buffer);
            }
        }
    }

    /// Report an already-built span record.
    pub fn span(&self, span: &SpanRecord) {
        if self.enabled {
            self.sink.span(span);
        }
    }

    /// Start a span timer at the given coordinates. Always measures (the
    /// engine needs the duration for its legacy statistics); reports to the
    /// sink only when enabled.
    pub fn timer(
        &self,
        kind: SpanKind,
        superstep: Option<u32>,
        iteration: Option<u32>,
    ) -> SpanTimer {
        let sink = self.enabled.then(|| Arc::clone(&self.sink));
        SpanTimer::start(sink, kind, superstep, iteration)
    }

    /// The shared metric registry.
    pub fn metrics(&self) -> &Arc<MetricRegistry> {
        &self.metrics
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::disabled()
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle").field("enabled", &self.enabled).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::JournalEvent;

    #[test]
    fn disabled_handle_skips_payload_construction() {
        let handle = SinkHandle::default();
        assert!(!handle.enabled());
        handle.emit(|| unreachable!("payload must not be built when disabled"));
    }

    #[test]
    fn memory_sink_round_trips_journal_lines() {
        let sink = Arc::new(MemorySink::new());
        let handle = SinkHandle::new(sink.clone());
        assert!(handle.enabled());
        handle.emit(|| JournalEvent::Restarted);
        handle.emit(|| JournalEvent::RolledBack { to_iteration: 1 });
        assert_eq!(
            sink.journal_lines(),
            "{\"event\":\"Restarted\"}\n{\"event\":\"RolledBack\",\"to_iteration\":1}\n"
        );
        sink.clear();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_events_not_spans() {
        let dir = std::env::temp_dir().join("telemetry-jsonl-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            let handle = SinkHandle::new(Arc::new(sink));
            handle.emit(|| JournalEvent::Restarted);
            let timer = handle.timer(crate::span::SpanKind::Run, None, None);
            let _ = timer.finish();
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "{\"event\":\"Restarted\"}\n");
        let _ = std::fs::remove_file(&path);
    }

    fn step(superstep: u32) -> JournalEvent {
        JournalEvent::SuperstepCompleted {
            superstep,
            iteration: superstep,
            records_shuffled: 1,
            workset_size: None,
        }
    }

    #[test]
    fn superstep_events_batch_until_a_flush_point() {
        let sink = Arc::new(MemorySink::new());
        let handle = SinkHandle::new(sink.clone());
        handle.emit(|| step(0));
        assert!(sink.events().is_empty(), "per-superstep events are buffered");
        handle.emit(|| JournalEvent::Restarted);
        let drained = sink.events();
        assert_eq!(drained.len(), 2, "a rare event drains the buffer with it");
        assert_eq!(drained[0].kind(), "SuperstepCompleted");
        assert_eq!(drained[1].kind(), "Restarted");
        handle.emit(|| step(1));
        handle.flush();
        assert_eq!(sink.events().len(), 3);
        handle.flush();
        assert_eq!(sink.events().len(), 3, "an empty buffer flushes to nothing");
    }

    #[test]
    fn a_full_buffer_drains_on_its_own() {
        let sink = Arc::new(MemorySink::new());
        let handle = SinkHandle::new(sink.clone());
        for s in 0..EVENT_BATCH_CAPACITY as u32 {
            handle.emit(|| step(s));
        }
        assert_eq!(sink.events().len(), EVENT_BATCH_CAPACITY);
    }

    #[test]
    fn clones_share_one_buffer_and_the_last_drop_flushes_it() {
        let sink = Arc::new(MemorySink::new());
        {
            let handle = SinkHandle::new(sink.clone());
            let clone = handle.clone();
            handle.emit(|| step(0));
            clone.emit(|| step(1));
            drop(handle);
            assert!(sink.events().is_empty(), "a surviving clone keeps the buffer");
        }
        let events = sink.events();
        assert_eq!(events.len(), 2, "the last clone flushes on drop");
        assert_eq!(
            events
                .iter()
                .map(|e| match e {
                    JournalEvent::SuperstepCompleted { superstep, .. } => *superstep,
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>(),
            vec![0, 1],
            "clone emissions interleave through the shared buffer in order"
        );
    }

    #[test]
    fn concurrent_last_drops_flush_exactly_once() {
        for _ in 0..64 {
            let sink = Arc::new(MemorySink::new());
            let handle = SinkHandle::new(sink.clone());
            let clone = handle.clone();
            handle.emit(|| step(0));
            clone.emit(|| step(1));
            let threads =
                [std::thread::spawn(move || drop(handle)), std::thread::spawn(move || drop(clone))];
            for thread in threads {
                thread.join().unwrap();
            }
            assert_eq!(
                sink.events().len(),
                2,
                "whichever clone drops last must flush the buffer, once"
            );
        }
    }

    #[test]
    fn handles_share_one_metric_registry() {
        let handle = SinkHandle::new(Arc::new(MemorySink::new()));
        let clone = handle.clone();
        handle.metrics().counter("x").add(2);
        clone.metrics().counter("x").add(3);
        assert_eq!(handle.metrics().counter("x").get(), 5);
    }
}
