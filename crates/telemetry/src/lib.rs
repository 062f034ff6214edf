//! Observability for iterative dataflow runs.
//!
//! The SIGMOD '15 demo's value is *watching* recovery happen; this crate is
//! the instrumentation layer that makes that possible without string
//! matching or ad-hoc `Instant` plumbing. It is deliberately
//! zero-dependency (std only) and cheap enough to stay compiled into every
//! run — the default [`sink::NoopSink`] reduces every hook to an atomic
//! load and a branch.
//!
//! Three complementary signal types:
//!
//! - **Events** ([`event::JournalEvent`]): the discrete facts of a run —
//!   failures injected, compensations applied, rollbacks, checkpoints
//!   written. Events carry *no* wall-clock data, so a deterministic run
//!   replays to a byte-identical JSONL journal.
//! - **Spans** ([`span::SpanRecord`]): wall-clock durations in the
//!   hierarchy `run > superstep > {compute, shuffle, checkpoint,
//!   recovery}`, with the superstep/logical-iteration coordinates attached.
//! - **Metrics** ([`metrics::MetricRegistry`]): counters, gauges and
//!   fixed-bucket histograms (global and per-partition) for
//!   high-frequency observations inside worker closures.
//!
//! Everything funnels through a [`sink::SinkHandle`], the cloneable handle
//! the engine threads through its configuration. [`report::RunReport`]
//! aggregates a finished run's journal and spans into the totals the bench
//! binaries serialize.
//!
//! This crate is also the single owner of the on-disk dialect, in both
//! directions. [`json`] holds the writer, the reader, and the one
//! `write`/`read` pair per field type; every journal event is declared once,
//! in the table in [`event`], from which the enum, its writer and its
//! reader are generated; reports are declared the same way and a span keeps
//! its `to_json`/`from_json` side by side. `flowscope` (the `optirec
//! inspect` views) reads files through these and has no schema of its own.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;

pub use event::{FailureRecord, IterationMode, JournalEvent, Norm, PartitionId, RecoveryKind};
pub use metrics::{MetricRegistry, MetricsSnapshot};
pub use report::RunReport;
pub use sink::{JsonlSink, MemorySink, NoopSink, SinkHandle, TelemetrySink};
pub use span::{SpanKind, SpanRecord, SpanTimer};
