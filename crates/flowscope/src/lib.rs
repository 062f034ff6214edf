//! flowscope: post-hoc inspection of telemetry artifacts.
//!
//! The telemetry crate records what a run did (journal), how long it took
//! (spans, metrics), and the aggregate (report). This crate reads those
//! artifacts back and answers the questions the paper's evaluation asks:
//!
//! - [`timeline`] — what happened when: an ASCII Gantt of supersteps with
//!   failure, compensation, and rollback markers.
//! - [`profile`] — where the time went: per-partition and per-operator
//!   breakdowns with straggler detection.
//! - [`convergence`] — the paper's figures in a terminal: changed-element
//!   and delta-norm curves with recovery overlays, plus CSV/HTML export.
//! - [`diff`] — regression gating: compare two runs and flag
//!   superstep-count, wall-clock, and recovery-overhead regressions.
//! - [`recovery`] — what each failure cost: detection latency, respawn
//!   time, re-shipped bytes, and recomputed supersteps per worker outage.
//! - [`demo`] — the paper's GUI: the small graph's state per superstep,
//!   lost vertices marked, and the two statistics plots per algorithm.
//!
//! Everything is file-driven (`inspect` runs long after the run finished),
//! and nothing here knows the file format: the journal, span and report
//! types, their JSON keys and their readers all live in `telemetry`, beside
//! the writers. [`load`] adds file I/O, line-numbered errors and the count
//! of what a newer writer added; [`model`] groups the journal's own events
//! by superstep; the views consume those. [`load::parse_journal`]
//! round-trips journals byte-identically.

#![warn(missing_docs)]

pub mod capture;
pub mod convergence;
pub mod demo;
pub mod diff;
pub mod load;
pub mod model;
pub mod profile;
pub mod recovery;
pub mod timeline;

pub use capture::{capture_paths, save_run, CapturePaths};
pub use convergence::{render_convergence, write_convergence_csv, write_convergence_html};
pub use demo::render_demo;
pub use diff::{diff_runs, render_diff, DiffOptions, DiffReport, RunFacts};
pub use load::{load_journal, load_report, load_spans, Journal, LoadError};
pub use model::RunModel;
pub use profile::{build_profile, render_metrics_top, render_profile, Profile};
pub use recovery::{build_recovery_report, render_recovery, RecoveryBill, RecoveryReport};
pub use timeline::{format_ns, render_timeline};
