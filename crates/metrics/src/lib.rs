//! Terminal reporting for iterative dataflow runs — the text-mode
//! substitute for the demonstration's GUI (Figures 2–5 of the paper).
//!
//! The GUI's information content is (a) the per-iteration state of the
//! small demo graph (component colouring for Connected Components,
//! rank-proportional vertex sizes for PageRank) and (b) four statistics
//! plots (converged vertices, messages, and the PageRank L1 series).
//! `flowscope::demo` draws (a) from the run's journal; this crate renders
//! the statistics in a terminal:
//!
//! * [`chart`] — ASCII line charts with failure markers.
//! * [`compare`] — log-scale histograms (degree distributions).
//! * [`table`] — per-superstep statistics tables.
//! * [`csv`] — CSV export for external plotting.
//! * [`report`] — reconciliation of a telemetry
//!   [`RunReport`](telemetry::RunReport) against the engine's legacy
//!   `RunStats`.

#![warn(missing_docs)]

pub mod chart;
pub mod compare;
pub mod csv;
pub mod report;
pub mod table;

pub use chart::{ascii_chart, ChartOptions};
pub use compare::log2_histogram;
pub use report::reconcile;
pub use table::run_stats_table;
