//! Diff two runs (journal + optional report each) and flag regressions.
//!
//! Three regression axes, each with its own threshold:
//! superstep count (deterministic — default tolerance zero), wall-clock
//! time (noisy — default 20%), and recovery overhead, the paper's key
//! metric: redundant supersteps (executed minus logical progress) plus
//! wall-clock spent in recovery. Exit-worthiness is a property of the
//! returned [`DiffReport`], so the CLI can turn regressions into a nonzero
//! exit code and CI can gate on it.

use telemetry::{JournalEvent, RunReport, SpanKind};

use crate::load::Journal;
use crate::model::RunModel;

/// Comparable facts about one run.
#[derive(Debug, Clone, Default)]
pub struct RunFacts {
    /// Supersteps executed.
    pub supersteps: u32,
    /// Logical iterations completed.
    pub logical_iterations: u32,
    /// Whether the run converged.
    pub converged: bool,
    /// Failures injected.
    pub failures: u64,
    /// Redundant supersteps (executed minus logical progress).
    pub redundant_supersteps: u32,
    /// Wall-clock of the whole run, when a report with span totals exists.
    pub wall_ns: Option<u64>,
    /// Wall-clock inside recovery handlers, when a report exists.
    pub recovery_ns: Option<u64>,
    /// Worker outages billed in the journal (cluster runs; one
    /// `RecoveryCost` event each).
    pub worker_outages: u64,
    /// Summed dispatch-to-detection latency across outages.
    pub detect_ns: u64,
    /// Summed respawn + reload wall time across outages.
    pub respawn_ns: u64,
    /// Summed bytes re-shipped to replacement workers.
    pub reshipped_bytes: u64,
    /// Chaos-plane injections recorded in the journal.
    pub chaos_injections: u64,
    /// Async-snapshot epochs that completed.
    pub snapshot_epochs: u64,
    /// Bytes the completed snapshot epochs persisted (the strategy's
    /// failure-free overhead in storage terms).
    pub snapshot_bytes: u64,
    /// Raw journal event JSON lines, for divergence pinpointing.
    pub event_lines: Vec<String>,
}

impl RunFacts {
    /// Facts from a loaded journal.
    pub fn from_journal(journal: &Journal) -> RunFacts {
        let model = RunModel::from_events(&journal.events);
        let mut facts = RunFacts {
            supersteps: model.rows.len() as u32,
            logical_iterations: model.logical_iterations,
            converged: model.converged,
            failures: model.failure_supersteps().len() as u64,
            redundant_supersteps: model.redundant_supersteps(),
            chaos_injections: model.chaos_injections() as u64,
            event_lines: journal.events.iter().map(|e| e.to_json()).collect(),
            ..Default::default()
        };
        for event in
            model.rows.iter().flat_map(|row| row.recovery_costs.iter().chain(&row.snapshots))
        {
            match event {
                JournalEvent::RecoveryCost { detect_ns, respawn_ns, reshipped_bytes, .. } => {
                    facts.worker_outages += 1;
                    facts.detect_ns += detect_ns;
                    facts.respawn_ns += respawn_ns;
                    facts.reshipped_bytes += reshipped_bytes;
                }
                JournalEvent::SnapshotBarrierCompleted { bytes, .. } => {
                    facts.snapshot_epochs += 1;
                    facts.snapshot_bytes += bytes;
                }
                _ => {}
            }
        }
        facts
    }

    /// Merge wall-clock facts from a report.
    pub fn with_report(mut self, report: &RunReport) -> RunFacts {
        let total =
            |kind: SpanKind| report.span_totals.get(kind.label()).map(|t| t.as_nanos() as u64);
        self.wall_ns = total(SpanKind::Run);
        self.recovery_ns = total(SpanKind::Recovery);
        self
    }
}

/// Regression thresholds. Each is the allowed increase of current over
/// baseline before the diff counts a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOptions {
    /// Allowed superstep-count increase in percent (journals are
    /// deterministic, so the default tolerates none).
    pub superstep_pct: f64,
    /// Allowed wall-clock increase in percent.
    pub wall_pct: f64,
    /// Allowed increase in redundant supersteps, absolute.
    pub redundant_steps: u32,
    /// Allowed recovery wall-clock increase in percent.
    pub recovery_pct: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { superstep_pct: 0.0, wall_pct: 20.0, redundant_steps: 0, recovery_pct: 25.0 }
    }
}

/// Severity of one diff finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational difference; does not fail the diff.
    Info,
    /// A regression beyond its threshold; fails the diff.
    Regression,
}

/// One observed difference.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Whether this finding fails the diff.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

/// The result of comparing two runs.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All observed differences.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// True when any finding is a regression — callers should exit nonzero.
    pub fn has_regressions(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Regression)
    }

    fn push(&mut self, severity: Severity, message: String) {
        self.findings.push(Finding { severity, message });
    }
}

fn pct_increase(baseline: u64, current: u64) -> f64 {
    if baseline == 0 {
        if current == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current as f64 - baseline as f64) * 100.0 / baseline as f64
    }
}

/// Compare `current` against `baseline` under `options`.
pub fn diff_runs(baseline: &RunFacts, current: &RunFacts, options: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();

    if baseline.converged && !current.converged {
        report.push(Severity::Regression, "baseline converged, current did not".to_string());
    }

    let step_pct = pct_increase(baseline.supersteps.into(), current.supersteps.into());
    if step_pct > options.superstep_pct {
        report.push(
            Severity::Regression,
            format!(
                "supersteps: {} -> {} (+{step_pct:.1}%, allowed {:.1}%)",
                baseline.supersteps, current.supersteps, options.superstep_pct
            ),
        );
    } else if current.supersteps != baseline.supersteps {
        report.push(
            Severity::Info,
            format!("supersteps: {} -> {}", baseline.supersteps, current.supersteps),
        );
    }

    let redundant_delta =
        current.redundant_supersteps as i64 - baseline.redundant_supersteps as i64;
    if redundant_delta > options.redundant_steps as i64 {
        report.push(
            Severity::Regression,
            format!(
                "recovery overhead: {} -> {} redundant supersteps (+{redundant_delta}, \
                 allowed +{})",
                baseline.redundant_supersteps,
                current.redundant_supersteps,
                options.redundant_steps
            ),
        );
    }

    if let (Some(base), Some(cur)) = (baseline.wall_ns, current.wall_ns) {
        let wall_pct = pct_increase(base, cur);
        if wall_pct > options.wall_pct {
            report.push(
                Severity::Regression,
                format!(
                    "wall-clock: {base}ns -> {cur}ns (+{wall_pct:.1}%, allowed {:.1}%)",
                    options.wall_pct
                ),
            );
        }
    }

    if let (Some(base), Some(cur)) = (baseline.recovery_ns, current.recovery_ns) {
        let rec_pct = pct_increase(base, cur);
        if rec_pct > options.recovery_pct {
            report.push(
                Severity::Regression,
                format!(
                    "recovery wall-clock: {base}ns -> {cur}ns (+{rec_pct:.1}%, allowed {:.1}%)",
                    options.recovery_pct
                ),
            );
        }
    }

    if current.failures != baseline.failures {
        report.push(
            Severity::Info,
            format!("failures injected: {} -> {}", baseline.failures, current.failures),
        );
    }

    // Recovery-cost accounting rows (cluster journals). Worker-side clocks
    // and respawn timing are inherently noisy, so these inform rather than
    // gate: the recovery wall-clock threshold above is the gating axis.
    if baseline.worker_outages != 0 || current.worker_outages != 0 {
        report.push(
            Severity::Info,
            format!("worker outages: {} -> {}", baseline.worker_outages, current.worker_outages),
        );
        report.push(
            Severity::Info,
            format!(
                "detection latency: {} -> {}",
                crate::timeline::format_ns(baseline.detect_ns),
                crate::timeline::format_ns(current.detect_ns)
            ),
        );
        report.push(
            Severity::Info,
            format!(
                "respawn wall-clock: {} -> {}",
                crate::timeline::format_ns(baseline.respawn_ns),
                crate::timeline::format_ns(current.respawn_ns)
            ),
        );
        report.push(
            Severity::Info,
            format!(
                "re-shipped bytes: {}B -> {}B",
                baseline.reshipped_bytes, current.reshipped_bytes
            ),
        );
    }

    // Strategy scoreboard rows (chaos-plane runs). A strategy pair run
    // under the same seeded chaos plan shows identical injections but
    // different overhead: the async-snapshot side pays persisted bytes
    // failure-free, the optimistic side pays recomputation after faults.
    if baseline.chaos_injections != 0 || current.chaos_injections != 0 {
        report.push(
            Severity::Info,
            format!(
                "chaos injections: {} -> {}",
                baseline.chaos_injections, current.chaos_injections
            ),
        );
    }
    if baseline.snapshot_epochs != 0 || current.snapshot_epochs != 0 {
        report.push(
            Severity::Info,
            format!(
                "snapshot epochs: {} -> {} ({}B -> {}B persisted)",
                baseline.snapshot_epochs,
                current.snapshot_epochs,
                baseline.snapshot_bytes,
                current.snapshot_bytes
            ),
        );
    }

    // Pinpoint the first journal divergence, when both sides have events.
    if !baseline.event_lines.is_empty() && !current.event_lines.is_empty() {
        let first_diff = baseline
            .event_lines
            .iter()
            .zip(&current.event_lines)
            .position(|(a, b)| a != b)
            .or_else(|| {
                (baseline.event_lines.len() != current.event_lines.len())
                    .then(|| baseline.event_lines.len().min(current.event_lines.len()))
            });
        match first_diff {
            None => report.push(Severity::Info, "journals are event-identical".to_string()),
            Some(i) => {
                let side = |lines: &[String]| {
                    lines.get(i).cloned().unwrap_or_else(|| "<end of journal>".to_string())
                };
                report.push(
                    Severity::Info,
                    format!(
                        "journals diverge at event {}:\n  baseline: {}\n  current:  {}",
                        i + 1,
                        side(&baseline.event_lines),
                        side(&current.event_lines)
                    ),
                );
            }
        }
    }

    report
}

/// Render a diff report for the terminal.
pub fn render_diff(report: &DiffReport) -> String {
    let mut out = String::new();
    if report.findings.is_empty() {
        out.push_str("no differences\n");
        return out;
    }
    for finding in &report.findings {
        let tag = match finding.severity {
            Severity::Regression => "REGRESSION",
            Severity::Info => "info",
        };
        out.push_str(&format!("[{tag}] {}\n", finding.message));
    }
    out.push_str(&format!(
        "\n{}\n",
        if report.has_regressions() { "FAIL: regressions detected" } else { "OK" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(supersteps: u32, logical: u32) -> RunFacts {
        RunFacts {
            supersteps,
            logical_iterations: logical,
            converged: true,
            redundant_supersteps: supersteps - logical,
            ..Default::default()
        }
    }

    #[test]
    fn identical_runs_pass() {
        let report = diff_runs(&facts(8, 8), &facts(8, 8), &DiffOptions::default());
        assert!(!report.has_regressions(), "{report:?}");
    }

    #[test]
    fn extra_redundant_supersteps_regress() {
        // Baseline: compensation run, no redundancy. Current: rollback run
        // re-executed two supersteps.
        let report = diff_runs(&facts(8, 8), &facts(10, 8), &DiffOptions::default());
        assert!(report.has_regressions());
        let text = render_diff(&report);
        assert!(text.contains("recovery overhead"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    #[test]
    fn thresholds_are_configurable() {
        let lenient =
            DiffOptions { superstep_pct: 50.0, redundant_steps: 5, ..DiffOptions::default() };
        let report = diff_runs(&facts(8, 8), &facts(10, 8), &lenient);
        assert!(!report.has_regressions(), "{report:?}");
    }

    #[test]
    fn recovery_wall_clock_regression_flags() {
        let mut baseline = facts(8, 8);
        baseline.recovery_ns = Some(1_000);
        baseline.wall_ns = Some(100_000);
        let mut current = facts(8, 8);
        current.recovery_ns = Some(2_000);
        current.wall_ns = Some(101_000);
        let report = diff_runs(&baseline, &current, &DiffOptions::default());
        assert!(report.has_regressions());
        assert!(render_diff(&report).contains("recovery wall-clock"));
    }

    #[test]
    fn journal_divergence_is_pinpointed() {
        let mut a = facts(2, 2);
        a.event_lines = vec!["{\"event\":\"Restarted\"}".into(), "{\"x\":1}".into()];
        let mut b = facts(2, 2);
        b.event_lines = vec!["{\"event\":\"Restarted\"}".into(), "{\"x\":2}".into()];
        let report = diff_runs(&a, &b, &DiffOptions::default());
        let text = render_diff(&report);
        assert!(text.contains("diverge at event 2"), "{text}");
    }

    #[test]
    fn recovery_cost_rows_inform_but_do_not_gate() {
        let mut baseline = facts(8, 8);
        baseline.worker_outages = 1;
        baseline.detect_ns = 1_000_000;
        baseline.respawn_ns = 3_000_000;
        baseline.reshipped_bytes = 1024;
        let mut current = facts(8, 8);
        current.worker_outages = 1;
        current.detect_ns = 9_000_000; // 9x noisier detection must not gate
        current.respawn_ns = 3_500_000;
        current.reshipped_bytes = 1024;
        let report = diff_runs(&baseline, &current, &DiffOptions::default());
        assert!(!report.has_regressions(), "{report:?}");
        let text = render_diff(&report);
        assert!(text.contains("worker outages: 1 -> 1"), "{text}");
        assert!(text.contains("detection latency: 1.0ms -> 9.0ms"), "{text}");
        assert!(text.contains("re-shipped bytes: 1024B -> 1024B"), "{text}");
    }

    #[test]
    fn strategy_scoreboard_rows_inform_but_do_not_gate() {
        // An optimistic run vs an async-snapshot run under the same seeded
        // chaos plan: same injections, different failure-free overhead.
        let mut optimistic = facts(8, 8);
        optimistic.chaos_injections = 3;
        let mut snapshotting = facts(8, 8);
        snapshotting.chaos_injections = 3;
        snapshotting.snapshot_epochs = 2;
        snapshotting.snapshot_bytes = 4096;
        let report = diff_runs(&optimistic, &snapshotting, &DiffOptions::default());
        assert!(!report.has_regressions(), "{report:?}");
        let text = render_diff(&report);
        assert!(text.contains("chaos injections: 3 -> 3"), "{text}");
        assert!(text.contains("snapshot epochs: 0 -> 2 (0B -> 4096B persisted)"), "{text}");
    }

    #[test]
    fn lost_convergence_is_a_regression() {
        let mut current = facts(8, 8);
        current.converged = false;
        let report = diff_runs(&facts(8, 8), &current, &DiffOptions::default());
        assert!(report.has_regressions());
    }
}
