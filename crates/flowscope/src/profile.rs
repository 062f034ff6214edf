//! Profile view: where did the time go — per partition, per operator, and
//! per phase — with straggler detection.
//!
//! Works off a metrics-wrapped run report: per-partition tracks of the
//! `partition_task_ns` / `partition_shuffle_ns` histograms give the
//! partition breakdown, `op/<kind>_ns` histograms give the operator
//! breakdown, and `span_totals` gives the phase split. A partition whose
//! total (compute + shuffle) exceeds `straggler_factor` times the median
//! is flagged — on the simulated workers that means skewed partitioning,
//! the same signal the paper's cluster runs surface as stragglers.

use std::collections::BTreeMap;

use telemetry::metrics::MetricsSnapshot;
use telemetry::{RunReport, SpanKind};

use crate::timeline::format_ns;

/// Time attribution for one partition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionProfile {
    /// Partition id.
    pub pid: usize,
    /// Nanoseconds in operator compute on this partition.
    pub compute_ns: u64,
    /// Nanoseconds of shuffle cost attributed to this partition.
    pub shuffle_ns: u64,
    /// Nanoseconds blocked on the peer exchange (worker tracks of direct
    /// data-plane cluster runs; zero elsewhere).
    pub exchange_ns: u64,
    /// Bytes shipped to peers over the direct data plane (worker tracks
    /// only; zero elsewhere).
    pub peer_bytes: u64,
    /// Flagged as a straggler against the median partition.
    pub straggler: bool,
}

impl PartitionProfile {
    /// Compute plus shuffle plus exchange wait.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.shuffle_ns + self.exchange_ns
    }
}

/// The assembled profile.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per-partition attribution, ordered by pid.
    pub partitions: Vec<PartitionProfile>,
    /// Per-worker attribution from the cluster's merged telemetry
    /// (`worker_compute_ns` / `worker_shuffle_ns` / `worker_exchange_ns` /
    /// `net/peer_bytes` tracks, `pid` = worker id). Empty for
    /// single-process reports.
    pub workers: Vec<PartitionProfile>,
    /// Total nanoseconds per operator kind (from `op/<kind>_ns` histograms).
    pub operators: Vec<(String, u64)>,
    /// Wall-clock totals per phase label from the report's span totals.
    pub phases: Vec<(String, u64)>,
    /// The straggler threshold that was applied.
    pub straggler_factor: f64,
}

fn partition_track(name: &str, prefix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?.strip_prefix("/p")?.parse().ok()
}

/// Build a profile from a loaded report and the metrics snapshot written
/// with it. `straggler_factor` is the multiple of the median partition
/// total beyond which a partition is flagged.
pub fn build_profile(
    report: &RunReport,
    metrics: &MetricsSnapshot,
    straggler_factor: f64,
) -> Profile {
    let mut partitions: BTreeMap<usize, PartitionProfile> = BTreeMap::new();
    let mut workers: BTreeMap<usize, PartitionProfile> = BTreeMap::new();
    let mut operators: BTreeMap<String, u64> = BTreeMap::new();
    for (name, stats) in &metrics.histograms {
        if let Some(pid) = partition_track(name, "partition_task_ns") {
            let slot = partitions
                .entry(pid)
                .or_insert_with(|| PartitionProfile { pid, ..Default::default() });
            slot.compute_ns += stats.sum;
        } else if let Some(pid) = partition_track(name, "partition_shuffle_ns") {
            let slot = partitions
                .entry(pid)
                .or_insert_with(|| PartitionProfile { pid, ..Default::default() });
            slot.shuffle_ns += stats.sum;
        } else if let Some(worker) = partition_track(name, "worker_compute_ns") {
            let slot = workers
                .entry(worker)
                .or_insert_with(|| PartitionProfile { pid: worker, ..Default::default() });
            slot.compute_ns += stats.sum;
        } else if let Some(worker) = partition_track(name, "worker_shuffle_ns") {
            let slot = workers
                .entry(worker)
                .or_insert_with(|| PartitionProfile { pid: worker, ..Default::default() });
            slot.shuffle_ns += stats.sum;
        } else if let Some(worker) = partition_track(name, "worker_exchange_ns") {
            let slot = workers
                .entry(worker)
                .or_insert_with(|| PartitionProfile { pid: worker, ..Default::default() });
            slot.exchange_ns += stats.sum;
        } else if let Some(worker) = partition_track(name, "net/peer_bytes") {
            let slot = workers
                .entry(worker)
                .or_insert_with(|| PartitionProfile { pid: worker, ..Default::default() });
            slot.peer_bytes += stats.sum;
        } else if let Some(op) = name.strip_prefix("op/").and_then(|n| n.strip_suffix("_ns")) {
            *operators.entry(op.to_string()).or_default() += stats.sum;
        }
    }

    let mut partitions: Vec<PartitionProfile> = partitions.into_values().collect();
    let mut totals: Vec<u64> = partitions.iter().map(PartitionProfile::total_ns).collect();
    totals.sort_unstable();
    let median = if totals.is_empty() { 0 } else { totals[totals.len() / 2] };
    for p in &mut partitions {
        p.straggler = median > 0 && p.total_ns() as f64 >= straggler_factor * median as f64;
    }

    let mut operators: Vec<(String, u64)> = operators.into_iter().collect();
    operators.sort_by_key(|o| std::cmp::Reverse(o.1));

    let mut phases: Vec<(String, u64)> =
        report.span_totals.iter().map(|(k, v)| (k.clone(), v.as_nanos() as u64)).collect();
    phases.sort_by_key(|p| std::cmp::Reverse(p.1));

    Profile {
        partitions,
        workers: workers.into_values().collect(),
        operators,
        phases,
        straggler_factor,
    }
}

fn bar(part: u64, max: u64, width: usize) -> String {
    let filled = if max == 0 { 0 } else { (part as u128 * width as u128 / max as u128) as usize };
    let mut s = "#".repeat(filled);
    if part > 0 && filled == 0 {
        s.push('#');
    }
    s
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Render the profile as aligned text sections.
pub fn render_profile(profile: &Profile) -> String {
    let mut out = String::new();

    out.push_str("per-partition time (compute + shuffle):\n");
    if profile.partitions.is_empty() {
        out.push_str(
            "  (no per-partition histograms in this report; \
                      re-run with telemetry enabled)\n",
        );
    }
    let max_total = profile.partitions.iter().map(PartitionProfile::total_ns).max().unwrap_or(0);
    let grand_total: u64 = profile.partitions.iter().map(PartitionProfile::total_ns).sum();
    for p in &profile.partitions {
        out.push_str(&format!(
            "  p{:<3} |{:<24}| {:>6.2}%  compute {:>9}  shuffle {:>9}{}\n",
            p.pid,
            bar(p.total_ns(), max_total, 24),
            pct(p.total_ns(), grand_total),
            format_ns(p.compute_ns),
            format_ns(p.shuffle_ns),
            if p.straggler {
                format!("  STRAGGLER (>= {:.1}x median)", profile.straggler_factor)
            } else {
                String::new()
            },
        ));
    }

    if !profile.workers.is_empty() {
        out.push_str("\nper-worker time (worker-side clocks, cluster runs):\n");
        let w_max = profile.workers.iter().map(PartitionProfile::total_ns).max().unwrap_or(0);
        let w_total: u64 = profile.workers.iter().map(PartitionProfile::total_ns).sum();
        for w in &profile.workers {
            let exchange = if w.exchange_ns > 0 {
                format!("  exchange {:>9}", format_ns(w.exchange_ns))
            } else {
                String::new()
            };
            let traffic = if w.peer_bytes > 0 {
                format!("  ->peers {}B", w.peer_bytes)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  w{:<3} |{:<24}| {:>6.2}%  compute {:>9}  shuffle {:>9}{exchange}{traffic}\n",
                w.pid,
                bar(w.total_ns(), w_max, 24),
                pct(w.total_ns(), w_total),
                format_ns(w.compute_ns),
                format_ns(w.shuffle_ns),
            ));
        }
    }

    out.push_str("\nper-operator time:\n");
    if profile.operators.is_empty() {
        out.push_str("  (no op/<kind>_ns histograms in this report)\n");
    }
    let op_total: u64 = profile.operators.iter().map(|(_, ns)| ns).sum();
    let op_max = profile.operators.iter().map(|(_, ns)| *ns).max().unwrap_or(0);
    for (op, ns) in &profile.operators {
        out.push_str(&format!(
            "  {:<14} |{:<24}| {:>6.2}%  {:>9}\n",
            op,
            bar(*ns, op_max, 24),
            pct(*ns, op_total),
            format_ns(*ns),
        ));
    }

    out.push_str("\nphase wall-clock (span totals):\n");
    if profile.phases.is_empty() {
        out.push_str("  (report carries no span totals)\n");
    }
    let run_ns = profile
        .phases
        .iter()
        .find(|(k, _)| k == SpanKind::Run.label())
        .map(|(_, ns)| *ns)
        .unwrap_or_else(|| profile.phases.iter().map(|(_, ns)| ns).sum());
    for (phase, ns) in &profile.phases {
        out.push_str(&format!(
            "  {:<14} {:>9}  {:>6.2}% of run\n",
            phase,
            format_ns(*ns),
            pct(*ns, run_ns),
        ));
    }
    out
}

/// Render a report's metrics snapshot as a plain-text "top"-style view:
/// one run-summary line, then spans, counters, and histograms, with every
/// `*_ns` value in human-readable units. This is what `optirec top --once`
/// prints for a saved report sidecar.
pub fn render_metrics_top(summary: &RunReport, metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "run: {} supersteps, {} iterations, {}; failures {} \
         (compensations {}, rollbacks {}, restarts {})\n",
        summary.supersteps,
        summary.logical_iterations,
        if summary.converged { "converged" } else { "not converged" },
        summary.failures,
        summary.compensations,
        summary.rollbacks,
        summary.restarts,
    ));
    if !summary.span_totals.is_empty() {
        out.push_str("spans:\n");
        for (name, total) in &summary.span_totals {
            out.push_str(&format!("  {:<28} {:>10}\n", name, format_ns(total.as_nanos() as u64)));
        }
    }
    if !metrics.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &metrics.counters {
            out.push_str(&format!("  {:<28} {value:>10}\n", name));
        }
    }
    if !metrics.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, stats) in &metrics.histograms {
            // Nanosecond tracks (`x_ns`, `x_ns/p0`) get human units; other
            // histograms keep raw values.
            if name.ends_with("_ns") || name.contains("_ns/") {
                out.push_str(&format!(
                    "  {:<28} n={:<6} mean {:>9} p99 {:>9} max {:>9}\n",
                    name,
                    stats.count,
                    format_ns(stats.mean as u64),
                    format_ns(stats.p99),
                    format_ns(stats.max),
                ));
            } else {
                out.push_str(&format!(
                    "  {:<28} n={:<6} mean {:>9.1} p99 {:>9} max {:>9}\n",
                    name, stats.count, stats.mean, stats.p99, stats.max,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use telemetry::metrics::HistogramSummary;

    fn hist(sum: u64) -> HistogramSummary {
        HistogramSummary { count: 1, sum, mean: sum as f64, p99: sum, max: sum }
    }

    fn report_with_skew() -> (RunReport, MetricsSnapshot) {
        let (mut report, mut metrics) = (RunReport::default(), MetricsSnapshot::default());
        for (name, sum) in [
            ("partition_task_ns/p0", 100u64),
            ("partition_task_ns/p1", 110),
            ("partition_task_ns/p2", 600),
            ("partition_shuffle_ns/p0", 20),
            ("partition_shuffle_ns/p2", 50),
            ("op/reduce_ns", 400),
            ("op/join_ns", 300),
        ] {
            metrics.histograms.insert(name.to_string(), hist(sum));
        }
        for (label, ns) in [("run", 1000), ("compute", 700), ("recovery", 50)] {
            report.span_totals.insert(label.into(), Duration::from_nanos(ns));
        }
        (report, metrics)
    }

    #[test]
    fn stragglers_are_flagged_against_the_median() {
        let (report, metrics) = report_with_skew();
        let profile = build_profile(&report, &metrics, 2.0);
        assert_eq!(profile.partitions.len(), 3);
        assert!(!profile.partitions[0].straggler);
        assert!(!profile.partitions[1].straggler);
        assert!(profile.partitions[2].straggler);
        assert_eq!(profile.partitions[2].total_ns(), 650);
        // Operators sorted by time, descending.
        assert_eq!(profile.operators[0].0, "reduce");
    }

    #[test]
    fn render_mentions_stragglers_and_phases() {
        let (report, metrics) = report_with_skew();
        let profile = build_profile(&report, &metrics, 2.0);
        let text = render_profile(&profile);
        assert!(text.contains("STRAGGLER"), "{text}");
        assert!(text.contains("reduce"), "{text}");
        assert!(text.contains("% of run"), "{text}");
        // *_ns sums render with human-readable units, not raw nanoseconds:
        // the 1000ns run total shows as 1.0us.
        assert!(text.contains("600ns"), "{text}");
        assert!(text.contains("1.0us"), "{text}");
        assert!(!text.contains("1000ns"), "{text}");
    }

    #[test]
    fn worker_tracks_get_their_own_section_with_human_units() {
        let (report, mut metrics) = report_with_skew();
        metrics.histograms.insert("worker_compute_ns/p0".into(), hist(1_500_000));
        metrics.histograms.insert("worker_compute_ns/p1".into(), hist(2_500_000));
        metrics.histograms.insert("worker_shuffle_ns/p1".into(), hist(40_000));
        metrics.histograms.insert("worker_exchange_ns/p1".into(), hist(60_000));
        metrics.histograms.insert("net/peer_bytes/p1".into(), hist(8_192));
        let profile = build_profile(&report, &metrics, 2.0);
        assert_eq!(profile.workers.len(), 2);
        assert_eq!(profile.workers[1].total_ns(), 2_600_000);
        let text = render_profile(&profile);
        assert!(text.contains("per-worker time"), "{text}");
        assert!(text.contains("1.5ms"), "{text}");
        assert!(text.contains("40.0us"), "{text}");
        // Direct data-plane tracks render on the worker that shipped them.
        assert!(text.contains("exchange"), "{text}");
        assert!(text.contains("60.0us"), "{text}");
        assert!(text.contains("->peers 8192B"), "{text}");
        // Worker tracks must not leak into the per-partition section.
        assert_eq!(profile.partitions.len(), 3);
    }

    #[test]
    fn metrics_top_renders_counters_and_human_units() {
        let (mut report, mut metrics) = report_with_skew();
        report.supersteps = 7;
        report.logical_iterations = 7;
        report.converged = true;
        metrics.counters.insert("recovery/reshipped_bytes".into(), 4096);
        metrics.histograms.insert("recovery/detect_ns".into(), hist(2_000_000));
        let text = render_metrics_top(&report, &metrics);
        assert!(text.contains("run: 7 supersteps, 7 iterations, converged"), "{text}");
        assert!(text.contains("recovery/reshipped_bytes"), "{text}");
        assert!(text.contains("4096"), "{text}");
        assert!(text.contains("2.0ms"), "{text}");
        assert!(!text.contains("2000000"), "{text}");
    }

    #[test]
    fn empty_reports_render_placeholders() {
        let profile = build_profile(&RunReport::default(), &MetricsSnapshot::default(), 2.0);
        let text = render_profile(&profile);
        assert!(text.contains("no per-partition histograms"), "{text}");
    }
}
