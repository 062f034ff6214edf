//! ASCII Gantt timeline of a run: one row per superstep, bar length
//! proportional to wall-clock time, with failure / compensation / rollback
//! markers inline.
//!
//! Durations come from the `*.spans.jsonl` sidecar when one is available.
//! Journals deliberately carry no timing, so without spans the view falls
//! back to records-shuffled as a work proxy and says so in the header.

use std::collections::BTreeMap;

use telemetry::{JournalEvent, SpanKind, SpanRecord};

use crate::model::{label, RunModel, SuperstepRow};

/// Bar glyphs: compute, shuffle-dominated remainder, checkpoint, recovery,
/// and (worker lanes only) time blocked waiting on the peer exchange.
const COMPUTE: char = '#';
const SHUFFLE: char = '~';
const CHECKPOINT: char = '%';
const RECOVERY: char = '!';
const EXCHANGE: char = '.';

const MAX_BAR: usize = 48;
const LANE_BAR: usize = 24;

#[derive(Default, Clone, Copy)]
struct StepTiming {
    compute_ns: u64,
    shuffle_ns: u64,
    checkpoint_ns: u64,
    recovery_ns: u64,
}

impl StepTiming {
    fn total(&self) -> u64 {
        self.compute_ns + self.shuffle_ns + self.checkpoint_ns + self.recovery_ns
    }
}

fn timings_from_spans(spans: &[SpanRecord]) -> BTreeMap<u32, StepTiming> {
    let mut by_step: BTreeMap<u32, StepTiming> = BTreeMap::new();
    for span in spans {
        let Some(superstep) = span.superstep else { continue };
        let slot = by_step.entry(superstep).or_default();
        let ns = span.duration.as_nanos() as u64;
        match span.kind {
            SpanKind::Compute => slot.compute_ns += ns,
            SpanKind::Shuffle => slot.shuffle_ns += ns,
            SpanKind::Checkpoint => slot.checkpoint_ns += ns,
            SpanKind::Recovery => slot.recovery_ns += ns,
            // Superstep envelopes double-count their children; skip.
            SpanKind::Run | SpanKind::Superstep => {}
        }
    }
    by_step
}

/// Render a nanosecond count with a human-readable unit (`1.23s`,
/// `4.5ms`, `6.7us`, `890ns`). Shared by the timeline, profile, and
/// recovery views.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn annotations(row: &SuperstepRow) -> String {
    let events = |list: &[JournalEvent]| list.iter().filter_map(label).collect::<Vec<_>>();
    let mut notes = events(row.failure.as_slice());
    notes.extend(row.recovery.iter().map(|action| action.label()));
    for list in [
        &row.worker_events,
        &row.serve_events,
        &row.rebalances,
        &row.chaos,
        &row.snapshots,
        &row.recovery_costs,
    ] {
        notes.extend(events(list));
    }
    if let Some(bytes) = row.checkpoint_bytes {
        notes.push(format!("ckpt {bytes}B"));
    }
    notes.join("  ")
}

/// One worker's aggregated spans for one superstep row.
#[derive(Default)]
struct WorkerLane {
    compute_ns: u64,
    shuffle_ns: u64,
    exchange_ns: u64,
    peer_bytes: u64,
    pids: Vec<usize>,
}

impl WorkerLane {
    fn busy_ns(&self) -> u64 {
        self.compute_ns + self.shuffle_ns + self.exchange_ns
    }
}

/// Per-worker aggregation of one row's spans, in ascending worker order.
fn worker_lanes(row: &SuperstepRow) -> Vec<(usize, WorkerLane)> {
    let mut lanes: BTreeMap<usize, WorkerLane> = BTreeMap::new();
    for event in &row.worker_spans {
        let JournalEvent::WorkerSpan { worker, pid, span, records, duration_ns, .. } = event else {
            continue;
        };
        let lane = lanes.entry(*worker).or_default();
        match span.as_str() {
            "compute" => lane.compute_ns += duration_ns,
            "shuffle" => lane.shuffle_ns += duration_ns,
            "exchange" => lane.exchange_ns += duration_ns,
            // peer_bytes rows reuse `pid` for the destination worker and
            // `records` for the byte count: traffic accounting, not a timed
            // partition phase — keep them out of the partition list.
            "peer_bytes" => {
                lane.peer_bytes += records;
                continue;
            }
            _ => {}
        }
        if !lane.pids.contains(pid) {
            lane.pids.push(*pid);
        }
    }
    lanes.into_iter().collect()
}

/// Render the Gantt timeline. Pass the spans sidecar when available; without
/// it bar lengths fall back to records-shuffled as a work proxy.
pub fn render_timeline(model: &RunModel, spans: Option<&[SpanRecord]>) -> String {
    let timings = spans.map(timings_from_spans);
    let mut out = String::new();
    let mode = model.mode.map_or("?", |m| m.label());
    let epochs = if model.epochs > 0 {
        format!(", {} serve epochs", model.epochs + 1)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "timeline: {} supersteps, {} partitions, mode={mode}, {}{epochs}\n",
        model.rows.len(),
        model.parallelism,
        if model.converged { "converged" } else { "not converged" },
    ));
    match &timings {
        Some(_) => out.push_str(
            "bar = wall-clock per superstep  \
                                 (# compute, ~ shuffle, % checkpoint, ! recovery)\n",
        ),
        None => out.push_str("no spans sidecar: bar = records shuffled (work proxy)\n"),
    }
    let lane_max = model
        .rows
        .iter()
        .flat_map(|r| worker_lanes(r).into_iter().map(|(_, lane)| lane.busy_ns()))
        .max()
        .unwrap_or(0);
    if lane_max > 0 {
        out.push_str(&format!(
            "worker lanes: {} workers reported spans (w<id> rows, worker-side clocks)\n",
            model.span_workers().len(),
        ));
    }
    out.push('\n');

    // Scale bars against the largest superstep.
    let weight = |row: &SuperstepRow| -> u64 {
        match &timings {
            Some(t) => t.get(&row.superstep).map_or(0, StepTiming::total),
            None => row.records_shuffled,
        }
    };
    let max_weight = model.rows.iter().map(weight).max().unwrap_or(0).max(1);
    let scaled = |part: u64| -> usize {
        if part == 0 {
            0
        } else {
            // At least one glyph for any nonzero segment.
            ((part as u128 * MAX_BAR as u128 / max_weight as u128) as usize).max(1)
        }
    };

    for row in &model.rows {
        let mut bar = String::new();
        match &timings {
            Some(t) => {
                let step = t.get(&row.superstep).copied().unwrap_or_default();
                bar.extend(std::iter::repeat_n(COMPUTE, scaled(step.compute_ns)));
                bar.extend(std::iter::repeat_n(SHUFFLE, scaled(step.shuffle_ns)));
                bar.extend(std::iter::repeat_n(CHECKPOINT, scaled(step.checkpoint_ns)));
                bar.extend(std::iter::repeat_n(RECOVERY, scaled(step.recovery_ns)));
            }
            None => {
                bar.extend(std::iter::repeat_n(COMPUTE, scaled(row.records_shuffled)));
                if row.checkpoint_bytes.is_some() {
                    bar.push(CHECKPOINT);
                }
                if row.failure.is_some() {
                    bar.push(RECOVERY);
                }
            }
        }
        let detail = match &timings {
            Some(t) => {
                let step = t.get(&row.superstep).copied().unwrap_or_default();
                format_ns(step.total())
            }
            None => format!("{} shuffled", row.records_shuffled),
        };
        let notes = annotations(row);
        out.push_str(&format!(
            "s{:>3} it{:<3} |{:<width$}| {}{}{}\n",
            row.superstep,
            row.iteration,
            bar,
            detail,
            if notes.is_empty() { "" } else { "  " },
            notes,
            width = MAX_BAR,
        ));
        // Per-worker lanes under the superstep they measured, scaled
        // against the busiest worker-superstep in the run.
        for (worker, stats) in worker_lanes(row) {
            let lane_scaled = |part: u64| -> usize {
                if part == 0 {
                    0
                } else {
                    ((part as u128 * LANE_BAR as u128 / lane_max.max(1) as u128) as usize).max(1)
                }
            };
            let mut lane = String::new();
            lane.extend(std::iter::repeat_n(COMPUTE, lane_scaled(stats.compute_ns)));
            lane.extend(std::iter::repeat_n(SHUFFLE, lane_scaled(stats.shuffle_ns)));
            lane.extend(std::iter::repeat_n(EXCHANGE, lane_scaled(stats.exchange_ns)));
            let exchange = if stats.exchange_ns > 0 {
                format!(" exchange {}", format_ns(stats.exchange_ns))
            } else {
                String::new()
            };
            let traffic = if stats.peer_bytes > 0 {
                format!(" ->peers {}B", stats.peer_bytes)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "     w{:<4} |{:<width$}| compute {} shuffle {}{exchange}{traffic} p{:?}\n",
                worker,
                lane,
                format_ns(stats.compute_ns),
                format_ns(stats.shuffle_ns),
                stats.pids,
                width = LANE_BAR,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RecoveryAction;
    use std::time::Duration;

    fn lost(worker: usize) -> JournalEvent {
        JournalEvent::WorkerLost { superstep: 2, iteration: 2, worker, lost_partitions: vec![1] }
    }

    fn worker_span(worker: usize, pid: usize, span: &str, records: u64, ns: u64) -> JournalEvent {
        JournalEvent::WorkerSpan {
            superstep: 0,
            worker,
            seq: 0,
            pid,
            span: span.into(),
            records,
            duration_ns: ns,
        }
    }

    fn model_with_failure() -> RunModel {
        let mut model = RunModel { parallelism: 2, converged: true, ..Default::default() };
        model.rows.push(SuperstepRow {
            superstep: 0,
            iteration: 0,
            records_shuffled: 40,
            ..Default::default()
        });
        model.rows.push(SuperstepRow {
            superstep: 1,
            iteration: 1,
            records_shuffled: 20,
            failure: Some(JournalEvent::FailureInjected {
                superstep: 1,
                iteration: 1,
                lost_partitions: vec![1],
                lost_records: 9,
            }),
            recovery: vec![RecoveryAction::Compensation { name: Some("Fix".into()) }],
            worker_events: vec![
                lost(1),
                JournalEvent::WorkerRejoined { superstep: 2, worker: 1, reconnect_attempts: 2 },
            ],
            ..Default::default()
        });
        model
    }

    #[test]
    fn proxy_timeline_marks_failures_and_recovery() {
        let text = render_timeline(&model_with_failure(), None);
        assert!(text.contains("work proxy"), "{text}");
        assert!(text.contains("FAIL p[1] (-9 records)"), "{text}");
        assert!(text.contains("compensate[Fix]"), "{text}");
        assert!(text.contains("worker 1 LOST p[1]"), "{text}");
        assert!(text.contains("worker 1 rejoined (2 attempts)"), "{text}");
        // Superstep 0 shuffled twice as much: its bar is the longest.
        let bar_len = |line: &str| line.chars().filter(|&c| c == COMPUTE).count();
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with('s')).collect();
        assert!(bar_len(lines[0]) > bar_len(lines[1]), "{text}");
    }

    #[test]
    fn rescale_markers_render_inline() {
        let mut model = model_with_failure();
        model.rows[1].rebalances = vec![
            JournalEvent::RebalanceStarted { superstep: 1, from_workers: 2, to_workers: 4 },
            JournalEvent::RebalanceCompleted {
                superstep: 1,
                moved_partitions: 2,
                reshipped_bytes: 1024,
            },
        ];
        model.rows[1].worker_events.push(JournalEvent::WorkerJoined { superstep: 1, worker: 2 });
        let text = render_timeline(&model, None);
        assert!(text.contains("rescale 2->4 workers"), "{text}");
        assert!(text.contains("rebalanced: 2 moved, 1024B reshipped"), "{text}");
        assert!(text.contains("worker 2 joined (scale-up)"), "{text}");
    }

    #[test]
    fn serve_epoch_markers_render_inline() {
        let mut model = model_with_failure();
        model.epochs = 1;
        model.rows[0].serve_events.push(JournalEvent::MutationBatch {
            epoch: 1,
            inserts: 3,
            deletes: 1,
            seeded: 5,
        });
        model.rows[1].serve_events.push(JournalEvent::Reconverge {
            epoch: 1,
            supersteps: 2,
            converged: true,
        });
        model.rows[1].serve_events.push(JournalEvent::Query {
            epoch: 1,
            kind: "top".into(),
            results: 3,
        });
        let text = render_timeline(&model, None);
        assert!(text.contains("2 serve epochs"), "{text}");
        assert!(text.contains("epoch 1: +3/-1 edges, 5 seeded"), "{text}");
        assert!(text.contains("epoch 1 reconverged in 2 supersteps (converged)"), "{text}");
        assert!(text.contains("epoch 1 query[top] -> 3"), "{text}");
    }

    #[test]
    fn worker_lanes_render_under_their_superstep() {
        let mut model = model_with_failure();
        for (worker, pid, label, ns) in [
            (0usize, 0usize, "compute", 40_000u64),
            (0, 0, "shuffle", 2_000),
            (1, 1, "compute", 80_000),
        ] {
            model.rows[0].worker_spans.push(worker_span(worker, pid, label, 5, ns));
        }
        model.rows[1].recovery_costs.push(JournalEvent::RecoveryCost {
            superstep: 2,
            worker: 1,
            detection: "heartbeat".into(),
            detect_ns: 1_200_000,
            respawn_ns: 3_000_000,
            reshipped_bytes: 4096,
        });
        let text = render_timeline(&model, None);
        assert!(text.contains("worker lanes: 2 workers reported spans"), "{text}");
        assert!(text.contains("w0"), "{text}");
        assert!(text.contains("compute 40.0us shuffle 2.0us p[0]"), "{text}");
        assert!(text.contains("compute 80.0us shuffle 0ns p[1]"), "{text}");
        assert!(
            text.contains("bill[w1 heartbeat: detect 1.2ms respawn 3.0ms reship 4096B]"),
            "{text}"
        );
    }

    #[test]
    fn exchange_and_peer_traffic_render_without_polluting_partitions() {
        let mut model = model_with_failure();
        for (pid, span, records, ns) in [
            (0usize, "compute", 5u64, 40_000u64),
            (0, "exchange", 0, 10_000),
            // Traffic rows: pid is the *destination worker*, records = bytes.
            (1, "peer_bytes", 4096, 2),
        ] {
            model.rows[0].worker_spans.push(worker_span(0, pid, span, records, ns));
        }
        let text = render_timeline(&model, None);
        assert!(text.contains("exchange 10.0us"), "{text}");
        assert!(text.contains("->peers 4096B"), "{text}");
        // Destination worker 1 must not show up as a partition of worker 0.
        assert!(text.contains("p[0]"), "{text}");
        assert!(!text.contains("p[0, 1]"), "{text}");
    }

    #[test]
    fn span_timeline_draws_phase_segments() {
        let spans = vec![
            SpanRecord {
                kind: SpanKind::Compute,
                superstep: Some(0),
                iteration: Some(0),
                duration: Duration::from_nanos(3_000),
            },
            SpanRecord {
                kind: SpanKind::Shuffle,
                superstep: Some(0),
                iteration: Some(0),
                duration: Duration::from_nanos(1_000),
            },
            SpanRecord {
                kind: SpanKind::Recovery,
                superstep: Some(1),
                iteration: Some(1),
                duration: Duration::from_nanos(2_000),
            },
        ];
        let text = render_timeline(&model_with_failure(), Some(&spans));
        assert!(text.contains(SHUFFLE), "{text}");
        assert!(text.contains(RECOVERY), "{text}");
        assert!(text.contains("4.0us"), "{text}");
    }
}
