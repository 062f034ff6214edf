//! Convergence view: the paper's figures in a terminal.
//!
//! Plots the per-superstep changed-element count, the algorithm's delta
//! norm, and (for delta runs) the working-set size, with failure markers on
//! the x-axis and a recovery overlay row showing where compensations (`c`)
//! and rollbacks/restarts (`r`) ran. This is the shape the paper uses to
//! argue optimistic recovery: a spike at the failure superstep followed by
//! re-convergence, instead of a rollback's flat replay.

use std::path::Path;

use flowviz::chart::{ascii_chart, ChartOptions};
use flowviz::csv::write_table_csv;

use crate::model::RunModel;

/// The extracted curves, indexed by chronological superstep.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceCurves {
    /// Elements changed per superstep.
    pub changed: Vec<f64>,
    /// Delta norm per superstep (`NaN` where no probe value was recorded,
    /// so the chart leaves a gap instead of inventing a zero).
    pub delta_norm: Vec<f64>,
    /// Working-set size per superstep (delta runs; `NaN` for bulk).
    pub workset: Vec<f64>,
    /// Supersteps where failures struck.
    pub failures: Vec<u32>,
    /// Supersteps after which a compensation ran.
    pub compensations: Vec<u32>,
    /// Supersteps after which a rollback or restart ran.
    pub rollbacks: Vec<u32>,
}

/// Pull the convergence curves out of a folded run.
pub fn extract_curves(model: &RunModel) -> ConvergenceCurves {
    let mut curves = ConvergenceCurves {
        failures: model.failure_supersteps(),
        compensations: model.compensation_supersteps(),
        rollbacks: model.rollback_supersteps(),
        ..Default::default()
    };
    for row in &model.rows {
        match &row.sample {
            Some(sample) => {
                curves.changed.push(sample.changed as f64);
                curves.delta_norm.push(sample.delta_norm.unwrap_or(f64::NAN));
            }
            None => {
                curves.changed.push(f64::NAN);
                curves.delta_norm.push(f64::NAN);
            }
        }
        curves.workset.push(row.workset_size.map_or(f64::NAN, |w| w as f64));
    }
    curves
}

fn has_data(series: &[f64]) -> bool {
    series.iter().any(|v| v.is_finite())
}

/// Recovery overlay row aligned under the chart axis: `c` where a
/// compensation ran, `r` where a rollback/restart ran. Uses the same
/// bucketing as [`ascii_chart`] so positions line up after downsampling.
fn overlay_row(curves: &ConvergenceCurves, len: usize, max_width: usize) -> Option<String> {
    if curves.compensations.is_empty() && curves.rollbacks.is_empty() {
        return None;
    }
    let bucket = len.div_ceil(max_width).max(1);
    let width = len.div_ceil(bucket);
    let mut row = vec![' '; width];
    for &s in &curves.compensations {
        if let Some(slot) = row.get_mut(s as usize / bucket) {
            *slot = 'c';
        }
    }
    for &s in &curves.rollbacks {
        if let Some(slot) = row.get_mut(s as usize / bucket) {
            *slot = 'r';
        }
    }
    Some(format!(
        "{}  {}  (c = compensation, r = rollback/restart)\n",
        " ".repeat(10),
        row.into_iter().collect::<String>()
    ))
}

/// Render the terminal convergence view.
pub fn render_convergence(model: &RunModel) -> String {
    let curves = extract_curves(model);
    let mut out = String::new();
    let mode = model.mode.map_or("?", |m| m.label());
    out.push_str(&format!(
        "convergence: {} supersteps ({} logical), mode={mode}, {}\n",
        model.rows.len(),
        model.logical_iterations,
        if model.converged { "converged" } else { "not converged" },
    ));
    out.push_str(&format!("failures at supersteps: {:?}\n", curves.failures));
    if !curves.compensations.is_empty() {
        out.push_str(&format!("compensations at supersteps: {:?}\n", curves.compensations));
    }
    if !curves.rollbacks.is_empty() {
        out.push_str(&format!("rollbacks at supersteps: {:?}\n", curves.rollbacks));
    }
    out.push('\n');

    if !has_data(&curves.changed) {
        out.push_str(
            "(journal carries no ConvergenceSample events; \
             re-run with telemetry enabled to record them)\n",
        );
        return out;
    }

    let options = |title: &str| {
        ChartOptions::titled(title).with_markers(curves.failures.clone()).with_height(10)
    };
    let mut chart = |title: &str, series: &[f64]| {
        if has_data(series) {
            out.push_str(&ascii_chart(series, &options(title)));
            if let Some(overlay) = overlay_row(&curves, series.len(), 72) {
                out.push_str(&overlay);
            }
            out.push('\n');
        }
    };
    chart("elements changed per superstep", &curves.changed);
    chart("delta norm per superstep", &curves.delta_norm);
    chart("working-set size per superstep", &curves.workset);
    out
}

fn csv_rows(model: &RunModel) -> Vec<Vec<String>> {
    let fmt_f64 = |v: f64| if v.is_finite() { format!("{v:?}") } else { String::new() };
    model
        .rows
        .iter()
        .map(|row| {
            let (changed, norm) = match &row.sample {
                Some(s) => (s.changed.to_string(), s.delta_norm.map_or(String::new(), fmt_f64)),
                None => (String::new(), String::new()),
            };
            vec![
                row.superstep.to_string(),
                row.iteration.to_string(),
                changed,
                norm,
                row.workset_size.map_or(String::new(), |w| w.to_string()),
                row.records_shuffled.to_string(),
                if row.failure.is_some() { "1" } else { "0" }.to_string(),
                row.recovery.iter().map(|a| a.label()).collect::<Vec<_>>().join("+"),
            ]
        })
        .collect()
}

/// The first line of the convergence CSV.
const CSV_HEADER: &str =
    "superstep,iteration,changed,delta_norm,workset_size,records_shuffled,failure,recovery";

/// Export the per-superstep convergence table as CSV.
pub fn write_convergence_csv(model: &RunModel, path: &Path) -> std::io::Result<()> {
    write_table_csv(&CSV_HEADER.split(',').collect::<Vec<_>>(), &csv_rows(model), path)
}

fn svg_polyline(series: &[f64], color: &str, width: f64, height: f64) -> String {
    let finite: Vec<(usize, f64)> =
        series.iter().copied().enumerate().filter(|(_, v)| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, v)| (lo.min(v), hi.max(v)));
    let span = if (hi - lo).abs() < f64::EPSILON { 1.0 } else { hi - lo };
    let n = series.len().max(2) as f64;
    let points: Vec<String> = finite
        .iter()
        .map(|&(x, v)| {
            let px = x as f64 / (n - 1.0) * width;
            let py = height - (v - lo) / span * height;
            format!("{px:.1},{py:.1}")
        })
        .collect();
    format!(
        "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>\n",
        points.join(" ")
    )
}

/// Export an HTML page with inline-SVG convergence charts and recovery
/// markers. Self-contained: no scripts, no external assets.
pub fn write_convergence_html(model: &RunModel, path: &Path) -> std::io::Result<()> {
    let curves = extract_curves(model);
    let (w, h) = (640.0, 160.0);
    let n = curves.changed.len().max(2) as f64;
    let x_of = |s: u32| s as f64 / (n - 1.0) * w;

    let mut marks = String::new();
    for &s in &curves.failures {
        marks.push_str(&format!(
            "<line x1=\"{x:.1}\" y1=\"0\" x2=\"{x:.1}\" y2=\"{h}\" stroke=\"#c0392b\" \
             stroke-dasharray=\"4,3\"/>\n",
            x = x_of(s)
        ));
    }
    for &s in &curves.compensations {
        marks.push_str(&format!(
            "<circle cx=\"{x:.1}\" cy=\"8\" r=\"4\" fill=\"#27ae60\"/>\n",
            x = x_of(s)
        ));
    }
    for &s in &curves.rollbacks {
        marks.push_str(&format!(
            "<rect x=\"{x:.1}\" y=\"4\" width=\"8\" height=\"8\" fill=\"#f39c12\"/>\n",
            x = x_of(s) - 4.0
        ));
    }

    let panel = |title: &str, series: &[f64], color: &str| -> String {
        if !has_data(series) {
            return String::new();
        }
        format!(
            "<h2>{title}</h2>\n<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
             style=\"background:#fafafa;border:1px solid #ddd\">\n{}{marks}</svg>\n",
            svg_polyline(series, color, w, h),
        )
    };
    let body = [
        panel("Elements changed per superstep", &curves.changed, "#2980b9"),
        panel("Delta norm per superstep", &curves.delta_norm, "#8e44ad"),
        panel("Working-set size per superstep", &curves.workset, "#16a085"),
    ]
    .concat();

    let html = format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>convergence</title></head>\n<body style=\"font-family:sans-serif\">\n\
         <h1>Convergence ({} supersteps, {})</h1>\n\
         <p>dashed red line = failure, green dot = compensation, \
         orange square = rollback/restart</p>\n{body}</body></html>\n",
        model.rows.len(),
        if model.converged { "converged" } else { "not converged" },
    );
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, html)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConvergencePoint, RecoveryAction, SuperstepRow};
    use telemetry::{IterationMode, JournalEvent};

    fn sample_model() -> RunModel {
        let mut model = RunModel {
            mode: Some(IterationMode::Delta),
            parallelism: 2,
            converged: true,
            logical_iterations: 4,
            ..Default::default()
        };
        for (s, changed, workset) in [(0u32, 9u64, 6u64), (1, 5, 4), (2, 7, 5), (3, 1, 0)] {
            model.rows.push(SuperstepRow {
                superstep: s,
                iteration: s,
                records_shuffled: changed * 2,
                workset_size: Some(workset),
                sample: Some(ConvergencePoint {
                    changed,
                    changed_per_partition: vec![changed / 2, changed - changed / 2],
                    delta_norm: Some(changed as f64 * 0.5),
                    workset_per_partition: None,
                }),
                ..Default::default()
            });
        }
        model.rows[1].failure = Some(JournalEvent::FailureInjected {
            superstep: 1,
            iteration: 1,
            lost_partitions: vec![0],
            lost_records: 3,
        });
        model.rows[1].recovery = vec![RecoveryAction::Compensation { name: Some("Fix".into()) }];
        model
    }

    #[test]
    fn render_shows_failure_and_compensation_supersteps() {
        let text = render_convergence(&sample_model());
        assert!(text.contains("failures at supersteps: [1]"), "{text}");
        assert!(text.contains("compensations at supersteps: [1]"), "{text}");
        assert!(text.contains("elements changed per superstep"), "{text}");
        // Failure marker lands on the axis and the overlay marks the
        // compensation at the same x position.
        let axis = text.lines().find(|l| l.contains('+')).unwrap();
        let marker_col = axis.find('!').unwrap();
        let overlay = text.lines().find(|l| l.contains("(c = compensation")).unwrap();
        assert_eq!(overlay.chars().nth(marker_col), Some('c'), "{text}");
    }

    #[test]
    fn journals_without_samples_render_a_hint() {
        let mut model = sample_model();
        for row in &mut model.rows {
            row.sample = None;
            row.workset_size = None;
        }
        let text = render_convergence(&model);
        assert!(text.contains("no ConvergenceSample events"), "{text}");
    }

    #[test]
    fn exports_create_missing_parent_directories() {
        let model = sample_model();
        let dir = std::env::temp_dir().join("flowscope_convergence_parents_test");
        std::fs::remove_dir_all(&dir).ok();
        // Both exports point into a directory that does not exist yet; a
        // bare `fs::write` would fail with NotFound here.
        write_convergence_csv(&model, &dir.join("deep/curves.csv")).unwrap();
        write_convergence_html(&model, &dir.join("deeper/curves.html")).unwrap();
        assert!(dir.join("deep/curves.csv").exists());
        assert!(dir.join("deeper/curves.html").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_and_html_exports_write_files() {
        let model = sample_model();
        let dir = std::env::temp_dir().join("flowscope_convergence_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("curves.csv");
        let html = dir.join("curves.html");
        write_convergence_csv(&model, &csv).unwrap();
        write_convergence_html(&model, &html).unwrap();
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(csv_text.starts_with("superstep,iteration,changed"), "{csv_text}");
        assert!(csv_text.contains("compensate[Fix]"), "{csv_text}");
        let html_text = std::fs::read_to_string(&html).unwrap();
        assert!(html_text.contains("<polyline"), "{html_text}");
        assert!(html_text.contains("stroke-dasharray"), "{html_text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
