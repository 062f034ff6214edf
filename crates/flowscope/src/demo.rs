//! Demo view: the paper's GUI, drawn from a journal.
//!
//! The demonstration's GUI shows, per iteration, the small graph — one
//! colour per Connected Components label, PageRank vertices sized by their
//! rank — with the vertices of failed partitions highlighted, and two
//! statistics plots per algorithm. A demo-sized run journals all of it as
//! `StateSample` events. This module draws them: one screen per superstep
//! ([`Frame::screen`]) and the two plots with the failures marked
//! ([`render_demo`]).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use flowviz::chart::{ascii_chart, ChartOptions};
use telemetry::{JournalEvent, Norm};

/// Columns of a rank bar at the largest rank.
const BAR_WIDTH: usize = 40;

/// One sampled superstep: its `StateSample`, plus what the journal says
/// failed and recovered in that superstep.
#[derive(Debug, Clone)]
pub struct Frame<'a> {
    /// Chronological superstep.
    pub superstep: u32,
    /// Logical iteration.
    pub iteration: u32,
    /// `"cc"` or `"pagerank"`.
    pub algorithm: &'a str,
    /// The state by vertex id (`NaN` where a vertex holds none).
    pub state: &'a [Norm],
    /// Vertices of the partitions lost in the superstep.
    pub lost_vertices: &'a [u64],
    /// The plotted series at this superstep.
    pub series: &'a BTreeMap<String, Norm>,
    /// One line per failure and recovery journaled in the superstep.
    pub notes: Vec<String>,
}

impl Frame<'_> {
    /// The frame's graph state as a screen.
    pub fn screen(&self) -> String {
        render_screen(self.algorithm, self.state, self.lost_vertices)
    }

    /// The value of series `name` at this superstep (`NaN` when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.series.get(name).map_or(f64::NAN, |v| v.0)
    }
}

/// The journal's sampled supersteps, in order.
pub fn frames(events: &[JournalEvent]) -> Vec<Frame<'_>> {
    use JournalEvent as E;
    let mut frames = Vec::new();
    let mut notes = Vec::new();
    for event in events {
        let note = match event {
            E::StateSample { superstep, iteration, algorithm, state, lost_vertices, series } => {
                let notes = std::mem::take(&mut notes);
                let (superstep, iteration) = (*superstep, *iteration);
                frames.push(Frame {
                    superstep,
                    iteration,
                    algorithm,
                    state,
                    lost_vertices,
                    series,
                    notes,
                });
                continue;
            }
            E::FailureInjected { lost_partitions, lost_records, .. } => format!(
                "failure destroyed partition(s) {lost_partitions:?} ({lost_records} records)"
            ),
            E::CompensationInvoked { name, .. } => {
                format!("{name} re-initialised the lost vertices")
            }
            E::RolledBack { to_iteration } => format!("rolled back to iteration {to_iteration}"),
            E::Restarted => "restarted from the initial state".to_owned(),
            E::FailureIgnored { .. } => "failure ignored".to_owned(),
            _ => continue,
        };
        notes.push(note);
    }
    frames
}

/// The paper's two plots of `algorithm`: the series name and its title.
fn plots(algorithm: &str) -> [(&'static str, &'static str); 2] {
    match algorithm {
        "cc" => [
            ("converged", "plot (i): vertices converged to their final component"),
            ("messages", "plot (ii): messages (candidate labels) per iteration"),
        ],
        _ => [
            ("converged", "plot (i): vertices converged to their true PageRank"),
            ("l1_diff", "plot (ii): L1 norm between consecutive rank estimates"),
        ],
    }
}

fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.6}")
    }
}

/// The demo view of a journal: every sampled superstep's screen, failures
/// noted, then the algorithm's two plots with the failures marked.
pub fn render_demo(events: &[JournalEvent]) -> String {
    let frames = frames(events);
    let Some(first) = frames.first() else {
        return "(journal carries no StateSample events; record a cc or pagerank run over a \
                demo-sized graph with --journal)\n"
            .to_owned();
    };
    let name = if first.algorithm == "cc" { "Connected Components" } else { "PageRank" };
    let mut out = format!(
        "demo: {name}, {} vertices, {} supersteps sampled\n\n",
        first.state.len(),
        frames.len()
    );
    for frame in &frames {
        let series: Vec<String> =
            frame.series.iter().map(|(k, v)| format!("{k} {}", format_value(v.0))).collect();
        out.push_str(&format!(
            "== superstep {} (iteration {}): {} ==\n",
            frame.superstep,
            frame.iteration,
            series.join(", ")
        ));
        for note in &frame.notes {
            out.push_str(&format!("   !! {note}\n"));
        }
        out.push_str(&frame.screen());
        out.push('\n');
    }
    let markers: Vec<u32> =
        (0u32..).zip(&frames).filter(|(_, f)| !f.notes.is_empty()).map(|(i, _)| i).collect();
    for (series, title) in plots(first.algorithm) {
        let values: Vec<f64> = frames.iter().map(|f| f.value(series)).collect();
        let options = ChartOptions::titled(title).with_markers(markers.clone());
        out.push_str(&ascii_chart(&values, &options));
        out.push('\n');
    }
    out
}

/// One screen: the graph state of `algorithm` by vertex id (`NaN` where a
/// vertex holds none), the vertices in `lost` marked. Connected Components
/// groups the vertices by label, one group per GUI colour; PageRank draws
/// one bar per vertex, proportional to its rank (the GUI's vertex sizes).
fn render_screen(algorithm: &str, state: &[Norm], lost: &[u64]) -> String {
    let present = (0u64..).zip(state).filter(|(_, x)| !x.0.is_nan()).map(|(v, x)| (v, x.0));
    let lost: BTreeSet<u64> = lost.iter().copied().collect();
    match algorithm {
        "cc" => render_components(present.map(|(v, label)| (v, label as u64)), &lost),
        _ => render_ranks(present, &lost),
    }
}

fn render_components(labels: impl Iterator<Item = (u64, u64)>, lost: &BTreeSet<u64>) -> String {
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (v, label) in labels {
        groups.entry(label).or_default().push(v);
    }
    let mut out = format!("  {} component(s):\n", groups.len());
    for (label, members) in groups {
        let rendered: Vec<String> = members
            .iter()
            .map(|v| if lost.contains(v) { format!("[{v}!]") } else { v.to_string() })
            .collect();
        out.push_str(&format!("  label {label:>4}: {{{}}}\n", rendered.join(", ")));
    }
    if !lost.is_empty() {
        out.push_str("  ([v!] = vertex lost in the failure, restored by compensation)\n");
    }
    out
}

fn render_ranks(ranks: impl Iterator<Item = (u64, f64)> + Clone, lost: &BTreeSet<u64>) -> String {
    let max = ranks.clone().map(|(_, r)| r).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
    let mut out = String::new();
    for (v, rank) in ranks {
        let bar_len = ((rank / max) * BAR_WIDTH as f64).round() as usize;
        let marker = if lost.contains(&v) { "!" } else { " " };
        out.push_str(&format!("  v{v:<4}{marker} {:<BAR_WIDTH$} {rank:.5}\n", "#".repeat(bar_len)));
    }
    if !lost.is_empty() {
        out.push_str("  (! = vertex lost in the failure, restored by compensation)\n");
    }
    out
}

/// Render the centroids of the k-means demo.
pub fn render_centroids(centroids: &[(u64, f64, f64)]) -> String {
    let mut out = String::new();
    for &(cid, x, y) in centroids {
        out.push_str(&format!("  centroid {cid}: ({x:8.3}, {y:8.3})\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norms(values: &[f64]) -> Vec<Norm> {
        values.iter().copied().map(Norm).collect()
    }

    #[test]
    fn components_group_by_label() {
        let text = render_screen("cc", &norms(&[0.0, 0.0, 2.0, 2.0, 0.0]), &[]);
        assert!(text.contains("2 component(s)"));
        assert!(text.contains("label    0: {0, 1, 4}"));
        assert!(text.contains("label    2: {2, 3}"));
    }

    #[test]
    fn lost_vertices_are_marked_and_stateless_ones_skipped() {
        let text = render_screen("cc", &norms(&[0.0, 1.0, f64::NAN]), &[1]);
        assert!(text.contains("[1!]"), "{text}");
        assert!(text.contains("2 component(s)"), "{text}");
        assert!(text.contains("restored by compensation"));
    }

    #[test]
    fn rank_bars_scale_with_rank() {
        let text = render_screen("pagerank", &norms(&[0.5, 0.25, 0.25]), &[]);
        let bars: Vec<usize> = text.lines().map(|l| l.matches('#').count()).collect();
        assert_eq!(bars, [40, 20, 20]);
        assert!(text.contains("0.50000"));
    }

    #[test]
    fn rank_screen_handles_zero_ranks() {
        let text = render_screen("pagerank", &norms(&[0.0, 0.0]), &[0]);
        assert!(text.contains("v0   !"), "{text}");
    }

    #[test]
    fn centroids_render() {
        let text = render_centroids(&[(0, 1.0, -2.0)]);
        assert!(text.contains("centroid 0"));
        assert!(text.contains("-2.000"));
    }

    #[test]
    fn the_view_notes_a_failure_on_its_superstep_and_marks_its_plots() {
        let sample =
            |superstep: u32, lost_vertices: Vec<u64>, messages: f64| JournalEvent::StateSample {
                superstep,
                iteration: superstep,
                algorithm: "cc".to_owned(),
                state: norms(&[0.0, 0.0, 2.0]),
                lost_vertices,
                series: [("messages".to_owned(), Norm(messages))].into_iter().collect(),
            };
        let events = vec![
            sample(0, vec![], 4.0),
            JournalEvent::FailureInjected {
                superstep: 1,
                iteration: 1,
                lost_partitions: vec![1],
                lost_records: 1,
            },
            JournalEvent::CompensationInvoked { name: "FixComponents".to_owned(), iteration: 1 },
            sample(1, vec![1], 6.0),
        ];
        let frames = frames(&events);
        assert_eq!(frames.len(), 2);
        assert!(frames[0].notes.is_empty());
        assert_eq!(frames[1].notes.len(), 2);
        let text = render_demo(&events);
        assert!(text.contains("demo: Connected Components, 3 vertices, 2 supersteps sampled"));
        assert!(text.contains("== superstep 1 (iteration 1): messages 6 ==\n   !! failure"));
        assert!(text.contains("[1!]"));
        assert!(text.contains("plot (ii): messages"));
        assert!(render_demo(&[]).contains("no StateSample events"));
    }
}
