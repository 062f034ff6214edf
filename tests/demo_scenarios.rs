//! End-to-end reproduction of the paper's two demonstration scenarios
//! (§3.2 and §3.3), spanning all crates: graph generation → dataflow
//! execution → failure injection → compensation → the journal's state
//! samples → rendering.

use std::sync::Arc;

use algos::common::{CONVERGED, DISTINCT_LABELS, L1_DIFF, MESSAGES, RANK_SUM};
use algos::connected_components::{self, CcConfig};
use algos::pagerank::{self, PrConfig};
use algos::FtConfig;
use recovery::scenario::FailureScenario;
use telemetry::{JournalEvent, MemorySink, SinkHandle};

/// `ft` with a fresh memory sink attached, and the sink.
fn sampled(ft: FtConfig) -> (FtConfig, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    (ft.with_telemetry(SinkHandle::new(sink.clone())), sink)
}

/// The series `name` of the run journaled into `sink`, one value per
/// superstep, from its state samples.
fn series(sink: &MemorySink, name: &str) -> Vec<f64> {
    flowscope::demo::frames(&sink.events()).iter().map(|f| f.value(name)).collect()
}

/// §3.2: failures in iterations 1 and 3 → plummet in the converged plot at
/// the failure, elevated messages in iterations 2 and 4, convergence to the
/// exact components regardless.
#[test]
fn cc_demo_scenario_reproduces_section_3_2() {
    let graph = graphs::generators::demo_components();
    let (ft, baseline_sink) = sampled(FtConfig::default());
    let baseline =
        connected_components::run(&graph, &CcConfig { ft, ..Default::default() }).unwrap();
    let (ft, sink) =
        sampled(FtConfig::optimistic(FailureScenario::none().fail_at(1, &[1]).fail_at(3, &[2])));
    let config = CcConfig { ft, ..Default::default() };
    let result = connected_components::run(&graph, &config).unwrap();

    // Convergence to the exact result "as if no failures had occurred".
    assert_eq!(result.correct, Some(true));
    assert_eq!(result.labels, baseline.labels);
    assert_eq!(result.num_components, 3);

    // Messages are elevated right after each failure relative to the
    // failure-free run at the same superstep.
    let messages = series(&sink, MESSAGES);
    let baseline_messages = series(&baseline_sink, MESSAGES);
    for after_failure in [2usize, 4] {
        let expected = baseline_messages.get(after_failure).copied().unwrap_or(0.0);
        assert!(
            messages[after_failure] > expected,
            "superstep {after_failure}: {} !> {expected} ({messages:?} vs {baseline_messages:?})",
            messages[after_failure]
        );
    }

    // The number of distinct labels ("colours") jumps back up at a failure.
    let colours = series(&sink, DISTINCT_LABELS);
    assert!(colours[1] > colours[0].min(colours[2]) || colours[3] > colours[2]);

    // And the run needs more supersteps than the failure-free baseline.
    assert!(result.stats.supersteps() >= baseline.stats.supersteps());

    // The journal samples every superstep, and the last sample is the result.
    let events = sink.events();
    let frames = flowscope::demo::frames(&events);
    assert_eq!(frames.len(), result.stats.supersteps() as usize);
    let last: Vec<(u64, u64)> =
        (0u64..).zip(frames.last().unwrap().state).map(|(v, l)| (v, l.0 as u64)).collect();
    assert_eq!(last, result.labels);
}

/// §3.3: failure in iteration 5 → plummet of the converged-to-true-rank
/// count, spike in the L1 plot, ranks keep summing to one throughout, and
/// the final ranks match the exact reference.
#[test]
fn pagerank_demo_scenario_reproduces_section_3_3() {
    let graph = graphs::generators::demo_pagerank();
    let (ft, baseline_sink) = sampled(FtConfig::default());
    let baseline = pagerank::run(&graph, &PrConfig { ft, ..Default::default() }).unwrap();
    let (ft, sink) = sampled(FtConfig::optimistic(FailureScenario::none().fail_at(5, &[1])));
    let config = PrConfig { ft, ..Default::default() };
    let result = pagerank::run(&graph, &config).unwrap();

    assert!(result.stats.converged);
    assert!(result.l1_to_exact.unwrap() < 1e-3);
    assert!((result.rank_sum - 1.0).abs() < 1e-9);

    // L1 spike after the failure vs. the baseline's decaying curve.
    let l1 = series(&sink, L1_DIFF);
    let baseline_l1 = series(&baseline_sink, L1_DIFF);
    assert!(l1[6] > baseline_l1[6], "{l1:?} vs {baseline_l1:?}");

    // Converged-count plummet at the failure superstep vs. the baseline.
    let converged = series(&sink, CONVERGED);
    let baseline_converged = series(&baseline_sink, CONVERGED);
    assert!(converged[5] <= baseline_converged[5]);

    // FixRanks keeps the invariant at every superstep.
    for sum in series(&sink, RANK_SUM) {
        assert!((sum - 1.0).abs() < 1e-9);
    }

    // Recovery costs extra supersteps.
    assert!(result.stats.supersteps() >= baseline.stats.supersteps());
}

/// The demo lets attendees choose *which* partitions fail and *when*; any
/// choice must converge to the same correct result.
#[test]
fn any_attendee_choice_converges() {
    let graph = graphs::generators::demo_components();
    for superstep in [0, 1, 2, 4] {
        for partitions in [vec![0], vec![3], vec![0, 1], vec![0, 1, 2]] {
            let config = CcConfig {
                ft: FtConfig::optimistic(FailureScenario::none().fail_at(superstep, &partitions)),
                ..Default::default()
            };
            let result = connected_components::run(&graph, &config).unwrap();
            assert_eq!(
                result.correct,
                Some(true),
                "failure of {partitions:?} at superstep {superstep}"
            );
        }
    }
}

/// Rendering the sampled states produces the GUI's content (smoke test of
/// the flowscope and flowviz pipelines over real run data).
#[test]
fn renderers_work_on_real_run_data() {
    let graph = graphs::generators::demo_components();
    let (ft, sink) = sampled(FtConfig::optimistic(FailureScenario::none().fail_at(2, &[1])));
    let result = connected_components::run(&graph, &CcConfig { ft, ..Default::default() }).unwrap();
    let events = sink.events();
    let rendered = flowscope::demo::frames(&events).last().unwrap().screen();
    assert!(rendered.contains("3 component(s)"));

    let table = flowviz::table::run_stats_table(&result.stats);
    assert!(table.contains("compensated"));
    let chart = flowviz::chart::ascii_chart(
        &result.stats.gauge_series(CONVERGED),
        &flowviz::chart::ChartOptions::titled("converged"),
    );
    assert!(chart.contains('*'));
}

/// The vertices the demo view marks in one screen: `[v!]` in a component
/// listing, a `!` after the vertex in a rank bar.
fn marked(screen: &str) -> Vec<u64> {
    let mut marked = Vec::new();
    for line in screen.lines() {
        if let Some(bar) = line.strip_prefix("  v") {
            if bar.get(4..5) == Some("!") {
                marked.push(bar[..4].trim().parse().unwrap());
            }
        } else if line.starts_with("  label") {
            for piece in line.split('[').skip(1) {
                marked.push(piece.split('!').next().unwrap().parse().unwrap());
            }
        }
    }
    marked.sort_unstable();
    marked
}

/// `optirec inspect demo` marks exactly the vertices of the failed
/// partitions, on the superstep that lost them and nowhere else: on the
/// 10-vertex PageRank demo graph, and on a CC graph of 20 vertices (not the
/// 16 of the CC demo graph).
#[test]
fn the_demo_view_marks_exactly_the_vertices_of_the_failed_partitions() {
    let cases = [
        ("pagerank", graphs::generators::demo_pagerank(), 5u32, vec![1usize]),
        ("cc", graphs::generators::path(20), 2, vec![0, 3]),
    ];
    for (algorithm, graph, failure, partitions) in cases {
        let (ft, sink) =
            sampled(FtConfig::optimistic(FailureScenario::none().fail_at(failure, &partitions)));
        if algorithm == "cc" {
            connected_components::run(&graph, &CcConfig { ft, ..Default::default() }).unwrap();
        } else {
            pagerank::run(&graph, &PrConfig { ft, ..Default::default() }).unwrap();
        }
        let expected: Vec<u64> = graph
            .vertices()
            .filter(|v| partitions.contains(&dataflow::partition::hash_partition(v, 4)))
            .collect();
        assert!(!expected.is_empty(), "{algorithm}: the failure must take vertices");

        let text = flowscope::render_demo(&sink.events());
        let screens: Vec<&str> = text.split("== superstep ").skip(1).collect();
        assert!(screens.len() > failure as usize + 1, "{algorithm}: {} screens", screens.len());
        for screen in screens {
            let superstep: u32 = screen.split(' ').next().unwrap().parse().unwrap();
            let want = if superstep == failure { expected.clone() } else { Vec::new() };
            assert_eq!(marked(screen), want, "{algorithm}, superstep {superstep}:\n{screen}");
            assert_eq!(
                screen.contains("!! failure destroyed partition(s)"),
                superstep == failure,
                "{algorithm}, superstep {superstep}"
            );
        }
    }
}

/// A run over a graph above `SAMPLE_MAX_VERTICES` journals no state
/// sample, and its journal — like a serving epoch's over the same graph —
/// keeps the bytes it had before samples existed (the checked-in files).
/// At the threshold a run samples every superstep.
#[test]
fn no_state_sample_above_the_threshold() {
    let has_sample = |sink: &MemorySink| {
        sink.events().iter().any(|e| matches!(e, JournalEvent::StateSample { .. }))
    };
    let star = graphs::generators::star(80);
    assert!(star.num_vertices() > algos::common::SAMPLE_MAX_VERTICES);
    let (ft, sink) = sampled(FtConfig::optimistic(FailureScenario::none().fail_at(1, &[1])));
    connected_components::run(&star, &CcConfig { ft, ..Default::default() }).unwrap();
    assert!(!has_sample(&sink));
    assert_eq!(sink.journal_lines(), include_str!("golden/cc_star80_journal.jsonl"));

    let sink = Arc::new(MemorySink::new());
    let handle = SinkHandle::new(sink.clone());
    let config = serve::ServeConfig { telemetry: handle.clone(), ..Default::default() };
    let (mut engine, _) = serve::ServeEngine::bootstrap(config, &star).unwrap();
    engine.stage_delete(0, 5);
    engine.stage_insert(5, 6);
    engine.commit().unwrap();
    handle.flush();
    assert!(!has_sample(&sink));
    assert_eq!(sink.journal_lines(), include_str!("golden/serve_star80_journal.jsonl"));

    let path = graphs::generators::path(algos::common::SAMPLE_MAX_VERTICES);
    let (ft, sink) = sampled(FtConfig::default());
    let result = connected_components::run(&path, &CcConfig { ft, ..Default::default() }).unwrap();
    assert_eq!(flowscope::demo::frames(&sink.events()).len(), result.stats.supersteps() as usize);
}
