//! Regenerates **Figures 2–3** of the paper: the Connected Components demo
//! under optimistic recovery.
//!
//! Small hand-crafted graph (visualised per iteration like the GUI, from
//! the run's journal) and the Twitter-like graph (statistics only), with
//! failures at supersteps 1 and 3 — producing the plummet in the
//! converged-vertices plot at the failure iteration and the elevated
//! message counts in iterations 2 and 4 (§3.2).
//!
//! ```text
//! cargo run --release -p bench-suite --bin figure3_cc_recovery
//! ```
//! CSV series land in `results/figure3_*.csv`.

use algos::common::{CONVERGED, DISTINCT_LABELS, MESSAGES};
use algos::connected_components::{self, CcConfig};
use algos::FtConfig;
use flowviz::chart::{ascii_chart, ChartOptions};
use flowviz::csv::write_run_stats_csv;
use flowviz::table::{run_stats_table, run_summary};
use recovery::scenario::FailureScenario;
use std::sync::Arc;
use telemetry::{MemorySink, Norm, SinkHandle};

fn main() {
    let results = bench_suite::results_dir();
    let scenario = FailureScenario::none().fail_at(1, &[1]).fail_at(3, &[2]);

    // ---------------------------------------------------------------- small
    bench_suite::section("Figure 3 — Connected Components on the small demo graph");
    let graph = graphs::generators::demo_components();
    let sink = Arc::new(MemorySink::new());
    let handle = SinkHandle::new(sink.clone());
    let config = CcConfig {
        ft: FtConfig::optimistic(scenario.clone()).with_telemetry(handle.clone()),
        ..Default::default()
    };
    let result = connected_components::run(&graph, &config).expect("run");
    let events = sink.events();
    let frames = flowscope::demo::frames(&events);

    // The GUI's four screenshots: initial, before failure, after
    // compensation, converged (Figure 3 a–d), drawn from the journal.
    let initial: Vec<Norm> = graph.vertices().map(|v| Norm(v as f64)).collect();
    bench_suite::subsection("(a) initial state");
    print!("{}", flowscope::render_screen("cc", &initial, &[]));
    let failure_superstep = 3usize;
    bench_suite::subsection("(b) state right before the failure (superstep 2)");
    print!("{}", frames[failure_superstep - 1].screen());
    bench_suite::subsection("(c) after the failure + compensation (superstep 3; [v!] restored)");
    print!("{}", frames[failure_superstep].screen());
    bench_suite::subsection("(d) converged state");
    print!("{}", frames.last().expect("a sampled run").screen());

    report("small demo graph", &result.stats);
    write_run_stats_csv(&result.stats, &results.join("figure3_cc_small.csv")).expect("write csv");
    bench_suite::write_telemetry(&sink, handle.metrics(), &result.stats, "figure3_cc_small");

    let failure_free =
        connected_components::run(&graph, &CcConfig::default()).expect("failure-free run");
    write_run_stats_csv(&failure_free.stats, &results.join("figure3_cc_small_failure_free.csv"))
        .expect("write csv");

    // ---------------------------------------------------------------- large
    bench_suite::section("Figure 3 — Connected Components on the Twitter-like graph");
    let graph = bench_suite::twitter_like(1);
    println!(
        "graph: {} vertices, {} edges (preferential attachment — Twitter substitute)",
        graph.num_vertices(),
        graph.num_edges()
    );
    let config = CcConfig {
        parallelism: 8,
        ft: FtConfig::optimistic(FailureScenario::none().fail_at(1, &[1]).fail_at(3, &[4, 5])),
        ..Default::default()
    };
    let result = connected_components::run(&graph, &config).expect("run");
    report("twitter-like graph", &result.stats);
    write_run_stats_csv(&result.stats, &results.join("figure3_cc_twitter.csv")).expect("write csv");
    println!("\nCSV series written to {}/figure3_*.csv", results.display());
}

fn report(label: &str, stats: &dataflow::stats::RunStats) {
    bench_suite::subsection(&format!("per-iteration statistics ({label})"));
    print!("{}", run_stats_table(stats));
    println!("{}", run_summary(stats));
    let markers: Vec<u32> = stats.failures().map(|(superstep, _)| superstep).collect();
    println!(
        "{}",
        ascii_chart(
            &stats.gauge_series(CONVERGED),
            &ChartOptions::titled("plot (i): vertices converged to their final component")
                .with_markers(markers.clone()),
        )
    );
    println!(
        "{}",
        ascii_chart(
            &stats.counter_series(MESSAGES).iter().map(|&m| m as f64).collect::<Vec<_>>(),
            &ChartOptions::titled("plot (ii): messages (candidate labels) per iteration")
                .with_markers(markers.clone()),
        )
    );
    println!(
        "{}",
        ascii_chart(
            &stats.gauge_series(DISTINCT_LABELS),
            &ChartOptions::titled("number of distinct labels (GUI colours)").with_markers(markers),
        )
    );
}
