//! Regenerates **Figures 4–5** of the paper: the PageRank demo under
//! optimistic recovery.
//!
//! Small hand-crafted graph (rank-proportional vertex bars, like the GUI's
//! vertex sizes, drawn from the run's journal) and the Twitter-like graph
//! (statistics only), with a failure at superstep 5 — producing the
//! plummet in the converged-to-true-rank plot and the spike in the L1 plot
//! at iteration 6 (§3.3).
//!
//! ```text
//! cargo run --release -p bench-suite --bin figure5_pagerank_recovery
//! ```
//! CSV series land in `results/figure5_*.csv`.

use algos::common::{CONVERGED, L1_DIFF, MESSAGES, RANK_SUM};
use algos::pagerank::{self, PrConfig};
use algos::FtConfig;
use flowviz::chart::{ascii_chart, ChartOptions};
use flowviz::csv::write_run_stats_csv;
use flowviz::table::{run_stats_table, run_summary};
use recovery::scenario::FailureScenario;
use std::sync::Arc;
use telemetry::{MemorySink, Norm, SinkHandle};

const FAILURE_SUPERSTEP: u32 = 5;

fn main() {
    let results = bench_suite::results_dir();
    let scenario = FailureScenario::none().fail_at(FAILURE_SUPERSTEP, &[1]);

    // ---------------------------------------------------------------- small
    bench_suite::section("Figure 5 — PageRank on the small demo graph");
    let graph = graphs::generators::demo_pagerank();
    let sink = Arc::new(MemorySink::new());
    let handle = SinkHandle::new(sink.clone());
    let config = PrConfig {
        ft: FtConfig::optimistic(scenario.clone()).with_telemetry(handle.clone()),
        ..Default::default()
    };
    let result = pagerank::run(&graph, &config).expect("run");
    let events = sink.events();
    let frames = flowscope::demo::frames(&events);
    assert!(
        frames.len() > FAILURE_SUPERSTEP as usize + 1,
        "demo run converged before the scheduled failure (superstep {FAILURE_SUPERSTEP}); \
         lower PrConfig::epsilon or move the failure earlier"
    );

    let n = graph.num_vertices();
    let uniform = vec![Norm(1.0 / n as f64); n];
    bench_suite::subsection("(a) initial state: uniform ranks");
    print!("{}", flowscope::render_screen("pagerank", &uniform, &[]));
    bench_suite::subsection("(b) state right before the failure");
    print!("{}", frames[FAILURE_SUPERSTEP as usize - 1].screen());
    bench_suite::subsection("(c) after the failure + compensation (! = restored by FixRanks)");
    print!("{}", frames[FAILURE_SUPERSTEP as usize].screen());
    bench_suite::subsection("(d) converged state");
    print!("{}", frames.last().expect("a sampled run").screen());

    report("small demo graph", &result.stats);
    write_run_stats_csv(&result.stats, &results.join("figure5_pagerank_small.csv"))
        .expect("write csv");
    bench_suite::write_telemetry(&sink, handle.metrics(), &result.stats, "figure5_pagerank_small");

    let failure_free = pagerank::run(&graph, &PrConfig::default()).expect("failure-free run");
    write_run_stats_csv(
        &failure_free.stats,
        &results.join("figure5_pagerank_small_failure_free.csv"),
    )
    .expect("write csv");

    // ---------------------------------------------------------------- large
    bench_suite::section("Figure 5 — PageRank on the Twitter-like graph");
    let graph = bench_suite::twitter_like(1);
    println!(
        "graph: {} vertices, {} edges (preferential attachment — Twitter substitute)",
        graph.num_vertices(),
        graph.num_edges()
    );
    let config = PrConfig {
        parallelism: 8,
        epsilon: 1e-6,
        ft: FtConfig::optimistic(scenario),
        ..Default::default()
    };
    let result = pagerank::run(&graph, &config).expect("run");
    report("twitter-like graph", &result.stats);
    write_run_stats_csv(&result.stats, &results.join("figure5_pagerank_twitter.csv"))
        .expect("write csv");
    println!("\nCSV series written to {}/figure5_*.csv", results.display());
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
            &ChartOptions::titled("plot (i): vertices converged to their true PageRank")
                .with_markers(markers.clone()),
        )
    );
    println!(
        "{}",
        ascii_chart(
            &stats.gauge_series(L1_DIFF),
            &ChartOptions::titled("plot (ii): L1 norm between consecutive rank estimates")
                .with_markers(markers.clone()),
        )
    );
    println!(
        "{}",
        ascii_chart(
            &stats.gauge_series(RANK_SUM),
            &ChartOptions::titled("rank-sum invariant (FixRanks keeps it at 1)")
                .with_markers(markers.clone()),
        )
    );
    println!(
        "{}",
        ascii_chart(
            &stats.counter_series(MESSAGES).iter().map(|&m| m as f64).collect::<Vec<_>>(),
            &ChartOptions::titled("rank contributions sent per iteration").with_markers(markers),
        )
    );
}
