//! `optirec` — the demo launcher: pick an algorithm, an input graph, a
//! recovery strategy, and the partitions/iterations to fail, then watch the
//! run recover. Run `optirec --help` for usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use algos::common::{CONVERGED, L1_DIFF, MESSAGES, RANK_SUM};
use flowviz::chart::{ascii_chart, ChartOptions};
use flowviz::table::{run_stats_table, run_summary};
use optimistic_recovery::cli::{self, Algorithm, InspectCommand, Invocation};
use optimistic_recovery::journal::JournalCapture;
use optimistic_recovery::{out, outln};

/// A subcommand's name, its usage text, and its entry, which parses the
/// arguments after the name, runs them and returns the exit status.
type Subcommand = (&'static str, fn() -> String, fn(&[String]) -> u8);

const SUBCOMMANDS: &[Subcommand] = &[
    ("serve", cli::serve_usage, |args| exit_status(cli::parse_serve(args), run_serve)),
    ("inspect", cli::inspect_usage, |args| exit_status(cli::parse_inspect(args), inspect)),
    ("top", cli::top_usage, |args| exit_status(cli::parse_top(args), run_top)),
    ("worker", cli::worker_usage, |args| {
        exit_status(cli::parse_worker(args), |listen| {
            cluster::worker::run(listen).map(|()| 0).map_err(|e| format!("worker: {e}"))
        })
    }),
];

/// `optirec <ALGORITHM>`: any first argument that names no subcommand.
const RUN: Subcommand = ("<ALGORITHM>", cli::usage, |args| exit_status(cli::parse_args(args), run));

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = SUBCOMMANDS.iter().find(|(name, ..)| args.first().is_some_and(|a| a == name));
    let ((_, usage, entry), rest) = match named {
        Some(subcommand) => (subcommand, &args[1..]),
        None => (&RUN, &args[..]),
    };
    if args.is_empty() || rest.iter().any(|a| a == "--help" || a == "-h") {
        out!("{}", usage());
        return ExitCode::SUCCESS;
    }
    ExitCode::from(entry(rest))
}

/// Exit status 2 for a usage error and 1 for a failed run; otherwise the
/// run's own (`inspect diff` exits 1 on a regression).
fn exit_status<T>(parsed: Result<T, String>, run: impl FnOnce(&T) -> Result<u8, String>) -> u8 {
    let (status, message) = match parsed.map(|parsed| run(&parsed)) {
        Ok(Ok(status)) => return status,
        Ok(Err(message)) => (1, message),
        Err(message) => (2, message),
    };
    eprintln!("error: {message}");
    status
}

/// Spans sidecar next to the journal, when the capture wrote one.
fn derived_spans(journal: &Path) -> Option<PathBuf> {
    let path = flowscope::capture_paths(journal).spans;
    path.exists().then_some(path)
}

/// Report sidecar next to the journal, when the capture wrote one.
fn derived_report(journal: &Path) -> Option<PathBuf> {
    let path = flowscope::capture_paths(journal).report;
    path.exists().then_some(path)
}

fn inspect(command: &InspectCommand) -> Result<u8, String> {
    let load = |journal: &Path| -> Result<flowscope::Journal, String> {
        let loaded = flowscope::load_journal(journal).map_err(|e| e.to_string())?;
        if loaded.skipped > 0 {
            eprintln!("note: skipped {} unknown journal lines or keys", loaded.skipped);
        }
        Ok(loaded)
    };
    let load_model = |journal: &Path| -> Result<flowscope::RunModel, String> {
        Ok(flowscope::RunModel::from_events(&load(journal)?.events))
    };
    match command {
        InspectCommand::Timeline { journal, spans } => {
            let model = load_model(journal)?;
            let spans_path = spans.clone().or_else(|| derived_spans(journal));
            let spans = match &spans_path {
                Some(path) => Some(flowscope::load_spans(path).map_err(|e| e.to_string())?),
                None => None,
            };
            out!("{}", flowscope::render_timeline(&model, spans.as_deref()));
            Ok(0)
        }
        InspectCommand::Profile { report, straggler_factor } => {
            let (summary, metrics) = flowscope::load_report(report).map_err(|e| e.to_string())?;
            let profile = flowscope::build_profile(&summary, &metrics, *straggler_factor);
            out!("{}", flowscope::render_profile(&profile));
            Ok(0)
        }
        InspectCommand::Convergence { journal, csv, html } => {
            let model = load_model(journal)?;
            out!("{}", flowscope::render_convergence(&model));
            if let Some(path) = csv {
                flowscope::write_convergence_csv(&model, path).map_err(|e| e.to_string())?;
                outln!("csv written to {}", path.display());
            }
            if let Some(path) = html {
                flowscope::write_convergence_html(&model, path).map_err(|e| e.to_string())?;
                outln!("html written to {}", path.display());
            }
            Ok(0)
        }
        InspectCommand::Recovery { journal, report } => {
            let model = load_model(journal)?;
            let summary = match report.clone().or_else(|| derived_report(journal)) {
                Some(path) => Some(flowscope::load_report(&path).map_err(|e| e.to_string())?.0),
                None => None,
            };
            let recovery = flowscope::build_recovery_report(&model, summary.as_ref());
            out!("{}", flowscope::render_recovery(&recovery));
            Ok(0)
        }
        InspectCommand::Demo { journal } => {
            out!("{}", flowscope::render_demo(&load(journal)?.events));
            Ok(0)
        }
        InspectCommand::Diff { baseline, journal, baseline_report, report, options } => {
            let facts = |journal: &Path, report: &Option<PathBuf>| -> Result<_, String> {
                let mut facts = flowscope::RunFacts::from_journal(&load(journal)?);
                if let Some(path) = report.clone().or_else(|| derived_report(journal)) {
                    let (summary, _) = flowscope::load_report(&path).map_err(|e| e.to_string())?;
                    facts = facts.with_report(&summary);
                }
                Ok(facts)
            };
            let baseline = facts(baseline, baseline_report)?;
            let current = facts(journal, report)?;
            let diff = flowscope::diff_runs(&baseline, &current, options);
            out!("{}", flowscope::render_diff(&diff));
            Ok(if diff.has_regressions() { 1 } else { 0 })
        }
    }
}

/// One `stats` round-trip against a serve daemon: connect, skip the
/// greeting, ask, and hang up politely so the daemon logs a clean close.
fn stats_over_tcp(addr: &str) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect to {addr} failed: {e}"))?;
    let mut reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("clone stream for {addr} failed: {e}"))?,
    );
    let mut writer = stream;
    let mut greeting = String::new();
    reader.read_line(&mut greeting).map_err(|e| format!("read greeting from {addr}: {e}"))?;
    writer.write_all(b"stats\n").map_err(|e| format!("send stats to {addr}: {e}"))?;
    let mut response = String::new();
    reader.read_line(&mut response).map_err(|e| format!("read stats from {addr}: {e}"))?;
    let _ = writer.write_all(b"quit\n");
    if response.is_empty() {
        return Err(format!("{addr} closed the connection before answering stats"));
    }
    Ok(response.trim_end().to_string())
}

fn run_top(invocation: &cli::TopInvocation) -> Result<u8, String> {
    if let Some(report) = &invocation.report {
        // Report snapshots are static; polling one would print the same
        // text forever, so --report always behaves like --once.
        let (summary, metrics) = flowscope::load_report(report).map_err(|e| e.to_string())?;
        out!("{}", flowscope::render_metrics_top(&summary, &metrics));
        return Ok(0);
    }
    let addr = invocation.connect.as_deref().expect("parse_top guarantees a source");
    loop {
        outln!("{}", stats_over_tcp(addr)?);
        if invocation.once {
            return Ok(0);
        }
        std::thread::sleep(std::time::Duration::from_millis(invocation.interval_ms));
    }
}

fn run(invocation: &Invocation) -> Result<u8, String> {
    if invocation.explain_only {
        let text = match invocation.algorithm {
            Algorithm::ConnectedComponents => {
                algos::connected_components::plan_text(invocation.parallelism)
            }
            Algorithm::PageRank => algos::pagerank::plan_text(invocation.parallelism),
            other => unreachable!("parse_args admits --explain for cc and pagerank, not {other:?}"),
        };
        out!("{text}");
        return Ok(0);
    }
    if let Some(workers) = invocation.cluster {
        return run_on_cluster(invocation, workers);
    }

    let mut ft = cli::ft_config(invocation);
    let capture = invocation.journal.clone().map(JournalCapture::to_path);
    if let Some(capture) = &capture {
        ft.telemetry = capture.handle();
    }
    outln!(
        "running {:?} on {:?} with {} (parallelism {})",
        invocation.algorithm,
        invocation.graph,
        ft.label(),
        invocation.parallelism
    );

    let stats = match invocation.algorithm {
        Algorithm::ConnectedComponents => {
            let graph = invocation.graph.build(invocation.algorithm)?;
            let config = algos::connected_components::CcConfig {
                parallelism: invocation.parallelism,
                max_iterations: invocation.max_iterations,
                ft,
                ..Default::default()
            };
            let result =
                algos::connected_components::run(&graph, &config).map_err(|e| e.to_string())?;
            outln!("components: {}  correct: {:?}", result.num_components, result.correct);
            plot(&result.stats, &[(CONVERGED, "vertices at final component")]);
            plot_counter(&result.stats, MESSAGES, "messages per iteration");
            result.stats
        }
        Algorithm::PageRank => {
            let graph = invocation.graph.build(invocation.algorithm)?;
            let config = algos::pagerank::PrConfig {
                parallelism: invocation.parallelism,
                max_iterations: invocation.max_iterations,
                epsilon: 1e-6,
                ft,
                ..Default::default()
            };
            let result = algos::pagerank::run(&graph, &config).map_err(|e| e.to_string())?;
            outln!(
                "rank sum: {:.9}  L1 to exact: {:.2e}",
                result.rank_sum,
                result.l1_to_exact.unwrap_or(f64::NAN)
            );
            plot(&result.stats, &[(L1_DIFF, "L1 between estimates"), (RANK_SUM, "rank sum")]);
            result.stats
        }
        Algorithm::Sssp => {
            let graph = invocation.graph.build(invocation.algorithm)?;
            let config = algos::sssp::SsspConfig {
                parallelism: invocation.parallelism,
                max_iterations: invocation.max_iterations,
                ft,
                ..Default::default()
            };
            let result = algos::sssp::run(&graph, &config).map_err(|e| e.to_string())?;
            let reachable =
                result.distances.iter().filter(|&&(_, d)| d != algos::sssp::UNREACHABLE).count();
            outln!("reachable from 0: {reachable}  correct: {:?}", result.correct);
            plot(&result.stats, &[(CONVERGED, "vertices at final distance")]);
            result.stats
        }
        Algorithm::Reachability => {
            let graph = invocation.graph.build(invocation.algorithm)?;
            let config = algos::reachability::ReachConfig {
                parallelism: invocation.parallelism,
                max_iterations: invocation.max_iterations,
                ft,
                ..Default::default()
            };
            let result = algos::reachability::run(&graph, &config).map_err(|e| e.to_string())?;
            outln!("reached: {}  correct: {:?}", result.num_reached, result.correct);
            result.stats
        }
        Algorithm::KMeans => {
            let points = algos::kmeans::generate_blobs(4, 100, 0.6, 2015);
            let config = algos::kmeans::KmConfig {
                parallelism: invocation.parallelism,
                max_iterations: invocation.max_iterations,
                ft,
                ..Default::default()
            };
            let result = algos::kmeans::run(&points, &config).map_err(|e| e.to_string())?;
            outln!("objective: {:.2}", result.objective);
            out!("{}", flowscope::demo::render_centroids(&result.centroids));
            result.stats
        }
        Algorithm::Als => {
            let ratings = algos::als::generate_ratings(60, 40, 15, 5, 0.03, 2015);
            let config = algos::als::AlsConfig {
                parallelism: invocation.parallelism,
                sweeps: invocation.max_iterations.min(20),
                ft,
                ..Default::default()
            };
            let result = algos::als::run(&ratings, &config).map_err(|e| e.to_string())?;
            outln!("training rmse: {:.4}", result.rmse);
            plot(
                &result.stats,
                &[("rmse", "training RMSE per sweep"), ("objective", "regularised objective")],
            );
            result.stats
        }
        Algorithm::Jacobi => {
            let system = algos::jacobi::random_diagonally_dominant(128, 5, 2015);
            let config = algos::jacobi::JacobiConfig {
                parallelism: invocation.parallelism,
                max_iterations: invocation.max_iterations.max(500),
                ft,
                ..Default::default()
            };
            let result = algos::jacobi::run(&system, &config).map_err(|e| e.to_string())?;
            outln!("residual: {:.2e}", result.residual);
            result.stats
        }
    };

    outln!("\nper-iteration statistics:");
    out!("{}", run_stats_table(&stats));
    outln!("{}", run_summary(&stats));

    if let Some(capture) = capture {
        capture.finish_or_exit();
    }
    Ok(0)
}

/// The `serve` subcommand: bootstrap the incremental serving engine, replay
/// a mutation file, and/or serve the line protocol over TCP. The journal
/// (when requested) spans the bootstrap convergence and every epoch.
fn run_serve(invocation: &cli::ServeInvocation) -> Result<u8, String> {
    let algorithm = match invocation.algorithm {
        Algorithm::ConnectedComponents => serve::ServeAlgorithm::ConnectedComponents,
        Algorithm::PageRank => serve::ServeAlgorithm::PageRank,
        other => unreachable!("parse_serve admits cc and pagerank, not {other:?}"),
    };
    let graph = invocation.graph.build(invocation.algorithm)?;
    let capture = invocation.journal.clone().map(JournalCapture::to_path);
    let telemetry = capture.as_ref().map_or_else(telemetry::SinkHandle::disabled, |c| c.handle());
    let config = serve::ServeConfig {
        algorithm,
        parallelism: invocation.parallelism,
        max_iterations: invocation.max_iterations,
        telemetry,
        inject: invocation.inject.clone(),
        elastic: invocation.elastic,
        ..Default::default()
    };
    outln!(
        "serve {:?} on {:?} (parallelism {})",
        invocation.algorithm,
        invocation.graph,
        invocation.parallelism
    );
    if let Some(range) = invocation.elastic {
        outln!(
            "elastic: epochs run on {}..={} worker processes (scale verb sets the target)",
            range.min_workers,
            range.max_workers
        );
    }
    if let Some(inject) = &invocation.inject {
        outln!("will inject {:?} into epoch {}", inject.kind, inject.epoch);
    }
    let (mut engine, report) = serve::ServeEngine::bootstrap(config, &graph)?;
    outln!(
        "bootstrap: converged over {} vertices in {} supersteps",
        graph.num_vertices(),
        report.supersteps
    );

    if let Some(path) = &invocation.replay {
        let commands = serve::load_replay(path)?;
        outln!("replaying {} commands from {}", commands.len(), path.display());
        for command in &commands {
            let (response, quit) = serve::apply_command(&mut engine, command);
            outln!("> {}", command.to_line());
            outln!("{response}");
            if quit {
                break;
            }
        }
    }

    if let Some(listen) = &invocation.listen {
        let daemon = serve::spawn(engine, listen).map_err(|e| e.to_string())?;
        outln!("serving on {} (line protocol; `quit` ends a session)", daemon.addr());
        match invocation.serve_seconds {
            Some(seconds) => {
                std::thread::sleep(std::time::Duration::from_secs(seconds));
                daemon.stop();
                outln!("serve window of {seconds}s elapsed, shutting down");
            }
            None => loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
        }
    }

    if let Some(capture) = capture {
        capture.finish_or_exit();
    }
    Ok(0)
}

/// The `--cluster` path: real worker processes over loopback TCP. Failure
/// injection here disturbs live processes and connections (`--kill` /
/// `--chaos`), and recovery is optimistic compensation (default),
/// checkpoints (`--strategy checkpoint:K`), asynchronous barrier snapshots
/// (`--strategy async-snapshot`) or restart (`--strategy restart`) — the
/// coordinator detects each loss at the network level and the re-spawned
/// worker rejoins mid-run.
fn run_on_cluster(invocation: &Invocation, workers: usize) -> Result<u8, String> {
    let program =
        invocation.algorithm.program().expect("parse_args admits --cluster for cc and pagerank");
    let graph = invocation.graph.build(invocation.algorithm)?;
    let cfg = cli::cluster_config(invocation, workers);

    let capture = invocation.journal.clone().map(JournalCapture::to_path);
    let telemetry = capture.as_ref().map_or_else(telemetry::SinkHandle::disabled, |c| c.handle());
    outln!(
        "running {:?} on {:?} with {workers} worker processes (parallelism {})",
        invocation.algorithm,
        invocation.graph,
        invocation.parallelism
    );
    if let recovery::Strategy::AsyncSnapshot { interval } = invocation.strategy {
        outln!("recovery: asynchronous barrier snapshots every {interval} superstep(s)");
    }
    for event in &invocation.scale {
        outln!("planned rescale: to {} workers at superstep {}", event.workers, event.superstep);
    }
    for kill in &invocation.chaos.kills {
        outln!("will SIGKILL worker {} during superstep {}", kill.worker, kill.superstep);
    }
    for straggler in &invocation.chaos.stragglers {
        outln!(
            "straggler: worker {} lags {}ms during supersteps {}..={}",
            straggler.worker,
            straggler.delay.as_millis(),
            straggler.from,
            straggler.to
        );
    }
    for link in &invocation.chaos.links {
        if !link.delay.is_zero() {
            outln!(
                "link delay: worker {} frames +{}ms during supersteps {}..={}",
                link.worker,
                link.delay.as_millis(),
                link.from,
                link.to
            );
        }
        if link.drop_probability > 0.0 {
            outln!(
                "lossy link: worker {} drops with p={} (seed {}) during supersteps {}..={}",
                link.worker,
                link.drop_probability,
                link.seed,
                link.from,
                link.to
            );
        }
    }

    let run = cluster::run_cluster(program, &graph, cfg, telemetry).map_err(|e| e.to_string())?;
    match invocation.algorithm {
        Algorithm::ConnectedComponents => {
            let mut labels: Vec<u64> = run.values.iter().map(|&(_, label)| label).collect();
            labels.sort_unstable();
            labels.dedup();
            outln!("components: {}", labels.len());
        }
        Algorithm::PageRank => {
            let sum: f64 = run.values.iter().map(|&(_, bits)| f64::from_bits(bits)).sum();
            outln!("rank sum: {sum:.9}");
        }
        _ => unreachable!("parse_args admits --cluster for cc and pagerank"),
    }

    outln!("\nper-iteration statistics:");
    out!("{}", run_stats_table(&run.stats));
    outln!("{}", run_summary(&run.stats));

    if let Some(capture) = capture {
        capture.finish_or_exit();
    }
    Ok(0)
}

fn plot(stats: &dataflow::stats::RunStats, gauges: &[(&str, &str)]) {
    let markers: Vec<u32> = stats.failures().map(|(s, _)| s).collect();
    for (gauge, title) in gauges {
        let series = stats.gauge_series(gauge);
        if series.iter().any(|v| v.is_finite()) {
            outln!(
                "{}",
                ascii_chart(&series, &ChartOptions::titled(*title).with_markers(markers.clone()))
            );
        }
    }
}

fn plot_counter(stats: &dataflow::stats::RunStats, counter: &str, title: &str) {
    let markers: Vec<u32> = stats.failures().map(|(s, _)| s).collect();
    let series: Vec<f64> = stats.counter_series(counter).iter().map(|&v| v as f64).collect();
    outln!("{}", ascii_chart(&series, &ChartOptions::titled(title).with_markers(markers)));
}
