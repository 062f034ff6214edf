//! Performance guard for the multi-process cluster backend.
//!
//! Runs the same failure-free Connected Components workload once on the
//! in-process backend (`cluster::run_local`) and once on real worker
//! processes over loopback TCP (`cluster::run_cluster`), and asserts the
//! slowdown stays under a documented — deliberately generous — bound.
//!
//! The bound is generous on purpose: the cluster arm pays process spawn,
//! TCP connection setup, and per-superstep state/message serialization,
//! and the workload is kept small so the guard runs in seconds, which
//! means that fixed overhead dominates compute, the more so the faster a
//! superstep gets (see `THRESHOLD`). The guard is not a claim that
//! distribution is cheap; it exists to catch pathological regressions —
//! accidental quadratic serialization, a stuck reconnect loop, a heartbeat
//! storm — which blow far past any constant multiple.
//!
//! ```text
//! cargo run --release -p bench-suite --bin cluster_overhead
//! ```
//! JSON verdict lands in `results/BENCH_cluster_overhead.json`.
//!
//! The binary doubles as its own worker: `cluster_overhead worker` enters
//! [`cluster::worker::run`], which is what the coordinator's default
//! worker command spawns.

use std::time::{Duration, Instant};

use telemetry::json::Obj;
use telemetry::SinkHandle;

/// Maximum tolerated cluster/local slowdown. The bound started life at
/// 200x when the cluster backend was new, ratcheted to 30x once measured
/// ratios settled in the low double digits, to 8x when shuffled messages
/// started travelling worker to worker instead of through the coordinator,
/// and to 4x with change-driven CC. That last change made *both* arms about
/// twice as fast, so the ratio it is measured by went **up**, not down: the
/// cluster arm's fixed cost — spawn, connect, load — did not shrink with
/// the messages, and is now a larger share of a shorter run. 4x is still
/// above that fixed cost and far below any quadratic serialization or
/// reconnect-loop pathology.
const THRESHOLD: f64 = 4.0;
/// Runs per arm; the fastest is kept.
const REPS: usize = 3;
const WORKERS: usize = 2;
const PARALLELISM: usize = 4;
const MAX_ITERATIONS: u32 = 100;

fn run_local_once(graph: &graphs::Graph) -> Duration {
    let start = Instant::now();
    let run = cluster::run_local("cc", graph, PARALLELISM, MAX_ITERATIONS, SinkHandle::disabled())
        .expect("local run");
    assert!(run.stats.converged);
    start.elapsed()
}

fn run_cluster_once(graph: &graphs::Graph) -> Duration {
    let cfg = cluster::ClusterConfig::new(WORKERS, PARALLELISM, MAX_ITERATIONS);
    let start = Instant::now();
    let run = cluster::run_cluster("cc", graph, cfg, SinkHandle::disabled()).expect("cluster run");
    assert!(run.stats.converged);
    start.elapsed()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        // Spawned by the coordinator via `default_worker_cmd()`.
        cluster::worker::run("127.0.0.1:0").expect("worker");
        return;
    }

    let results = bench_suite::results_dir();
    let graph = bench_suite::twitter_like(4);
    bench_suite::section("Cluster backend overhead guard");
    println!(
        "workload: failure-free CC on {} vertices / {} edges, {WORKERS} workers x \
         {PARALLELISM} partitions, best of {REPS}",
        graph.num_vertices(),
        graph.num_edges(),
    );

    // Warm-up both arms (binary page-in, first TCP accept path).
    let _ = run_local_once(&graph);
    let _ = run_cluster_once(&graph);

    let local = (0..REPS).map(|_| run_local_once(&graph)).min().unwrap();
    let clustered = (0..REPS).map(|_| run_cluster_once(&graph)).min().unwrap();
    let ratio = clustered.as_secs_f64() / local.as_secs_f64();

    println!("\nin-process (fastest):        {:.2} ms", local.as_secs_f64() * 1e3);
    println!("worker processes (fastest):   {:.2} ms", clustered.as_secs_f64() * 1e3);
    println!("cluster/local ratio:          {ratio:.1}x");

    std::fs::create_dir_all(&results).expect("create results dir");
    let json = Obj::new()
        .str("benchmark", "cluster_overhead")
        .str("workload", "connected-components/twitter-like/failure-free")
        .u64("reps", REPS as u64)
        .u64("workers", WORKERS as u64)
        .u64("parallelism", PARALLELISM as u64)
        .u64("local_ns", local.as_nanos() as u64)
        .u64("cluster_ns", clustered.as_nanos() as u64)
        .f64("cluster_over_local_ratio", ratio)
        .f64("threshold", THRESHOLD)
        .bool("within_threshold", ratio < THRESHOLD)
        .finish();
    let path = results.join("BENCH_cluster_overhead.json");
    std::fs::write(&path, format!("{json}\n")).expect("write verdict");
    println!("verdict written to {}", path.display());

    assert!(
        ratio < THRESHOLD,
        "cluster backend is {ratio:.1}x the in-process baseline (threshold {THRESHOLD}x) — \
         far beyond spawn+TCP overhead; suspect a serialization or reconnect regression"
    );
    println!("PASS: cluster backend within {THRESHOLD}x of in-process execution");
}
