//! Building your *own* optimistically recoverable fixpoint algorithm on the
//! raw engine API — no `algos` helpers involved.
//!
//! The algorithm: iterative "degree-weighted heat diffusion" on a graph.
//! Each vertex holds a heat value; every superstep it keeps half its heat
//! and spreads the other half over its neighbours. Total heat is conserved,
//! so the natural compensation after a failure mirrors PageRank's FixRanks:
//! give the lost vertices an equal share of the missing heat.
//!
//! ```text
//! cargo run --release --example custom_algorithm [--journal <path>] [--mtbf <supersteps>]
//! ```
//!
//! By default a single failure strikes partition 0 at superstep 4. With
//! `--mtbf <supersteps>` the deterministic scenario is replaced by the
//! engine's seeded [`MtbfFailures`] model: failures arrive randomly with
//! the given mean gap, yet the schedule is reproducible run-to-run (fixed
//! seed), so the conservation invariant below is still checkable.

use dataflow::partition::hash_partition;
use dataflow::prelude::*;
use optimistic_recovery::journal::JournalCapture;
use recovery::optimistic::OptimisticHandler;
use recovery::scenario::FailureScenario;

type Heat = (u64, f64);

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let capture = JournalCapture::take_from(&mut args).expect("--journal needs a value");
    let mtbf: Option<f64> = args.iter().position(|a| a == "--mtbf").map(|i| {
        let mean = args.get(i + 1).and_then(|v| v.parse().ok()).expect("--mtbf needs a number");
        args.drain(i..=i + 1);
        mean
    });

    let graph = graphs::generators::grid(8, 8);
    let n = graph.num_vertices();
    let parallelism = 4;

    // 1. Sources: all heat starts on vertex 0; the adjacency is a
    //    loop-invariant import. On the raw engine API, telemetry is
    //    installed on the environment config rather than an FtConfig.
    let mut env_config = dataflow::config::EnvConfig::new(parallelism);
    if let Some(capture) = &capture {
        env_config = env_config.with_telemetry(capture.handle());
    }
    let env = Environment::with_config(env_config);
    let initial: Vec<Heat> = (0..n as u64).map(|v| (v, if v == 0 { 1.0 } else { 0.0 })).collect();
    let heat0 = env.from_keyed_vec(initial, |h| h.0);
    let links = env.from_keyed_vec(graph.adjacency_rows(), |l| l.0);

    // 2. The iteration body: keep half, diffuse half.
    // Diffusion mixes geometrically slowly; run a fixed 50 supersteps
    // (the common choice for diffusion kernels) instead of a threshold.
    let mut iteration = BulkIteration::new(&heat0, 50);
    let links_in = iteration.import(&links);
    let heat = iteration.state();
    let with_links = heat.join(
        "attach-neighbors",
        &links_in,
        |h: &Heat| h.0,
        |l: &(u64, Vec<u64>)| l.0,
        |h, l| (h.0, h.1, l.1.clone()),
    );
    let kept = with_links.map("keep-half", |r: &(u64, f64, Vec<u64>)| (r.0, r.1 * 0.5));
    let spread = with_links
        .flat_map("spread-half", |&(_, heat, ref neighbors): &(u64, f64, Vec<u64>)| {
            if neighbors.is_empty() {
                return Vec::new();
            }
            let share = heat * 0.5 / neighbors.len() as f64;
            neighbors.iter().map(|&w| (w, share)).collect()
        })
        .measured("heat-packets");
    let next = kept.union("combine", &spread).reduce_by_key(
        "sum-heat",
        |h: &Heat| h.0,
        |a, b| (a.0, a.1 + b.1),
    );
    // 3. Fault tolerance: a closure over the iteration state is a full
    //    compensation function, and `OptimisticHandler` is the one optimistic
    //    strategy for bulk and delta iterations alike (a delta iteration's
    //    closure takes a `&mut DeltaState` instead of these `Partitions`).
    //    Restore the conservation invariant exactly like FixRanks.
    let mut handler = OptimisticHandler::new(
        move |state: &mut Partitions<Heat>, lost: &[usize], _iteration: u32| {
            let surviving: f64 = state.iter_records().map(|&(_, h)| h).sum();
            let lost_vertices: Vec<u64> =
                (0..n as u64).filter(|v| lost.contains(&hash_partition(v, parallelism))).collect();
            let share = (1.0 - surviving).max(0.0) / lost_vertices.len().max(1) as f64;
            for v in lost_vertices {
                let pid = hash_partition(&v, parallelism);
                state.partition_mut(pid).push((v, share));
            }
        },
    );
    if let Some(capture) = &capture {
        handler = handler.with_telemetry(capture.handle());
    }
    iteration.set_fault_handler(Box::new(handler));
    match mtbf {
        Some(mean) => {
            iteration.set_failure_source(MtbfFailures::new(mean, 0xd1f_f05e).with_min_superstep(1))
        }
        None => iteration.set_failure_source(FailureScenario::none().fail_at(4, &[0]).to_source()),
    }
    iteration.set_observer(|_iter, state: &Partitions<Heat>, stats| {
        let total: f64 = state.iter_records().map(|&(_, h)| h).sum();
        stats.gauges.insert("total_heat".into(), total);
    });

    // 4. Close the loop, run, inspect.
    let (result, stats) = iteration.close(next);
    let mut heat: Vec<Heat> = result.collect().expect("run succeeds");
    heat.sort_by_key(|h| h.0);
    let stats = stats.take().expect("stats recorded");

    match mtbf {
        Some(mean) => println!(
            "heat diffusion over an 8x8 grid, MTBF failures (mean gap {mean} supersteps), \
             compensated\n"
        ),
        None => println!("heat diffusion over an 8x8 grid, failure at superstep 4, compensated\n"),
    }
    println!("supersteps: {} (fixed)  failures: {}", stats.supersteps(), stats.failures().count());
    for (superstep, total) in stats.gauge_series("total_heat").iter().enumerate() {
        assert!((total - 1.0).abs() < 1e-9, "heat leaked at superstep {superstep}");
    }
    println!("heat conservation invariant held at every superstep (sum == 1)");
    let (hottest, coldest) = (
        heat.iter().cloned().fold((0u64, f64::MIN), |a, b| if b.1 > a.1 { b } else { a }),
        heat.iter().cloned().fold((0u64, f64::MAX), |a, b| if b.1 < a.1 { b } else { a }),
    );
    println!("hottest vertex: {} ({:.5})", hottest.0, hottest.1);
    println!("coldest vertex: {} ({:.5})", coldest.0, coldest.1);

    if let Some(capture) = capture {
        capture.finish_or_exit();
    }
}
