//! Engine-ablation benchmark: loop-invariant caching.
//!
//! Jacobi's loop body scatters the (loop-invariant) matrix entries every
//! superstep; with caching the scatter runs once. Expected shape: caching
//! wins, and the win grows with the number of supersteps the run needs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dataflow::prelude::*;

type Row = (u64, f64, f64, Vec<(u64, f64)>);
type Entry = (u64, f64);

/// A fixed-length Jacobi solve, built directly on the engine so the
/// configuration (caching on/off) is controlled precisely.
fn jacobi_fixed(system: &[Row], supersteps: u32, caching: bool) -> f64 {
    let env = Environment::with_config(EnvConfig::new(4).with_loop_invariant_caching(caching));
    let n = system.len() as u64;
    let x0 = env.from_keyed_vec((0..n).map(|i| (i, 0.0f64)).collect(), |e: &Entry| e.0);
    let rows = env.from_keyed_vec(system.to_vec(), |r: &Row| r.0);
    let mut iteration = BulkIteration::new(&x0, supersteps);
    let rows_in = iteration.import(&rows);
    let x = iteration.state();
    // Loop-invariant: scattering the matrix entries.
    let entries = rows_in.flat_map("matrix-entries", |(i, _, _, offs): &Row| {
        offs.iter().map(|&(j, a)| (*i, j, a)).collect::<Vec<_>>()
    });
    let products = entries.join(
        "multiply",
        &x,
        |e: &(u64, u64, f64)| e.1,
        |xe: &Entry| xe.0,
        |e, xe| (e.0, e.2 * xe.1),
    );
    let sums = products.reduce_by_key("row-sums", |p: &Entry| p.0, |a, b| (a.0, a.1 + b.1));
    let next = rows_in.co_group(
        "update",
        &sums,
        |r: &Row| r.0,
        |s: &Entry| s.0,
        |&i, rows, sums| {
            let (_, b, diag, _) = rows.first().expect("row exists");
            vec![(i, (b - sums.first().map_or(0.0, |s| s.1)) / diag)]
        },
    );
    let (result, _) = iteration.close(next);
    result.collect().expect("run").iter().map(|&(_, v)| v.abs()).sum()
}

fn bench_loop_caching(c: &mut Criterion) {
    let system = algos::jacobi::random_diagonally_dominant(512, 8, 7);
    let rows: Vec<Row> = system.rows.clone();
    let mut group = c.benchmark_group("loop_invariant_caching_jacobi_20iters");
    group.sample_size(10);
    for caching in [true, false] {
        let label = if caching { "cached" } else { "uncached" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &caching, |b, &caching| {
            b.iter(|| jacobi_fixed(&rows, 20, caching))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_loop_caching);
criterion_main!(benches);
