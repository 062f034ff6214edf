//! Ablation benchmark for the engine's two iteration modes (paper §2.1):
//! bulk iterations recompute the whole intermediate state every superstep,
//! delta iterations only touch the working set — "in many cases parts of
//! the intermediate state converge at different speeds", and the delta mode
//! wins exactly there.
//!
//! Min-label propagation (the Connected Components kernel) on two graphs:
//!
//! * A star: converges after ~2 iterations for *every* vertex — bulk and
//!   delta do similar work.
//! * A long path: labels converge at wildly different speeds — the delta
//!   working set shrinks every superstep while the bulk mode keeps
//!   recomputing all vertices. Delta wins by a growing factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dataflow::prelude::*;
use graphs::{Graph, VertexId};

type Label = (VertexId, VertexId);

/// Min-label propagation via a delta iteration (only changed labels move).
fn cc_delta(graph: &Graph, parallelism: usize) -> usize {
    let env = Environment::new(parallelism);
    let initial: Vec<Label> = graph.vertices().map(|v| (v, v)).collect();
    let solution = env.from_keyed_vec(initial.clone(), |r| r.0);
    let workset = env.from_keyed_vec(initial, |r| r.0);
    let edges: Vec<(VertexId, VertexId)> = graph.directed_edges().collect();
    let edges_ds = env.from_keyed_vec(edges, |e| e.0);
    let mut iteration = DeltaIteration::new(&solution, &workset, 10_000);
    let edges_in = iteration.import(&edges_ds);
    let candidates = iteration
        .workset()
        .join("to-neighbors", &edges_in, |w: &Label| w.0, |e| e.0, |w, e| (e.1, w.1))
        .reduce_by_key("min", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    let updates = candidates
        .join_solution(
            "update",
            &iteration.solution_set(),
            |c| c.0,
            |c, label: &VertexId| if c.1 < *label { Some((c.0, c.1)) } else { None },
        )
        .flat_map("updated", |u: &Option<Label>| *u);
    let (result, _) = iteration.close(updates.clone(), updates);
    result.collect().expect("run").len()
}

/// Min-label propagation via a bulk iteration (all labels recomputed).
fn cc_bulk(graph: &Graph, parallelism: usize) -> usize {
    let env = Environment::new(parallelism);
    let initial: Vec<Label> = graph.vertices().map(|v| (v, v)).collect();
    let labels0 = env.from_keyed_vec(initial, |r| r.0);
    let edges: Vec<(VertexId, VertexId)> = graph.directed_edges().collect();
    let edges_ds = env.from_keyed_vec(edges, |e| e.0);
    let mut iteration = BulkIteration::new(&labels0, 10_000);
    let edges_in = iteration.import(&edges_ds);
    let labels = iteration.state();
    // Every vertex re-evaluates min(own label, neighbours' labels).
    let candidates = labels
        .join("to-neighbors", &edges_in, |l: &Label| l.0, |e| e.0, |l, e| (e.1, l.1))
        .union("with-self", &labels)
        .reduce_by_key("min", |c: &Label| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    let changed =
        candidates.join("changed", &labels, |c: &Label| c.0, |l: &Label| l.0, |c, l| c.1 != l.1);
    let still_changing = changed.filter("moving", |c| *c);
    let (result, _) = iteration.close_with_termination(candidates, still_changing);
    result.collect().expect("run").len()
}

fn bench_modes(c: &mut Criterion) {
    let cases: Vec<(&str, Graph)> = vec![
        ("star_4096", graphs::generators::star(4096)),
        ("path_512", graphs::generators::path(512)),
    ];
    let mut group = c.benchmark_group("iteration_modes_min_label");
    group.sample_size(10);
    for (name, graph) in &cases {
        group.bench_with_input(BenchmarkId::new("delta", name), graph, |b, graph| {
            b.iter(|| cc_delta(graph, 4))
        });
        group.bench_with_input(BenchmarkId::new("bulk", name), graph, |b, graph| {
            b.iter(|| cc_bulk(graph, 4))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
