//! The delta driver against its former self.
//!
//! Until the solution set was probed in place and joins kept their build
//! index, every superstep of a delta iteration materialised the whole
//! solution set as a sorted dataset, and every join deep-copied, re-shuffled
//! and re-hashed its build side. That formulation survives here, as two
//! hand-written operators plugged into the current driver through
//! `Environment::custom_node`, and serves as the oracle: for random graphs,
//! partition counts, recovery strategies and failures, the min-label plan
//! built the old way and the new way must agree on the result, on every
//! deterministic field of `RunStats` and on the journal, byte for byte —
//! and so must `connected_components::run`, which is the new way.

use std::sync::Arc;

use algos::common::{self, FtConfig};
use algos::connected_components::{self as cc, fix_components, CcConfig, Label};
use dataflow::api::DataSet;
use dataflow::dataset::{Erased, Partitions};
use dataflow::error::Result;
use dataflow::exec::{par_map, ExecContext};
use dataflow::ft::SolutionSets;
use dataflow::hash::{fx_hash, FxHashMap};
use dataflow::partition::exchange;
use dataflow::plan::DynOp;
use dataflow::prelude::*;
use dataflow::stats::RecoveryKind;
use graphs::{Graph, GraphBuilder, VertexId};
use proptest::prelude::*;
use recovery::scenario::FailureScenario;
use recovery::strategy::Strategy as RecoveryStrategy;
use telemetry::{MemorySink, SinkHandle};

type Edge = (VertexId, VertexId);

/// The join as it was: both inputs copied out of their shared handles, both
/// shuffled, the build side hashed from scratch — on every execution.
struct RebuildJoin<R, O> {
    key_right: fn(&R) -> VertexId,
    f: fn(&Label, &R) -> O,
}

impl<R: Data, O: Data> DynOp for RebuildJoin<R, O> {
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let (key_right, f) = (self.key_right, self.f);
        let left = inputs[0].clone().take::<Label>("oracle(left)")?;
        let right = inputs[1].clone().take::<R>("oracle(right)")?;
        let p = left.num_partitions();
        let left = ctx.time_shuffle(|| exchange(left.into_parts(), p, ctx, |l: &Label| l.0))?;
        let right = ctx.time_shuffle(|| exchange(right.into_parts(), p, ctx, key_right))?;
        ctx.add_shuffled(left.moved + right.moved);
        let work = left.total_len() + right.total_len();
        let zipped: Vec<(Vec<Label>, Vec<R>)> = left
            .into_partitions()
            .into_parts()
            .into_iter()
            .zip(right.into_partitions().into_parts())
            .collect();
        let out = par_map(zipped, ctx, work, |_, (lefts, rights)| {
            let mut table: FxHashMap<VertexId, Vec<R>> = FxHashMap::default();
            for r in rights {
                table.entry(key_right(&r)).or_default().push(r);
            }
            let mut out = Vec::new();
            for l in &lefts {
                for r in table.get(&l.0).into_iter().flatten() {
                    out.push(f(l, r));
                }
            }
            out
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Join"
    }
}

/// The per-superstep solution view as it was: every entry cloned out of the
/// maps and sorted into a deterministic order.
struct MaterializeSolution;

impl DynOp for MaterializeSolution {
    fn execute(&mut self, inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let sets =
            inputs[0].downcast_ref::<SolutionSets<VertexId, VertexId>>("oracle(solution)")?;
        let parts = sets
            .iter()
            .map(|set| {
                let mut records: Vec<Label> = set.iter().map(|(&k, &v)| (k, v)).collect();
                records.sort_by_key(|(k, _)| fx_hash(k));
                records
            })
            .collect();
        Ok(Erased::new(Partitions::from_parts(parts)))
    }

    fn kind(&self) -> &'static str {
        "IterationHead"
    }
}

/// Everything a run determines: labels, the clock-free projection of its
/// statistics, and its journal.
#[derive(Debug, PartialEq)]
struct Outcome {
    labels: Vec<Label>,
    converged: bool,
    /// Per superstep: superstep, iteration, records shuffled, workset size,
    /// counters, checkpoint bytes, and the failure it saw (lost partitions,
    /// lost records, how it was recovered).
    #[allow(clippy::type_complexity)]
    steps: Vec<(
        u32,
        u32,
        u64,
        Option<u64>,
        Vec<(String, u64)>,
        Option<u64>,
        Option<(Vec<usize>, u64, RecoveryKind)>,
    )>,
    journal: String,
}

fn outcome(mut labels: Vec<Label>, stats: &RunStats, sink: &MemorySink) -> Outcome {
    labels.sort_unstable();
    let steps = stats
        .iterations
        .iter()
        .map(|i| {
            (
                i.superstep,
                i.iteration,
                i.records_shuffled,
                i.workset_size,
                i.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                i.checkpoint_bytes,
                i.failure
                    .as_ref()
                    .map(|f| (f.lost_partitions.clone(), f.lost_records, f.recovery.clone())),
            )
        })
        .collect();
    Outcome { labels, converged: stats.converged, steps, journal: sink.journal_lines() }
}

fn journalled(ft: &FtConfig) -> (FtConfig, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    (ft.clone().with_telemetry(SinkHandle::new(sink.clone())), sink)
}

/// The CC plan written out by hand over an edge *dataset*, its two joins
/// either the oracle's (`oracle`) or today's: a `join` that keeps its index
/// and a `join_solution` that probes the lent maps.
fn hand_built(graph: &Graph, parallelism: usize, ft: &FtConfig, oracle: bool) -> Outcome {
    let (ft, sink) = journalled(ft);
    let env = common::environment(parallelism, &ft);
    let initial: Vec<Label> = graph.vertices().map(|v| (v, v)).collect();
    let solution = env.from_keyed_vec(initial.clone(), |r| r.0);
    let workset = env.from_keyed_vec(initial, |r| r.0);
    let edges_ds = env.from_keyed_vec(graph.directed_edges().collect::<Vec<Edge>>(), |e| e.0);

    let mut it = DeltaIteration::new(&solution, &workset, 200);
    let compensation = fix_components(Arc::new(graph.clone()), parallelism);
    it.set_fault_handler(common::delta_handler(&ft, compensation).unwrap());
    it.set_failure_source(ft.scenario.to_source());
    it.set_norm_probe(common::delta_norm_probe(|old: Option<&VertexId>, new| {
        old.map_or(0.0, |&o| o.saturating_sub(*new) as f64)
    }));

    let body = it.body_environment();
    let edges_in = it.import(&edges_ds);
    let to_neighbours: DataSet<Label> = if oracle {
        let op = RebuildJoin::<Edge, Label> { key_right: |e| e.0, f: |w, e| (e.1, w.1) };
        let inputs = vec![it.workset().node_id(), edges_in.node_id()];
        body.custom_node("label-to-neighbors", inputs, Box::new(op))
    } else {
        it.workset().join(
            "label-to-neighbors",
            &edges_in,
            |w: &Label| w.0,
            |e| e.0,
            |w, e| (e.1, w.1),
        )
    };
    let candidates = to_neighbours.measured(common::MESSAGES).reduce_by_key(
        "candidate-label",
        |c| c.0,
        |a, b| if a.1 <= b.1 { a } else { b },
    );
    let updated: DataSet<Option<Label>> = if oracle {
        let view: DataSet<Label> = body.custom_node(
            "solution-view",
            vec![it.solution_set().node_id()],
            Box::new(MaterializeSolution),
        );
        let op = RebuildJoin::<Label, Option<Label>> {
            key_right: |s| s.0,
            f: |c, s| (c.1 < s.1).then_some((c.0, c.1)),
        };
        let inputs = vec![candidates.node_id(), view.node_id()];
        body.custom_node("label-update", inputs, Box::new(op))
    } else {
        candidates.join_solution(
            "label-update",
            &it.solution_set(),
            |c| c.0,
            |c, label| (c.1 < *label).then_some((c.0, c.1)),
        )
    };
    let updates = updated.flat_map("updated-labels", |u: &Option<Label>| *u);
    let (result, stats) = it.close(updates.clone(), updates);
    let labels = result.collect().unwrap();
    outcome(labels, &stats.take().unwrap(), &sink)
}

/// The shipped CC: the same plan over a kept adjacency index.
fn shipped(graph: &Graph, parallelism: usize, ft: &FtConfig) -> Outcome {
    let (ft, sink) = journalled(ft);
    let config = CcConfig { parallelism, ft, track_truth: false, ..Default::default() };
    let result = cc::run(graph, &config).unwrap();
    outcome(result.labels, &result.stats, &sink)
}

fn arb_graph(max_vertices: u64) -> impl Strategy<Value = Graph> {
    (2..max_vertices).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..(3 * n as usize)).prop_map(move |edges| {
            let mut builder = GraphBuilder::undirected(n as usize);
            for (u, v) in edges {
                builder.add_edge(u, v);
            }
            builder.build()
        })
    })
}

const STRATEGIES: [RecoveryStrategy; 6] = [
    RecoveryStrategy::Optimistic,
    RecoveryStrategy::Checkpoint { interval: 2 },
    RecoveryStrategy::IncrementalCheckpoint { full_interval: 3 },
    RecoveryStrategy::AsyncSnapshot { interval: 2 },
    RecoveryStrategy::Restart,
    RecoveryStrategy::Ignore,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn probing_in_place_changes_nothing_a_run_determines(
        graph in arb_graph(36),
        parallelism in (0usize..3).prop_map(|pick| [1usize, 3, 4][pick]),
        fail_at in 0u32..7,
        fail_pid in 0usize..4,
    ) {
        for strategy in STRATEGIES {
            let scenario = FailureScenario::none().fail_at(fail_at, &[fail_pid % parallelism]);
            let ft = FtConfig { strategy, scenario, ..Default::default() };
            let oracle = hand_built(&graph, parallelism, &ft, true);
            prop_assert!(!oracle.journal.is_empty());
            prop_assert_eq!(
                &hand_built(&graph, parallelism, &ft, false), &oracle,
                "kept index + in-place probe, {:?}", strategy
            );
            prop_assert_eq!(
                &shipped(&graph, parallelism, &ft), &oracle,
                "connected_components::run, {:?}", strategy
            );
        }
    }
}
