//! The ledger's vocabulary: workloads, end-to-end metrics, per-layer
//! metrics, and the interaction table that says which end-to-end metric each
//! layer metric is predicted to move on which workload.
//!
//! `BENCHMARK.json` repeats the names, units and directions declared here;
//! a unit test holds the two together.

use Effect::{Context, Latency, Setup};
use Workload::*;

/// One set of generated inputs and the single operation timed on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    CcCluster,
    PagerankLocal,
    KillOptimistic,
    KillCheckpoint,
    KillAsyncSnapshot,
    ServeInsert,
    ServeQuery,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        CcCluster,
        PagerankLocal,
        KillOptimistic,
        KillCheckpoint,
        KillAsyncSnapshot,
        ServeInsert,
        ServeQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CcCluster => "cc-cluster",
            PagerankLocal => "pagerank-local",
            KillOptimistic => "cc-cluster-kill.optimistic",
            KillCheckpoint => "cc-cluster-kill.checkpoint",
            KillAsyncSnapshot => "cc-cluster-kill.async-snapshot",
            ServeInsert => "serve-cc.commit-insert",
            ServeQuery => "serve-cc.query",
        }
    }

    /// The timed operation and the reason the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            CcCluster => {
                "run_cluster cc, 2 worker processes, failure-free: the multi-process path where \
                 program, codec, exchange, spawn+load and the barrier all do real work"
            }
            PagerankLocal => {
                "run_local pagerank: the same program layer (ordered f64 fold, ~22 supersteps) \
                 with zero codec, socket, spawn or exchange work, so wire gains must not show"
            }
            KillOptimistic => {
                "run_cluster cc with SIGKILL of worker 1 at superstep 3, optimistic: the paper's \
                 claim, the only path through compensation, respawn and re-ship"
            }
            KillCheckpoint => {
                "same kill under Checkpoint{interval:2}: the rollback competitor, the only path \
                 through synchronous checkpoint writes and restore"
            }
            KillAsyncSnapshot => {
                "same kill under AsyncSnapshot{interval:2}: the barrier-snapshot competitor, the \
                 only path through background chunk shipping and epoch rollback"
            }
            ServeInsert => {
                "one TCP client: stage one edge insert, time commit; re-converges 2 seeded \
                 vertices, so it is the pure fixed cost of an epoch and bypasses cluster entirely"
            }
            ServeQuery => {
                "one TCP client: time get v against the published snapshot; the daemon wire path \
                 and snapshot read with no iteration at all"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The recovery strategy of a cluster workload.
    pub fn strategy(self) -> Option<cluster::ClusterStrategy> {
        match self {
            CcCluster | KillOptimistic => Some(cluster::ClusterStrategy::Optimistic),
            KillCheckpoint => Some(cluster::ClusterStrategy::Checkpoint { interval: 2 }),
            KillAsyncSnapshot => Some(cluster::ClusterStrategy::AsyncSnapshot { interval: 2 }),
            PagerankLocal | ServeInsert | ServeQuery => None,
        }
    }

    pub fn is_kill(self) -> bool {
        matches!(self, KillOptimistic | KillCheckpoint | KillAsyncSnapshot)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, ServeInsert | ServeQuery)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, with its regression bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports both: the contract prints every end-to-end metric
/// on every workload, so each operation is its own workload and the metric
/// is the one thing all of them have, the client-observed wall time of that
/// operation.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd { name: "latency_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// What a layer metric is predicted to do on a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A gain here should show in `latency_ms`.
    Latency,
    /// A gain here should show in `setup_s`.
    Setup,
    /// Reported for context; predicted to move nothing end to end.
    Context,
}

/// A metric of one layer. It is measured on exactly the workloads in
/// `moves` and reads 0 on every other workload: that layer does no work
/// there, so the prediction for those pairs is *no change*.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static [(Workload, Effect)],
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(Workload, Effect)],
) -> Layer {
    Layer { name, unit, better: Better::Lower, moves }
}

const REPLAYED: &[(Workload, Effect)] = &[(CcCluster, Latency), (PagerankLocal, Latency)];
const WIRE: &[(Workload, Effect)] = &[(CcCluster, Latency)];
const BATCH: &[(Workload, Effect)] = &[
    (CcCluster, Latency),
    (PagerankLocal, Latency),
    (KillOptimistic, Latency),
    (KillCheckpoint, Latency),
    (KillAsyncSnapshot, Latency),
];
const CLUSTER: &[(Workload, Effect)] = &[
    (CcCluster, Latency),
    (KillOptimistic, Latency),
    (KillCheckpoint, Latency),
    (KillAsyncSnapshot, Latency),
];
const KILL: &[(Workload, Effect)] =
    &[(KillOptimistic, Latency), (KillCheckpoint, Latency), (KillAsyncSnapshot, Latency)];
const KILL_CONTEXT: &[(Workload, Effect)] =
    &[(KillOptimistic, Context), (KillCheckpoint, Context), (KillAsyncSnapshot, Context)];
const ROLLBACK: &[(Workload, Effect)] = &[(KillCheckpoint, Latency), (KillAsyncSnapshot, Latency)];
const CC_CLUSTER_CONTEXT: &[(Workload, Effect)] = &[(CcCluster, Context)];
const INSERT: &[(Workload, Effect)] = &[(ServeInsert, Latency)];
/// The delete commit has no workload of its own (its latency follows the
/// host's slow spells too closely to gate on); the traced insert run, which
/// shares its engine, records it. Its delta iteration is also bootstrap's.
const DELETE: &[(Workload, Effect)] = &[(ServeInsert, Context)];
const BOOTSTRAP: &[(Workload, Effect)] = &[(ServeInsert, Setup)];
const QUERY: &[(Workload, Effect)] = &[(ServeQuery, Latency)];
const QUERY_CONTEXT: &[(Workload, Effect)] = &[(ServeQuery, Context)];
const EVERYWHERE: &[(Workload, Effect)] = &[
    (CcCluster, Context),
    (PagerankLocal, Context),
    (KillOptimistic, Context),
    (KillCheckpoint, Context),
    (KillAsyncSnapshot, Context),
    (ServeInsert, Context),
    (ServeQuery, Context),
];

/// The interaction table. Layers are the repo's modules; see the README for
/// how each number is obtained from outside.
pub const PER_LAYER: &[Layer] = &[
    // cluster::program, replayed single-threaded by the harness.
    lower("program.step_ms_per_superstep", "ms", REPLAYED),
    lower("program.step_ns_per_msg", "ns", REPLAYED),
    lower("program.msgs_per_superstep", "count", REPLAYED),
    lower("program.supersteps", "count", REPLAYED),
    lower("program.partition_rows_ms", "ms", REPLAYED),
    lower("program.compensate_partition_ms", "ms", &[(KillOptimistic, Latency)]),
    // The replay's own route + sort: a stand-in for step assembly.
    lower("driver.route_sort_ms_per_superstep", "ms", REPLAYED),
    // dataflow::codec + cluster::protocol over the replay's cross-worker
    // messages.
    lower("codec.encode_ms_per_superstep", "ms", WIRE),
    lower("codec.decode_ms_per_superstep", "ms", WIRE),
    lower("codec.bytes_per_msg", "B/msg", WIRE),
    Layer { name: "codec.encode_mb_per_s", unit: "MB/s", better: Better::Higher, moves: WIRE },
    lower("protocol.load_program_encode_ms", "ms", CLUSTER),
    lower("protocol.load_program_bytes", "B", CLUSTER),
    // cluster::exchange fed with the replay's frames.
    lower("exchange.deposit_ms_per_superstep", "ms", WIRE),
    lower("exchange.take_sorted_ms_per_superstep", "ms", WIRE),
    lower("exchange.dropped_frames", "count", WIRE),
    // cluster::coordinator, from the RunStats every run returns.
    lower("coordinator.superstep_p50_ms", "ms", BATCH),
    lower("coordinator.superstep_mean_ms", "ms", BATCH),
    lower("coordinator.startup_ms", "ms", BATCH),
    Layer { name: "coordinator.edges_per_s", unit: "1/s", better: Better::Higher, moves: BATCH },
    lower("coordinator.local_ttf_s", "s", CC_CLUSTER_CONTEXT),
    lower("coordinator.w1_ttf_s", "s", CC_CLUSTER_CONTEXT),
    lower("coordinator.cluster_over_local", "ratio", CC_CLUSTER_CONTEXT),
    // cluster::worker and the sockets, read back from the traced run's
    // MetricRegistry.
    lower("worker.compute_ms_per_superstep", "ms", CLUSTER),
    lower("worker.shuffle_ms_per_superstep", "ms", CLUSTER),
    lower("worker.exchange_ms_per_superstep", "ms", CLUSTER),
    lower("net.data_bytes_per_superstep", "B", CLUSTER),
    lower("net.control_bytes_out", "B", CLUSTER),
    lower("net.heartbeat_rtt_mean_us", "us", CLUSTER),
    // What the worker spans leave unexplained: barrier idle, inbox
    // assembly, control round trip.
    lower("ledger.unattributed_ms_per_superstep", "ms", WIRE),
    lower("ledger.unattributed_share", "ratio", WIRE),
    // Recovery, from the registry and RunStats of the kill runs.
    lower("recovery.detect_ms", "ms", KILL),
    lower("recovery.respawn_ms", "ms", KILL),
    lower("recovery.reshipped_bytes", "B", KILL),
    lower("recovery.extra_supersteps", "count", KILL),
    lower("recovery.handler_ms", "ms", KILL),
    lower("recovery.checkpoint_bytes", "B", ROLLBACK),
    lower("recovery.checkpoint_write_ms", "ms", ROLLBACK),
    lower("recovery.ff_ttf_s", "s", ROLLBACK),
    lower("recovery.ff_optimistic_ttf_s", "s", KILL_CONTEXT),
    lower("recovery.ff_overhead", "ratio", ROLLBACK),
    lower("recovery.kill_over_ff", "ratio", KILL_CONTEXT),
    lower("recovery.restart_ttf_s", "s", &[(KillOptimistic, Context)]),
    // serve::engine and serve::live_graph, called directly before the
    // daemon takes the engine.
    lower("engine.commit_insert_ms", "ms", INSERT),
    lower("engine.commit_delete_ms", "ms", DELETE),
    lower("engine.point_us", "us", QUERY),
    lower("engine.top10_us", "us", QUERY_CONTEXT),
    lower("engine.snapshot_us", "us", INSERT),
    lower("live_graph.build_ms", "ms", INSERT),
    // algos + dataflow: the cold delta iteration that bootstrap and every
    // delete commit amount to.
    lower("algos.cc_delta_ttf_s", "s", BOOTSTRAP),
    lower("algos.cc_delta_supersteps", "count", BOOTSTRAP),
    lower("algos.cc_workset_last_over_first", "ratio", DELETE),
    Layer {
        name: "dataflow.partition_task_busy_share",
        unit: "ratio",
        better: Better::Higher,
        moves: BOOTSTRAP,
    },
    lower("dataflow.pool_queue_depth_max", "count", BOOTSTRAP),
    // serve::daemon: what the TCP line protocol adds.
    lower("daemon.commit_wire_overhead_ms", "ms", INSERT),
    lower("daemon.wire_overhead_us", "us", QUERY),
    lower("daemon.query_p95_us", "us", QUERY),
    lower("daemon.top_p50_us", "us", QUERY_CONTEXT),
    lower("daemon.query_during_commit_p50_us", "us", QUERY_CONTEXT),
    // telemetry: the traced run against the untraced one.
    lower("telemetry.trace_overhead_ratio", "ratio", EVERYWHERE),
    lower("telemetry.untraced_latency_ms", "ms", EVERYWHERE),
    lower("telemetry.events_per_op", "count", EVERYWHERE),
    lower("telemetry.journal_bytes_per_op", "B", EVERYWHERE),
    lower("harness.peak_rss_mb", "MB", EVERYWHERE),
];

/// The benchmark's command line, run from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the tables above
/// (`perf-ledger --emit-benchmark-json > BENCHMARK.json`).
pub fn benchmark_json(run_seconds: u32) -> String {
    let quoted = |items: &[&str]| -> String {
        items.iter().map(|item| format!("\"{item}\"")).collect::<Vec<_>>().join(", ")
    };
    let rows = |rows: Vec<String>| rows.join(",\n    ");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let metric = |name: &str, unit: &str, better: Better| {
        format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"", better.as_str())
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| format!("{}, \"bound\": {}}}", metric(m.name, m.unit, m.better), m.bound))
        .collect();
    let per_layer =
        PER_LAYER.iter().map(|l| format!("{}}}", metric(l.name, l.unit, l.better))).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        quoted(&COMMAND),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

/// Names of the layer metrics measured on `workload`.
pub fn layers_of(workload: Workload) -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().filter(move |l| l.moves.iter().any(|&(w, _)| w == workload)).map(|l| l.name)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::stats::valid_name;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert!(seen.insert(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn every_layer_names_a_workload_and_every_workload_has_layers() {
        for layer in PER_LAYER {
            assert!(!layer.moves.is_empty(), "{} moves nothing anywhere", layer.name);
        }
        for w in Workload::ALL {
            assert!(
                PER_LAYER.iter().any(|l| l.moves.contains(&(w, Latency))),
                "no layer is predicted to move latency_ms on {}",
                w.name()
            );
        }
        assert!(PER_LAYER.iter().any(|l| l.moves.iter().any(|&(_, e)| e == Setup)));
    }

    #[test]
    fn benchmark_json_is_what_the_tables_emit() {
        for text in Workload::ALL.iter().map(|w| w.why()).chain(COMMAND) {
            assert!(!text.contains(['"', '\\']), "needs JSON escaping: {text}");
        }
        assert_eq!(BENCHMARK_JSON, benchmark_json(crate::RUN_SECONDS));
    }
}
