//! Shared experiment plumbing: fault-tolerance configuration, the bulk and
//! delta entries to the strategy → handler table ([`Strategy::handler`]),
//! and the compensation the min-propagation algorithms share.

use std::hash::Hash;
use std::sync::Arc;

use dataflow::codec::Codec;
use dataflow::dataset::{Data, Partitions};
use dataflow::error::Result;
use dataflow::ft::{DeltaState, SolutionSets};
use dataflow::hash::{FxHashMap, FxHashSet};
use dataflow::iterate::ConvergenceMeasure;
use dataflow::partition::{hash_partition, PartitionId};
use dataflow::stats::IterationStats;
use graphs::{Graph, VertexId};
use recovery::checkpoint::{CostModel, DiskStore, MemoryStore, StableStore};
use recovery::compensation::{lost_keys, Compensation};
use recovery::incremental::IncrementalDeltaHandler;
use recovery::scenario::FailureScenario;
use recovery::strategy::{Handler, Strategy};
use telemetry::{JournalEvent, Norm, SinkHandle};

/// Fault-tolerance configuration of one algorithm run.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Which recovery strategy to install.
    pub strategy: Strategy,
    /// When failures strike.
    pub scenario: FailureScenario,
    /// Stable-storage cost model for checkpoint strategies.
    pub checkpoint_cost: CostModel,
    /// Checkpoint to an on-disk store instead of the in-memory one.
    pub checkpoint_on_disk: bool,
    /// Telemetry sink shared by the engine and the recovery handlers (the
    /// disabled no-op handle by default).
    pub telemetry: SinkHandle,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            strategy: Strategy::Optimistic,
            scenario: FailureScenario::none(),
            checkpoint_cost: CostModel::instant(),
            checkpoint_on_disk: false,
            telemetry: SinkHandle::disabled(),
        }
    }
}

impl FtConfig {
    /// Optimistic recovery under the given failure scenario.
    pub fn optimistic(scenario: FailureScenario) -> Self {
        FtConfig { scenario, ..Default::default() }
    }

    /// Rollback recovery with the given checkpoint interval.
    pub fn checkpoint(interval: u32, scenario: FailureScenario) -> Self {
        FtConfig { strategy: Strategy::Checkpoint { interval }, scenario, ..Default::default() }
    }

    /// Restart-from-scratch under the given scenario.
    pub fn restart(scenario: FailureScenario) -> Self {
        FtConfig { strategy: Strategy::Restart, scenario, ..Default::default() }
    }

    /// Ablation: ignore failures (converges to wrong results).
    pub fn ignore(scenario: FailureScenario) -> Self {
        FtConfig { strategy: Strategy::Ignore, scenario, ..Default::default() }
    }

    /// Builder-style cost-model override.
    pub fn with_checkpoint_cost(mut self, model: CostModel) -> Self {
        self.checkpoint_cost = model;
        self
    }

    /// Builder-style on-disk checkpointing toggle.
    pub fn with_disk_checkpoints(mut self, on_disk: bool) -> Self {
        self.checkpoint_on_disk = on_disk;
        self
    }

    /// Builder-style telemetry sink: the algorithm runner installs it on
    /// both the engine environment and the recovery handlers, so engine
    /// events and strategy detail events land in one journal.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Combined label for reports, e.g. `"optimistic/fail@3[1]"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.strategy.label(), self.scenario.label())
    }
}

/// Engine environment for an algorithm run: the requested parallelism plus
/// the fault-tolerance config's telemetry sink, so engine spans and journal
/// events land in the same sink as the recovery handlers' detail events.
pub fn environment(parallelism: usize, ft: &FtConfig) -> dataflow::api::Environment {
    dataflow::api::Environment::with_config(
        dataflow::config::EnvConfig::new(parallelism).with_telemetry(ft.telemetry.clone()),
    )
}

/// The stable store the configuration asks for.
fn stable_store(ft: &FtConfig) -> Result<Box<dyn StableStore>> {
    Ok(if ft.checkpoint_on_disk {
        Box::new(DiskStore::temp()?.with_cost_model(ft.checkpoint_cost))
    } else {
        Box::new(MemoryStore::with_cost_model(ft.checkpoint_cost))
    })
}

/// Build the bulk-iteration fault handler for a strategy, wiring in the
/// algorithm's compensation function where the strategy calls for one.
pub fn bulk_handler<T, C>(ft: &FtConfig, compensation: C) -> Result<Handler<Partitions<T>>>
where
    T: Data + Codec,
    C: Compensation<Partitions<T>> + 'static,
{
    let delta_only = |_: Box<dyn StableStore>, _| {
        Err(dataflow::error::EngineError::Recovery(
            "incremental checkpointing requires a delta iteration; use a bulk-capable \
             strategy (optimistic / checkpoint / restart) here"
                .into(),
        ))
    };
    ft.strategy.handler(compensation, || stable_store(ft), &ft.telemetry, delta_only)
}

/// Build the delta-iteration fault handler for a strategy.
pub fn delta_handler<K, V, W, C>(
    ft: &FtConfig,
    compensation: C,
) -> Result<Handler<DeltaState<K, V, W>>>
where
    K: Data + Codec + std::hash::Hash + Eq,
    V: Data + Codec + PartialEq,
    W: Data + Codec,
    C: Compensation<DeltaState<K, V, W>> + 'static,
{
    let incremental = |store: Box<dyn StableStore>, full_interval| {
        let handler = IncrementalDeltaHandler::<K, V, W, _>::new(store, full_interval)?;
        Ok(Box::new(handler.with_telemetry(ft.telemetry.clone())) as Handler<_>)
    };
    ft.strategy.handler(compensation, || stable_store(ft), &ft.telemetry, incremental)
}

/// The compensation of the monotone min-propagation class (Connected
/// Components, SSSP, reachability): the fixpoint is reached from any state
/// no further along than the initial one, so the lost vertices are reset to
/// their initial values, and propagation is re-seeded from them and from
/// their surviving neighbours, which hold correct values but stopped
/// sending. Only *active* values are worth propagating (SSSP: a finite
/// distance; reachability: reached). The algorithms differ only in those
/// two functions and the journaled name; each builds its instance from a
/// constructor (`connected_components::fix_components`,
/// `sssp::fix_distances`, `reachability::fix_reachability`).
pub struct FixPropagation<V> {
    name: &'static str,
    graph: Arc<Graph>,
    parallelism: usize,
    initial: Box<dyn Fn(VertexId) -> V>,
    active: fn(&V) -> bool,
}

impl<V> FixPropagation<V> {
    /// The compensation `name` over `graph` (shared, not copied; the
    /// neighbours it re-seeds are read from it by vertex id): vertex `v`
    /// starts at `initial(v)`, and a value `x` re-propagates when
    /// `active(&x)`.
    pub(crate) fn new(
        name: &'static str,
        graph: Arc<Graph>,
        parallelism: usize,
        initial: impl Fn(VertexId) -> V + 'static,
        active: fn(&V) -> bool,
    ) -> Self {
        FixPropagation { name, graph, parallelism, initial: Box::new(initial), active }
    }
}

impl<V: Copy> Compensation<DeltaState<VertexId, V, (VertexId, V)>> for FixPropagation<V> {
    fn compensate(
        &mut self,
        state: &mut DeltaState<VertexId, V, (VertexId, V)>,
        lost: &[PartitionId],
        _iteration: u32,
    ) {
        let DeltaState { solution, workset } = state;
        let lost_set: FxHashSet<PartitionId> = lost.iter().copied().collect();
        let mut resenders: FxHashSet<VertexId> = FxHashSet::default();
        let num_vertices = self.graph.num_vertices() as u64;
        for (v, pid) in lost_keys(num_vertices, self.parallelism, lost) {
            let initial = (self.initial)(v);
            solution[pid].insert(v, initial);
            if (self.active)(&initial) {
                workset.partition_mut(pid).push((v, initial));
            }
            for &u in self.graph.neighbors(v) {
                if !lost_set.contains(&hash_partition(&u, self.parallelism)) {
                    resenders.insert(u);
                }
            }
        }
        let mut resenders: Vec<VertexId> = resenders.into_iter().collect();
        resenders.sort_unstable();
        for u in resenders {
            let pid = hash_partition(&u, self.parallelism);
            if let Some(&value) = solution[pid].get(&u).filter(|value| (self.active)(value)) {
                workset.partition_mut(pid).push((u, value));
            }
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Build a convergence probe for bulk iterations over keyed records.
///
/// `diff` scores how far a record moved relative to its predecessor under
/// the same key (`None` when the key is new — e.g. after a restart); a
/// record counts as *changed* when its score exceeds `epsilon`, and the
/// summed scores become the sample's delta norm. Scores are accumulated
/// sequentially in partition-then-record order, so deterministic runs
/// produce bit-identical norms.
pub fn keyed_bulk_probe<T, K>(
    key_of: impl Fn(&T) -> K + 'static,
    diff: impl Fn(Option<&T>, &T) -> f64 + 'static,
    epsilon: f64,
) -> impl FnMut(&Partitions<T>, &Partitions<T>) -> ConvergenceMeasure
where
    T: Data,
    K: Hash + Eq,
{
    move |prev, next| {
        let mut old: FxHashMap<K, &T> = FxHashMap::default();
        for record in prev.iter_records() {
            old.insert(key_of(record), record);
        }
        let parts = next.as_parts();
        let mut changed_per_partition = vec![0u64; parts.len()];
        let mut norm = 0.0f64;
        for (pid, part) in parts.iter().enumerate() {
            for record in part {
                let score = diff(old.get(&key_of(record)).copied(), record);
                norm += score;
                if score > epsilon {
                    changed_per_partition[pid] += 1;
                }
            }
        }
        ConvergenceMeasure { changed_per_partition, delta_norm: Some(norm) }
    }
}

/// The probe signature delta iterations accept: pre-apply solution sets
/// plus the superstep's delta, returning the optional aggregate norm.
pub type DeltaNormProbe<K, V> = dyn FnMut(&SolutionSets<K, V>, &Partitions<(K, V)>) -> Option<f64>;

/// Build a norm probe for delta iterations: sums `diff(old, new)` over the
/// delta's upserts, looking the old value up in the pre-apply solution sets
/// (`None` when the key has no entry — e.g. on a failure-cleared
/// partition). Accumulation order is the delta's partition-then-record
/// order, so deterministic runs produce bit-identical norms.
#[allow(clippy::type_complexity)]
pub fn delta_norm_probe<K, V>(
    diff: impl Fn(Option<&V>, &V) -> f64 + 'static,
) -> impl FnMut(&SolutionSets<K, V>, &Partitions<(K, V)>) -> Option<f64>
where
    K: Data + Hash + Eq,
    V: Data,
{
    move |solution, delta| {
        let parallelism = solution.len();
        let mut norm = 0.0f64;
        for (k, v) in delta.iter_records() {
            let pid = hash_partition(k, parallelism);
            norm += diff(solution[pid].get(k), v);
        }
        Some(norm)
    }
}

/// Counter name for the paper's "messages per iteration" plot.
pub const MESSAGES: &str = "messages";
/// Gauge: vertices/records that already match the precomputed exact result.
pub const CONVERGED: &str = "converged";
/// Gauge: number of distinct labels (the "colours" of the CC demo GUI).
pub const DISTINCT_LABELS: &str = "distinct_labels";
/// Gauge: L1 norm between consecutive iteration states (PageRank plot ii).
pub const L1_DIFF: &str = "l1_diff";
/// Gauge: sum of all ranks (the invariant `FixRanks` maintains).
pub const RANK_SUM: &str = "rank_sum";

/// Runs over at most this many vertices journal a
/// [`JournalEvent::StateSample`] after every superstep, when telemetry is
/// on and the run tracks the truth: the demo's screens and plots. The demo
/// graphs have 16 and 10 vertices; a benchmark graph journals none.
pub const SAMPLE_MAX_VERTICES: usize = 64;

/// What a demo-sized run journals after each superstep: the whole state,
/// the vertices a failure took, and the series the paper plots.
pub(crate) struct Sampler {
    telemetry: SinkHandle,
    algorithm: &'static str,
    num_vertices: usize,
    parallelism: usize,
    series: &'static [&'static str],
}

impl Sampler {
    /// The sampler of a run of `algorithm` over `num_vertices` vertices, or
    /// `None` when the run journals no samples. `series` names the gauges
    /// and counters a sample carries.
    pub(crate) fn of(
        ft: &FtConfig,
        track_truth: bool,
        algorithm: &'static str,
        num_vertices: usize,
        parallelism: usize,
        series: &'static [&'static str],
    ) -> Option<Sampler> {
        let telemetry = &ft.telemetry;
        (telemetry.enabled() && track_truth && num_vertices <= SAMPLE_MAX_VERTICES).then(|| {
            let telemetry = telemetry.clone();
            Sampler { telemetry, algorithm, num_vertices, parallelism, series }
        })
    }

    /// Journal the state `values` (`(vertex, value)` pairs) after the
    /// superstep `stats` accounts for.
    pub(crate) fn sample(
        &self,
        stats: &IterationStats,
        values: impl IntoIterator<Item = (VertexId, f64)>,
    ) {
        let mut state = vec![Norm(f64::NAN); self.num_vertices];
        for (v, value) in values {
            state[v as usize] = Norm(value);
        }
        let lost_vertices = stats.failure.as_ref().map_or_else(Vec::new, |failure| {
            lost_keys(self.num_vertices as u64, self.parallelism, &failure.lost_partitions)
                .map(|(v, _)| v)
                .collect()
        });
        let series = self.series.iter().filter_map(|&name| {
            let value =
                stats.gauge(name).or_else(|| stats.counters.get(name).map(|&c| c as f64))?;
            Some((name.to_owned(), Norm(value)))
        });
        self.telemetry.emit(|| JournalEvent::StateSample {
            superstep: stats.superstep,
            iteration: stats.iteration,
            algorithm: self.algorithm.to_owned(),
            state,
            lost_vertices,
            series: series.collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::dataset::Partitions;
    use dataflow::ft::RecoveryAction;

    fn noop_comp(_s: &mut Partitions<u64>, _l: &[usize], _i: u32) {}

    #[test]
    fn strategy_dispatch_builds_matching_handlers() {
        let mut state = Partitions::round_robin(vec![1u64, 2], 2);

        let ft = FtConfig::optimistic(FailureScenario::none());
        let mut h = bulk_handler::<u64, _>(&ft, noop_comp).unwrap();
        assert!(matches!(h.on_failure(0, &[0], &mut state).unwrap(), RecoveryAction::Compensated));

        let ft = FtConfig::restart(FailureScenario::none());
        let mut h = bulk_handler::<u64, _>(&ft, noop_comp).unwrap();
        assert!(matches!(h.on_failure(0, &[0], &mut state).unwrap(), RecoveryAction::Restart));

        let ft = FtConfig::ignore(FailureScenario::none());
        let mut h = bulk_handler::<u64, _>(&ft, noop_comp).unwrap();
        assert!(matches!(h.on_failure(0, &[0], &mut state).unwrap(), RecoveryAction::Ignore));

        let ft = FtConfig::checkpoint(2, FailureScenario::none());
        let mut h = bulk_handler::<u64, _>(&ft, noop_comp).unwrap();
        assert!(h.after_superstep(0, &state).unwrap().is_some());
        assert!(h.after_superstep(1, &state).unwrap().is_none());
        assert!(matches!(
            h.on_failure(1, &[0], &mut state).unwrap(),
            RecoveryAction::Restored { iteration: 0, .. }
        ));

        // Async snapshots spread chunk writes: with 2 partitions the epoch
        // at iteration 0 completes at iteration 1 and is the restore point.
        let ft = FtConfig {
            strategy: Strategy::AsyncSnapshot { interval: 4 },
            ..FtConfig::optimistic(FailureScenario::none())
        };
        let mut h = bulk_handler::<u64, _>(&ft, noop_comp).unwrap();
        assert!(h.after_superstep(0, &state).unwrap().is_some());
        assert!(h.after_superstep(1, &state).unwrap().is_some());
        assert!(matches!(
            h.on_failure(2, &[0], &mut state).unwrap(),
            RecoveryAction::Restored { iteration: 0, .. }
        ));
    }

    #[test]
    fn disk_checkpoint_handler_roundtrips() {
        let ft = FtConfig::checkpoint(1, FailureScenario::none()).with_disk_checkpoints(true);
        let mut h = bulk_handler::<u64, _>(&ft, noop_comp).unwrap();
        let state = Partitions::round_robin(vec![9u64, 8, 7], 3);
        assert!(h.after_superstep(0, &state).unwrap().is_some());
        let mut broken = state.clone();
        broken.clear_partition(1);
        match h.on_failure(1, &[1], &mut broken).unwrap() {
            RecoveryAction::Restored { state: restored, .. } => assert_eq!(restored, state),
            _ => panic!("expected rollback"),
        }
    }

    #[test]
    fn labels_compose() {
        let ft = FtConfig::checkpoint(5, FailureScenario::none().fail_at(2, &[0]));
        assert_eq!(ft.label(), "checkpoint(5)/fail@2[0]");
    }
}
