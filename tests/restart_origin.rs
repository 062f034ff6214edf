//! The driver copies an iteration's initial state only to restart from it:
//! a handler that never restarts (optimistic, ignore) runs with no copy at
//! all, and a restarting one still resumes from the exact initial state.
//! The states below count their clones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dataflow::dataset::Erased;
use dataflow::exec::ExecContext;
use dataflow::ft::SolutionSets;
use dataflow::iterate::BulkState;
use dataflow::plan::DynOp;
use dataflow::prelude::*;
use dataflow::stats::RecoveryKind;
use recovery::{IgnoreHandler, OptimisticHandler};

const PARALLELISM: usize = 3;

/// The values each partition of the bulk state starts from.
fn start_values() -> Vec<Vec<u64>> {
    vec![vec![3, 1], vec![4, 2], vec![5]]
}

/// A bulk state that counts its clones: every value counts down by one a
/// superstep, and the run ends when all are zero.
struct Countdown {
    parts: Vec<Vec<u64>>,
    clones: Arc<AtomicUsize>,
}

impl Clone for Countdown {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Countdown { parts: self.parts.clone(), clones: self.clones.clone() }
    }
}

impl IterationState for Countdown {
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    fn clear_partition(&mut self, pid: PartitionId) -> u64 {
        std::mem::take(&mut self.parts[pid]).len() as u64
    }
}

impl BulkState for Countdown {
    fn records_per_partition(&self) -> Vec<u64> {
        self.parts.iter().map(|part| part.len() as u64).collect()
    }
}

/// Hands the initial state to the iteration once, unshared.
struct Start(Option<Countdown>);

impl DynOp for Start {
    fn execute(&mut self, _inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let state = self.0.take().ok_or_else(|| EngineError::Plan("started twice".into()))?;
        Ok(Erased::of(state))
    }

    fn kind(&self) -> &'static str {
        "Start"
    }
}

/// One superstep: a new state, every value one lower (no clone of the old).
struct Tick;

impl DynOp for Tick {
    fn execute(&mut self, inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let state: &Countdown = inputs[0].downcast_ref("tick")?;
        let parts = state
            .parts
            .iter()
            .map(|part| part.iter().map(|v| v.saturating_sub(1)).collect())
            .collect();
        Ok(Erased::of(Countdown { parts, clones: state.clones.clone() }))
    }

    fn kind(&self) -> &'static str {
        "Tick"
    }
}

/// Termination: one record while any value is above zero.
struct Running;

impl DynOp for Running {
    fn execute(&mut self, inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let state: &Countdown = inputs[0].downcast_ref("running")?;
        let mut flag = Partitions::<u8>::empty(PARALLELISM);
        if state.parts.iter().flatten().any(|&v| v > 0) {
            flag.partition_mut(0).push(1);
        }
        Ok(Erased::new(flag))
    }

    fn kind(&self) -> &'static str {
        "Running"
    }
}

/// The final state's values, as a dataset.
struct Values;

impl DynOp for Values {
    fn execute(&mut self, inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let state: &Countdown = inputs[0].downcast_ref("values")?;
        Ok(Erased::new(Partitions::from_parts(state.parts.clone())))
    }

    fn kind(&self) -> &'static str {
        "Values"
    }
}

/// What a bulk countdown run left: its values, its account, the states the
/// observer saw after a failure, and the clones made of the state.
struct BulkRun {
    values: Vec<u64>,
    stats: RunStats,
    after_failure: Vec<Vec<Vec<u64>>>,
    clones: usize,
}

/// Count down from [`start_values`] under `handler`, losing partition 1
/// after superstep 1.
fn countdown_run(handler: Box<dyn FaultHandler<Countdown>>) -> BulkRun {
    let env = Environment::new(PARALLELISM);
    let clones = Arc::new(AtomicUsize::new(0));
    let start = Countdown { parts: start_values(), clones: clones.clone() };
    let initial = env.custom_node::<u64>("countdown", vec![], Box::new(Start(Some(start))));
    let mut iteration = BulkIteration::<u64, Countdown>::over(&initial, 20);
    iteration.set_fault_handler(handler);
    iteration.set_failure_source(DeterministicFailures::new().fail_at(1, &[1]));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    iteration.set_observer(move |_, state: &Countdown, stats| {
        if stats.failure.is_some() {
            sink.lock().unwrap().push(state.parts.clone());
        }
    });
    let body = iteration.body_environment();
    let state = iteration.state();
    let next = body.custom_node::<u64>("tick", vec![state.node_id()], Box::new(Tick));
    let running = body.custom_node::<u8>("running", vec![next.node_id()], Box::new(Running));
    let (result, stats) = iteration.close_with_termination(next, running);
    let values = env.custom_node::<u64>("values", vec![result.node_id()], Box::new(Values));
    let values = values.collect().unwrap();
    let after_failure = seen.lock().unwrap().clone();
    BulkRun {
        values,
        stats: stats.take().unwrap(),
        after_failure,
        clones: clones.load(Ordering::SeqCst),
    }
}

/// The optimistic countdown's compensation: lost partitions start over.
fn restart_lost(state: &mut Countdown, lost: &[PartitionId], _iteration: u32) {
    for &pid in lost {
        state.parts[pid] = start_values()[pid].clone();
    }
}

fn recoveries(stats: &RunStats) -> Vec<RecoveryKind> {
    stats.failures().map(|(_, failure)| failure.recovery.clone()).collect()
}

#[test]
fn a_bulk_iteration_that_never_restarts_never_copies_its_initial_state() {
    let optimistic = countdown_run(Box::new(OptimisticHandler::new(restart_lost)));
    assert_eq!(recoveries(&optimistic.stats), [RecoveryKind::Compensated]);
    assert!(optimistic.stats.converged);
    assert_eq!(optimistic.values, [0; 5]);
    assert_eq!(optimistic.clones, 0, "optimistic recovery copied the state");

    let ignore = countdown_run(Box::new(IgnoreHandler));
    assert_eq!(recoveries(&ignore.stats), [RecoveryKind::Ignored]);
    assert_eq!(ignore.values.len(), 3, "partition 1's two values are gone");
    assert_eq!(ignore.clones, 0, "ignoring a failure copied the state");
}

#[test]
fn a_restarting_bulk_iteration_resumes_from_the_exact_initial_state() {
    let run = countdown_run(Box::new(RestartHandler));
    assert_eq!(recoveries(&run.stats), [RecoveryKind::Restarted]);
    assert_eq!(run.after_failure, [start_values()], "the restart resumed elsewhere");
    assert!(run.stats.converged);
    assert_eq!(run.values, [0; 5]);
    // One copy kept as the restart origin, one made from it to restart.
    assert_eq!(run.clones, 2);
}

/// A solution value that counts its clones.
struct Tally {
    value: u64,
    clones: Arc<AtomicUsize>,
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Tally { value: self.value, clones: self.clones.clone() }
    }
}

type TallyState = DeltaState<u64, Tally, u64>;

const KEYS: u64 = 12;

fn tallies(keys: impl Iterator<Item = u64>, clones: &Arc<AtomicUsize>) -> Vec<(u64, Tally)> {
    keys.map(|k| (k, Tally { value: 10 * k, clones: clones.clone() })).collect()
}

/// What a resident delta run left: its solution as `(key, value)`, its
/// account, the solutions the observer saw after a failure, and the clones
/// made of solution values.
struct DeltaRun {
    solution: Vec<(u64, u64)>,
    stats: RunStats,
    after_failure: Vec<(Vec<(u64, u64)>, usize)>,
    clones: usize,
}

fn entries(solution: &SolutionSets<u64, Tally>) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> =
        solution.iter().flatten().map(|(&k, tally)| (k, tally.value)).collect();
    entries.sort_unstable();
    entries
}

/// One superstep over a resident state of [`KEYS`] keys that upserts
/// nothing and drains the workset, losing partition 1 after it; built by
/// `handler` from the clone counter.
fn tally_run(
    handler: impl FnOnce(&Arc<AtomicUsize>) -> Box<dyn FaultHandler<TallyState>>,
) -> DeltaRun {
    let env = Environment::new(PARALLELISM);
    let clones = Arc::new(AtomicUsize::new(0));
    let initial = TallyState {
        solution: dataflow::ft::solution_sets(tallies(0..KEYS, &clones), PARALLELISM),
        workset: Partitions::keyed((0..KEYS).collect(), PARALLELISM, |&k| k),
    };
    let mut iteration = DeltaIteration::<u64, Tally, u64>::over(&env, 10);
    iteration.set_fault_handler(handler(&clones));
    iteration.set_failure_source(DeterministicFailures::new().fail_at(0, &[1]));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    iteration.set_observer(move |_, solution, workset: &Partitions<u64>, stats| {
        if stats.failure.is_some() {
            sink.lock().unwrap().push((entries(solution), workset.total_len()));
        }
    });
    let workset = iteration.workset();
    let delta = workset.flat_map("no-upserts", |_: &u64| Vec::<(u64, Tally)>::new());
    let drained = workset.filter("drained", |_| false);
    let run = iteration.run_from(delta, drained, initial).unwrap();
    let after_failure = seen.lock().unwrap().clone();
    DeltaRun {
        solution: entries(&run.state.solution),
        stats: run.stats,
        after_failure,
        clones: clones.load(Ordering::SeqCst),
    }
}

fn initial_entries() -> Vec<(u64, u64)> {
    (0..KEYS).map(|k| (k, 10 * k)).collect()
}

#[test]
fn a_delta_iteration_that_never_restarts_never_copies_its_initial_state() {
    let optimistic = tally_run(|clones| {
        let clones = clones.clone();
        Box::new(OptimisticHandler::new(
            move |state: &mut TallyState, lost: &[PartitionId], _: u32| {
                for (k, tally) in tallies(0..KEYS, &clones) {
                    let pid = hash_partition(&k, PARALLELISM);
                    if lost.contains(&pid) {
                        state.solution[pid].insert(k, tally);
                    }
                }
            },
        ))
    });
    assert_eq!(recoveries(&optimistic.stats), [RecoveryKind::Compensated]);
    assert!(optimistic.stats.converged);
    assert_eq!(optimistic.solution, initial_entries());
    assert_eq!(optimistic.clones, 0, "optimistic recovery copied the state");

    let ignore = tally_run(|_| Box::new(IgnoreHandler));
    assert_eq!(recoveries(&ignore.stats), [RecoveryKind::Ignored]);
    assert!(ignore.solution.len() < KEYS as usize, "partition 1's keys are gone");
    assert_eq!(ignore.clones, 0, "ignoring a failure copied the state");
}

#[test]
fn a_restarting_delta_iteration_resumes_from_the_exact_initial_state() {
    let run = tally_run(|_| Box::new(RestartHandler));
    assert_eq!(recoveries(&run.stats), [RecoveryKind::Restarted]);
    assert_eq!(
        run.after_failure,
        [(initial_entries(), KEYS as usize)],
        "the restart resumed from a state other than the initial one"
    );
    assert!(run.stats.converged);
    assert_eq!(run.solution, initial_entries());
    // Every value copied once into the restart origin, once out of it.
    assert_eq!(run.clones, 2 * KEYS as usize);
}

/// A handler that declares it never restarts and then does.
struct LyingRestart;

impl FaultHandler<TallyState> for LyingRestart {
    fn restarts(&self) -> bool {
        false
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut TallyState,
    ) -> Result<RecoveryAction<TallyState>> {
        Ok(RecoveryAction::Restart)
    }
}

#[test]
fn a_restart_from_a_handler_that_declared_none_is_an_error() {
    let env = Environment::new(PARALLELISM);
    let clones = Arc::new(AtomicUsize::new(0));
    let initial = TallyState {
        solution: dataflow::ft::solution_sets(tallies(0..KEYS, &clones), PARALLELISM),
        workset: Partitions::keyed((0..KEYS).collect(), PARALLELISM, |&k| k),
    };
    let mut iteration = DeltaIteration::<u64, Tally, u64>::over(&env, 10);
    iteration.set_fault_handler(Box::new(LyingRestart));
    iteration.set_failure_source(DeterministicFailures::new().fail_at(0, &[1]));
    let workset = iteration.workset();
    let delta = workset.flat_map("no-upserts", |_: &u64| Vec::<(u64, Tally)>::new());
    let drained = workset.filter("drained", |_| false);
    let error = iteration.run_from(delta, drained, initial).err().expect("the run must fail");
    assert!(matches!(error, EngineError::Recovery(_)), "{error}");
    assert!(error.to_string().contains("never restarts"), "{error}");
}
