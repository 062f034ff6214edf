//! The structured event journal: what happened during a run, minus when.
//!
//! Events are the *facts* of an iterative run — supersteps completing,
//! checkpoints written, failures injected, recovery decisions taken. They
//! deliberately carry no wall-clock data: a deterministic run (fixed input,
//! fixed failure schedule) must replay to a byte-identical JSONL journal,
//! which is what lets tests assert on recovery behaviour instead of
//! scraping log strings. Timings live in [`crate::span`] and
//! [`crate::metrics`] instead.
//!
//! The three cluster-telemetry variants — [`JournalEvent::WorkerSpan`],
//! [`JournalEvent::RecoveryCost`] and [`JournalEvent::BringUp`] — are the
//! deliberate exception: measuring per-worker compute/shuffle time,
//! per-failure recovery cost and what bringing workers up costs is their
//! whole point, so they carry `*_ns` durations. Everything *around* the
//! durations stays deterministic (ordering, worker/seq keys, byte counts),
//! and determinism tests compare journals with `*_ns` values normalised.
//!
//! This module also owns the canonical [`RecoveryKind`] and
//! [`FailureRecord`] types. The engine crate re-exports them from its
//! `stats` module, so there is exactly one definition of "what the fault
//! handler did" across the workspace.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json::{self, Fields, Json, Obj, ReadError, Value};

/// Identifier of a simulated worker partition.
///
/// Mirrors the engine's partition id (both are `usize`); defined here so
/// the journal does not depend on the engine crate.
pub type PartitionId = usize;

/// What the fault handler did about an injected failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Lost partitions were re-initialised by a compensation function and the
    /// iteration continued (the paper's optimistic recovery).
    Compensated,
    /// State was restored from a checkpoint taken at the recorded iteration.
    RolledBack {
        /// Logical iteration of the restored checkpoint.
        to_iteration: u32,
    },
    /// The computation restarted from its initial state.
    Restarted,
    /// The failure was deliberately left unhandled (ablation runs only).
    Ignored,
}

/// A failure event observed during one superstep.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Partitions whose iteration state was lost.
    pub lost_partitions: Vec<PartitionId>,
    /// Records destroyed by the failure (across all lost partitions).
    pub lost_records: u64,
    /// How recovery proceeded.
    pub recovery: RecoveryKind,
    /// Wall-clock time spent inside the fault handler.
    pub recovery_duration: Duration,
}

/// An `f64` compared by bit pattern, so journal events containing norms can
/// stay `Eq` (replay tests compare whole event sequences for equality).
///
/// Deterministic runs produce bit-identical floats — the engine sums
/// per-partition contributions in a fixed sequential order — so bit equality
/// is exactly the right notion here, NaN payloads included.
#[derive(Debug, Clone, Copy)]
pub struct Norm(pub f64);

impl PartialEq for Norm {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Norm {}

impl From<f64> for Norm {
    fn from(value: f64) -> Self {
        Norm(value)
    }
}

/// Which iteration template produced a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationMode {
    /// Bulk iteration: the whole state is recomputed every superstep.
    Bulk,
    /// Delta iteration: solution set plus shrinking working set.
    Delta,
}

impl IterationMode {
    /// Stable label used in the journal.
    pub fn label(self) -> &'static str {
        match self {
            IterationMode::Bulk => "bulk",
            IterationMode::Delta => "delta",
        }
    }
}

impl Json for Norm {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        f64::read(value).map(Norm)
    }
}

impl Json for IterationMode {
    fn write(&self, out: &mut String) {
        json::quote_into(out, self.label());
    }
    fn read(value: &Value) -> Result<Self, ReadError> {
        let label = String::read(value)?;
        [IterationMode::Bulk, IterationMode::Delta]
            .into_iter()
            .find(|mode| mode.label() == label)
            .ok_or_else(|| ReadError(format!("unknown iteration mode {label:?}")))
    }
}

/// The journal schema: every event variant, declared once.
///
/// From this one table come the [`JournalEvent`] enum, [`JournalEvent::KINDS`],
/// [`JournalEvent::kind`], the writer [`JournalEvent::to_json`] and the
/// reader [`JournalEvent::read`]. A line is `{"event":"<Variant>"` followed
/// by one key per field, named after the field, in declaration order; how a
/// field type is spelled is the business of its [`Json`] impl and nothing
/// else. **To add an event or a field, edit this table** — there is no second
/// place: `flowscope` reads journals through this same declaration.
macro_rules! journal_events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident $({ $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )* })?,
    )*) => {
        /// One entry of the structured event journal.
        ///
        /// Variants carry only deterministic payloads (iteration coordinates,
        /// counts, names) — never durations or timestamps.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum JournalEvent {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl JournalEvent {
            /// Every variant name, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$(stringify!($variant)),*];

            /// Stable variant name, used as the `event` field of the JSONL
            /// journal.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( JournalEvent::$variant { .. } => stringify!($variant), )*
                }
            }

            /// Serialize as one line of JSON (no trailing newline). The
            /// `event` field always comes first; remaining fields are in
            /// declaration order.
            pub fn to_json(&self) -> String {
                let obj = Obj::new().str("event", self.kind());
                match self {
                    $( JournalEvent::$variant $({ $($field,)* })? => {
                        obj $($( .field(stringify!($field), $field) )*)? .finish()
                    } )*
                }
            }

            /// Read an event out of an opened journal line. `Ok(None)` is a
            /// well-formed line whose `event` kind this build does not
            /// declare (a newer writer); keys of a known kind that this
            /// build does not declare are left in [`Fields::unread`].
            pub fn read(fields: &mut Fields<'_>) -> Result<Option<JournalEvent>, ReadError> {
                let kind: String = fields.take("event")?;
                Ok(Some(match kind.as_str() {
                    $( stringify!($variant) => JournalEvent::$variant $({
                        $( $field: fields.take(stringify!($field))?, )*
                    })?, )*
                    _ => return Ok(None),
                }))
            }

            /// One event of every variant, each field drawn by its type's
            /// generator — the property tests' input, so a variant added to
            /// the table is covered without editing a test.
            #[cfg(test)]
            fn arbitrary_each(runner: &mut proptest::test_runner::TestRunner) -> Vec<JournalEvent> {
                vec![$( JournalEvent::$variant $({
                    $( $field: crate::json::arb::Arb::arb(runner), )*
                })?, )*]
            }
        }
    };
}

journal_events! {
    /// An iterative run began.
    RunStarted {
        /// Bulk or delta iteration.
        mode: IterationMode,
        /// Number of simulated worker partitions.
        parallelism: usize,
        /// Configured iteration cap.
        max_iterations: u32,
    },
    /// A superstep's body finished executing (before checkpoint/failure
    /// handling for that step).
    SuperstepCompleted {
        /// Chronological superstep index (never repeats).
        superstep: u32,
        /// Logical iteration number (repeats after rollback/restart).
        iteration: u32,
        /// Records that crossed partition boundaries during the step.
        records_shuffled: u64,
        /// Working-set size entering the next iteration (delta only).
        workset_size: Option<u64>,
    },
    /// Per-superstep convergence measurement, emitted right after the
    /// matching [`JournalEvent::SuperstepCompleted`] entry.
    ///
    /// `changed` counts the elements whose value moved during the superstep
    /// (bulk: records that differ from the previous state under the
    /// configured probe; delta: solution-set upserts). All payloads are
    /// deterministic: norms are summed in fixed partition order, so the
    /// byte-identical-replay guarantee holds for convergence samples too.
    ConvergenceSample {
        /// Chronological superstep index this sample describes.
        superstep: u32,
        /// Logical iteration number this sample describes.
        iteration: u32,
        /// Elements changed during the superstep, across all partitions.
        changed: u64,
        /// Elements changed per partition, indexed by partition id.
        changed_per_partition: Vec<u64>,
        /// Aggregate delta norm (algorithm-specific, e.g. L1 rank movement);
        /// [`None`] when the algorithm registered no norm probe.
        delta_norm: Option<Norm>,
        /// Working-set size per partition entering the next iteration
        /// (delta iterations only).
        workset_per_partition: Option<Vec<u64>>,
    },
    /// The fault handler wrote a checkpoint of the recorded iteration.
    CheckpointWritten {
        /// Logical iteration the checkpoint captures.
        iteration: u32,
        /// Serialized size of the checkpoint.
        bytes: u64,
    },
    /// An asynchronous snapshot barrier fired: every partition's chunk was
    /// captured locally; the stable-storage writes spread over the
    /// following supersteps (one [`JournalEvent::CheckpointWritten`] entry
    /// per persisted chunk).
    SnapshotBarrierStarted {
        /// Logical iteration the snapshot captures (its epoch).
        epoch: u32,
        /// Partition chunks the barrier captured.
        partitions: usize,
    },
    /// Every chunk of an asynchronous snapshot epoch reached stable
    /// storage; the epoch is now the restore point.
    SnapshotBarrierCompleted {
        /// The completed epoch.
        epoch: u32,
        /// Partition chunks persisted.
        partitions: usize,
        /// Total serialized size of the epoch across all chunks.
        bytes: u64,
    },
    /// The chaos plane injected a scheduled fault into a cluster run.
    ChaosInjected {
        /// Chronological superstep the injection targeted.
        superstep: u32,
        /// Worker process the injection targeted.
        worker: usize,
        /// Injection kind: `"kill"`, `"link_delay"`, `"link_drop"`, or
        /// `"straggler"`.
        kind: String,
        /// Kind-specific parameter: delay in milliseconds for `link_delay`
        /// and `straggler`, 0 for `kill` and `link_drop`.
        param: u64,
    },
    /// A partition task panicked mid-superstep. The executor caught the
    /// unwind and the engine converts the panic into a partition failure
    /// (the matching [`JournalEvent::FailureInjected`] entry follows), so a
    /// buggy UDF degrades into the same recovery path as simulated node
    /// churn instead of aborting the process.
    PartitionPanicked {
        /// Superstep whose body panicked (its state was discarded; no
        /// [`JournalEvent::SuperstepCompleted`] entry exists for it).
        superstep: u32,
        /// Logical iteration that was being computed.
        iteration: u32,
        /// Partition whose task panicked.
        pid: PartitionId,
    },
    /// A cluster worker process died mid-superstep (connection reset,
    /// heartbeat timeout, or a deliberate SIGKILL from a failure scenario).
    /// The coordinator converts the loss into a partition failure — the
    /// matching [`JournalEvent::FailureInjected`] entry follows — so network
    /// failures flow through the same recovery handlers as simulated ones.
    WorkerLost {
        /// Superstep during which the worker died (its partial output was
        /// discarded; no [`JournalEvent::SuperstepCompleted`] entry exists
        /// for it).
        superstep: u32,
        /// Logical iteration that was being computed.
        iteration: u32,
        /// Index of the worker process that died.
        worker: usize,
        /// Partitions the dead worker owned; their state was lost.
        lost_partitions: Vec<PartitionId>,
    },
    /// One timed phase of a partition step executed on a cluster worker
    /// process, shipped to the coordinator inside a `TelemetryFrame` and
    /// merged into the journal in causal `(superstep, worker, seq)` order.
    ///
    /// The `duration_ns` payload is wall-clock — the whole point of
    /// worker-side capture is measuring where cluster time goes — so
    /// journal-determinism comparisons normalise `*_ns` values first; every
    /// other field replays identically.
    WorkerSpan {
        /// Chronological superstep the phase belongs to.
        superstep: u32,
        /// Index of the worker process that executed the phase.
        worker: usize,
        /// Emission sequence number within `(superstep, worker)` — the
        /// causal merge key that keeps one worker's spans in their local
        /// order.
        seq: u64,
        /// Partition the phase processed.
        pid: PartitionId,
        /// Phase name: `"compute"` (the program's step function) or
        /// `"shuffle"` (encoding the reply frame for the wire).
        span: String,
        /// Records produced by the phase (state + outbound messages).
        records: u64,
        /// Wall-clock nanoseconds the phase took on the worker.
        duration_ns: u64,
    },
    /// A previously lost cluster worker was re-spawned and reconnected; its
    /// partitions were redistributed back to it.
    WorkerRejoined {
        /// Chronological superstep at which the replacement came back. A
        /// rejoin is a transport-level event: the cluster backend that emits
        /// it has no view of the driver's logical-iteration bookkeeping, so —
        /// unlike [`JournalEvent::WorkerLost`] — there is no `iteration`
        /// field.
        superstep: u32,
        /// Index of the worker process that rejoined.
        worker: usize,
        /// Connection attempts the exponential-backoff reconnect needed.
        reconnect_attempts: u32,
    },
    /// A worker process joined the live cluster at a superstep barrier
    /// because of an elastic scale-up — a *planned* membership change, in
    /// contrast to [`JournalEvent::WorkerRejoined`], which records a
    /// replacement for an unplanned loss.
    WorkerJoined {
        /// Chronological superstep barrier at which the joiner came up. Like
        /// a rejoin this is a transport-level event with no view of logical
        /// iterations.
        superstep: u32,
        /// Index of the worker process that joined.
        worker: usize,
    },
    /// An elastic rescale began: the placement subsystem is rewriting the
    /// partition map and the coordinator is about to move partitions over
    /// the recovery reship path. Closed by the matching
    /// [`JournalEvent::RebalanceCompleted`] entry.
    RebalanceStarted {
        /// Chronological superstep barrier the rescale fires at.
        superstep: u32,
        /// Worker count before the rescale.
        from_workers: usize,
        /// Worker count after the rescale.
        to_workers: usize,
    },
    /// An elastic rescale finished: the new partition map is installed and
    /// every moved partition was re-shipped. The byte cost here is a
    /// *planned* reship — `inspect recovery` bills it separately from the
    /// unplanned [`JournalEvent::RecoveryCost`] reships.
    RebalanceCompleted {
        /// Chronological superstep barrier the rescale fired at.
        superstep: u32,
        /// Partitions whose owner changed.
        moved_partitions: usize,
        /// Bytes written while rescaling (spawn loads, shutdowns, reloads) —
        /// dominated by the `LoadProgram` reships of moved partitions.
        reshipped_bytes: u64,
    },
    /// Per-failure recovery-cost accounting, emitted by the cluster
    /// coordinator right after the matching [`JournalEvent::WorkerRejoined`]
    /// entry: how long the loss took to detect, how long the respawn took,
    /// and how many bytes the `LoadProgram` re-ship moved.
    ///
    /// Like [`JournalEvent::WorkerSpan`], the `*_ns` fields are wall-clock
    /// by design and are normalised by journal-determinism comparisons.
    RecoveryCost {
        /// Chronological superstep at which the replacement worker rejoined.
        superstep: u32,
        /// Index of the worker whose loss is being accounted.
        worker: usize,
        /// How the loss was detected: `"heartbeat"` (missed heartbeat
        /// deadline) or `"read_error"` (EPIPE/ECONNRESET/EOF/timeout on the
        /// control connection).
        detection: String,
        /// Nanoseconds from dispatching the superstep to noticing the loss.
        detect_ns: u64,
        /// Nanoseconds to spawn, reconnect, and re-ship state to the
        /// replacement process.
        respawn_ns: u64,
        /// Bytes written to the replacement during respawn (dominated by the
        /// `LoadProgram` adjacency re-ship).
        reshipped_bytes: u64,
    },
    /// The cluster coordinator brought worker processes up — at the run's
    /// start, for a respawn, or for the joiners of a rescale — and this is
    /// what each phase of it took. Its `*_ns` fields are wall-clock like
    /// [`JournalEvent::RecoveryCost`]'s.
    BringUp {
        /// Chronological superstep the workers come up for (0 at the start).
        superstep: u32,
        /// Worker processes brought up together.
        workers: usize,
        /// Bytes written to them: greetings and `LoadProgram` frames.
        bytes: u64,
        /// Nanoseconds encoding the partitions' rows from the graph, while
        /// the processes boot: the run's first bring-up only, 0 otherwise.
        encode_ns: u64,
        /// Nanoseconds from the first spawn to the last port announcement
        /// read, the encode included where it ran in between.
        boot_ns: u64,
        /// Nanoseconds assembling each `LoadProgram` from the kept rows,
        /// connecting, and writing the greetings and frames.
        ship_ns: u64,
        /// Nanoseconds awaiting the acknowledgements and opening the
        /// heartbeat connections.
        ack_ns: u64,
    },
    /// A failure was injected, destroying partition state.
    FailureInjected {
        /// Superstep during which the failure struck.
        superstep: u32,
        /// Logical iteration during which the failure struck.
        iteration: u32,
        /// Partitions whose state was lost.
        lost_partitions: Vec<PartitionId>,
        /// Records destroyed across the lost partitions.
        lost_records: u64,
    },
    /// Optimistic recovery: a compensation function repaired the lost
    /// partitions and the iteration continued.
    CompensationApplied {
        /// Logical iteration that continues after compensation.
        iteration: u32,
    },
    /// The named compensation function ran (emitted by the strategy layer,
    /// alongside the engine's [`JournalEvent::CompensationApplied`]).
    CompensationInvoked {
        /// `Compensation::name()` of the function that repaired the state.
        name: String,
        /// Logical iteration it repaired.
        iteration: u32,
    },
    /// Rollback recovery: state was restored from a checkpoint.
    RolledBack {
        /// Logical iteration the run rolled back to.
        to_iteration: u32,
    },
    /// The strategy layer restored a checkpoint from stable storage.
    CheckpointRestored {
        /// Logical iteration of the restored checkpoint.
        iteration: u32,
    },
    /// Incremental rollback: a base checkpoint plus a chain of diffs was
    /// replayed.
    DiffChainReplayed {
        /// Logical iteration of the full base checkpoint.
        base_iteration: u32,
        /// Number of diffs replayed on top of the base.
        diffs: u32,
    },
    /// The computation restarted from its initial state.
    Restarted,
    /// The failure was deliberately ignored (ablation runs).
    FailureIgnored {
        /// Logical iteration during which the failure was ignored.
        iteration: u32,
    },
    /// The whole state of a demo-sized run after a superstep, failure and
    /// recovery included: what the paper's GUI draws per iteration. Only
    /// runs over a handful of vertices journal it (see
    /// `algos::common::SAMPLE_MAX_VERTICES`); `optirec inspect demo` draws
    /// the screens and plots from it.
    StateSample {
        /// Chronological superstep the sample follows.
        superstep: u32,
        /// Logical iteration the superstep computed.
        iteration: u32,
        /// The algorithm whose state this is: `"cc"` (labels) or
        /// `"pagerank"` (ranks).
        algorithm: String,
        /// Per vertex, by id: its label or rank; `null` where the vertex
        /// holds no state (lost and not restored).
        state: Vec<Norm>,
        /// Vertices of the partitions lost during the superstep, ascending
        /// (restored by the recovery the journal records before this line).
        lost_vertices: Vec<u64>,
        /// The plotted series at this superstep, by name (`messages`,
        /// `converged`, `distinct_labels`, `l1_diff`, `rank_sum`).
        series: BTreeMap<String, Norm>,
    },
    /// The run finished.
    RunCompleted {
        /// Supersteps actually executed (rollbacks re-execute).
        supersteps: u32,
        /// Highest logical iteration reached plus one.
        iterations: u32,
        /// Whether the termination criterion was met (vs. hitting the cap).
        converged: bool,
    },
    /// A serving engine applied a batch of live graph mutations (epoch
    /// boundary). The incremental re-convergence for the batch follows as a
    /// regular `RunStarted`..`RunCompleted` sequence, closed by the matching
    /// [`JournalEvent::Reconverge`] summary.
    MutationBatch {
        /// Serving epoch the batch opens (epoch 0 is the bootstrap
        /// convergence; the first mutation batch opens epoch 1).
        epoch: u32,
        /// Edge insertions in the batch.
        inserts: u64,
        /// Edge deletions in the batch.
        deletes: u64,
        /// Vertices seeded into the delta driver's workset (or reset for a
        /// warm bulk restart) instead of recomputing from scratch.
        seeded: u64,
    },
    /// A serving epoch's incremental re-convergence finished.
    Reconverge {
        /// Serving epoch that re-converged.
        epoch: u32,
        /// Supersteps the incremental run needed.
        supersteps: u32,
        /// Whether the run converged (vs. hitting the iteration cap).
        converged: bool,
    },
    /// The serving engine answered a query against the maintained solution
    /// set between update batches.
    Query {
        /// Serving epoch whose published solution answered the query.
        epoch: u32,
        /// Query kind: `"point"` or `"top"`.
        kind: String,
        /// Result rows returned (0 or 1 for point lookups).
        results: u64,
    },
}

impl JournalEvent {
    /// Parse one journal line; see [`JournalEvent::read`] for `Ok(None)`.
    pub fn from_json(line: &str) -> Result<Option<JournalEvent>, ReadError> {
        JournalEvent::read(&mut Fields::of(&json::parse(line)?)?)
    }

    /// The engine-side event describing a recovery decision.
    ///
    /// Strategy-specific detail events ([`JournalEvent::CompensationInvoked`],
    /// [`JournalEvent::CheckpointRestored`], ...) are emitted separately by
    /// the strategies themselves.
    pub fn from_recovery(kind: &RecoveryKind, iteration: u32) -> JournalEvent {
        match kind {
            RecoveryKind::Compensated => JournalEvent::CompensationApplied { iteration },
            RecoveryKind::RolledBack { to_iteration } => {
                JournalEvent::RolledBack { to_iteration: *to_iteration }
            }
            RecoveryKind::Restarted => JournalEvent::Restarted,
            RecoveryKind::Ignored => JournalEvent::FailureIgnored { iteration },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::arb::{below, from_fn, Arb};
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;

    impl Arb for Norm {
        fn arb(runner: &mut TestRunner) -> Self {
            Norm(f64::arb(runner))
        }
    }

    impl Arb for IterationMode {
        fn arb(runner: &mut TestRunner) -> Self {
            [IterationMode::Bulk, IterationMode::Delta][below(runner, 2)]
        }
    }

    proptest! {
        /// The round trip, over every variant the table declares.
        #[test]
        fn every_variant_survives_the_round_trip(
            events in from_fn(JournalEvent::arbitrary_each),
        ) {
            let kinds: Vec<_> = events.iter().map(JournalEvent::kind).collect();
            prop_assert_eq!(kinds, JournalEvent::KINDS);
            for event in events {
                let line = event.to_json();
                let back = JournalEvent::from_json(&line).expect(&line).expect("a declared kind");
                prop_assert_eq!(&back, &event, "{}", line);
                prop_assert_eq!(back.to_json(), line, "stable on the second pass");
            }
        }
    }

    /// One line per variant (more where optional keys come and go), written
    /// by the writer this table replaced: the bytes on disk did not change.
    #[test]
    fn golden_lines_pin_the_bytes_of_every_variant() {
        let mut unseen: Vec<&str> = JournalEvent::KINDS.to_vec();
        for line in include_str!("../golden/events.jsonl").lines() {
            let value = json::parse(line).expect(line);
            let mut fields = Fields::of(&value).expect(line);
            let event = JournalEvent::read(&mut fields).expect(line).expect("a declared kind");
            assert_eq!(fields.unread(), 0, "{line}");
            assert_eq!(event.to_json(), line);
            unseen.retain(|kind| *kind != event.kind());
        }
        assert!(unseen.is_empty(), "golden file has no line for {unseen:?}");
    }

    #[test]
    fn a_newer_writer_is_skipped_not_fatal() {
        assert_eq!(JournalEvent::from_json("{\"event\":\"SomethingNew\",\"x\":1}"), Ok(None));
        // An extra key on a known kind loads, and is left for the caller to count.
        let value = json::parse("{\"event\":\"Restarted\",\"since\":4,\"why\":\"x\"}").unwrap();
        let mut fields = Fields::of(&value).unwrap();
        assert_eq!(JournalEvent::read(&mut fields), Ok(Some(JournalEvent::Restarted)));
        assert_eq!(fields.unread(), 2);
    }

    #[test]
    fn a_missing_mistyped_or_out_of_range_key_is_an_error_naming_it() {
        let err = |line: &str| JournalEvent::from_json(line).unwrap_err().0;
        assert_eq!(err("{\"superstep\":1}"), "missing required key \"event\"");
        assert_eq!(
            err("{\"event\":\"RunCompleted\",\"supersteps\":1,\"iterations\":1}"),
            "missing required key \"converged\""
        );
        // Present-but-mistyped optional keys used to load silently as `None`.
        assert_eq!(
            err("{\"event\":\"SuperstepCompleted\",\"superstep\":0,\"iteration\":0,\
                 \"records_shuffled\":5,\"workset_size\":\"3\"}"),
            "key \"workset_size\": expected u64"
        );
        assert_eq!(
            err("{\"event\":\"ConvergenceSample\",\"superstep\":0,\"iteration\":0,\"changed\":1,\
                 \"changed_per_partition\":[1],\"delta_norm\":\"big\"}"),
            "key \"delta_norm\": expected a number"
        );
        assert_eq!(
            err("{\"event\":\"RolledBack\",\"to_iteration\":4294967296}"),
            "key \"to_iteration\": expected u32"
        );
        assert_eq!(
            err("{\"event\":\"RunStarted\",\"mode\":\"lazy\",\"parallelism\":1,\"max_iterations\":1}"),
            "key \"mode\": unknown iteration mode \"lazy\""
        );
        assert!(err("not json").contains("at byte 0"));
    }

    #[test]
    fn an_infinite_norm_is_the_one_value_that_does_not_survive() {
        let sample = |norm: f64| JournalEvent::ConvergenceSample {
            superstep: 0,
            iteration: 0,
            changed: 0,
            changed_per_partition: vec![],
            delta_norm: Some(Norm(norm)),
            workset_per_partition: None,
        };
        let line = sample(f64::INFINITY).to_json();
        assert!(line.ends_with("\"delta_norm\":null}"), "{line}");
        assert_eq!(JournalEvent::from_json(&line), Ok(Some(sample(f64::NAN))));
    }

    #[test]
    fn norms_compare_by_bit_pattern() {
        assert_eq!(Norm(0.5), Norm(0.5));
        assert_ne!(Norm(0.0), Norm(-0.0));
        assert_eq!(Norm(f64::NAN), Norm(f64::NAN));
        assert_eq!(Norm::from(2.0), Norm(2.0));
    }

    #[test]
    fn recovery_kinds_map_to_events() {
        assert_eq!(
            JournalEvent::from_recovery(&RecoveryKind::Compensated, 4),
            JournalEvent::CompensationApplied { iteration: 4 }
        );
        assert_eq!(
            JournalEvent::from_recovery(&RecoveryKind::RolledBack { to_iteration: 2 }, 4),
            JournalEvent::RolledBack { to_iteration: 2 }
        );
        assert_eq!(
            JournalEvent::from_recovery(&RecoveryKind::Restarted, 4),
            JournalEvent::Restarted
        );
        assert_eq!(
            JournalEvent::from_recovery(&RecoveryKind::Ignored, 4),
            JournalEvent::FailureIgnored { iteration: 4 }
        );
    }
}
