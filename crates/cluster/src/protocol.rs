//! The cluster wire protocol: coordinator↔worker control frames and
//! worker↔worker data-plane frames.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload length
//! followed by the payload, which is a [`Codec`]-encoded [`Message`] (a `u8`
//! tag plus the variant's fields). The same [`Codec`] trait serialises
//! checkpoints, so the cluster layer adds no second serialisation scheme.
//! Payload lengths are validated through [`checked_frame_len`] before any
//! byte is written: a payload beyond the `u32` prefix range (or the
//! [`MAX_FRAME_BYTES`] cap) fails loudly as
//! [`EngineError::FrameTooLarge`] instead of silently truncating the length
//! and corrupting the stream.
//!
//! Frame I/O optionally feeds the `net/bytes_in` / `net/bytes_out` counters
//! of the coordinator's metric registry — the length prefix is included, so
//! the counters reflect actual bytes on the wire. Under the direct data
//! plane those counters cover the *control* plane only; peer-to-peer
//! shuffle bytes are self-reported by workers via
//! [`SPAN_PHASE_PEER_BYTES`] telemetry rows.

use std::io::{self, Read, Write};

use dataflow::codec::{decode_exact, encode_slice, encode_str, encode_to_vec, Codec};
use dataflow::error::{EngineError, Result};
use telemetry::metrics::Counter;

/// One record of distributed iteration state: `(vertex, value-bits)`.
///
/// The value is always carried as raw `u64` bits — Connected Components
/// stores a label directly, PageRank stores `f64::to_bits` of the rank — so
/// state crosses the wire without any float/int schema distinction and
/// byte-for-byte identical to the in-process representation.
pub type Record = (u64, u64);

/// One message exchanged between vertices: `(src, dst, value-bits)`.
pub type Msg = (u64, u64, u64);

/// One partition's adjacency, the loop-invariant input of its supersteps, in
/// two flat arrays: row `i` is vertex `vertex(i)` and its targets
/// `targets(i)`, which are `targets[offsets[i]..offsets[i + 1]]` of one
/// array shared by every row. [`crate::program::partition_rows`] fills it
/// straight from the graph, vertices ascending and each row's targets sorted
/// and duplicate-free.
///
/// It crosses the wire as the row list it stands for: its [`Codec`] writes
/// and reads the bytes a `Vec` of `(vertex, targets)` pairs does — a `u64`
/// row count, then per row the vertex, the target count and the targets —
/// so [`Message::LoadProgram`]'s frame is what it always was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjRows {
    vertices: Vec<u64>,
    /// `vertices.len() + 1` ascending bounds into `targets`, from 0.
    offsets: Vec<usize>,
    targets: Vec<u64>,
}

impl Default for AdjRows {
    fn default() -> Self {
        AdjRows::with_capacity(0, 0)
    }
}

impl AdjRows {
    /// No rows yet, with room for `rows` rows of `edges` targets in all.
    pub(crate) fn with_capacity(rows: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        AdjRows { vertices: Vec::with_capacity(rows), offsets, targets: Vec::with_capacity(edges) }
    }

    /// Append the row of vertex `v`.
    pub(crate) fn push(&mut self, v: u64, targets: &[u64]) {
        self.vertices.push(v);
        self.targets.extend_from_slice(targets);
        self.offsets.push(self.targets.len());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The vertex of row `i`.
    pub fn vertex(&self, i: usize) -> u64 {
        self.vertices[i]
    }

    /// The targets of row `i`.
    pub fn targets(&self, i: usize) -> &[u64] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Targets over all rows.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// Every row's vertex and targets, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &[u64])> + '_ {
        let bounds = self.offsets.windows(2);
        self.vertices.iter().zip(bounds).map(|(&v, end)| (v, &self.targets[end[0]..end[1]]))
    }

    /// The encoded size of `rows` rows of `edges` targets in all.
    pub(crate) fn encoded_len(rows: usize, edges: usize) -> usize {
        8 + 16 * rows + 8 * edges
    }

    /// Write one row: the vertex, the target count, then the targets. The
    /// encoding is the row count, then this per row; [`Codec::encode`] and
    /// [`crate::program::encode_partitions`], which writes from the graph
    /// without building the rows, both write their rows through it.
    pub(crate) fn encode_row(v: u64, targets: &[u64], out: &mut Vec<u8>) {
        v.encode(out);
        encode_slice(targets, out);
    }
}

/// Rows from `(vertex, targets)` pairs, in the order given.
impl<R: AsRef<[u64]>> FromIterator<(u64, R)> for AdjRows {
    fn from_iter<I: IntoIterator<Item = (u64, R)>>(rows: I) -> Self {
        let mut flat = AdjRows::default();
        rows.into_iter().for_each(|(v, targets)| flat.push(v, targets.as_ref()));
        flat
    }
}

impl<R: AsRef<[u64]>> From<Vec<(u64, R)>> for AdjRows {
    fn from(rows: Vec<(u64, R)>) -> Self {
        rows.into_iter().collect()
    }
}

impl Codec for AdjRows {
    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(AdjRows::encoded_len(self.len(), self.edges()));
        (self.len() as u64).encode(out);
        for (v, targets) in self.iter() {
            AdjRows::encode_row(v, targets, out);
        }
    }

    /// Two passes over the rows: the first checks every count against the
    /// bytes present and keeps the vertices and bounds, so nothing is
    /// allocated for bytes that are not there; the second copies the targets
    /// into one exact allocation.
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let corrupt = |what: String| EngineError::Codec(format!("adjacency rows: {what}"));
        let count = u64::decode(input)?;
        // A row takes at least its vertex and its target count.
        let rows = usize::try_from(count).ok().filter(|&rows| rows <= input.len() / 16);
        let rows = rows.ok_or_else(|| {
            corrupt(format!("{count} rows exceed remaining input {}", input.len()))
        })?;
        let mut flat = AdjRows::with_capacity(rows, 0);
        let (mut rest, mut edges) = (*input, 0);
        for _ in 0..rows {
            if rest.len() < 16 {
                return Err(corrupt(format!("row header cut short at {} bytes", rest.len())));
            }
            let (v, degree) = (u64::read_fixed(&rest[..8]), u64::read_fixed(&rest[8..16]));
            rest = &rest[16..];
            let bytes = usize::try_from(degree)
                .ok()
                .and_then(|degree| degree.checked_mul(8))
                .filter(|&bytes| bytes <= rest.len())
                .ok_or_else(|| {
                    corrupt(format!(
                        "vertex {v}'s {degree} targets exceed remaining input {}",
                        rest.len()
                    ))
                })?;
            rest = &rest[bytes..];
            edges += bytes / 8;
            flat.vertices.push(v);
            flat.offsets.push(edges);
        }
        flat.targets.reserve_exact(edges);
        for row in flat.offsets.windows(2) {
            let bytes = 8 * (row[1] - row[0]);
            flat.targets.extend(input[16..16 + bytes].chunks_exact(8).map(u64::read_fixed));
            *input = &input[16 + bytes..];
        }
        Ok(flat)
    }
}

/// One timed phase inside a [`Message::TelemetryFrame`]:
/// `(pid, phase, records, duration_ns)`, where `phase` is
/// [`SPAN_PHASE_COMPUTE`] or [`SPAN_PHASE_SHUFFLE`].
pub type SpanRow = (u64, u64, u64, u64);

/// [`SpanRow`] phase code for the program's step function.
pub const SPAN_PHASE_COMPUTE: u64 = 0;
/// [`SpanRow`] phase code for encoding the reply frame for the wire.
pub const SPAN_PHASE_SHUFFLE: u64 = 1;
/// [`SpanRow`] phase code for the direct data plane's send work: routing a
/// partition's outbound messages into per-peer batches and writing full
/// batches to the peer sockets (overlapped with the remaining partitions'
/// compute). Fields: `(pid, phase, messages_routed, duration_ns)`.
pub const SPAN_PHASE_EXCHANGE: u64 = 2;
/// [`SpanRow`] phase code for per-peer data-plane byte accounting, reported
/// once per superstep per peer. Fields repurpose the row as
/// `(peer_worker, phase, bytes_sent, frames_sent)`.
pub const SPAN_PHASE_PEER_BYTES: u64 = 3;

/// Upper bound on a single frame's payload; a length prefix beyond this is
/// treated as stream corruption rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Payloads up to this size (heartbeats, acks, step dispatches, flushes) are
/// copied behind their length prefix and leave in a single write.
const SMALL_FRAME_BYTES: usize = 1020;

/// The wire schema: every enum that crosses the wire, declared once.
///
/// From this one table come each enum, its tag constants (`mod $tags`, read
/// by the writers that encode borrowed bytes without copying them), its
/// [`RETIRED_TAGS`](Message::RETIRED_TAGS) and its [`Codec`] impl: a `u8`
/// tag, then the variant's fields in declaration order, each through its own
/// [`Codec`]. A tag the table does not declare decodes to the `unknown` error.
/// **To add a message, add a row with a fresh tag**: tags are part of the
/// wire format, so a row is never renumbered, and a retired tag stays
/// retired — a frame of an older build must not decode as something else.
macro_rules! wire_enums {
    ($(
        $(#[$meta:meta])*
        pub enum $name:ident (
            tags $tags:ident, unknown $unknown:literal, retired [$($retired:literal $was:ident),*]
        ) {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $({ $( $(#[$fmeta:meta])* $field:ident: $fty:ty, )* })?
                    $(( $one:ident: $oty:ty ))?,
            )*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $fty, )* })? $(($oty))?, )*
        }

        #[allow(non_upper_case_globals)]
        mod $tags {
            $( pub(super) const $variant: u8 = $tag; )*
        }

        impl $name {
            /// Tags of variants this build no longer has; they decode to the
            /// unknown-tag error and are never reused.
            #[doc = concat!($("\n- ", $retired, ": `", stringify!($was), "`",)*)]
            pub const RETIRED_TAGS: &'static [u8] = &[$($retired),*];

            /// One value of every variant, each field drawn by its type's
            /// generator — the property tests' input, so a row added to the
            /// table is covered without editing a test.
            #[cfg(test)]
            pub(crate) fn arbitrary_each(runner: &mut proptest::test_runner::TestRunner) -> Vec<Self> {
                use tests::Arb;
                vec![$( $name::$variant
                    $({ $( $field: Arb::arb(runner), )* })? $((<$oty>::arb(runner)))?, )*]
            }
        }

        impl Codec for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( $name::$variant $({ $($field),* })? $(($one))? => {
                        out.push($tags::$variant);
                        $($( $field.encode(out); )*)?
                        $( $one.encode(out); )?
                    } )*
                }
            }

            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(match u8::decode(input)? {
                    $( $tags::$variant => $name::$variant
                        $({ $( $field: Codec::decode(input)?, )* })? $((<$oty>::decode(input)?))?, )*
                    other => {
                        return Err(EngineError::Codec(format!(concat!($unknown, " {}"), other)))
                    }
                })
            }
        }
    )*};
}

wire_enums! {
    /// What a [`Message::StepReset`] computes its superstep from.
    pub enum Inbound (tags inbound_tag, unknown "invalid Inbound tag", retired [2 Cut]) {
        /// Nothing: the logical first step, a restart from scratch, or a worker
        /// respawned since the last commit, whose data plane holds no slot
        /// (compensation absorbs the gap).
        0 => Empty,
        /// Whatever the worker's data-plane slot of this chronological superstep
        /// holds: an optimistic retry on a survivor.
        1 => Slot(superstep: u32),
        /// The messages the pushed state sends
        /// (the program's `emit`): every worker emits from
        /// its partitions, exchanges the result as the slot of the previous
        /// chronological superstep, and steps from that slot. A restored cut is
        /// its state alone, and this is how its messages come back — the
        /// superstep is change-driven like any other.
        3 => Regenerate,
    }

    /// Where a partition's state comes from in a [`Message::StepReset`].
    pub enum Seed (tags seed_tag, unknown "invalid Seed tag", retired []) {
        /// What the worker committed: its state as the last committed superstep
        /// left it.
        0 => Committed,
        /// The program's initial state ([`crate::program::ClusterProgram::init_partition`]):
        /// the logical first step of a cold start or a restart.
        1 => Init,
        /// Rebuilt by the program's compensation function
        /// ([`crate::program::ClusterProgram::compensate_partition`]): optimistic
        /// recovery of a partition lost with its process.
        2 => Compensate,
        /// These records: a restored cut, a warm start, or a partition a rescale
        /// moved here.
        3 => Pushed(records: Vec<Record>),
    }

    /// A protocol message. A frame is acknowledged only where the
    /// coordinator has to wait for its effect: [`Message::LoadProgram`]
    /// (installed) and [`Message::Membership`] (peer links up) with
    /// [`Message::Welcome`]. Partition state comes up only where something reads
    /// it, as [`Message::PartState`]s: on a dispatch's `cut` and on a
    /// [`Message::Pull`].
    pub enum Message (
        tags message_tag,
        unknown "unknown cluster message tag",
        retired [3 RunStep, 9 SnapshotBarrier, 10 SnapshotAck, 18 WorkerJoin, 19 Drain, 20 MapUpdate]
    ) {
        /// Coordinator → worker: first frame on the control connection. Not
        /// acknowledged — the [`Message::LoadProgram`] behind it is.
        0 => Hello {
            /// Coordinator-side index of the worker being greeted.
            worker: u64,
        },
        /// Worker → coordinator: the effect of a [`Message::LoadProgram`] or a
        /// [`Message::Membership`] has happened.
        1 => Welcome,
        /// Coordinator → worker: install a named [`crate::program::ClusterProgram`]
        /// together with the loop-invariant adjacency of the partitions this
        /// worker owns. Re-sent in full when a replacement worker rejoins —
        /// this is the partition redistribution step of recovery.
        2 => LoadProgram {
            /// Registry name of the program (`"cc"`, `"pagerank"`).
            program: String,
            /// Total number of vertices across all partitions.
            n: u64,
            /// Adjacency rows per owned partition: `(pid, rows)`.
            adjacency: Vec<(u64, AdjRows)>,
        },
        /// Worker → coordinator: the result of one partition inside a
        /// [`Message::StepGo`] / [`Message::StepReset`].
        4 => StepDone {
            /// Partition that was stepped.
            pid: u64,
            /// Echo of the request's chronological superstep.
            superstep: u32,
            /// Records considered changed by the program's convergence test.
            changed: u64,
            /// Messages this partition produced for the next superstep (counted
            /// before any data-plane routing). The messages themselves travel
            /// peer to peer as [`Message::ShuffleFrame`]s, never up here.
            shuffled: u64,
        },
        /// Coordinator → worker: liveness probe (dedicated connection).
        5 => Heartbeat {
            /// Echo token matching probes to acks.
            nonce: u64,
        },
        /// Worker → coordinator: reply to [`Message::Heartbeat`].
        6 => HeartbeatAck {
            /// The probe's nonce.
            nonce: u64,
        },
        /// Coordinator → worker: exit cleanly.
        7 => Shutdown,
        /// Worker → coordinator: the worker-side telemetry batch for one
        /// superstep, written on the control connection immediately
        /// *before* the matching [`Message::StepDone`] — so once the
        /// coordinator has collected every `StepDone` of a superstep, TCP
        /// ordering guarantees it has already seen every telemetry frame, and
        /// the frames can be merged into the journal in causal
        /// `(superstep, worker, seq)` order with no extra drain round.
        8 => TelemetryFrame {
            /// The worker's coordinator-side index (from [`Message::Hello`]).
            worker: u64,
            /// Echo of the request's chronological superstep; stale frames from
            /// a failed superstep are discarded like stale `StepDone`s.
            superstep: u32,
            /// Emission sequence within this `(worker, superstep)`, restarting
            /// at zero each superstep — the deterministic merge key.
            seq: u64,
            /// Timed phases, in worker-local execution order.
            spans: Vec<SpanRow>,
        },
        /// Coordinator → worker: the cluster's current membership and placement
        /// — who is in it, where they listen and who owns which partition, one
        /// fact under one epoch. Sent again with a bumped `epoch` after every
        /// respawn and rescale; each worker (re)connects its outgoing peer
        /// links, routes by the new assignment and drops data-plane frames
        /// tagged with any other epoch. Acked with [`Message::Welcome`] once the
        /// worker's peer links are up; a peer it cannot reach is a lost link,
        /// not a reason to withhold the ack.
        11 => Membership {
            /// Membership epoch; bumped on every send, so on every map change.
            epoch: u64,
            /// How long a worker waits for data-plane completeness before
            /// reporting [`Message::StepFailed`], in milliseconds.
            data_timeout_ms: u64,
            /// Listener address of every member: `(worker, port)`, loopback.
            peers: Vec<(u64, u64)>,
            /// `assignment[pid]` = owning worker, one entry per partition: a
            /// message for vertex `dst` goes to
            /// `assignment[dst % assignment.len()]`. Every owner is a member.
            assignment: Vec<u64>,
        },
        /// Worker → worker: the first frame on an outgoing peer connection,
        /// identifying the sender and its membership epoch.
        12 => PeerHello {
            /// Coordinator-side index of the connecting worker.
            from_worker: u64,
            /// The sender's membership epoch at connect time.
            epoch: u64,
        },
        /// Worker → worker: one batch of shuffle messages produced during
        /// `superstep`, destined to partitions the receiving worker owns.
        13 => ShuffleFrame {
            /// Producing worker.
            from_worker: u64,
            /// The producer's membership epoch; receivers drop frames from any
            /// other epoch (a straggler declared dead cannot double-deliver).
            epoch: u64,
            /// Chronological superstep that *produced* these messages. The
            /// consuming step names this tag explicitly, so output of failed
            /// attempts is never consumed.
            superstep: u32,
            /// The messages.
            msgs: Vec<Msg>,
        },
        /// Worker → worker: end-of-superstep marker on the data plane — the
        /// producer has no more [`Message::ShuffleFrame`]s for `superstep`. A
        /// receiver's inbox slot is complete once every current member flushed.
        14 => ShuffleFlush {
            /// Producing worker.
            from_worker: u64,
            /// The producer's membership epoch.
            epoch: u64,
            /// Chronological superstep being flushed.
            superstep: u32,
            /// Data frames this producer sent to this peer for `superstep`.
            frames: u64,
            /// Wire bytes (including length prefixes) behind those frames.
            bytes: u64,
        },
        /// Coordinator → worker: run one superstep over all of the worker's
        /// partitions from the state the previous superstep — committed by this
        /// dispatch — left them. The steady-state dispatch: no state travels
        /// down.
        15 => StepGo {
            /// Chronological superstep.
            superstep: u32,
            /// Logical step index (committed supersteps so far).
            step: u64,
            /// Chronological superstep whose complete data-plane slot to
            /// consume; `None` for an empty inbound.
            inbound: Option<u32>,
            /// The worker's partitions, ascending; replies come back in this
            /// order.
            pids: Vec<u64>,
            /// Whether the superstep is a rollback strategy's cut: each
            /// partition's new state comes up as a [`Message::PartState`] ahead
            /// of its [`Message::StepDone`].
            cut: bool,
        },
        /// Coordinator → worker: like [`Message::StepGo`], but says where each
        /// partition's state comes from — the dispatch of the first superstep,
        /// of post-failure retries and rollback restores, of the superstep after
        /// a rescale, and with it what tells a joiner where the run stands. The
        /// worker first keeps what its previous superstep left only if that was
        /// `committed`, and otherwise rolls back to its committed state. Unless
        /// `inbound` is [`Inbound::Regenerate`] the inbound history is not
        /// exact, so the worker runs the superstep as a full-send one
        /// ([`crate::program::ClusterProgram::fold_and_send`]); a regenerated
        /// superstep is change-driven like any other.
        16 => StepReset {
            /// Chronological superstep.
            superstep: u32,
            /// Logical step index.
            step: u64,
            /// The last committed chronological superstep, if any.
            committed: Option<u32>,
            /// Every partition the worker owns, ascending, and where its state
            /// comes from; replies come back in this order.
            parts: Vec<(u64, Seed)>,
            /// What the superstep computes from.
            inbound: Inbound,
            /// As in [`Message::StepGo`].
            cut: bool,
        },
        /// Worker → coordinator: the worker timed out waiting for data-plane
        /// completeness and computed nothing for `superstep`. The coordinator
        /// treats the first peer in `waiting_on` as lost.
        17 => StepFailed {
            /// Chronological superstep that could not start.
            superstep: u32,
            /// Members whose [`Message::ShuffleFlush`] never arrived.
            waiting_on: Vec<u64>,
        },
        /// Coordinator → worker: send up the committed state of `pids` — the
        /// run's values at its end, or the partitions a rescale moves off this
        /// worker. Answered with one [`Message::PartState`] per pid, in order.
        21 => Pull {
            /// The last committed chronological superstep: the worker keeps what
            /// its previous superstep left only if that was this one.
            committed: u32,
            /// Partitions to send, each owned by the worker.
            pids: Vec<u64>,
        },
        /// Worker → coordinator: one partition's state, as chronological
        /// superstep `superstep` left it.
        22 => PartState {
            /// The partition.
            pid: u64,
            /// The superstep whose state this is; frames of a superstep that
            /// failed are skipped like its `StepDone`s.
            superstep: u32,
            /// The records, ascending by vertex.
            state: Vec<Record>,
        },
    }
}

/// The bytes [`Codec::encode`] produces for a [`Message::LoadProgram`], over
/// rows encoded beforehand (by [`crate::program::encode_partitions`]): copied,
/// not encoded again.
pub fn assemble_load_program(out: &mut Vec<u8>, program: &str, n: u64, parts: &[(u64, &[u8])]) {
    out.reserve(1 + 8 + program.len() + 16 + parts.iter().map(|p| 8 + p.1.len()).sum::<usize>());
    out.push(message_tag::LoadProgram);
    encode_str(program, out);
    n.encode(out);
    (parts.len() as u64).encode(out);
    for (pid, rows) in parts {
        pid.encode(out);
        out.extend_from_slice(rows);
    }
}

/// Encode a [`Message::PartState`] from records the caller keeps: the bytes
/// [`Codec::encode`] produces for the owned message, without first moving the
/// state into one.
pub fn encode_part_state(out: &mut Vec<u8>, pid: u64, superstep: u32, state: &[Record]) {
    out.push(message_tag::PartState);
    pid.encode(out);
    superstep.encode(out);
    encode_slice(state, out);
}

/// Bytes of a [`Message::ShuffleFrame`] ahead of its messages: the frame's
/// length prefix, the tag, `from_worker`, `epoch`, `superstep` and the
/// message count.
const SHUFFLE_HEADER_BYTES: usize = 4 + 1 + 8 + 8 + 4 + 8;

/// Encoded size of one [`Msg`].
const MSG_BYTES: usize = match <Msg as Codec>::WIDTH {
    Some(width) => width,
    None => panic!("Msg is a tuple of fixed-width scalars"),
};

/// A [`Message::ShuffleFrame`] under construction, as the bytes that go to
/// the socket, length prefix included. The sender encodes each routed
/// message straight into it — the only copy a cross-worker message gets on
/// the sending side — and keeps the buffer, and with it the allocation,
/// from one frame to the next.
#[derive(Debug)]
pub struct ShuffleFrameBuf {
    bytes: Vec<u8>,
}

impl Default for ShuffleFrameBuf {
    fn default() -> Self {
        ShuffleFrameBuf { bytes: vec![0; SHUFFLE_HEADER_BYTES] }
    }
}

impl ShuffleFrameBuf {
    /// Append one message.
    #[inline]
    pub fn push(&mut self, msg: &Msg) {
        let mut encoded = [0u8; MSG_BYTES];
        msg.write_fixed(&mut encoded);
        self.bytes.extend_from_slice(&encoded);
    }

    /// Messages appended since the last [`Self::clear`].
    pub fn len(&self) -> usize {
        (self.bytes.len() - SHUFFLE_HEADER_BYTES) / MSG_BYTES
    }

    /// Whether no message was appended since the last [`Self::clear`].
    pub fn is_empty(&self) -> bool {
        self.bytes.len() == SHUFFLE_HEADER_BYTES
    }

    /// Fill in the header and return the complete frame: what
    /// [`write_frame`] would write for the equivalent
    /// [`Message::ShuffleFrame`]. Fails like it on a payload beyond
    /// [`MAX_FRAME_BYTES`].
    pub fn finish(&mut self, from_worker: u64, epoch: u64, superstep: u32) -> Result<&[u8]> {
        let payload_len = checked_frame_len(self.bytes.len() - 4)?;
        let count = self.len() as u64;
        let header = &mut self.bytes[..SHUFFLE_HEADER_BYTES];
        header[..4].copy_from_slice(&payload_len.to_le_bytes());
        header[4] = message_tag::ShuffleFrame;
        header[5..13].copy_from_slice(&from_worker.to_le_bytes());
        header[13..21].copy_from_slice(&epoch.to_le_bytes());
        header[21..25].copy_from_slice(&superstep.to_le_bytes());
        header[25..].copy_from_slice(&count.to_le_bytes());
        Ok(&self.bytes)
    }

    /// Drop the messages, keep the allocation.
    pub fn clear(&mut self) {
        self.bytes.truncate(SHUFFLE_HEADER_BYTES);
    }
}

/// Write `msg` as one frame, flush, and count the bytes into `bytes_out`.
pub fn write_frame(
    w: &mut impl Write,
    msg: &Message,
    bytes_out: Option<&Counter>,
) -> io::Result<()> {
    let payload = encode_to_vec(msg);
    write_encoded_frame(w, &payload, bytes_out)
}

/// Validate a payload size against the frame format's `u32` length prefix
/// and the [`MAX_FRAME_BYTES`] cap. Every frame write routes through this
/// check *before* any byte hits the wire: an unchecked `len as u32` would
/// silently truncate a >4 GiB payload and desynchronise the stream for
/// every later frame. Returns [`EngineError::FrameTooLarge`] on overflow.
pub fn checked_frame_len(payload_len: usize) -> Result<u32> {
    u32::try_from(payload_len).ok().filter(|&len| len <= MAX_FRAME_BYTES).ok_or(
        EngineError::FrameTooLarge { len: payload_len as u64, max: u64::from(MAX_FRAME_BYTES) },
    )
}

/// Write an already-encoded message payload as one frame. Split out of
/// [`write_frame`] so the worker can time encoding (the telemetry
/// "shuffle" phase) separately from the socket write.
pub fn write_encoded_frame(
    w: &mut impl Write,
    payload: &[u8],
    bytes_out: Option<&Counter>,
) -> io::Result<()> {
    let len = checked_frame_len(payload.len())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    if payload.len() <= SMALL_FRAME_BYTES {
        // Length and payload in one write: as two segments on a socket, the
        // second waits out the receiver's delayed ACK.
        let mut frame = [0u8; 4 + SMALL_FRAME_BYTES];
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..4 + payload.len()].copy_from_slice(payload);
        w.write_all(&frame[..4 + payload.len()])?;
    } else {
        w.write_all(&len.to_le_bytes())?;
        w.write_all(payload)?;
    }
    w.flush()?;
    if let Some(counter) = bytes_out {
        counter.add(4 + payload.len() as u64);
    }
    Ok(())
}

/// Read one frame, counting the bytes into `bytes_in`. Decode failures and
/// oversized length prefixes surface as [`io::ErrorKind::InvalidData`]; a
/// clean EOF before the length prefix, or a payload cut short, surfaces as
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read, bytes_in: Option<&Counter>) -> io::Result<Message> {
    read_frame_buffered(r, &mut Vec::new(), bytes_in)
}

/// [`read_frame`] through a payload buffer the caller keeps per connection,
/// so a stream of multi-megabyte frames is read into one allocation instead
/// of a freshly zero-filled one per frame. The buffer grows with the bytes
/// that actually arrive, never with what a length prefix merely claims.
pub fn read_frame_buffered(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    bytes_in: Option<&Counter>,
) -> io::Result<Message> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length prefix {len} exceeds MAX_FRAME_BYTES (corrupt stream?)"),
        ));
    }
    payload.clear();
    r.by_ref().take(u64::from(len)).read_to_end(payload)?;
    if payload.len() < len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame payload ended after {} of {len} bytes", payload.len()),
        ));
    }
    if let Some(counter) = bytes_in {
        counter.add(4 + u64::from(len));
    }
    decode_exact::<Message>(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;

    /// A type with a test-value generator: what the table's `arbitrary_each`
    /// draws each field with.
    pub(super) trait Arb {
        fn arb(runner: &mut TestRunner) -> Self;
    }

    macro_rules! arb_any {
        ($($ty:ty),*) => {$(
            impl Arb for $ty {
                fn arb(runner: &mut TestRunner) -> Self {
                    any::<$ty>().generate(runner)
                }
            }
        )*};
    }
    arb_any!(bool, u32, u64);

    macro_rules! arb_tuple {
        ($(($($t:ident),+))*) => {$(
            impl<$($t: Arb),+> Arb for ($($t,)+) {
                fn arb(runner: &mut TestRunner) -> Self {
                    ($($t::arb(runner),)+)
                }
            }
        )*};
    }
    arb_tuple!((A, B)(A, B, C)(A, B, C, D));

    /// Short strings, multi-byte UTF-8 included.
    impl Arb for String {
        fn arb(runner: &mut TestRunner) -> Self {
            const ALPHABET: [char; 4] = ['c', 'Z', 'é', '𝄞'];
            (0..(0..9usize).generate(runner))
                .map(|_| ALPHABET[(0..4usize).generate(runner)])
                .collect()
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(runner: &mut TestRunner) -> Self {
            (0..(0..5usize).generate(runner)).map(|_| T::arb(runner)).collect()
        }
    }

    impl Arb for AdjRows {
        fn arb(runner: &mut TestRunner) -> Self {
            Vec::<(u64, Vec<u64>)>::arb(runner).into()
        }
    }

    impl<T: Arb> Arb for Option<T> {
        fn arb(runner: &mut TestRunner) -> Self {
            bool::arb(runner).then(|| T::arb(runner))
        }
    }

    /// One variant, picked uniformly, of the table's generator.
    fn one_of<T>(runner: &mut TestRunner, each: fn(&mut TestRunner) -> Vec<T>) -> T {
        let mut each = each(runner);
        each.swap_remove((0..each.len()).generate(runner))
    }

    impl Arb for Inbound {
        fn arb(runner: &mut TestRunner) -> Self {
            one_of(runner, Inbound::arbitrary_each)
        }
    }

    impl Arb for Seed {
        fn arb(runner: &mut TestRunner) -> Self {
            one_of(runner, Seed::arbitrary_each)
        }
    }

    /// A table's `arbitrary_each` as the strategy of a `proptest!` argument.
    struct Each<T>(fn(&mut TestRunner) -> Vec<T>);

    impl<T> Strategy for Each<T> {
        type Value = Vec<T>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<T> {
            (self.0)(runner)
        }
    }

    const MESSAGES: Each<Message> = Each(Message::arbitrary_each);

    fn frame_of(msg: &Message) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(&mut frame, msg, None).unwrap();
        frame
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        #[test]
        fn every_variant_round_trips(
            msgs in MESSAGES,
            inbounds in Each(Inbound::arbitrary_each),
            seeds in Each(Seed::arbitrary_each),
        ) {
            for msg in msgs {
                prop_assert_eq!(read_frame(&mut frame_of(&msg).as_slice(), None).unwrap(), msg);
            }
            for inbound in inbounds {
                prop_assert_eq!(decode_exact::<Inbound>(&encode_to_vec(&inbound)).unwrap(), inbound);
            }
            for seed in seeds {
                prop_assert_eq!(decode_exact::<Seed>(&encode_to_vec(&seed)).unwrap(), seed);
            }
        }

        #[test]
        fn every_strict_prefix_of_a_frame_is_an_error(msgs in MESSAGES) {
            for msg in msgs {
                let frame = frame_of(&msg);
                for cut in 0..frame.len() {
                    prop_assert!(read_frame(&mut &frame[..cut], None).is_err(), "{:?} cut at {}", msg, cut);
                    prop_assert!(decode_exact::<Message>(&frame[4..cut.max(4)]).is_err());
                }
            }
        }

        /// The writers that encode borrowed bytes write what the table
        /// encodes for the owned message.
        #[test]
        fn the_zero_copy_writers_write_the_owned_message(msgs in MESSAGES) {
            for msg in msgs {
                let mut payload = Vec::new();
                match &msg {
                    Message::LoadProgram { program, n, adjacency } => {
                        let rows: Vec<(u64, Vec<u8>)> = adjacency
                            .iter()
                            .map(|(pid, rows)| (*pid, encode_to_vec(rows)))
                            .collect();
                        let parts: Vec<(u64, &[u8])> =
                            rows.iter().map(|(pid, rows)| (*pid, &rows[..])).collect();
                        assemble_load_program(&mut payload, program, *n, &parts);
                    }
                    Message::PartState { pid, superstep, state } => {
                        encode_part_state(&mut payload, *pid, *superstep, state);
                    }
                    Message::ShuffleFrame { from_worker, epoch, superstep, msgs } => {
                        let mut fused = ShuffleFrameBuf::default();
                        msgs.iter().for_each(|msg| fused.push(msg));
                        let frame = fused.finish(*from_worker, *epoch, *superstep).unwrap();
                        prop_assert_eq!(frame, frame_of(&msg).as_slice());
                        continue;
                    }
                    _ => continue,
                }
                prop_assert_eq!(payload, encode_to_vec(&msg));
            }
        }
    }

    #[test]
    fn no_live_tag_reuses_a_retired_one() {
        fn tags<T: Codec>(each: Vec<T>) -> Vec<u8> {
            each.iter().map(|value| encode_to_vec(value)[0]).collect()
        }
        let runner = &mut TestRunner::deterministic("tags", 0);
        for (live, retired) in [
            (tags(Message::arbitrary_each(runner)), Message::RETIRED_TAGS),
            (tags(Inbound::arbitrary_each(runner)), Inbound::RETIRED_TAGS),
            (tags(Seed::arbitrary_each(runner)), Seed::RETIRED_TAGS),
        ] {
            let mut distinct = live.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), live.len(), "two rows share a tag: {live:?}");
            assert!(live.iter().all(|tag| !retired.contains(tag)), "{live:?} vs {retired:?}");
        }
    }

    #[test]
    fn frame_len_boundaries_are_checked() {
        assert_eq!(checked_frame_len(0).unwrap(), 0);
        assert_eq!(checked_frame_len(MAX_FRAME_BYTES as usize).unwrap(), MAX_FRAME_BYTES);
        let err = checked_frame_len(MAX_FRAME_BYTES as usize + 1).unwrap_err();
        assert!(
            matches!(err, EngineError::FrameTooLarge { len, max }
                if len == u64::from(MAX_FRAME_BYTES) + 1 && max == u64::from(MAX_FRAME_BYTES)),
            "{err}"
        );
        // A payload past u32::MAX must fail the checked conversion rather
        // than silently truncate the way `len as u32` used to.
        let err = checked_frame_len(u32::MAX as usize + 10).unwrap_err();
        assert!(err.to_string().contains("frame too large"), "{err}");
        assert!(err.to_string().contains(&u64::from(MAX_FRAME_BYTES).to_string()), "{err}");
    }

    #[test]
    fn byte_counters_include_the_length_prefix() {
        let counter = Counter::default();
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Welcome, Some(&counter)).unwrap();
        assert_eq!(counter.get(), buf.len() as u64);
        let read_counter = Counter::default();
        read_frame(&mut buf.as_slice(), Some(&read_counter)).unwrap();
        assert_eq!(read_counter.get(), buf.len() as u64);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bad = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        let err = read_frame(&mut bad.as_slice(), None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_reports_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Hello { worker: 1 }, None).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_frame(&mut buf.as_slice(), None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_and_retired_tags_are_decode_errors() {
        // An undeclared tag and every retired one, each with fields behind it.
        for &tag in [99u8].iter().chain(Message::RETIRED_TAGS) {
            let mut payload = vec![tag];
            (2u64, 11u32).encode(&mut payload);
            let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
            buf.extend_from_slice(&payload);
            let err = read_frame(&mut buf.as_slice(), None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("unknown cluster message tag"), "{err}");
        }
    }

    #[test]
    fn a_dispatch_is_its_superstep_and_one_typed_inbound() {
        let go = Message::StepGo {
            superstep: 9,
            step: 8,
            inbound: Some(7),
            pids: vec![1, 3],
            cut: true,
        };
        let mut expected = vec![15u8];
        (9u32, 8u64, 1u8, 7u32, vec![1u64, 3], 1u8).encode(&mut expected);
        assert_eq!(encode_to_vec(&go), expected);
        let reset = |inbound: Inbound| Message::StepReset {
            superstep: 9,
            step: 8,
            committed: Some(7),
            parts: vec![(1, Seed::Pushed(vec![(1, 1)])), (3, Seed::Compensate)],
            inbound,
            cut: false,
        };
        let mut head = vec![16u8];
        (9u32, 8u64, 1u8, 7u32).encode(&mut head);
        (2u64, 1u64, 3u8, vec![(1u64, 1u64)], 3u64, 2u8).encode(&mut head);
        let tail = |tag: u8, field: Vec<u8>| [head.clone(), vec![tag], field, vec![0]].concat();
        assert_eq!(encode_to_vec(&reset(Inbound::Empty)), tail(0, vec![]));
        assert_eq!(encode_to_vec(&reset(Inbound::Slot(7))), tail(1, encode_to_vec(&7u32)));
        let regenerate = encode_to_vec(&reset(Inbound::Regenerate));
        assert_eq!(regenerate, tail(3, vec![]));
        // A tag byte outside its range is corruption, not "some inbound" —
        // and 2, the retired pushed inboxes of a cut, is outside it, with or
        // without the inboxes it used to carry behind it.
        let inboxes = encode_to_vec(&vec![(1u64, vec![(0u64, 1u64, 0u64)])]);
        for (payload, complaint) in [
            ([encode_to_vec(&go)[..1 + 4 + 8].to_vec(), vec![3]].concat(), "invalid Option tag"),
            (tail(2, vec![]), "invalid Inbound tag 2"),
            (tail(2, inboxes), "invalid Inbound tag 2"),
            (tail(4, vec![]), "invalid Inbound tag 4"),
        ] {
            let err = decode_exact::<Message>(&payload).unwrap_err();
            assert!(err.to_string().contains(complaint), "{err}");
        }
    }

    #[test]
    fn membership_is_the_epoch_the_members_and_the_placement() {
        // No partition count (it is the assignment's length) and no map
        // version (every map change bumps the epoch).
        let peers = vec![(0u64, 40_001u64), (1, 40_002)];
        let membership = Message::Membership {
            epoch: 3,
            data_timeout_ms: 2_500,
            peers: peers.clone(),
            assignment: vec![0, 1, 0, 1],
        };
        let mut expected = vec![11u8];
        (3u64, 2_500u64, peers.clone(), vec![0u64, 1, 0, 1]).encode(&mut expected);
        assert_eq!(encode_to_vec(&membership), expected);
        // Neither the frame the previous layout spelled the same membership
        // with, nor that layout's `MapUpdate` fields behind it, decodes as a
        // membership of this build.
        let mut old = vec![11u8];
        (3u64, 4u64, 2_500u64, peers.clone()).encode(&mut old);
        assert!(decode_exact::<Message>(&old).is_err());
        (3u64, 0u64, vec![0u64, 1, 0, 1]).encode(&mut old);
        assert!(decode_exact::<Message>(&old).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
        #[test]
        fn load_program_from_rows_encoded_off_the_graph_is_the_owned_message(
            kind in 0u8..3,
            size in 0u64..40,
            seed in any::<u64>(),
            parallelism in (0usize..6).prop_map(|i| [1, 2, 3, 4, 5, 8][i]),
            workers in 1usize..9,
            target in 1usize..9,
        ) {
            // Directed, undirected and sparse graphs (isolated vertices), as
            // small as no vertex at all and fewer vertices than partitions.
            use crate::placement::{PartitionMap, Rebalancer};
            use crate::program::{directed, encode_partitions, partition_rows};
            let graph = match kind {
                0 => directed(size.max(1), seed),
                1 => graphs::generators::erdos_renyi(size as usize, 0.3, seed),
                _ => graphs::generators::erdos_renyi(size as usize, 0.02, seed),
            };
            let n = graph.num_vertices() as u64;
            let rows = partition_rows(&graph, parallelism);
            let kept = encode_partitions(&graph, parallelism);
            for (pid, bytes) in kept.iter().enumerate() {
                let mut expected = Vec::new();
                rows[pid].encode(&mut expected);
                prop_assert_eq!(bytes, &expected, "P={} pid={}", parallelism, pid);
            }
            // Every worker's frame, as placed at the start and after a
            // rebalance, is the frame encoded from the copied rows.
            let initial = PartitionMap::initial(parallelism, workers.min(parallelism));
            let rescaled = Rebalancer::rebalance(&initial, target.min(parallelism)).map;
            for map in [initial, rescaled] {
                for worker in 0..map.workers() {
                    let pids = map.pids_of(worker);
                    let adjacency: Vec<(u64, AdjRows)> =
                        pids.iter().map(|&pid| (pid as u64, rows[pid].clone())).collect();
                    let encoded: Vec<(u64, &[u8])> =
                        pids.iter().map(|&pid| (pid as u64, &kept[pid][..])).collect();
                    let owned = Message::LoadProgram { program: "pagerank".into(), n, adjacency };
                    let mut assembled = Vec::new();
                    assemble_load_program(&mut assembled, "pagerank", n, &encoded);
                    prop_assert_eq!(assembled, encode_to_vec(&owned), "worker {}", worker);
                }
            }
        }
    }

    /// Frames with a counted `Vec` (of fixed-width elements, or — the
    /// `StepReset` — of partitions), and the offset of that `Vec`'s element
    /// count inside the frame.
    fn counted_frames(msgs: Vec<Msg>) -> Vec<(Vec<u8>, usize)> {
        let records: Vec<Record> = msgs.iter().map(|&(v, _, bits)| (v, bits)).collect();
        let spans: Vec<SpanRow> = msgs.iter().map(|&(a, b, c)| (a, b, c, a ^ b)).collect();
        let pids: Vec<u64> = msgs.iter().map(|msg| msg.1).collect();
        let state = records.clone();
        let reset = |inbound: Inbound| {
            frame_of(&Message::StepReset {
                superstep: 9,
                step: 8,
                committed: None,
                parts: vec![(2, Seed::Pushed(state.clone()))],
                inbound,
                cut: false,
            })
        };
        let membership = frame_of(&Message::Membership {
            epoch: 3,
            data_timeout_ms: 2_500,
            peers: pids.iter().map(|&pid| (pid, pid ^ 1)).collect(),
            assignment: pids.clone(),
        });
        let mut fused = ShuffleFrameBuf::default();
        msgs.iter().for_each(|msg| fused.push(msg));
        vec![
            (fused.finish(1, 3, 9).unwrap().to_vec(), SHUFFLE_HEADER_BYTES - 8),
            (frame_of(&Message::PartState { pid: 2, superstep: 9, state: records }), 4 + 1 + 8 + 4),
            (
                frame_of(&Message::TelemetryFrame { worker: 1, superstep: 9, seq: 0, spans }),
                4 + 1 + 8 + 4 + 8,
            ),
            (
                frame_of(&Message::StepGo {
                    superstep: 9,
                    step: 8,
                    inbound: Some(8),
                    pids: pids.clone(),
                    cut: false,
                }),
                DISPATCH_HEAD + 1 + 4,
            ),
            (reset(Inbound::Regenerate), DISPATCH_HEAD + 1),
            // ... and the count of the one partition's pushed state, behind
            // its pid and seed tag.
            (reset(Inbound::Slot(8)), DISPATCH_HEAD + 1 + 8 + 8 + 1),
            (membership.clone(), 4 + 1 + 8 + 8),
            // ... and the assignment's, behind the peers.
            (membership, 4 + 1 + 8 + 8 + 8 + pids.len() * 16),
        ]
    }

    /// Bytes of a dispatch frame ahead of what follows its logical step: the
    /// length prefix, the tag, `superstep` and `step`.
    const DISPATCH_HEAD: usize = 4 + 1 + 4 + 8;

    proptest! {
        #[test]
        fn the_frame_decoder_rejects_hostile_input_without_panicking(
            noise in prop::collection::vec(any::<u8>(), 0..200),
            msgs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..12),
            prefix in any::<u32>(),
            count in any::<u64>(),
        ) {
            // Arbitrary bytes: an error, or — when they happen to spell a
            // frame — exactly that frame. Never a panic.
            if let Ok(msg) = read_frame(&mut noise.as_slice(), None) {
                let frame = frame_of(&msg);
                prop_assert_eq!(&noise[..frame.len()], frame.as_slice());
            }
            for (frame, count_at) in counted_frames(msgs) {
                prop_assert!(read_frame(&mut frame.as_slice(), None).is_ok());
                if prefix.to_le_bytes() != frame[..4] {
                    let mut corrupt = frame.clone();
                    corrupt[..4].copy_from_slice(&prefix.to_le_bytes());
                    prop_assert!(read_frame(&mut corrupt.as_slice(), None).is_err());
                }
                if count.to_le_bytes() != frame[count_at..count_at + 8] {
                    let mut corrupt = frame.clone();
                    corrupt[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
                    prop_assert!(read_frame(&mut corrupt.as_slice(), None).is_err());
                }
            }
        }
    }

    #[test]
    fn a_hostile_length_prefix_allocates_for_the_bytes_present_only() {
        // The largest prefix the format admits, and ten bytes behind it.
        let mut stream = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        stream.extend_from_slice(&[7u8; 10]);
        let mut payload = Vec::new();
        let err = read_frame_buffered(&mut stream.as_slice(), &mut payload, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(payload.capacity() < 4096, "allocated {} bytes", payload.capacity());
    }

    #[test]
    fn a_kept_receive_buffer_is_reused_across_frames() {
        let big = Message::ShuffleFrame {
            from_worker: 0,
            epoch: 1,
            superstep: 2,
            msgs: (0..500).map(|i| (i, i + 1, i + 2)).collect(),
        };
        let mut stream = frame_of(&big);
        stream.extend(frame_of(&Message::Welcome));
        stream.extend(frame_of(&big));
        let mut reader = stream.as_slice();
        let mut payload = Vec::new();
        assert_eq!(read_frame_buffered(&mut reader, &mut payload, None).unwrap(), big);
        let (buffer, capacity) = (payload.as_ptr(), payload.capacity());
        assert_eq!(read_frame_buffered(&mut reader, &mut payload, None).unwrap(), Message::Welcome);
        assert_eq!(read_frame_buffered(&mut reader, &mut payload, None).unwrap(), big);
        assert_eq!((payload.as_ptr(), payload.capacity()), (buffer, capacity));
        assert!(reader.is_empty());
    }

    /// What the rows were before they were flat: one `Vec` per vertex.
    type NestedRows = Vec<(u64, Vec<u64>)>;

    fn nested(rows: &AdjRows) -> NestedRows {
        rows.iter().map(|(v, targets)| (v, targets.to_vec())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// The flat rows are the nested rows on the wire: the same bytes out,
        /// the same rows back, and every strict prefix an error — for
        /// arbitrary rows (any vertex order, empty rows, no rows) and for
        /// every partition of directed, undirected and sparse graphs.
        #[test]
        fn flat_rows_encode_the_bytes_of_the_nested_rows(
            arbitrary in prop::collection::vec(
                (any::<u64>(), prop::collection::vec(any::<u64>(), 0..6)), 0..12),
            kind in 0u8..3,
            size in 0u64..40,
            seed in any::<u64>(),
            parallelism in (0usize..4).prop_map(|i| [1, 3, 4, 8][i]),
        ) {
            use crate::program::{directed, partition_rows};
            let graph = match kind {
                0 => directed(size.max(1), seed),
                1 => graphs::generators::erdos_renyi(size as usize, 0.3, seed),
                _ => graphs::generators::erdos_renyi(size as usize, 0.02, seed),
            };
            let flat = partition_rows(&graph, parallelism);
            for rows in flat.iter().chain([&AdjRows::from(arbitrary.clone())]) {
                let bytes = encode_to_vec(rows);
                prop_assert_eq!(&bytes, &encode_to_vec(&nested(rows)));
                prop_assert_eq!(&decode_exact::<AdjRows>(&bytes).unwrap(), rows);
                prop_assert_eq!(decode_exact::<NestedRows>(&bytes).unwrap(), nested(rows));
                for cut in 0..bytes.len() {
                    prop_assert!(decode_exact::<AdjRows>(&bytes[..cut]).is_err(), "cut at {}", cut);
                }
            }
            prop_assert_eq!(nested(&AdjRows::from(arbitrary.clone())), arbitrary);
        }
    }

    #[test]
    fn a_row_count_or_degree_past_the_payload_is_a_codec_error() {
        // Two rows: vertex 7 with targets [1, 2], vertex 9 with none.
        let rows = AdjRows::from(vec![(7, vec![1, 2]), (9, vec![])]);
        let bytes = encode_to_vec(&rows);
        let with = |offset: usize, word: u64| {
            let mut corrupt = bytes.clone();
            corrupt[offset..offset + 8].copy_from_slice(&word.to_le_bytes());
            corrupt
        };
        // The row count sits at 0, vertex 7's degree at 16, vertex 9's at 48.
        for (corrupt, complaint) in [
            (with(0, 3), "row header cut short"),
            (with(0, 1 << 40), "rows exceed remaining input"),
            (with(0, u64::MAX), "rows exceed remaining input"),
            (with(16, 5), "targets exceed remaining input"),
            (with(16, 1 << 61), "targets exceed remaining input"),
            (with(16, u64::MAX), "targets exceed remaining input"),
            (with(48, 1), "targets exceed remaining input"),
        ] {
            let err = decode_exact::<AdjRows>(&corrupt).unwrap_err();
            assert!(matches!(err, EngineError::Codec(_)), "{err:?}");
            assert!(err.to_string().contains(complaint), "{err}");
        }
        // One row too few leaves bytes behind; inside a frame every corrupt
        // count is a decode error, not a panic or an allocation.
        assert!(decode_exact::<AdjRows>(&with(0, 1)).is_err());
        for word in [3, 1 << 40, u64::MAX] {
            let mut payload = vec![message_tag::LoadProgram];
            encode_str("cc", &mut payload);
            (10u64, 1u64, 0u64).encode(&mut payload);
            payload.extend_from_slice(&with(0, word));
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&payload);
            let err = read_frame(&mut frame.as_slice(), None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }
}
