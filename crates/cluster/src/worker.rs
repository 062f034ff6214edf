//! The worker process: holds and computes the partition state of its share
//! of the graph — the only copy of that state anywhere — and speaks the
//! frame protocol over loopback TCP.
//!
//! A worker binds an ephemeral (or explicitly requested) port, announces it
//! on stdout as `OPTIREC_WORKER_LISTENING <port>` — the coordinator reads
//! that line from the child's pipe — and then serves connections forever.
//! Each connection gets its own thread, so heartbeat probes are answered even
//! while a superstep is being computed on the control connection, which
//! alone holds the partitions (in a `PartitionStore`).
//!
//! The same listener serves both planes: the coordinator's control
//! connection, and incoming peer connections carrying
//! [`Message::ShuffleFrame`]s, which a connection thread deposits into the
//! process-wide [`DataPlane`] inbox. The control
//! connection installs peer links and routes from [`Message::Membership`]
//! — the only frame besides [`Message::LoadProgram`] it acknowledges —
//! then runs whole supersteps from [`Message::StepGo`] / [`Message::StepReset`]
//! against the partition state it holds, shipping outbound messages directly
//! to peers (one frame per partition and peer, overlapped with the remaining
//! partitions' compute); they never pass through the coordinator. Not even
//! on a restore: a restored cut is its state alone, and the workers
//! regenerate its messages from that state over the same data plane
//! ([`Inbound::Regenerate`]).
//!
//! The state is double-buffered. A superstep computes from the committed
//! state and leaves its output tentative; the next frame names the last
//! committed superstep, and the tentative state becomes the committed one
//! only if it is that superstep's (`PartitionStore::settle`) — otherwise
//! (the superstep failed elsewhere) it is dropped, so a retry computes from
//! what the failed attempt started from without anything being pushed. A
//! [`Message::StepReset`] says where else a partition's state comes from
//! ([`crate::protocol::Seed`]: the program's init or compensation, or pushed
//! records), and the state travels up only when the coordinator reads it: on
//! a cut dispatch and on a [`Message::Pull`].
//!
//! A partition routes into one run per destination partition and folds the
//! slot's segments addressed to it: no inbox is built. An own run is moved
//! into the slot, never copied; a cross-worker message is copied once on each
//! side: encoded from its run into the frame buffer the socket write reads,
//! and decoded from the receive buffer into the vector the slot keeps, cut
//! where it lands into single-destination segments (DESIGN.md, "Shuffle
//! path").
//!
//! Workers are deliberately crash-only: `Shutdown` exits the process, and
//! every other termination path is an abrupt connection loss that the
//! coordinator converts into a
//! [`dataflow::error::EngineError::WorkerLost`].
//!
//! Workers are also self-reporting: every step is timed locally (compute =
//! the program's step function, shuffle = encoding the reply for the wire,
//! exchange = routing/sending peer batches) and shipped to the coordinator
//! as a [`Message::TelemetryFrame`] written immediately before the matching
//! [`Message::StepDone`], and lifecycle events go to stderr as structured
//! `optirec-worker worker=<id> …` lines so a kill-storm is debuggable from
//! the process logs alone.

use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dataflow::codec::encode_to_vec;

use crate::exchange::DataPlane;
use crate::program::{lookup, PartitionStore};
use crate::protocol::{
    encode_part_state, read_frame_buffered, write_encoded_frame, write_frame, Inbound, Message,
    Msg, Seed, ShuffleFrameBuf, SpanRow, SPAN_PHASE_COMPUTE, SPAN_PHASE_EXCHANGE,
    SPAN_PHASE_PEER_BYTES, SPAN_PHASE_SHUFFLE,
};

/// Marker line a worker prints to stdout once its listener is bound; the
/// rest of the line is the decimal port number.
pub const LISTENING_MARKER: &str = "OPTIREC_WORKER_LISTENING";

/// The fewest messages worth a [`Message::ShuffleFrame`] of their own
/// mid-superstep. A peer's frame is checked against it *between* partition
/// computes, never inside one, so it is a floor, not a frame size: a frame
/// holds one partition's whole share for that peer (150k messages on the
/// benchmark graph) — or, below the floor, the shares of several small
/// partitions, shipped together at the end of the superstep. Shipping between
/// computes overlaps this superstep's shuffle with its remaining compute,
/// and keeps every frame whole runs: per source partition, its runs for the
/// peer's partitions in pid order. The receiver cuts a frame into at most
/// one segment per source and destination partition, so no partition folds
/// more segments than there are partitions.
pub const SHUFFLE_BATCH_MSGS: usize = 8192;

/// Structured worker-side stderr log line: `optirec-worker worker=<id>
/// [superstep=<s>] event=<event> [detail…]`, written in one call so workers
/// sharing a pipe never split each other's lines. The worker id is learned
/// from the control connection's `Hello`; lines logged before it arrives say
/// `worker=?`.
fn wlog(worker: Option<u64>, superstep: Option<u32>, event: &str, detail: &str) {
    let worker = worker.map_or_else(|| "?".to_string(), |id| id.to_string());
    let superstep = superstep.map(|s| format!(" superstep={s}")).unwrap_or_default();
    let detail = if detail.is_empty() { String::new() } else { format!(" {detail}") };
    let line = format!("optirec-worker worker={worker}{superstep} event={event}{detail}\n");
    let _ = io::stderr().write_all(line.as_bytes());
}

/// Direct-data-plane context of the control connection, rebuilt from every
/// [`Message::Membership`] frame.
struct DirectCtx {
    /// This worker's coordinator-side index (from [`Message::Hello`]).
    worker: u64,
    /// Current membership epoch; tags every outgoing data-plane frame.
    epoch: u64,
    /// How long to wait for data-plane completeness before reporting
    /// [`Message::StepFailed`].
    data_timeout: Duration,
    /// Outgoing data-plane links, one per peer in membership order.
    links: Vec<PeerLink>,
    /// Destination of every partition's messages, indexed by `pid`: the
    /// membership's placement assignment resolved against [`Self::links`],
    /// so routing a message is one table read. Its length is the partition
    /// count.
    routes: Vec<Route>,
    /// Encode buffer of the [`Message::PartState`] replies, kept across
    /// supersteps.
    reply: Vec<u8>,
}

/// Where the messages addressed to one partition go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// This worker owns the partition: self-delivery through the local
    /// inbox.
    Own,
    /// The partition's owner is `links[i]`.
    Link(usize),
}

/// Resolve a placement `assignment` (`assignment[pid]` = owner) for `worker`
/// against `linked`, the `(peer, port)` of every other member in the order
/// of the links. A placement with no partition, or one that names an owner
/// outside the membership, is a broken frame: its messages would have
/// nowhere to go.
fn resolve_routes(
    worker: u64,
    linked: &[(u64, u64)],
    assignment: &[u64],
) -> io::Result<Vec<Route>> {
    if assignment.is_empty() {
        return Err(invalid("Membership assigns no partition"));
    }
    let route =
        |&owner: &u64| {
            if owner == worker {
                return Ok(Route::Own);
            }
            linked.iter().position(|&(peer, _)| peer == owner).map(Route::Link).ok_or_else(|| {
                invalid(format!("Membership assigns a partition to non-member {owner}"))
            })
        };
    assignment.iter().map(route).collect()
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

impl DirectCtx {
    /// Hand one partition's runs, one per destination partition, to
    /// `superstep`'s slot: an own partition's run is moved in whole, a peer's
    /// encoded into that peer's frame (its runs in pid order), and the frames
    /// worth shipping are shipped, overlapping the remaining compute. Runs are
    /// left empty: kept on both buffer sides they raised a worker's page
    /// faults by half.
    fn deliver(&mut self, plane: &DataPlane, superstep: u32, runs: &mut [Vec<Msg>]) {
        debug_assert_eq!(runs.len(), self.routes.len(), "one run per partition");
        for (pid, (route, run)) in self.routes.iter().zip(runs).enumerate() {
            let run = std::mem::take(run);
            match *route {
                Route::Own => plane.deposit_to(self.epoch, superstep, pid, run),
                Route::Link(i) => run.iter().for_each(|msg| self.links[i].frame.push(msg)),
            }
        }
        for link in &mut self.links {
            if link.frame.len() >= SHUFFLE_BATCH_MSGS {
                link.ship(self.worker, self.epoch, superstep);
            }
        }
    }

    /// Close `superstep`'s slot: ship what is left, then the end-of-superstep
    /// marker to every peer and to this worker's own inbox.
    fn end(&mut self, plane: &DataPlane, superstep: u32) {
        for link in &mut self.links {
            link.ship(self.worker, self.epoch, superstep);
        }
        for link in &mut self.links {
            link.flush(self.worker, self.epoch, superstep);
        }
        plane.flush(self.epoch, superstep, self.worker);
    }
}

/// One outgoing data-plane link and the frame being filled for it.
struct PeerLink {
    peer: u64,
    /// `None` once a write failed: the peer is presumed dead, its frames are
    /// discarded, and the coordinator's failure detector owns the rest.
    stream: Option<TcpStream>,
    /// The next [`Message::ShuffleFrame`] for this peer, kept across frames
    /// and supersteps.
    frame: ShuffleFrameBuf,
    /// Wire bytes (length prefixes included) shipped for the slot being
    /// filled; its [`Message::ShuffleFlush`] reports them.
    bytes: u64,
    /// Data frames shipped for the slot being filled.
    frames: u64,
    /// `(bytes, frames)` of the slots flushed since the last report: what a
    /// dispatch shipped this peer, a regenerate round included.
    shipped: (u64, u64),
}

impl PeerLink {
    /// Open the link to `peer`: connect and say who is calling. A peer that
    /// cannot be reached is a lost link from the start — the state a failed
    /// write produces — and not this worker's failure: the coordinator,
    /// reading the peer's own acknowledgement, is the one to declare it dead.
    fn open(worker: u64, epoch: u64, peer: u64, port: u64) -> PeerLink {
        let mut link = PeerLink {
            peer,
            stream: None,
            frame: ShuffleFrameBuf::default(),
            bytes: 0,
            frames: 0,
            shipped: (0, 0),
        };
        let connected = connect_peer(port).and_then(|mut stream| {
            stream.set_nodelay(true).ok();
            write_frame(&mut stream, &Message::PeerHello { from_worker: worker, epoch }, None)?;
            Ok(stream)
        });
        match connected {
            Ok(stream) => link.stream = Some(stream),
            Err(e) => link.lost(worker, None, &e),
        }
        link
    }

    /// Write the pending frame, if it holds any message, and start the next.
    fn ship(&mut self, worker: u64, epoch: u64, superstep: u32) {
        if self.frame.is_empty() {
            return;
        }
        if let Some(stream) = &mut self.stream {
            let sent = self
                .frame
                .finish(worker, epoch, superstep)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
                .and_then(|frame| stream.write_all(frame).map(|()| frame.len() as u64));
            match sent {
                Ok(bytes) => {
                    self.bytes += bytes;
                    self.frames += 1;
                }
                Err(e) => self.lost(worker, Some(superstep), &e),
            }
        }
        self.frame.clear();
    }

    /// Write the end-of-superstep marker, and start counting the next slot.
    fn flush(&mut self, worker: u64, epoch: u64, superstep: u32) {
        let (bytes, frames) = (std::mem::take(&mut self.bytes), std::mem::take(&mut self.frames));
        self.shipped.0 += bytes;
        self.shipped.1 += frames;
        let Some(stream) = &mut self.stream else { return };
        let flush = Message::ShuffleFlush { from_worker: worker, epoch, superstep, frames, bytes };
        if let Err(e) = write_frame(stream, &flush, None) {
            self.lost(worker, Some(superstep), &e);
        }
    }

    fn lost(&mut self, worker: u64, superstep: Option<u32>, error: &io::Error) {
        wlog(
            Some(worker),
            superstep,
            "peer_link_lost",
            &format!("peer={} error={error}", self.peer),
        );
        self.stream = None;
    }
}

/// One partition's outcome inside a superstep, held back until
/// all data-plane flushes are written (peers must never wait on a partition
/// whose `StepDone` the coordinator already counted).
struct StepOutcome {
    pid: u64,
    changed: u64,
    shuffled: u64,
    /// Records the partition's step touched: its state and what it sent.
    records: u64,
    compute_ns: u64,
    exchange_ns: u64,
}

/// Run a worker: bind `listen` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port), announce the port on stdout, and serve connections until the
/// process is told to [`Message::Shutdown`] or killed.
pub fn run(listen: &str) -> io::Result<()> {
    let listener = TcpListener::bind(listen)?;
    let port = listener.local_addr()?.port();
    println!("{LISTENING_MARKER} {port}");
    io::stdout().flush()?;

    let plane = Arc::new(DataPlane::default());
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let plane = plane.clone();
        thread::spawn(move || {
            // Connection teardown is the coordinator's problem: a worker
            // neither logs nor propagates per-connection errors.
            let _ = serve(stream, plane);
        });
    }
    Ok(())
}

fn serve(mut stream: TcpStream, plane: Arc<DataPlane>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // Telemetry coordinates are per control connection: the coordinator
    // sends every step dispatch of a superstep down one connection, so a
    // connection-local (superstep, seq) pair is a deterministic merge key
    // even though the process serves several connections.
    let mut worker: Option<u64> = None;
    // The superstep being reported and the sequence number of its next
    // telemetry frame.
    let mut telemetry: (u32, u64) = (0, 0);
    let mut ctx: Option<DirectCtx> = None;
    // The partitions `LoadProgram` gives this worker, held across
    // membership changes: the only copy of their state.
    let mut store: Option<PartitionStore> = None;
    // Set once this connection identifies itself as a peer data-plane link
    // (via `PeerHello`), so teardown can tell the inbox the peer is gone.
    let mut peer_identity: Option<(u64, u64)> = None;
    // One receive buffer per connection: every frame's payload is read into
    // it and decoded from it.
    let mut payload = Vec::new();
    let result = (|| -> io::Result<()> {
        loop {
            let msg = match read_frame_buffered(&mut stream, &mut payload, None) {
                Ok(msg) => msg,
                // Peer hung up between frames: a normal connection end.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            };
            match msg {
                Message::Hello { worker: id } => {
                    worker = Some(id);
                    wlog(worker, None, "hello", "");
                }
                Message::LoadProgram { program, n, adjacency } => {
                    let resolved = lookup(&program)
                        .ok_or_else(|| invalid(format!("unknown cluster program `{program}`")))?;
                    let (partitions, bytes) = (adjacency.len(), payload.len());
                    let detail =
                        format!("program={program} partitions={partitions} n={n} bytes={bytes}");
                    wlog(worker, None, "load_program", &detail);
                    // A survivor a rescale reassigns receives its full new
                    // set and keeps the state of what it still owns (a
                    // connection serves one run: one program over one graph).
                    store
                        .get_or_insert_with(|| PartitionStore::new(resolved, n, 1))
                        .load(adjacency);
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::Membership { epoch, data_timeout_ms, peers, assignment } => {
                    let my = worker.ok_or_else(|| invalid("Membership before Hello"))?;
                    let linked: Vec<(u64, u64)> =
                        peers.iter().copied().filter(|&(peer, _)| peer != my).collect();
                    let routes = resolve_routes(my, &linked, &assignment)?;
                    let links = linked
                        .iter()
                        .map(|&(peer, port)| PeerLink::open(my, epoch, peer, port))
                        .collect();
                    plane.install_placement(epoch, peers.iter().map(|&(w, _)| w), routes.len());
                    wlog(
                        worker,
                        None,
                        "membership",
                        &format!("epoch={epoch} members={} pids={}", peers.len(), assignment.len()),
                    );
                    let reply = ctx.take().map(|c| c.reply).unwrap_or_default();
                    ctx = Some(DirectCtx {
                        worker: my,
                        epoch,
                        data_timeout: Duration::from_millis(data_timeout_ms),
                        links,
                        routes,
                        reply,
                    });
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::StepGo { superstep, step, inbound, pids, cut } => {
                    let log = (superstep != telemetry.0)
                        .then(|| ("step_go", format!("pids={pids:?} cut={cut}")));
                    // A steady-state dispatch follows a commit: the slot it
                    // consumes is the committed superstep.
                    let source = inbound
                        .map_or(Source::Empty, |slot| Source::Slot { slot, regenerate: false });
                    let parts = pids.into_iter().map(|pid| (pid, Seed::Committed)).collect();
                    let (committed, full_send) = (inbound, false);
                    let dispatch =
                        Dispatch { superstep, step, committed, full_send, cut, source, parts, log };
                    let (ctx, store) = (ctx.as_mut(), store.as_mut());
                    run_direct_step(&mut stream, ctx, store, &plane, dispatch, &mut telemetry)?;
                }
                Message::StepReset { superstep, step, committed, parts, inbound, cut } => {
                    let described = match &inbound {
                        Inbound::Empty => "empty".to_string(),
                        Inbound::Slot(slot) => format!("slot:{slot}"),
                        Inbound::Regenerate => "regenerate".to_string(),
                    };
                    let pushed = parts.iter().filter(|(_, seed)| matches!(seed, Seed::Pushed(_)));
                    let detail = format!("pushed={} inbound={described} cut={cut}", pushed.count());
                    let log = Some(("step_reset", detail));
                    // Anything but regenerated messages marks an inbound
                    // history that is not exact: its superstep is a full-send
                    // one. A cut's state and what it sends are exact, so
                    // their superstep sends what any other would.
                    let full_send = inbound != Inbound::Regenerate;
                    let source = match inbound {
                        Inbound::Empty => Source::Empty,
                        Inbound::Slot(slot) => Source::Arrived(slot),
                        Inbound::Regenerate => {
                            let slot = superstep
                                .checked_sub(1)
                                .ok_or_else(|| invalid("Regenerate at superstep 0"))?;
                            Source::Slot { slot, regenerate: true }
                        }
                    };
                    let dispatch =
                        Dispatch { superstep, step, committed, full_send, cut, source, parts, log };
                    let (ctx, store) = (ctx.as_mut(), store.as_mut());
                    run_direct_step(&mut stream, ctx, store, &plane, dispatch, &mut telemetry)?;
                }
                Message::Pull { committed, pids } => {
                    let store = store.as_mut().ok_or_else(|| invalid("Pull before LoadProgram"))?;
                    store.settle(Some(committed));
                    wlog(worker, Some(committed), "pull", &format!("pids={pids:?}"));
                    let mut reply = Vec::new();
                    for pid in pids {
                        let state = store.committed().find(|&(held, _)| held == pid);
                        let missing = || invalid(format!("partition {pid} is not held here"));
                        reply.clear();
                        encode_part_state(&mut reply, pid, committed, state.ok_or_else(missing)?.1);
                        write_encoded_frame(&mut stream, &reply, None)?;
                    }
                }
                Message::PeerHello { from_worker, epoch } => {
                    peer_identity = Some((epoch, from_worker));
                    wlog(worker, None, "peer_hello", &format!("from={from_worker} epoch={epoch}"));
                }
                Message::ShuffleFrame { from_worker: _, epoch, superstep, msgs } => {
                    plane.deposit_run(epoch, superstep, msgs);
                }
                Message::ShuffleFlush { from_worker, epoch, superstep, .. } => {
                    plane.flush(epoch, superstep, from_worker);
                }
                Message::Heartbeat { nonce } => {
                    write_frame(&mut stream, &Message::HeartbeatAck { nonce }, None)?
                }
                Message::Shutdown => {
                    wlog(worker, None, "shutdown", "");
                    std::process::exit(0)
                }
                unexpected @ (Message::Welcome
                | Message::StepDone { .. }
                | Message::StepFailed { .. }
                | Message::HeartbeatAck { .. }
                | Message::TelemetryFrame { .. }
                | Message::PartState { .. }) => {
                    return Err(invalid(format!(
                        "coordinator sent a worker-only message: {unexpected:?}"
                    )));
                }
            }
        }
    })();
    if let Some((epoch, peer)) = peer_identity {
        // The peer's data-plane link dropped: if the membership hasn't moved
        // on, any waiter blocked on that peer's flush can fail fast instead
        // of burning the full data timeout.
        plane.peer_gone(epoch, peer);
        wlog(worker, None, "peer_gone", &format!("peer={peer} epoch={epoch}"));
    }
    if let Err(e) = &result {
        wlog(worker, None, "connection_error", &format!("error={e}"));
    }
    result
}

/// Connect to a peer worker's loopback listener, retrying briefly: the
/// coordinator only sends a membership once every member is listening, so
/// most failures here are transient accept-queue pressure. A refused
/// connection is not — a worker binds before it announces its port, so
/// nobody listening there means the peer is gone.
fn connect_peer(port: u64) -> io::Result<TcpStream> {
    let addr = format!("127.0.0.1:{port}");
    let mut delay = Duration::from_millis(10);
    for _ in 0..6 {
        match TcpStream::connect(&addr) {
            Err(e) if e.kind() != io::ErrorKind::ConnectionRefused => {
                thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
            connected => return connected,
        }
    }
    TcpStream::connect(&addr)
}

/// What a superstep computes from, as its worker resolves it.
enum Source {
    /// Nothing.
    Empty,
    /// The complete data-plane slot of chronological superstep `slot` —
    /// under `regenerate` filled first with what the partitions' state sends,
    /// routed like any superstep's output (the program's `emit`). A slot
    /// that does not complete fails the superstep.
    Slot { slot: u32, regenerate: bool },
    /// What arrives of a slot within the data timeout: the optimistic retry,
    /// whose slot is the committed superstep, complete on survivors modulo
    /// in-flight flushes — compensation absorbs any shortfall.
    Arrived(u32),
}

/// One superstep as a dispatch frame orders it.
struct Dispatch {
    superstep: u32,
    step: u64,
    /// The last committed superstep, which settles the partitions' state.
    committed: Option<u32>,
    /// Run it as a full-send superstep (see
    /// [`crate::program::ClusterProgram::fold_and_send`]).
    full_send: bool,
    /// Send each partition's new state up ahead of its `StepDone`.
    cut: bool,
    source: Source,
    /// Every partition the worker owns, ascending, and where its state
    /// comes from.
    parts: Vec<(u64, Seed)>,
    /// The dispatch's log line, written with `segments=` once resolved.
    log: Option<(&'static str, String)>,
}

/// Run one whole superstep over this worker's partitions: settle and seed
/// each partition's committed state as the dispatch says, resolve the inbound
/// (regenerating it first if the dispatch says so), step each partition
/// against the slot's segments addressed to it into its kept buffers, hand
/// each run it routed to the data plane — a peer's straight into the frame
/// it leaves in, this worker's own moved into the slot — ship every frame
/// worth shipping (overlapping the remaining compute), flush every peer, and
/// only then report per-partition [`Message::StepDone`]s (on a cut, each
/// behind the partition's [`Message::PartState`]) — so by the time the
/// coordinator can commit the superstep, every data-plane flush is already
/// written.
///
/// A regenerate round is a restore cost: billed to the partitions' exchange
/// spans and to the peer bytes, never to `shuffled`.
fn run_direct_step(
    stream: &mut TcpStream,
    ctx: Option<&mut DirectCtx>,
    store: Option<&mut PartitionStore>,
    plane: &DataPlane,
    dispatch: Dispatch,
    (telemetry_superstep, seq): &mut (u32, u64),
) -> io::Result<()> {
    let ctx = ctx.ok_or_else(|| invalid("step dispatch before Membership"))?;
    let store = store.ok_or_else(|| invalid("step dispatch before LoadProgram"))?;
    let Dispatch { superstep, step, committed, full_send, cut, source, parts, log } = dispatch;
    if superstep != *telemetry_superstep {
        (*telemetry_superstep, *seq) = (superstep, 0);
    }
    let worker = ctx.worker;
    let report = |segments: usize| {
        if let Some((event, detail)) = &log {
            wlog(Some(worker), Some(superstep), event, &format!("{detail} segments={segments}"));
        }
    };
    store.settle(committed);
    // The worker holds exactly the partitions it is dispatched, and routes
    // to every partition its membership places.
    store.seed(parts)?;
    store.route_to(ctx.routes.len());
    let (from, mut outs) = store.begin(superstep);
    let mut restore_ns = Vec::new();
    let slot = match source {
        Source::Empty => None,
        Source::Arrived(slot) => {
            if plane.wait_complete(slot, ctx.data_timeout).is_err() {
                let detail = format!("inbound_superstep={slot}");
                wlog(Some(worker), Some(superstep), "reset_slot_incomplete", &detail);
            }
            Some(slot)
        }
        Source::Slot { slot, regenerate } => {
            if regenerate {
                for (i, (_, out)) in outs.iter_mut().enumerate() {
                    let started = Instant::now();
                    // What the state sends: logical step 0's full send.
                    from.step(i, 0, true, &[], out);
                    ctx.deliver(plane, slot, &mut out.runs);
                    restore_ns.push(started.elapsed().as_nanos() as u64);
                }
                ctx.end(plane, slot);
            }
            if let Err(waiting_on) = plane.wait_complete(slot, ctx.data_timeout) {
                // Compute nothing: the coordinator treats the missing peer
                // as lost and resolves the superstep through recovery.
                report(0);
                let detail = format!("waiting_on={waiting_on:?}");
                wlog(Some(worker), Some(superstep), "data_wait_timeout", &detail);
                write_frame(stream, &Message::StepFailed { superstep, waiting_on }, None)?;
                return Ok(());
            }
            Some(slot)
        }
    };
    let inbound = slot.map(|slot| plane.take(slot)).unwrap_or_default();
    report(inbound.most());

    let mut outcomes = Vec::with_capacity(outs.len());
    for (i, (pid, out)) in outs.into_iter().enumerate() {
        let compute_start = Instant::now();
        let changed = from.step(i, step, full_send, &inbound.to(pid as usize), out);
        let compute_ns = compute_start.elapsed().as_nanos() as u64;

        let exchange_start = Instant::now();
        let shuffled = out.runs.iter().map(Vec::len).sum::<usize>() as u64;
        // Self-delivery participates in the same completeness protocol.
        ctx.deliver(plane, superstep, &mut out.runs);
        let restore_ns = restore_ns.get(i).copied().unwrap_or(0);
        let exchange_ns = restore_ns + exchange_start.elapsed().as_nanos() as u64;
        let records = out.state.len() as u64 + shuffled;
        outcomes.push(StepOutcome { pid, changed, shuffled, records, compute_ns, exchange_ns });
    }

    // Final flush before any StepDone, so a committed superstep implies
    // every flush is already written to the peer sockets.
    ctx.end(plane, superstep);
    // Per-peer data-plane byte accounting rides the last partition's
    // telemetry frame, once per dispatch.
    let peer_bytes: Vec<SpanRow> = ctx
        .links
        .iter_mut()
        .map(|link| (link.peer, std::mem::take(&mut link.shipped)))
        .filter(|&(_, (_, frames))| frames > 0)
        .map(|(peer, (bytes, frames))| (peer, SPAN_PHASE_PEER_BYTES, bytes, frames))
        .collect();

    let last = outcomes.len().saturating_sub(1);
    let reply = &mut ctx.reply;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let StepOutcome { pid, changed, shuffled, records, compute_ns, exchange_ns } = outcome;
        let shuffle_start = Instant::now();
        reply.clear();
        if cut {
            encode_part_state(reply, pid, superstep, store.tentative(i));
        }
        let done = encode_to_vec(&Message::StepDone { pid, superstep, changed, shuffled });
        let shuffle_ns = shuffle_start.elapsed().as_nanos() as u64;
        let mut spans: Vec<SpanRow> = vec![
            (pid, SPAN_PHASE_COMPUTE, records, compute_ns),
            (pid, SPAN_PHASE_SHUFFLE, records, shuffle_ns),
            (pid, SPAN_PHASE_EXCHANGE, shuffled, exchange_ns),
        ];
        if i == last {
            spans.extend_from_slice(&peer_bytes);
        }
        write_frame(
            stream,
            &Message::TelemetryFrame { worker, superstep, seq: *seq, spans },
            None,
        )?;
        *seq += 1;
        if cut {
            write_encoded_frame(stream, reply, None)?;
        }
        write_encoded_frame(stream, &done, None)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, AdjRows, Record};
    use proptest::prelude::*;

    /// A data-plane context for `members` workers with one unconnected link
    /// per peer: enough to route and fill frames, which is all that happens
    /// before a frame is written.
    fn routing_ctx(worker: u64, members: u64, assignment: &[u64]) -> DirectCtx {
        let linked: Vec<(u64, u64)> =
            (0..members).filter(|&peer| peer != worker).map(|peer| (peer, 0)).collect();
        let links = linked
            .iter()
            .map(|&(peer, _)| PeerLink {
                peer,
                stream: None,
                frame: ShuffleFrameBuf::default(),
                bytes: 0,
                frames: 0,
                shipped: (0, 0),
            })
            .collect();
        DirectCtx {
            worker,
            epoch: 4,
            data_timeout: Duration::ZERO,
            links,
            routes: resolve_routes(worker, &linked, assignment).unwrap(),
            reply: Vec::new(),
        }
    }

    proptest! {
        #[test]
        fn fused_route_and_encode_equals_batching_then_encoding_the_message(
            outbound in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..80),
            members in 1u64..5,
            worker in 0u64..4,
            owners in prop::collection::vec(any::<u64>(), 1..7),
        ) {
            // Any placement of any number of partitions over the members,
            // balanced or not: the assignment alone says where a run goes.
            let worker = worker % members;
            let assignment: Vec<u64> = owners.iter().map(|owner| owner % members).collect();
            let partitions = assignment.len();
            let mut ctx = routing_ctx(worker, members, &assignment);
            let plane = DataPlane::default();
            plane.install_placement(4, 0..members, partitions);
            // One partition's outbound as it routes it: one born-sorted run
            // per destination partition.
            let mut sorted = outbound;
            sorted.sort_unstable();
            let to = |d: usize| move |msg: &&Msg| msg.1 % partitions as u64 == d as u64;
            let runs: Vec<Vec<Msg>> =
                (0..partitions).map(|d| sorted.iter().filter(to(d)).copied().collect()).collect();

            // Twice through the same context: the second pass runs on the
            // buffers the first one left behind.
            for superstep in [7u32, 8] {
                let mut routed = runs.clone();
                let buffers: Vec<*const Msg> = routed.iter().map(|run| run.as_ptr()).collect();
                ctx.deliver(&plane, superstep, &mut routed);
                prop_assert!(routed.iter().all(Vec::is_empty));
                // An own run reaches the slot by move: its very buffer.
                let taken = plane.take(superstep);
                for (d, run) in runs.iter().enumerate() {
                    let landed = taken.to(d);
                    if assignment[d] == worker && !run.is_empty() {
                        prop_assert_eq!(&landed, &[run.as_slice()]);
                        prop_assert_eq!(landed[0].as_ptr(), buffers[d]);
                    } else {
                        prop_assert!(landed.is_empty());
                    }
                }
                // A peer's frame is its runs concatenated in pid order.
                for link in &mut ctx.links {
                    let msgs: Vec<Msg> = (0..partitions)
                        .filter(|&d| assignment[d] == link.peer)
                        .flat_map(|d| runs[d].iter().copied())
                        .collect();
                    prop_assert_eq!(link.frame.len(), msgs.len());
                    let frame =
                        Message::ShuffleFrame { from_worker: worker, epoch: 4, superstep, msgs };
                    let mut expected = Vec::new();
                    write_frame(&mut expected, &frame, None).unwrap();
                    prop_assert_eq!(link.frame.finish(worker, 4, superstep).unwrap(), &expected[..]);
                    link.frame.clear();
                    prop_assert!(link.frame.is_empty());
                }
            }
        }
    }

    #[test]
    fn a_placement_that_is_empty_or_names_a_non_member_is_invalid_data() {
        let peers = [(0u64, 40_001u64), (1, 40_002)];
        assert_eq!(
            resolve_routes(1, &peers[..1], &[0, 0, 0, 1]).unwrap(),
            [Route::Link(0), Route::Link(0), Route::Link(0), Route::Own]
        );
        for (assignment, complaint) in [(&[][..], "no partition"), (&[0, 2][..], "non-member 2")] {
            let err = resolve_routes(0, &peers[1..], assignment).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(complaint), "{err}");

            // ... and what the connection that carried it ends with, unacked.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let served = thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                serve(stream, Arc::default())
            });
            let mut conn = TcpStream::connect(addr).unwrap();
            write_frame(&mut conn, &Message::Hello { worker: 0 }, None).unwrap();
            let membership = Message::Membership {
                epoch: 1,
                data_timeout_ms: 2_000,
                peers: peers.to_vec(),
                assignment: assignment.to_vec(),
            };
            write_frame(&mut conn, &membership, None).unwrap();
            let err = served.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(complaint), "{err}");
            assert_eq!(
                read_frame(&mut conn, None).unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof
            );
        }
    }

    /// Serve a single in-process worker on an ephemeral port (tests only —
    /// production workers are separate OS processes).
    fn spawn_local_worker() -> std::net::SocketAddr {
        spawn_local_worker_on(Arc::default())
    }

    /// [`spawn_local_worker`] over `plane`, which the test can read.
    fn spawn_local_worker_on(plane: Arc<DataPlane>) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let plane = plane.clone();
                thread::spawn(move || {
                    let _ = serve(stream, plane);
                });
            }
        });
        addr
    }

    /// The next `StepDone` on `conn`, telemetry frames skipped.
    fn next_step_done(conn: &mut TcpStream) -> Message {
        loop {
            match read_frame(conn, None).unwrap() {
                Message::TelemetryFrame { .. } => continue,
                done @ Message::StepDone { .. } => return done,
                other => panic!("expected StepDone, got {other:?}"),
            }
        }
    }

    fn expect_step_done(conn: &mut TcpStream) -> (u64, u32, u64) {
        match next_step_done(conn) {
            Message::StepDone { pid, superstep, changed, .. } => (pid, superstep, changed),
            _ => unreachable!(),
        }
    }

    /// The state of `pids` as committed superstep `committed` left it, pulled
    /// up the control connection.
    fn pull(conn: &mut TcpStream, committed: u32, pids: &[u64]) -> Vec<Vec<Record>> {
        write_frame(conn, &Message::Pull { committed, pids: pids.to_vec() }, None).unwrap();
        let state = |&pid: &u64| match read_frame(conn, None).unwrap() {
            Message::PartState { pid: got, superstep, state } => {
                assert_eq!((got, superstep), (pid, committed));
                state
            }
            other => panic!("expected PartState, got {other:?}"),
        };
        pids.iter().map(state).collect()
    }

    /// Partition `pid`'s rows of the `n`-vertex path graph cut into
    /// `parallelism` partitions by `v % parallelism`.
    fn path_rows(n: u64, parallelism: u64, pid: u64) -> AdjRows {
        let neighbours =
            |v: u64| (v.saturating_sub(1)..=(v + 1).min(n - 1)).filter(move |&u| u != v);
        (pid..n)
            .step_by(parallelism as usize)
            .map(|v| (v, neighbours(v).collect::<Vec<_>>()))
            .collect()
    }

    /// The whole handshake, on a fresh control connection to the worker at
    /// `addr`: `Hello`, `LoadProgram` of "cc" over `adjacency` and its ack,
    /// `Membership` and its ack — three frames down, two up, and the worker
    /// is ready for its first dispatch.
    fn handshake(
        addr: std::net::SocketAddr,
        worker: u64,
        n: u64,
        adjacency: Vec<(u64, AdjRows)>,
        peers: Vec<(u64, u64)>,
        assignment: Vec<u64>,
    ) -> TcpStream {
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, &Message::Hello { worker }, None).unwrap();
        let load = Message::LoadProgram { program: "cc".into(), n, adjacency };
        write_frame(&mut conn, &load, None).unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        let membership =
            Message::Membership { epoch: 1, data_timeout_ms: 2_000, peers, assignment };
        write_frame(&mut conn, &membership, None).unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        conn
    }

    /// A control connection to a fresh single-member worker that owns both
    /// partitions of the `n`-vertex path graph under "cc": every shuffle
    /// message is a self-delivery through the local inbox, so the full
    /// StepReset → StepGo cycle runs without a second process.
    fn single_member_cc_worker(n: u64) -> TcpStream {
        let addr = spawn_local_worker();
        let adjacency = vec![(0, path_rows(n, 2, 0)), (1, path_rows(n, 2, 1))];
        handshake(addr, 0, n, adjacency, vec![(0, u64::from(addr.port()))], vec![0, 0])
    }

    /// The first superstep over `pids`: logical step 0, every partition
    /// initialised by the worker itself (each vertex its own label).
    fn first_superstep_of(pids: &[u64]) -> Message {
        Message::StepReset {
            superstep: 1,
            step: 0,
            committed: None,
            parts: pids.iter().map(|&pid| (pid, Seed::Init)).collect(),
            inbound: Inbound::Empty,
            cut: false,
        }
    }

    fn first_superstep() -> Message {
        first_superstep_of(&[0, 1])
    }

    /// The steady-state dispatch of both partitions at `superstep`.
    fn go(superstep: u32, step: u64) -> Message {
        let inbound = Some(superstep - 1);
        Message::StepGo { superstep, step, inbound, pids: vec![0, 1], cut: false }
    }

    #[test]
    fn direct_mode_runs_supersteps_from_cached_state_and_self_delivery() {
        let mut conn = single_member_cc_worker(2);

        // Superstep 1 seeds state and message flow (step 0 semantics). Its
        // replies are the next frames up: the handshake left none behind — a
        // `Hello` is not acknowledged, and no map frame follows the
        // membership.
        write_frame(&mut conn, &first_superstep(), None).unwrap();
        assert_eq!(expect_step_done(&mut conn).0, 0);
        assert_eq!(expect_step_done(&mut conn).0, 1);

        // Superstep 2 consumes superstep 1's self-delivered messages: label
        // 0 reaches vertex 1 without any state travelling down the wire.
        write_frame(&mut conn, &go(2, 1), None).unwrap();
        assert_eq!(expect_step_done(&mut conn), (0, 2, 0));
        assert_eq!(expect_step_done(&mut conn), (1, 2, 1), "label propagated via data plane");
        // The state comes up only when pulled.
        assert_eq!(pull(&mut conn, 2, &[0, 1]), [vec![(0, 0)], vec![(1, 0)]]);
    }

    /// A stand-in for peer worker 1: the listener a membership names, the
    /// frames worker 0 sends it, and a link back into worker 0's data plane.
    struct FakePeer {
        listener: TcpListener,
    }

    impl FakePeer {
        fn bind() -> (FakePeer, u64) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let port = u64::from(listener.local_addr().unwrap().port());
            (FakePeer { listener }, port)
        }

        /// Everything worker 0 shuffled to this peer for one superstep: the
        /// messages of its frames, up to the flush.
        fn received(&self) -> Vec<Msg> {
            let (mut link, _) = self.listener.accept().unwrap();
            let hello = read_frame(&mut link, None).unwrap();
            assert_eq!(hello, Message::PeerHello { from_worker: 0, epoch: 1 });
            let mut received = Vec::new();
            loop {
                match read_frame(&mut link, None).unwrap() {
                    Message::ShuffleFrame { msgs, .. } => received.extend(msgs),
                    Message::ShuffleFlush { .. } => return received,
                    other => panic!("expected shuffle traffic, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn the_first_frame_after_the_membership_ack_is_routed_by_the_assignment() {
        // Worker 0 of two owns partitions 0, 1 and 2 of four; `pid % members`
        // would send partition 1's messages to worker 1, where nobody folds
        // them in. The membership carries the assignment, so there is no
        // window in which a worker routes by anything else.
        let n = 8;
        let addr = spawn_local_worker();
        let (peer, peer_port) = FakePeer::bind();
        let owned = [0u64, 1, 2];
        let mut conn = handshake(
            addr,
            0,
            n,
            owned.iter().map(|&pid| (pid, path_rows(n, 4, pid))).collect(),
            vec![(0, u64::from(addr.port())), (1, peer_port)],
            vec![0, 0, 0, 1],
        );
        write_frame(&mut conn, &first_superstep_of(&owned), None).unwrap();
        // At step 0 every label travels to the larger neighbour: 2 → 3 and
        // 6 → 7 are the two that leave for partition 3, and the only two.
        assert_eq!(peer.received(), vec![(2, 3, 2), (6, 7, 6)]);
        for pid in owned {
            assert_eq!(expect_step_done(&mut conn).0, pid);
        }

        // The peer flushes its (empty) share of superstep 1; superstep 2
        // then finds label 0 in partition 1's inbox — self-delivered.
        let mut back = TcpStream::connect(addr).unwrap();
        write_frame(&mut back, &Message::PeerHello { from_worker: 1, epoch: 1 }, None).unwrap();
        let flush =
            Message::ShuffleFlush { from_worker: 1, epoch: 1, superstep: 1, frames: 0, bytes: 0 };
        write_frame(&mut back, &flush, None).unwrap();
        let pids = owned.to_vec();
        let go = Message::StepGo { superstep: 2, step: 1, inbound: Some(1), pids, cut: false };
        write_frame(&mut conn, &go, None).unwrap();
        for pid in owned {
            assert_eq!(expect_step_done(&mut conn).0, pid);
        }
        // (Vertex 4 keeps its label: its smaller neighbour lives on the peer.)
        let states = pull(&mut conn, 2, &owned);
        assert_eq!(states, [vec![(0, 0), (4, 4)], vec![(1, 0), (5, 4)], vec![(2, 1), (6, 5)]]);
    }

    #[test]
    fn a_worker_that_cannot_reach_a_peer_acks_the_membership_with_that_link_lost() {
        // Nobody listens where the membership says worker 1 does: worker 1
        // is the one that died, and the coordinator learns it from worker
        // 1's own silence. Worker 0 acknowledges (`handshake` reads the ack)
        // and runs its superstep, discarding what it has for the dead peer.
        let n = 8;
        let addr = spawn_local_worker();
        let (gone, gone_port) = FakePeer::bind();
        drop(gone);
        let owned = [0u64, 2];
        let mut conn = handshake(
            addr,
            0,
            n,
            owned.iter().map(|&pid| (pid, path_rows(n, 4, pid))).collect(),
            vec![(0, u64::from(addr.port())), (1, gone_port)],
            vec![0, 1, 0, 1],
        );
        write_frame(&mut conn, &first_superstep_of(&owned), None).unwrap();
        for pid in owned {
            assert_eq!(expect_step_done(&mut conn).0, pid);
        }
    }

    /// Every `StepDone` of one dispatch over both partitions, as
    /// `(pid, changed, shuffled)`.
    fn replies_to(conn: &mut TcpStream, dispatch: &Message) -> Vec<(u64, u64, u64)> {
        write_frame(conn, dispatch, None).unwrap();
        let reply = |conn: &mut TcpStream| match next_step_done(conn) {
            Message::StepDone { pid, changed, shuffled, .. } => (pid, changed, shuffled),
            _ => unreachable!(),
        };
        vec![reply(conn), reply(conn)]
    }

    #[test]
    fn a_regenerated_superstep_is_the_failure_free_one() {
        // The path 0-1-..-7 over two partitions (even and odd vertices):
        // logical steps 0, 1 and 2, failure-free, with the cut after step 1
        // pulled as a rollback strategy's cut brings it up.
        let mut conn = single_member_cc_worker(8);
        replies_to(&mut conn, &first_superstep());
        replies_to(&mut conn, &go(2, 1));
        let cut = pull(&mut conn, 2, &[0, 1]);
        let failure_free = replies_to(&mut conn, &go(3, 2));
        assert!(failure_free.iter().any(|&(_, changed, _)| changed > 0), "labels still move");
        let failure_free_state = pull(&mut conn, 3, &[0, 1]);

        // A restore of the cut after step 1: a new epoch, the cut's state
        // pushed, and nothing else — the worker regenerates what that state
        // sends into the slot of superstep 4 (still holding nothing of epoch
        // 2), then steps from it as step 2 did, sending the same messages.
        let addr = conn.peer_addr().unwrap();
        let membership = Message::Membership {
            epoch: 2,
            data_timeout_ms: 2_000,
            peers: vec![(0, u64::from(addr.port()))],
            assignment: vec![0, 0],
        };
        write_frame(&mut conn, &membership, None).unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        let restore = Message::StepReset {
            superstep: 5,
            step: 2,
            committed: Some(3),
            parts: cut
                .into_iter()
                .enumerate()
                .map(|(pid, s)| (pid as u64, Seed::Pushed(s)))
                .collect(),
            inbound: Inbound::Regenerate,
            cut: false,
        };
        assert_eq!(replies_to(&mut conn, &restore), failure_free);
        assert_eq!(pull(&mut conn, 5, &[0, 1]), failure_free_state);
    }

    #[test]
    fn a_regenerate_round_routes_per_destination_like_any_superstep() {
        // The complete graph on 16 vertices, four partitions, all on one
        // worker. A restored state of every vertex its own label sends each
        // label to every larger vertex, so one partition's send as one mixed
        // run changes destination at nearly every message: cut where it
        // lands, it would hand each partition a dozen near-singleton
        // segments. Routed per destination, each source partition is one.
        let (n, partitions) = (16u64, 4usize);
        let plane = Arc::new(DataPlane::default());
        let addr = spawn_local_worker_on(plane.clone());
        let complete = |pid: u64| -> AdjRows {
            let neighbours = |v: u64| (0..n).filter(move |&u| u != v).collect::<Vec<_>>();
            (pid..n).step_by(partitions).map(|v| (v, neighbours(v))).collect()
        };
        let pids: Vec<u64> = (0..partitions as u64).collect();
        let adjacency = pids.iter().map(|&pid| (pid, complete(pid))).collect();
        let peers = vec![(0, u64::from(addr.port()))];
        let mut conn = handshake(addr, 0, n, adjacency, peers, vec![0; partitions]);
        let own_labels =
            |pid: u64| (pid..n).step_by(partitions).map(|v| (v, v)).collect::<Vec<Record>>();
        let restore = Message::StepReset {
            superstep: 2,
            step: 1,
            committed: None,
            parts: pids.iter().map(|&pid| (pid, Seed::Pushed(own_labels(pid)))).collect(),
            inbound: Inbound::Regenerate,
            cut: false,
        };
        write_frame(&mut conn, &restore, None).unwrap();
        for &pid in &pids {
            assert_eq!(expect_step_done(&mut conn).0, pid);
        }
        // Slot 1 is what the round regenerated: vertex 4 hears from all
        // four partitions, each one segment. Slot 2 is what the step sent.
        assert_eq!(plane.take(1).most(), partitions);
        let sent = plane.take(2);
        assert!((1..=partitions).contains(&sent.most()), "{sent:?}");

        // ... and the next superstep folds it: every label is 0.
        let go = Message::StepGo { superstep: 3, step: 2, inbound: Some(2), pids, cut: false };
        write_frame(&mut conn, &go, None).unwrap();
        for pid in 0..partitions as u64 {
            assert_eq!(expect_step_done(&mut conn).0, pid);
        }
        let labels = pull(&mut conn, 3, &[0, 1, 2, 3]);
        assert!(labels.iter().flatten().all(|&(_, label)| label == 0), "{labels:?}");
    }

    #[test]
    fn a_failed_attempt_cannot_leak_into_its_retry_on_a_survivor() {
        // The path 0-1-..-7 over two partitions. Superstep 2 runs logical
        // step 1, and then a peer is declared lost: superstep 2 never
        // commits. The retry — superstep 3, step 1 again, a StepReset that
        // pushes nothing — computes from what superstep 1 committed and the
        // slot it sent, so it lowers the labels the attempt lowered and
        // leaves the state the attempt left. Computing from the attempt's
        // output would lower nothing.
        let mut conn = single_member_cc_worker(8);
        replies_to(&mut conn, &first_superstep());
        let attempt = replies_to(&mut conn, &go(2, 1));
        assert!(attempt.iter().all(|&(_, changed, _)| changed > 0), "{attempt:?}");
        let addr = conn.peer_addr().unwrap();
        let membership = Message::Membership {
            epoch: 2,
            data_timeout_ms: 2_000,
            peers: vec![(0, u64::from(addr.port()))],
            assignment: vec![0, 0],
        };
        write_frame(&mut conn, &membership, None).unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        let retry = Message::StepReset {
            superstep: 3,
            step: 1,
            committed: Some(1),
            parts: vec![(0, Seed::Committed), (1, Seed::Committed)],
            inbound: Inbound::Slot(1),
            cut: false,
        };
        let retried = replies_to(&mut conn, &retry);
        let changed = |replies: &[(u64, u64, u64)]| -> Vec<u64> {
            replies.iter().map(|&(_, changed, _)| changed).collect()
        };
        assert_eq!(changed(&retried), changed(&attempt));
        let after_one_step =
            [vec![(0, 0), (2, 1), (4, 3), (6, 5)], vec![(1, 0), (3, 2), (5, 4), (7, 6)]];
        assert_eq!(pull(&mut conn, 3, &[0, 1]), after_one_step);
    }

    #[test]
    fn heartbeats_are_answered_on_a_separate_connection() {
        let addr = spawn_local_worker();
        let mut hb = TcpStream::connect(addr).unwrap();
        for nonce in [1u64, 7, 99] {
            write_frame(&mut hb, &Message::Heartbeat { nonce }, None).unwrap();
            assert_eq!(read_frame(&mut hb, None).unwrap(), Message::HeartbeatAck { nonce });
        }
    }

    #[test]
    fn step_before_load_is_rejected_with_a_connection_drop() {
        let addr = spawn_local_worker();
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut conn,
            &Message::StepGo { superstep: 0, step: 0, inbound: None, pids: vec![0], cut: false },
            None,
        )
        .unwrap();
        // The handler thread errors out and closes the connection.
        let err = read_frame(&mut conn, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
