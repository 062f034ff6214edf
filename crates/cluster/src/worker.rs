//! The worker process: owns partition state execution for its share of the
//! graph and speaks the frame protocol over loopback TCP.
//!
//! A worker binds an ephemeral (or explicitly requested) port, announces it
//! on stdout as `OPTIREC_WORKER_LISTENING <port>` — the coordinator reads
//! that line from the child's pipe — and then serves connections forever.
//! Each connection gets its own thread over one shared `WorkerState`, so
//! heartbeat probes (which never touch the state) are answered even while a
//! superstep is being computed on the control connection.
//!
//! The same listener serves both planes: the coordinator's control
//! connection, and incoming peer connections carrying
//! [`Message::ShuffleFrame`]s, which a connection thread deposits into the
//! process-wide [`DataPlane`] inbox. The control
//! connection installs peer links from [`Message::Membership`], then runs
//! whole supersteps from [`Message::StepGo`] / [`Message::StepReset`]
//! against cached partition state, shipping outbound messages directly to
//! peers (one frame per partition and peer, overlapped with the remaining
//! partitions' compute); they never pass through the coordinator.
//! A cross-worker message is copied once on each side: encoded from the
//! step's outbound into the frame buffer the socket write reads, and decoded
//! from the connection's receive buffer into the vector the inbox keeps as a
//! run (DESIGN.md, "Shuffle path").
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

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dataflow::codec::Codec;
use parking_lot::Mutex;

use crate::exchange::DataPlane;
use crate::program::{lookup, ClusterProgram};
use crate::protocol::{
    read_frame_buffered, write_encoded_frame, write_frame, AdjRows, Message, Msg, Record,
    ShuffleFrameBuf, SpanRow, NO_INBOUND, SPAN_PHASE_COMPUTE, SPAN_PHASE_EXCHANGE,
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
/// and keeps every frame a single born-sorted run per source partition, so
/// the receiver's merge never sees more runs than partitions.
pub const SHUFFLE_BATCH_MSGS: usize = 8192;

/// Structured worker-side stderr log line: `optirec-worker worker=<id>
/// [superstep=<s>] event=<event> [detail…]`. The worker id is learned from
/// the control connection's `Hello`; lines logged before it arrives say
/// `worker=?`.
fn wlog(worker: Option<u64>, superstep: Option<u32>, event: &str, detail: &str) {
    let mut line = String::from("optirec-worker worker=");
    match worker {
        Some(id) => line.push_str(&id.to_string()),
        None => line.push('?'),
    }
    if let Some(s) = superstep {
        line.push_str(&format!(" superstep={s}"));
    }
    line.push_str(&format!(" event={event}"));
    if !detail.is_empty() {
        line.push(' ');
        line.push_str(detail);
    }
    eprintln!("{line}");
}

/// Program + adjacency installed by `LoadProgram`, shared across connections.
#[derive(Default)]
struct WorkerState {
    program: Option<Arc<dyn ClusterProgram>>,
    n: u64,
    adjacency: HashMap<u64, Arc<AdjRows>>,
    /// Asynchronous-snapshot chunks staged per epoch: `epoch → pid → chunk`.
    /// The barrier marker ([`Message::SnapshotBarrier`]) deposits chunks
    /// here; they are retained until a `LoadProgram` resets the worker.
    snapshots: HashMap<u32, HashMap<u64, Vec<u8>>>,
}

/// Direct-data-plane context of the control connection, rebuilt from every
/// [`Message::Membership`] frame.
struct DirectCtx {
    /// Current membership epoch; tags every outgoing data-plane frame.
    epoch: u64,
    /// Partition count (message routing: `dst % parallelism`).
    parallelism: u64,
    /// How long to wait for data-plane completeness before reporting
    /// [`Message::StepFailed`].
    data_timeout: Duration,
    /// Total cluster members. Fallback partition → worker routing when no
    /// [`Message::MapUpdate`] has arrived for the current epoch:
    /// `pid % members` (the initial assignment the coordinator's placement
    /// map starts from).
    members: u64,
    /// Outgoing data-plane links, one per peer in membership order.
    links: Vec<PeerLink>,
    /// Destination of every partition's messages, indexed by `pid`: built
    /// once per [`Message::Membership`] and again from the
    /// [`Message::MapUpdate`] that follows it — which is what lets
    /// partitions live anywhere after a rebalance — so routing a message is
    /// one table read.
    routes: Vec<Route>,
    /// Cached per-partition state, carried across supersteps so steady-state
    /// dispatches ([`Message::StepGo`]) need not re-ship state down.
    state: HashMap<u64, Vec<Record>>,
    /// Encode buffer of the [`Message::StepDone`] replies, kept across
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
    /// The partition's owner is no member this worker holds a link to; its
    /// messages have nowhere to go.
    Unlinked,
}

impl DirectCtx {
    /// Rebuild [`Self::routes`] for `worker` from a placement `assignment`
    /// (`assignment[pid]` = owner), falling back to `pid % members` for any
    /// partition it does not name.
    fn install_routes(&mut self, worker: u64, assignment: &[u64]) {
        self.routes = (0..self.parallelism)
            .map(|pid| {
                let owner = assignment.get(pid as usize).copied().unwrap_or(pid % self.members);
                if owner == worker {
                    Route::Own
                } else {
                    self.links
                        .iter()
                        .position(|link| link.peer == owner)
                        .map_or(Route::Unlinked, Route::Link)
                }
            })
            .collect();
    }

    /// Route one partition's outbound: messages for peers are encoded
    /// straight into the frame they leave in, the rest are returned as the
    /// self-delivered run. Both keep `outbound`'s order, so a born-sorted
    /// outbound yields born-sorted frames and a born-sorted run.
    fn route(&mut self, outbound: &[Msg]) -> Vec<Msg> {
        // Destinations spread evenly over partitions (`v % P`), so the run
        // that stays here is about this worker's share of them.
        let owned = self.routes.iter().filter(|route| **route == Route::Own).count();
        let mut own = Vec::with_capacity((outbound.len() * owned).div_ceil(self.routes.len()));
        for msg in outbound {
            match self.routes[(msg.1 % self.parallelism) as usize] {
                Route::Own => own.push(*msg),
                Route::Link(i) => self.links[i].frame.push(msg),
                Route::Unlinked => {}
            }
        }
        own
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
    /// Wire bytes (length prefixes included) shipped this superstep.
    bytes: u64,
    /// Data frames shipped this superstep.
    frames: u64,
}

impl PeerLink {
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
                Err(e) => self.lost(worker, superstep, &e),
            }
        }
        self.frame.clear();
    }

    /// Write the end-of-superstep marker.
    fn flush(&mut self, worker: u64, epoch: u64, superstep: u32) {
        let Some(stream) = &mut self.stream else { return };
        let flush = Message::ShuffleFlush {
            from_worker: worker,
            epoch,
            superstep,
            frames: self.frames,
            bytes: self.bytes,
        };
        if let Err(e) = write_frame(stream, &flush, None) {
            self.lost(worker, superstep, &e);
        }
    }

    fn lost(&mut self, worker: u64, superstep: u32, error: &io::Error) {
        wlog(
            Some(worker),
            Some(superstep),
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
    outbound: Vec<Msg>,
    changed: u64,
    shuffled: u64,
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

    let shared = Arc::new(Mutex::new(WorkerState::default()));
    let plane = Arc::new(DataPlane::default());
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        let plane = plane.clone();
        thread::spawn(move || {
            // Connection teardown is the coordinator's problem: a worker
            // neither logs nor propagates per-connection errors.
            let _ = serve(stream, shared, plane);
        });
    }
    Ok(())
}

fn serve(
    mut stream: TcpStream,
    shared: Arc<Mutex<WorkerState>>,
    plane: Arc<DataPlane>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // Telemetry coordinates are per control connection: the coordinator
    // sends every step dispatch of a superstep down one connection, so a
    // connection-local (superstep, seq) pair is a deterministic merge key
    // even though the process serves several connections.
    let mut worker: Option<u64> = None;
    let mut telemetry_superstep: u32 = 0;
    let mut seq: u64 = 0;
    let mut ctx: Option<DirectCtx> = None;
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
                    write_frame(&mut stream, &Message::Welcome, None)?
                }
                Message::LoadProgram { program, n, adjacency } => {
                    let resolved = lookup(&program).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown cluster program `{program}`"),
                        )
                    })?;
                    wlog(
                        worker,
                        None,
                        "load_program",
                        &format!("program={program} partitions={} n={n}", adjacency.len()),
                    );
                    let mut state = shared.lock();
                    state.program = Some(resolved);
                    state.n = n;
                    // A rejoining replacement receives its full partition set
                    // again; stale assignments from before a redistribution are
                    // dropped rather than merged.
                    state.adjacency.clear();
                    state.snapshots.clear();
                    for (pid, rows) in adjacency {
                        state.adjacency.insert(pid, Arc::new(rows));
                    }
                    drop(state);
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::Membership { epoch, parallelism, data_timeout_ms, peers } => {
                    let my = worker.ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "Membership before Hello")
                    })?;
                    if parallelism == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "Membership with zero partitions",
                        ));
                    }
                    let mut links = Vec::new();
                    for &(peer, port) in &peers {
                        if peer == my {
                            continue;
                        }
                        let mut link = connect_peer(port)?;
                        link.set_nodelay(true).ok();
                        write_frame(
                            &mut link,
                            &Message::PeerHello { from_worker: my, epoch },
                            None,
                        )?;
                        links.push(PeerLink {
                            peer,
                            stream: Some(link),
                            frame: ShuffleFrameBuf::default(),
                            bytes: 0,
                            frames: 0,
                        });
                    }
                    plane.install_membership(epoch, peers.iter().map(|&(w, _)| w));
                    wlog(
                        worker,
                        None,
                        "membership",
                        &format!("epoch={epoch} members={}", peers.len()),
                    );
                    // Survivors keep their cached state across a membership
                    // change; the coordinator pushes authoritative state in
                    // the StepReset that follows a failure anyway. The
                    // placement assignment is NOT kept: ownership may have
                    // moved under the new epoch, so routing falls back to
                    // `pid % members` until the MapUpdate that follows every
                    // Membership broadcast re-installs it.
                    let (state, reply) = ctx.take().map(|c| (c.state, c.reply)).unwrap_or_default();
                    let mut direct = DirectCtx {
                        epoch,
                        parallelism,
                        data_timeout: Duration::from_millis(data_timeout_ms),
                        members: peers.len() as u64,
                        links,
                        routes: Vec::new(),
                        state,
                        reply,
                    };
                    direct.install_routes(my, &[]);
                    ctx = Some(direct);
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::MapUpdate { epoch, version, assignment } => {
                    let (Some(my), Some(direct)) = (worker, ctx.as_mut()) else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "MapUpdate before Membership",
                        ));
                    };
                    if epoch == direct.epoch {
                        wlog(
                            worker,
                            None,
                            "map_update",
                            &format!("epoch={epoch} version={version} pids={}", assignment.len()),
                        );
                        direct.install_routes(my, &assignment);
                    } else {
                        // A stale map (raced with a newer Membership) must
                        // not overwrite routing, but the coordinator still
                        // waits for the ack.
                        wlog(
                            worker,
                            None,
                            "map_update_stale",
                            &format!("epoch={epoch} current={}", direct.epoch),
                        );
                    }
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::WorkerJoin { worker: id, superstep } => {
                    // Informational: this worker was spawned into a
                    // computation already at `superstep`. Partitions arrive
                    // via LoadProgram, state via StepReset.
                    wlog(Some(id), Some(superstep), "worker_join", "");
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::Drain { superstep } => {
                    // Planned departure at a superstep barrier. All
                    // data-plane output of the last superstep was flushed
                    // before its StepDones were written, so there is nothing
                    // left in flight: acknowledge and wait for the Shutdown
                    // that follows.
                    wlog(worker, Some(superstep), "drain", "");
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::StepGo { superstep, step, inbound_superstep, stage_outbound, pids } => {
                    let my = worker.ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "StepGo before Hello")
                    })?;
                    let direct = ctx.as_mut().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "StepGo before Membership")
                    })?;
                    if superstep != telemetry_superstep {
                        telemetry_superstep = superstep;
                        seq = 0;
                        wlog(
                            worker,
                            Some(superstep),
                            "step_go",
                            &format!("pids={pids:?} stage_outbound={stage_outbound}"),
                        );
                    }
                    let inbound = if inbound_superstep == NO_INBOUND {
                        Vec::new()
                    } else {
                        match plane.wait_complete(inbound_superstep, direct.data_timeout) {
                            Ok(()) => {
                                plane.take_inboxes(inbound_superstep, direct.parallelism as usize)
                            }
                            Err(waiting_on) => {
                                // Compute nothing: the coordinator treats the
                                // missing peer as lost and resolves the
                                // superstep through recovery.
                                wlog(
                                    worker,
                                    Some(superstep),
                                    "data_wait_timeout",
                                    &format!("waiting_on={waiting_on:?}"),
                                );
                                write_frame(
                                    &mut stream,
                                    &Message::StepFailed { superstep, waiting_on },
                                    None,
                                )?;
                                continue;
                            }
                        }
                    };
                    run_direct_step(
                        &mut stream,
                        my,
                        direct,
                        &shared,
                        &plane,
                        superstep,
                        step,
                        StepMode { full_send: false, stage_outbound },
                        inbound,
                        &pids,
                        &mut seq,
                    )?;
                }
                Message::StepReset {
                    superstep,
                    step,
                    inbound_superstep,
                    use_wire_inbound,
                    stage_outbound,
                    parts,
                    inboxes,
                } => {
                    let my = worker.ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "StepReset before Hello")
                    })?;
                    let direct = ctx.as_mut().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "StepReset before Membership")
                    })?;
                    if superstep != telemetry_superstep {
                        telemetry_superstep = superstep;
                        seq = 0;
                    }
                    wlog(
                        worker,
                        Some(superstep),
                        "step_reset",
                        &format!(
                            "parts={} use_wire_inbound={use_wire_inbound} \
                             inbound_superstep={inbound_superstep} stage_outbound={stage_outbound}",
                            parts.len()
                        ),
                    );
                    let pids: Vec<u64> = parts.iter().map(|&(pid, _)| pid).collect();
                    for (pid, records) in parts {
                        direct.state.insert(pid, records);
                    }
                    let inbound: Vec<Vec<Msg>> = if use_wire_inbound != 0 {
                        let mut by_pid = vec![Vec::new(); direct.parallelism as usize];
                        for (pid, msgs) in inboxes {
                            *by_pid.get_mut(pid as usize).ok_or_else(|| {
                                io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("StepReset inbox for unknown partition {pid}"),
                                )
                            })? = msgs;
                        }
                        by_pid
                    } else if inbound_superstep == NO_INBOUND {
                        Vec::new()
                    } else {
                        // Optimistic retry: the named slot is the committed
                        // superstep, complete on survivors modulo in-flight
                        // flushes. Wait briefly, then proceed with whatever
                        // arrived — compensation absorbs any shortfall.
                        if plane.wait_complete(inbound_superstep, direct.data_timeout).is_err() {
                            wlog(
                                worker,
                                Some(superstep),
                                "reset_slot_incomplete",
                                &format!("inbound_superstep={inbound_superstep}"),
                            );
                        }
                        plane.take_inboxes(inbound_superstep, direct.parallelism as usize)
                    };
                    // A reset without pushed inboxes marks an inbound history
                    // that is not exact: its superstep is a full-send one.
                    // Pushed state and inboxes are an exact cut, so their
                    // superstep sends what any other would.
                    let full_send = use_wire_inbound == 0 || step == 0;
                    run_direct_step(
                        &mut stream,
                        my,
                        direct,
                        &shared,
                        &plane,
                        superstep,
                        step,
                        StepMode { full_send, stage_outbound },
                        inbound,
                        &pids,
                        &mut seq,
                    )?;
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
                Message::SnapshotBarrier { epoch, pid, chunk } => {
                    let bytes = chunk.len() as u64;
                    shared.lock().snapshots.entry(epoch).or_default().insert(pid, chunk);
                    wlog(
                        worker,
                        None,
                        "snapshot_chunk",
                        &format!("epoch={epoch} pid={pid} bytes={bytes}"),
                    );
                    write_frame(&mut stream, &Message::SnapshotAck { epoch, pid, bytes }, None)?;
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
                | Message::SnapshotAck { .. }) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("coordinator sent a worker-only message: {unexpected:?}"),
                    ));
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
/// coordinator only broadcasts membership once every member is listening,
/// so failures here are transient accept-queue pressure, not absence.
fn connect_peer(port: u64) -> io::Result<TcpStream> {
    let addr = format!("127.0.0.1:{port}");
    let mut delay = Duration::from_millis(10);
    for _ in 0..6 {
        match TcpStream::connect(&addr) {
            Ok(stream) => return Ok(stream),
            Err(_) => {
                thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
        }
    }
    TcpStream::connect(&addr)
}

/// How a dispatch wants its superstep run.
#[derive(Debug, Clone, Copy)]
struct StepMode {
    /// Every vertex re-sends ([`ClusterProgram::full_send_step`]): the
    /// inbound history is not exact.
    full_send: bool,
    /// Every `StepDone` carries its partition's outbound: the coordinator
    /// stages this superstep's channel state for a cut.
    stage_outbound: bool,
}

/// Run one whole superstep over this worker's partitions:
/// compute each partition against its resolved inbound (with
/// [`ClusterProgram::full_send_step`] when `mode.full_send`), route its outbound
/// through the destination table — peers' messages straight into the frames
/// they leave in, this worker's own into a run moved into the local inbox —
/// ship every frame worth shipping (overlapping the remaining compute),
/// flush every peer, and only then report per-partition
/// [`Message::StepDone`]s — so by the time the coordinator can commit the
/// superstep, every data-plane flush is already written.
#[allow(clippy::too_many_arguments)]
fn run_direct_step(
    stream: &mut TcpStream,
    worker: u64,
    ctx: &mut DirectCtx,
    shared: &Mutex<WorkerState>,
    plane: &DataPlane,
    superstep: u32,
    step: u64,
    mode: StepMode,
    inbound: Vec<Vec<Msg>>,
    pids: &[u64],
    seq: &mut u64,
) -> io::Result<()> {
    let (program, n) = {
        let state = shared.lock();
        let program = state.program.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "step dispatch before LoadProgram")
        })?;
        (program, state.n)
    };
    for link in &mut ctx.links {
        (link.bytes, link.frames) = (0, 0);
    }
    let mut outcomes = Vec::with_capacity(pids.len());
    let empty: Vec<Msg> = Vec::new();
    for &pid in pids {
        let rows = shared.lock().adjacency.get(&pid).cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("step for partition {pid} not owned by this worker"),
            )
        })?;
        let state = ctx.state.get(&pid).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("step for partition {pid} with no cached state"),
            )
        })?;
        let inb = inbound.get(pid as usize).unwrap_or(&empty);
        let compute_start = Instant::now();
        let out = if mode.full_send {
            program.full_send_step(step, state, inb, &rows, n)
        } else {
            program.step(step, state, inb, &rows, n)
        };
        let compute_ns = compute_start.elapsed().as_nanos() as u64;

        let exchange_start = Instant::now();
        let shuffled = out.outbound.len() as u64;
        // Self-delivery participates in the same completeness protocol.
        let own = ctx.route(&out.outbound);
        plane.deposit_run(ctx.epoch, superstep, own);
        // Pipelining: frames worth shipping go now, overlapping the
        // remaining partitions' compute with this superstep's shuffle.
        for link in &mut ctx.links {
            if link.frame.len() >= SHUFFLE_BATCH_MSGS {
                link.ship(worker, ctx.epoch, superstep);
            }
        }
        let exchange_ns = exchange_start.elapsed().as_nanos() as u64;
        ctx.state.insert(pid, out.state);
        outcomes.push(StepOutcome {
            pid,
            outbound: if mode.stage_outbound { out.outbound } else { Vec::new() },
            changed: out.changed,
            shuffled,
            compute_ns,
            exchange_ns,
        });
    }

    // Final flush: ship what is left, then the end-of-superstep marker to
    // every peer — before any StepDone, so a committed superstep implies
    // every flush is already written to the peer sockets.
    for link in &mut ctx.links {
        link.ship(worker, ctx.epoch, superstep);
    }
    for link in &mut ctx.links {
        link.flush(worker, ctx.epoch, superstep);
    }
    plane.flush(ctx.epoch, superstep, worker);

    let last = outcomes.len().saturating_sub(1);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let StepOutcome { pid, outbound, changed, shuffled, compute_ns, exchange_ns } = outcome;
        // The cached state is the only copy: lend it to the reply for
        // encoding, then put it back for the next superstep.
        let state = ctx.state.remove(&pid).unwrap_or_default();
        let records = state.len() as u64 + shuffled;
        let reply = Message::StepDone { pid, superstep, state, outbound, changed, shuffled };
        let shuffle_start = Instant::now();
        ctx.reply.clear();
        reply.encode(&mut ctx.reply);
        let shuffle_ns = shuffle_start.elapsed().as_nanos() as u64;
        if let Message::StepDone { state, .. } = reply {
            ctx.state.insert(pid, state);
        }
        let mut spans: Vec<SpanRow> = vec![
            (pid, SPAN_PHASE_COMPUTE, records, compute_ns),
            (pid, SPAN_PHASE_SHUFFLE, records, shuffle_ns),
            (pid, SPAN_PHASE_EXCHANGE, shuffled, exchange_ns),
        ];
        if i == last {
            // Per-peer data-plane byte accounting rides the last partition's
            // telemetry frame, once per superstep.
            for link in ctx.links.iter().filter(|link| link.frames > 0) {
                spans.push((link.peer, SPAN_PHASE_PEER_BYTES, link.bytes, link.frames));
            }
        }
        write_frame(
            stream,
            &Message::TelemetryFrame { worker, superstep, seq: *seq, spans },
            None,
        )?;
        *seq += 1;
        write_encoded_frame(stream, &ctx.reply, None)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use proptest::prelude::*;

    /// A data-plane context for `members` workers with one unconnected link
    /// per peer: enough to route and fill frames, which is all that happens
    /// before a frame is written.
    fn routing_ctx(worker: u64, members: u64, parallelism: u64, assignment: &[u64]) -> DirectCtx {
        let links = (0..members)
            .filter(|&peer| peer != worker)
            .map(|peer| PeerLink {
                peer,
                stream: None,
                frame: ShuffleFrameBuf::default(),
                bytes: 0,
                frames: 0,
            })
            .collect();
        let mut ctx = DirectCtx {
            epoch: 4,
            parallelism,
            data_timeout: Duration::ZERO,
            members,
            links,
            routes: Vec::new(),
            state: HashMap::new(),
            reply: Vec::new(),
        };
        ctx.install_routes(worker, assignment);
        ctx
    }

    proptest! {
        #[test]
        fn fused_route_and_encode_equals_batching_then_encoding_the_message(
            outbound in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..80),
            shape in (1u64..5, 1u64..7),
            worker in 0u64..4,
            assignment in prop::collection::vec(0u64..6, 0..7),
        ) {
            // Owners named by a placement map may be absent from the
            // membership (index >= members): their messages go nowhere.
            let (members, parallelism) = shape;
            let worker = worker % members;
            let mut ctx = routing_ctx(worker, members, parallelism, &assignment);
            let owner_of = |msg: &Msg| {
                let pid = msg.1 % parallelism;
                assignment.get(pid as usize).copied().unwrap_or(pid % members)
            };

            // Twice through the same context: the second pass runs on the
            // buffers the first one left behind.
            for superstep in [7u32, 8] {
                let own = ctx.route(&outbound);
                let expected: Vec<Msg> =
                    outbound.iter().copied().filter(|msg| owner_of(msg) == worker).collect();
                prop_assert_eq!(own, expected);
                for link in &mut ctx.links {
                    let msgs: Vec<Msg> =
                        outbound.iter().copied().filter(|msg| owner_of(msg) == link.peer).collect();
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

    /// Serve a single in-process worker on an ephemeral port (tests only —
    /// production workers are separate OS processes).
    fn spawn_local_worker() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let shared = Arc::new(Mutex::new(WorkerState::default()));
            let plane = Arc::new(DataPlane::default());
            for stream in listener.incoming().flatten() {
                let shared = shared.clone();
                let plane = plane.clone();
                thread::spawn(move || {
                    let _ = serve(stream, shared, plane);
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

    fn expect_step_done(conn: &mut TcpStream) -> (u64, u32, Vec<Record>, u64) {
        match next_step_done(conn) {
            Message::StepDone { pid, superstep, state, changed, .. } => {
                (pid, superstep, state, changed)
            }
            _ => unreachable!(),
        }
    }

    /// A control connection to a fresh single-member worker that owns both
    /// partitions of the `n`-vertex path graph under "cc": every shuffle
    /// message is a self-delivery through the local inbox, so the full
    /// StepReset → StepGo cycle runs without a second process.
    fn single_member_cc_worker(n: u64) -> TcpStream {
        let neighbours =
            |v: u64| (v.saturating_sub(1)..=(v + 1).min(n - 1)).filter(move |&u| u != v);
        let rows = |pid: u64| -> AdjRows {
            (pid..n).step_by(2).map(|v| (v, neighbours(v).collect())).collect()
        };
        let addr = spawn_local_worker();
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, &Message::Hello { worker: 0 }, None).unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        write_frame(
            &mut conn,
            &Message::LoadProgram {
                program: "cc".into(),
                n,
                adjacency: vec![(0, rows(0)), (1, rows(1))],
            },
            None,
        )
        .unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        write_frame(
            &mut conn,
            &Message::Membership {
                epoch: 1,
                parallelism: 2,
                data_timeout_ms: 2_000,
                peers: vec![(0, u64::from(addr.port()))],
            },
            None,
        )
        .unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        conn
    }

    /// The first superstep of the `n`-vertex path graph: every vertex's
    /// state pushed as its own label, logical step 0.
    fn first_superstep(n: u64, superstep: u32, stage_outbound: bool) -> Message {
        let part = |pid: u64| (pid, (pid..n).step_by(2).map(|v| (v, v)).collect());
        Message::StepReset {
            superstep,
            step: 0,
            inbound_superstep: NO_INBOUND,
            use_wire_inbound: 0,
            stage_outbound,
            parts: vec![part(0), part(1)],
            inboxes: vec![],
        }
    }

    #[test]
    fn direct_mode_runs_supersteps_from_cached_state_and_self_delivery() {
        let mut conn = single_member_cc_worker(2);

        // Superstep 1 seeds state and message flow (step 0 semantics).
        write_frame(&mut conn, &first_superstep(2, 1, false), None).unwrap();
        let (pid, superstep, state, _) = expect_step_done(&mut conn);
        assert_eq!((pid, superstep, state), (0, 1, vec![(0, 0)]));
        let (pid, _, state, _) = expect_step_done(&mut conn);
        assert_eq!((pid, state), (1, vec![(1, 1)]));

        // Superstep 2 consumes superstep 1's self-delivered messages: label
        // 0 reaches vertex 1 without any state travelling down the wire.
        write_frame(
            &mut conn,
            &Message::StepGo {
                superstep: 2,
                step: 1,
                inbound_superstep: 1,
                stage_outbound: false,
                pids: vec![0, 1],
            },
            None,
        )
        .unwrap();
        let (pid, _, state, changed) = expect_step_done(&mut conn);
        assert_eq!((pid, state, changed), (0, vec![(0, 0)], 0));
        let (pid, _, state, changed) = expect_step_done(&mut conn);
        assert_eq!((pid, state, changed), (1, vec![(1, 0)], 1), "label propagated via data plane");
    }

    /// Every `StepDone`'s `(pid, outbound, shuffled)` of one dispatch over
    /// both partitions.
    fn outbound_of(conn: &mut TcpStream, dispatch: &Message) -> Vec<(u64, Vec<Msg>, u64)> {
        write_frame(conn, dispatch, None).unwrap();
        let reply = |conn: &mut TcpStream| match next_step_done(conn) {
            Message::StepDone { pid, outbound, shuffled, .. } => (pid, outbound, shuffled),
            _ => unreachable!(),
        };
        vec![reply(conn), reply(conn)]
    }

    #[test]
    fn a_step_done_carries_its_outbound_only_when_the_dispatch_stages_it() {
        // The path 0-1-2-3-4-5 over two partitions (even and odd vertices).
        // At logical step 0 every label travels to the larger neighbour;
        // at step 1 the labels just adopted travel on, never back.
        let sent = [
            vec![
                (0, vec![(0u64, 1u64, 0u64), (2, 3, 2), (4, 5, 4)]),
                (1, vec![(1, 2, 1), (3, 4, 3)]),
            ],
            vec![(0, vec![(2, 3, 1), (4, 5, 3)]), (1, vec![(1, 2, 0), (3, 4, 2)])],
        ];
        for stage_first in [false, true] {
            let mut conn = single_member_cc_worker(6);
            let go = Message::StepGo {
                superstep: 2,
                step: 1,
                inbound_superstep: 1,
                // The flag is per dispatch, whichever kind: each superstep
                // decides anew, and the messages are delivered either way.
                stage_outbound: !stage_first,
                pids: vec![0, 1],
            };
            let dispatches =
                [(first_superstep(6, 1, stage_first), stage_first), (go, !stage_first)];
            for ((dispatch, staged), sent) in dispatches.iter().zip(&sent) {
                let replies = outbound_of(&mut conn, dispatch);
                for ((pid, outbound, shuffled), (sent_pid, sent)) in replies.iter().zip(sent) {
                    assert_eq!(pid, sent_pid);
                    assert_eq!(*shuffled, sent.len() as u64, "counted whether staged or not");
                    if *staged {
                        assert_eq!(outbound, sent, "the whole outbound, in the order it was born");
                        assert!(outbound.is_sorted());
                    } else {
                        assert!(outbound.is_empty(), "an unstaged superstep ships no messages up");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_barriers_are_staged_and_acked() {
        let addr = spawn_local_worker();
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut conn,
            &Message::SnapshotBarrier { epoch: 4, pid: 1, chunk: vec![9, 9, 9] },
            None,
        )
        .unwrap();
        assert_eq!(
            read_frame(&mut conn, None).unwrap(),
            Message::SnapshotAck { epoch: 4, pid: 1, bytes: 3 }
        );
        // Restaging the same (epoch, pid) replaces the chunk.
        write_frame(
            &mut conn,
            &Message::SnapshotBarrier { epoch: 4, pid: 1, chunk: vec![7] },
            None,
        )
        .unwrap();
        assert_eq!(
            read_frame(&mut conn, None).unwrap(),
            Message::SnapshotAck { epoch: 4, pid: 1, bytes: 1 }
        );
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
            &Message::StepGo {
                superstep: 0,
                step: 0,
                inbound_superstep: NO_INBOUND,
                stage_outbound: false,
                pids: vec![0],
            },
            None,
        )
        .unwrap();
        // The handler thread errors out and closes the connection.
        let err = read_frame(&mut conn, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
