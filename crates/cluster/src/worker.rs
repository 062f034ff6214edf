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
//! connection, and — under the direct data plane — incoming peer
//! connections carrying [`Message::ShuffleFrame`]s, which a connection
//! thread deposits into the process-wide [`DataPlane`] inbox. The control
//! connection installs peer links from [`Message::Membership`], then runs
//! whole supersteps from [`Message::StepGo`] / [`Message::StepReset`]
//! against cached partition state, shipping outbound messages directly to
//! peers (batched, overlapped with the remaining partitions' compute)
//! instead of funnelling them through the coordinator.
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

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dataflow::codec::encode_to_vec;
use parking_lot::Mutex;

use crate::exchange::DataPlane;
use crate::program::{lookup, ClusterProgram};
use crate::protocol::{
    read_frame, write_encoded_frame, write_frame, AdjRows, Message, Msg, Record, SpanRow,
    NO_INBOUND, SPAN_PHASE_COMPUTE, SPAN_PHASE_EXCHANGE, SPAN_PHASE_PEER_BYTES, SPAN_PHASE_SHUFFLE,
};

/// Marker line a worker prints to stdout once its listener is bound; the
/// rest of the line is the decimal port number.
pub const LISTENING_MARKER: &str = "OPTIREC_WORKER_LISTENING";

/// Messages accumulated for one peer before the batch is shipped as a
/// [`Message::ShuffleFrame`] mid-superstep. Small enough to keep frames
/// well under [`crate::protocol::MAX_FRAME_BYTES`], large enough that
/// framing overhead is noise; full batches ship between partition computes,
/// overlapping this superstep's shuffle with its remaining compute.
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
    /// Piggyback outbound messages in `StepDone` so the coordinator's inbox
    /// copy stays authoritative (rollback strategies).
    ship_outbound: bool,
    /// How long to wait for data-plane completeness before reporting
    /// [`Message::StepFailed`].
    data_timeout: Duration,
    /// Total cluster members. Fallback partition → worker routing when no
    /// [`Message::MapUpdate`] has arrived for the current epoch:
    /// `pid % members` (the initial assignment the coordinator's placement
    /// map starts from).
    members: u64,
    /// Partition → worker assignment installed by [`Message::MapUpdate`];
    /// empty until one arrives for the current epoch. Routing consults this
    /// first — it is what lets partitions live anywhere after a rebalance.
    assignment: Vec<u64>,
    /// Outgoing data-plane links: `(peer worker, stream)`. A write failure
    /// drops the link; the coordinator's failure detector owns the rest.
    links: Vec<(u64, TcpStream)>,
    /// Cached per-partition state, carried across supersteps so steady-state
    /// dispatches ([`Message::StepGo`]) need not re-ship state down.
    state: HashMap<u64, Vec<Record>>,
}

/// One partition's outcome inside a direct-mode superstep, held back until
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
    let result = (|| -> io::Result<()> {
        loop {
            let msg = match read_frame(&mut stream, None) {
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
                Message::Membership {
                    epoch,
                    parallelism,
                    ship_outbound,
                    data_timeout_ms,
                    peers,
                } => {
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
                        links.push((peer, link));
                    }
                    plane.install_membership(epoch, peers.iter().map(|&(w, _)| w));
                    wlog(
                        worker,
                        None,
                        "membership",
                        &format!(
                            "epoch={epoch} members={} ship_outbound={ship_outbound}",
                            peers.len()
                        ),
                    );
                    // Survivors keep their cached state across a membership
                    // change; the coordinator pushes authoritative state in
                    // the StepReset that follows a failure anyway. The
                    // placement assignment is NOT kept: ownership may have
                    // moved under the new epoch, so routing falls back to
                    // `pid % members` until the MapUpdate that follows every
                    // Membership broadcast re-installs it.
                    let state = ctx.take().map(|c| c.state).unwrap_or_default();
                    ctx = Some(DirectCtx {
                        epoch,
                        parallelism,
                        ship_outbound: ship_outbound != 0,
                        data_timeout: Duration::from_millis(data_timeout_ms),
                        members: peers.len() as u64,
                        assignment: Vec::new(),
                        links,
                        state,
                    });
                    write_frame(&mut stream, &Message::Welcome, None)?;
                }
                Message::MapUpdate { epoch, version, assignment } => {
                    let direct = ctx.as_mut().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "MapUpdate before Membership")
                    })?;
                    if epoch == direct.epoch {
                        wlog(
                            worker,
                            None,
                            "map_update",
                            &format!("epoch={epoch} version={version} pids={}", assignment.len()),
                        );
                        direct.assignment = assignment;
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
                Message::StepGo { superstep, step, inbound_superstep, pids } => {
                    let my = worker.ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "StepGo before Hello")
                    })?;
                    let direct = ctx.as_mut().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "StepGo before Membership")
                    })?;
                    if superstep != telemetry_superstep {
                        telemetry_superstep = superstep;
                        seq = 0;
                        wlog(worker, Some(superstep), "step_go", &format!("pids={pids:?}"));
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
                             inbound_superstep={inbound_superstep}",
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
                    run_direct_step(
                        &mut stream,
                        my,
                        direct,
                        &shared,
                        &plane,
                        superstep,
                        step,
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
                    plane.deposit(epoch, superstep, &msgs);
                }
                Message::ShuffleFlush { from_worker, epoch, superstep, .. } => {
                    plane.flush(epoch, superstep, from_worker);
                }
                Message::RunStep { pid, superstep, step, state, inbound } => {
                    let (program, rows, n) = {
                        let shared = shared.lock();
                        let program = shared.program.clone().ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "RunStep before LoadProgram")
                        })?;
                        let rows = shared.adjacency.get(&pid).cloned().ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("RunStep for partition {pid} not owned by this worker"),
                            )
                        })?;
                        (program, rows, shared.n)
                    };
                    if superstep != telemetry_superstep {
                        telemetry_superstep = superstep;
                        seq = 0;
                        wlog(worker, Some(superstep), "run_step", &format!("first_pid={pid}"));
                    }
                    let compute_start = Instant::now();
                    let out = program.step(step, &state, &inbound, &rows, n);
                    let compute_ns = compute_start.elapsed().as_nanos() as u64;
                    let records = (out.state.len() + out.outbound.len()) as u64;
                    let shuffled = out.outbound.len() as u64;
                    let reply = Message::StepDone {
                        pid,
                        superstep,
                        state: out.state,
                        outbound: out.outbound,
                        changed: out.changed,
                        shuffled,
                    };
                    let shuffle_start = Instant::now();
                    let payload = encode_to_vec(&reply);
                    let shuffle_ns = shuffle_start.elapsed().as_nanos() as u64;
                    // Telemetry first, then the pre-encoded reply: TCP
                    // ordering makes the frame visible to the coordinator no
                    // later than the StepDone it describes.
                    write_frame(
                        &mut stream,
                        &Message::TelemetryFrame {
                            worker: worker.unwrap_or(0),
                            superstep,
                            seq,
                            spans: vec![
                                (pid, SPAN_PHASE_COMPUTE, records, compute_ns),
                                (pid, SPAN_PHASE_SHUFFLE, records, shuffle_ns),
                            ],
                        },
                        None,
                    )?;
                    seq += 1;
                    write_encoded_frame(&mut stream, &payload, None)?;
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

/// Encode and write one [`Message::ShuffleFrame`] to `peer`, clearing
/// `batch` and accounting the wire bytes. A write failure is soft: the peer
/// is presumed dead, the link is dropped, and the coordinator's failure
/// detector owns the consequences.
fn ship_batch(
    links: &mut Vec<(u64, TcpStream)>,
    shipped: &mut BTreeMap<u64, (u64, u64)>,
    worker: u64,
    epoch: u64,
    superstep: u32,
    peer: u64,
    batch: &mut Vec<Msg>,
) {
    if batch.is_empty() {
        return;
    }
    let msgs = std::mem::take(batch);
    let frame = Message::ShuffleFrame { from_worker: worker, epoch, superstep, msgs };
    let payload = encode_to_vec(&frame);
    let Some(idx) = links.iter().position(|&(p, _)| p == peer) else { return };
    match write_encoded_frame(&mut links[idx].1, &payload, None) {
        Ok(()) => {
            let entry = shipped.entry(peer).or_default();
            entry.0 += 4 + payload.len() as u64;
            entry.1 += 1;
        }
        Err(e) => {
            wlog(
                Some(worker),
                Some(superstep),
                "peer_link_lost",
                &format!("peer={peer} error={e}"),
            );
            links.remove(idx);
        }
    }
}

/// Run one whole superstep over this worker's partitions in direct mode:
/// compute each partition against its resolved inbound, route outbound
/// messages into per-peer batches (full batches ship mid-superstep,
/// overlapping the remaining compute), flush every peer, deposit
/// self-destined messages locally, and only then report per-partition
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
    let mut self_msgs: Vec<Msg> = Vec::new();
    let mut batches: BTreeMap<u64, Vec<Msg>> =
        ctx.links.iter().map(|&(peer, _)| (peer, Vec::new())).collect();
    let mut shipped: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
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
        let out = program.step(step, state, inb, &rows, n);
        let compute_ns = compute_start.elapsed().as_nanos() as u64;

        let exchange_start = Instant::now();
        let shuffled = out.outbound.len() as u64;
        for &msg in &out.outbound {
            let dest_pid = msg.1 % ctx.parallelism;
            // Ownership comes from the coordinator's placement map when one
            // was shipped for this epoch; the modulo fallback matches the
            // map's initial assignment.
            let dest =
                ctx.assignment.get(dest_pid as usize).copied().unwrap_or(dest_pid % ctx.members);
            if dest == worker {
                self_msgs.push(msg);
            } else {
                batches.entry(dest).or_default().push(msg);
            }
        }
        // Pipelining: full batches ship now, overlapping the remaining
        // partitions' compute with this superstep's shuffle.
        for (&peer, batch) in batches.iter_mut() {
            if batch.len() >= SHUFFLE_BATCH_MSGS {
                ship_batch(&mut ctx.links, &mut shipped, worker, ctx.epoch, superstep, peer, batch);
            }
        }
        let exchange_ns = exchange_start.elapsed().as_nanos() as u64;
        ctx.state.insert(pid, out.state);
        outcomes.push(StepOutcome {
            pid,
            outbound: if ctx.ship_outbound { out.outbound } else { Vec::new() },
            changed: out.changed,
            shuffled,
            compute_ns,
            exchange_ns,
        });
    }

    // Final flush: drain remaining batches, then the end-of-superstep
    // marker to every peer — before any StepDone, so a committed superstep
    // implies every flush is already written to the peer sockets.
    let peers: Vec<u64> = batches.keys().copied().collect();
    for &peer in &peers {
        let mut batch = batches.remove(&peer).unwrap_or_default();
        ship_batch(&mut ctx.links, &mut shipped, worker, ctx.epoch, superstep, peer, &mut batch);
    }
    for &peer in &peers {
        let (bytes, frames) = shipped.get(&peer).copied().unwrap_or_default();
        let flush = Message::ShuffleFlush {
            from_worker: worker,
            epoch: ctx.epoch,
            superstep,
            frames,
            bytes,
        };
        if let Some(idx) = ctx.links.iter().position(|&(p, _)| p == peer) {
            if let Err(e) = write_frame(&mut ctx.links[idx].1, &flush, None) {
                wlog(
                    Some(worker),
                    Some(superstep),
                    "peer_link_lost",
                    &format!("peer={peer} error={e}"),
                );
                ctx.links.remove(idx);
            }
        }
    }
    // Self-delivery participates in the same completeness protocol.
    plane.deposit(ctx.epoch, superstep, &self_msgs);
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
        let payload = encode_to_vec(&reply);
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
            for (&peer, &(bytes, frames)) in &shipped {
                spans.push((peer, SPAN_PHASE_PEER_BYTES, bytes, frames));
            }
        }
        write_frame(
            stream,
            &Message::TelemetryFrame { worker, superstep, seq: *seq, spans },
            None,
        )?;
        *seq += 1;
        write_encoded_frame(stream, &payload, None)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn expect_step_done(conn: &mut TcpStream) -> (u64, u32, Vec<Record>, u64) {
        loop {
            match read_frame(conn, None).unwrap() {
                Message::TelemetryFrame { .. } => continue,
                Message::StepDone { pid, superstep, state, changed, .. } => {
                    return (pid, superstep, state, changed)
                }
                other => panic!("expected StepDone, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_loads_a_program_and_steps_a_partition() {
        let addr = spawn_local_worker();
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, &Message::Hello { worker: 0 }, None).unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);

        // Partition 0 of a 2-vertex path graph, single partition.
        write_frame(
            &mut conn,
            &Message::LoadProgram {
                program: "cc".into(),
                n: 2,
                adjacency: vec![(0, vec![(0, vec![1]), (1, vec![0])])],
            },
            None,
        )
        .unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);

        write_frame(
            &mut conn,
            &Message::RunStep {
                pid: 0,
                superstep: 1,
                step: 1,
                state: vec![(0, 0), (1, 1)],
                inbound: vec![(0, 1, 0)],
            },
            None,
        )
        .unwrap();
        // The telemetry frame precedes the reply it describes.
        match read_frame(&mut conn, None).unwrap() {
            Message::TelemetryFrame { worker, superstep, seq, spans } => {
                assert_eq!((worker, superstep, seq), (0, 1, 0));
                let phases: Vec<u64> = spans.iter().map(|&(_, phase, _, _)| phase).collect();
                assert_eq!(phases, vec![SPAN_PHASE_COMPUTE, SPAN_PHASE_SHUFFLE]);
                assert!(spans.iter().all(|&(pid, _, records, _)| pid == 0 && records > 0));
            }
            other => panic!("expected TelemetryFrame, got {other:?}"),
        }
        match read_frame(&mut conn, None).unwrap() {
            Message::StepDone { pid, superstep, state, changed, shuffled, .. } => {
                assert_eq!((pid, superstep), (0, 1));
                assert_eq!(state, vec![(0, 0), (1, 0)], "label 0 propagates to vertex 1");
                assert_eq!(changed, 1);
                assert_eq!(shuffled, 2, "both vertices broadcast to their neighbour");
            }
            other => panic!("expected StepDone, got {other:?}"),
        }
    }

    #[test]
    fn direct_mode_runs_supersteps_from_cached_state_and_self_delivery() {
        // Single-member direct data plane: the worker owns both partitions
        // of a 2-vertex path graph, so every shuffle message is a
        // self-delivery through the local inbox — the full StepReset →
        // StepGo cycle without a second process.
        let addr = spawn_local_worker();
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, &Message::Hello { worker: 0 }, None).unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);
        write_frame(
            &mut conn,
            &Message::LoadProgram {
                program: "cc".into(),
                n: 2,
                adjacency: vec![(0, vec![(0, vec![1])]), (1, vec![(1, vec![0])])],
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
                ship_outbound: 0,
                data_timeout_ms: 2_000,
                peers: vec![(0, u64::from(addr.port()))],
            },
            None,
        )
        .unwrap();
        assert_eq!(read_frame(&mut conn, None).unwrap(), Message::Welcome);

        // Superstep 1 seeds state and message flow (step 0 semantics).
        write_frame(
            &mut conn,
            &Message::StepReset {
                superstep: 1,
                step: 0,
                inbound_superstep: NO_INBOUND,
                use_wire_inbound: 0,
                parts: vec![(0, vec![(0, 0)]), (1, vec![(1, 1)])],
                inboxes: vec![],
            },
            None,
        )
        .unwrap();
        let (pid, superstep, state, _) = expect_step_done(&mut conn);
        assert_eq!((pid, superstep, state), (0, 1, vec![(0, 0)]));
        let (pid, _, state, _) = expect_step_done(&mut conn);
        assert_eq!((pid, state), (1, vec![(1, 1)]));

        // Superstep 2 consumes superstep 1's self-delivered messages: label
        // 0 reaches vertex 1 without any state travelling down the wire.
        write_frame(
            &mut conn,
            &Message::StepGo { superstep: 2, step: 1, inbound_superstep: 1, pids: vec![0, 1] },
            None,
        )
        .unwrap();
        let (pid, _, state, changed) = expect_step_done(&mut conn);
        assert_eq!((pid, state, changed), (0, vec![(0, 0)], 0));
        let (pid, _, state, changed) = expect_step_done(&mut conn);
        assert_eq!((pid, state, changed), (1, vec![(1, 0)], 1), "label propagated via data plane");
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
            &Message::RunStep { pid: 0, superstep: 0, step: 0, state: vec![], inbound: vec![] },
            None,
        )
        .unwrap();
        // The handler thread errors out and closes the connection.
        let err = read_frame(&mut conn, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
