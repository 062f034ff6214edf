//! A single-threaded replay of a cluster program, written against the
//! public `ClusterProgram` trait, that times each layer a superstep passes
//! through on its own: the program's `step`, the route + sort that
//! assembles the next inbound, the codec over the messages that would cross
//! between workers, and the exchange inbox that would collect them.
//!
//! The counts are exact; the times are what one thread pays with nothing
//! else running, so they bound what an optimisation of that layer can save.

use std::time::{Duration, Instant};

use cluster::exchange::DataPlane;
use cluster::worker::SHUFFLE_BATCH_MSGS;
use cluster::{Message, Msg, Record};
use dataflow::codec::{decode_exact, encode_to_vec};
use graphs::Graph;

use crate::batch::{MAX_ITERATIONS, PARTITIONS, WORKERS};
use crate::ms_since;
use crate::stats::Stat;
use crate::Metrics;

const EPOCH: u64 = 1;
/// The worker whose inbox the exchange probe fills.
const RECEIVER: usize = 0;

pub struct Replayed {
    pub supersteps: f64,
    /// Final `(vertex, value-bits)` records of every partition.
    pub state: Vec<Record>,
}

/// The initial placement: partition `p` lives on worker `p % WORKERS`.
fn worker_of(pid: usize) -> usize {
    pid % WORKERS
}

#[derive(Default)]
struct Wire {
    encode: Duration,
    decode: Duration,
    bytes: u64,
    msgs: u64,
    deposit: Duration,
    take_sorted: Duration,
}

impl Wire {
    /// Encode and decode one peer frame the way `ship_batch` and the peer
    /// listener do, then deposit it if it is bound for the receiver.
    fn ship(
        &mut self,
        plane: &DataPlane,
        superstep: u32,
        from: usize,
        to: usize,
        batch: &mut Vec<Msg>,
    ) -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        let frame = Message::ShuffleFrame {
            from_worker: from as u64,
            epoch: EPOCH,
            superstep,
            msgs: std::mem::take(batch),
        };
        let started = Instant::now();
        let payload = encode_to_vec(&frame);
        self.encode += started.elapsed();
        let started = Instant::now();
        let decoded = decode_exact::<Message>(&payload);
        self.decode += started.elapsed();
        if decoded.as_ref().ok() != Some(&frame) {
            return Err("a ShuffleFrame did not survive encode + decode".to_string());
        }
        let Message::ShuffleFrame { msgs, .. } = frame else { unreachable!() };
        self.bytes += 4 + payload.len() as u64;
        self.msgs += msgs.len() as u64;
        if to == RECEIVER {
            self.deposit(plane, superstep, &msgs);
        }
        Ok(())
    }

    fn deposit(&mut self, plane: &DataPlane, superstep: u32, msgs: &[Msg]) {
        let started = Instant::now();
        plane.deposit(EPOCH, superstep, msgs);
        self.deposit += started.elapsed();
    }

    /// One superstep's outbound through the wire layers, mirroring
    /// `run_direct_step`: per-peer batches ship once a partition has pushed
    /// them past `SHUFFLE_BATCH_MSGS`, the rest at the flush; self-destined
    /// messages skip the codec.
    fn superstep(
        &mut self,
        plane: &DataPlane,
        superstep: u32,
        outbound: &[Vec<Msg>],
    ) -> Result<(), String> {
        let mut expected = 0;
        for from in 0..WORKERS {
            let mut own: Vec<Msg> = Vec::new();
            let mut batches: Vec<Vec<Msg>> = vec![Vec::new(); WORKERS];
            for pid in (0..PARTITIONS).filter(|&pid| worker_of(pid) == from) {
                for &msg in &outbound[pid] {
                    let to = worker_of((msg.1 % PARTITIONS as u64) as usize);
                    if to == from {
                        own.push(msg);
                    } else {
                        batches[to].push(msg);
                    }
                    expected += usize::from(to == RECEIVER);
                }
                for (to, batch) in batches.iter_mut().enumerate() {
                    if batch.len() >= SHUFFLE_BATCH_MSGS {
                        self.ship(plane, superstep, from, to, batch)?;
                    }
                }
            }
            for (to, batch) in batches.iter_mut().enumerate() {
                self.ship(plane, superstep, from, to, batch)?;
            }
            if from == RECEIVER {
                self.deposit(plane, superstep, &own);
            }
            plane.flush(EPOCH, superstep, from as u64);
        }
        plane
            .wait_complete(superstep, Duration::from_secs(1))
            .map_err(|missing| format!("exchange slot {superstep} never completed: {missing:?}"))?;
        let started = Instant::now();
        let taken = plane.take_sorted(superstep);
        self.take_sorted += started.elapsed();
        if taken.len() != expected {
            return Err(format!("the inbox returned {} of {expected} messages", taken.len()));
        }
        Ok(())
    }
}

/// Replay `program_name` over `graph` to its fixpoint and record the
/// `program.*` and `driver.*` metrics; with `wire`, also `codec.*` and
/// `exchange.*` over the same messages.
pub fn replay(
    program_name: &str,
    graph: &Graph,
    wire: bool,
    metrics: &mut Metrics,
) -> Result<Replayed, String> {
    let program = cluster::lookup(program_name).ok_or("unknown program")?;
    let n = graph.num_vertices() as u64;
    let started = Instant::now();
    let rows = cluster::program::partition_rows(graph, PARTITIONS);
    metrics.insert("program.partition_rows_ms", Stat::single(ms_since(started)));

    let mut state: Vec<Vec<Record>> = rows.iter().map(|r| program.init_partition(r, n)).collect();
    let mut inbound: Vec<Vec<Msg>> = vec![Vec::new(); PARTITIONS];
    let plane = DataPlane::default();
    plane.install_membership(EPOCH, 0..WORKERS as u64);
    let mut probe = Wire::default();
    let (mut step_time, mut route_sort, mut msgs, mut supersteps) =
        (Duration::ZERO, Duration::ZERO, 0u64, 0u32);
    loop {
        let mut outbound: Vec<Vec<Msg>> = Vec::with_capacity(PARTITIONS);
        let mut changed = 0;
        for pid in 0..PARTITIONS {
            let started = Instant::now();
            let out =
                program.step(u64::from(supersteps), &state[pid], &inbound[pid], &rows[pid], n);
            step_time += started.elapsed();
            changed += out.changed;
            msgs += out.outbound.len() as u64;
            state[pid] = out.state;
            outbound.push(out.outbound);
        }
        if wire {
            probe.superstep(&plane, supersteps, &outbound)?;
        }
        supersteps += 1;
        if changed == 0 {
            break;
        }
        if supersteps == MAX_ITERATIONS {
            return Err(format!("the replay hit the iteration cap of {MAX_ITERATIONS}"));
        }
        let started = Instant::now();
        let mut next: Vec<Vec<Msg>> = vec![Vec::new(); PARTITIONS];
        for &msg in outbound.iter().flatten() {
            next[(msg.1 % PARTITIONS as u64) as usize].push(msg);
        }
        for part in &mut next {
            part.sort_unstable();
        }
        route_sort += started.elapsed();
        inbound = next;
    }

    let steps = f64::from(supersteps);
    let per_superstep_ms = |total: Duration| Stat::single(total.as_secs_f64() * 1e3 / steps);
    metrics.insert("program.step_ms_per_superstep", per_superstep_ms(step_time));
    metrics
        .insert("program.step_ns_per_msg", Stat::single(step_time.as_nanos() as f64 / msgs as f64));
    metrics.insert("program.msgs_per_superstep", Stat::single(msgs as f64 / steps));
    metrics.insert("program.supersteps", Stat::single(steps));
    // The last superstep's outbound is never routed, hence `steps - 1`.
    metrics.insert(
        "driver.route_sort_ms_per_superstep",
        Stat::single(route_sort.as_secs_f64() * 1e3 / (steps - 1.0).max(1.0)),
    );
    if wire {
        metrics.insert("codec.encode_ms_per_superstep", per_superstep_ms(probe.encode));
        metrics.insert("codec.decode_ms_per_superstep", per_superstep_ms(probe.decode));
        metrics.insert("codec.bytes_per_msg", Stat::single(probe.bytes as f64 / probe.msgs as f64));
        metrics.insert(
            "codec.encode_mb_per_s",
            Stat::single(probe.bytes as f64 / 1e6 / probe.encode.as_secs_f64()),
        );
        metrics.insert("exchange.deposit_ms_per_superstep", per_superstep_ms(probe.deposit));
        metrics
            .insert("exchange.take_sorted_ms_per_superstep", per_superstep_ms(probe.take_sorted));
        metrics.insert("exchange.dropped_frames", Stat::single(plane.dropped() as f64));
    }
    Ok(Replayed { supersteps: steps, state: state.into_iter().flatten().collect() })
}
