//! Named vertex programs that run identically in-process and across worker
//! processes.
//!
//! Closures cannot cross a process boundary, so the cluster backend executes
//! *named* programs: a [`ClusterProgram`] is compiled into both the
//! coordinator and the worker binary, and only its registry name travels
//! over the wire ([`crate::protocol::Message::LoadProgram`]). The coordinator
//! uses the same implementation to build the initial state and to compensate
//! lost partitions; workers use it to execute supersteps.
//!
//! Programs are deliberately Pregel-shaped — per-partition state plus
//! messages — because that is the granularity the wire protocol ships.
//!
//! A program may be *change-driven*: [`CcProgram`] sends a vertex's label
//! only in the superstep that changed it, so messages shrink with the set of
//! vertices still moving. That is exact as long as every vertex has received
//! every value its neighbours ever sent, and no longer once a partition was
//! compensated or a message was lost: a reset vertex must re-receive the
//! values of neighbours that stopped changing long ago. Hence the one rule
//! the drivers keep — **a superstep whose inbound history is not exact is a
//! full-send superstep** ([`ClusterProgram::full_send_step`]: every vertex
//! re-sends, changed or not), the message-passing form of the paper's
//! fix-components re-seeding the workset with the lost vertices and their
//! neighbours. After it every vertex has again been sent all its neighbours'
//! current values, and change-only sending is exact from there on.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use graphs::Graph;

use crate::protocol::{AdjRows, Msg, Record, Seed};

/// PageRank damping factor: [`graphs::PAGERANK_DAMPING`], under the name
/// the `benchmark/` package reads it by.
pub const PAGERANK_DAMPING: f64 = graphs::PAGERANK_DAMPING;

/// PageRank termination threshold: a vertex counts as changed while its rank
/// moves by more than this per superstep.
pub const PAGERANK_EPSILON: f64 = 1e-9;

/// The result of stepping one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutput {
    /// New partition state, in the same vertex order as the input.
    pub state: Vec<Record>,
    /// Messages for the next superstep (any destination vertex).
    pub outbound: Vec<Msg>,
    /// Number of records the program's convergence test considers changed;
    /// the iteration terminates once the global sum reaches zero.
    pub changed: u64,
}

/// Caller-owned buffers one partition's [`ClusterProgram::fold_and_send`]
/// writes into, cleared by the program with their capacity kept: a caller
/// that keeps them across supersteps stops allocating once they have grown.
#[derive(Debug, Clone)]
pub struct StepBuffers {
    /// The new partition state, in the same vertex order as the input.
    pub state: Vec<Record>,
    /// One born-sorted run per destination partition (at least one): a
    /// message to vertex `dst` goes to `runs[dst % runs.len()]`.
    pub runs: Vec<Vec<Msg>>,
    /// Fold scratch per slot: PageRank's sums, CC's labels and their sources.
    sums: Vec<f64>,
    best: Vec<u64>,
    adopted_from: Vec<u64>,
}

impl StepBuffers {
    /// Buffers routing to `runs` destination partitions, at least one.
    pub fn routing_to(runs: usize) -> Self {
        let (state, sums, best, adopted_from) = (vec![], vec![], vec![], vec![]);
        StepBuffers { state, runs: vec![vec![]; runs], sums, best, adopted_from }
    }

    /// Clear the output of `vertices` that send at most `messages`, with
    /// room for them (over several runs a little headroom over the even
    /// `v % P` share spares a regrowth), and return where a message to `dst`
    /// goes: `dst % runs`, a mask when that is a power of two.
    fn clear_for(&mut self, vertices: usize, messages: usize) -> impl Fn(u64) -> usize {
        self.state.clear();
        self.state.reserve(vertices);
        let count = self.runs.len();
        let expected = messages / count;
        let reserve = if count == 1 { messages } else { expected + expected / 8 };
        self.runs.iter_mut().for_each(|run| {
            run.clear();
            run.reserve(reserve);
        });
        let mask = count.is_power_of_two().then(|| count as u64 - 1);
        move |dst| mask.map_or_else(|| dst % count as u64, |mask| dst & mask) as usize
    }
}

/// The partitions one process steps, and the only copy of their state: per
/// partition its rows (an [`AdjRows`], moved in whole by [`Self::load`]: the
/// in-process backend's from [`partition_rows`], a worker's as decoded from
/// its `LoadProgram`), what the last committed superstep left it — its state
/// and the runs it routed — and the kept buffers the next superstep writes.
/// A superstep steps every partition from its committed side into its
/// buffers, one run per destination partition; only [`Self::commit`] swaps
/// the two, so an attempt that fails leaves what its retry steps from
/// untouched. The in-process backend holds one over every partition and
/// commits each superstep that succeeds; a worker holds one over its share
/// and [`Self::settle`]s it once the next frame names the last committed
/// superstep.
pub(crate) struct PartitionStore {
    program: Arc<dyn ClusterProgram>,
    n: u64,
    /// Runs each partition routes to: the partition count.
    runs: usize,
    /// The held partitions, ascending by pid.
    held: Vec<Held>,
    /// The chronological superstep the buffers hold, from [`Self::begin`]
    /// until it is settled.
    pending: Option<u32>,
}

struct Held {
    pid: u64,
    rows: AdjRows,
    committed: StepBuffers,
    tentative: StepBuffers,
}

/// One superstep over a [`PartitionStore`]: what every held partition steps
/// from, in pid order and shared by all — so the partitions may step in
/// parallel, each into its own buffers.
pub(crate) struct Superstep<'a> {
    program: &'a dyn ClusterProgram,
    n: u64,
    from: Vec<(&'a AdjRows, &'a StepBuffers)>,
}

impl Superstep<'_> {
    /// Step the `i`-th held partition from its committed state and `inbound`
    /// into `out`, its own buffers: [`ClusterProgram::fold_and_send`].
    pub(crate) fn step(
        &self,
        i: usize,
        step: u64,
        full: bool,
        inbound: &[&[Msg]],
        out: &mut StepBuffers,
    ) -> u64 {
        let (rows, committed) = self.from[i];
        self.program.fold_and_send(step, full, &committed.state, inbound, rows, self.n, out)
    }

    /// The non-empty runs the committed superstep routed to the `i`-th
    /// partition: its whole inbound where every partition is held here and
    /// routes to every other.
    pub(crate) fn sent_to(&self, i: usize) -> Vec<&[Msg]> {
        let runs = self.from.iter().map(|(_, committed)| committed.runs[i].as_slice());
        runs.filter(|run| !run.is_empty()).collect()
    }

    /// The records the committed sides hold, states and runs: the work.
    pub(crate) fn work(&self) -> usize {
        let held =
            |from: &StepBuffers| from.state.len() + from.runs.iter().map(Vec::len).sum::<usize>();
        self.from.iter().map(|(_, committed)| held(committed)).sum()
    }
}

impl PartitionStore {
    /// An empty store of `program` over `n` vertices whose partitions each
    /// route to `runs` runs.
    pub(crate) fn new(program: Arc<dyn ClusterProgram>, n: u64, runs: usize) -> Self {
        PartitionStore { program, n, runs, held: Vec::new(), pending: None }
    }

    /// Route to `runs` runs: a worker learns the count from its membership.
    pub(crate) fn route_to(&mut self, runs: usize) {
        self.runs = runs;
        for part in &mut self.held {
            part.committed.runs.resize_with(runs, Vec::new);
            part.tentative.runs.resize_with(runs, Vec::new);
        }
    }

    /// Hold the partitions `parts` gives the rows of: one held already keeps
    /// its committed and tentative sides, a new one starts empty, and any
    /// other is dropped.
    pub(crate) fn load(&mut self, mut parts: Vec<(u64, AdjRows)>) {
        parts.sort_unstable_by_key(|&(pid, _)| pid);
        let mut held = std::mem::take(&mut self.held).into_iter().peekable();
        for (pid, rows) in parts {
            while held.next_if(|part| part.pid < pid).is_some() {}
            let fresh = || (StepBuffers::routing_to(self.runs), StepBuffers::routing_to(self.runs));
            let (committed, tentative) = held
                .next_if(|part| part.pid == pid)
                .map_or_else(fresh, |part| (part.committed, part.tentative));
            self.held.push(Held { pid, rows, committed, tentative });
        }
    }

    /// Hold exactly the partitions `parts` names, dropping the rest, and
    /// seed each as it says: [`Seed::Committed`] keeps its committed state,
    /// any other replaces it. Fails on a partition without rows here, or one
    /// left with a committed state its rows do not align with.
    pub(crate) fn seed(&mut self, parts: Vec<(u64, Seed)>) -> io::Result<()> {
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let mut seeds: BTreeMap<u64, Seed> = parts.into_iter().collect();
        if let Some(pid) = seeds.keys().find(|&&pid| self.held.iter().all(|part| part.pid != pid)) {
            return Err(invalid(format!("partition {pid} has no rows here")));
        }
        let (program, n) = (&self.program, self.n);
        self.held.retain_mut(|Held { pid, rows, committed, .. }| {
            committed.state = match seeds.remove(pid) {
                None => return false,
                Some(Seed::Committed) => return true,
                Some(Seed::Init) => program.init_partition(rows, n),
                Some(Seed::Compensate) => program.compensate_partition(rows, n),
                Some(Seed::Pushed(records)) => records,
            };
            true
        });
        match self.held.iter().find(|part| part.committed.state.len() != part.rows.len()) {
            Some(part) => {
                Err(invalid(format!("partition {} has no committed state here", part.pid)))
            }
            None => Ok(()),
        }
    }

    /// Start chronological superstep `superstep`: what the partitions step
    /// from, and each held partition's pid and buffers, in pid order.
    pub(crate) fn begin(
        &mut self,
        superstep: u32,
    ) -> (Superstep<'_>, Vec<(u64, &mut StepBuffers)>) {
        self.pending = Some(superstep);
        let parts = self.held.iter_mut();
        let (from, outs) = parts
            .map(|part| ((&part.rows, &part.committed), (part.pid, &mut part.tentative)))
            .unzip();
        (Superstep { program: &*self.program, n: self.n, from }, outs)
    }

    /// The state the `i`-th held partition's latest superstep left.
    pub(crate) fn tentative(&self, i: usize) -> &[Record] {
        &self.held[i].tentative.state
    }

    /// Each held partition's pid and committed state, in pid order.
    pub(crate) fn committed(&self) -> impl Iterator<Item = (u64, &[Record])> {
        self.held.iter().map(|part| (part.pid, part.committed.state.as_slice()))
    }

    /// Make what the latest superstep wrote the committed sides, keeping
    /// what they held as the next superstep's buffers.
    pub(crate) fn commit(&mut self) {
        for part in &mut self.held {
            std::mem::swap(&mut part.committed, &mut part.tentative);
        }
        self.pending = None;
    }

    /// Commit the latest superstep if it is `committed`, the last committed
    /// superstep; otherwise it failed somewhere, and what it wrote is left
    /// to be overwritten.
    pub(crate) fn settle(&mut self, committed: Option<u32>) {
        if self.pending.take().is_some_and(|superstep| Some(superstep) == committed) {
            self.commit();
        }
    }
}

/// A distributed iterative vertex program.
///
/// Invariants shared by all methods:
///
/// * **Alignment** — a partition's state vector is aligned 1:1 with its
///   adjacency rows: `state[i].0 == rows.vertex(i)`.
/// * **Strided slots** — a partition holds every `P`-th vertex in ascending
///   order (`state[i].0 == state[0].0 + i * P`, the `v % P` layout
///   [`partition_rows`] produces), so the slot of a destination vertex is
///   plain arithmetic and a superstep folds its inbound into a vector
///   aligned with `state` — no per-superstep hash map.
///
/// [`Self::init_partition`] establishes both, [`Self::fold_and_send`]
/// asserts the layout once per call, and it and
/// [`Self::compensate_partition`] preserve it. [`Self::step`] and
/// [`Self::full_send_step`] are provided wrappers over that one body (one
/// merged run in, split by source class where
/// [`Self::folds_by_source_class`] says so; one run out) for tests and the
/// harness, and so is `emit`, what a restore sends; both
/// backends step through a `PartitionStore`.
///
/// Every method reads a partition's adjacency as its [`AdjRows`]: row `i`
/// is `rows.vertex(i)` and `rows.targets(i)`, the two flat arrays the
/// partition was loaded with, so a send loop walks one array of targets.
pub trait ClusterProgram: Send + Sync {
    /// Registry name, also used in telemetry (`"cc"`, `"pagerank"`).
    fn name(&self) -> &'static str;

    /// Initial state for one partition.
    fn init_partition(&self, rows: &AdjRows, n: u64) -> Vec<Record>;

    /// Rebuild a lost partition to a consistent state the algorithm keeps
    /// converging from (the paper's compensation function). Both shipped
    /// programs compensate by re-initialising — CC resets labels to vertex
    /// ids, PageRank resets ranks to the uniform distribution.
    fn compensate_partition(&self, rows: &AdjRows, n: u64) -> Vec<Record> {
        self.init_partition(rows, n)
    }

    /// The one required body, one partition's share of a superstep: write
    /// the new state to `out.state`, route what it sends into `out.runs`, and
    /// return the number of records the convergence test considers changed
    /// (the iteration terminates once the global sum reaches zero).
    ///
    /// `step` is the *logical* step index — the number of previously
    /// committed supersteps — and is `0` exactly once even across failure
    /// retries. `inbound` is born-sorted `(src, dst, bits)` runs in any
    /// order, each from one source partition: the runs the partitions
    /// routed, a worker's slot segments, or a one-run wrapper's inbox, whole
    /// or split by source class. Nothing merges them for the fold, which folds
    /// in the order its update needs: a commutative one (CC's minimum) in
    /// arrival order, a floating point one (PageRank's sums) one source
    /// class at a time — see [`PageRankProgram`] — so the result is
    /// deterministic however the runs arrive. Messages addressed to a vertex
    /// the partition does not hold are ignored. Every outbound run is born
    /// sorted — state is walked in ascending vertex order and neighbour
    /// lists are sorted and duplicate-free.
    ///
    /// With `full_send` every vertex re-sends its value, changed or not:
    /// same state and `changed`, a superset of the messages. The drivers set
    /// it on every superstep whose inbound history is not exact — the retry
    /// after a failure, the superstep after a rescale — because a
    /// change-driven program converges to a wrong fixpoint from there
    /// otherwise. What was sent is only *consumed* one superstep later, so
    /// such a superstep must not be the last even when it reports
    /// `changed == 0`; the drivers see to that as well.
    ///
    /// # Panics
    /// Panics if `state` is not in the strided-slot layout.
    #[allow(clippy::too_many_arguments)]
    fn fold_and_send(
        &self,
        step: u64,
        full_send: bool,
        state: &[Record],
        inbound: &[&[Msg]],
        rows: &AdjRows,
        n: u64,
        out: &mut StepBuffers,
    ) -> u64;

    /// Whether the fold's result may depend on which source each inbound run
    /// comes from, so the one-run wrappers ([`Self::step`],
    /// [`Self::full_send_step`]) split their inbox into one run per source
    /// class before folding it, as PageRank's float sums need. The default is
    /// `true`, which is right for every fold and costs a copy of the inbox; a
    /// program whose update commutes, like CC's minimum, returns `false` and
    /// folds the inbox as the one run it is, uncopied.
    fn folds_by_source_class(&self) -> bool {
        true
    }

    /// [`Self::fold_and_send`] from one inbound run, sorted by
    /// `(src, dst, bits)`, into one born-sorted outbound run.
    fn step(
        &self,
        step: u64,
        state: &[Record],
        inbound: &[Msg],
        rows: &AdjRows,
        n: u64,
    ) -> StepOutput {
        step_one_run(self, step, false, state, inbound, rows, n)
    }

    /// [`Self::step`] with `full_send`.
    fn full_send_step(
        &self,
        step: u64,
        state: &[Record],
        inbound: &[Msg],
        rows: &AdjRows,
        n: u64,
    ) -> StepOutput {
        step_one_run(self, step, true, state, inbound, rows, n)
    }
}

/// The one-run wrappers' body. For a program that
/// [folds by source class](ClusterProgram::folds_by_source_class), `inbound`
/// is split into one sorted run per source class `src % stride`, so its fold
/// folds what it folds from the routed runs of every source partition; any
/// other program folds `inbound` as it is.
fn step_one_run<P: ClusterProgram + ?Sized>(
    program: &P,
    step: u64,
    full_send: bool,
    state: &[Record],
    inbound: &[Msg],
    rows: &AdjRows,
    n: u64,
) -> StepOutput {
    let stride = if program.folds_by_source_class() { Slots::of(state, rows).stride } else { 1 };
    let mut classes: Vec<Vec<Msg>> = Vec::new();
    if stride > 1 {
        for from_one_source in inbound.chunk_by(|a, b| a.0 == b.0) {
            let class = (from_one_source[0].0 % stride) as usize;
            if class >= classes.len() {
                classes.resize_with(class + 1, Vec::new);
            }
            let class = &mut classes[class];
            if class.is_empty() {
                // About an even share of the inbox, so a class rarely regrows.
                class.reserve(inbound.len() / stride as usize + 1);
            }
            class.extend_from_slice(from_one_source);
        }
    }
    let runs: Vec<&[Msg]> = match stride {
        1 => vec![inbound],
        _ => classes.iter().map(Vec::as_slice).collect(),
    };
    let mut out = StepBuffers::routing_to(1);
    let changed = program.fold_and_send(step, full_send, state, &runs, rows, n, &mut out);
    StepOutput { state: out.state, outbound: out.runs.swap_remove(0), changed }
}

impl dyn ClusterProgram {
    /// The messages `state` sends, as a restore regenerates them: a cut is
    /// the state alone. Contract: whenever [`ClusterProgram::step`] returned
    /// `state`, folding what this returns gives every vertex what folding
    /// what that step sent gives it, so the superstep after the cut steps
    /// from either to the same result. Born sorted like its outbound.
    ///
    /// It is what logical step 0 sends, which folds nothing in — a worker's
    /// restore routes exactly this send (`fold_and_send(0, true, state, &[],
    /// …)`): PageRank's outbound is exactly `rank / degree` of the state it
    /// leaves, and CC's full send is a superset of what it sent with the
    /// same minimum per vertex — a vertex whose label did not change already
    /// sent it to every neighbour it could lower.
    pub fn emit(&self, state: &[Record], rows: &AdjRows, n: u64) -> Vec<Msg> {
        self.full_send_step(0, state, &[], rows, n).outbound
    }
}

/// Slot arithmetic over one partition's strided state (see
/// [`ClusterProgram`]): vertex `first + i * stride` lives in slot `i`.
struct Slots {
    first: u64,
    stride: u64,
    len: usize,
}

impl Slots {
    /// Derive the layout from `state` and assert, once per step, that every
    /// record sits in the slot the arithmetic will resolve it to.
    fn of(state: &[Record], rows: &AdjRows) -> Self {
        assert_eq!(state.len(), rows.len(), "partition state is not aligned with its rows");
        let first = state.first().map_or(0, |record| record.0);
        let stride = state.get(1).map_or(1, |record| record.0.wrapping_sub(first)).max(1);
        let slots = Slots { first, stride, len: state.len() };
        assert!(
            state.iter().enumerate().all(|(i, record)| slots.of_vertex(record.0) == Some(i)),
            "partition state is not in the strided `v % P` layout (first {first}, stride {stride})"
        );
        slots
    }

    /// The source class of a non-empty run: its first message's
    /// `src % stride`.
    fn class(&self, run: &[Msg]) -> u64 {
        run[0].0 % self.stride
    }

    /// The non-empty runs of `inbound`, grouped by source class in ascending
    /// class order, each group in its given order.
    fn by_class<'a>(&self, inbound: &[&'a [Msg]]) -> Vec<&'a [Msg]> {
        let mut runs: Vec<&[Msg]> = inbound.iter().copied().filter(|run| !run.is_empty()).collect();
        runs.sort_by_key(|run| self.class(run));
        runs
    }

    /// The slot holding vertex `v`, if this partition holds it.
    fn of_vertex(&self, v: u64) -> Option<usize> {
        let offset = v.checked_sub(self.first)?;
        let slot = (offset / self.stride) as usize;
        (offset % self.stride == 0 && slot < self.len).then_some(slot)
    }
}

/// Connected Components by change-driven min-label propagation.
///
/// State: `(v, label)` with the invariant `label <= v`: labels only ever
/// decrease, compensation resets to `label = v`, and a warm start
/// ([`crate::ClusterConfig::initial_state`]) must respect it too.
///
/// **Send rule.** A vertex sends its label only in a superstep that changed
/// it — at logical step 0 and in a full-send superstep, every vertex does —
/// and then only where the label can still matter:
///
/// * never to a neighbour `u` with `label >= u`: `u` holds `label(u) <= u`
///   already, so the message cannot lower it;
/// * outside full-send supersteps, never back to the source the new label
///   was adopted from: that source held it when it sent it, labels only
///   decrease, and a source reset since then is repaired by the full-send
///   superstep that follows every reset.
///
/// State and `changed` per superstep are those of sending everything every
/// time (the oracle of the tests below); only messages that could not have
/// changed a label are gone. Every neighbour's last-sent label has been
/// folded into each vertex, so `changed == 0` implies labels are equal
/// along every edge, i.e. the minimum vertex id of each component — even
/// after an arbitrary number of compensations, given the full-send rule of
/// the module doc.
pub struct CcProgram;

impl ClusterProgram for CcProgram {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn init_partition(&self, rows: &AdjRows, _n: u64) -> Vec<Record> {
        rows.iter().map(|(v, _)| (v, v)).collect()
    }

    fn folds_by_source_class(&self) -> bool {
        false
    }

    fn fold_and_send(
        &self,
        step: u64,
        full_send: bool,
        state: &[Record],
        inbound: &[&[Msg]],
        rows: &AdjRows,
        _n: u64,
        out: &mut StepBuffers,
    ) -> u64 {
        // No messages have flowed before the first step: everything sends.
        let full_send = full_send || step == 0;
        let slots = Slots::of(state, rows);
        // Lowest labels, and the lowest source of each label this superstep
        // lowered, folded in arrival order: the minimum is commutative, and
        // taking the lexicographic minimum of `(label, source)` makes the
        // adopted source what a merged fold adopts. A tie at the label's own
        // level only rewrites `adopted_from`, which is read only for a label
        // that changed.
        out.best.clear();
        out.best.extend(state.iter().map(|&(_, label)| label));
        out.adopted_from.resize(state.len(), 0);
        let StepBuffers { best, adopted_from, .. } = &mut *out;
        for &(src, dst, bits) in inbound.iter().copied().flatten() {
            if let Some(slot) = slots.of_vertex(dst) {
                (best[slot], adopted_from[slot]) =
                    (bits, src).min((best[slot], adopted_from[slot]));
            }
        }
        // Room for what the senders can send, from their rows' degrees.
        let sends = |slot: usize| full_send || out.best[slot] != state[slot].1;
        let senders = (0..state.len()).filter(|&slot| sends(slot));
        let route = out.clear_for(state.len(), senders.map(|slot| rows.targets(slot).len()).sum());
        let StepBuffers { state: next, runs, best, adopted_from, .. } = out;
        let mut changed = 0;
        for ((slot, &(v, label)), (_, targets)) in state.iter().enumerate().zip(rows.iter()) {
            let new = best[slot];
            debug_assert!(new <= v, "vertex {v} holds label {new}, above its own id");
            next.push((v, new));
            changed += u64::from(new != label);
            if full_send || new != label {
                let skip = (!full_send).then(|| adopted_from[slot]);
                for &u in targets {
                    if new < u && Some(u) != skip {
                        runs[route(u)].push((v, u, new));
                    }
                }
            }
        }
        if step == 0 {
            // Force at least one more superstep so neighbours see each
            // other's labels before termination.
            changed = state.len() as u64;
        }
        changed
    }
}

/// PageRank by synchronous power iteration over rank messages.
///
/// State: `(v, rank.to_bits())`. A vertex's new rank is
/// `(1 - d)/n + d * Σ inbound`, where each inbound contribution is a
/// neighbour's `rank / outdegree`. Compensation resets lost partitions to
/// the uniform `1/n` ranks (the paper's "redistribute the lost probability
/// mass uniformly"). Vertices without outgoing edges let their mass leak —
/// acceptable here because correctness is judged against a single-process
/// run of the *same* program, which leaks identically.
///
/// **Fold order.** Floating point addition is not associative, so a vertex's
/// sum needs one order however its inbound arrives: `(src % S, src)`, where
/// `S` is the partition's slot stride — `P` for a partition of two or more
/// vertices, whose class `src % P` is the source partition. The fold groups
/// its runs by the class of their first message, visits the classes in
/// ascending order and walks each class: one run as it is, several in
/// merged `(src, dst, bits)` order ([`crate::exchange::for_each_merged`]).
/// A class is one routed run — one slot segment on a worker — so no
/// superstep merges anything; a single-vertex partition (`S = 1`) has one
/// class and folds in merged order.
pub struct PageRankProgram;

impl ClusterProgram for PageRankProgram {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn init_partition(&self, rows: &AdjRows, n: u64) -> Vec<Record> {
        let uniform = (1.0 / n as f64).to_bits();
        rows.iter().map(|(v, _)| (v, uniform)).collect()
    }

    fn fold_and_send(
        &self,
        step: u64,
        _full_send: bool,
        state: &[Record],
        inbound: &[&[Msg]],
        rows: &AdjRows,
        n: u64,
        out: &mut StepBuffers,
    ) -> u64 {
        // Accumulate per destination one source class at a time, so each
        // vertex's float sum folds in `(src % stride, src)` order and the
        // result is bitwise deterministic.
        let slots = Slots::of(state, rows);
        let route = out.clear_for(state.len(), rows.edges());
        let StepBuffers { state: next, runs, sums, .. } = out;
        sums.clear();
        sums.resize(state.len(), 0.0);
        let mut add = |(_, dst, bits): Msg| {
            if let Some(slot) = slots.of_vertex(dst) {
                sums[slot] += f64::from_bits(bits);
            }
        };
        let grouped = slots.by_class(inbound);
        for class in grouped.chunk_by(|a, b| slots.class(a) == slots.class(b)) {
            match class {
                [run] => run.iter().copied().for_each(&mut add),
                _ => crate::exchange::for_each_merged(class, &mut add),
            }
        }
        let teleport = (1.0 - PAGERANK_DAMPING) / n as f64;
        let mut changed = 0;
        for ((i, &(v, bits)), (_, targets)) in state.iter().enumerate().zip(rows.iter()) {
            let old = f64::from_bits(bits);
            let new = if step == 0 {
                // First superstep: no contributions exist yet; just seed the
                // message flow from the initial ranks.
                old
            } else {
                teleport + PAGERANK_DAMPING * sums[i]
            };
            if step == 0 || (new - old).abs() > PAGERANK_EPSILON {
                changed += 1;
            }
            next.push((v, new.to_bits()));
            if !targets.is_empty() {
                let share = (new / targets.len() as f64).to_bits();
                for &u in targets {
                    runs[route(u)].push((v, u, share));
                }
            }
        }
        changed
    }
}

/// Look a program up by registry name.
pub fn lookup(name: &str) -> Option<Arc<dyn ClusterProgram>> {
    match name {
        "cc" => Some(Arc::new(CcProgram)),
        "pagerank" => Some(Arc::new(PageRankProgram)),
        _ => None,
    }
}

/// Names of all registered programs (for CLI help and validation).
pub fn program_names() -> &'static [&'static str] {
    &["cc", "pagerank"]
}

/// Partition a graph's adjacency rows over `parallelism` partitions by
/// `vertex % parallelism`.
///
/// Deliberately *not* [`dataflow::partition::hash_partition`]: the modulo
/// mapping lets the coordinator, the workers, and message routing compute a
/// vertex's partition without sharing a hasher.
pub fn partition_rows(graph: &Graph, parallelism: usize) -> Vec<AdjRows> {
    let n = graph.num_vertices() as u64;
    let vertices = |pid: usize| (pid as u64..n).step_by(parallelism);
    let part = |pid: usize| {
        let edges = vertices(pid).map(|v| graph.degree(v)).sum();
        let mut rows = AdjRows::with_capacity(partition_len(n, parallelism, pid) as usize, edges);
        vertices(pid).for_each(|v| rows.push(v, graph.neighbors(v)));
        rows
    };
    (0..parallelism).map(part).collect()
}

/// How many vertices partition `pid` holds: `pid`, `pid + parallelism`, … below `n`.
pub fn partition_len(n: u64, parallelism: usize, pid: usize) -> u64 {
    n.saturating_sub(pid as u64).div_ceil(parallelism as u64)
}

/// Every partition's rows encoded straight from `graph`, without copying a
/// row: partition `pid`'s bytes are the encoding of
/// `partition_rows(graph, parallelism)[pid]`, each row written by the
/// codec's own `AdjRows::encode_row`. Each buffer is presized on the
/// calling thread, so freeing it returns the memory to the caller's
/// allocator, and filled in one pass on a scoped thread of its own.
pub fn encode_partitions(graph: &Graph, parallelism: usize) -> Vec<Vec<u8>> {
    let n = graph.num_vertices() as u64;
    let vertices = |pid: usize| (pid as u64..n).step_by(parallelism);
    let size = |pid| {
        let edges = vertices(pid).map(|v| graph.degree(v)).sum();
        AdjRows::encoded_len(partition_len(n, parallelism, pid) as usize, edges)
    };
    let mut parts: Vec<Vec<u8>> =
        (0..parallelism).map(|pid| Vec::with_capacity(size(pid))).collect();
    std::thread::scope(|scope| {
        for (pid, out) in parts.iter_mut().enumerate() {
            scope.spawn(move || {
                out.extend_from_slice(&partition_len(n, parallelism, pid).to_le_bytes());
                for v in vertices(pid) {
                    AdjRows::encode_row(v, graph.neighbors(v), out);
                }
            });
        }
    });
    parts
}

#[cfg(test)]
/// A directed graph of `size` vertices, each with up to three out-edges
/// drawn from `seed`: the tests' shape beside the undirected generators.
pub(crate) fn directed(size: u64, seed: u64) -> Graph {
    let mut builder = graphs::GraphBuilder::directed(size as usize);
    let mut draw = seed | 1;
    for v in 0..size * 3 {
        draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        builder.add_edge(v / 3, (draw >> 33) % size);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sorted_inbound(msgs: Vec<Msg>) -> Vec<Msg> {
        crate::exchange::merge_runs(&[&msgs], 1).pop().unwrap()
    }

    /// Drive a program to convergence in-process, single partition.
    fn run_single(program: &dyn ClusterProgram, graph: &Graph, max_steps: u64) -> Vec<Record> {
        let rows = partition_rows(graph, 1).remove(0);
        let n = graph.num_vertices() as u64;
        let mut state = program.init_partition(&rows, n);
        let mut inbound: Vec<Msg> = Vec::new();
        for step in 0..max_steps {
            let out = program.step(step, &state, &sorted_inbound(inbound), &rows, n);
            state = out.state;
            inbound = out.outbound;
            if out.changed == 0 {
                break;
            }
        }
        state
    }

    #[test]
    fn cc_converges_to_min_vertex_per_component() {
        // Two components: {0,1,2} via a path, {3,4} via an edge.
        let mut b = GraphBuilder::undirected(5);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(3, 4);
        let graph = b.build();
        let state = run_single(&CcProgram, &graph, 50);
        let labels: Vec<u64> = state.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
        let exact = graphs::exact_components(&graph);
        assert_eq!(labels, exact);
    }

    #[test]
    fn cc_recovers_after_a_compensation_reset() {
        // A converged vertex has stopped sending: reset part of the state
        // mid-run, make that superstep a full-send one, and check the fixed
        // point is still the true labels. (Under `step` alone vertex 3 adopts
        // 0 from vertex 2's last message, never answers its source, and the
        // run ends at [0, 0, 2, 0].)
        let mut b = GraphBuilder::undirected(4);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let graph = b.build();
        let rows = partition_rows(&graph, 1).remove(0);
        let n = 4;
        let program = CcProgram;
        let mut state = program.init_partition(&rows, n);
        let mut inbound: Vec<Msg> = Vec::new();
        for step in 0..50 {
            let reset = step == 3;
            let out = if reset {
                // "Lose" vertices 2 and 3: reset their labels to vertex ids.
                for record in state.iter_mut() {
                    if record.0 >= 2 {
                        record.1 = record.0;
                    }
                }
                program.full_send_step(step, &state, &sorted_inbound(inbound), &rows, n)
            } else {
                program.step(step, &state, &sorted_inbound(inbound), &rows, n)
            };
            state = out.state;
            inbound = out.outbound;
            // What the full send re-sent is folded in one superstep later.
            if out.changed == 0 && !reset {
                break;
            }
        }
        assert_eq!(state.iter().map(|&(_, l)| l).collect::<Vec<_>>(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn pagerank_ranks_sum_to_one_and_match_power_iteration() {
        // Every vertex has out-links, so no mass leaks and the result is
        // directly comparable to the dense reference implementation.
        let mut b = GraphBuilder::directed(5);
        b.add_edge(0, 1).add_edge(0, 3).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 0).add_edge(3, 1).add_edge(4, 3);
        let graph = b.build();
        let state = run_single(&PageRankProgram, &graph, 500);
        let ours: Vec<f64> = state.iter().map(|&(_, bits)| f64::from_bits(bits)).collect();
        let total: f64 = ours.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "ranks should sum to 1, got {total}");
        let exact = graphs::exact_pagerank(&graph, graphs::PageRankParams::default());
        for (v, (a, b)) in ours.iter().zip(&exact).enumerate() {
            assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs reference {b}");
        }
    }

    /// The bulk CC superstep — a per-superstep map keyed by destination
    /// vertex, every vertex sending its label along every edge — kept as the
    /// oracle of the change-driven one: same state and `changed` from the
    /// same inputs, a superset of its messages, and failure-free the same
    /// number of supersteps.
    fn cc_map_fold_step(
        step: u64,
        state: &[Record],
        inbound: &[Msg],
        rows: &AdjRows,
    ) -> StepOutput {
        let mut best: BTreeMap<u64, u64> = BTreeMap::new();
        for &(_, dst, bits) in inbound {
            best.entry(dst).and_modify(|b| *b = (*b).min(bits)).or_insert(bits);
        }
        let mut out = StepOutput { state: Vec::new(), outbound: Vec::new(), changed: 0 };
        for (i, &(v, label)) in state.iter().enumerate() {
            let new = best.get(&v).map_or(label, |&b| b.min(label));
            if new != label {
                out.changed += 1;
            }
            out.state.push((v, new));
            for &u in rows.targets(i) {
                out.outbound.push((v, u, new));
            }
        }
        if step == 0 {
            out.changed = state.len() as u64;
        }
        out
    }

    /// `PageRankProgram::step` before slots were indexed, summing each
    /// vertex's contributions in `(src % parallelism, src)` order; see
    /// [`cc_map_fold_step`].
    fn pagerank_map_fold_step(
        step: u64,
        state: &[Record],
        inbound: &[Msg],
        rows: &AdjRows,
        n: u64,
        parallelism: u64,
    ) -> StepOutput {
        let mut ordered = inbound.to_vec();
        ordered.sort_by_key(|&(src, _, _)| (src % parallelism, src));
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for (_, dst, bits) in ordered {
            *sums.entry(dst).or_insert(0.0) += f64::from_bits(bits);
        }
        let teleport = (1.0 - PAGERANK_DAMPING) / n as f64;
        let mut out = StepOutput { state: Vec::new(), outbound: Vec::new(), changed: 0 };
        for (i, &(v, bits)) in state.iter().enumerate() {
            let old = f64::from_bits(bits);
            let new = if step == 0 {
                old
            } else {
                teleport + PAGERANK_DAMPING * sums.get(&v).copied().unwrap_or(0.0)
            };
            if step == 0 || (new - old).abs() > PAGERANK_EPSILON {
                out.changed += 1;
            }
            out.state.push((v, new.to_bits()));
            let targets = rows.targets(i);
            if !targets.is_empty() {
                let share = (new / targets.len() as f64).to_bits();
                for &u in targets {
                    out.outbound.push((v, u, share));
                }
            }
        }
        out
    }

    #[test]
    fn slot_indexed_fold_matches_the_map_fold_bit_for_bit() {
        let graph = graphs::generators::preferential_attachment(300, 3, 11);
        let n = graph.num_vertices() as u64;
        for name in program_names() {
            let program = lookup(name).unwrap();
            for parallelism in [1, 3, 4] {
                let rows = partition_rows(&graph, parallelism);
                let mut state: Vec<Vec<Record>> =
                    rows.iter().map(|r| program.init_partition(r, n)).collect();
                let mut inbound: Vec<Vec<Msg>> = vec![Vec::new(); parallelism];
                for step in 0..8 {
                    // A compensated partition (for P > 1, one whose first
                    // vertex is not 0) makes step 4 a full-send superstep.
                    let full_send = step == 4;
                    if full_send {
                        let lost = parallelism - 1;
                        state[lost] = program.compensate_partition(&rows[lost], n);
                    }
                    let outs: Vec<StepOutput> = (0..parallelism)
                        .map(|pid| {
                            let (state, inbound, rows) = (&state[pid], &inbound[pid], &rows[pid]);
                            let out = if full_send {
                                program.full_send_step(step, state, inbound, rows, n)
                            } else {
                                program.step(step, state, inbound, rows, n)
                            };
                            let at = format!("{name} P={parallelism} step {step} pid {pid}");
                            if *name == "cc" {
                                let oracle = cc_map_fold_step(step, state, inbound, rows);
                                assert_eq!(out.state, oracle.state, "{at}");
                                assert_eq!(out.changed, oracle.changed, "{at}");
                                assert!(out.outbound.windows(2).all(|w| w[0] < w[1]), "{at}");
                                assert!(
                                    out.outbound
                                        .iter()
                                        .all(|msg| oracle.outbound.binary_search(msg).is_ok()),
                                    "{at}: a message the bulk step would not send"
                                );
                                assert!(out.outbound.len() < oracle.outbound.len(), "{at}");
                            } else {
                                let classes = parallelism as u64;
                                let reference =
                                    pagerank_map_fold_step(step, state, inbound, rows, n, classes);
                                assert_eq!(out, reference, "{at}");
                            }
                            out
                        })
                        .collect();
                    let outbound: Vec<&[Msg]> =
                        outs.iter().map(|o| o.outbound.as_slice()).collect();
                    inbound = crate::exchange::merge_runs(&outbound, parallelism);
                    state = outs.into_iter().map(|out| out.state).collect();
                }
            }
        }
    }

    /// A CC run over `parallelism` partitions, driven the way the drivers do:
    /// `lost = (step, pid)` compensates that partition before that step and
    /// makes the step a full-send one, which is never the run's last.
    struct CcRun {
        labels: Vec<u64>,
        supersteps: u64,
        sent: Vec<Msg>,
    }

    fn drive_cc(
        graph: &Graph,
        parallelism: usize,
        lost: Option<(u64, usize)>,
        superstep: impl Fn(bool, u64, &[Record], &[Msg], &AdjRows) -> StepOutput,
    ) -> CcRun {
        let n = graph.num_vertices() as u64;
        let rows = partition_rows(graph, parallelism);
        let mut state: Vec<Vec<Record>> =
            rows.iter().map(|r| CcProgram.init_partition(r, n)).collect();
        let mut inbound: Vec<Vec<Msg>> = vec![Vec::new(); parallelism];
        let mut sent = Vec::new();
        for step in 0..1_000 {
            let full_send = lost.is_some_and(|(at, _)| at == step);
            if let Some((_, pid)) = lost.filter(|_| full_send) {
                state[pid] = CcProgram.compensate_partition(&rows[pid], n);
            }
            let outs: Vec<StepOutput> = (0..parallelism)
                .map(|pid| superstep(full_send, step, &state[pid], &inbound[pid], &rows[pid]))
                .collect();
            let changed: u64 = outs.iter().map(|out| out.changed).sum();
            let outbound: Vec<&[Msg]> = outs.iter().map(|o| o.outbound.as_slice()).collect();
            inbound = crate::exchange::merge_runs(&outbound, parallelism);
            sent.extend(outbound.concat());
            state = outs.into_iter().map(|out| out.state).collect();
            if changed == 0 && !full_send {
                let mut records = state.concat();
                records.sort_unstable();
                let labels = records.into_iter().map(|(_, label)| label).collect();
                return CcRun { labels, supersteps: step + 1, sent };
            }
        }
        panic!("CC did not converge within 1000 supersteps");
    }

    proptest! {
        #[test]
        fn change_driven_cc_reaches_the_exact_components_with_and_without_a_reset(
            shape in (0u8..3, 2usize..60, any::<u64>()),
            parallelism in 0usize..3,
            lost in (0u64..8, 0usize..4),
        ) {
            let (kind, size, seed) = shape;
            let parallelism = [1, 3, 4][parallelism];
            let graph = match kind {
                0 => graphs::generators::ring(size + 1),
                1 => graphs::generators::random_components(1 + size % 5, 1..12, 0.2, seed),
                _ => graphs::generators::preferential_attachment(size + 3, 3, seed),
            };
            let exact = graphs::exact_components(&graph);
            let change_driven = |full_send: bool, step, state: &_, inbound: &_, rows: &_| {
                if full_send {
                    CcProgram.full_send_step(step, state, inbound, rows, 0)
                } else {
                    CcProgram.step(step, state, inbound, rows, 0)
                }
            };
            let bulk = |_, step, state: &_, inbound: &_, rows: &_| {
                cc_map_fold_step(step, state, inbound, rows)
            };

            let failure_free = drive_cc(&graph, parallelism, None, change_driven);
            let oracle = drive_cc(&graph, parallelism, None, bulk);
            prop_assert_eq!(&failure_free.labels, &exact);
            prop_assert_eq!(failure_free.supersteps, oracle.supersteps);
            prop_assert!(failure_free.sent.len() <= oracle.sent.len());

            let lost = (lost.0, lost.1 % parallelism);
            let recovered = drive_cc(&graph, parallelism, Some(lost), change_driven);
            prop_assert_eq!(&recovered.labels, &exact, "lost {:?}", lost);
            for (_, dst, bits) in failure_free.sent.iter().chain(&recovered.sent) {
                prop_assert!(bits < dst, "label {} cannot lower vertex {}", bits, dst);
            }
        }
    }

    proptest! {
        #[test]
        fn stepping_from_what_a_state_emits_is_stepping_from_what_it_sent(
            shape in (0u8..3, 2usize..60, any::<u64>()),
            parallelism in 0usize..3,
            stop in 0u64..10,
        ) {
            // A failure-free run stopped after step `stop`: the superstep
            // after it folds what that step sent, or — on a restore of the
            // cut there — what the state it left emits. For CC that is a
            // superset; the fold, the labels adopted and the sources they
            // were adopted from (the send prune) must all come out the same.
            let (kind, size, seed) = shape;
            let parallelism = [1, 3, 4][parallelism];
            let graph = match kind {
                0 => graphs::generators::ring(size + 1),
                1 => graphs::generators::random_components(1 + size % 5, 1..12, 0.2, seed),
                _ => graphs::generators::preferential_attachment(size + 3, 3, seed),
            };
            let n = graph.num_vertices() as u64;
            let rows = partition_rows(&graph, parallelism);
            let merged = |runs: &[Vec<Msg>]| {
                let runs: Vec<&[Msg]> = runs.iter().map(Vec::as_slice).collect();
                crate::exchange::merge_runs(&runs, parallelism)
            };
            for name in program_names() {
                let program = lookup(name).unwrap();
                let mut state: Vec<Vec<Record>> =
                    rows.iter().map(|r| program.init_partition(r, n)).collect();
                let mut inbound: Vec<Vec<Msg>> = vec![Vec::new(); parallelism];
                for step in 0..=stop {
                    let outs: Vec<StepOutput> = (0..parallelism)
                        .map(|pid| program.step(step, &state[pid], &inbound[pid], &rows[pid], n))
                        .collect();
                    let sent: Vec<Vec<Msg>> = outs.iter().map(|out| out.outbound.clone()).collect();
                    inbound = merged(&sent);
                    state = outs.into_iter().map(|out| out.state).collect();
                }
                let emitted: Vec<Vec<Msg>> =
                    (0..parallelism).map(|pid| program.emit(&state[pid], &rows[pid], n)).collect();
                prop_assert!(emitted.iter().all(|run| run.is_sorted()), "{} born sorted", name);
                let regenerated = merged(&emitted);
                for pid in 0..parallelism {
                    let (state, rows) = (&state[pid], &rows[pid]);
                    let from_sent = program.step(stop + 1, state, &inbound[pid], rows, n);
                    let from_emitted = program.step(stop + 1, state, &regenerated[pid], rows, n);
                    prop_assert_eq!(
                        from_emitted, from_sent, "{} P={} stopped at {} pid {}", name, parallelism, stop, pid
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
        #[test]
        fn the_routed_body_is_the_pinned_step_over_the_merged_inbox(
            shape in (any::<bool>(), 4usize..80, any::<u64>()),
            parallelism in (0usize..5).prop_map(|i| [1, 3, 4, 5, 8][i]),
            lost in (1u64..8, 0usize..8),
        ) {
            // A run through the routed body over kept, double-buffered
            // runs, every superstep against the pinned wrapper over the
            // merged inbox, split by destination: change-driven supersteps,
            // and a full-send one on a compensated partition at `lost.0`.
            let (is_directed, size, seed) = shape;
            let graph = if is_directed {
                directed(size as u64, seed)
            } else {
                graphs::generators::preferential_attachment(size, 3, seed)
            };
            let n = graph.num_vertices() as u64;
            let rows = partition_rows(&graph, parallelism);
            let to = |d: usize| move |msg: &Msg| msg.1 % parallelism as u64 == d as u64;
            for name in program_names() {
                let program = lookup(name).unwrap();
                let mut state: Vec<Vec<Record>> =
                    rows.iter().map(|r| program.init_partition(r, n)).collect();
                let mut sent = vec![vec![Vec::new(); parallelism]; parallelism];
                let mut kept = vec![StepBuffers::routing_to(parallelism); parallelism];
                for step in 0..12 {
                    let full_send = step == lost.0;
                    if full_send {
                        let pid = lost.1 % parallelism;
                        state[pid] = program.compensate_partition(&rows[pid], n);
                    }
                    for (q, out) in kept.iter_mut().enumerate() {
                        let runs: Vec<&[Msg]> = sent.iter().map(|row| row[q].as_slice()).collect();
                        let (state, rows) = (&state[q], &rows[q]);
                        let changed = program.fold_and_send(step, full_send, state, &runs, rows, n, out);
                        let inbox = crate::exchange::merge_runs(&runs, 1).pop().unwrap();
                        let pinned = if full_send {
                            program.full_send_step(step, state, &inbox, rows, n)
                        } else {
                            program.step(step, state, &inbox, rows, n)
                        };
                        let at = format!("{name} P={parallelism} step {step} pid {q}");
                        prop_assert_eq!(&out.state, &pinned.state, "{}", at);
                        prop_assert_eq!(changed, pinned.changed, "{}", at);
                        let split: Vec<Vec<Msg>> = (0..parallelism)
                            .map(|d| pinned.outbound.iter().copied().filter(to(d)).collect())
                            .collect();
                        prop_assert_eq!(&out.runs, &split, "{}", at);
                    }
                    for (q, out) in kept.iter_mut().enumerate() {
                        state[q] = std::mem::take(&mut out.state);
                        std::mem::swap(&mut sent[q], &mut out.runs);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
        #[test]
        fn cc_folds_its_runs_in_any_order_and_cut_anywhere_as_the_merged_inbox(
            shape in (any::<bool>(), 4usize..80, any::<u64>()),
            parallelism in (0usize..5).prop_map(|i| [1, 3, 4, 5, 8][i]),
            lost in (1u64..8, 0usize..8),
            seed in any::<u64>(),
        ) {
            // Every superstep, each partition's routed runs are cut at
            // arbitrary points and the pieces folded in a shuffled order:
            // state, `changed` and every run routed equal the pinned wrapper
            // over the merged inbox — the lowest label, adopted from the
            // lowest source that sent it, whatever arrived first.
            let (is_directed, size, graph_seed) = shape;
            let graph = if is_directed {
                directed(size as u64, graph_seed)
            } else {
                graphs::generators::preferential_attachment(size, 3, graph_seed)
            };
            let n = graph.num_vertices() as u64;
            let rows = partition_rows(&graph, parallelism);
            let to = |d: usize| move |msg: &&Msg| msg.1 % parallelism as u64 == d as u64;
            let mut draw = seed | 1;
            let mut below = move |bound: usize| {
                draw ^= draw << 13;
                draw ^= draw >> 7;
                draw ^= draw << 17;
                (draw % bound.max(1) as u64) as usize
            };
            let mut state: Vec<Vec<Record>> =
                rows.iter().map(|r| CcProgram.init_partition(r, n)).collect();
            let mut sent: Vec<Vec<Msg>> = vec![Vec::new(); parallelism];
            for step in 0..12 {
                let full_send = step == lost.0;
                if full_send {
                    let pid = lost.1 % parallelism;
                    state[pid] = CcProgram.compensate_partition(&rows[pid], n);
                }
                let mut pinned_out = Vec::new();
                for q in 0..parallelism {
                    let routed: Vec<Vec<Msg>> =
                        sent.iter().map(|run| run.iter().filter(to(q)).copied().collect()).collect();
                    let mut pieces: Vec<&[Msg]> = Vec::new();
                    for run in &routed {
                        let mut cuts: Vec<usize> = (0..below(4)).map(|_| below(run.len() + 1)).collect();
                        cuts.extend([0, run.len()]);
                        cuts.sort_unstable();
                        pieces.extend(cuts.windows(2).map(|cut| &run[cut[0]..cut[1]]));
                    }
                    for i in (1..pieces.len()).rev() {
                        pieces.swap(i, below(i + 1));
                    }
                    let (state, rows) = (&state[q], &rows[q]);
                    let mut out = StepBuffers::routing_to(parallelism);
                    let changed = CcProgram.fold_and_send(step, full_send, state, &pieces, rows, n, &mut out);
                    let runs: Vec<&[Msg]> = routed.iter().map(Vec::as_slice).collect();
                    let inbox = crate::exchange::merge_runs(&runs, 1).pop().unwrap();
                    let pinned = if full_send {
                        CcProgram.full_send_step(step, state, &inbox, rows, n)
                    } else {
                        CcProgram.step(step, state, &inbox, rows, n)
                    };
                    let at = format!("P={parallelism} step {step} pid {q}");
                    prop_assert_eq!(&out.state, &pinned.state, "{}", at);
                    prop_assert_eq!(changed, pinned.changed, "{}", at);
                    let split: Vec<Vec<Msg>> = (0..parallelism)
                        .map(|d| pinned.outbound.iter().filter(to(d)).copied().collect())
                        .collect();
                    prop_assert_eq!(&out.runs, &split, "{}", at);
                    pinned_out.push(pinned);
                }
                for (q, pinned) in pinned_out.into_iter().enumerate() {
                    state[q] = pinned.state;
                    sent[q] = pinned.outbound;
                }
            }
        }
    }

    #[test]
    fn outbound_is_born_sorted() {
        let graph = graphs::generators::preferential_attachment(200, 3, 5);
        let rows = partition_rows(&graph, 3);
        for name in program_names() {
            let program = lookup(name).unwrap();
            for part in &rows {
                let state = program.init_partition(part, 200);
                let out = program.step(0, &state, &[], part, 200);
                assert!(out.outbound.windows(2).all(|w| w[0] <= w[1]), "{name}");
            }
        }
    }

    #[test]
    fn messages_to_vertices_outside_the_partition_are_ignored() {
        // Partition 1 of 3 over a 7-ring holds vertices 1 and 4.
        let graph = graphs::generators::ring(7);
        let rows = partition_rows(&graph, 3).remove(1);
        let state = CcProgram.init_partition(&rows, 7);
        let stray = [(9, 0, 0), (9, 2, 0), (9, 3, 0), (9, 7, 0), (9, 10, 0)];
        let out = CcProgram.step(1, &state, &stray, &rows, 7);
        assert_eq!(out.state, state);
    }

    #[test]
    fn partition_rows_are_the_nested_rows_of_the_graph_row_by_row() {
        // The construction the flat rows replaced: the graph's rows copied
        // one `Vec` each, dealt out by `v % P`.
        let graphs = [
            graphs::generators::preferential_attachment(90, 3, 4),
            directed(70, 9),
            graphs::generators::erdos_renyi(50, 0.02, 3),
            GraphBuilder::undirected(0).build(),
            GraphBuilder::directed(5).build(),
        ];
        for graph in &graphs {
            for parallelism in [1, 3, 4, 8] {
                let mut nested: Vec<Vec<(u64, Vec<u64>)>> = vec![Vec::new(); parallelism];
                for (v, targets) in graph.adjacency_rows() {
                    nested[v as usize % parallelism].push((v, targets));
                }
                let flat = partition_rows(graph, parallelism);
                assert_eq!(flat.len(), parallelism);
                for (pid, (flat, nested)) in flat.iter().zip(&nested).enumerate() {
                    assert_eq!(flat.len(), nested.len(), "P={parallelism} pid={pid}");
                    assert_eq!(flat.edges(), nested.iter().map(|row| row.1.len()).sum::<usize>());
                    for (i, (v, targets)) in nested.iter().enumerate() {
                        assert_eq!((flat.vertex(i), flat.targets(i)), (*v, &targets[..]));
                    }
                    assert!(flat.iter().eq(nested.iter().map(|(v, t)| (*v, t.as_slice()))));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strided")]
    fn a_state_that_is_not_strided_is_a_bug() {
        let rows: AdjRows = [0, 2, 5].map(|v| (v, [])).into_iter().collect();
        CcProgram.step(0, &CcProgram.init_partition(&rows, 6), &[], &rows, 6);
    }

    #[test]
    fn first_step_never_terminates() {
        let graph = GraphBuilder::undirected(2).build();
        for name in program_names() {
            let program = lookup(name).unwrap();
            let rows = partition_rows(&graph, 1).remove(0);
            let state = program.init_partition(&rows, 2);
            let out = program.step(0, &state, &[], &rows, 2);
            assert!(out.changed > 0, "{name}: step 0 must force a second superstep");
        }
    }

    #[test]
    fn partitioning_is_modulo_and_loss_free() {
        let graph = graphs::generators::ring(10);
        let parts = partition_rows(&graph, 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 10);
        for (pid, rows) in parts.iter().enumerate() {
            for (v, _) in rows.iter() {
                assert_eq!(v as usize % 3, pid);
            }
        }
    }

    #[test]
    fn lookup_knows_exactly_the_registered_names() {
        assert!(lookup("cc").is_some());
        assert!(lookup("pagerank").is_some());
        assert!(lookup("nope").is_none());
        for name in program_names() {
            assert_eq!(lookup(name).unwrap().name(), *name);
        }
    }

    #[test]
    fn compensation_equals_reinitialisation_for_shipped_programs() {
        let graph = graphs::generators::ring(6);
        let rows = partition_rows(&graph, 2);
        for name in program_names() {
            let program = lookup(name).unwrap();
            assert_eq!(
                program.compensate_partition(&rows[1], 6),
                program.init_partition(&rows[1], 6),
            );
        }
    }

    /// CC whose compensation sets every label to 0, so a compensated
    /// partition is told apart from an initialised one.
    struct ZeroCompensation;

    impl ClusterProgram for ZeroCompensation {
        fn name(&self) -> &'static str {
            "cc"
        }

        fn init_partition(&self, rows: &AdjRows, n: u64) -> Vec<Record> {
            CcProgram.init_partition(rows, n)
        }

        fn compensate_partition(&self, rows: &AdjRows, _n: u64) -> Vec<Record> {
            rows.iter().map(|(v, _)| (v, 0)).collect()
        }

        #[allow(clippy::too_many_arguments)]
        fn fold_and_send(
            &self,
            step: u64,
            full_send: bool,
            state: &[Record],
            inbound: &[&[Msg]],
            rows: &AdjRows,
            n: u64,
            out: &mut StepBuffers,
        ) -> u64 {
            CcProgram.fold_and_send(step, full_send, state, inbound, rows, n, out)
        }
    }

    /// A store of `program` over the 40-vertex test graph's partitions
    /// `pids` of four, routing to one run.
    fn store_of(program: Arc<dyn ClusterProgram>, pids: &[u64]) -> PartitionStore {
        let mut store = PartitionStore::new(program, 40, 1);
        store.load(held_rows(pids));
        store
    }

    fn held_rows(pids: &[u64]) -> Vec<(u64, AdjRows)> {
        let rows = partition_rows(&graphs::generators::preferential_attachment(40, 3, 5), 4);
        pids.iter().map(|&pid| (pid, rows[pid as usize].clone())).collect()
    }

    /// Arbitrary records aligned with partition `pid`'s rows.
    fn records_of(pid: u64, salt: u64) -> Vec<Record> {
        let rows = &held_rows(&[pid])[0].1;
        rows.iter().map(|(v, _)| (v, (v ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect()
    }

    fn committed_of(store: &PartitionStore) -> Vec<(u64, Vec<Record>)> {
        store.committed().map(|(pid, state)| (pid, state.to_vec())).collect()
    }

    /// Step every held partition of `store` as PageRank's logical step 1
    /// from an empty inbound, as chronological superstep `superstep`.
    fn step_all(store: &mut PartitionStore, superstep: u32) {
        let (from, outs) = store.begin(superstep);
        for (i, (_, out)) in outs.into_iter().enumerate() {
            from.step(i, 1, false, &[], out);
        }
    }

    #[test]
    fn a_store_seeds_each_partition_as_its_seed_says() {
        let program: Arc<dyn ClusterProgram> = Arc::new(ZeroCompensation);
        let mut store = store_of(program.clone(), &[0, 1, 2, 3]);
        let init = |pid: u64| program.init_partition(&held_rows(&[pid])[0].1, 40);
        let zeroed = |pid: u64| program.compensate_partition(&held_rows(&[pid])[0].1, 40);
        assert_ne!(init(1), zeroed(1));
        let pushed = |pid: u64| Seed::Pushed(records_of(pid, 1));
        store
            .seed(vec![(0, pushed(0)), (1, Seed::Init), (2, Seed::Init), (3, Seed::Init)])
            .unwrap();
        let seeds = vec![(0, Seed::Committed), (1, Seed::Compensate), (3, Seed::Init)];
        store.seed(seeds).unwrap();
        // Partition 2 is not named: it is dropped with its rows.
        assert_eq!(committed_of(&store), [(0, records_of(0, 1)), (1, zeroed(1)), (3, init(3))]);
        let err = store.seed(vec![(2, Seed::Init)]).unwrap_err();
        assert!(err.to_string().contains("partition 2 has no rows here"), "{err}");
        // Records that do not cover a partition's rows leave it no state.
        let short = Seed::Pushed(records_of(1, 2)[1..].to_vec());
        let err = store.seed(vec![(0, Seed::Committed), (1, short)]).unwrap_err();
        assert!(err.to_string().contains("partition 1 has no committed state"), "{err}");
    }

    #[test]
    fn settling_commits_only_the_superstep_it_names() {
        let mut store = store_of(lookup("pagerank").unwrap(), &[0, 1, 2]);
        let pushed = |pid: u64| (pid, Seed::Pushed(records_of(pid, 3)));
        store.seed(vec![pushed(0), pushed(1), pushed(2)]).unwrap();
        let before = committed_of(&store);
        // Superstep 5 steps; a frame naming 4, or no superstep, as the last
        // committed one drops it, and nothing is left to settle after that.
        for named in [Some(4), None] {
            step_all(&mut store, 5);
            let stepped: Vec<Vec<Record>> = (0..3).map(|i| store.tentative(i).to_vec()).collect();
            assert!(stepped.iter().zip(&before).all(|(new, (_, old))| new != old));
            store.settle(named);
            assert_eq!(committed_of(&store), before, "{named:?}");
            store.settle(Some(5));
            assert_eq!(committed_of(&store), before, "{named:?}");
        }
        step_all(&mut store, 6);
        let stepped: Vec<Vec<Record>> = (0..3).map(|i| store.tentative(i).to_vec()).collect();
        store.settle(Some(6));
        let committed: Vec<Vec<Record>> = committed_of(&store).into_iter().map(|c| c.1).collect();
        assert_eq!(committed, stepped);
    }

    #[test]
    fn a_reload_keeps_what_it_retains_bitwise_and_drops_the_rest() {
        // Committed state pushed, tentative state stepped and not yet
        // settled: a reload to a subset, then to a superset, keeps both
        // sides of partitions 0 and 2, and the pending superstep with them.
        let mut store = store_of(lookup("pagerank").unwrap(), &[0, 1, 2]);
        let pushed = |pid: u64| (pid, Seed::Pushed(records_of(pid, 4)));
        store.seed(vec![pushed(0), pushed(1), pushed(2)]).unwrap();
        step_all(&mut store, 7);
        let sides = |store: &PartitionStore| -> Vec<(u64, Vec<Record>, Vec<Record>)> {
            let committed = committed_of(store).into_iter().enumerate();
            committed.map(|(i, (pid, c))| (pid, c, store.tentative(i).to_vec())).collect()
        };
        let before = sides(&store);
        store.load(held_rows(&[2, 0]));
        assert_eq!(sides(&store), [before[0].clone(), before[2].clone()]);
        store.load(held_rows(&[0, 1, 2, 3]));
        let empty = |pid| (pid, vec![], vec![]);
        assert_eq!(sides(&store), [before[0].clone(), empty(1), before[2].clone(), empty(3)]);
        store.settle(Some(7));
        let committed: Vec<Vec<Record>> = committed_of(&store).into_iter().map(|c| c.1).collect();
        assert_eq!(committed, [before[0].2.clone(), vec![], before[2].2.clone(), vec![]]);
    }
}
