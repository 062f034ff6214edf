//! Worker-side data-plane inbox: collects peer
//! [`ShuffleFrame`](crate::protocol::Message::ShuffleFrame)s per
//! chronological superstep and tracks flush completeness.
//!
//! One [`DataPlane`] lives per worker process, shared between the control
//! connection (which installs membership and waits for slot completeness
//! before computing) and the peer listener threads (which deposit frames).
//! Slots are keyed by the chronological superstep that *produced* the
//! messages; the consuming [`crate::protocol::Message::StepGo`] names the
//! slot explicitly, so output of failed attempts is never consumed — it is
//! simply never named and is garbage-collected once a later slot is.
//!
//! A slot keeps what lands as born-sorted segments, each from one source
//! partition to one destination: an own run is one and is moved in whole, a
//! peer frame is cut where it lands, without a copy. Each partition folds
//! its segments ([`Segments::to`], ordered by source partition) as its
//! program's update needs — CC in arrival order, PageRank one source
//! partition at a time, merging only segments of one source partition
//! ([`for_each_merged`]); no inbox is built ([`DataPlane::take`]).
//!
//! Epoch filtering is the data-plane half of the "declared dead" protocol
//! (the coordinator's superstep-echo skip is the control-plane half): every
//! peer frame carries the producer's membership epoch, and the inbox drops
//! frames from any epoch other than the current one. A straggler that the
//! coordinator already replaced can therefore not double-deliver into a
//! survivor's inbox, no matter how late its frames surface.
//!
//! A slot also remembers the epoch it was filled under, and the first
//! deposit or flush of a newer epoch finds it empty. That is what lets a
//! restore regenerate its messages into the slot of the previous
//! chronological superstep ([`crate::protocol::Inbound::Regenerate`]): such
//! a dispatch always follows a respawn or a rescale, which bump the epoch,
//! so neither a failed attempt's leftovers nor the old placement's run can
//! mix into what is regenerated.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::Msg;

/// Sort the concatenation of `chunks` into canonical `(src, dst, bits)`
/// order and route the result into per-partition inboxes by
/// `dst % parallelism`: [`DataPlane::take_sorted`] with one partition, and
/// the oracle of [`for_each_merged`] and of a slot's segments.
///
/// Every partition's outbound is born sorted (see DESIGN.md, "Step
/// assembly"), so the input is a handful of long ascending runs: they are
/// detected in one scan and merged four at a time, `O(n log runs)` — a
/// single pass when runs are few. Arbitrary input only means more runs; each
/// inbox always holds what `sort_unstable` would produce, since equal `Msg`s
/// are identical.
pub fn merge_runs(chunks: &[&[Msg]], parallelism: usize) -> Vec<Vec<Msg>> {
    let pid_of = |msg: &Msg| match parallelism {
        1 => 0,
        _ => (msg.1 % parallelism as u64) as usize,
    };
    // One scan finds the runs and sizes the inboxes, so each is allocated
    // once: regrowing a multi-megabyte vector costs more than the merge.
    let mut runs: Vec<&[Msg]> = Vec::new();
    let mut sizes = vec![0usize; parallelism];
    for chunk in chunks {
        let mut start = 0;
        for (i, msg) in chunk.iter().enumerate() {
            sizes[pid_of(msg)] += 1;
            if i > start && *msg < chunk[i - 1] {
                runs.push(&chunk[start..i]);
                start = i;
            }
        }
        if start < chunk.len() {
            runs.push(&chunk[start..]);
        }
    }
    // More than four runs: merge them down four at a time, ping-ponging
    // between two scratch buffers, until one four-way pass is left.
    let total: usize = sizes.iter().sum();
    let (mut merged, mut spare): (Vec<Msg>, Vec<Msg>) = (Vec::new(), Vec::new());
    while runs.len() > 4 {
        spare.clear();
        spare.reserve(total);
        let ends: Vec<usize> = runs
            .chunks(4)
            .map(|quad| {
                spare.extend(merge4(quad));
                spare.len()
            })
            .collect();
        std::mem::swap(&mut merged, &mut spare);
        let mut start = 0;
        runs = ends.iter().map(|&end| &merged[std::mem::replace(&mut start, end)..end]).collect();
    }
    let mut inboxes: Vec<Vec<Msg>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for msg in merge4(&runs) {
        inboxes[pid_of(&msg)].push(msg);
    }
    inboxes
}

/// Visit the messages of born-sorted `runs` in canonical `(src, dst, bits)`
/// order — the order [`merge_runs`] would put them in — without building
/// the merged vector: one run is a plain slice walk, up to four are a
/// `Merge2` tree. More runs than that fall back to [`merge_runs`].
pub fn for_each_merged(runs: &[&[Msg]], visit: impl FnMut(Msg)) {
    match runs {
        [] => {}
        [run] => run.iter().copied().for_each(visit),
        _ if runs.len() <= 4 => merge4(runs).for_each(visit),
        _ => merge_runs(runs, 1).iter().flatten().copied().for_each(visit),
    }
}

/// The ascending merge of up to four ascending runs.
fn merge4<'a>(runs: &[&'a [Msg]]) -> impl Iterator<Item = Msg> + 'a {
    let run = |i: usize| runs.get(i).copied().unwrap_or_default().iter().copied();
    Merge2::of(Merge2::of(run(0), run(1)), Merge2::of(run(2), run(3)))
}

/// The ascending merge of two ascending streams, each head held by value.
struct Merge2<A: Iterator<Item = Msg>, B: Iterator<Item = Msg>> {
    left: A,
    right: B,
    head: (Option<Msg>, Option<Msg>),
}

impl<A: Iterator<Item = Msg>, B: Iterator<Item = Msg>> Merge2<A, B> {
    fn of(mut left: A, mut right: B) -> Self {
        let head = (left.next(), right.next());
        Merge2 { left, right, head }
    }
}

impl<A: Iterator<Item = Msg>, B: Iterator<Item = Msg>> Iterator for Merge2<A, B> {
    type Item = Msg;

    fn next(&mut self) -> Option<Msg> {
        let take_right = match &self.head {
            (Some(l), Some(r)) => r < l,
            (left, _) => left.is_none(),
        };
        if take_right {
            std::mem::replace(&mut self.head.1, self.right.next())
        } else {
            std::mem::replace(&mut self.head.0, self.left.next())
        }
    }
}

/// A born-sorted stretch of a deposited run, all for one partition.
type Segment = (Arc<Vec<Msg>>, Range<usize>);

/// Cut `run` where its destination (`dst % partitions`) or its source
/// partition (`src % partitions`) changes, or the order descends: its
/// born-sorted segments, each from one source partition to one destination,
/// and their destination pids.
fn cut(run: &[Msg], partitions: usize) -> Vec<(usize, Range<usize>)> {
    let mask = partitions.is_power_of_two().then(|| partitions as u64 - 1);
    let pid_of = |v: u64| mask.map_or_else(|| v % partitions as u64, |m| v & m) as usize;
    let (mut segments, mut start) = (Vec::new(), 0);
    for (end, pair) in (1..).zip(run.windows(2)) {
        let [(src, dst, _), (next_src, next_dst, _)] = [pair[0], pair[1]];
        if pid_of(next_dst) != pid_of(dst) || pid_of(next_src) != pid_of(src) || pair[1] < pair[0] {
            segments.push((pid_of(dst), std::mem::replace(&mut start, end)..end));
        }
    }
    segments.extend(run.last().map(|last| (pid_of(last.1), start..run.len())));
    segments
}

/// One superstep's worth of collected messages.
#[derive(Debug, Default)]
struct Slot {
    /// The membership epoch the slot was filled under.
    epoch: u64,
    /// Deposited segments and their pids, each a range of a decoded frame or
    /// an own run moved in, shared so a consumer folds outside the lock.
    segments: Vec<(usize, Segment)>,
    /// Members whose [`crate::protocol::Message::ShuffleFlush`] arrived.
    flushed: BTreeSet<u64>,
}

/// The inbox state proper; wrapped in a mutex inside [`DataPlane`].
#[derive(Debug, Default)]
struct Inbox {
    /// Current membership epoch; frames from any other epoch are dropped.
    epoch: u64,
    /// Current members (including this worker) — a slot is complete once
    /// every member has flushed it.
    members: BTreeSet<u64>,
    /// Destination partitions a deposit is cut for; zero counts as one.
    partitions: usize,
    /// Per-superstep slots. Retained until GC'd by a later consume.
    slots: BTreeMap<u32, Slot>,
    /// Supersteps below this have been garbage-collected; late frames for
    /// them are dropped without creating a new slot.
    floor: u32,
    /// Members whose incoming peer connection dropped under the current
    /// epoch. A slot missing a gone member's flush can never complete, so
    /// waiters fail fast instead of burning the full data timeout.
    gone: BTreeSet<u64>,
    /// Count of dropped stale frames (wrong epoch or below the GC floor),
    /// for tests and logs.
    dropped: u64,
}

impl Inbox {
    /// `superstep`'s slot, for a deposit or flush of the current epoch: one
    /// filled under an older epoch starts over empty.
    fn filling(&mut self, superstep: u32) -> &mut Slot {
        let epoch = self.epoch;
        let slot = self.slots.entry(superstep).or_default();
        if slot.epoch != epoch {
            *slot = Slot { epoch, ..Slot::default() };
        }
        slot
    }

    fn slot_complete(&self, superstep: u32) -> bool {
        self.slots
            .get(&superstep)
            .is_some_and(|slot| self.members.iter().all(|m| slot.flushed.contains(m)))
    }
}

/// The worker's shared data-plane inbox: a mutex-protected inbox state plus
/// a condvar so the compute path can block until a slot is complete.
///
/// Uses `std::sync` rather than the vendored `parking_lot` stand-in because
/// the latter deliberately ships no `Condvar`.
#[derive(Debug, Default)]
pub struct DataPlane {
    inbox: Mutex<Inbox>,
    complete: Condvar,
}

// The `unwrap`s below are all on the inbox lock (and the condvar that hands
// it back): a poisoned lock means a connection thread panicked while holding
// the inbox, and passing that panic on is the one thing left to do with it.
#[allow(clippy::unwrap_used)]
impl DataPlane {
    /// Install a new membership epoch. Existing slots are *retained*: data
    /// legitimately deposited under the old epoch (in particular the
    /// last-committed superstep's slot, which optimistic recovery re-reads
    /// on survivors) stays consumable until the new epoch deposits into or
    /// flushes that slot, while frames still in flight from the old epoch
    /// are rejected at arrival time by the epoch check.
    pub fn install_membership(&self, epoch: u64, members: impl IntoIterator<Item = u64>) {
        self.install_placement(epoch, members, 1);
    }

    /// [`Self::install_membership`], cutting deposits for `partitions`.
    pub fn install_placement(
        &self,
        epoch: u64,
        members: impl IntoIterator<Item = u64>,
        partitions: usize,
    ) {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.epoch = epoch;
        inbox.members = members.into_iter().collect();
        inbox.partitions = partitions;
        inbox.gone.clear();
        drop(inbox);
        self.complete.notify_all();
    }

    /// Record that `peer`'s incoming connection dropped while `epoch` was
    /// current. Ignored if the membership has moved on (the old incarnation's
    /// socket closing after a respawn is expected, not news). Wakes waiters
    /// so they can fail fast on slots the dead peer never flushed.
    pub fn peer_gone(&self, epoch: u64, peer: u64) {
        let mut inbox = self.inbox.lock().unwrap();
        if epoch != inbox.epoch {
            return;
        }
        inbox.gone.insert(peer);
        drop(inbox);
        self.complete.notify_all();
    }

    /// Deposit one peer frame's messages into `superstep`'s slot: the vector
    /// is moved in, not copied, and cut into its single-destination segments
    /// outside the inbox lock. Frames from a stale epoch or below the GC
    /// floor are dropped (counted, not stored) — the double-delivery guard.
    pub fn deposit_run(&self, epoch: u64, superstep: u32, run: Vec<Msg>) {
        let partitions = self.inbox.lock().unwrap().partitions.max(1);
        let run = Arc::new(run);
        let cuts = cut(&run, partitions).into_iter();
        self.fill(epoch, superstep, cuts.map(|(pid, range)| (pid, (run.clone(), range))));
    }

    /// [`Self::deposit_run`] for a caller that keeps its messages.
    pub fn deposit(&self, epoch: u64, superstep: u32, msgs: &[Msg]) {
        self.deposit_run(epoch, superstep, msgs.to_vec());
    }

    /// Deposit a born-sorted run whose messages all go to partition `pid`
    /// into `superstep`'s slot as one segment, moved in whole: a worker's
    /// own run. Stale like [`Self::deposit_run`].
    pub fn deposit_to(&self, epoch: u64, superstep: u32, pid: usize, run: Vec<Msg>) {
        debug_assert!(run.is_sorted(), "a run deposited whole is born sorted");
        let len = run.len();
        self.fill(epoch, superstep, (len > 0).then(|| (pid, (Arc::new(run), 0..len))));
    }

    /// Add `segments` to `superstep`'s slot, or drop them if stale.
    fn fill(
        &self,
        epoch: u64,
        superstep: u32,
        segments: impl IntoIterator<Item = (usize, Segment)>,
    ) {
        let mut inbox = self.inbox.lock().unwrap();
        if epoch != inbox.epoch || superstep < inbox.floor {
            inbox.dropped += 1;
            return;
        }
        inbox.filling(superstep).segments.extend(segments);
    }

    /// Record a member's end-of-superstep flush. Stale-epoch / below-floor
    /// flushes are dropped like frames. Wakes any waiter when the slot
    /// becomes complete.
    pub fn flush(&self, epoch: u64, superstep: u32, from_worker: u64) {
        let mut inbox = self.inbox.lock().unwrap();
        if epoch != inbox.epoch || superstep < inbox.floor {
            inbox.dropped += 1;
            return;
        }
        inbox.filling(superstep).flushed.insert(from_worker);
        let done = inbox.slot_complete(superstep);
        drop(inbox);
        if done {
            self.complete.notify_all();
        }
    }

    /// Block until `superstep`'s slot is complete (every current member
    /// flushed) or `timeout` elapses. Fails immediately — without waiting
    /// out the timeout — if a member whose flush is still missing has
    /// dropped its peer connection, since that slot can never complete.
    /// On failure returns the members whose flush is missing, for
    /// [`crate::protocol::Message::StepFailed`].
    pub fn wait_complete(&self, superstep: u32, timeout: Duration) -> Result<(), Vec<u64>> {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.inbox.lock().unwrap();
        loop {
            if inbox.slot_complete(superstep) {
                return Ok(());
            }
            let flushed =
                inbox.slots.get(&superstep).map(|slot| slot.flushed.clone()).unwrap_or_default();
            let missing: Vec<u64> =
                inbox.members.iter().copied().filter(|m| !flushed.contains(m)).collect();
            let now = Instant::now();
            if now >= deadline || missing.iter().any(|m| inbox.gone.contains(m)) {
                return Err(missing);
            }
            let (guard, _) = self.complete.wait_timeout(inbox, deadline - now).unwrap();
            inbox = guard;
        }
    }

    /// Take `superstep`'s collected messages as each destination partition's
    /// segments and garbage-collect every *older* slot. The inbox lock is
    /// held only to take handles on the slot's segments, so a peer thread
    /// depositing the *next* superstep's frames never waits on a fold. The
    /// consumed slot itself is retained intact so a post-failure retry under
    /// optimistic recovery can re-consume it.
    pub fn take(&self, superstep: u32) -> Segments {
        let (segments, collected, partitions) = {
            let mut inbox = self.inbox.lock().unwrap();
            inbox.floor = superstep;
            let kept = inbox.slots.split_off(&superstep);
            let collected = std::mem::replace(&mut inbox.slots, kept);
            let segments =
                inbox.slots.get(&superstep).map(|slot| slot.segments.clone()).unwrap_or_default();
            (segments, collected, inbox.partitions.max(1))
        };
        // Megabytes of older runs are freed here, not under the lock.
        drop(collected);
        Segments { segments, partitions }
    }

    /// [`Self::take`], merged: the whole slot in canonical `(src, dst, bits)`
    /// order.
    pub fn take_sorted(&self, superstep: u32) -> Vec<Msg> {
        let taken = self.take(superstep);
        let runs: Vec<&[Msg]> =
            taken.segments.iter().map(|(_, (run, range))| &run[range.clone()]).collect();
        merge_runs(&runs, 1).pop().unwrap_or_default()
    }

    /// Current membership epoch (what outgoing frames must be tagged with).
    pub fn epoch(&self) -> u64 {
        self.inbox.lock().unwrap().epoch
    }

    /// Count of frames/flushes dropped as stale (tests, logs).
    pub fn dropped(&self) -> u64 {
        self.inbox.lock().unwrap().dropped
    }
}

/// A taken slot: its segments, each with its destination partition, and the
/// partition count they were cut for.
#[derive(Debug, Default)]
pub struct Segments {
    segments: Vec<(usize, Segment)>,
    partitions: usize,
}

impl Segments {
    /// The born-sorted segments addressed to partition `pid`, each from one
    /// source partition, ordered by `(src % partitions, first message)`: by
    /// source partition, in the order the in-process backend passes its
    /// routed runs, whatever order they were deposited in. A fold merging
    /// them all ([`for_each_merged`]) reads [`merge_runs`]' order.
    pub fn to(&self, pid: usize) -> Vec<&[Msg]> {
        let to_pid = self.segments.iter().filter(|(to, _)| *to == pid);
        let mut segments: Vec<&[Msg]> =
            to_pid.map(|(_, (run, range))| &run[range.clone()]).collect();
        let partitions = self.partitions as u64;
        segments.sort_unstable_by_key(|segment| (segment[0].0 % partitions, segment[0]));
        segments
    }

    /// The most segments addressed to any one partition.
    pub fn most(&self) -> usize {
        let addressed = |pid: usize| self.segments.iter().filter(|(to, _)| *to == pid).count();
        self.segments.iter().map(|&(pid, _)| addressed(pid)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Cut `msgs` into deposits at `cuts` (any order, repeats make empty
    /// deposits) and shape them: `0` leaves them as generated (many short
    /// runs), `1` sorts each deposit (a few born-sorted runs), `2` sorts
    /// across deposits (one run).
    fn deposits(mut msgs: Vec<Msg>, mut cuts: Vec<usize>, shape: u8) -> Vec<Vec<Msg>> {
        if shape == 2 {
            msgs.sort_unstable();
        }
        cuts.iter_mut().for_each(|cut| *cut = (*cut).min(msgs.len()));
        cuts.extend([0, msgs.len()]);
        cuts.sort_unstable();
        let mut chunks: Vec<Vec<Msg>> =
            cuts.windows(2).map(|cut| msgs[cut[0]..cut[1]].to_vec()).collect();
        if shape == 1 {
            chunks.iter_mut().for_each(|chunk| chunk.sort_unstable());
        }
        chunks
    }

    /// Each of `partitions` inboxes as its fold reads the taken slot
    /// `superstep`: its segments, merged.
    fn inboxes(plane: &DataPlane, superstep: u32, partitions: usize) -> Vec<Vec<Msg>> {
        let taken = plane.take(superstep);
        let inbox = |pid| {
            let mut inbox = Vec::new();
            for_each_merged(&taken.to(pid), |msg| inbox.push(msg));
            inbox
        };
        (0..partitions).map(inbox).collect()
    }

    proptest! {
        #[test]
        fn merge_runs_equals_sort_unstable_on_arbitrary_deposits(
            msgs in prop::collection::vec((0u64..24, 0u64..24, 0u64..3), 0..300),
            cuts in prop::collection::vec(0usize..300, 0..10),
            shape in 0u8..3,
            parallelism in 1usize..6,
        ) {
            let chunks = deposits(msgs.clone(), cuts, shape);
            let mut sorted = msgs;
            sorted.sort_unstable();
            let expected: Vec<Vec<Msg>> = (0..parallelism as u64)
                .map(|pid| {
                    sorted.iter().copied().filter(|msg| msg.1 % parallelism as u64 == pid).collect()
                })
                .collect();

            let slices: Vec<&[Msg]> = chunks.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(&merge_runs(&slices, parallelism), &expected);
            // Routing born-sorted runs by destination and merging each
            // destination's runs — by vector or by visit — is the same sort.
            let mut born_sorted = chunks.clone();
            born_sorted.iter_mut().for_each(|chunk| chunk.sort_unstable());
            for pid in 0..parallelism as u64 {
                let routed: Vec<Vec<Msg>> = born_sorted
                    .iter()
                    .map(|chunk| chunk.iter().copied().filter(|msg| msg.1 % parallelism as u64 == pid).collect())
                    .collect();
                let runs: Vec<&[Msg]> = routed.iter().map(Vec::as_slice).collect();
                let mut visited = Vec::new();
                for_each_merged(&runs, |msg| visited.push(msg));
                prop_assert_eq!(&visited, &expected[pid as usize], "{} runs", runs.len());
                prop_assert_eq!(&merge_runs(&runs, 1)[0], &visited);
            }

            let plane = DataPlane::default();
            plane.install_placement(1, [0], parallelism);
            for chunk in &chunks {
                plane.deposit(1, 7, chunk);
            }
            prop_assert_eq!(&inboxes(&plane, 7, parallelism), &expected);
            prop_assert_eq!(plane.take_sorted(7), sorted);
        }
    }

    /// The inbox as it was before slots held runs: every deposit appended to
    /// one vector per slot, which a take scanned for runs and merged.
    #[derive(Default)]
    struct ConcatInbox {
        floor: u32,
        slots: BTreeMap<u32, Vec<Msg>>,
        dropped: u64,
    }

    impl ConcatInbox {
        fn deposit(&mut self, epoch: u64, superstep: u32, msgs: &[Msg]) {
            if epoch != 1 || superstep < self.floor {
                self.dropped += 1;
            } else {
                self.slots.entry(superstep).or_default().extend_from_slice(msgs);
            }
        }

        fn take_inboxes(&mut self, superstep: u32, parallelism: usize) -> Vec<Vec<Msg>> {
            self.floor = superstep;
            self.slots.retain(|&s, _| s >= superstep);
            let msgs = self.slots.get(&superstep).map_or(&[][..], Vec::as_slice);
            merge_runs(&[msgs], parallelism)
        }
    }

    proptest! {
        #[test]
        fn slots_of_runs_equal_the_concatenated_inbox_under_any_interleaving(
            // ((source, superstep offset), (stale epoch?, take first?), messages)
            deposits in prop::collection::vec(
                (
                    (0u64..3, 0u32..3),
                    (0u8..8, 0u8..6),
                    prop::collection::vec((0u64..20, 0u64..20, 0u64..3), 0..30),
                ),
                0..24,
            ),
            parallelism in 1usize..5,
        ) {
            let plane = DataPlane::default();
            plane.install_placement(1, [0, 1, 2], parallelism);
            let mut model = ConcatInbox::default();
            for (i, ((source, offset), (stale, take), mut msgs)) in
                deposits.into_iter().enumerate()
            {
                // A consume racing the peers' deposits, at most one slot back.
                if take == 0 {
                    let superstep = 5 + offset;
                    prop_assert_eq!(
                        inboxes(&plane, superstep, parallelism),
                        model.take_inboxes(superstep, parallelism)
                    );
                }
                // Each source's frames are born sorted; sources interleave.
                msgs.iter_mut().for_each(|msg| msg.0 = msg.0 * 3 + source);
                msgs.sort_unstable();
                let (epoch, superstep) = (if stale == 0 { 2 } else { 1 }, 5 + offset);
                model.deposit(epoch, superstep, &msgs);
                if i % 2 == 0 {
                    plane.deposit(epoch, superstep, &msgs);
                } else {
                    plane.deposit_run(epoch, superstep, msgs);
                }
            }
            prop_assert_eq!(plane.dropped(), model.dropped);
            for superstep in 5..8 {
                let expected = model.take_inboxes(superstep, parallelism);
                prop_assert_eq!(&inboxes(&plane, superstep, parallelism), &expected);
                // The consumed slot is still there for an optimistic retry.
                prop_assert_eq!(&inboxes(&plane, superstep, parallelism), &expected);
            }
            prop_assert_eq!(plane.dropped(), model.dropped);
        }
    }

    proptest! {
        #[test]
        fn a_slot_cut_into_segments_folds_to_the_merged_inbox(
            // Per source partition: its messages, and whether it is this
            // worker's own (moved in run by run) or a peer's (framed).
            sources in prop::collection::vec(
                (prop::collection::vec((0u64..30, 0u64..30, 0u64..3), 0..40), any::<bool>()),
                0..7,
            ),
            // Where a peer's frame ends: below the floor, one frame carries
            // several source partitions' shares.
            frame_ends in prop::collection::vec(any::<bool>(), 7..8),
            partitions in 1usize..6,
        ) {
            let to = |d: usize| move |msg: &&Msg| msg.1 % partitions as u64 == d as u64;
            // Source `q` sends only from vertices `src ≡ q (mod partitions)`,
            // as `partition_rows` places them, and routes born-sorted runs,
            // one per destination.
            let routed: Vec<(Vec<Vec<Msg>>, bool)> = sources
                .into_iter()
                .enumerate()
                .map(|(q, (mut msgs, own))| {
                    let q = (q % partitions) as u64;
                    msgs.iter_mut().for_each(|msg| msg.0 = msg.0 * partitions as u64 + q);
                    msgs.sort_unstable();
                    let runs = (0..partitions).map(|d| msgs.iter().filter(to(d)).copied().collect());
                    (runs.collect(), own)
                })
                .collect();
            let plane = DataPlane::default();
            plane.install_placement(1, [0, 1], partitions);
            let mut frame = Vec::new();
            for (i, (runs, own)) in routed.iter().enumerate() {
                if *own {
                    for (d, run) in runs.iter().enumerate() {
                        plane.deposit_to(1, 3, d, run.clone());
                    }
                    continue;
                }
                // A peer's frame: its runs concatenated in pid order.
                runs.iter().for_each(|run| frame.extend_from_slice(run));
                if frame_ends[i] {
                    plane.deposit_run(1, 3, std::mem::take(&mut frame));
                }
            }
            plane.deposit_run(1, 3, frame);

            let all: Vec<&[Msg]> = routed.iter().flat_map(|(runs, _)| runs).map(Vec::as_slice).collect();
            let expected = merge_runs(&all, partitions);
            prop_assert_eq!(&inboxes(&plane, 3, partitions), &expected);
            let taken = plane.take(3);
            for (pid, inbox) in expected.iter().enumerate() {
                let addressed = routed.iter().filter(|(runs, _)| !runs[pid].is_empty()).count();
                prop_assert!(taken.to(pid).len() <= addressed, "pid {}: {:?}", pid, taken.to(pid));
                prop_assert!(taken.to(pid).iter().all(|segment| segment.is_sorted() && !segment.is_empty()));
                prop_assert_eq!(taken.to(pid).iter().map(|s| s.len()).sum::<usize>(), inbox.len());
            }
            prop_assert!(taken.most() <= routed.len());
        }
    }

    #[test]
    fn a_frame_is_cut_where_its_source_partition_changes() {
        // P = 4: source partition 1's run to partition 0, then source
        // partition 2's. Back to back in one frame they ascend, yet they are
        // two segments, which partition 0 gets by source partition whatever
        // order they landed in: one frame, or one frame each either way.
        let (from_1, from_2): (Msg, Msg) = ((5, 4, 7), (6, 8, 9));
        let deposits = [
            vec![vec![from_1, from_2]],
            vec![vec![from_2, from_1]],
            vec![vec![from_1], vec![from_2]],
            vec![vec![from_2], vec![from_1]],
        ];
        for frames in deposits {
            let plane = DataPlane::default();
            plane.install_placement(1, [0, 1], 4);
            for frame in &frames {
                plane.deposit(1, 2, frame);
            }
            let taken = plane.take(2);
            assert_eq!(taken.to(0), [&[from_1][..], &[from_2][..]], "{frames:?}");
            assert_eq!(taken.most(), 2, "{frames:?}");
        }
    }

    #[test]
    fn slot_completes_when_every_member_flushes() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0, 1, 2]);
        plane.deposit(1, 5, &[(1, 0, 7)]);
        plane.flush(1, 5, 0);
        plane.flush(1, 5, 1);
        assert!(plane.wait_complete(5, Duration::from_millis(1)).is_err());
        plane.flush(1, 5, 2);
        plane.wait_complete(5, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(5), vec![(1, 0, 7)]);
    }

    #[test]
    fn take_sorted_orders_canonically_and_is_repeatable() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0]);
        plane.deposit(1, 3, &[(2, 1, 9), (0, 1, 4)]);
        plane.deposit(1, 3, &[(1, 0, 5)]);
        plane.flush(1, 3, 0);
        let sorted = vec![(0, 1, 4), (1, 0, 5), (2, 1, 9)];
        assert_eq!(plane.take_sorted(3), sorted);
        // Retained for a post-failure retry: consuming again yields the
        // same slot, bit for bit.
        assert_eq!(plane.take_sorted(3), sorted);
    }

    #[test]
    fn consuming_a_slot_garbage_collects_older_ones() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0]);
        plane.deposit(1, 2, &[(0, 0, 1)]);
        plane.deposit(1, 4, &[(0, 0, 2)]);
        assert_eq!(plane.take_sorted(4), vec![(0, 0, 2)]);
        // Slot 2 is gone, and a late frame for it is dropped (below the
        // floor), not resurrected.
        plane.deposit(1, 2, &[(0, 0, 3)]);
        assert_eq!(plane.take_sorted(2), Vec::<Msg>::new());
        assert!(plane.dropped() >= 1);
    }

    #[test]
    fn stale_epoch_frames_cannot_double_deliver() {
        // Satellite-3 regression shape: superstep 6 committed under epoch
        // 1, then a straggler was declared dead mid-superstep-7 and the
        // coordinator installed epoch 2. The straggler's late frames and
        // flush must not land in any slot — but the committed slot stays
        // readable for the optimistic retry.
        let plane = DataPlane::default();
        plane.install_membership(1, [0, 1]);
        plane.deposit(1, 6, &[(3, 0, 2)]);
        plane.flush(1, 6, 0);
        plane.flush(1, 6, 1);
        plane.install_membership(2, [0, 1]);
        // Late traffic from the dead worker's old incarnation (epoch 1) is
        // dropped wholesale, frame and flush alike.
        plane.deposit(1, 7, &[(5, 1, 1)]);
        plane.flush(1, 7, 1);
        assert_eq!(plane.dropped(), 2);
        // The committed slot survived the membership change verbatim and is
        // still complete; the failed attempt's slot holds nothing.
        plane.wait_complete(6, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(6), vec![(3, 0, 2)]);
        // The retry (superstep 8, epoch 2) sees only epoch-2 traffic.
        plane.deposit(2, 8, &[(9, 0, 4)]);
        plane.flush(2, 8, 0);
        plane.flush(2, 8, 1);
        plane.wait_complete(8, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(8), vec![(9, 0, 4)]);
    }

    #[test]
    fn a_newer_epoch_refills_a_slot_from_empty() {
        // Superstep 4 committed under epoch 1 with both flushes in; a respawn
        // or a rescale installs epoch 2.
        let filled = || {
            let plane = DataPlane::default();
            plane.install_membership(1, [0, 1]);
            plane.deposit(1, 4, &[(3, 0, 2)]);
            plane.flush(1, 4, 0);
            plane.flush(1, 4, 1);
            plane.install_membership(2, [0, 1]);
            plane
        };

        // Re-consumed under epoch 2 with nothing new deposited — an
        // optimistic retry on a survivor — the slot keeps its runs.
        let plane = filled();
        plane.wait_complete(4, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(4), vec![(3, 0, 2)]);
        assert_eq!(plane.take_sorted(4), vec![(3, 0, 2)]);

        // The first epoch-2 deposit finds it empty: a regenerated superstep
        // holds what was regenerated and nothing of the old placement's run.
        let plane = filled();
        plane.deposit(2, 4, &[(5, 1, 1)]);
        assert!(plane.wait_complete(4, Duration::from_millis(1)).is_err(), "no epoch-2 flush yet");
        plane.flush(2, 4, 0);
        plane.flush(2, 4, 1);
        plane.wait_complete(4, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(4), vec![(5, 1, 1)]);

        // ... and so does the first epoch-2 flush, from a worker that
        // regenerated nothing for this one: the old flushes count no more.
        let plane = filled();
        plane.flush(2, 4, 1);
        assert_eq!(plane.wait_complete(4, Duration::from_millis(1)), Err(vec![0]));
        plane.deposit(2, 4, &[(6, 0, 0)]);
        plane.flush(2, 4, 0);
        plane.wait_complete(4, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(4), vec![(6, 0, 0)]);
        assert_eq!(plane.dropped(), 0);
    }

    #[test]
    fn wait_timeout_names_the_missing_members() {
        let plane = DataPlane::default();
        plane.install_membership(3, [0, 1, 2]);
        plane.flush(3, 1, 1);
        let missing = plane.wait_complete(1, Duration::from_millis(5)).unwrap_err();
        assert_eq!(missing, vec![0, 2]);
    }

    #[test]
    fn a_gone_peer_fails_the_wait_immediately() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0, 1]);
        plane.flush(1, 2, 0);
        plane.peer_gone(1, 1);
        // A generous timeout, but the wait returns at once: worker 1's
        // connection is gone, so its flush can never arrive.
        let start = Instant::now();
        let missing = plane.wait_complete(2, Duration::from_secs(30)).unwrap_err();
        assert_eq!(missing, vec![1]);
        assert!(start.elapsed() < Duration::from_secs(5));
        // A stale-epoch disconnect (the old incarnation's socket closing
        // after a respawn) is not news and must not poison the new epoch.
        plane.install_membership(2, [0, 1]);
        plane.peer_gone(1, 1);
        plane.flush(2, 3, 0);
        assert!(plane.wait_complete(3, Duration::from_millis(5)).is_err());
        plane.flush(2, 3, 1);
        plane.wait_complete(3, Duration::from_millis(100)).unwrap();
    }
}
