//! Two-input operators: join (rebuilt, against a caller's index, against
//! the solution set), co-group, cross, union, broadcast-map.

use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::Index;
use std::sync::Arc;

use crate::dataset::{Data, Erased, ErasedId, Partitions};
use crate::error::Result;
use crate::exec::{par_map, ExecContext};
use crate::ft::SolutionSets;
use crate::hash::FxHashMap;
use crate::index::KeyedIndex;
use crate::operators::keyed::{shuffle, KeyData};
use crate::partition::{broadcast, exchange, Shuffled};
use crate::plan::DynOp;

/// Route `input` to its keys' partitions by reference, timed as a shuffle:
/// the keyed exchange without copying a record.
fn route<'a, T: Data, K: Hash>(
    input: &'a Partitions<T>,
    ctx: &ExecContext,
    key_of: &(impl Fn(&T) -> K + Sync),
) -> Result<Shuffled<&'a T>> {
    let p = input.num_partitions();
    ctx.time_shuffle(|| exchange(input.as_parts().iter().collect(), p, ctx, key_of))
}

/// The probe half of a hash join: route `left` to its keys' partitions,
/// then let `emit(pid, record, key, out)` look the key up in whatever holds
/// the build side. Output order is the routed probe side's order, so it
/// does not depend on how (or when) the build side was indexed.
/// `build_moved` is the build side's share of the shuffle traffic.
fn probe<L, K, O>(
    left: &Partitions<L>,
    key_left: &(impl Fn(&L) -> K + Sync),
    ctx: &ExecContext,
    build_moved: u64,
    emit: impl Fn(usize, &L, &K, &mut Vec<O>) + Sync,
) -> Result<Erased>
where
    L: Data,
    K: KeyData,
    O: Data,
{
    let routed = route(left, ctx, key_left)?;
    ctx.add_shuffled(routed.moved + build_moved);
    let work = routed.total_len();
    let out = par_map(routed.buckets, ctx, work, |pid, lefts| {
        let mut out = Vec::new();
        for l in lefts.into_iter().flatten() {
            emit(pid, l, &key_left(l), &mut out);
        }
        out
    })?;
    Ok(Erased::new(Partitions::from_parts(out)))
}

/// A join's indexed build side, remembered with the input it was built
/// from and the traffic building it stood for.
struct BuildSide<K, R> {
    source: ErasedId,
    index: KeyedIndex<K, R>,
    moved: u64,
}

/// Equi-join: apply `f` to every pair of left/right records with equal keys
/// (the paper's `Join` higher-order function).
///
/// The right input is the build side. Its hash index is kept for as long as
/// the input is the *same allocation* as last time — inside an iteration,
/// loop-invariant nodes hand out one `Arc` superstep after superstep — so a
/// superstep pays for the probe side only. Every execution still accounts
/// the build side's shuffle traffic, as if it had been re-shuffled.
/// [`crate::config::EnvConfig::loop_invariant_caching`] switched off
/// rebuilds the index every time.
pub struct JoinOp<L, R, K, KL, KR, O, F> {
    key_left: Arc<KL>,
    key_right: Arc<KR>,
    f: Arc<F>,
    build: Option<BuildSide<K, R>>,
    _types: PhantomData<fn(L) -> O>,
}

impl<L, R, K, KL, KR, O, F> JoinOp<L, R, K, KL, KR, O, F> {
    /// Operator over the given user function(s).
    pub fn new(key_left: KL, key_right: KR, f: F) -> Self {
        JoinOp {
            key_left: Arc::new(key_left),
            key_right: Arc::new(key_right),
            f: Arc::new(f),
            build: None,
            _types: PhantomData,
        }
    }
}

impl<L, R, K, KL, KR, O, F> DynOp for JoinOp<L, R, K, KL, KR, O, F>
where
    L: Data,
    R: Data,
    K: KeyData,
    KL: Fn(&L) -> K + Send + Sync + 'static,
    KR: Fn(&R) -> K + Send + Sync + 'static,
    O: Data,
    F: Fn(&L, &R) -> O + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].downcast::<L>("Join(left)")?;
        let kept = ctx.config.loop_invariant_caching
            && self.build.as_ref().is_some_and(|build| build.source.is(&inputs[1]));
        if !kept {
            self.build = None;
            let right = inputs[1].downcast::<R>("Join(right)")?;
            let key_right = &*self.key_right;
            let routed = route(right, ctx, key_right)?;
            let work = routed.total_len();
            let shards = par_map(routed.buckets, ctx, work, |_, rights| {
                let mut table: FxHashMap<K, Vec<R>> = FxHashMap::default();
                for r in rights.into_iter().flatten() {
                    table.entry(key_right(r)).or_default().push(r.clone());
                }
                table
            })?;
            self.build = Some(BuildSide {
                source: inputs[1].id(),
                index: KeyedIndex::from_shards(shards),
                moved: routed.moved,
            });
        }
        let build = self.build.as_ref().expect("the build side was indexed above");
        let parallelism = left.num_partitions();
        let f = &*self.f;
        probe(left, &*self.key_left, ctx, build.moved, |pid, l, key, out| {
            out.extend(build.index.get_in(pid, parallelism, key).iter().map(|r| f(l, r)));
        })
    }

    fn kind(&self) -> &'static str {
        "Join"
    }
}

/// Equi-join against a build side that is indexed by key already (second
/// input: an `Arc<I>` from [`crate::api::Environment::from_index`], read as
/// `index[key]`): the probe of [`JoinOp`] with nothing to build. An index is
/// in place by construction, so it accounts no shuffle traffic.
pub struct IndexJoinOp<L, I, K, KL, O, F> {
    key_left: Arc<KL>,
    f: Arc<F>,
    _types: PhantomData<fn(L, I, K) -> O>,
}

impl<L, I, K, KL, O, F> IndexJoinOp<L, I, K, KL, O, F> {
    /// Operator over the given user function(s).
    pub fn new(key_left: KL, f: F) -> Self {
        IndexJoinOp { key_left: Arc::new(key_left), f: Arc::new(f), _types: PhantomData }
    }
}

impl<L, I, R, K, KL, O, F> DynOp for IndexJoinOp<L, I, K, KL, O, F>
where
    L: Data,
    I: Index<K, Output = [R]> + Send + Sync + 'static,
    R: Data,
    K: KeyData,
    KL: Fn(&L) -> K + Send + Sync + 'static,
    O: Data,
    F: Fn(&L, &R) -> O + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].downcast::<L>("Join(left)")?;
        let index = inputs[1].downcast_ref::<Arc<I>>("Join(index)")?;
        let f = &*self.f;
        probe(left, &*self.key_left, ctx, 0, |_, l, key, out| {
            out.extend(index[key.clone()].iter().map(|r| f(l, r)));
        })
    }

    fn kind(&self) -> &'static str {
        "Join"
    }
}

/// The solution-set join of a delta iteration (second input: the
/// [`SolutionSets`] the driver lends the loop body): every left record
/// whose key has a solution entry meets that entry's value, looked up in
/// place. The sets are partitioned by key already, so only the probe side
/// is routed.
pub struct SolutionJoinOp<L, K, V, KL, O, F> {
    key_left: Arc<KL>,
    f: Arc<F>,
    _types: PhantomData<fn(L, K, V) -> O>,
}

impl<L, K, V, KL, O, F> SolutionJoinOp<L, K, V, KL, O, F> {
    /// Operator over the given user function(s).
    pub fn new(key_left: KL, f: F) -> Self {
        SolutionJoinOp { key_left: Arc::new(key_left), f: Arc::new(f), _types: PhantomData }
    }
}

impl<L, K, V, KL, O, F> DynOp for SolutionJoinOp<L, K, V, KL, O, F>
where
    L: Data,
    K: KeyData,
    V: Data,
    KL: Fn(&L) -> K + Send + Sync + 'static,
    O: Data,
    F: Fn(&L, &V) -> O + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].downcast::<L>("Join(left)")?;
        let sets = inputs[1].downcast_ref::<SolutionSets<K, V>>("Join(solution set)")?;
        let f = &*self.f;
        probe(left, &*self.key_left, ctx, 0, |pid, l, key, out| {
            out.extend(sets[pid].get(key).map(|v| f(l, v)));
        })
    }

    fn kind(&self) -> &'static str {
        "Join"
    }
}

/// Co-group: group both inputs by key and hand `f` the two (possibly empty)
/// groups for every key present on either side. Subsumes outer joins.
pub struct CoGroupOp<L, R, K, KL, KR, O, F> {
    key_left: Arc<KL>,
    key_right: Arc<KR>,
    f: Arc<F>,
    _types: PhantomData<fn(L, R, K) -> O>,
}

impl<L, R, K, KL, KR, O, F> CoGroupOp<L, R, K, KL, KR, O, F> {
    /// Operator over the given user function(s).
    pub fn new(key_left: KL, key_right: KR, f: F) -> Self {
        CoGroupOp {
            key_left: Arc::new(key_left),
            key_right: Arc::new(key_right),
            f: Arc::new(f),
            _types: PhantomData,
        }
    }
}

impl<L, R, K, KL, KR, O, F> DynOp for CoGroupOp<L, R, K, KL, KR, O, F>
where
    L: Data,
    R: Data,
    K: KeyData + Ord,
    KL: Fn(&L) -> K + Send + Sync + 'static,
    KR: Fn(&R) -> K + Send + Sync + 'static,
    O: Data,
    F: Fn(&K, &[L], &[R]) -> Vec<O> + Send + Sync + 'static,
{
    fn execute(&mut self, mut inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let right = inputs.swap_remove(1).take::<R>("CoGroup(right)")?;
        let left = inputs.swap_remove(0).take::<L>("CoGroup(left)")?;
        let shuffled_left = shuffle(left, ctx, &*self.key_left)?;
        let shuffled_right = shuffle(right, ctx, &*self.key_right)?;

        let key_left = &*self.key_left;
        let key_right = &*self.key_right;
        let f = &*self.f;
        let work = shuffled_left.total_len() + shuffled_right.total_len();
        let zipped: Vec<_> =
            shuffled_left.buckets.into_iter().zip(shuffled_right.buckets).collect();
        let out = par_map(zipped, ctx, work, |_, (lefts, rights)| {
            let mut groups: FxHashMap<K, (Vec<L>, Vec<R>)> = FxHashMap::default();
            for l in lefts.into_iter().flatten() {
                groups.entry(key_left(&l)).or_default().0.push(l);
            }
            for r in rights.into_iter().flatten() {
                groups.entry(key_right(&r)).or_default().1.push(r);
            }
            // Sort keys for deterministic output order.
            type Groups<K, L, R> = Vec<(K, (Vec<L>, Vec<R>))>;
            let mut entries: Groups<K, L, R> = groups.into_iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out = Vec::new();
            for (key, (ls, rs)) in &entries {
                out.extend(f(key, ls, rs));
            }
            out
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "CoGroup"
    }
}

/// Cartesian product: the right side is broadcast to every partition of the
/// left (the paper's `Cross` higher-order function).
pub struct CrossOp<L, R, O, F> {
    f: Arc<F>,
    _types: PhantomData<fn(L, R) -> O>,
}

impl<L, R, O, F> CrossOp<L, R, O, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        CrossOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<L, R, O, F> DynOp for CrossOp<L, R, O, F>
where
    L: Data,
    R: Data,
    O: Data,
    F: Fn(&L, &R) -> O + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].downcast::<L>("Cross(left)")?;
        let right = inputs[1].downcast::<R>("Cross(right)")?;
        let replicated = ctx.time_shuffle(|| Ok(broadcast(right, left.num_partitions())))?;
        ctx.add_shuffled(replicated.moved);
        let f = &*self.f;
        let work = left.total_len() + replicated.moved as usize;
        let rights: Vec<Vec<R>> = replicated.into_partitions().into_parts();
        let zipped: Vec<(&Vec<L>, Vec<R>)> = left.as_parts().iter().zip(rights).collect();
        let out = par_map(zipped, ctx, work, |_, (lefts, rs)| {
            let mut out = Vec::with_capacity(lefts.len() * rs.len());
            for l in lefts {
                for r in &rs {
                    out.push(f(l, r));
                }
            }
            out
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Cross"
    }
}

/// Broadcast-variable map: every record of the main input sees the *entire*
/// side input, like a Flink broadcast set. Used e.g. to fold the global
/// dangling-mass aggregate into each PageRank update.
pub struct BroadcastMapOp<T, B, U, F> {
    f: Arc<F>,
    _types: PhantomData<fn(T, B) -> U>,
}

impl<T, B, U, F> BroadcastMapOp<T, B, U, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        BroadcastMapOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, B, U, F> DynOp for BroadcastMapOp<T, B, U, F>
where
    T: Data,
    B: Data,
    U: Data,
    F: Fn(&T, &[B]) -> U + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased> {
        let main = inputs[0].downcast::<T>("BroadcastMap(main)")?;
        let side = inputs[1].downcast::<B>("BroadcastMap(side)")?;
        let side_records: Vec<B> = side.iter_records().cloned().collect();
        // The side input travels to every partition but the one it lives in.
        ctx.add_shuffled(side_records.len() as u64 * (main.num_partitions() as u64 - 1));
        let f = &*self.f;
        let side_ref = &side_records;
        let out = par_map(
            main.as_parts().iter().collect::<Vec<_>>(),
            ctx,
            main.total_len(),
            |_, records| records.iter().map(|t| f(t, side_ref)).collect::<Vec<U>>(),
        )?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "BroadcastMap"
    }
}

/// Concatenate two datasets partition-wise (no shuffle).
pub struct UnionOp<T> {
    _types: PhantomData<fn(T)>,
}

impl<T> UnionOp<T> {
    /// Operator over the given user function(s).
    pub fn new() -> Self {
        UnionOp { _types: PhantomData }
    }
}

impl<T> Default for UnionOp<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Data> DynOp for UnionOp<T> {
    fn execute(&mut self, mut inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        let mut right = inputs.swap_remove(1).take::<T>("Union(right)")?;
        let left = inputs.swap_remove(0).take::<T>("Union(left)")?;
        let mut parts = left.into_parts();
        for (pid, part) in parts.iter_mut().enumerate() {
            part.append(right.partition_mut(pid));
        }
        Ok(Erased::new(Partitions::from_parts(parts)))
    }

    fn kind(&self) -> &'static str {
        "Union"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use crate::index::tests::DenseRows;

    fn ctx() -> ExecContext {
        ExecContext::new(EnvConfig::new(4).with_thread_threshold(0))
    }

    fn erased<T: Data>(v: Vec<T>, p: usize) -> Erased {
        Erased::new(Partitions::round_robin(v, p))
    }

    #[test]
    fn join_matches_equal_keys() {
        let left = erased(vec![(1u64, 'a'), (2, 'b'), (3, 'c')], 4);
        let right = erased(vec![(1u64, 10u64), (1, 11), (3, 30)], 4);
        let mut op = JoinOp::new(
            |l: &(u64, char)| l.0,
            |r: &(u64, u64)| r.0,
            |l: &(u64, char), r: &(u64, u64)| (l.0, l.1, r.1),
        );
        let mut v = op
            .execute(vec![left, right], &ctx())
            .unwrap()
            .take::<(u64, char, u64)>("t")
            .unwrap()
            .into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![(1, 'a', 10), (1, 'a', 11), (3, 'c', 30)]);
    }

    /// A join whose right key function counts its calls: the build side is
    /// indexed exactly when that count moves (by two per build record, once
    /// to route it and once to file it; the probe never calls it).
    #[allow(clippy::type_complexity)]
    fn counting_join() -> (
        JoinOp<
            (u64, char),
            (u64, u64),
            u64,
            impl Fn(&(u64, char)) -> u64 + Send + Sync + 'static,
            impl Fn(&(u64, u64)) -> u64 + Send + Sync + 'static,
            (u64, char, u64),
            impl Fn(&(u64, char), &(u64, u64)) -> (u64, char, u64) + Send + Sync + 'static,
        >,
        Arc<std::sync::atomic::AtomicUsize>,
    ) {
        let built = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = built.clone();
        let op = JoinOp::new(
            |l: &(u64, char)| l.0,
            move |r: &(u64, u64)| {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                r.0
            },
            |l: &(u64, char), r: &(u64, u64)| (l.0, l.1, r.1),
        );
        (op, built)
    }

    fn joined(op: &mut impl DynOp, left: &Erased, right: &Erased, c: &ExecContext) -> Vec<u64> {
        let out = op.execute(vec![left.clone(), right.clone()], c).unwrap();
        let mut v: Vec<u64> =
            out.downcast::<(u64, char, u64)>("t").unwrap().iter_records().map(|r| r.2).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn join_keeps_its_index_while_the_build_input_is_the_same_allocation() {
        let built =
            |c: &Arc<std::sync::atomic::AtomicUsize>| c.load(std::sync::atomic::Ordering::SeqCst);
        let c = ctx();
        let left = erased(vec![(1u64, 'a'), (3, 'c')], 4);
        let right = erased(vec![(1u64, 10u64), (1, 11), (3, 30)], 4);
        let (mut op, count) = counting_join();
        assert_eq!(joined(&mut op, &left, &right, &c), vec![10, 11, 30]);
        assert_eq!(built(&count), 6);
        let (_, first_shuffled) = c.drain();
        // Same handle again, and a probe side that changed: nothing is
        // rebuilt, and the build side's traffic is accounted all the same.
        assert_eq!(joined(&mut op, &left, &right, &c), vec![10, 11, 30]);
        assert_eq!(built(&count), 6, "the index was kept");
        assert_eq!(c.drain().1, first_shuffled, "records_shuffled must not notice the reuse");
        let other_left = erased(vec![(3u64, 'z')], 4);
        assert_eq!(joined(&mut op, &other_left, &right, &c), vec![30]);
        assert_eq!(built(&count), 6);

        // An equal build input in another allocation is a different input.
        let same_records = erased(vec![(1u64, 10u64), (1, 11), (3, 30)], 4);
        assert_eq!(joined(&mut op, &left, &same_records, &c), vec![10, 11, 30]);
        assert_eq!(built(&count), 12, "a new allocation rebuilds the index");
        let changed = erased(vec![(1u64, 99u64)], 4);
        assert_eq!(joined(&mut op, &left, &changed, &c), vec![99]);
        assert_eq!(built(&count), 14);
    }

    #[test]
    fn join_rebuilds_every_time_without_loop_invariant_caching() {
        let config = EnvConfig::new(4).with_thread_threshold(0).with_loop_invariant_caching(false);
        let c = ExecContext::new(config);
        let left = erased(vec![(1u64, 'a')], 4);
        let right = erased(vec![(1u64, 10u64), (2, 20)], 4);
        let (mut op, count) = counting_join();
        for round in 1..=3 {
            assert_eq!(joined(&mut op, &left, &right, &c), vec![10]);
            assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 4 * round);
        }
    }

    #[test]
    fn index_and_solution_joins_probe_in_place() {
        let c = ctx();
        let left = erased(vec![(1u64, 'a'), (2, 'b'), (3, 'c')], 4);
        // Rows by dense id, a graph's layout: keys 0 and 2 have none.
        let rows = DenseRows(vec![vec![], vec![10, 11], vec![], vec![30]]);
        let mut op = IndexJoinOp::<_, DenseRows, _, _, _, _>::new(
            |l: &(u64, char)| l.0,
            |l: &(u64, char), r: &u64| (l.0, l.1, *r),
        );
        let index = Erased::of(Arc::new(rows));
        assert_eq!(joined(&mut op, &left, &index, &c), vec![10, 11, 30]);
        // In the probe side's routed order: what a join that builds the
        // same rows emits, record for record.
        let records = erased(vec![(1u64, 10u64), (1, 11), (3, 30)], 4);
        let mut rebuilt = JoinOp::new(
            |l: &(u64, char)| l.0,
            |r: &(u64, u64)| r.0,
            |l: &(u64, char), r: &(u64, u64)| (l.0, l.1, r.1),
        );
        let other = ctx();
        let in_order = |op: &mut dyn DynOp, right: Erased| {
            let out = op.execute(vec![left.clone(), right], &other).unwrap();
            out.take::<(u64, char, u64)>("t").unwrap().into_vec()
        };
        assert_eq!(in_order(&mut op, index), in_order(&mut rebuilt, records));

        let sets = crate::ft::solution_sets([(1u64, 100u64), (2, 200)], 4);
        let mut op =
            SolutionJoinOp::new(|l: &(u64, char)| l.0, |l: &(u64, char), v: &u64| (l.0, l.1, *v));
        assert_eq!(joined(&mut op, &left, &Erased::of(sets), &c), vec![100, 200]);
        // Neither accounts build-side traffic: both moved the probe side's
        // records and nothing else.
        let (_, shuffled) = c.drain();
        assert_eq!(shuffled % 2, 0);
        assert!(shuffled <= 6);
    }

    #[test]
    fn join_empty_right_is_empty() {
        let left = erased(vec![(1u64, 1u64)], 2);
        let right = erased(Vec::<(u64, u64)>::new(), 2);
        let mut op = JoinOp::new(
            |l: &(u64, u64)| l.0,
            |r: &(u64, u64)| r.0,
            |l: &(u64, u64), _r: &(u64, u64)| *l,
        );
        let out = op.execute(vec![left, right], &ctx()).unwrap();
        assert_eq!(out.downcast::<(u64, u64)>("t").unwrap().total_len(), 0);
    }

    #[test]
    fn cogroup_sees_unmatched_keys_from_both_sides() {
        let left = erased(vec![(1u64, 'l')], 2);
        let right = erased(vec![(2u64, 'r')], 2);
        let mut op = CoGroupOp::new(
            |l: &(u64, char)| l.0,
            |r: &(u64, char)| r.0,
            |k: &u64, ls: &[(u64, char)], rs: &[(u64, char)]| {
                vec![(*k, ls.len() as u64, rs.len() as u64)]
            },
        );
        let mut v = op
            .execute(vec![left, right], &ctx())
            .unwrap()
            .take::<(u64, u64, u64)>("t")
            .unwrap()
            .into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![(1, 1, 0), (2, 0, 1)]);
    }

    #[test]
    fn cross_pairs_everything() {
        let left = erased(vec![1u64, 2], 2);
        let right = erased(vec![10u64, 20], 2);
        let mut op = CrossOp::new(|l: &u64, r: &u64| l * r);
        let mut v =
            op.execute(vec![left, right], &ctx()).unwrap().take::<u64>("t").unwrap().into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![10, 20, 20, 40]);
    }

    #[test]
    fn broadcast_map_hands_full_side_input() {
        let c = ctx();
        let main = erased(vec![1.0f64, 2.0, 3.0], 4);
        let side = erased(vec![10.0f64], 4);
        let mut op = BroadcastMapOp::new(|t: &f64, side: &[f64]| t + side[0]);
        let mut v = op.execute(vec![main, side], &c).unwrap().take::<f64>("t").unwrap().into_vec();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, vec![11.0, 12.0, 13.0]);
        let (_, shuffled) = c.drain();
        assert_eq!(shuffled, 3); // 1 side record to 3 remote partitions
    }

    #[test]
    fn union_concatenates_partitionwise() {
        let left = erased(vec![1u64, 2], 2);
        let right = erased(vec![3u64], 2);
        let mut op = UnionOp::<u64>::new();
        let out = op.execute(vec![left, right], &ctx()).unwrap();
        let parts = out.take::<u64>("t").unwrap();
        assert_eq!(parts.total_len(), 3);
        assert_eq!(parts.num_partitions(), 2);
    }
}
