//! Property-based tests of the engine's core invariants: operators must
//! agree with their obvious single-machine reference semantics for
//! arbitrary inputs, partition counts and threading configurations, and
//! shuffles must neither lose nor invent records.

use std::collections::BTreeMap;

use dataflow::codec::{decode_exact, encode_to_vec};
use dataflow::config::EnvConfig;
use dataflow::dataset::Erased;
use dataflow::exec::ExecContext;
use dataflow::hash::fx_hash;
use dataflow::operators::ReduceByKeyOp;
use dataflow::partition::{exchange, hash_partition};
use dataflow::plan::DynOp;
use dataflow::prelude::*;
use dataflow::stats::RunStats;
use proptest::prelude::*;

fn env(parallelism: usize, threaded: bool) -> Environment {
    Environment::with_config(
        EnvConfig::new(parallelism).with_threaded(threaded).with_thread_threshold(0),
    )
}

/// The two execution configurations that must be observationally
/// equivalent: inline (the reference) and the persistent worker pool
/// (threshold 0 forces dispatch).
fn dispatch_envs(parallelism: usize) -> Vec<Environment> {
    vec![env(parallelism, false), env(parallelism, true)]
}

/// The inline and the pooled (threshold 0) execution contexts.
fn dispatch_contexts(parallelism: usize) -> Vec<ExecContext> {
    [false, true]
        .into_iter()
        .map(|threaded| {
            let config = EnvConfig::new(parallelism).with_threaded(threaded);
            ExecContext::new(config.with_thread_threshold(0))
        })
        .collect()
}

/// The keyed shuffle as it was before the exchange: one sequential loop that
/// pushes every record onto its key's partition, source partition by source
/// partition. It is the exchange's reference for placement, record order,
/// per-destination sizes and `moved`.
fn sequential_shuffle<T, K: std::hash::Hash>(
    input: Partitions<T>,
    key_of: impl Fn(&T) -> K,
) -> (Partitions<T>, u64) {
    let p = input.num_partitions();
    let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    let mut moved = 0u64;
    for (source_pid, records) in input.into_iter().enumerate() {
        for record in records {
            let target = hash_partition(&key_of(&record), p);
            if target != source_pid {
                moved += 1;
            }
            out[target].push(record);
        }
    }
    (Partitions::from_parts(out), moved)
}

/// `reduce_by_key` as it was: the sequential shuffle, then per partition a
/// `remove` and an `insert` per record, and the groups sorted by a
/// comparison that hashes both keys.
fn reference_reduce<T, K: std::hash::Hash + Eq>(
    input: Partitions<T>,
    key_of: impl Fn(&T) -> K,
    f: impl Fn(T, T) -> T,
) -> (Vec<Vec<T>>, u64) {
    let (shuffled, moved) = sequential_shuffle(input, &key_of);
    let parts = shuffled
        .into_parts()
        .into_iter()
        .map(|records| {
            let mut acc: FxHashMap<K, T> = FxHashMap::default();
            for record in records {
                let key = key_of(&record);
                let value = match acc.remove(&key) {
                    Some(prev) => f(prev, record),
                    None => record,
                };
                acc.insert(key, value);
            }
            let mut values: Vec<T> = acc.into_values().collect();
            values.sort_by_key(|a| fx_hash(&key_of(a)));
            values
        })
        .collect();
    (parts, moved)
}

/// Partitions of `(key, value)` records with skew: a size class per
/// partition makes it empty (class 0), a handful of records (class 1) or
/// everything drawn (classes 2 and 3).
fn skewed(drawn: Vec<(u64, Vec<(u64, f64)>)>) -> Partitions<(u64, f64)> {
    let parts = drawn
        .into_iter()
        .map(|(class, mut records)| {
            records.truncate(match class {
                0 => 0,
                1 => 3,
                _ => records.len(),
            });
            records
        })
        .collect();
    Partitions::from_parts(parts)
}

fn skewed_partitions() -> impl Strategy<Value = Vec<(u64, Vec<(u64, f64)>)>> {
    proptest::collection::vec(
        (0u64..4, proptest::collection::vec((0u64..40, -1e3f64..1e3), 0..300)),
        1..8,
    )
}

/// Records as bit patterns, so float comparisons are bitwise.
fn bits(parts: &[Vec<(u64, f64)>]) -> Vec<Vec<(u64, u64)>> {
    parts.iter().map(|part| part.iter().map(|&(k, v)| (k, v.to_bits())).collect()).collect()
}

/// One superstep of the fingerprint: (superstep, iteration,
/// records_shuffled, workset_size, sorted counters).
type StepFingerprint = (u32, u32, u64, Option<u64>, Vec<(String, u64)>);

/// The deterministic projection of `RunStats`: everything except wall-clock
/// durations, which legitimately differ between dispatch modes.
#[derive(Debug, PartialEq, Eq)]
struct StatsFingerprint {
    supersteps: u32,
    logical_iterations: u32,
    converged: bool,
    per_step: Vec<StepFingerprint>,
}

fn fingerprint(stats: &RunStats) -> StatsFingerprint {
    StatsFingerprint {
        supersteps: stats.supersteps(),
        logical_iterations: stats.logical_iterations(),
        converged: stats.converged,
        per_step: stats
            .iterations
            .iter()
            .map(|i| {
                let mut counters: Vec<(String, u64)> =
                    i.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
                counters.sort();
                (i.superstep, i.iteration, i.records_shuffled, i.workset_size, counters)
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn exchange_places_records_like_the_sequential_loop(drawn in skewed_partitions()) {
        let input = skewed(drawn);
        let p = input.num_partitions();
        let key = |r: &(u64, f64)| r.0;
        let (expected, expected_moved) = sequential_shuffle(input.clone(), key);
        let expected = bits(expected.as_parts());
        for ctx in dispatch_contexts(p) {
            let owned = exchange(input.clone().into_parts(), p, &ctx, key).unwrap();
            prop_assert_eq!(owned.moved, expected_moved);
            prop_assert_eq!(owned.partition_sizes(), expected.iter().map(Vec::len).collect::<Vec<_>>());
            prop_assert_eq!(bits(owned.into_partitions().as_parts()), expected.clone());
            let routed = exchange(input.as_parts().iter().collect(), p, &ctx, key).unwrap();
            prop_assert_eq!(routed.moved, expected_moved);
            let routed: Vec<Vec<(u64, f64)>> = routed
                .buckets
                .iter()
                .map(|buckets| buckets.iter().flatten().map(|&&r| r).collect())
                .collect();
            prop_assert_eq!(bits(&routed), expected.clone());
        }
    }

    #[test]
    fn reduce_by_key_sums_floats_like_the_remove_insert_reference(drawn in skewed_partitions()) {
        let input = skewed(drawn);
        let p = input.num_partitions();
        let key = |r: &(u64, f64)| r.0;
        let sum = |a: (u64, f64), b: (u64, f64)| (a.0, a.1 + b.1);
        let (expected, expected_moved) = reference_reduce(input.clone(), key, sum);
        for ctx in dispatch_contexts(p) {
            let mut op = ReduceByKeyOp::new(key, sum);
            let out = op.execute(vec![Erased::new(input.clone())], &ctx).unwrap();
            let out = out.take::<(u64, f64)>("reduced").unwrap();
            prop_assert_eq!(bits(out.as_parts()), bits(&expected));
            prop_assert_eq!(ctx.drain().1, expected_moved);
        }
    }

    #[test]
    fn delta_apply_leaves_the_maps_and_upserts_of_the_sequential_apply(
        drawn in skewed_partitions(),
        resident in proptest::collection::vec((0u64..60, -1e3f64..1e3), 0..80),
    ) {
        let delta = skewed(drawn);
        let p = delta.num_partitions();
        // The apply as it was: every delta entry in delta order, upserted
        // into its key's map.
        let mut expected = dataflow::ft::solution_sets(resident.iter().copied(), p);
        let mut expected_upserted = Vec::new();
        for (k, v) in delta.clone().into_vec() {
            expected_upserted.push(k);
            expected[hash_partition(&k, p)].insert(k, v);
        }
        let layout = |sets: &[FxHashMap<u64, f64>]| -> Vec<Vec<(u64, u64)>> {
            sets.iter().map(|set| set.iter().map(|(&k, v)| (k, v.to_bits())).collect()).collect()
        };
        for threaded in [false, true] {
            let environment = env(p, threaded);
            let mut it = DeltaIteration::over(&environment, 1);
            let delta_in = it.import(&environment.from_partitions(delta.clone()));
            let drained = it.workset().filter("drained", |_: &u64| false);
            let initial = DeltaState {
                solution: dataflow::ft::solution_sets(resident.iter().copied(), p),
                workset: Partitions::round_robin(vec![0u64], p),
            };
            let run = it.run_from(delta_in, drained, initial).unwrap();
            prop_assert_eq!(layout(&run.state.solution), layout(&expected), "threaded: {}", threaded);
            prop_assert_eq!(&run.upserted, &expected_upserted);
        }
    }

    #[test]
    fn shuffle_conserves_records(
        records in proptest::collection::vec(0u64..1000, 0..300),
        parallelism in 1usize..9,
    ) {
        let input = Partitions::round_robin(records.clone(), parallelism);
        let ctx = ExecContext::new(EnvConfig::new(parallelism));
        let shuffled = exchange(input.into_parts(), parallelism, &ctx, |v: &u64| *v).unwrap();
        let shuffled = shuffled.into_partitions();
        let mut out = shuffled.clone().into_vec();
        out.sort_unstable();
        let mut expected = records;
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
        // Every record sits in its key's partition.
        for (pid, part) in shuffled.iter() {
            for r in part {
                prop_assert_eq!(hash_partition(r, parallelism), pid);
            }
        }
    }

    #[test]
    fn map_matches_reference(
        records in proptest::collection::vec(any::<u32>(), 0..200),
        parallelism in 1usize..6,
        threaded in any::<bool>(),
    ) {
        let out = env(parallelism, threaded)
            .from_vec(records.clone())
            .map("wrap", |v| u64::from(*v) + 7)
            .collect()
            .unwrap();
        let mut sorted = out;
        sorted.sort_unstable();
        let mut expected: Vec<u64> = records.iter().map(|&v| u64::from(v) + 7).collect();
        expected.sort_unstable();
        prop_assert_eq!(sorted, expected);
    }

    #[test]
    fn reduce_by_key_matches_reference(
        records in proptest::collection::vec((0u64..20, 0u64..100), 0..300),
        parallelism in 1usize..6,
    ) {
        let out = env(parallelism, false)
            .from_vec(records.clone())
            .reduce_by_key("sum", |r: &(u64, u64)| r.0, |a, b| (a.0, a.1 + b.1))
            .collect()
            .unwrap();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, v) in records {
            *reference.entry(k).or_insert(0) += v;
        }
        let mut got: Vec<(u64, u64)> = out;
        got.sort_unstable();
        let expected: Vec<(u64, u64)> = reference.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn join_matches_nested_loop_reference(
        left in proptest::collection::vec((0u64..12, 0u64..50), 0..60),
        right in proptest::collection::vec((0u64..12, 0u64..50), 0..60),
        parallelism in 1usize..6,
    ) {
        let environment = env(parallelism, false);
        let l = environment.from_vec(left.clone());
        let r = environment.from_vec(right.clone());
        let mut out = l
            .join("j", &r, |a: &(u64, u64)| a.0, |b: &(u64, u64)| b.0, |a, b| (a.0, a.1, b.1))
            .collect()
            .unwrap();
        out.sort_unstable();
        let mut expected: Vec<(u64, u64, u64)> = Vec::new();
        for a in &left {
            for b in &right {
                if a.0 == b.0 {
                    expected.push((a.0, a.1, b.1));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn distinct_by_keeps_exactly_one_per_key(
        records in proptest::collection::vec(0u64..30, 0..200),
        parallelism in 1usize..6,
    ) {
        let out = env(parallelism, false)
            .from_vec(records.clone())
            .distinct_by("d", |v| *v)
            .collect()
            .unwrap();
        let mut got = out;
        got.sort_unstable();
        let mut expected = records;
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn union_is_multiset_concat(
        a in proptest::collection::vec(any::<u16>(), 0..100),
        b in proptest::collection::vec(any::<u16>(), 0..100),
        parallelism in 1usize..6,
    ) {
        let environment = env(parallelism, false);
        let left = environment.from_vec(a.clone());
        let right = environment.from_vec(b.clone());
        let mut out = left.union("u", &right).collect().unwrap();
        out.sort_unstable();
        let mut expected = a;
        expected.extend(b);
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn global_fold_matches_iterator_sum(
        records in proptest::collection::vec(0u64..1_000_000, 0..200),
        parallelism in 1usize..6,
    ) {
        let out = env(parallelism, false)
            .from_vec(records.clone())
            .global_fold("sum", 0u64, |a, v| *a += v, |a, p| *a += p)
            .collect()
            .unwrap();
        prop_assert_eq!(out, vec![records.iter().sum::<u64>()]);
    }

    #[test]
    fn codec_roundtrips_arbitrary_nested_values(
        value in proptest::collection::vec(
            (any::<u64>(), any::<f64>(), proptest::collection::vec(any::<u32>(), 0..8)),
            0..32,
        ),
    ) {
        let bytes = encode_to_vec(&value);
        let back: Vec<(u64, f64, Vec<u32>)> = decode_exact(&bytes).unwrap();
        prop_assert_eq!(back.len(), value.len());
        for (a, b) in back.iter().zip(&value) {
            prop_assert_eq!(a.0, b.0);
            prop_assert!(a.1 == b.1 || (a.1.is_nan() && b.1.is_nan()));
            prop_assert_eq!(&a.2, &b.2);
        }
    }

    #[test]
    fn codec_rejects_random_truncations(
        value in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..20),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = encode_to_vec(&value);
        let cut = cut.index(bytes.len().max(1));
        if cut < bytes.len() {
            prop_assert!(decode_exact::<Vec<(u64, u64)>>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn threaded_and_inline_execution_agree(
        records in proptest::collection::vec((0u64..16, 1u64..50), 0..200),
        parallelism in 1usize..6,
    ) {
        let run = |threaded: bool| {
            let mut out = env(parallelism, threaded)
                .from_vec(records.clone())
                .reduce_by_key("sum", |r: &(u64, u64)| r.0, |a, b| (a.0, a.1 + b.1))
                .collect()
                .unwrap();
            out.sort_unstable();
            out
        };
        prop_assert_eq!(run(false), run(true));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn bulk_iteration_is_deterministic(
        records in proptest::collection::vec(0u64..64, 1..64),
        iterations in 1u32..8,
        parallelism in 1usize..5,
    ) {
        let run = || {
            let environment = env(parallelism, false);
            let initial = environment.from_vec(records.clone());
            let it = BulkIteration::new(&initial, iterations);
            let state = it.state();
            let next = state.map("dec", |n: &u64| n.saturating_sub(1));
            let (result, _) = it.close(next);
            let mut out = result.collect().unwrap();
            out.sort_unstable();
            out
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn bulk_iteration_agrees_across_dispatch_modes(
        records in proptest::collection::vec(1u64..32, 1..64),
        parallelism in 1usize..5,
    ) {
        // Countdown-to-zero with a termination criterion: results AND the
        // deterministic RunStats projection must match between inline and
        // pool execution.
        let runs: Vec<(Vec<u64>, StatsFingerprint)> = dispatch_envs(parallelism)
            .into_iter()
            .map(|environment| {
                let initial = environment.from_vec(records.clone());
                let it = BulkIteration::new(&initial, 64);
                let state = it.state();
                let next = state.measured("live").map("dec", |n: &u64| n.saturating_sub(1));
                let moving = next.filter("pos", |n| *n > 0);
                let (result, stats) = it.close_with_termination(next, moving);
                let mut out = result.collect().unwrap();
                out.sort_unstable();
                (out, fingerprint(&stats.take().unwrap()))
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1], "inline vs pool");
    }

    #[test]
    fn delta_iteration_agrees_across_dispatch_modes(
        edges in proptest::collection::vec((0u64..16, 0u64..16), 0..40),
        parallelism in 1usize..5,
    ) {
        let runs: Vec<(Vec<(u64, u64)>, StatsFingerprint)> = dispatch_envs(parallelism)
            .into_iter()
            .map(|environment| {
                let initial: Vec<(u64, u64)> = (0..16).map(|v| (v, v)).collect();
                let solution = environment.from_keyed_vec(initial.clone(), |r| r.0);
                let workset = environment.from_keyed_vec(initial, |r| r.0);
                let mut sym: Vec<(u64, u64)> = Vec::new();
                for &(u, v) in &edges {
                    sym.push((u, v));
                    sym.push((v, u));
                }
                let edges_ds = environment.from_keyed_vec(sym, |e| e.0);
                let mut it = DeltaIteration::new(&solution, &workset, 200);
                let edges_in = it.import(&edges_ds);
                let candidates = it
                    .workset()
                    .join("n", &edges_in, |w: &(u64, u64)| w.0, |e| e.0, |w, e| (e.1, w.1))
                    .measured("messages")
                    .reduce_by_key("min", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
                let updates = candidates
                    .join_solution("u", &it.solution_set(), |c| c.0, |c, label: &u64| {
                        if c.1 < *label { Some((c.0, c.1)) } else { None }
                    })
                    .flat_map("flat", |u: &Option<(u64, u64)>| *u);
                let (result, stats) = it.close(updates.clone(), updates);
                let mut labels = result.collect().unwrap();
                labels.sort_unstable();
                (labels, fingerprint(&stats.take().unwrap()))
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1], "inline vs pool");
    }

    #[test]
    fn delta_iteration_min_label_matches_union_find(
        edges in proptest::collection::vec((0u64..24, 0u64..24), 0..60),
        parallelism in 1usize..5,
    ) {
        // Build the undirected graph + min-label delta iteration inline.
        let mut builder = graphs_stub::Builder::new(24);
        for &(u, v) in &edges {
            builder.add(u, v);
        }
        let (directed, truth) = builder.finish();

        let environment = env(parallelism, false);
        let initial: Vec<(u64, u64)> = (0..24).map(|v| (v, v)).collect();
        let solution = environment.from_keyed_vec(initial.clone(), |r| r.0);
        let workset = environment.from_keyed_vec(initial, |r| r.0);
        let edges_ds = environment.from_keyed_vec(directed, |e| e.0);
        let mut it = DeltaIteration::new(&solution, &workset, 200);
        let edges_in = it.import(&edges_ds);
        let candidates = it
            .workset()
            .join("n", &edges_in, |w: &(u64, u64)| w.0, |e| e.0, |w, e| (e.1, w.1))
            .reduce_by_key("min", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
        let updates = candidates
            .join_solution("u", &it.solution_set(), |c| c.0, |c, label: &u64| {
                if c.1 < *label { Some((c.0, c.1)) } else { None }
            })
            .flat_map("flat", |u: &Option<(u64, u64)>| *u);
        let (result, _) = it.close(updates.clone(), updates);
        let mut labels = result.collect().unwrap();
        labels.sort_unstable();
        for (v, label) in labels {
            prop_assert_eq!(label, truth[v as usize]);
        }
    }
}

/// Minimal union-find reference, local to this test (the `graphs` crate is
/// intentionally not a dependency of `dataflow`).
mod graphs_stub {
    pub struct Builder {
        n: u64,
        parent: Vec<u64>,
        edges: Vec<(u64, u64)>,
    }

    impl Builder {
        pub fn new(n: u64) -> Self {
            Builder { n, parent: (0..n).collect(), edges: Vec::new() }
        }

        fn find(&mut self, x: u64) -> u64 {
            if self.parent[x as usize] != x {
                let root = self.find(self.parent[x as usize]);
                self.parent[x as usize] = root;
            }
            self.parent[x as usize]
        }

        pub fn add(&mut self, u: u64, v: u64) {
            self.edges.push((u, v));
            self.edges.push((v, u));
            let (ru, rv) = (self.find(u), self.find(v));
            if ru != rv {
                self.parent[ru as usize] = rv;
            }
        }

        pub fn finish(mut self) -> (Vec<(u64, u64)>, Vec<u64>) {
            let mut min_of_root = vec![u64::MAX; self.n as usize];
            for v in 0..self.n {
                let root = self.find(v);
                min_of_root[root as usize] = min_of_root[root as usize].min(v);
            }
            let truth: Vec<u64> = (0..self.n)
                .map(|v| {
                    let root = self.find(v);
                    min_of_root[root as usize]
                })
                .collect();
            (self.edges, truth)
        }
    }
}
