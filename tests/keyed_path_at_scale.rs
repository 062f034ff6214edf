//! The keyed path at a scale that takes the pool.
//!
//! Every checked-in golden runs below the engine's 4096-record thread
//! threshold, so the goldens alone never see the keyed exchange, the
//! reductions or the delta apply run as pool tasks. Here CC, SSSP,
//! reachability and PageRank run on a 20k-vertex preferential-attachment
//! graph twice — everything inline (`with_threaded(false)`), and everything
//! on the pool (threshold 0) — with a failure compensated mid-run, and must
//! agree bit for bit: the results, and the journals modulo `*_ns` fields.
//! CI runs this file in release.

use std::sync::Arc;

use algos::common::FtConfig;
use algos::connected_components::{self as cc, CcConfig};
use algos::pagerank::{self as pr, PrConfig};
use algos::reachability::{self as reach, ReachConfig};
use algos::sssp::{self, SsspConfig};
use dataflow::api::Environment;
use dataflow::config::EnvConfig;
use graphs::Graph;
use recovery::scenario::FailureScenario;
use telemetry::{MemorySink, SinkHandle};

const VERTICES: usize = 20_000;
const PARALLELISM: usize = 4;

fn graph() -> Graph {
    graphs::generators::preferential_attachment(VERTICES, 3, 11)
}

/// An environment that runs every partition task inline, or one that
/// dispatches every one of them to the pool, journaling into a fresh sink;
/// with the fault-tolerance configuration that journals there too.
fn environment(pooled: bool) -> (Environment, FtConfig, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let telemetry = SinkHandle::new(sink.clone());
    let scenario = FailureScenario::none().fail_at(2, &[1]);
    let ft = FtConfig::optimistic(scenario).with_telemetry(telemetry.clone());
    let config = EnvConfig::new(PARALLELISM).with_telemetry(telemetry);
    let config = if pooled { config.with_thread_threshold(0) } else { config.with_threaded(false) };
    (Environment::with_config(config), ft, sink)
}

/// Zero every digit run that follows a `_ns":` key.
fn normalize_ns(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("_ns\":") {
        let (head, tail) = rest.split_at(at + "_ns\":".len());
        out.push_str(head);
        let digits = tail.len() - tail.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 {
            out.push('0');
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Tasks the environment's pool ran (none if it never spawned).
fn pool_tasks(env: &Environment) -> u64 {
    let config = env.config();
    config.pool.get().map_or(0, |pool| pool.worker_stats().iter().map(|&(_, n)| n).sum())
}

/// Run `algorithm` inline and pooled; both must give the same result and
/// the same journal, the journal must show the failure, and only the pooled
/// run may use the pool.
fn agree<R: PartialEq>(name: &str, algorithm: impl Fn(&Environment, FtConfig) -> R) {
    let runs: Vec<(R, String, u64)> = [false, true]
        .into_iter()
        .map(|pooled| {
            let (env, ft, sink) = environment(pooled);
            let result = algorithm(&env, ft);
            (result, normalize_ns(&sink.journal_lines()), pool_tasks(&env))
        })
        .collect();
    assert!(runs[0].0 == runs[1].0, "{name}: inline and pooled results differ");
    assert!(runs[0].1.contains("\"event\":\"Failure"), "{name}: no failure was journaled");
    assert_eq!(runs[0].1, runs[1].1, "{name}: inline and pooled journals differ");
    assert_eq!(runs[0].2, 0, "{name}: the inline run used the pool");
    assert!(runs[1].2 > 0, "{name}: the pooled run never used the pool");
}

#[test]
fn connected_components_agree_inline_and_pooled() {
    let graph = graph();
    agree("cc", |env, ft| {
        let config =
            CcConfig { parallelism: PARALLELISM, ft, track_truth: false, ..Default::default() };
        let built = cc::build(env, &graph, &config).unwrap();
        let mut labels = built.result.collect().unwrap();
        labels.sort_unstable();
        assert!(built.stats.take().unwrap().converged);
        assert_eq!(labels.len(), VERTICES);
        labels
    });
}

#[test]
fn sssp_agrees_inline_and_pooled() {
    let graph = graph();
    agree("sssp", |env, ft| {
        let config =
            SsspConfig { parallelism: PARALLELISM, ft, track_truth: false, ..Default::default() };
        let result = sssp::run_in(env, &graph, &config).unwrap();
        assert!(result.stats.converged);
        result.distances
    });
}

#[test]
fn reachability_agrees_inline_and_pooled() {
    let graph = graph();
    agree("reach", |env, ft| {
        let config = ReachConfig {
            parallelism: PARALLELISM,
            seeds: vec![0, 7_777],
            ft,
            track_truth: false,
            ..Default::default()
        };
        let result = reach::run_in(env, &graph, &config).unwrap();
        assert!(result.stats.converged);
        result.reached
    });
}

#[test]
fn pagerank_agrees_bitwise_inline_and_pooled() {
    let graph = graph();
    agree("pagerank", |env, ft| {
        let config =
            PrConfig { parallelism: PARALLELISM, ft, track_truth: false, ..Default::default() };
        let built = pr::build(env, &graph, &config).unwrap();
        let mut ranks = built.result.collect().unwrap();
        ranks.sort_by_key(|r| r.0);
        ranks.into_iter().map(|(v, rank)| (v, rank.to_bits())).collect::<Vec<_>>()
    });
}
