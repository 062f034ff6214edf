//! Cross-strategy equivalence: every *correct* recovery strategy
//! (optimistic, checkpoint — memory and disk backed — and restart) must
//! produce the same result as the failure-free run, on every algorithm.

use algos::connected_components::{self, CcConfig};
use algos::jacobi::{self, JacobiConfig};
use algos::pagerank::{self, PrConfig};
use algos::sssp::{self, SsspConfig};
use algos::FtConfig;
use recovery::checkpoint::CostModel;
use recovery::scenario::FailureScenario;
use recovery::strategy::Strategy;

fn fts(scenario: FailureScenario) -> Vec<FtConfig> {
    vec![
        FtConfig::optimistic(scenario.clone()),
        FtConfig::checkpoint(2, scenario.clone()),
        FtConfig::checkpoint(3, scenario.clone()).with_disk_checkpoints(true),
        FtConfig::restart(scenario),
    ]
}

/// Delta iterations additionally support incremental checkpointing.
fn delta_fts(scenario: FailureScenario) -> Vec<FtConfig> {
    let mut all = fts(scenario.clone());
    all.push(FtConfig {
        strategy: Strategy::IncrementalCheckpoint { full_interval: 4 },
        scenario,
        ..FtConfig::optimistic(FailureScenario::none())
    });
    all
}

#[test]
fn cc_labels_identical_across_strategies() {
    let graph = graphs::generators::random_components(4, 4..12, 0.25, 3);
    let baseline = connected_components::run(&graph, &CcConfig::default()).unwrap();
    for ft in delta_fts(FailureScenario::none().fail_at(2, &[0, 2])) {
        let label = ft.label();
        let config = CcConfig { ft, ..Default::default() };
        let result = connected_components::run(&graph, &config).unwrap();
        assert_eq!(result.labels, baseline.labels, "{label}");
        assert_eq!(result.stats.failures().count(), 1, "{label}");
    }
}

#[test]
fn sssp_distances_identical_across_strategies() {
    let graph = graphs::generators::grid(6, 6);
    let baseline = sssp::run(&graph, &SsspConfig::default()).unwrap();
    for ft in delta_fts(FailureScenario::none().fail_at(1, &[1])) {
        let label = ft.label();
        let config = SsspConfig { ft, ..Default::default() };
        let result = sssp::run(&graph, &config).unwrap();
        assert_eq!(result.distances, baseline.distances, "{label}");
    }
}

#[test]
fn pagerank_matches_exact_across_strategies() {
    let graph = graphs::generators::preferential_attachment(300, 2, 17);
    for ft in fts(FailureScenario::none().fail_at(4, &[1])) {
        let label = ft.label();
        let config = PrConfig { ft, ..Default::default() };
        let result = pagerank::run(&graph, &config).unwrap();
        assert!(result.stats.converged, "{label}");
        assert!(result.l1_to_exact.unwrap() < 1e-3, "{label}: {:?}", result.l1_to_exact);
        assert!((result.rank_sum - 1.0).abs() < 1e-9, "{label}");
    }
}

#[test]
fn jacobi_solution_unique_across_strategies() {
    let system = jacobi::random_diagonally_dominant(48, 4, 23);
    let reference = system.reference_solution();
    for ft in fts(FailureScenario::none().fail_at(3, &[0])) {
        let label = ft.label();
        let config = JacobiConfig { ft, ..Default::default() };
        let result = jacobi::run(&system, &config).unwrap();
        assert!(result.residual < 1e-8, "{label}: residual {}", result.residual);
        for &(i, v) in &result.solution {
            assert!((v - reference[i as usize]).abs() < 1e-7, "{label}: entry {i}");
        }
    }
}

#[test]
fn repeated_failures_across_strategies_still_converge() {
    let graph = graphs::generators::preferential_attachment(400, 2, 31);
    let scenario = FailureScenario::none().fail_at(1, &[0]).fail_at(4, &[1, 2]).fail_at(6, &[3]);
    let baseline = connected_components::run(&graph, &CcConfig::default()).unwrap();
    for ft in fts(scenario) {
        let label = ft.label();
        let config = CcConfig { ft, ..Default::default() };
        let result = connected_components::run(&graph, &config).unwrap();
        assert_eq!(result.labels, baseline.labels, "{label}");
    }
}

#[test]
fn random_failures_with_fixed_seed_converge() {
    let graph = graphs::generators::preferential_attachment(300, 2, 41);
    let scenario = FailureScenario::none().random(0.6, 2, 1, 99);
    let config =
        CcConfig { ft: FtConfig::optimistic(scenario), max_iterations: 400, ..Default::default() };
    let result = connected_components::run(&graph, &config).unwrap();
    assert_eq!(result.correct, Some(true));
    assert!(result.stats.failures().count() > 0, "p=0.6 must fire at least once");
}

#[test]
fn checkpoint_interval_bounds_redone_work() {
    // After a failure at superstep `f`, rollback recovery re-executes at
    // most `interval` supersteps.
    let graph = graphs::generators::path(40);
    for interval in [1u32, 2, 4] {
        let config = CcConfig {
            ft: FtConfig::checkpoint(interval, FailureScenario::none().fail_at(7, &[0])),
            ..Default::default()
        };
        let result = connected_components::run(&graph, &config).unwrap();
        assert_eq!(result.correct, Some(true));
        let redone = result.stats.supersteps() - result.stats.logical_iterations();
        assert!(redone < interval, "interval {interval}: redone {redone} supersteps");
    }
}

#[test]
fn strategy_descriptor_properties_match_behavior() {
    // Checkpointing pays failure-free overhead in bytes written; optimistic
    // recovery pays none.
    let graph = graphs::generators::demo_components();
    let config = CcConfig {
        ft: FtConfig::checkpoint(1, FailureScenario::none())
            .with_checkpoint_cost(CostModel::instant()),
        ..Default::default()
    };
    let result = connected_components::run(&graph, &config).unwrap();
    assert!(result.stats.total_checkpoint_bytes() > 0, "checkpointing must write bytes");

    let config =
        CcConfig { ft: FtConfig::optimistic(FailureScenario::none()), ..Default::default() };
    let result = connected_components::run(&graph, &config).unwrap();
    assert_eq!(result.stats.total_checkpoint_bytes(), 0, "optimistic writes nothing");
}
