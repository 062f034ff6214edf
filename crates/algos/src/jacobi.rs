//! Jacobi iteration for linear systems as a bulk iteration — an extension
//! algorithm with a *provable* compensation argument.
//!
//! For a strictly diagonally dominant system `A x = b`, the Jacobi update
//! `x_i' = (b_i - Σ_{j≠i} a_ij x_j) / a_ii` is a contraction in the ∞-norm,
//! so it converges to the unique solution from **any** starting vector.
//! Resetting lost entries to the initial guess (zero) therefore preserves
//! convergence exactly — the cleanest instance of the paper's "robust
//! fixpoint" class.

use dataflow::dataset::Partitions;
use dataflow::error::Result;
use dataflow::partition::PartitionId;
use dataflow::prelude::BulkIteration;
use dataflow::stats::RunStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery::compensation::{lost_keys, Compensation};

use crate::common::{self, FtConfig};

/// One matrix row: `(i, b_i, a_ii, off-diagonal entries (j, a_ij))`.
pub type Row = (u64, f64, f64, Vec<(u64, f64)>);

/// A solution entry `(i, x_i)`.
pub type Entry = (u64, f64);

/// A sparse, strictly diagonally dominant linear system.
#[derive(Debug, Clone)]
pub struct LinearSystem {
    /// Matrix rows, one per unknown, indexed by row id.
    pub rows: Vec<Row>,
}

impl LinearSystem {
    /// Number of unknowns.
    pub fn dimension(&self) -> usize {
        self.rows.len()
    }

    /// Maximum absolute residual `|A x - b|_∞` for a candidate solution
    /// given as `x[i]`.
    pub fn residual(&self, x: &[f64]) -> f64 {
        self.rows
            .iter()
            .map(|(i, b, diag, offs)| {
                let mut lhs = diag * x[*i as usize];
                for &(j, a) in offs {
                    lhs += a * x[j as usize];
                }
                (lhs - b).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Reference solution by dense Jacobi iteration to tight tolerance.
    pub fn reference_solution(&self) -> Vec<f64> {
        let n = self.dimension();
        let mut x = vec![0.0f64; n];
        for _ in 0..10_000 {
            let mut next = vec![0.0f64; n];
            for (i, b, diag, offs) in &self.rows {
                let mut sum = 0.0;
                for &(j, a) in offs {
                    sum += a * x[j as usize];
                }
                next[*i as usize] = (b - sum) / diag;
            }
            let delta = x.iter().zip(&next).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            x = next;
            if delta < 1e-14 {
                break;
            }
        }
        x
    }
}

/// Generate a random strictly diagonally dominant system with about
/// `off_per_row` off-diagonal entries per row.
pub fn random_diagonally_dominant(n: usize, off_per_row: usize, seed: u64) -> LinearSystem {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n as u64)
        .map(|i| {
            let mut offs: Vec<(u64, f64)> = Vec::with_capacity(off_per_row);
            while offs.len() < off_per_row.min(n - 1) {
                let j = rng.gen_range(0..n as u64);
                if j != i && !offs.iter().any(|&(jj, _)| jj == j) {
                    offs.push((j, rng.gen_range(-1.0..1.0)));
                }
            }
            let dominance: f64 =
                offs.iter().map(|&(_, a)| a.abs()).sum::<f64>() + 1.0 + rng.gen::<f64>();
            let b = rng.gen_range(-10.0..10.0);
            (i, b, dominance, offs)
        })
        .collect();
    LinearSystem { rows }
}

/// Configuration of a Jacobi run.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Stop once no entry moves by more than this between iterations.
    pub epsilon: f64,
    /// Recovery strategy and failure scenario.
    pub ft: FtConfig,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            parallelism: 4,
            max_iterations: 500,
            epsilon: 1e-10,
            ft: FtConfig::default(),
        }
    }
}

/// Result of a Jacobi run.
#[derive(Debug, Clone)]
pub struct JacobiResult {
    /// Final `(i, x_i)` entries, sorted by index.
    pub solution: Vec<Entry>,
    /// Maximum absolute residual of the final solution.
    pub residual: f64,
    /// Per-superstep engine statistics.
    pub stats: RunStats,
}

/// Compensation for Jacobi: reset lost entries to the initial guess (zero).
pub struct FixSolution {
    dimension: usize,
    parallelism: usize,
}

impl FixSolution {
    /// Compensation for a system of the given dimension.
    pub fn new(dimension: usize, parallelism: usize) -> Self {
        FixSolution { dimension, parallelism }
    }
}

impl Compensation<Partitions<Entry>> for FixSolution {
    fn compensate(&mut self, state: &mut Partitions<Entry>, lost: &[PartitionId], _iteration: u32) {
        for (i, pid) in lost_keys(self.dimension as u64, self.parallelism, lost) {
            state.partition_mut(pid).push((i, 0.0));
        }
    }

    fn name(&self) -> &str {
        "FixSolution"
    }
}

/// Solve a strictly diagonally dominant system with distributed Jacobi.
pub fn run(system: &LinearSystem, config: &JacobiConfig) -> Result<JacobiResult> {
    let n = system.dimension();
    let env = crate::common::environment(config.parallelism, &config.ft);
    let initial: Vec<Entry> = (0..n as u64).map(|i| (i, 0.0)).collect();
    let x0 = env.from_keyed_vec(initial, |e| e.0);
    let rows_ds = env.from_keyed_vec(system.rows.clone(), |r: &Row| r.0);

    let mut iteration = BulkIteration::new(&x0, config.max_iterations);
    iteration.set_fault_handler(common::bulk_handler(
        &config.ft,
        FixSolution::new(n, config.parallelism),
    )?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Convergence norm: L1 movement of the solution vector; entries moving
    // more than epsilon count as changed (the termination metric).
    let probe_epsilon = config.epsilon;
    iteration.set_convergence_probe(common::keyed_bulk_probe(
        |e: &Entry| e.0,
        |old, new| old.map_or_else(|| new.1.abs(), |o| (new.1 - o.1).abs()),
        probe_epsilon,
    ));

    let rows_in = iteration.import(&rows_ds);
    let x = iteration.state();

    // Scatter the matrix entries, pair each with the current x_j...
    let entries = rows_in.flat_map("matrix-entries", |(i, _, _, offs): &Row| {
        offs.iter().map(|&(j, a)| (*i, j, a)).collect::<Vec<_>>()
    });
    let products = entries
        .join(
            "multiply",
            &x,
            |e: &(u64, u64, f64)| e.1,
            |xe: &Entry| xe.0,
            |e, xe| (e.0, e.2 * xe.1),
        )
        .measured(common::MESSAGES);
    // ...sum per row...
    let row_sums = products.reduce_by_key("row-sums", |p: &Entry| p.0, |a, b| (a.0, a.1 + b.1));
    // ...and apply the Jacobi update (rows with no off-diagonals get sum 0).
    let next = rows_in.co_group(
        "jacobi-update",
        &row_sums,
        |r: &Row| r.0,
        |s: &Entry| s.0,
        |&i, rows, sums| {
            let (_, b, diag, _) = rows.first().expect("every row id is a matrix row");
            let sum = sums.first().map_or(0.0, |s| s.1);
            vec![(i, (b - sum) / diag)]
        },
    );
    let epsilon = config.epsilon;
    let moving = next
        .join("compare-to-old", &x, |a: &Entry| a.0, |b: &Entry| b.0, |a, b| (a.1 - b.1).abs())
        .filter("still-moving", move |d| *d > epsilon);
    let (result, handle) = iteration.close_with_termination(next, moving);

    let mut solution = result.collect()?;
    solution.sort_by_key(|a| a.0);
    let stats = handle.take().expect("iteration executed");
    let mut dense = vec![0.0f64; n];
    for &(i, v) in &solution {
        dense[i as usize] = v;
    }
    let residual = system.residual(&dense);
    Ok(JacobiResult { solution, residual, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery::scenario::FailureScenario;
    use recovery::strategy::Strategy;

    #[test]
    fn solves_a_small_system_exactly() {
        // 4x + y = 9, x + 5y = 11  =>  x = 34/19, y = 35/19... verify by residual.
        let system = LinearSystem {
            rows: vec![(0, 9.0, 4.0, vec![(1, 1.0)]), (1, 11.0, 5.0, vec![(0, 1.0)])],
        };
        let result = run(&system, &JacobiConfig::default()).unwrap();
        assert!(result.stats.converged);
        assert!(result.residual < 1e-8, "residual {}", result.residual);
    }

    #[test]
    fn solves_random_dominant_systems() {
        let system = random_diagonally_dominant(64, 4, 13);
        let result = run(&system, &JacobiConfig::default()).unwrap();
        assert!(result.stats.converged);
        assert!(result.residual < 1e-8, "residual {}", result.residual);
        let reference = system.reference_solution();
        for &(i, v) in &result.solution {
            assert!((v - reference[i as usize]).abs() < 1e-8);
        }
    }

    #[test]
    fn optimistic_recovery_reaches_the_same_solution() {
        let system = random_diagonally_dominant(64, 4, 13);
        let failure_free = run(&system, &JacobiConfig::default()).unwrap();
        let config = JacobiConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(3, &[0]).fail_at(8, &[1, 2])),
            ..Default::default()
        };
        let result = run(&system, &config).unwrap();
        assert!(result.stats.converged);
        assert_eq!(result.stats.failures().count(), 2);
        assert!(result.residual < 1e-8, "residual {}", result.residual);
        for (a, b) in result.solution.iter().zip(&failure_free.solution) {
            assert!((a.1 - b.1).abs() < 1e-7, "{a:?} vs {b:?}");
        }
        // Compensation resets part of the state, so convergence takes longer.
        assert!(result.stats.supersteps() >= failure_free.stats.supersteps());
    }

    #[test]
    fn all_strategies_converge_to_the_unique_solution() {
        // Even Ignore: the bulk recomputation regenerates every entry from
        // the (loop-invariant) matrix rows, and the contraction converges
        // from the implicitly-zeroed state. The cost is accuracy *per time*,
        // not correctness — this is exactly the "self-stabilising" end of
        // the paper's algorithm spectrum.
        let system = random_diagonally_dominant(32, 3, 5);
        for strategy in [
            Strategy::Optimistic,
            Strategy::Checkpoint { interval: 5 },
            Strategy::Restart,
            Strategy::Ignore,
        ] {
            let config = JacobiConfig {
                ft: FtConfig {
                    strategy,
                    scenario: FailureScenario::none().fail_at(4, &[1]),
                    ..Default::default()
                },
                ..Default::default()
            };
            let result = run(&system, &config).unwrap();
            assert!(result.residual < 1e-8, "strategy {strategy:?}: residual {}", result.residual);
        }
    }

    #[test]
    fn generator_is_dominant_and_seeded() {
        let a = random_diagonally_dominant(20, 3, 99);
        let b = random_diagonally_dominant(20, 3, 99);
        assert_eq!(a.rows.len(), b.rows.len());
        for ((i1, b1, d1, o1), (i2, b2, d2, o2)) in a.rows.iter().zip(&b.rows) {
            assert_eq!((i1, o1), (i2, o2));
            assert_eq!(b1, b2);
            assert_eq!(d1, d2);
            let off_sum: f64 = o1.iter().map(|&(_, v)| v.abs()).sum();
            assert!(*d1 > off_sum, "row {i1} not dominant");
        }
    }

    #[test]
    fn residual_of_reference_is_tiny() {
        let system = random_diagonally_dominant(48, 4, 3);
        let reference = system.reference_solution();
        assert!(system.residual(&reference) < 1e-10);
    }
}
