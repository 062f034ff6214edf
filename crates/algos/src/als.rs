//! Low-rank matrix factorisation with Alternating Least Squares (ALS) as a
//! bulk iteration — the third algorithm class evaluated for optimistic
//! recovery in the underlying CIKM 2013 paper ("All Roads Lead to Rome").
//!
//! Given sparse ratings `R[u, i]`, find rank-`k` factors `P` (users) and
//! `Q` (items) minimising `Σ (r - p_u · q_i)² + λ(‖P‖² + ‖Q‖²)`. Every
//! superstep performs one full ALS sweep: users are re-solved against the
//! current item factors, then items against the *new* user factors — each
//! step solves a small `k × k` ridge-regression system per row, so a sweep
//! never increases the objective.
//!
//! **Compensation (`FixFactors`)**: a failure destroys the factor vectors of
//! the rows hashed to the lost partitions. Re-initialising them with their
//! deterministic starting vectors leaves a valid factor model; subsequent
//! sweeps monotonically reduce the objective again, so the run converges to
//! a local optimum of the same quality as a failure-free run.

use dataflow::dataset::Partitions;
use dataflow::error::Result;
use dataflow::partition::PartitionId;
use dataflow::prelude::BulkIteration;
use dataflow::stats::RunStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery::compensation::{lost_keys, Compensation};

use crate::common::{self, FtConfig};

/// One observed rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// User index (`0..num_users`).
    pub user: u64,
    /// Item index (`0..num_items`).
    pub item: u64,
    /// Observed value.
    pub value: f64,
}

/// A factor row: node id plus its latent vector. Users occupy ids
/// `0..num_users`, items are shifted to `num_users..num_users+num_items`.
pub type FactorRow = (u64, Vec<f64>);

/// Configuration of an ALS run.
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Number of full ALS sweeps (each superstep = one sweep).
    pub sweeps: u32,
    /// Latent factor dimensionality.
    pub rank: usize,
    /// Ridge regularisation λ.
    pub lambda: f64,
    /// Seed for the deterministic factor initialisation.
    pub seed: u64,
    /// Recovery strategy and failure scenario.
    pub ft: FtConfig,
}

impl Default for AlsConfig {
    fn default() -> Self {
        AlsConfig {
            parallelism: 4,
            sweeps: 12,
            rank: 6,
            lambda: 0.05,
            seed: 7,
            ft: FtConfig::default(),
        }
    }
}

/// Result of an ALS run.
#[derive(Debug, Clone)]
pub struct AlsResult {
    /// User factor rows, sorted by user id.
    pub user_factors: Vec<FactorRow>,
    /// Item factor rows, sorted by item id (ids shifted back to `0..`).
    pub item_factors: Vec<FactorRow>,
    /// Root-mean-square error over the training ratings.
    pub rmse: f64,
    /// Per-superstep engine statistics (gauge `rmse` tracks the sweep-wise
    /// training error).
    pub stats: RunStats,
}

/// Deterministic initial factor vector for a node — shared by the
/// initialisation and the compensation so recovery is exactly a reset.
pub fn initial_factors(node: u64, rank: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..rank).map(|_| rng.gen_range(0.1..1.0) / rank as f64 * 4.0).collect()
}

/// Solve the `k × k` ridge system `(A + λ n I) x = b` by Gaussian
/// elimination with partial pivoting. `A` is symmetric positive
/// semi-definite (a Gram matrix), so the system is well conditioned for
/// λ > 0.
fn solve_ridge(mut a: Vec<Vec<f64>>, mut b: Vec<f64>, lambda: f64, n: usize) -> Vec<f64> {
    let k = b.len();
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += lambda * n.max(1) as f64;
    }
    for col in 0..k {
        // Partial pivot.
        let pivot = (col..k)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .expect("non-empty column");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        debug_assert!(diag.abs() > 1e-12, "ridge system is singular");
        for row in (col + 1)..k {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            let pivot_row = a[col].clone();
            for (entry, pivot) in a[row][col..k].iter_mut().zip(&pivot_row[col..k]) {
                *entry -= factor * pivot;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; k];
    for row in (0..k).rev() {
        let mut sum = b[row];
        for col in (row + 1)..k {
            sum -= a[row][col] * x[col];
        }
        x[row] = sum / a[row][row];
    }
    x
}

/// One half-sweep: re-solve the factors of the target rows against the
/// fixed factors of their rated counterparts. Counterparts missing from
/// `fixed` (lost in an uncompensated failure) are skipped; a target with no
/// surviving counterparts keeps its `previous` factors, or zero.
fn solve_side(
    ratings: &[(u64, u64, f64)], // (target, counterpart, value)
    fixed: &dataflow::hash::FxHashMap<u64, Vec<f64>>,
    previous: &dataflow::hash::FxHashMap<u64, Vec<f64>>,
    rank: usize,
    lambda: f64,
) -> Vec<FactorRow> {
    use dataflow::hash::FxHashMap;
    let mut grouped: FxHashMap<u64, Vec<(u64, f64)>> = FxHashMap::default();
    for &(target, counterpart, value) in ratings {
        grouped.entry(target).or_default().push((counterpart, value));
    }
    let mut out: Vec<FactorRow> = grouped
        .into_iter()
        .map(|(target, observed)| {
            let mut gram = vec![vec![0.0; rank]; rank];
            let mut rhs = vec![0.0; rank];
            let mut used = 0usize;
            for (counterpart, value) in &observed {
                let Some(q) = fixed.get(counterpart) else { continue };
                used += 1;
                for r in 0..rank {
                    rhs[r] += value * q[r];
                    for c in 0..rank {
                        gram[r][c] += q[r] * q[c];
                    }
                }
            }
            if used == 0 {
                // All counterparts were lost: keep the previous factors.
                let kept = previous.get(&target).cloned().unwrap_or_else(|| vec![0.0; rank]);
                return (target, kept);
            }
            (target, solve_ridge(gram, rhs, lambda, used))
        })
        .collect();
    out.sort_by_key(|r| r.0);
    out
}

/// Compensation for ALS: reset lost factor rows to their deterministic
/// initial vectors.
pub struct FixFactors {
    num_nodes: u64,
    rank: usize,
    seed: u64,
    parallelism: usize,
}

impl FixFactors {
    /// Compensation over `num_nodes` factor rows.
    pub fn new(num_nodes: u64, rank: usize, seed: u64, parallelism: usize) -> Self {
        FixFactors { num_nodes, rank, seed, parallelism }
    }
}

impl Compensation<Partitions<FactorRow>> for FixFactors {
    fn compensate(
        &mut self,
        state: &mut Partitions<FactorRow>,
        lost: &[PartitionId],
        _iteration: u32,
    ) {
        for (node, pid) in lost_keys(self.num_nodes, self.parallelism, lost) {
            state.partition_mut(pid).push((node, initial_factors(node, self.rank, self.seed)));
        }
    }

    fn name(&self) -> &str {
        "FixFactors"
    }
}

/// The regularised ALS objective (what a sweep provably never increases):
/// `Σ (r - p_u · q_i)² + λ Σ_u n_u ‖p_u‖² + λ Σ_i n_i ‖q_i‖²`
/// with the weighted-λ (ALS-WR) regularisation this implementation solves.
pub fn objective(ratings: &[Rating], users: &[FactorRow], items: &[FactorRow], lambda: f64) -> f64 {
    use dataflow::hash::FxHashMap;
    let user_map: FxHashMap<u64, &Vec<f64>> = users.iter().map(|(id, f)| (*id, f)).collect();
    let item_map: FxHashMap<u64, &Vec<f64>> = items.iter().map(|(id, f)| (*id, f)).collect();
    let mut user_counts: FxHashMap<u64, usize> = FxHashMap::default();
    let mut item_counts: FxHashMap<u64, usize> = FxHashMap::default();
    let mut error = 0.0;
    for r in ratings {
        *user_counts.entry(r.user).or_insert(0) += 1;
        *item_counts.entry(r.item).or_insert(0) += 1;
        let (Some(p), Some(q)) = (user_map.get(&r.user), item_map.get(&r.item)) else { continue };
        let predicted: f64 = p.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
        error += (predicted - r.value).powi(2);
    }
    let mut penalty = 0.0;
    for (id, count) in user_counts {
        if let Some(p) = user_map.get(&id) {
            penalty += count as f64 * p.iter().map(|v| v * v).sum::<f64>();
        }
    }
    for (id, count) in item_counts {
        if let Some(q) = item_map.get(&id) {
            penalty += count as f64 * q.iter().map(|v| v * v).sum::<f64>();
        }
    }
    error + lambda * penalty
}

/// Root-mean-square error of a factor model over `ratings`.
pub fn rmse(ratings: &[Rating], users: &[FactorRow], items: &[FactorRow]) -> f64 {
    use dataflow::hash::FxHashMap;
    let users: FxHashMap<u64, &Vec<f64>> = users.iter().map(|(id, f)| (*id, f)).collect();
    let items: FxHashMap<u64, &Vec<f64>> = items.iter().map(|(id, f)| (*id, f)).collect();
    let mut error = 0.0;
    for r in ratings {
        let (Some(p), Some(q)) = (users.get(&r.user), items.get(&r.item)) else { continue };
        let predicted: f64 = p.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
        error += (predicted - r.value).powi(2);
    }
    (error / ratings.len().max(1) as f64).sqrt()
}

/// Generate a synthetic low-rank rating matrix: ground-truth factors drawn
/// uniformly, `per_user` observed items per user, Gaussian-ish noise.
pub fn generate_ratings(
    num_users: u64,
    num_items: u64,
    per_user: usize,
    rank: usize,
    noise: f64,
    seed: u64,
) -> Vec<Rating> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth_user: Vec<Vec<f64>> =
        (0..num_users).map(|_| (0..rank).map(|_| rng.gen_range(0.2..1.0)).collect()).collect();
    let truth_item: Vec<Vec<f64>> =
        (0..num_items).map(|_| (0..rank).map(|_| rng.gen_range(0.2..1.0)).collect()).collect();
    let mut ratings = Vec::with_capacity(num_users as usize * per_user);
    for user in 0..num_users {
        for _ in 0..per_user {
            let item = rng.gen_range(0..num_items);
            let clean: f64 = truth_user[user as usize]
                .iter()
                .zip(&truth_item[item as usize])
                .map(|(a, b)| a * b)
                .sum();
            let jitter = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5) * noise;
            ratings.push(Rating { user, item, value: clean + jitter });
        }
    }
    ratings
}

/// Run ALS over the given ratings.
///
/// # Panics
/// Panics when `ratings` is empty or `rank` is zero.
pub fn run(ratings: &[Rating], config: &AlsConfig) -> Result<AlsResult> {
    assert!(!ratings.is_empty(), "ALS needs ratings");
    assert!(config.rank > 0, "rank must be positive");
    let num_users = ratings.iter().map(|r| r.user).max().unwrap_or(0) + 1;
    let num_items = ratings.iter().map(|r| r.item).max().unwrap_or(0) + 1;
    let num_nodes = num_users + num_items;
    let rank = config.rank;
    let lambda = config.lambda;

    let env = crate::common::environment(config.parallelism, &config.ft);
    let initial: Vec<FactorRow> =
        (0..num_nodes).map(|node| (node, initial_factors(node, rank, config.seed))).collect();
    let factors0 = env.from_keyed_vec(initial, |r| r.0);
    // Ratings as (user_node, item_node, value) with shifted item ids,
    // co-partitioned once per half-sweep direction: every user's ratings
    // live in a single partition of `by_user`, every item's in a single
    // partition of `by_item` — so each least-squares solve sees *all* the
    // observations of its row and a sweep is exact ALS.
    let triples: Vec<(u64, u64, f64)> =
        ratings.iter().map(|r| (r.user, num_users + r.item, r.value)).collect();
    let swapped: Vec<(u64, u64, f64)> = triples.iter().map(|&(u, i, v)| (i, u, v)).collect();
    let by_user_ds = env.from_keyed_vec(triples, |t| t.0);
    let by_item_ds = env.from_keyed_vec(swapped, |t| t.0);

    let mut iteration = BulkIteration::new(&factors0, config.sweeps);
    iteration.set_fault_handler(common::bulk_handler(
        &config.ft,
        FixFactors::new(num_nodes, rank, config.seed, config.parallelism),
    )?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Convergence norm: L1 movement of the factor matrices; any row that
    // moved at all counts as changed (ALS sweeps touch every row).
    iteration.set_convergence_probe(common::keyed_bulk_probe(
        |f: &FactorRow| f.0,
        |old, new| match old {
            Some(o) => new.1.iter().zip(&o.1).map(|(a, b)| (a - b).abs()).sum(),
            None => new.1.iter().map(|a| a.abs()).sum(),
        },
        0.0,
    ));

    // Observer: training RMSE + regularised objective per sweep.
    let observer_ratings = ratings.to_vec();
    iteration.set_observer(move |_iter, state: &Partitions<FactorRow>, stats| {
        let mut users = Vec::new();
        let mut items = Vec::new();
        for (node, factors) in state.iter_records() {
            if *node < num_users {
                users.push((*node, factors.clone()));
            } else {
                items.push((*node - num_users, factors.clone()));
            }
        }
        stats.gauges.insert("rmse".into(), rmse(&observer_ratings, &users, &items));
        stats
            .gauges
            .insert("objective".into(), objective(&observer_ratings, &users, &items, lambda));
    });

    let by_user = iteration.import(&by_user_ds);
    let by_item = iteration.import(&by_item_ds);
    let factors = iteration.state();

    // One full ALS sweep per superstep. The per-row least-squares solves
    // need the whole fixed side, so each half-sweep broadcasts the factor
    // matrix to the rating partitions — exactly how distributed ALS
    // implementations replicate the smaller factor matrix.
    let new_users = by_user
        .map_partition(
            "group-user-ratings",
            |_, records: &[(u64, u64, f64)]| vec![records.to_vec()],
        )
        .map_with_broadcast(
            "solve-users",
            &factors,
            move |partition_ratings: &Vec<(u64, u64, f64)>, all_factors: &[FactorRow]| {
                use dataflow::hash::FxHashMap;
                let fixed: FxHashMap<u64, Vec<f64>> = all_factors.iter().cloned().collect();
                solve_side(partition_ratings, &fixed, &fixed, rank, lambda)
            },
        )
        .flat_map("emit-user-rows", |rows: &Vec<FactorRow>| rows.clone());
    // Half-sweep 2: items against the *new* user factors.
    let new_items = by_item
        .map_partition(
            "group-item-ratings",
            |_, records: &[(u64, u64, f64)]| vec![records.to_vec()],
        )
        .map_with_broadcast(
            "solve-items",
            &new_users,
            move |partition_ratings: &Vec<(u64, u64, f64)>, new_users: &[FactorRow]| {
                use dataflow::hash::FxHashMap;
                let fixed: FxHashMap<u64, Vec<f64>> = new_users.iter().cloned().collect();
                solve_side(partition_ratings, &fixed, &FxHashMap::default(), rank, lambda)
            },
        )
        .flat_map("emit-item-rows", |rows: &Vec<FactorRow>| rows.clone());
    let next = new_users
        .union("collect-rows", &new_items)
        .measured(common::MESSAGES)
        // Nodes without any rating keep their previous factors.
        .co_group(
            "keep-unrated",
            &factors,
            |n: &FactorRow| n.0,
            |o: &FactorRow| o.0,
            |&node, new, old| {
                let factors = new
                    .first()
                    .map(|(_, f)| f.clone())
                    .or_else(|| old.first().map(|(_, f)| f.clone()))
                    .expect("node present on one side");
                vec![(node, factors)]
            },
        );
    let (result, handle) = iteration.close(next);

    let rows = result.collect()?;
    let stats = handle.take().expect("iteration executed");
    let mut user_factors = Vec::new();
    let mut item_factors = Vec::new();
    for (node, factors) in rows {
        if node < num_users {
            user_factors.push((node, factors));
        } else {
            item_factors.push((node - num_users, factors));
        }
    }
    user_factors.sort_by_key(|r| r.0);
    item_factors.sort_by_key(|r| r.0);
    let rmse = rmse(ratings, &user_factors, &item_factors);
    Ok(AlsResult { user_factors, item_factors, rmse, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery::scenario::FailureScenario;

    fn training_data() -> Vec<Rating> {
        generate_ratings(40, 30, 12, 4, 0.02, 11)
    }

    #[test]
    fn factorizes_synthetic_low_rank_data() {
        let ratings = training_data();
        let result = run(&ratings, &AlsConfig::default()).unwrap();
        assert!(result.rmse < 0.1, "rmse {}", result.rmse);
        assert!(result.stats.converged);
        assert_eq!(result.user_factors.len(), 40);
        assert_eq!(result.item_factors.len(), 30);
    }

    #[test]
    fn objective_decreases_monotonically_without_failures() {
        // A full ALS sweep never increases the *regularised* objective (the
        // raw RMSE may tick up slightly as regularisation trades fit for
        // smaller norms).
        let ratings = training_data();
        let result = run(&ratings, &AlsConfig::default()).unwrap();
        let series = result.stats.gauge_series("objective");
        for window in series.windows(2) {
            assert!(
                window[1] <= window[0] + 1e-9,
                "ALS sweeps must not increase the objective: {series:?}"
            );
        }
    }

    #[test]
    fn optimistic_recovery_reaches_comparable_quality() {
        let ratings = training_data();
        let failure_free = run(&ratings, &AlsConfig::default()).unwrap();
        let config = AlsConfig {
            sweeps: 20,
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(5, &[0, 1])),
            ..Default::default()
        };
        let result = run(&ratings, &config).unwrap();
        assert_eq!(result.stats.failures().count(), 1);
        assert!(
            result.rmse < 2.0 * failure_free.rmse.max(0.02),
            "recovered rmse {} vs failure-free {}",
            result.rmse,
            failure_free.rmse
        );
        // The RMSE gauge spikes at the failure, then decays again.
        let series = result.stats.gauge_series("rmse");
        assert!(series[5] > series[4], "compensation must disturb the model: {series:?}");
        assert!(series.last().unwrap() < &series[5]);
    }

    #[test]
    fn checkpoint_recovery_matches_failure_free_exactly() {
        let ratings = training_data();
        let failure_free = run(&ratings, &AlsConfig::default()).unwrap();
        let config = AlsConfig {
            ft: FtConfig::checkpoint(1, FailureScenario::none().fail_at(4, &[1])),
            ..Default::default()
        };
        let result = run(&ratings, &config).unwrap();
        assert!((result.rmse - failure_free.rmse).abs() < 1e-9);
    }

    #[test]
    fn initial_factors_are_deterministic_and_distinct() {
        assert_eq!(initial_factors(3, 4, 9), initial_factors(3, 4, 9));
        assert_ne!(initial_factors(3, 4, 9), initial_factors(4, 4, 9));
        assert_eq!(initial_factors(0, 6, 1).len(), 6);
    }

    #[test]
    fn ridge_solver_solves_known_system() {
        // (A + 0) x = b with A = [[2, 0], [0, 4]], b = [2, 8] -> x = [1, 2].
        let x = solve_ridge(vec![vec![2.0, 0.0], vec![0.0, 4.0]], vec![2.0, 8.0], 0.0, 0);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
        // Regularisation pulls the solution towards zero.
        let regularized =
            solve_ridge(vec![vec![2.0, 0.0], vec![0.0, 4.0]], vec![2.0, 8.0], 10.0, 1);
        assert!(regularized[0] < 1.0 && regularized[1] < 2.0);
    }

    #[test]
    fn generator_is_seeded() {
        assert_eq!(training_data(), training_data());
    }
}
