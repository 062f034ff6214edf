//! k-means clustering (Lloyd's algorithm) as a bulk iteration — an
//! extension algorithm demonstrating optimistic recovery beyond graphs.
//!
//! The iteration state is the set of centroids, partitioned by centroid id.
//! Every superstep each point is assigned to its nearest centroid, cluster
//! sums are reduced, and centroids move to their cluster means; the
//! iteration stops once no centroid moves by more than `epsilon`.
//!
//! **Compensation (`FixCentroids`)**: a failure destroys the centroids
//! hashed to the lost partitions. Lloyd's algorithm converges from *any*
//! centroid configuration (the objective is non-increasing), so the
//! compensation re-seeds every lost centroid deterministically near the
//! global point mean, slightly offset per centroid id so re-seeded
//! centroids don't coincide.

use dataflow::dataset::Partitions;
use dataflow::error::Result;
use dataflow::partition::PartitionId;
use dataflow::prelude::BulkIteration;
use dataflow::stats::RunStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery::compensation::{lost_keys, Compensation};

use crate::common::{self, FtConfig};

/// A point in the plane.
pub type Point = (f64, f64);

/// A centroid record: `(centroid id, x, y)`.
pub type Centroid = (u64, f64, f64);

/// Configuration of a k-means run.
#[derive(Debug, Clone)]
pub struct KmConfig {
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Number of clusters.
    pub k: usize,
    /// Stop once no centroid moves farther than this (Euclidean).
    pub epsilon: f64,
    /// Recovery strategy and failure scenario.
    pub ft: FtConfig,
}

impl Default for KmConfig {
    fn default() -> Self {
        KmConfig {
            parallelism: 4,
            max_iterations: 100,
            k: 4,
            epsilon: 1e-6,
            ft: FtConfig::default(),
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KmResult {
    /// Final centroids, sorted by id. Always exactly `k` of them.
    pub centroids: Vec<Centroid>,
    /// Sum of squared distances of every point to its nearest centroid.
    pub objective: f64,
    /// Per-superstep engine statistics.
    pub stats: RunStats,
}

/// Generate `k` Gaussian-ish blobs of `per_cluster` points each.
pub fn generate_blobs(k: usize, per_cluster: usize, spread: f64, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(k * per_cluster);
    for cluster in 0..k {
        let angle = cluster as f64 / k as f64 * std::f64::consts::TAU;
        let (cx, cy) = (10.0 * angle.cos(), 10.0 * angle.sin());
        for _ in 0..per_cluster {
            // Sum of three uniforms approximates a Gaussian well enough.
            let jitter = |rng: &mut StdRng| {
                (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5) * spread
            };
            points.push((cx + jitter(&mut rng), cy + jitter(&mut rng)));
        }
    }
    points
}

/// Sum of squared distances of each point to its nearest centroid.
pub fn objective(points: &[Point], centroids: &[Centroid]) -> f64 {
    points
        .iter()
        .map(|&(px, py)| {
            centroids
                .iter()
                .map(|&(_, cx, cy)| (px - cx).powi(2) + (py - cy).powi(2))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Compensation for k-means: re-seed lost centroids near the global mean.
pub struct FixCentroids {
    mean: Point,
    extent: f64,
    k: usize,
    parallelism: usize,
}

impl FixCentroids {
    /// Compensation over the given point set.
    pub fn new(points: &[Point], k: usize, parallelism: usize) -> Self {
        assert!(!points.is_empty(), "k-means needs points");
        let n = points.len() as f64;
        let mean = (
            points.iter().map(|p| p.0).sum::<f64>() / n,
            points.iter().map(|p| p.1).sum::<f64>() / n,
        );
        let extent = points
            .iter()
            .map(|&(x, y)| (x - mean.0).abs().max((y - mean.1).abs()))
            .fold(0.0, f64::max)
            .max(1e-9);
        FixCentroids { mean, extent, k, parallelism }
    }
}

impl Compensation<Partitions<Centroid>> for FixCentroids {
    fn compensate(
        &mut self,
        state: &mut Partitions<Centroid>,
        lost: &[PartitionId],
        _iteration: u32,
    ) {
        for (cid, pid) in lost_keys(self.k as u64, self.parallelism, lost) {
            // Deterministic re-seed: spiral the lost centroids around the
            // global mean so they start distinct and inside the data extent.
            let angle = (cid as f64 + 0.5) / self.k as f64 * std::f64::consts::TAU;
            let radius = 0.25 * self.extent * (1.0 + cid as f64 / self.k as f64);
            state.partition_mut(pid).push((
                cid,
                self.mean.0 + radius * angle.cos(),
                self.mean.1 + radius * angle.sin(),
            ));
        }
    }

    fn name(&self) -> &str {
        "FixCentroids"
    }
}

/// Run k-means over `points`.
///
/// # Panics
/// Panics when `k` is zero or there are fewer points than clusters.
pub fn run(points: &[Point], config: &KmConfig) -> Result<KmResult> {
    assert!(config.k > 0, "k must be positive");
    assert!(points.len() >= config.k, "need at least k points");
    let env = crate::common::environment(config.parallelism, &config.ft);
    let k = config.k;

    // Deterministic initial centroids: the first point of each of k equal
    // chunks of the input. (Taking the first k points is degenerate for
    // clustered inputs, where list neighbours are spatial neighbours.)
    let initial: Vec<Centroid> = (0..k)
        .map(|cid| {
            let (x, y) = points[cid * points.len() / k];
            (cid as u64, x, y)
        })
        .collect();
    let centroids0 = env.from_keyed_vec(initial, |c| c.0);
    let points_ds = env.from_vec(points.to_vec());

    let mut iteration = BulkIteration::new(&centroids0, config.max_iterations);
    iteration.set_fault_handler(common::bulk_handler(
        &config.ft,
        FixCentroids::new(points, k, config.parallelism),
    )?);
    iteration.set_failure_source(config.ft.scenario.to_source());
    // Convergence norm: summed centroid movement; a centroid moving more
    // than epsilon counts as changed (the termination criterion's metric).
    let probe_epsilon = config.epsilon;
    iteration.set_convergence_probe(common::keyed_bulk_probe(
        |c: &Centroid| c.0,
        |old, new| match old {
            Some(o) => ((new.1 - o.1).powi(2) + (new.2 - o.2).powi(2)).sqrt(),
            None => (new.1.powi(2) + new.2.powi(2)).sqrt(),
        },
        probe_epsilon,
    ));

    let points_in = iteration.import(&points_ds);
    let centroids = iteration.state();

    // Assign each point to its nearest centroid (centroids broadcast).
    let assignments = points_in
        .map_with_broadcast("assign-points", &centroids, |&(px, py): &Point, cents: &[Centroid]| {
            let mut best = (0u64, f64::INFINITY);
            for &(cid, cx, cy) in cents {
                let d = (px - cx).powi(2) + (py - cy).powi(2);
                if d < best.1 {
                    best = (cid, d);
                }
            }
            (best.0, px, py, 1u64)
        })
        .measured(common::MESSAGES);
    // Aggregate per-cluster sums and counts...
    let sums = assignments.reduce_by_key(
        "sum-clusters",
        |a: &(u64, f64, f64, u64)| a.0,
        |a, b| (a.0, a.1 + b.1, a.2 + b.2, a.3 + b.3),
    );
    // ...and move each centroid to its cluster mean. Centroids whose
    // cluster emptied stay where they are.
    let next = centroids.co_group(
        "recompute-centroids",
        &sums,
        |c: &Centroid| c.0,
        |s: &(u64, f64, f64, u64)| s.0,
        |&cid, old, sums| match (old.first(), sums.first()) {
            (_, Some(&(_, sx, sy, count))) if count > 0 => {
                vec![(cid, sx / count as f64, sy / count as f64)]
            }
            (Some(&stale), _) => vec![stale],
            _ => Vec::new(),
        },
    );
    // Terminate once no centroid moves.
    let epsilon2 = config.epsilon * config.epsilon;
    let moving = next
        .join(
            "compare-movement",
            &centroids,
            |a: &Centroid| a.0,
            |b: &Centroid| b.0,
            |a, b| (a.1 - b.1).powi(2) + (a.2 - b.2).powi(2),
        )
        .filter("still-moving", move |d2| *d2 > epsilon2);
    let (result, handle) = iteration.close_with_termination(next, moving);

    let mut centroids = result.collect()?;
    centroids.sort_by_key(|a| a.0);
    let stats = handle.take().expect("iteration executed");
    let objective = objective(points, &centroids);
    Ok(KmResult { centroids, objective, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery::scenario::FailureScenario;

    fn blob_points() -> Vec<Point> {
        generate_blobs(4, 50, 0.5, 7)
    }

    #[test]
    fn recovers_the_four_blobs() {
        let points = blob_points();
        let result = run(&points, &KmConfig::default()).unwrap();
        assert_eq!(result.centroids.len(), 4);
        assert!(result.stats.converged);
        // Each blob centre lies at radius 10; every centroid should sit
        // near one of them.
        for &(_, x, y) in &result.centroids {
            let r = (x * x + y * y).sqrt();
            assert!((r - 10.0).abs() < 1.5, "centroid at radius {r}");
        }
    }

    #[test]
    fn objective_is_low_on_well_separated_blobs() {
        let points = blob_points();
        let result = run(&points, &KmConfig::default()).unwrap();
        // 200 points, spread 0.5: per-point squared error well below 1.
        let per_point = result.objective / points.len() as f64;
        assert!(per_point < 1.0, "objective {}", result.objective);
    }

    #[test]
    fn optimistic_recovery_still_finds_good_clusters() {
        let points = blob_points();
        let failure_free = run(&points, &KmConfig::default()).unwrap();
        let config = KmConfig {
            ft: FtConfig::optimistic(FailureScenario::none().fail_at(1, &[0, 1])),
            ..Default::default()
        };
        let result = run(&points, &config).unwrap();
        assert_eq!(result.centroids.len(), 4, "compensation must restore all centroids");
        assert!(result.stats.converged);
        assert_eq!(result.stats.failures().count(), 1);
        // Lloyd's converges to a local optimum; after re-seeding it must be
        // in the same ballpark as the failure-free optimum.
        assert!(
            result.objective < 10.0 * failure_free.objective.max(1.0),
            "objective {} vs failure-free {}",
            result.objective,
            failure_free.objective
        );
    }

    #[test]
    fn checkpoint_recovery_reproduces_failure_free_result() {
        let points = blob_points();
        let failure_free = run(&points, &KmConfig::default()).unwrap();
        let config = KmConfig {
            ft: FtConfig::checkpoint(1, FailureScenario::none().fail_at(1, &[0])),
            ..Default::default()
        };
        let result = run(&points, &config).unwrap();
        assert_eq!(result.stats.failures().count(), 1);
        // Rollback to the latest checkpoint replays the identical
        // deterministic computation.
        for (a, b) in result.centroids.iter().zip(&failure_free.centroids) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-9 && (a.2 - b.2).abs() < 1e-9);
        }
    }

    #[test]
    fn generate_blobs_is_seeded() {
        assert_eq!(generate_blobs(3, 10, 1.0, 5), generate_blobs(3, 10, 1.0, 5));
        assert_eq!(generate_blobs(3, 10, 1.0, 5).len(), 30);
    }

    #[test]
    fn objective_of_perfect_centroids_is_zero() {
        let points = vec![(1.0, 1.0), (3.0, 3.0)];
        let centroids = vec![(0u64, 1.0, 1.0), (1u64, 3.0, 3.0)];
        assert_eq!(objective(&points, &centroids), 0.0);
    }
}
