//! Counters, gauges and fixed-bucket histograms.
//!
//! Instruments are handed out as `Arc`s: look a handle up once (one
//! `Mutex`-guarded map access), then update it from hot loops and worker
//! closures with plain atomics — no locking, no allocation. Histograms use
//! fixed exponential bucket bounds so recording is a branch-free-ish scan
//! over a small array of `AtomicU64`s.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::json_record;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observed `f64` value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Record the latest value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Latest recorded value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Exponential bucket upper bounds (inclusive), tuned for nanosecond
/// timings: 1µs, 4µs, 16µs, ... 4.3s, +Inf. Also serviceable for record
/// counts and byte sizes.
const BUCKET_BOUNDS: [u64; 12] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
];

/// A fixed-bucket histogram of `u64` observations.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let idx =
            BUCKET_BOUNDS.iter().position(|&bound| value <= bound).unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Upper bound of the bucket containing the q-quantile (q in `[0, 1]`),
    /// or the recorded max for the overflow bucket. An estimate — accurate
    /// to bucket granularity.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return BUCKET_BOUNDS.get(idx).copied().unwrap_or_else(|| self.max());
            }
        }
        self.max()
    }
}

/// A histogram with one track per partition plus a global aggregate, for
/// per-worker observations (e.g. per-partition task latency, where skew
/// between partitions is the interesting signal).
#[derive(Debug)]
pub struct PartitionedHistogram {
    global: Histogram,
    per_partition: Vec<Histogram>,
}

impl PartitionedHistogram {
    /// Histogram with `parallelism` partition tracks.
    pub fn new(parallelism: usize) -> Self {
        PartitionedHistogram {
            global: Histogram::default(),
            per_partition: (0..parallelism).map(|_| Histogram::default()).collect(),
        }
    }

    /// Record an observation attributed to `partition`.
    pub fn observe(&self, partition: usize, value: u64) {
        self.global.observe(value);
        if let Some(h) = self.per_partition.get(partition) {
            h.observe(value);
        }
    }

    /// The cross-partition aggregate.
    pub fn global(&self) -> &Histogram {
        &self.global
    }

    /// One partition's track (`None` when out of range).
    pub fn partition(&self, partition: usize) -> Option<&Histogram> {
        self.per_partition.get(partition)
    }

    /// Number of partition tracks.
    pub fn partitions(&self) -> usize {
        self.per_partition.len()
    }
}

json_record! {
    /// Point-in-time snapshot of every instrument in a registry, with
    /// deterministic (sorted-by-name) ordering.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MetricsSnapshot {
        /// Counter values by name.
        pub counters: BTreeMap<String, u64>,
        /// Gauge values by name.
        pub gauges: BTreeMap<String, f64>,
        /// Histogram summaries by name.
        pub histograms: BTreeMap<String, HistogramSummary>,
    }
}

json_record! {
    /// Summary statistics of one histogram at snapshot time.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct HistogramSummary {
        /// Number of observations.
        pub count: u64,
        /// Sum of observations.
        pub sum: u64,
        /// Mean observation.
        pub mean: f64,
        /// Estimated 99th percentile (bucket upper bound).
        pub p99: u64,
        /// Largest observation.
        pub max: u64,
    }
}

impl HistogramSummary {
    fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

/// Get-or-create registry of named instruments.
///
/// The registry `Mutex` guards only handle lookup; once a caller holds an
/// `Arc` to an instrument, updates are lock-free.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    partitioned: Mutex<BTreeMap<String, Arc<PartitionedHistogram>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(lock(&self.counters).entry(name.to_owned()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(lock(&self.gauges).entry(name.to_owned()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(lock(&self.histograms).entry(name.to_owned()).or_default())
    }

    /// The per-partition histogram named `name`, created on first use with
    /// `parallelism` tracks. The track count is fixed by the first caller.
    pub fn partitioned_histogram(
        &self,
        name: &str,
        parallelism: usize,
    ) -> Arc<PartitionedHistogram> {
        Arc::clone(
            lock(&self.partitioned)
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(PartitionedHistogram::new(parallelism))),
        )
    }

    /// Snapshot every instrument. Per-partition histograms appear as their
    /// global aggregate under the registered name plus one
    /// `name/p<partition>` entry per non-empty track.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, c) in lock(&self.counters).iter() {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in lock(&self.gauges).iter() {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in lock(&self.histograms).iter() {
            snap.histograms.insert(name.clone(), HistogramSummary::of(h));
        }
        for (name, ph) in lock(&self.partitioned).iter() {
            snap.histograms.insert(name.clone(), HistogramSummary::of(ph.global()));
            for pid in 0..ph.partitions() {
                let track = ph.partition(pid).expect("track in range");
                if track.count() > 0 {
                    snap.histograms.insert(format!("{name}/p{pid}"), HistogramSummary::of(track));
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricRegistry::new();
        let c = reg.counter("records");
        c.add(5);
        c.inc();
        reg.counter("records").add(4); // same instrument by name
        reg.gauge("l1").set(0.25);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["records"], 10);
        assert_eq!(snap.gauges["l1"], 0.25);
    }

    #[test]
    fn histogram_summaries() {
        let h = Histogram::default();
        for v in [100, 200, 2000, 5_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5_002_300);
        assert_eq!(h.max(), 5_000_000);
        assert!(h.mean() > 1_000_000.0);
        // Median falls in the first bucket (<= 1024).
        assert_eq!(h.quantile(0.5), 1 << 10);
        // p100 falls in the bucket containing 5e6 (<= 2^23? no: 2^22=4.19e6,
        // 2^24=16.7e6 — the 16µs-scale bound).
        assert_eq!(h.quantile(1.0), 1 << 24);
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let h = Histogram::default();
        h.observe(u64::MAX / 2);
        assert_eq!(h.quantile(0.99), u64::MAX / 2);
    }

    #[test]
    fn partitioned_histogram_tracks_partitions() {
        let ph = PartitionedHistogram::new(2);
        ph.observe(0, 10);
        ph.observe(1, 20);
        ph.observe(1, 30);
        ph.observe(7, 40); // out-of-range partition still counts globally
        assert_eq!(ph.global().count(), 4);
        assert_eq!(ph.partition(0).unwrap().count(), 1);
        assert_eq!(ph.partition(1).unwrap().count(), 2);
        assert!(ph.partition(7).is_none());
    }

    #[test]
    fn snapshot_includes_partition_tracks() {
        let reg = MetricRegistry::new();
        let ph = reg.partitioned_histogram("task_ns", 4);
        ph.observe(2, 99);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["task_ns"].count, 1);
        assert_eq!(snap.histograms["task_ns/p2"].count, 1);
        assert!(!snap.histograms.contains_key("task_ns/p0"));
        assert!(snap.to_json().contains("\"task_ns/p2\""));
    }

    #[test]
    fn instruments_are_shared_across_clones_of_the_handle() {
        let reg = Arc::new(MetricRegistry::new());
        let c = reg.counter("x");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("x").get(), 4000);
    }
}
