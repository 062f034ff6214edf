//! Order statistics for the ledger: the median every timing is reported as,
//! quartiles, guarded percentiles, and metric-name validation.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// What one metric line carries: the reported value plus the spread of the
/// samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    /// A value that is not a sample statistic (a count, a ratio, one
    /// measurement).
    pub fn single(value: f64) -> Self {
        Stat { value, n: 1, q1: value, q3: value }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median(samples: &[f64]) -> Self {
        let sorted = sorted(samples);
        Stat {
            value: quantile_sorted(&sorted, 0.5),
            n: sorted.len(),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    /// The same statistic in another unit.
    pub fn scaled(self, factor: f64) -> Self {
        Stat { value: self.value * factor, n: self.n, q1: self.q1 * factor, q3: self.q3 * factor }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistic over no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    sorted
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The `p`-th percentile (`0 < p < 100`), refused unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    let beyond = (samples.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it, fewer than {MIN_TAIL_SAMPLES}",
            samples.len()
        ));
    }
    Ok(quantile_sorted(&sorted(samples), p / 100.0))
}

/// Metric and workload names (checked when the tables are tested): `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64
/// characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let stat = Stat::median(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((stat.value, stat.q1, stat.q3, stat.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(percentile(&samples, 95.0).is_ok());
        assert!(percentile(&samples[..199], 95.0).is_err());
        assert!(percentile(&samples, 99.0).is_err());
        assert!((percentile(&samples, 50.0).unwrap() - 99.5).abs() < 1e-9);
    }

    #[test]
    fn names_follow_the_contract() {
        for good in ["latency_ms", "cc-cluster-kill.async-snapshot", "7zip", "a"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "-dash", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
