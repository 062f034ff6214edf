//! Distribution rendering: a log-scale histogram for heavy-tailed data
//! such as the Twitter-like graph's vertex degrees.

/// Log-scale histogram (base-2 buckets) for heavy-tailed integer data such
/// as vertex degrees.
pub fn log2_histogram(values: &[u64], bar_width: usize) -> String {
    if values.is_empty() {
        return "  (no data)\n".to_string();
    }
    let max_bucket = values.iter().map(|&v| 64 - v.leading_zeros() as usize).max().unwrap_or(0);
    let mut counts = vec![0usize; max_bucket + 1];
    for &v in values {
        counts[64 - v.leading_zeros() as usize] += 1;
    }
    let max_count = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (bucket, count) in counts.iter().enumerate() {
        let (lo, hi) =
            if bucket == 0 { (0, 0) } else { (1u64 << (bucket - 1), (1u64 << bucket) - 1) };
        let bar = "#".repeat(count * bar_width / max_count);
        out.push_str(&format!("  [{lo:>8}, {hi:>8}]  {bar} {count}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_histogram_buckets_by_power_of_two() {
        let text = log2_histogram(&[0, 1, 2, 3, 4, 1000], 10);
        assert!(text.contains("[       0,        0]"));
        assert!(text.contains("[     512,     1023]"));
        let total: usize =
            text.lines().map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap()).sum();
        assert_eq!(total, 6);
    }
}
