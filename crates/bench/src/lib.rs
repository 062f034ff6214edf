//! Shared helpers for the criterion benches and the two guard binaries
//! (`src/bin/*`). Every figure and claim of the paper regenerates through
//! `optirec` runs instead; see `EXPERIMENTS.md` at the repository root.

#![warn(missing_docs)]

use std::path::PathBuf;

/// Directory the guard binaries write their verdicts into:
/// `$OPTIREC_RESULTS` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("OPTIREC_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Print a prominent section header.
pub fn section(title: &str) {
    println!("\n{}", "=".repeat(title.len() + 4));
    println!("| {title} |");
    println!("{}", "=".repeat(title.len() + 4));
}

/// The Twitter-scale substitute used by the large-graph runs: a
/// preferential-attachment graph (heavy-tailed degrees, one giant
/// component). Size is tuned for quick laptop runs; pass a factor > 1 for
/// larger sweeps.
pub fn twitter_like(scale: usize) -> graphs::Graph {
    graphs::generators::preferential_attachment(5_000 * scale.max(1), 3, 2015)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_defaults_to_results() {
        if std::env::var_os("OPTIREC_RESULTS").is_none() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn twitter_like_is_one_component() {
        let g = twitter_like(1);
        assert_eq!(g.num_vertices(), 5_000);
        let labels = graphs::exact_components(&g);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
