//! Every paper result regenerates through `optirec`. The one result checked
//! in, `results/figure3_cc_small_journal.jsonl`, is what the figure-3 run
//! writes today, byte for byte: journal events carry no clocks, so a
//! deterministic failure schedule replays exactly. The SSSP and
//! reachability journals under `tests/golden/` pin the same way what their
//! compensations re-seed: the `workset_per_partition` after the failure.

use std::process::Command;

/// Run `optirec` with `args` and a `--journal`, and compare the journal it
/// writes with the checked-in `expected` (relative to the crate root).
fn assert_regenerates(args: &[&str], expected: &str) {
    let name = expected.rsplit('/').next().unwrap();
    let dir = std::env::temp_dir().join(format!("optirec_regen_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join(name);
    let output = Command::new(env!("CARGO_BIN_EXE_optirec"))
        .args(args)
        .arg("--journal")
        .arg(&journal)
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("correct: Some(true)"), "{stdout}");

    let regenerated = std::fs::read_to_string(&journal).unwrap();
    let checked_in =
        std::fs::read_to_string(format!("{}/{expected}", env!("CARGO_MANIFEST_DIR"))).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let first_difference = regenerated.lines().zip(checked_in.lines()).position(|(a, b)| a != b);
    assert!(
        regenerated == checked_in,
        "the regenerated journal differs from the checked-in {expected} (first differing line: \
         {:?}, {} vs {} lines)",
        first_difference.map(|i| i + 1),
        regenerated.lines().count(),
        checked_in.lines().count()
    );
}

#[test]
fn the_cli_regenerates_the_checked_in_figure3_journal_byte_for_byte() {
    assert_regenerates(
        &["cc", "--fail", "1:1", "--fail", "3:2"],
        "results/figure3_cc_small_journal.jsonl",
    );
}

#[test]
fn the_cli_regenerates_the_checked_in_sssp_journal_byte_for_byte() {
    assert_regenerates(
        &["sssp", "--graph", "twitter:2000", "--parallelism", "8", "--fail", "3:1,3"],
        "tests/golden/sssp_twitter2000_journal.jsonl",
    );
}

#[test]
fn the_cli_regenerates_the_checked_in_reachability_journal_byte_for_byte() {
    assert_regenerates(
        &["reach", "--graph", "twitter:2000", "--parallelism", "8", "--fail", "2:1,3"],
        "tests/golden/reach_twitter2000_journal.jsonl",
    );
}
