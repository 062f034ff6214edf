//! Every paper result regenerates through `optirec`. The one result checked
//! in, `results/figure3_cc_small_journal.jsonl`, is what the figure-3 run
//! writes today, byte for byte: journal events carry no clocks, so a
//! deterministic failure schedule replays exactly.

use std::process::Command;

#[test]
fn the_cli_regenerates_the_checked_in_figure3_journal_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("optirec_figure3_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("figure3_cc_small_journal.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_optirec"))
        .args(["cc", "--fail", "1:1", "--fail", "3:2", "--journal"])
        .arg(&journal)
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let regenerated = std::fs::read_to_string(&journal).unwrap();
    let checked_in = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/figure3_cc_small_journal.jsonl"
    ))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let first_difference = regenerated.lines().zip(checked_in.lines()).position(|(a, b)| a != b);
    assert!(
        regenerated == checked_in,
        "the regenerated journal differs from the checked-in one (first differing line: {:?}, \
         {} vs {} lines)",
        first_difference.map(|i| i + 1),
        regenerated.lines().count(),
        checked_in.lines().count()
    );
}
