//! `optirec … | head -1`: a reader that goes away early ends the output, not
//! the run. The journal is still written and the exit code is the run's.

use std::process::Command;

#[test]
fn a_closed_stdout_neither_panics_nor_loses_the_journal() {
    let dir = std::env::temp_dir().join(format!("optirec_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("cc_journal.jsonl");
    // The read end is gone before the child starts, so its first write
    // already finds no reader.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_optirec"))
        .args(["cc", "--fail", "3:1", "--journal"])
        .arg(&journal)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    let written = journal.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(written, "no journal at {}", journal.display());
}
