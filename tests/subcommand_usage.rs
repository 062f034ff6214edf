//! `optirec <SUBCOMMAND> --help` prints that subcommand's own usage, and the
//! exit status tells a usage error (2) from a failed run (1).

use std::process::{Command, Output};

fn optirec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_optirec")).args(args).output().unwrap()
}

#[test]
fn each_subcommand_prints_its_own_usage() {
    let usage = include_str!("golden/usage/usage.txt");
    let serve = include_str!("golden/usage/serve_usage.txt");
    let inspect = include_str!("golden/usage/inspect_usage.txt");
    let top = include_str!("golden/usage/top_usage.txt");
    let worker = include_str!("golden/usage/worker_usage.txt");
    for (args, golden) in [
        (&[][..], usage),
        (&["--help"], usage),
        (&["cc", "--fail", "3:1", "-h"], usage),
        (&["serve", "--help"], serve),
        (&["serve", "cc", "--replay", "m.txt", "-h"], serve),
        (&["inspect", "--help"], inspect),
        (&["inspect", "diff", "-h"], inspect),
        (&["top", "--help"], top),
        (&["worker", "--help"], worker),
    ] {
        let output = optirec(args);
        assert_eq!(output.status.code(), Some(0), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&output.stdout), golden, "{args:?}");
    }
}

#[test]
fn usage_errors_exit_2_and_failed_runs_exit_1() {
    let missing = std::env::temp_dir().join("optirec-no-such-dir").join("journal.jsonl");
    let missing = missing.to_str().unwrap();
    for (args, code) in [
        (&["cc", "--wat", "1"][..], 2),
        (&["sssp", "--cluster", "2"], 2),
        (&["sssp", "--explain"], 2),
        (&["serve", "cc"], 2),
        (&["inspect", "frob"], 2),
        (&["top"], 2),
        (&["worker", "--port", "1"], 2),
        (&["inspect", "demo", "--journal", missing], 1),
        (&["top", "--report", missing], 1),
    ] {
        let output = optirec(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}
