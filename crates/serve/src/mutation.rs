//! The serving line protocol: one command per line, identical over TCP and
//! in replay files, so a CI replay file is literally a recorded client
//! session (renoir's `iterate_delta` message-enum idiom — init, update,
//! delta, and query traffic share one channel).
//!
//! ```text
//! + 3 17        # stage an edge insert
//! - 4 9         # stage an edge delete
//! commit        # apply the staged batch: incremental re-convergence
//! get 17        # point query against the maintained solution set
//! top 5         # top-N query (largest components / highest ranks)
//! scale 4       # set the elastic worker target (applies at next commit)
//! stats         # one-line introspection snapshot (epoch, staged, queries)
//! quit          # close the connection / end the replay
//! ```
//!
//! Blank lines and `#` comments are ignored; anything after an inline `#`
//! is stripped.

use std::io::{BufRead, BufReader};
use std::path::Path;

use graphs::VertexId;

/// One protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Stage an edge insert: `+ u v`.
    Insert(VertexId, VertexId),
    /// Stage an edge delete: `- u v`.
    Delete(VertexId, VertexId),
    /// Apply the staged batch and incrementally re-converge: `commit`.
    Commit,
    /// Point query for one vertex: `get v`.
    Get(VertexId),
    /// Top-N query: `top n`.
    Top(usize),
    /// Set the elastic worker target (rescales at the next commit):
    /// `scale n`.
    Scale(usize),
    /// Live introspection snapshot: `stats`.
    Stats,
    /// End the session: `quit`.
    Quit,
}

impl Command {
    /// Render the command in line-protocol form (the inverse of
    /// [`parse_line`]).
    pub fn to_line(&self) -> String {
        match self {
            Command::Insert(u, v) => format!("+ {u} {v}"),
            Command::Delete(u, v) => format!("- {u} {v}"),
            Command::Commit => "commit".to_string(),
            Command::Get(v) => format!("get {v}"),
            Command::Top(n) => format!("top {n}"),
            Command::Scale(n) => format!("scale {n}"),
            Command::Stats => "stats".to_string(),
            Command::Quit => "quit".to_string(),
        }
    }
}

/// Parse one protocol line. Returns `Ok(None)` for blank lines and
/// comments.
pub fn parse_line(raw: &str) -> Result<Option<Command>, String> {
    let line = raw.split('#').next().unwrap_or("");
    let mut words = line.split_whitespace();
    let Some(head) = words.next() else { return Ok(None) };
    let mut vertex = |name: &str| -> Result<VertexId, String> {
        let word = words.next().ok_or_else(|| format!("`{head}` needs {name}"))?;
        word.parse().map_err(|_| format!("invalid {name} {word:?}"))
    };
    let command = match head {
        "+" => Command::Insert(vertex("u")?, vertex("v")?),
        "-" => Command::Delete(vertex("u")?, vertex("v")?),
        "commit" => Command::Commit,
        "get" => Command::Get(vertex("v")?),
        "top" => {
            let word = words.next().ok_or("`top` needs a count")?;
            let n: usize = word.parse().map_err(|_| format!("invalid count {word:?}"))?;
            if n == 0 {
                return Err("`top` needs a count of at least 1".into());
            }
            Command::Top(n)
        }
        "scale" => {
            let word = words.next().ok_or("`scale` needs a worker count")?;
            let n: usize = word.parse().map_err(|_| format!("invalid worker count {word:?}"))?;
            if n == 0 {
                return Err("`scale` needs a worker count of at least 1".into());
            }
            Command::Scale(n)
        }
        "stats" => Command::Stats,
        "quit" => Command::Quit,
        other => {
            let verbs = "+ | - | commit | get | top | scale | stats | quit";
            return Err(format!("unknown command {other:?}; expected {verbs}"));
        }
    };
    if let Some(extra) = words.next() {
        return Err(format!("trailing input {extra:?} after `{head}`"));
    }
    Ok(Some(command))
}

/// Load a replay file: the line protocol, one command per line, with
/// line-numbered errors.
pub fn load_replay(path: &Path) -> Result<Vec<Command>, String> {
    let file = std::fs::File::open(path)
        .map_err(|e| format!("cannot open replay {}: {e}", path.display()))?;
    let mut commands = Vec::new();
    for (index, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("cannot read replay {}: {e}", path.display()))?;
        match parse_line(&line) {
            Ok(Some(command)) => commands.push(command),
            Ok(None) => {}
            Err(message) => {
                return Err(format!("{}:{}: {message}", path.display(), index + 1));
            }
        }
    }
    Ok(commands)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_and_roundtrip() {
        let lines = ["+ 3 17", "- 4 9", "commit", "get 17", "top 5", "scale 4", "stats", "quit"];
        for raw in lines {
            let command = parse_line(raw).unwrap().unwrap();
            assert_eq!(command.to_line(), raw);
        }
        assert_eq!(parse_line("+ 1 2").unwrap(), Some(Command::Insert(1, 2)));
        assert_eq!(parse_line("top 3").unwrap(), Some(Command::Top(3)));
        assert_eq!(parse_line("scale 2").unwrap(), Some(Command::Scale(2)));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# a comment").unwrap(), None);
        assert_eq!(parse_line("+ 1 2  # inline comment").unwrap(), Some(Command::Insert(1, 2)));
    }

    #[test]
    fn malformed_lines_name_the_problem() {
        assert!(parse_line("+ 1").unwrap_err().contains("needs v"));
        assert!(parse_line("get").unwrap_err().contains("needs v"));
        assert!(parse_line("top 0").unwrap_err().contains("at least 1"));
        assert!(parse_line("top x").unwrap_err().contains("invalid count"));
        assert!(parse_line("scale 0").unwrap_err().contains("at least 1"));
        assert!(parse_line("scale x").unwrap_err().contains("invalid worker count"));
        assert!(parse_line("+ 1 2 3").unwrap_err().contains("trailing"));
        assert!(parse_line("frob 1").unwrap_err().contains("unknown command"));
    }

    #[test]
    fn replay_files_load_with_line_numbered_errors() {
        let dir = std::env::temp_dir().join("optirec-serve-mutation-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.replay");
        std::fs::write(&good, "# batch 1\n+ 0 5\n- 1 2\ncommit\nget 5\n").unwrap();
        let commands = load_replay(&good).unwrap();
        assert_eq!(
            commands,
            vec![Command::Insert(0, 5), Command::Delete(1, 2), Command::Commit, Command::Get(5)]
        );

        let bad = dir.join("bad.replay");
        std::fs::write(&bad, "+ 0 5\nwat\n").unwrap();
        let err = load_replay(&bad).unwrap_err();
        assert!(err.contains(":2:"), "{err}");
    }
}
