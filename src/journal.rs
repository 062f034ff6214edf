//! `--journal <path>` support shared by `optirec` and the example binaries:
//! capture the run's telemetry and write the journal plus spans/report
//! sidecars, in the layout `optirec inspect` expects.

use std::path::PathBuf;
use std::sync::Arc;

use flowscope::CapturePaths;
use telemetry::{MemorySink, SinkHandle};

/// A pending telemetry capture: a live sink plus the journal destination.
#[derive(Debug)]
pub struct JournalCapture {
    sink: Arc<MemorySink>,
    handle: SinkHandle,
    path: PathBuf,
}

impl JournalCapture {
    /// Scan `args` for `--journal <path>`, removing both tokens when found.
    /// Returns `Err` when the flag is present without a value.
    pub fn take_from(args: &mut Vec<String>) -> Result<Option<JournalCapture>, String> {
        let Some(i) = args.iter().position(|a| a == "--journal") else {
            return Ok(None);
        };
        if i + 1 >= args.len() {
            return Err("flag --journal needs a value".to_string());
        }
        let path = PathBuf::from(args.remove(i + 1));
        args.remove(i);
        let sink = Arc::new(MemorySink::new());
        let handle = SinkHandle::new(sink.clone());
        Ok(Some(JournalCapture { sink, handle, path }))
    }

    /// A fresh capture writing to `path`.
    pub fn to_path(path: PathBuf) -> JournalCapture {
        let sink = Arc::new(MemorySink::new());
        let handle = SinkHandle::new(sink.clone());
        JournalCapture { sink, handle, path }
    }

    /// A second capture for multi-run binaries: a fresh sink whose journal
    /// lands next to this one with `_<tag>` inserted before the suffix
    /// (`cc_journal.jsonl` + `pagerank` -> `cc_pagerank_journal.jsonl`).
    pub fn sibling(&self, tag: &str) -> JournalCapture {
        let name = self.path.file_name().and_then(|n| n.to_str()).unwrap_or("run.jsonl");
        let new_name = if let Some(stem) = name.strip_suffix("_journal.jsonl") {
            format!("{stem}_{tag}_journal.jsonl")
        } else if let Some(stem) = name.strip_suffix(".jsonl") {
            format!("{stem}_{tag}.jsonl")
        } else {
            format!("{name}_{tag}")
        };
        JournalCapture::to_path(self.path.with_file_name(new_name))
    }

    /// The telemetry handle to install into the run's `FtConfig`.
    pub fn handle(&self) -> SinkHandle {
        self.handle.clone()
    }

    /// Write the journal and its sidecars, printing where they went.
    pub fn finish(self) -> std::io::Result<CapturePaths> {
        self.handle.flush();
        let paths = flowscope::save_run(&self.sink, self.handle.metrics(), &self.path)?;
        crate::outln!(
            "\ntelemetry written: {} (spans: {}, report: {})",
            paths.journal.display(),
            paths.spans.display(),
            paths.report.display()
        );
        crate::outln!(
            "inspect it with: optirec inspect convergence --journal {}",
            paths.journal.display()
        );
        Ok(paths)
    }

    /// [`finish`](Self::finish) for binaries: an unwritable journal
    /// destination becomes a clear CLI error naming the path, not a panic
    /// with a backtrace.
    pub fn finish_or_exit(self) {
        let path = self.path.clone();
        if let Err(e) = self.finish() {
            eprintln!("error: cannot write telemetry to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_strips_the_flag_and_value() {
        let mut args = vec!["3".to_string(), "--journal".into(), "/tmp/x.jsonl".into(), "1".into()];
        let capture = JournalCapture::take_from(&mut args).unwrap().unwrap();
        assert_eq!(args, vec!["3".to_string(), "1".into()]);
        assert_eq!(capture.path, PathBuf::from("/tmp/x.jsonl"));
        assert!(capture.handle().enabled());
    }

    #[test]
    fn siblings_insert_the_tag_before_the_journal_suffix() {
        let capture = JournalCapture::to_path(PathBuf::from("out/cc_journal.jsonl"));
        assert_eq!(
            capture.sibling("pagerank").path,
            PathBuf::from("out/cc_pagerank_journal.jsonl")
        );
        let capture = JournalCapture::to_path(PathBuf::from("out/run.jsonl"));
        assert_eq!(capture.sibling("pr").path, PathBuf::from("out/run_pr.jsonl"));
    }

    #[test]
    fn absent_flag_returns_none_and_missing_value_errors() {
        let mut args = vec!["3".to_string()];
        assert!(JournalCapture::take_from(&mut args).unwrap().is_none());
        let mut args = vec!["--journal".to_string()];
        assert!(JournalCapture::take_from(&mut args).is_err());
    }
}
