//! The serving daemon: the line protocol served over TCP, plus the replay
//! runner CI uses (a replay file is just a recorded client session).
//!
//! Concurrency model: the engine (and with it every epoch's dataflow) lives
//! behind a mutex that only mutations and commits take; point and top-N
//! queries read a shared [`Snapshot`] behind an `RwLock` that is swapped
//! after every successful commit. A snapshot shares the engine's solution
//! chunk by chunk, so publishing one copies no solution entry, and the
//! commit after it copies the chunks it writes instead of writing into the
//! published ones. Queries therefore keep answering from the pre-batch
//! solution set while a commit re-converges — and keep answering while a
//! mid-re-convergence failure is being compensated.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use telemetry::{JournalEvent, SinkHandle};

use crate::engine::{PointAnswer, ServeAlgorithm, ServeEngine, Snapshot, TopEntry};
use crate::mutation::Command;

fn lock_poisoned<T>(_: T) -> String {
    "engine lock poisoned".to_string()
}

/// Format a point answer: `label <l>` / `rank <r>` / `none`.
fn format_point(answer: Option<PointAnswer>) -> String {
    match answer {
        Some(PointAnswer::Label(label)) => format!("label {label}"),
        Some(PointAnswer::Rank(rank)) => format!("rank {rank:.9}"),
        None => "none".to_string(),
    }
}

/// Format a top-N answer: `top id:score ...` (CC scores are component
/// sizes, printed as integers).
fn format_top(algorithm: ServeAlgorithm, entries: &[TopEntry]) -> String {
    let mut out = String::from("top");
    for entry in entries {
        match algorithm {
            ServeAlgorithm::ConnectedComponents => {
                out.push_str(&format!(" {}:{}", entry.id, entry.score as u64));
            }
            ServeAlgorithm::PageRank => {
                out.push_str(&format!(" {}:{:.6}", entry.id, entry.score));
            }
        }
    }
    out
}

fn format_commit(report: &crate::engine::EpochReport) -> String {
    format!(
        "epoch {} supersteps {} seeded {} converged {}",
        report.epoch, report.supersteps, report.seeded, report.converged
    )
}

fn algorithm_name(algorithm: ServeAlgorithm) -> &'static str {
    match algorithm {
        ServeAlgorithm::ConnectedComponents => "cc",
        ServeAlgorithm::PageRank => "pagerank",
    }
}

/// One-line introspection snapshot: same shape over TCP and in replays, so
/// a recorded session stays a valid replay file.
fn format_stats(
    algorithm: ServeAlgorithm,
    epoch: u32,
    vertices: usize,
    staged: usize,
    queries: u64,
) -> String {
    format!(
        "ok stats algo {} epoch {epoch} vertices {vertices} staged {staged} queries {queries}",
        algorithm_name(algorithm)
    )
}

/// Apply one command directly to the engine — the replay path, where
/// everything is sequential. Returns the response line and whether the
/// session ends.
pub fn apply_command(engine: &mut ServeEngine, command: &Command) -> (String, bool) {
    match command {
        Command::Insert(u, v) => {
            let changed = engine.stage_insert(*u, *v);
            (format!("ok {}", if changed { "staged" } else { "noop" }), false)
        }
        Command::Delete(u, v) => {
            let changed = engine.stage_delete(*u, *v);
            (format!("ok {}", if changed { "staged" } else { "noop" }), false)
        }
        Command::Commit => match engine.commit() {
            Ok(report) => (format!("ok {}", format_commit(&report)), false),
            Err(message) => (format!("err {message}"), false),
        },
        Command::Get(v) => {
            engine.telemetry().metrics().counter("serve/queries").inc();
            (format!("ok {}", format_point(engine.point(*v))), false)
        }
        Command::Top(n) => {
            engine.telemetry().metrics().counter("serve/queries").inc();
            (format!("ok {}", format_top(engine.algorithm(), &engine.top(*n))), false)
        }
        Command::Scale(n) => match engine.set_scale_target(*n) {
            Ok(target) => (format!("ok scale target {target}"), false),
            Err(message) => (format!("err {message}"), false),
        },
        Command::Stats => {
            let queries = engine.telemetry().metrics().counter("serve/queries").get();
            (
                format_stats(
                    engine.algorithm(),
                    engine.epoch(),
                    engine.vertices(),
                    engine.staged(),
                    queries,
                ),
                false,
            )
        }
        Command::Quit => ("ok bye".to_string(), true),
    }
}

/// Run a recorded session against the engine, returning one response per
/// command. Stops at `quit`.
pub fn replay(engine: &mut ServeEngine, commands: &[Command]) -> Vec<String> {
    let mut responses = Vec::new();
    for command in commands {
        let (response, quit) = apply_command(engine, command);
        responses.push(response);
        if quit {
            break;
        }
    }
    responses
}

/// Shared state between the accept loop and connection handlers.
struct Shared {
    engine: Mutex<ServeEngine>,
    snapshot: RwLock<Snapshot>,
    algorithm: ServeAlgorithm,
    telemetry: SinkHandle,
}

impl Shared {
    /// Read the published snapshot, recovering from poisoning: a reader
    /// that panicked mid-query cannot have left the snapshot itself
    /// inconsistent (readers never write), and `publish` overwrites the
    /// whole value, so the stored snapshot is always a committed solution.
    fn read_snapshot(&self) -> RwLockReadGuard<'_, Snapshot> {
        self.snapshot.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a freshly committed snapshot, recovering from poisoning —
    /// skipping the publish would silently pin every connection to the
    /// previous epoch's answers even though the engine committed.
    fn publish(&self, snapshot: Snapshot) {
        *self.snapshot.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
    }
}

/// A running daemon. Dropping the handle does NOT stop it; call
/// [`DaemonHandle::stop`].
pub struct DaemonHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (useful with `listen = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept loop. In-flight
    /// connection handlers finish on their own.
    ///
    /// The loop blocks in `accept`; a connection of our own to the
    /// listener wakes it to see the flag. Should that connection fail, the
    /// loop is left blocked rather than joined.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            if let Some(thread) = self.accept_thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Serve the line protocol over TCP. The engine must already be
/// bootstrapped; each connection is handled on its own thread.
pub fn spawn(engine: ServeEngine, listen: &str) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    let algorithm = engine.algorithm();
    let shared = Arc::new(Shared {
        snapshot: RwLock::new(engine.snapshot()),
        telemetry: engine.telemetry().clone(),
        algorithm,
        engine: Mutex::new(engine),
    });
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_shutdown = shutdown.clone();
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { break };
            let shared = shared.clone();
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &shared);
            });
        }
    });
    Ok(DaemonHandle { addr, shutdown, accept_thread: Some(accept_thread) })
}

/// Send one answer line. The line and its newline leave in a single write:
/// as two segments, the second would wait out the client's delayed ACK.
fn send_line(writer: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    let epoch = shared.read_snapshot().epoch;
    let name = algorithm_name(shared.algorithm);
    send_line(&mut writer, format!("hello {name} epoch {epoch}"))?;
    for line in reader.lines() {
        let (response, quit) = match crate::mutation::parse_line(&line?) {
            Ok(Some(command)) => dispatch(&command, shared),
            Ok(None) => continue,
            Err(message) => (format!("err {message}"), false),
        };
        send_line(&mut writer, response)?;
        if quit {
            return Ok(());
        }
    }
    Ok(())
}

/// Route one command: queries read the shared snapshot (concurrent, never
/// blocked by a committing batch), mutations and commits take the engine
/// lock, and a successful commit publishes the new snapshot.
fn dispatch(command: &Command, shared: &Shared) -> (String, bool) {
    match command {
        Command::Get(v) => {
            let snapshot = shared.read_snapshot();
            let answer = snapshot.point(*v);
            shared.telemetry.metrics().counter("serve/queries").inc();
            shared.telemetry.emit(|| JournalEvent::Query {
                epoch: snapshot.epoch,
                kind: "point".to_string(),
                results: answer.is_some() as u64,
            });
            (format!("ok {}", format_point(answer)), false)
        }
        Command::Top(n) => {
            let snapshot = shared.read_snapshot();
            let entries = snapshot.top(*n);
            shared.telemetry.metrics().counter("serve/queries").inc();
            shared.telemetry.emit(|| JournalEvent::Query {
                epoch: snapshot.epoch,
                kind: "top".to_string(),
                results: entries.len() as u64,
            });
            (format!("ok {}", format_top(shared.algorithm, &entries)), false)
        }
        Command::Insert(_, _) | Command::Delete(_, _) | Command::Commit | Command::Scale(_) => {
            let result = shared.engine.lock().map_err(lock_poisoned).map(|mut engine| {
                let response = match command {
                    Command::Insert(u, v) => {
                        let changed = engine.stage_insert(*u, *v);
                        format!("ok {}", if changed { "staged" } else { "noop" })
                    }
                    Command::Delete(u, v) => {
                        let changed = engine.stage_delete(*u, *v);
                        format!("ok {}", if changed { "staged" } else { "noop" })
                    }
                    Command::Commit => match engine.commit() {
                        Ok(report) => {
                            shared.publish(engine.snapshot());
                            format!("ok {}", format_commit(&report))
                        }
                        Err(message) => format!("err {message}"),
                    },
                    Command::Scale(n) => match engine.set_scale_target(*n) {
                        Ok(target) => format!("ok scale target {target}"),
                        Err(message) => format!("err {message}"),
                    },
                    _ => unreachable!("query commands handled above"),
                };
                response
            });
            match result {
                Ok(response) => (response, false),
                Err(message) => (format!("err {message}"), false),
            }
        }
        Command::Stats => {
            // Stats reads the engine for the staged-batch size, so it
            // queues behind an in-flight commit — the answer it returns is
            // never mid-batch. Epoch and size come from the published
            // snapshot, which under the engine lock is the last commit's.
            let result = shared.engine.lock().map_err(lock_poisoned).map(|engine| {
                let queries = shared.telemetry.metrics().counter("serve/queries").get();
                let snapshot = shared.read_snapshot();
                format_stats(
                    shared.algorithm,
                    snapshot.epoch,
                    snapshot.vertices(),
                    engine.staged(),
                    queries,
                )
            });
            match result {
                Ok(response) => (response, false),
                Err(message) => (format!("err {message}"), false),
            }
        }
        Command::Quit => ("ok bye".to_string(), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::mutation::parse_line;

    fn bootstrap_cc() -> ServeEngine {
        let graph = graphs::generators::path(12);
        ServeEngine::bootstrap(ServeConfig::default(), &graph).unwrap().0
    }

    #[test]
    fn replay_runs_a_full_session() {
        let mut engine = bootstrap_cc();
        let commands: Vec<Command> =
            ["get 3", "- 5 6", "commit", "get 9", "top 2", "stats", "quit"]
                .iter()
                .map(|l| parse_line(l).unwrap().unwrap())
                .collect();
        let responses = replay(&mut engine, &commands);
        assert_eq!(responses.len(), 7);
        assert_eq!(responses[0], "ok label 0");
        assert_eq!(responses[1], "ok staged");
        assert!(responses[2].starts_with("ok epoch 1 supersteps "), "{}", responses[2]);
        assert_eq!(responses[3], "ok label 6", "split half takes its own minimum");
        assert_eq!(responses[4], "ok top 0:6 6:6");
        assert_eq!(responses[5], "ok stats algo cc epoch 1 vertices 12 staged 0 queries 3");
        assert_eq!(responses[6], "ok bye");
    }

    #[test]
    fn scale_on_a_non_elastic_engine_is_an_error() {
        let mut engine = bootstrap_cc();
        let (response, quit) = apply_command(&mut engine, &Command::Scale(3));
        assert!(response.starts_with("err "), "{response}");
        assert!(response.contains("not elastic"), "{response}");
        assert!(!quit);
    }

    #[test]
    fn tcp_daemon_serves_mutations_and_concurrent_queries() {
        let engine = bootstrap_cc();
        let daemon = spawn(engine, "127.0.0.1:0").unwrap();
        let addr = daemon.addr();

        let session = |lines: &[&str]| -> Vec<String> {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut greeting = String::new();
            reader.read_line(&mut greeting).unwrap();
            assert!(greeting.starts_with("hello cc epoch "), "{greeting}");
            let mut responses = Vec::new();
            for line in lines {
                writeln!(writer, "{line}").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                responses.push(response.trim_end().to_string());
            }
            responses
        };

        // One client stages and commits; another queries concurrently.
        let mutator = session(&["- 5 6", "commit", "quit"]);
        assert_eq!(mutator[0], "ok staged");
        assert!(mutator[1].starts_with("ok epoch 1"), "{}", mutator[1]);

        let reader_responses = session(&["get 9", "top 2", "stats", "nonsense", "quit"]);
        assert_eq!(reader_responses[0], "ok label 6");
        assert_eq!(reader_responses[1], "ok top 0:6 6:6");
        assert!(
            reader_responses[2].starts_with("ok stats algo cc epoch 1 vertices 12 staged 0"),
            "{}",
            reader_responses[2]
        );
        assert!(reader_responses[3].starts_with("err "), "{}", reader_responses[3]);
        assert_eq!(reader_responses[4], "ok bye");

        daemon.stop();
    }

    #[test]
    fn a_connection_opened_before_a_commit_reads_the_epoch_it_published() {
        let daemon = spawn(bootstrap_cc(), "127.0.0.1:0").unwrap();
        let connect = || {
            let stream = TcpStream::connect(daemon.addr()).unwrap();
            let writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut greeting = String::new();
            reader.read_line(&mut greeting).unwrap();
            (writer, reader, greeting)
        };
        let ask = |(writer, reader): (&mut TcpStream, &mut BufReader<TcpStream>), line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response.trim_end().to_string()
        };

        let (mut early, mut early_reader, greeting) = connect();
        assert_eq!(greeting, "hello cc epoch 0\n");
        assert_eq!(ask((&mut early, &mut early_reader), "get 9"), "ok label 0");

        let (mut mutator, mut mutator_reader, _) = connect();
        assert_eq!(ask((&mut mutator, &mut mutator_reader), "- 5 6"), "ok staged");
        let committed = ask((&mut mutator, &mut mutator_reader), "commit");
        assert!(committed.starts_with("ok epoch 1 "), "{committed}");

        assert_eq!(ask((&mut early, &mut early_reader), "get 9"), "ok label 6");
        let stats = ask((&mut early, &mut early_reader), "stats");
        assert!(stats.starts_with("ok stats algo cc epoch 1 vertices 12 staged 0"), "{stats}");
        daemon.stop();
    }

    #[test]
    fn a_connection_after_an_idle_spell_is_greeted_without_waiting_out_a_poll() {
        // The accept loop used to poll a non-blocking listener and sleep
        // 20 ms on every empty poll, so a client arriving after an idle
        // spell waited for the rest of that sleep before its `hello`. Twenty
        // such clients waited ~300 ms in all; a loop blocked in `accept`
        // greets each at once. The bound is a quarter of one poll per client.
        let daemon = spawn(bootstrap_cc(), "127.0.0.1:0").unwrap();
        let mut waited = Duration::ZERO;
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(25));
            let started = std::time::Instant::now();
            let mut reader = BufReader::new(TcpStream::connect(daemon.addr()).unwrap());
            let mut hello = String::new();
            reader.read_line(&mut hello).unwrap();
            waited += started.elapsed();
            assert!(hello.starts_with("hello cc epoch "), "{hello}");
        }
        assert!(waited < Duration::from_millis(100), "20 greetings took {waited:?}");
        let addr = daemon.addr();
        daemon.stop();
        assert!(TcpStream::connect(addr).is_err(), "the listener outlived stop");
    }

    #[test]
    fn sequential_gets_do_not_wait_out_a_delayed_ack() {
        // An answer sent as two segments (line, then newline) on a socket
        // without TCP_NODELAY costs every round trip the client kernel's
        // delayed ACK, about 40 ms on loopback: twenty of them took ~880 ms.
        let daemon = spawn(bootstrap_cc(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(daemon.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("hello cc epoch "), "{line}");

        let started = std::time::Instant::now();
        for v in 0..20 {
            writer.write_all(format!("get {}\n", v % 12).as_bytes()).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "ok label 0\n");
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(200), "20 gets took {elapsed:?}");
        daemon.stop();
    }
}
