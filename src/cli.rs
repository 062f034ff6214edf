//! Command-line interface of the `optirec` demo launcher — the terminal
//! analog of the paper's demo application, where conference attendees pick
//! an algorithm, an input graph, the partitions to fail and the iterations
//! to fail them in.
//!
//! Each subcommand declares its flags once, in a table of `Flag` rows:
//! the flag, its value's name, its help lines, how often it may be given
//! and a setter that calls the flag's value parser. The one parse loop
//! (`parse_flags`), the unknown-flag list and each usage text's flag
//! section are read from the table. A flag that repeats (`--fail`,
//! `--kill`, `--scale`, `--chaos`) adds each value; any other takes its
//! last. The checks across flags run after parsing, one function per
//! subcommand.

use std::path::PathBuf;

use flowscope::DiffOptions;
use recovery::checkpoint::CostModel;
use recovery::scenario::FailureScenario;
use recovery::strategy::Strategy;
use Occurs::{Once, Repeats, Required};

/// Which demo to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant names mirror the algorithm names
pub enum Algorithm {
    ConnectedComponents,
    PageRank,
    Sssp,
    Reachability,
    KMeans,
    Jacobi,
    Als,
}

impl Algorithm {
    fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "cc" | "connected-components" => Ok(Algorithm::ConnectedComponents),
            "pagerank" | "pr" => Ok(Algorithm::PageRank),
            "sssp" => Ok(Algorithm::Sssp),
            "reachability" | "reach" => Ok(Algorithm::Reachability),
            "kmeans" => Ok(Algorithm::KMeans),
            "jacobi" => Ok(Algorithm::Jacobi),
            "als" => Ok(Algorithm::Als),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }

    /// The worker program of an algorithm compiled into `optirec worker`
    /// (cc and pagerank): the algorithms `--cluster`, `--explain` and
    /// `serve` take.
    pub fn program(self) -> Option<&'static str> {
        match self {
            Algorithm::ConnectedComponents => Some("cc"),
            Algorithm::PageRank => Some("pagerank"),
            _ => None,
        }
    }
}

/// Which input graph to run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// The paper's small hand-crafted graph for the chosen algorithm.
    Demo,
    /// Twitter-like preferential-attachment graph with `n` vertices.
    Twitter(usize),
    /// `w x h` grid.
    Grid(usize, usize),
    /// Path with `n` vertices.
    Path(usize),
    /// Load an edge list from a file.
    File(String),
}

impl GraphSpec {
    fn parse(raw: &str) -> Result<Self, String> {
        if raw == "demo" {
            return Ok(GraphSpec::Demo);
        }
        if let Some(n) = raw.strip_prefix("twitter:") {
            // Each new vertex attaches to 3 earlier ones, so the smallest
            // graph has 4 vertices.
            return match n.parse() {
                Ok(n) if n >= 4 => Ok(GraphSpec::Twitter(n)),
                Ok(_) => Err(format!("twitter size {n:?} is below the smallest graph, 4")),
                Err(_) => Err(format!("invalid twitter size {n:?}")),
            };
        }
        if let Some(dims) = raw.strip_prefix("grid:") {
            let (w, h) = dims
                .split_once('x')
                .ok_or_else(|| format!("grid spec must be grid:WxH, got {raw:?}"))?;
            let w = w.parse().map_err(|_| format!("invalid grid width {w:?}"))?;
            let h = h.parse().map_err(|_| format!("invalid grid height {h:?}"))?;
            return Ok(GraphSpec::Grid(w, h));
        }
        if let Some(n) = raw.strip_prefix("path:") {
            return n.parse().map(GraphSpec::Path).map_err(|_| format!("invalid path size {n:?}"));
        }
        if let Some(path) = raw.strip_prefix("file:") {
            return Ok(GraphSpec::File(path.to_string()));
        }
        Err(format!(
            "unknown graph {raw:?}; expected demo | twitter:N | grid:WxH | path:N | file:PATH"
        ))
    }

    /// Build/load the graph. `directed_default` picks edge direction for
    /// algorithms that care (PageRank uses directed demo input).
    pub fn build(&self, algorithm: Algorithm) -> Result<graphs::Graph, String> {
        Ok(match self {
            GraphSpec::Demo => match algorithm {
                Algorithm::PageRank => graphs::generators::demo_pagerank(),
                _ => graphs::generators::demo_components(),
            },
            GraphSpec::Twitter(n) => graphs::generators::preferential_attachment(*n, 3, 2015),
            GraphSpec::Grid(w, h) => graphs::generators::grid(*w, *h),
            GraphSpec::Path(n) => graphs::generators::path(*n),
            GraphSpec::File(path) => {
                let directed = algorithm == Algorithm::PageRank;
                graphs::io::load_edge_list(std::path::Path::new(path), directed)
                    .map_err(|e| format!("cannot load {path}: {e}"))?
                    .graph
            }
        })
    }
}

/// Parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Which demo to run.
    pub algorithm: Algorithm,
    /// Which input graph to run it on.
    pub graph: GraphSpec,
    /// Recovery strategy.
    pub strategy: Strategy,
    /// Failure schedule.
    pub scenario: FailureScenario,
    /// Number of partitions / simulated workers.
    pub parallelism: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Print the dataflow plan instead of running.
    pub explain_only: bool,
    /// Capture telemetry and write the journal (plus spans and report
    /// sidecars) to this path.
    pub journal: Option<PathBuf>,
    /// Run on `N` real worker processes (`optirec worker`) instead of the
    /// in-process simulated cluster. Only cc and pagerank are compiled into
    /// the worker binary.
    pub cluster: Option<usize>,
    /// With `--cluster`: the chaos plan assembled from `--kill` flags
    /// (repeatable) and `--chaos` scenario specs.
    pub chaos: cluster::ChaosPlan,
    /// With `--cluster`: planned membership changes from `--scale` flags
    /// (repeatable) — the cluster rescales to N workers at superstep S.
    pub scale: Vec<cluster::ScaleEvent>,
    /// With `--cluster`: heartbeat probe interval in milliseconds.
    pub heartbeat_interval_ms: Option<u64>,
    /// With `--cluster`: heartbeat read timeout in milliseconds — how long a
    /// worker may stay silent before it is declared dead.
    pub heartbeat_timeout_ms: Option<u64>,
    /// With `--cluster`: per-superstep control read timeout in milliseconds.
    pub step_timeout_ms: Option<u64>,
}

/// Default barrier interval of a bare `--strategy async-snapshot`.
pub const DEFAULT_SNAPSHOT_INTERVAL: u32 = 2;

/// Parse a strategy spec: `optimistic`, `restart`, `ignore`,
/// `checkpoint:K`, `incremental:K`, `async-snapshot[:K]`.
pub fn parse_strategy(raw: &str) -> Result<Strategy, String> {
    match raw {
        "optimistic" => Ok(Strategy::Optimistic),
        "restart" => Ok(Strategy::Restart),
        "ignore" => Ok(Strategy::Ignore),
        "async-snapshot" => Ok(Strategy::AsyncSnapshot { interval: DEFAULT_SNAPSHOT_INTERVAL }),
        other => {
            // `NAME:K` with a positive K; "every 0 iterations" is no schedule.
            let interval = |name: &str| {
                other.strip_prefix(name).and_then(|k| k.strip_prefix(':')).map(|k| {
                    k.parse()
                        .ok()
                        .filter(|&interval: &u32| interval > 0)
                        .ok_or_else(|| format!("invalid {name} interval {k:?}"))
                })
            };
            if let Some(interval) = interval("checkpoint") {
                return Ok(Strategy::Checkpoint { interval: interval? });
            }
            if let Some(full_interval) = interval("incremental") {
                return Ok(Strategy::IncrementalCheckpoint { full_interval: full_interval? });
            }
            if let Some(interval) = interval("async-snapshot") {
                return Ok(Strategy::AsyncSnapshot { interval: interval? });
            }
            Err(format!(
                "unknown strategy {other:?}; expected optimistic | checkpoint:K | incremental:K | async-snapshot[:K] | restart | ignore"
            ))
        }
    }
}

/// Parse one failure event: `SUPERSTEP:P1,P2,...`.
pub fn parse_failure(raw: &str) -> Result<(u32, Vec<usize>), String> {
    let (superstep, partitions) = raw
        .split_once(':')
        .ok_or_else(|| format!("failure spec must be SUPERSTEP:P1,P2 — got {raw:?}"))?;
    let superstep =
        superstep.parse().map_err(|_| format!("invalid failure superstep {superstep:?}"))?;
    let partitions: Result<Vec<usize>, String> = partitions
        .split(',')
        .map(|p| p.parse().map_err(|_| format!("invalid partition id {p:?}")))
        .collect();
    let partitions = partitions?;
    if partitions.is_empty() {
        return Err("failure spec needs at least one partition".into());
    }
    Ok((superstep, partitions))
}

/// Parse a count of at least one: a parallelism, an iteration cap, a
/// worker count or a time in milliseconds.
fn parse_count<T: std::str::FromStr + Default + PartialEq>(
    raw: &str,
    what: &str,
) -> Result<T, String> {
    match raw.parse() {
        Ok(count) if count != T::default() => Ok(count),
        Ok(_) => Err(format!("{what} must be at least 1")),
        Err(_) => Err(format!("invalid {what} {raw:?}")),
    }
}

/// Parse a planned rescale for `--scale`: `SUPERSTEP:WORKERS`.
pub fn parse_scale(raw: &str) -> Result<cluster::ScaleEvent, String> {
    let (superstep, workers) = raw
        .split_once(':')
        .ok_or_else(|| format!("scale spec must be SUPERSTEP:WORKERS — got {raw:?}"))?;
    let superstep =
        superstep.parse().map_err(|_| format!("invalid scale superstep {superstep:?}"))?;
    let workers: usize =
        workers.parse().map_err(|_| format!("invalid scale worker count {workers:?}"))?;
    if workers == 0 {
        return Err("scale spec needs at least one worker".into());
    }
    Ok(cluster::ScaleEvent { superstep, workers })
}

/// Parse a SIGKILL plan for `--kill`: `SUPERSTEP:WORKER`.
pub fn parse_kill(raw: &str) -> Result<(u32, usize), String> {
    let (superstep, worker) = raw
        .split_once(':')
        .ok_or_else(|| format!("kill spec must be SUPERSTEP:WORKER — got {raw:?}"))?;
    let superstep =
        superstep.parse().map_err(|_| format!("invalid kill superstep {superstep:?}"))?;
    let worker = worker.parse().map_err(|_| format!("invalid kill worker {worker:?}"))?;
    Ok((superstep, worker))
}

/// Parse a chaos scenario spec into `plan`. The spec is either `@PATH`
/// (read scenarios from a file: one per line, `#` comments) or
/// `;`-separated scenarios:
///
/// * `kill@S:W1,W2,…` — SIGKILL workers `W…` during superstep `S` (several
///   workers form a kill storm)
/// * `slow@S-T:W:MS` — straggler: worker `W` runs `MS` ms late during
///   supersteps `S..=T`
/// * `delay@S-T:W:MS` — link delay: frames to worker `W` are delayed `MS`
///   ms during supersteps `S..=T`
/// * `drop@S-T:W:P:SEED` — lossy link: each superstep in `S..=T` the
///   connection to worker `W` drops with probability `P`, decided
///   deterministically from `SEED`
pub fn parse_chaos(raw: &str, plan: &mut cluster::ChaosPlan) -> Result<(), String> {
    if let Some(path) = raw.strip_prefix('@') {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read chaos scenario file {path}: {e}"))?;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            parse_chaos_scenario(line, plan)?;
        }
        return Ok(());
    }
    for scenario in raw.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        parse_chaos_scenario(scenario, plan)?;
    }
    Ok(())
}

fn parse_chaos_scenario(raw: &str, plan: &mut cluster::ChaosPlan) -> Result<(), String> {
    let bad = |why: &str| format!("invalid chaos scenario {raw:?}: {why}");
    let (kind, rest) =
        raw.split_once('@').ok_or_else(|| bad("expected KIND@ARGS (kill/slow/delay/drop)"))?;
    let parse_span = |s: &str| -> Result<(u32, u32), String> {
        let (from, to) = match s.split_once('-') {
            Some((from, to)) => (
                from.parse().map_err(|_| bad("bad superstep range start"))?,
                to.parse().map_err(|_| bad("bad superstep range end"))?,
            ),
            None => {
                let at = s.parse().map_err(|_| bad("bad superstep"))?;
                (at, at)
            }
        };
        if from > to {
            return Err(bad("superstep range runs backwards"));
        }
        Ok((from, to))
    };
    match kind {
        "kill" => {
            let (superstep, workers) =
                rest.split_once(':').ok_or_else(|| bad("expected kill@S:W1,W2,…"))?;
            let superstep = superstep.parse().map_err(|_| bad("bad superstep"))?;
            for worker in workers.split(',') {
                let worker = worker.parse().map_err(|_| bad("bad worker index"))?;
                plan.kills.push(cluster::KillPlan { superstep, worker });
            }
        }
        "slow" => {
            let [span, worker, ms] =
                split_fields(rest).ok_or_else(|| bad("expected slow@S-T:W:MS"))?;
            let (from, to) = parse_span(span)?;
            plan.stragglers.push(cluster::StragglerPlan {
                from,
                to,
                worker: worker.parse().map_err(|_| bad("bad worker index"))?,
                delay: std::time::Duration::from_millis(
                    ms.parse().map_err(|_| bad("bad delay (ms)"))?,
                ),
            });
        }
        "delay" => {
            let [span, worker, ms] =
                split_fields(rest).ok_or_else(|| bad("expected delay@S-T:W:MS"))?;
            let (from, to) = parse_span(span)?;
            plan.links.push(cluster::LinkPlan {
                from,
                to,
                worker: worker.parse().map_err(|_| bad("bad worker index"))?,
                delay: std::time::Duration::from_millis(
                    ms.parse().map_err(|_| bad("bad delay (ms)"))?,
                ),
                drop_probability: 0.0,
                seed: 0,
            });
        }
        "drop" => {
            let fields: Vec<&str> = rest.split(':').collect();
            let [span, worker, prob, seed] = fields.as_slice() else {
                return Err(bad("expected drop@S-T:W:P:SEED"));
            };
            let (from, to) = parse_span(span)?;
            let prob: f64 = prob.parse().map_err(|_| bad("bad drop probability"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(bad("drop probability must be in 0.0..=1.0"));
            }
            plan.links.push(cluster::LinkPlan {
                from,
                to,
                worker: worker.parse().map_err(|_| bad("bad worker index"))?,
                delay: std::time::Duration::ZERO,
                drop_probability: prob,
                seed: seed.parse().map_err(|_| bad("bad seed"))?,
            });
        }
        other => return Err(bad(&format!("unknown scenario kind {other:?}"))),
    }
    Ok(())
}

fn split_fields(rest: &str) -> Option<[&str; 3]> {
    let fields: Vec<&str> = rest.split(':').collect();
    match fields.as_slice() {
        [a, b, c] => Some([a, b, c]),
        _ => None,
    }
}

/// One row of a subcommand's flag table.
struct Flag<T> {
    name: &'static str,
    /// The value's name in the usage text; empty for a switch, which takes
    /// no value.
    metavar: &'static str,
    /// Help lines: the first beside the flag, the rest under it.
    help: &'static [&'static str],
    occurs: Occurs,
    /// Parse the value into the invocation.
    set: fn(&mut T, &str) -> Result<(), String>,
}

/// How often a flag may be given.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Occurs {
    /// At most once: a repeat replaces the earlier value.
    Once,
    /// As [`Occurs::Once`], and the subcommand needs it.
    Required,
    /// Each occurrence adds to the earlier ones.
    Repeats,
}

/// The one parse loop. Each flag is looked up in `table`; one that does not
/// repeat keeps only its last value. Once every flag is known and every
/// required one given, the kept values are parsed in the order given.
/// `command` names the subcommand in a missing-flag error.
fn parse_flags<T>(
    command: &str,
    table: &[Flag<T>],
    args: &[String],
    target: &mut T,
) -> Result<(), String> {
    let mut given: Vec<(&Flag<T>, &str)> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(name) = args.next() {
        let Some(flag) = table.iter().find(|flag| flag.name == name) else {
            let valid: Vec<&str> = table.iter().map(|flag| flag.name).collect();
            return Err(format!("unknown flag {name:?}; valid flags: {}", valid.join(", ")));
        };
        let value = match flag.metavar {
            "" => "",
            _ => args.next().ok_or_else(|| format!("flag {name} needs a value"))?,
        };
        if flag.occurs != Repeats {
            given.retain(|(kept, _)| kept.name != name);
        }
        given.push((flag, value));
    }
    let given_name = |name| given.iter().any(|(kept, _)| kept.name == name);
    if let Some(flag) = table.iter().find(|f| f.occurs == Required && !given_name(f.name)) {
        return Err(format!("{command} requires {} <{}>", flag.name, flag.metavar));
    }
    given.into_iter().try_for_each(|(flag, value)| (flag.set)(target, value))
}

/// A flag as the usage text shows it: `--graph <SPEC>`, or a bare switch.
fn flag_head<T>(flag: &Flag<T>) -> String {
    match flag.metavar {
        "" => flag.name.to_string(),
        metavar => format!("{} <{metavar}>", flag.name),
    }
}

/// A usage text's flag section: each flag beside its first help line, the
/// rest of its help lines under that one. A flag too wide for the help
/// column lines up with the other wide ones.
fn flag_lines<T>(table: &[Flag<T>]) -> String {
    let mut text = String::new();
    for flag in table {
        let mut head = flag_head(flag);
        let mut width = if head.len() > 20 { 28 } else { 20 };
        for line in flag.help {
            text += &format!("    {head:<width$}  {line}\n");
            head.clear();
            width = 20;
        }
    }
    text
}

/// A value taken as given: a path or an address.
fn verbatim(raw: &str) -> Result<String, String> {
    Ok(raw.to_string())
}

/// Parse the number given to `flag`.
fn number<N: std::str::FromStr>(raw: &str, flag: &str) -> Result<N, String> {
    raw.parse().map_err(|_| format!("invalid value for {flag}: {raw:?}"))
}

/// Refuse a failure of a partition the run does not have.
fn check_partitions<'a>(
    flag: &str,
    partitions: impl IntoIterator<Item = &'a usize>,
    parallelism: usize,
) -> Result<(), String> {
    match partitions.into_iter().max().filter(|&&pid| pid >= parallelism) {
        Some(pid) => Err(format!(
            "{flag} targets partition {pid}, but --parallelism {parallelism} has partitions 0..={}",
            parallelism - 1
        )),
        None => Ok(()),
    }
}

/// The flags of `optirec <ALGORITHM>`.
#[rustfmt::skip]
const RUN: &[Flag<Invocation>] = &[
    Flag { name: "--graph", metavar: "SPEC", occurs: Once,
        help: &["demo | twitter:N | grid:WxH | path:N | file:PATH   [demo]"],
        set: |run, v| GraphSpec::parse(v).map(|graph| run.graph = graph) },
    Flag { name: "--strategy", metavar: "SPEC", occurs: Once,
        help: &["optimistic | checkpoint:K | incremental:K |",
                "async-snapshot[:K] | restart | ignore   [optimistic]"],
        set: |run, v| parse_strategy(v).map(|strategy| run.strategy = strategy) },
    Flag { name: "--fail", metavar: "S:P1,P2", occurs: Repeats,
        help: &["fail partitions P1,P2 at superstep S (repeatable)"],
        set: |run, v| parse_failure(v).map(|(superstep, partitions)| {
            run.scenario = std::mem::take(&mut run.scenario).fail_at(superstep, &partitions)
        }) },
    Flag { name: "--parallelism", metavar: "N", occurs: Once,
        help: &["number of partitions / simulated workers   [4]"],
        set: |run, v| parse_count(v, "parallelism").map(|n| run.parallelism = n) },
    Flag { name: "--max-iterations", metavar: "N", occurs: Once,
        help: &["iteration cap   [200]"],
        set: |run, v| parse_count(v, "iteration cap").map(|n| run.max_iterations = n) },
    Flag { name: "--explain", metavar: "", occurs: Once,
        help: &["print the dataflow plan instead of running"],
        set: |run, _| { run.explain_only = true; Ok(()) } },
    Flag { name: "--journal", metavar: "PATH", occurs: Once,
        help: &["capture telemetry: write the event journal there,",
                "plus spans and report sidecars (inspect reads them)"],
        set: |run, v| verbatim(v).map(|path| run.journal = Some(path.into())) },
    Flag { name: "--cluster", metavar: "N", occurs: Once,
        help: &["run on N real worker processes over loopback TCP",
                "(cc and pagerank only; spawns `optirec worker`)"],
        set: |run, v| parse_count(v, "worker count").map(|n| run.cluster = Some(n)) },
    Flag { name: "--kill", metavar: "S:W", occurs: Repeats,
        help: &["with --cluster: SIGKILL worker W while superstep S",
                "is in flight (repeatable; composes with --chaos)"],
        set: |run, v| parse_kill(v).map(|(superstep, worker)| {
            run.chaos.kills.push(cluster::KillPlan { superstep, worker })
        }) },
    Flag { name: "--scale", metavar: "S:N", occurs: Repeats,
        help: &["with --cluster: planned rescale to N workers at",
                "superstep S (repeatable) — joiners are spawned and",
                "loaded live, leavers are shut down at the barrier,",
                "and moved partitions re-ship over the recovery path"],
        set: |run, v| parse_scale(v).map(|event| run.scale.push(event)) },
    Flag { name: "--chaos", metavar: "SPEC", occurs: Repeats,
        help: &["with --cluster: schedule failure injections.",
                "SPEC is `;`-separated scenarios, or @PATH to read",
                "them from a file (one per line, # comments):",
                "  kill@S:W1,W2     SIGKILL workers at superstep S",
                "  slow@S-T:W:MS    straggler: worker W lags MS ms",
                "  delay@S-T:W:MS   link delay on frames to W",
                "  drop@S-T:W:P:SEED  lossy link: sever W's",
                "                   connection with probability P,",
                "                   deterministic from SEED"],
        set: |run, v| parse_chaos(v, &mut run.chaos) },
    Flag { name: "--heartbeat-interval-ms", metavar: "MS", occurs: Once,
        help: &["with --cluster: delay between heartbeat",
                "probes   [100; env OPTIREC_HEARTBEAT_INTERVAL_MS]"],
        set: |run, v| parse_count(v, "heartbeat interval")
            .map(|ms| run.heartbeat_interval_ms = Some(ms)) },
    Flag { name: "--heartbeat-timeout-ms", metavar: "MS", occurs: Once,
        help: &["with --cluster: silence before a worker is",
                "declared dead   [3000; env OPTIREC_HEARTBEAT_TIMEOUT_MS]"],
        set: |run, v| parse_count(v, "heartbeat timeout")
            .map(|ms| run.heartbeat_timeout_ms = Some(ms)) },
    Flag { name: "--step-timeout-ms", metavar: "MS", occurs: Once,
        help: &["with --cluster: per-superstep control read",
                "timeout   [30000; env OPTIREC_STEP_TIMEOUT_MS]"],
        set: |run, v| parse_count(v, "step timeout").map(|ms| run.step_timeout_ms = Some(ms)) },
];

/// Usage text.
pub fn usage() -> String {
    format!(
        "optirec — optimistic recovery for iterative dataflows, demo launcher

USAGE:
    optirec <ALGORITHM> [OPTIONS]
    optirec serve <cc|pagerank> [OPTIONS]      (see `optirec serve --help`)
    optirec inspect <{views}> [OPTIONS]
    optirec top (--report <PATH> | --connect <ADDR>) [--once] [--interval-ms <MS>]
    optirec worker [--listen ADDR]

ALGORITHMS:
    cc | pagerank | sssp | reachability | kmeans | jacobi | als

OPTIONS:
{options}
EXAMPLES:
    optirec cc --fail 3:1 --fail 5:0,2
    optirec cc --fail 3:1,2 --journal results/cc_journal.jsonl      # §3.2 demo
    optirec pagerank --fail 5:1 --journal results/pr_journal.jsonl  # §3.3 demo
    optirec pagerank --graph twitter:50000 --strategy checkpoint:2 --parallelism 8
    optirec cc --journal results/cc_journal.jsonl
    optirec cc --cluster 2 --kill 2:1 --journal results/cluster_journal.jsonl
    optirec cc --cluster 2 --scale 2:4 --scale 5:2 --journal results/elastic_journal.jsonl
    optirec cc --cluster 3 --strategy async-snapshot:2 --chaos 'kill@2:0,1;slow@3-5:2:50'
    optirec inspect convergence --journal results/cc_journal.jsonl
    optirec inspect recovery --journal results/cluster_journal.jsonl
    optirec inspect demo --journal results/cc_journal.jsonl
    optirec inspect diff --baseline results/base_journal.jsonl --journal results/cc_journal.jsonl
    optirec top --once --report results/cluster_report.json

Each subcommand prints its own usage with --help: `optirec serve --help`,
`optirec inspect --help`, `optirec top --help`, `optirec worker --help`.
",
        views = view_names("|"),
        options = flag_lines(RUN),
    )
}

/// Parse a full argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let (name, flags) =
        args.split_first().ok_or_else(|| format!("missing algorithm\n\n{}", usage()))?;
    let mut invocation = Invocation {
        algorithm: Algorithm::parse(name)?,
        graph: GraphSpec::Demo,
        strategy: Strategy::Optimistic,
        scenario: FailureScenario::none(),
        parallelism: 4,
        max_iterations: 200,
        explain_only: false,
        journal: None,
        cluster: None,
        chaos: cluster::ChaosPlan::default(),
        scale: Vec::new(),
        heartbeat_interval_ms: None,
        heartbeat_timeout_ms: None,
        step_timeout_ms: None,
    };
    parse_flags(name, RUN, flags, &mut invocation)?;
    check_run(&invocation)?;
    Ok(invocation)
}

/// The checks across a run's flags.
fn check_run(invocation: &Invocation) -> Result<(), String> {
    let algorithm = invocation.algorithm;
    if invocation.explain_only && algorithm.program().is_none() {
        return Err("--explain supports cc and pagerank".into());
    }
    let partitions = invocation.scenario.events().iter().flat_map(|(_, lost)| lost);
    check_partitions("--fail", partitions, invocation.parallelism)?;
    if !invocation.chaos.is_empty() && invocation.cluster.is_none() {
        return Err("--kill/--chaos need --cluster: they disturb real worker processes".into());
    }
    if !invocation.scale.is_empty() && invocation.cluster.is_none() {
        return Err("--scale needs --cluster: it resizes real worker processes".into());
    }
    if invocation.cluster.is_none()
        && (invocation.heartbeat_interval_ms.is_some()
            || invocation.heartbeat_timeout_ms.is_some()
            || invocation.step_timeout_ms.is_some())
    {
        return Err("heartbeat/step timeouts only apply to --cluster runs".into());
    }
    if let Some(workers) = invocation.cluster {
        if algorithm.program().is_none() {
            return Err(format!("--cluster supports cc and pagerank, not {algorithm:?}"));
        }
        if let Some(reason) = cluster::unsupported_strategy(invocation.strategy) {
            return Err(format!("--cluster: {reason}"));
        }
        if !invocation.scenario.is_failure_free() {
            return Err(
                "--fail simulates partition loss in-process; use --kill/--chaos with --cluster"
                    .into(),
            );
        }
        if let Some(event) =
            invocation.scale.iter().find(|event| event.workers > invocation.parallelism)
        {
            return Err(format!(
                "--scale {}:{} targets more workers than --parallelism {} partitions",
                event.superstep, event.workers, invocation.parallelism
            ));
        }
        // Parse-time worker validation: a kill aimed past the cluster used
        // to be silently clamped to the last worker — fail loudly instead.
        // Chaos may target any worker index the cluster ever has, including
        // ones a planned scale-up adds.
        let max_workers =
            invocation.scale.iter().map(|event| event.workers).chain([workers]).max().unwrap_or(1);
        if let Some(worker) = invocation.chaos.max_worker().filter(|&w| w >= max_workers) {
            return Err(format!(
                "chaos/kill spec targets worker {worker}, but this run never has more than \
                 {max_workers} workers (indices 0..={})",
                max_workers - 1
            ));
        }
    }
    Ok(())
}

/// One `optirec inspect` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum InspectCommand {
    /// ASCII Gantt of supersteps with failure/recovery markers.
    Timeline {
        /// Event journal to fold.
        journal: PathBuf,
        /// Explicit spans sidecar (auto-derived from the journal otherwise).
        spans: Option<PathBuf>,
    },
    /// Per-partition / per-operator time breakdown.
    Profile {
        /// Metrics-wrapped (or bare) run report.
        report: PathBuf,
        /// Straggler threshold as a multiple of the median partition.
        straggler_factor: f64,
    },
    /// Convergence curves with recovery overlays.
    Convergence {
        /// Event journal to fold.
        journal: PathBuf,
        /// Also export the per-superstep table as CSV.
        csv: Option<PathBuf>,
        /// Also export an HTML page with SVG charts.
        html: Option<PathBuf>,
    },
    /// Per-failure recovery-cost accounting (detection latency, respawn
    /// time, re-shipped bytes, recomputed supersteps).
    Recovery {
        /// Event journal to fold.
        journal: PathBuf,
        /// Explicit report sidecar for the recovery span total
        /// (auto-derived from the journal otherwise).
        report: Option<PathBuf>,
    },
    /// The paper's demo screens and plots.
    Demo {
        /// Event journal holding the run's state samples.
        journal: PathBuf,
    },
    /// Compare two runs and flag regressions.
    Diff {
        /// Baseline journal.
        baseline: PathBuf,
        /// Current journal.
        journal: PathBuf,
        /// Explicit baseline report (auto-derived otherwise).
        baseline_report: Option<PathBuf>,
        /// Explicit current report (auto-derived otherwise).
        report: Option<PathBuf>,
        /// Regression thresholds.
        options: DiffOptions,
    },
}

/// The flags of every `inspect` view; a view builds its command from them.
#[derive(Default)]
struct InspectArgs {
    journal: Option<PathBuf>,
    spans: Option<PathBuf>,
    report: Option<PathBuf>,
    straggler_factor: Option<f64>,
    csv: Option<PathBuf>,
    html: Option<PathBuf>,
    baseline: Option<PathBuf>,
    baseline_report: Option<PathBuf>,
    options: DiffOptions,
}

/// A required flag's value: [`parse_flags`] refuses a view without it.
fn given(path: Option<PathBuf>) -> PathBuf {
    path.expect("parse_flags refuses a view without its required flags")
}

/// A flag of an `inspect` view. The inspect usage shows each view's flags
/// as a synopsis, so the row has no help lines.
const fn inspect_flag(
    name: &'static str,
    metavar: &'static str,
    occurs: Occurs,
    set: fn(&mut InspectArgs, &str) -> Result<(), String>,
) -> Flag<InspectArgs> {
    Flag { name, metavar, help: &[], occurs, set }
}

const JOURNAL: Flag<InspectArgs> = inspect_flag("--journal", "PATH", Required, |args, v| {
    verbatim(v).map(|path| args.journal = Some(path.into()))
});
const SPANS: Flag<InspectArgs> = inspect_flag("--spans", "PATH", Once, |args, v| {
    verbatim(v).map(|path| args.spans = Some(path.into()))
});
const REPORT: Flag<InspectArgs> = inspect_flag("--report", "PATH", Once, |args, v| {
    verbatim(v).map(|path| args.report = Some(path.into()))
});
const STRAGGLER_FACTOR: Flag<InspectArgs> =
    inspect_flag("--straggler-factor", "F", Once, |args, v| {
        number(v, "--straggler-factor").map(|f| args.straggler_factor = Some(f))
    });
const CSV: Flag<InspectArgs> = inspect_flag("--csv", "PATH", Once, |args, v| {
    verbatim(v).map(|path| args.csv = Some(path.into()))
});
const HTML: Flag<InspectArgs> = inspect_flag("--html", "PATH", Once, |args, v| {
    verbatim(v).map(|path| args.html = Some(path.into()))
});
const BASELINE: Flag<InspectArgs> = inspect_flag("--baseline", "PATH", Required, |args, v| {
    verbatim(v).map(|path| args.baseline = Some(path.into()))
});
const BASELINE_REPORT: Flag<InspectArgs> =
    inspect_flag("--baseline-report", "PATH", Once, |args, v| {
        verbatim(v).map(|path| args.baseline_report = Some(path.into()))
    });
const SUPERSTEP_PCT: Flag<InspectArgs> = inspect_flag("--superstep-pct", "P", Once, |args, v| {
    number(v, "--superstep-pct").map(|pct| args.options.superstep_pct = pct)
});
const WALL_PCT: Flag<InspectArgs> = inspect_flag("--wall-pct", "P", Once, |args, v| {
    number(v, "--wall-pct").map(|pct| args.options.wall_pct = pct)
});
const REDUNDANT_STEPS: Flag<InspectArgs> =
    inspect_flag("--redundant-steps", "N", Once, |args, v| {
        number(v, "--redundant-steps").map(|n| args.options.redundant_steps = n)
    });
const RECOVERY_PCT: Flag<InspectArgs> = inspect_flag("--recovery-pct", "P", Once, |args, v| {
    number(v, "--recovery-pct").map(|pct| args.options.recovery_pct = pct)
});

/// One `inspect` view: its flags, and its command built from them.
struct View {
    name: &'static str,
    flags: &'static [Flag<InspectArgs>],
    build: fn(InspectArgs) -> InspectCommand,
}

/// The `inspect` views.
const VIEWS: &[View] = &[
    View {
        name: "timeline",
        flags: &[JOURNAL, SPANS],
        build: |args| InspectCommand::Timeline { journal: given(args.journal), spans: args.spans },
    },
    View {
        name: "profile",
        flags: &[Flag { occurs: Required, ..REPORT }, STRAGGLER_FACTOR],
        build: |args| InspectCommand::Profile {
            report: given(args.report),
            straggler_factor: args.straggler_factor.unwrap_or(2.0),
        },
    },
    View {
        name: "convergence",
        flags: &[JOURNAL, CSV, HTML],
        build: |args| InspectCommand::Convergence {
            journal: given(args.journal),
            csv: args.csv,
            html: args.html,
        },
    },
    View {
        name: "recovery",
        flags: &[JOURNAL, REPORT],
        build: |args| InspectCommand::Recovery {
            journal: given(args.journal),
            report: args.report,
        },
    },
    View {
        name: "demo",
        flags: &[JOURNAL],
        build: |args| InspectCommand::Demo { journal: given(args.journal) },
    },
    View {
        name: "diff",
        flags: &[
            BASELINE,
            JOURNAL,
            BASELINE_REPORT,
            REPORT,
            SUPERSTEP_PCT,
            WALL_PCT,
            REDUNDANT_STEPS,
            RECOVERY_PCT,
        ],
        build: |args| InspectCommand::Diff {
            baseline: given(args.baseline),
            journal: given(args.journal),
            baseline_report: args.baseline_report,
            report: args.report,
            options: args.options,
        },
    },
];

/// The views' names, joined by `separator`.
fn view_names(separator: &str) -> String {
    VIEWS.iter().map(|view| view.name).collect::<Vec<_>>().join(separator)
}

/// Usage text of the `inspect` subcommands: a synopsis line per view,
/// wrapped at 80 columns, with its optional flags in brackets.
pub fn inspect_usage() -> String {
    let mut text = String::from("optirec inspect — analyse a captured run\n\nUSAGE:\n");
    for view in VIEWS {
        let mut line = format!("    optirec inspect {:<11}", view.name);
        let indent = line.len();
        for flag in view.flags {
            let word = match flag.occurs {
                Required => flag_head(flag),
                _ => format!("[{}]", flag_head(flag)),
            };
            if line.len() > indent && line.len() + 1 + word.len() > 80 {
                text += &line;
                text.push('\n');
                line = " ".repeat(indent);
            }
            line += " ";
            line += &word;
        }
        text += &line;
        text.push('\n');
    }
    text + "
Paths point at JSONL journals written with --journal (or by the figure
binaries); spans and report sidecars are found automatically next to the
journal when present. `recovery` attributes, per worker outage, the
detection latency, respawn cost, re-shipped bytes, and recomputed
supersteps. `demo` draws the paper's demo from a cc or pagerank run over a
demo-sized graph: each superstep's graph state, lost vertices marked, then
the algorithm's two plots. `diff` exits nonzero when the current run
regresses beyond the thresholds (defaults: supersteps +0%, wall +20%,
redundant supersteps +0, recovery wall +25%).
"
}

/// Parse the arguments following `inspect`.
pub fn parse_inspect(args: &[String]) -> Result<InspectCommand, String> {
    let (name, flags) = args
        .split_first()
        .ok_or_else(|| format!("missing inspect subcommand\n\n{}", inspect_usage()))?;
    let view = VIEWS.iter().find(|view| view.name == name).ok_or_else(|| {
        format!(
            "unknown inspect subcommand {name:?}; expected {}\n\n{}",
            view_names(" | "),
            inspect_usage()
        )
    })?;
    let mut parsed = InspectArgs::default();
    parse_flags(&format!("inspect {name}"), view.flags, flags, &mut parsed)?;
    Ok((view.build)(parsed))
}

/// One `optirec serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInvocation {
    /// The maintained algorithm (cc or pagerank).
    pub algorithm: Algorithm,
    /// The initial graph.
    pub graph: GraphSpec,
    /// Partitions per epoch run.
    pub parallelism: usize,
    /// Superstep cap per epoch run.
    pub max_iterations: u32,
    /// Replay this mutation file against the engine after bootstrap.
    pub replay: Option<PathBuf>,
    /// Serve the line protocol over TCP on this address after the replay.
    pub listen: Option<String>,
    /// With `--listen`: stop after this many seconds (forever otherwise).
    pub serve_seconds: Option<u64>,
    /// Capture telemetry and write the journal (plus sidecars) there on
    /// exit.
    pub journal: Option<PathBuf>,
    /// Failure injection into one epoch's (re-)convergence.
    pub inject: Option<serve::EpochInjection>,
    /// Elastic worker range (`--min-workers`/`--max-workers`): epochs run
    /// on worker processes sized by the load-driven controller, and the
    /// `scale N` verb sets the target for the next commit.
    pub elastic: Option<serve::ElasticRange>,
}

/// The flags of `optirec serve`: the invocation, and the elastic range's
/// two bounds, which [`check_serve`] pairs.
struct ServeArgs {
    serve: ServeInvocation,
    min_workers: Option<usize>,
    max_workers: Option<usize>,
}

/// The flags of `optirec serve`.
#[rustfmt::skip]
const SERVE: &[Flag<ServeArgs>] = &[
    Flag { name: "--graph", metavar: "SPEC", occurs: Once,
        help: &["demo | twitter:N | grid:WxH | path:N | file:PATH   [demo]"],
        set: |args, v| GraphSpec::parse(v).map(|graph| args.serve.graph = graph) },
    Flag { name: "--parallelism", metavar: "N", occurs: Once,
        help: &["partitions per epoch run   [4]"],
        set: |args, v| parse_count(v, "parallelism").map(|n| args.serve.parallelism = n) },
    Flag { name: "--max-iterations", metavar: "N", occurs: Once,
        help: &["superstep cap per epoch run   [200]"],
        set: |args, v| parse_count(v, "iteration cap").map(|n| args.serve.max_iterations = n) },
    Flag { name: "--replay", metavar: "PATH", occurs: Once,
        help: &["replay a mutation file after the bootstrap",
                "convergence (the line protocol, one command per line)"],
        set: |args, v| verbatim(v).map(|path| args.serve.replay = Some(path.into())) },
    Flag { name: "--listen", metavar: "ADDR", occurs: Once,
        help: &["serve the line protocol over TCP (e.g. 127.0.0.1:7878;",
                "port 0 picks a free port)"],
        set: |args, v| verbatim(v).map(|addr| args.serve.listen = Some(addr)) },
    Flag { name: "--serve-seconds", metavar: "N", occurs: Once,
        help: &["with --listen: stop after N seconds   [forever]"],
        set: |args, v| number(v, "--serve-seconds").map(|s| args.serve.serve_seconds = Some(s)) },
    Flag { name: "--journal", metavar: "PATH", occurs: Once,
        help: &["capture telemetry across all epochs; written on exit",
                "(with --listen this requires --serve-seconds, since",
                "an unbounded run never exits)"],
        set: |args, v| verbatim(v).map(|path| args.serve.journal = Some(path.into())) },
    Flag { name: "--inject", metavar: "SPEC", occurs: Once,
        help: &["fail one epoch's (re-)convergence:",
                "  panic:E:S          UDF panic at superstep S of epoch E",
                "  fail:E:S:P1,P2     destroy partitions at superstep S",
                "  mtbf:E:PROB:SEED   seeded random failures all epoch",
                "  kill:E:S:W:N       run epoch E on N worker processes,",
                "                     SIGKILL worker W at superstep S"],
        set: |args, v| parse_inject(v).map(|inject| args.serve.inject = Some(inject)) },
    Flag { name: "--min-workers", metavar: "N", occurs: Once,
        help: &["with --max-workers: run every epoch on worker",
                "processes, elastically sized between N and the",
                "maximum — the controller grows the cluster under",
                "epoch-latency pressure and shrinks it when idle;",
                "`scale N` sets the target explicitly"],
        set: |args, v| number(v, "--min-workers").map(|n| args.min_workers = Some(n)) },
    Flag { name: "--max-workers", metavar: "N", occurs: Once,
        help: &["upper bound of the elastic range (at most",
                "--parallelism)"],
        set: |args, v| number(v, "--max-workers").map(|n| args.max_workers = Some(n)) },
];

/// Usage text of the `serve` subcommand.
pub fn serve_usage() -> String {
    format!(
        "optirec serve — incremental serving engine with live graph mutations

USAGE:
    optirec serve <cc|pagerank> [OPTIONS]

OPTIONS:
{}
LINE PROTOCOL (TCP and replay files):
    + u v    stage an edge insert        get v    point query
    - u v    stage an edge delete        top n    largest components / top ranks
    commit   apply the batch: incremental re-convergence
    scale n  set the elastic worker target (needs --min-workers/--max-workers;
             the rescale fires at the next commit's first barrier)
    stats    one-line introspection snapshot (epoch, staged batch, queries);
             `optirec top --connect ADDR` polls it for you
    quit     end the session

EXAMPLES:
    optirec serve cc --graph path:64 --replay mutations.txt --journal results/serve_journal.jsonl
    optirec serve cc --listen 127.0.0.1:7878
    optirec serve cc --min-workers 2 --max-workers 4 --replay m.txt --journal results/j.jsonl
    optirec serve pagerank --replay m.txt --inject panic:1:2
",
        flag_lines(SERVE)
    )
}

/// Parse an injection spec (see [`serve_usage`]). A `fail:` spec's
/// `S:P1,P2` is [`parse_failure`]'s grammar, a `kill:` spec's `S:W`
/// [`parse_kill`]'s.
pub fn parse_inject(raw: &str) -> Result<serve::EpochInjection, String> {
    let bad = || format!("invalid inject spec {raw:?}; see `optirec serve --help`");
    let (kind, rest) = raw.split_once(':').ok_or_else(bad)?;
    let (epoch, rest) = rest.split_once(':').ok_or_else(bad)?;
    let kind = match kind {
        "panic" => serve::InjectionKind::Panic { superstep: rest.parse().map_err(|_| bad())? },
        "fail" => {
            let (superstep, partitions) = parse_failure(rest)?;
            serve::InjectionKind::Fail { superstep, partitions }
        }
        "mtbf" => {
            let (probability, seed) = rest.split_once(':').ok_or_else(bad)?;
            let probability: f64 = probability.parse().map_err(|_| bad())?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(bad());
            }
            serve::InjectionKind::Mtbf { probability, seed: seed.parse().map_err(|_| bad())? }
        }
        "kill" => {
            let (kill, workers) = rest.rsplit_once(':').ok_or_else(bad)?;
            let (superstep, worker) = parse_kill(kill)?;
            let workers = workers.parse().map_err(|_| bad())?;
            serve::InjectionKind::ClusterKill { workers, superstep, worker }
        }
        _ => return Err(bad()),
    };
    Ok(serve::EpochInjection { epoch: epoch.parse().map_err(|_| bad())?, kind })
}

/// Parse the arguments following `serve`.
pub fn parse_serve(args: &[String]) -> Result<ServeInvocation, String> {
    let (name, flags) = args
        .split_first()
        .ok_or_else(|| format!("missing serve algorithm\n\n{}", serve_usage()))?;
    let algorithm = Algorithm::parse(name)?;
    if algorithm.program().is_none() {
        return Err(format!("serve supports cc and pagerank, not {algorithm:?}"));
    }
    let serve = ServeInvocation {
        algorithm,
        graph: GraphSpec::Demo,
        parallelism: 4,
        max_iterations: 200,
        replay: None,
        listen: None,
        serve_seconds: None,
        journal: None,
        inject: None,
        elastic: None,
    };
    let mut parsed = ServeArgs { serve, min_workers: None, max_workers: None };
    parse_flags("serve", SERVE, flags, &mut parsed)?;
    check_serve(parsed)
}

/// The checks across serve's flags; they pair the elastic range's bounds.
fn check_serve(args: ServeArgs) -> Result<ServeInvocation, String> {
    let ServeArgs { mut serve, min_workers, max_workers } = args;
    serve.elastic = match (min_workers, max_workers) {
        (Some(min_workers), Some(max_workers)) => {
            if min_workers == 0 {
                return Err("--min-workers 0: an elastic epoch runs on at least one worker".into());
            }
            if min_workers > max_workers {
                return Err(format!(
                    "--min-workers {min_workers} exceeds --max-workers {max_workers}"
                ));
            }
            if max_workers > serve.parallelism {
                return Err(format!(
                    "--max-workers {max_workers} exceeds --parallelism {}: a worker holds at \
                     least one partition",
                    serve.parallelism
                ));
            }
            Some(serve::ElasticRange { min_workers, max_workers })
        }
        (None, None) => None,
        _ => {
            return Err(
                "--min-workers and --max-workers come as a pair: they bound the elastic range"
                    .into(),
            )
        }
    };
    if serve.replay.is_none() && serve.listen.is_none() {
        return Err("serve needs --replay and/or --listen (otherwise it converges once and exits \
                    with nothing to do)"
            .into());
    }
    if serve.journal.is_some() && serve.listen.is_some() && serve.serve_seconds.is_none() {
        return Err("--journal is written on exit, which an unbounded --listen run never reaches \
                    (killing the daemon would discard the captured telemetry); add \
                    --serve-seconds <N> to bound the run"
            .into());
    }
    let parallelism = serve.parallelism;
    match serve.inject.as_ref().map(|inject| &inject.kind) {
        Some(serve::InjectionKind::Fail { partitions, .. }) => {
            check_partitions("--inject", partitions, parallelism)?;
        }
        Some(&serve::InjectionKind::ClusterKill { workers, worker, .. }) => {
            if !(1..=parallelism).contains(&workers) {
                return Err(format!(
                    "--inject runs the epoch on {workers} workers, but --parallelism \
                     {parallelism} allows 1..={parallelism}"
                ));
            }
            if worker >= workers {
                return Err(format!(
                    "--inject kills worker {worker}, but the epoch's {workers} workers are \
                     0..={}",
                    workers - 1
                ));
            }
        }
        _ => {}
    }
    Ok(serve)
}

/// One `optirec top` invocation: render a plain-text metrics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopInvocation {
    /// Render a saved report sidecar (one shot).
    pub report: Option<PathBuf>,
    /// Query a live serve daemon's `stats` command over TCP.
    pub connect: Option<String>,
    /// Render once and exit (otherwise `--connect` repeats forever).
    pub once: bool,
    /// Refresh interval for a repeating `--connect` session.
    pub interval_ms: u64,
}

/// The flags of `optirec top`.
#[rustfmt::skip]
const TOP: &[Flag<TopInvocation>] = &[
    Flag { name: "--report", metavar: "PATH", occurs: Once,
        help: &["render a saved report sidecar (once)"],
        set: |top, v| verbatim(v).map(|path| top.report = Some(path.into())) },
    Flag { name: "--connect", metavar: "ADDR", occurs: Once,
        help: &["poll a live serve daemon's `stats` command"],
        set: |top, v| verbatim(v).map(|addr| top.connect = Some(addr)) },
    Flag { name: "--once", metavar: "", occurs: Once,
        help: &["with --connect: render once and exit"],
        set: |top, _| { top.once = true; Ok(()) } },
    Flag { name: "--interval-ms", metavar: "MS", occurs: Once,
        help: &["with --connect: delay between polls   [2000]"],
        set: |top, v| parse_count(v, "refresh interval").map(|ms| top.interval_ms = ms) },
];

/// Usage text of the `top` subcommand.
pub fn top_usage() -> String {
    format!(
        "optirec top — a plain-text metrics snapshot

USAGE:
    optirec top (--report <PATH> | --connect <ADDR>) [--once] [--interval-ms <MS>]

OPTIONS:
{}
EXAMPLES:
    optirec top --once --report results/cluster_report.json
    optirec top --connect 127.0.0.1:7878 --interval-ms 500
",
        flag_lines(TOP)
    )
}

/// Parse the arguments following `top`.
pub fn parse_top(args: &[String]) -> Result<TopInvocation, String> {
    let mut top = TopInvocation { report: None, connect: None, once: false, interval_ms: 2000 };
    parse_flags("top", TOP, args, &mut top)?;
    if top.report.is_some() == top.connect.is_some() {
        return Err("top needs exactly one source: --report <PATH> (a saved sidecar) or \
             --connect <ADDR> (a live serve daemon)"
            .into());
    }
    Ok(top)
}

/// The flags of `optirec worker`: its listen address.
#[rustfmt::skip]
const WORKER: &[Flag<String>] = &[
    Flag { name: "--listen", metavar: "ADDR", occurs: Once,
        help: &["the address to bind   [127.0.0.1:0]"],
        set: |listen, v| verbatim(v).map(|addr| *listen = addr) },
];

/// Usage text of the `worker` subcommand.
pub fn worker_usage() -> String {
    format!(
        "optirec worker — a cluster worker process

USAGE:
    optirec worker [--listen ADDR]

OPTIONS:
{}
The worker prints `OPTIREC_WORKER_LISTENING <port>` once bound and serves
coordinator connections until killed. `optirec cc --cluster N` spawns its
own workers; start workers by hand only to watch the two-terminal demo from
README.md.
",
        flag_lines(WORKER)
    )
}

/// Parse the arguments following `worker`; returns the listen address.
pub fn parse_worker(args: &[String]) -> Result<String, String> {
    let mut listen = "127.0.0.1:0".to_string();
    parse_flags("worker", WORKER, args, &mut listen)?;
    Ok(listen)
}

/// Assemble the cluster config of an invocation: defaults, then `OPTIREC_*`
/// environment overrides, then explicit flags (flags win).
pub fn cluster_config(invocation: &Invocation, workers: usize) -> cluster::ClusterConfig {
    use std::time::Duration;
    let mut cfg =
        cluster::ClusterConfig::new(workers, invocation.parallelism, invocation.max_iterations)
            .with_env_timing();
    if let Some(ms) = invocation.heartbeat_interval_ms {
        cfg = cfg.with_heartbeat_interval(Duration::from_millis(ms));
    }
    if let Some(ms) = invocation.heartbeat_timeout_ms {
        cfg = cfg.with_heartbeat_timeout(Duration::from_millis(ms));
    }
    if let Some(ms) = invocation.step_timeout_ms {
        cfg = cfg.with_step_timeout(Duration::from_millis(ms));
    }
    cfg.chaos = invocation.chaos.clone();
    cfg.scale = invocation.scale.clone();
    cfg.strategy = invocation.strategy;
    cfg
}

/// Assemble the fault-tolerance config of an invocation.
pub fn ft_config(invocation: &Invocation) -> algos::FtConfig {
    algos::FtConfig {
        strategy: invocation.strategy,
        scenario: invocation.scenario.clone(),
        checkpoint_cost: CostModel::distributed_fs(),
        checkpoint_on_disk: false,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_invocation() {
        let invocation = parse_args(&args(&[
            "cc",
            "--graph",
            "twitter:5000",
            "--strategy",
            "checkpoint:2",
            "--fail",
            "3:1,2",
            "--fail",
            "5:0",
            "--parallelism",
            "8",
        ]))
        .unwrap();
        assert_eq!(invocation.algorithm, Algorithm::ConnectedComponents);
        assert_eq!(invocation.graph, GraphSpec::Twitter(5000));
        assert_eq!(invocation.strategy, Strategy::Checkpoint { interval: 2 });
        assert_eq!(invocation.parallelism, 8);
        assert_eq!(invocation.scenario.events().len(), 2);
    }

    #[test]
    fn defaults_are_sane() {
        let invocation = parse_args(&args(&["pagerank"])).unwrap();
        assert_eq!(invocation.algorithm, Algorithm::PageRank);
        assert_eq!(invocation.graph, GraphSpec::Demo);
        assert_eq!(invocation.strategy, Strategy::Optimistic);
        assert!(invocation.scenario.is_failure_free());
        assert!(!invocation.explain_only);
    }

    #[test]
    fn rejects_unknown_inputs() {
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["cc", "--strategy", "lineage"])).is_err());
        assert!(parse_args(&args(&["cc", "--graph", "torus:9"])).is_err());
        assert!(parse_args(&args(&["cc", "--fail", "nope"])).is_err());
        assert!(parse_args(&args(&["cc", "--fail"])).is_err());
        assert!(parse_args(&args(&["cc", "--wat", "9"])).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn graph_specs_parse() {
        assert_eq!(GraphSpec::parse("grid:3x4").unwrap(), GraphSpec::Grid(3, 4));
        assert_eq!(GraphSpec::parse("path:10").unwrap(), GraphSpec::Path(10));
        assert_eq!(
            GraphSpec::parse("file:/tmp/g.txt").unwrap(),
            GraphSpec::File("/tmp/g.txt".into())
        );
        assert!(GraphSpec::parse("grid:3").is_err());
        assert!(GraphSpec::parse("twitter:abc").is_err());
    }

    #[test]
    fn strategy_specs_parse() {
        assert_eq!(
            parse_strategy("incremental:4").unwrap(),
            Strategy::IncrementalCheckpoint { full_interval: 4 }
        );
        assert_eq!(parse_strategy("restart").unwrap(), Strategy::Restart);
        assert!(parse_strategy("checkpoint:x").is_err());
    }

    #[test]
    fn zero_intervals_are_parse_errors() {
        for name in ["checkpoint", "incremental", "async-snapshot"] {
            let err = parse_strategy(&format!("{name}:0")).unwrap_err();
            assert_eq!(err, format!("invalid {name} interval \"0\""));
            assert!(parse_strategy(&format!("{name}:1")).is_ok());
        }
    }

    #[test]
    fn failures_beyond_the_parallelism_are_parse_errors() {
        // Flag order does not matter: the check runs after every flag.
        for raw in [&["cc", "--fail", "3:9"][..], &["cc", "--fail", "3:1,8", "--parallelism", "8"]]
        {
            let err = parse_args(&args(raw)).unwrap_err();
            assert!(err.starts_with("--fail targets partition"), "{err}");
        }
        let err = parse_args(&args(&["cc", "--fail", "3:4"])).unwrap_err();
        assert_eq!(err, "--fail targets partition 4, but --parallelism 4 has partitions 0..=3");
        assert!(parse_args(&args(&["cc", "--fail", "3:9", "--parallelism", "10"])).is_ok());
        assert!(parse_args(&args(&["cc", "--parallelism", "8", "--fail", "3:7"])).is_ok());
    }

    #[test]
    fn zero_parallelism_and_iteration_caps_are_parse_errors() {
        let replay = ["cc", "--replay", "m.txt"];
        for (flag, message) in [
            ("--parallelism", "parallelism must be at least 1"),
            ("--max-iterations", "iteration cap must be at least 1"),
        ] {
            assert_eq!(parse_args(&args(&["cc", flag, "0"])).unwrap_err(), message);
            let serve = [&replay[..], &[flag, "0"]].concat();
            assert_eq!(parse_serve(&args(&serve)).unwrap_err(), message);
            assert!(parse_args(&args(&["cc", flag, "1"])).is_ok());
            assert!(parse_serve(&args(&[&replay[..], &[flag, "1"]].concat())).is_ok());
        }
        assert_eq!(
            parse_args(&args(&["cc", "--parallelism", "-1"])).unwrap_err(),
            "invalid parallelism \"-1\""
        );
    }

    #[test]
    fn twitter_graphs_below_four_vertices_are_parse_errors() {
        for n in 0..4 {
            let err = GraphSpec::parse(&format!("twitter:{n}")).unwrap_err();
            assert_eq!(err, format!("twitter size \"{n}\" is below the smallest graph, 4"));
        }
        assert_eq!(GraphSpec::parse("twitter:4").unwrap(), GraphSpec::Twitter(4));
        assert_eq!(
            GraphSpec::Twitter(4).build(Algorithm::ConnectedComponents).unwrap().num_vertices(),
            4
        );
    }

    #[test]
    fn failure_specs_parse() {
        assert_eq!(parse_failure("3:1,2").unwrap(), (3, vec![1, 2]));
        assert_eq!(parse_failure("0:0").unwrap(), (0, vec![0]));
        assert!(parse_failure("3:").is_err());
        assert!(parse_failure("3").is_err());
    }

    #[test]
    fn demo_graphs_build_per_algorithm() {
        let cc = GraphSpec::Demo.build(Algorithm::ConnectedComponents).unwrap();
        assert!(!cc.is_directed());
        let pr = GraphSpec::Demo.build(Algorithm::PageRank).unwrap();
        assert!(pr.is_directed());
        let grid = GraphSpec::Grid(3, 3).build(Algorithm::Sssp).unwrap();
        assert_eq!(grid.num_vertices(), 9);
    }

    #[test]
    fn ft_config_carries_strategy_and_scenario() {
        let invocation =
            parse_args(&args(&["cc", "--strategy", "incremental:4", "--fail", "2:1"])).unwrap();
        let ft = ft_config(&invocation);
        assert_eq!(ft.strategy, Strategy::IncrementalCheckpoint { full_interval: 4 });
        assert_eq!(ft.scenario.events(), &[(2, vec![1])]);
    }

    #[test]
    fn journal_flag_parses_and_unknown_flags_list_the_valid_set() {
        let invocation = parse_args(&args(&["cc", "--journal", "/tmp/run_journal.jsonl"])).unwrap();
        assert_eq!(invocation.journal, Some(PathBuf::from("/tmp/run_journal.jsonl")));

        let err = parse_args(&args(&["cc", "--journl", "x"])).unwrap_err();
        assert!(err.contains("unknown flag \"--journl\""), "{err}");
        assert!(err.contains("--journal"), "{err}");
        assert!(err.contains("--strategy"), "{err}");
    }

    #[test]
    fn inspect_subcommands_parse() {
        let cmd = parse_inspect(&args(&["timeline", "--journal", "j.jsonl"])).unwrap();
        assert_eq!(
            cmd,
            InspectCommand::Timeline { journal: PathBuf::from("j.jsonl"), spans: None }
        );

        let cmd =
            parse_inspect(&args(&["convergence", "--journal", "j.jsonl", "--csv", "out.csv"]))
                .unwrap();
        match cmd {
            InspectCommand::Convergence { journal, csv, html } => {
                assert_eq!(journal, PathBuf::from("j.jsonl"));
                assert_eq!(csv, Some(PathBuf::from("out.csv")));
                assert_eq!(html, None);
            }
            other => panic!("unexpected {other:?}"),
        }

        let cmd = parse_inspect(&args(&[
            "diff",
            "--baseline",
            "a.jsonl",
            "--journal",
            "b.jsonl",
            "--redundant-steps",
            "2",
            "--wall-pct",
            "50",
        ]))
        .unwrap();
        match cmd {
            InspectCommand::Diff { options, .. } => {
                assert_eq!(options.redundant_steps, 2);
                assert_eq!(options.wall_pct, 50.0);
                assert_eq!(options.superstep_pct, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inspect_recovery_parses() {
        let cmd = parse_inspect(&args(&["recovery", "--journal", "j.jsonl"])).unwrap();
        assert_eq!(
            cmd,
            InspectCommand::Recovery { journal: PathBuf::from("j.jsonl"), report: None }
        );
        let cmd = parse_inspect(&args(&["recovery", "--journal", "j.jsonl", "--report", "r.json"]))
            .unwrap();
        assert_eq!(
            cmd,
            InspectCommand::Recovery {
                journal: PathBuf::from("j.jsonl"),
                report: Some(PathBuf::from("r.json")),
            }
        );
        assert!(parse_inspect(&args(&["recovery"])).is_err());
        let err = parse_inspect(&args(&["recovery", "--journal", "j", "--wat", "1"])).unwrap_err();
        assert!(err.contains("--report"), "{err}");
    }

    #[test]
    fn inspect_demo_parses() {
        let cmd = parse_inspect(&args(&["demo", "--journal", "j.jsonl"])).unwrap();
        assert_eq!(cmd, InspectCommand::Demo { journal: PathBuf::from("j.jsonl") });
        assert!(parse_inspect(&args(&["demo"])).is_err());
        assert!(parse_inspect(&args(&["demo", "--journal", "j", "--csv", "c"])).is_err());
    }

    #[test]
    fn top_invocations_parse_and_require_one_source() {
        let invocation = parse_top(&args(&["--report", "r.json", "--once"])).unwrap();
        assert_eq!(invocation.report, Some(PathBuf::from("r.json")));
        assert!(invocation.once);
        assert_eq!(invocation.interval_ms, 2000);

        let invocation =
            parse_top(&args(&["--connect", "127.0.0.1:7878", "--interval-ms", "500"])).unwrap();
        assert_eq!(invocation.connect, Some("127.0.0.1:7878".to_string()));
        assert!(!invocation.once);
        assert_eq!(invocation.interval_ms, 500);

        assert!(parse_top(&[]).is_err(), "needs a source");
        assert!(
            parse_top(&args(&["--report", "r.json", "--connect", "x"])).is_err(),
            "sources are exclusive"
        );
        assert!(parse_top(&args(&["--wat", "1"])).is_err());
    }

    #[test]
    fn inspect_rejects_bad_invocations_listing_valid_flags() {
        assert!(parse_inspect(&[]).is_err());
        assert!(parse_inspect(&args(&["frob"])).is_err());
        // Missing the required journal.
        assert!(parse_inspect(&args(&["timeline"])).is_err());
        // Unknown flag errors name the valid set.
        let err =
            parse_inspect(&args(&["profile", "--report", "r.json", "--wat", "1"])).unwrap_err();
        assert!(err.contains("--straggler-factor"), "{err}");
        let err = parse_inspect(&args(&["diff", "--baseline", "a", "--journal", "b", "--x", "1"]))
            .unwrap_err();
        assert!(err.contains("--recovery-pct"), "{err}");
    }

    #[test]
    fn timing_flags_parse_and_reach_the_cluster_config() {
        use std::time::Duration;
        let invocation = parse_args(&args(&[
            "cc",
            "--cluster",
            "2",
            "--heartbeat-interval-ms",
            "250",
            "--heartbeat-timeout-ms",
            "20000",
            "--step-timeout-ms",
            "120000",
        ]))
        .unwrap();
        let cfg = cluster_config(&invocation, 2);
        assert_eq!(cfg.heartbeat_interval, Duration::from_millis(250));
        assert_eq!(cfg.heartbeat_timeout, Duration::from_secs(20));
        assert_eq!(cfg.step_timeout, Duration::from_secs(120));

        // Only meaningful on cluster runs.
        let err = parse_args(&args(&["cc", "--step-timeout-ms", "5000"])).unwrap_err();
        assert!(err.contains("--cluster"), "{err}");
        assert!(
            parse_args(&args(&["cc", "--cluster", "2", "--heartbeat-timeout-ms", "x"])).is_err()
        );
    }

    #[test]
    fn cluster_flags_parse_and_cross_validate() {
        let invocation = parse_args(&args(&["cc", "--cluster", "2", "--kill", "3:1"])).unwrap();
        assert_eq!(invocation.cluster, Some(2));
        assert_eq!(invocation.chaos.kills, vec![cluster::KillPlan { superstep: 3, worker: 1 }]);

        // Repeated --kill flags compose into one chaos plan.
        let invocation =
            parse_args(&args(&["cc", "--cluster", "2", "--kill", "3:1", "--kill", "5:0"])).unwrap();
        assert_eq!(
            invocation.chaos.kills,
            vec![
                cluster::KillPlan { superstep: 3, worker: 1 },
                cluster::KillPlan { superstep: 5, worker: 0 },
            ]
        );

        // --kill without --cluster, zero workers, and combinations that the
        // multi-process backend cannot honor are rejected with guidance.
        assert!(parse_args(&args(&["cc", "--kill", "3:1"])).is_err());
        assert!(parse_args(&args(&["cc", "--cluster", "0"])).is_err());
        assert!(parse_args(&args(&["cc", "--cluster", "x"])).is_err());
        let err = parse_args(&args(&["cc", "--cluster", "2", "--strategy", "ignore"])).unwrap_err();
        assert!(err.contains("optimistic"), "{err}");
        let err = parse_args(&args(&["cc", "--cluster", "2", "--strategy", "incremental:2"]))
            .unwrap_err();
        assert!(err.contains("in-process only"), "{err}");
        let err = parse_args(&args(&["cc", "--cluster", "2", "--fail", "1:0"])).unwrap_err();
        assert!(err.contains("--kill"), "{err}");
        assert!(parse_kill("2").is_err());
        assert!(parse_kill("a:1").is_err());

        // Worker indices are validated at parse time, not clamped at kill
        // time: worker 2 does not exist in a 2-worker cluster.
        let err = parse_args(&args(&["cc", "--cluster", "2", "--kill", "3:2"])).unwrap_err();
        assert!(err.contains("worker 2"), "{err}");
        assert!(err.contains("0..=1"), "{err}");

        // Rollback strategies also run on the cluster, passed through as
        // they parse.
        let invocation =
            parse_args(&args(&["cc", "--cluster", "2", "--strategy", "async-snapshot:3"])).unwrap();
        assert_eq!(invocation.strategy, Strategy::AsyncSnapshot { interval: 3 });
        let cfg = cluster_config(&invocation, 2);
        assert_eq!(cfg.strategy, Strategy::AsyncSnapshot { interval: 3 });
        let invocation =
            parse_args(&args(&["cc", "--cluster", "2", "--strategy", "checkpoint:2"])).unwrap();
        let cfg = cluster_config(&invocation, 2);
        assert_eq!(cfg.strategy, Strategy::Checkpoint { interval: 2 });
        let invocation =
            parse_args(&args(&["cc", "--cluster", "2", "--strategy", "restart"])).unwrap();
        let cfg = cluster_config(&invocation, 2);
        assert_eq!(cfg.strategy, Strategy::Restart);
    }

    #[test]
    fn scale_flags_parse_and_cross_validate() {
        let invocation =
            parse_args(&args(&["cc", "--cluster", "2", "--scale", "2:4", "--scale", "5:2"]))
                .unwrap();
        assert_eq!(
            invocation.scale,
            vec![
                cluster::ScaleEvent { superstep: 2, workers: 4 },
                cluster::ScaleEvent { superstep: 5, workers: 2 },
            ]
        );
        // The scale plan lands in the cluster config unchanged.
        let cfg = cluster_config(&invocation, 2);
        assert_eq!(cfg.scale, invocation.scale);

        // Chaos may target a worker index only a scale-up adds...
        let invocation =
            parse_args(&args(&["cc", "--cluster", "2", "--scale", "1:4", "--kill", "3:3"]))
                .unwrap();
        assert_eq!(invocation.chaos.kills, vec![cluster::KillPlan { superstep: 3, worker: 3 }]);
        // ...but not one beyond the scale ceiling.
        let err = parse_args(&args(&["cc", "--cluster", "2", "--scale", "1:3", "--kill", "2:3"]))
            .unwrap_err();
        assert!(err.contains("never has more than 3 workers"), "{err}");

        // --scale needs --cluster, targets are bounded by the parallelism,
        // and specs must be well-formed.
        let err = parse_args(&args(&["cc", "--scale", "2:4"])).unwrap_err();
        assert!(err.contains("--cluster"), "{err}");
        let err = parse_args(&args(&["cc", "--cluster", "2", "--scale", "2:9"])).unwrap_err();
        assert!(err.contains("--parallelism 4"), "{err}");
        assert!(parse_scale("2").is_err());
        assert!(parse_scale("2:0").is_err());
        assert!(parse_scale("x:2").is_err());
    }

    #[test]
    fn serve_elastic_flags_parse_as_a_pair() {
        let invocation = parse_serve(&args(&[
            "cc",
            "--replay",
            "m.txt",
            "--min-workers",
            "2",
            "--max-workers",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            invocation.elastic,
            Some(serve::ElasticRange { min_workers: 2, max_workers: 4 })
        );
        let invocation = parse_serve(&args(&["cc", "--replay", "m.txt"])).unwrap();
        assert_eq!(invocation.elastic, None);
        let err =
            parse_serve(&args(&["cc", "--replay", "m.txt", "--min-workers", "2"])).unwrap_err();
        assert!(err.contains("pair"), "{err}");
        let err = parse_serve(&args(&["cc", "--listen", "x", "--max-workers", "4"])).unwrap_err();
        assert!(err.contains("pair"), "{err}");
        let err = parse_serve(&args(&[
            "cc",
            "--replay",
            "m.txt",
            "--min-workers",
            "4",
            "--max-workers",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--min-workers 4 exceeds --max-workers 2"), "{err}");
    }

    #[test]
    fn serve_refuses_an_elastic_range_without_a_worker() {
        let err = parse_serve(&args(&[
            "cc",
            "--replay",
            "m.txt",
            "--min-workers",
            "0",
            "--max-workers",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--min-workers 0"), "{err}");
    }

    #[test]
    fn serve_refuses_more_workers_than_partitions() {
        let err = parse_serve(&args(&[
            "cc",
            "--replay",
            "m.txt",
            "--parallelism",
            "2",
            "--min-workers",
            "1",
            "--max-workers",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("--max-workers 3 exceeds --parallelism 2"), "{err}");
        // The flags may come in any order: the range is checked once all
        // of them are read.
        let err = parse_serve(&args(&[
            "cc",
            "--max-workers",
            "5",
            "--min-workers",
            "1",
            "--replay",
            "m.txt",
        ]))
        .unwrap_err();
        assert!(err.contains("--max-workers 5 exceeds --parallelism 4"), "{err}");
    }

    #[test]
    fn chaos_specs_parse_and_cross_validate() {
        let invocation = parse_args(&args(&[
            "cc",
            "--cluster",
            "3",
            "--chaos",
            "kill@2:0,1; slow@3-5:2:50 ;delay@1-2:0:10;drop@4-6:1:0.5:99",
        ]))
        .unwrap();
        assert_eq!(
            invocation.chaos.kills,
            vec![
                cluster::KillPlan { superstep: 2, worker: 0 },
                cluster::KillPlan { superstep: 2, worker: 1 },
            ]
        );
        assert_eq!(
            invocation.chaos.stragglers,
            vec![cluster::StragglerPlan {
                from: 3,
                to: 5,
                worker: 2,
                delay: std::time::Duration::from_millis(50),
            }]
        );
        assert_eq!(invocation.chaos.links.len(), 2);
        assert_eq!(invocation.chaos.links[0].delay, std::time::Duration::from_millis(10));
        assert_eq!(invocation.chaos.links[0].drop_probability, 0.0);
        assert_eq!(invocation.chaos.links[1].drop_probability, 0.5);
        assert_eq!(invocation.chaos.links[1].seed, 99);

        // The chaos plan lands in the cluster config unchanged.
        let cfg = cluster_config(&invocation, 3);
        assert_eq!(cfg.chaos, invocation.chaos);

        // Malformed scenarios are rejected with the offending spec echoed.
        let mut plan = cluster::ChaosPlan::default();
        assert!(parse_chaos("kill@2", &mut plan).is_err());
        assert!(parse_chaos("slow@5-3:0:10", &mut plan).is_err(), "backwards range");
        assert!(parse_chaos("drop@1-2:0:1.5:9", &mut plan).is_err(), "probability > 1");
        assert!(parse_chaos("wat@1:0", &mut plan).is_err());
        assert!(parse_chaos("@/nonexistent/chaos.txt", &mut plan).is_err());

        // Chaos without --cluster, and out-of-range workers, are rejected.
        assert!(parse_args(&args(&["cc", "--chaos", "kill@2:0"])).is_err());
        let err =
            parse_args(&args(&["cc", "--cluster", "2", "--chaos", "slow@1-2:5:10"])).unwrap_err();
        assert!(err.contains("worker 5"), "{err}");
    }

    #[test]
    fn chaos_scenario_files_parse() {
        let dir = std::env::temp_dir().join("optirec-chaos-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("storm.chaos");
        std::fs::write(&path, "# a storm plus a straggler\nkill@2:0,1\n\nslow@3-4:2:25\n").unwrap();
        let invocation = parse_args(&args(&[
            "cc",
            "--cluster",
            "3",
            "--chaos",
            &format!("@{}", path.display()),
        ]))
        .unwrap();
        assert_eq!(invocation.chaos.kills.len(), 2);
        assert_eq!(invocation.chaos.stragglers.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_invocations_parse() {
        let invocation = parse_serve(&args(&[
            "cc",
            "--graph",
            "path:64",
            "--replay",
            "m.txt",
            "--journal",
            "j.jsonl",
            "--inject",
            "panic:1:2",
        ]))
        .unwrap();
        assert_eq!(invocation.algorithm, Algorithm::ConnectedComponents);
        assert_eq!(invocation.graph, GraphSpec::Path(64));
        assert_eq!(invocation.replay, Some(PathBuf::from("m.txt")));
        assert_eq!(
            invocation.inject,
            Some(serve::EpochInjection {
                epoch: 1,
                kind: serve::InjectionKind::Panic { superstep: 2 }
            })
        );

        let invocation =
            parse_serve(&args(&["pagerank", "--listen", "127.0.0.1:0", "--serve-seconds", "5"]))
                .unwrap();
        assert_eq!(invocation.listen, Some("127.0.0.1:0".to_string()));
        assert_eq!(invocation.serve_seconds, Some(5));

        // Needs something to do, cc/pagerank only, and flags must be known.
        assert!(parse_serve(&args(&["cc"])).unwrap_err().contains("--replay"));
        assert!(parse_serve(&args(&["sssp", "--listen", "x"])).is_err());
        assert!(parse_serve(&args(&["cc", "--listen", "x", "--wat", "1"])).is_err());

        // A journal needs a run that exits: unbounded --listen never does.
        let err = parse_serve(&args(&["cc", "--listen", "x", "--journal", "j.jsonl"])).unwrap_err();
        assert!(err.contains("--serve-seconds"), "{err}");
        assert!(parse_serve(&args(&[
            "cc",
            "--listen",
            "x",
            "--journal",
            "j.jsonl",
            "--serve-seconds",
            "5",
        ]))
        .is_ok());
        assert!(
            parse_serve(&args(&["cc", "--replay", "m.txt", "--journal", "j.jsonl"])).is_ok(),
            "a replay run always exits, so it may journal without a time bound"
        );
    }

    #[test]
    fn inject_specs_parse() {
        assert_eq!(
            parse_inject("fail:2:3:0,1").unwrap(),
            serve::EpochInjection {
                epoch: 2,
                kind: serve::InjectionKind::Fail { superstep: 3, partitions: vec![0, 1] }
            }
        );
        assert_eq!(
            parse_inject("mtbf:1:0.5:42").unwrap(),
            serve::EpochInjection {
                epoch: 1,
                kind: serve::InjectionKind::Mtbf { probability: 0.5, seed: 42 }
            }
        );
        assert_eq!(
            parse_inject("kill:1:2:0:2").unwrap(),
            serve::EpochInjection {
                epoch: 1,
                kind: serve::InjectionKind::ClusterKill { workers: 2, superstep: 2, worker: 0 }
            }
        );
        assert!(parse_inject("panic:1").is_err());
        assert!(parse_inject("mtbf:1:2.0:42").is_err(), "probability must be in [0, 1]");
        assert!(parse_inject("frob:1:2").is_err());
    }

    #[test]
    fn worker_args_parse() {
        assert_eq!(parse_worker(&[]).unwrap(), "127.0.0.1:0");
        assert_eq!(parse_worker(&args(&["--listen", "0.0.0.0:7000"])).unwrap(), "0.0.0.0:7000");
        assert!(parse_worker(&args(&["--listen"])).is_err());
        assert!(parse_worker(&args(&["--port", "7000"])).is_err());
    }

    #[test]
    fn twitter_spec_builds_a_graph_of_requested_size() {
        let graph = GraphSpec::Twitter(200).build(Algorithm::ConnectedComponents).unwrap();
        assert_eq!(graph.num_vertices(), 200);
        assert!(!graph.is_directed());
    }

    #[test]
    fn usage_texts_match_their_goldens() {
        for (text, golden) in [
            (usage(), include_str!("../tests/golden/usage/usage.txt")),
            (serve_usage(), include_str!("../tests/golden/usage/serve_usage.txt")),
            (inspect_usage(), include_str!("../tests/golden/usage/inspect_usage.txt")),
            (top_usage(), include_str!("../tests/golden/usage/top_usage.txt")),
            (worker_usage(), include_str!("../tests/golden/usage/worker_usage.txt")),
        ] {
            assert_eq!(text, golden);
        }
    }

    /// The `--flag` words of `text`.
    fn flags_in(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.len() > 2 && word.starts_with("--"))
            .collect()
    }

    /// Parse `words` as `optirec` would: `["serve", "cc", …]`,
    /// `["inspect", "demo", …]`, `["top", …]`, `["worker", …]` or
    /// `["cc", …]`.
    fn parse_command(words: &[String]) -> Result<(), String> {
        match words[0].as_str() {
            "serve" => parse_serve(&words[1..]).map(drop),
            "inspect" => parse_inspect(&words[1..]).map(drop),
            "top" => parse_top(&words[1..]).map(drop),
            "worker" => parse_worker(&words[1..]).map(drop),
            _ => parse_args(words).map(drop),
        }
    }

    /// Whether the parser of `command` knows `flag`: given it, it does not
    /// call it unknown.
    fn knows(command: &[&str], flag: &str) -> bool {
        let words = args(&[command, &[flag, "1"]].concat());
        !parse_command(&words).is_err_and(|err| err.starts_with(&format!("unknown flag {flag:?}")))
    }

    /// The command `text` shows, if it shows one.
    fn command_of(text: &str) -> Option<Vec<&str>> {
        let words: Vec<&str> = text.strip_prefix("optirec ")?.split(' ').collect();
        Some(match words[0] {
            "serve" => vec!["serve", "cc"],
            "inspect" => vec!["inspect", words[1]],
            "top" | "worker" => vec![words[0]],
            _ => vec!["cc"],
        })
    }

    #[test]
    fn every_flag_a_usage_names_parses_and_every_flag_is_named() {
        let views: Vec<Vec<&str>> = VIEWS.iter().map(|view| vec!["inspect", view.name]).collect();
        let (usage, serve, inspect, top, worker) =
            (usage(), serve_usage(), inspect_usage(), top_usage(), worker_usage());
        let texts = [
            (&usage, vec![vec!["cc"]]),
            (&serve, vec![vec!["serve", "cc"]]),
            (&inspect, views.clone()),
            (&top, vec![vec!["top"]]),
            (&worker, vec![vec!["worker"]]),
        ];
        // Each flag a usage names, with the commands it belongs to: a line
        // that shows a command, and the lines that continue it, belong to
        // that command, as do the flags quoted with a command in backticks;
        // anything else belongs to the usage's own commands.
        let mut named: Vec<(usize, Vec<Vec<&str>>, &str)> = Vec::new();
        for (index, (text, own)) in texts.iter().enumerate() {
            let mut current = own.clone();
            for line in text.lines() {
                if let Some(command) = line.strip_prefix("    ").and_then(command_of) {
                    current = vec![command];
                    // An example is a whole command line: it parses.
                    if !line.contains(['<', '[']) {
                        let line = line.split(" #").next().unwrap().replace('\'', "");
                        let words: Vec<&str> = line.split_whitespace().skip(1).collect();
                        assert_eq!(parse_command(&args(&words)), Ok(()), "{line}");
                    }
                } else if line.is_empty() {
                    current = own.clone();
                }
                for (i, part) in line.split('`').enumerate() {
                    let owner = match command_of(part) {
                        Some(command) if i % 2 == 1 => vec![command],
                        _ => current.clone(),
                    };
                    named.extend(
                        flags_in(part).into_iter().map(|flag| (index, owner.clone(), flag)),
                    );
                }
            }
        }
        for (_, commands, flag) in &named {
            // `optirec` answers `--help` before any parser sees it.
            let known = *flag == "--help" || commands.iter().any(|command| knows(command, flag));
            assert!(known, "{flag} in {commands:?}");
        }

        // Every row has its line in its usage's flag section…
        let tables: [(&String, Vec<&str>); 4] = [
            (&usage, RUN.iter().map(|flag| flag.name).collect()),
            (&serve, SERVE.iter().map(|flag| flag.name).collect()),
            (&top, TOP.iter().map(|flag| flag.name).collect()),
            (&worker, WORKER.iter().map(|flag| flag.name).collect()),
        ];
        for (text, flags) in tables {
            for flag in flags {
                let head = |line: &str| {
                    line.strip_prefix("    ")
                        .is_some_and(|rest| rest.split(' ').next() == Some(flag))
                };
                let listed = text.lines().any(head);
                assert!(listed, "{flag} has no line in {}", text.lines().next().unwrap());
            }
        }
        // …and every view's rows are on its synopsis.
        for view in VIEWS {
            for flag in view.flags {
                let command = vec![vec!["inspect", view.name]];
                let on_synopsis = named.iter().any(|(text, commands, named)| {
                    *text == 2 && *named == flag.name && *commands == command
                });
                assert!(on_synopsis, "{} is not on {command:?}'s synopsis", flag.name);
            }
        }
    }

    #[test]
    fn a_repeated_flag_adds_only_where_its_row_repeats() {
        let cmd = parse_inspect(&args(&["demo", "--journal", "a", "--journal", "b"])).unwrap();
        assert_eq!(cmd, InspectCommand::Demo { journal: PathBuf::from("b") });
        // The value a later one replaces is not even parsed.
        let invocation = parse_args(&args(&[
            "cc",
            "--graph",
            "torus:9",
            "--parallelism",
            "2",
            "--fail",
            "1:0",
            "--parallelism",
            "8",
            "--fail",
            "2:7",
            "--graph",
            "path:8",
        ]))
        .unwrap();
        assert_eq!((invocation.parallelism, invocation.graph), (8, GraphSpec::Path(8)));
        assert_eq!(invocation.scenario.events(), &[(1, vec![0]), (2, vec![7])]);
    }

    #[test]
    fn cluster_and_explain_take_cc_and_pagerank_only() {
        for flags in [&["--cluster", "2"][..], &["--explain"]] {
            for algorithm in ["cc", "pagerank"] {
                assert!(parse_args(&args(&[&[algorithm], flags].concat())).is_ok());
            }
            let err = parse_args(&args(&[&["sssp"], flags].concat())).unwrap_err();
            assert!(err.contains("supports cc and pagerank"), "{err}");
        }
    }

    #[test]
    fn zero_timing_flags_are_parse_errors() {
        for (flag, what) in [
            ("--heartbeat-interval-ms", "heartbeat interval"),
            ("--heartbeat-timeout-ms", "heartbeat timeout"),
            ("--step-timeout-ms", "step timeout"),
        ] {
            let err = parse_args(&args(&["cc", "--cluster", "2", flag, "0"])).unwrap_err();
            assert_eq!(err, format!("{what} must be at least 1"));
            assert!(parse_args(&args(&["cc", "--cluster", "2", flag, "1"])).is_ok());
        }
        let top = |ms| parse_top(&args(&["--connect", "127.0.0.1:7878", "--interval-ms", ms]));
        assert_eq!(top("0").unwrap_err(), "refresh interval must be at least 1");
        assert!(top("1").is_ok());
    }

    #[test]
    fn injections_outside_the_parallelism_are_parse_errors() {
        let serve = |inject: &str, parallelism: &str| {
            parse_serve(&args(&[
                "cc",
                "--graph",
                "path:16",
                "--replay",
                "m.txt",
                "--inject",
                inject,
                "--parallelism",
                parallelism,
            ]))
        };
        for (inject, err) in [
            (
                "fail:1:0:9",
                "--inject targets partition 9, but --parallelism 4 has partitions 0..=3",
            ),
            (
                "kill:1:0:0:0",
                "--inject runs the epoch on 0 workers, but --parallelism 4 allows 1..=4",
            ),
            (
                "kill:1:0:0:9",
                "--inject runs the epoch on 9 workers, but --parallelism 4 allows 1..=4",
            ),
            ("kill:1:0:2:2", "--inject kills worker 2, but the epoch's 2 workers are 0..=1"),
        ] {
            assert_eq!(serve(inject, "4").unwrap_err(), err);
        }
        for inject in ["fail:1:0:3", "kill:1:0:1:2", "kill:1:0:3:4", "panic:1:2", "mtbf:1:0.5:7"] {
            assert!(serve(inject, "4").is_ok(), "{inject}");
        }
        assert!(serve("fail:1:0:9", "10").is_ok());
        assert!(serve("kill:1:0:8:9", "10").is_ok());
    }
}
