//! Command implementations for the `dkcore` command-line tool.
//!
//! Four subcommands, mirroring what a downstream user does with the
//! library:
//!
//! ```text
//! dkcore stats     <input>                         graph statistics (Table-1 style)
//! dkcore decompose <input> [--algorithm A]         coreness of every node
//! dkcore simulate  <input> [--hosts H] [...]       run the distributed protocols
//! dkcore stream    <input> [--batch B] [...]       maintain coreness under edge churn
//! dkcore serve     <input> [--port P] [...]        query service over churning graph
//! dkcore query     --port P <command> [...]        query a running service
//! dkcore generate  <analog> --nodes N [...]        emit a synthetic dataset
//! dkcore model-check [--scenario S] [...]          exhaustively check the machines
//! ```
//!
//! `<input>` is either a path to a SNAP-style edge list or `analog:NAME`
//! (optionally `analog:NAME:NODES`) for one of the built-in dataset
//! analogs. All commands are deterministic given `--seed`.
//!
//! The heavy lifting lives in library functions that write to any
//! `io::Write`, so the test suite drives them directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::io::Write;

use dkcore::one_to_many::DisseminationPolicy;
use dkcore::seq::{batagelj_zaversnik, naive_peeling};
use dkcore::CoreDecomposition;
use dkcore_graph::{io as graph_io, metrics, Graph};
use dkcore_metrics::Table;
use dkcore_pregel::{KCoreProgram, Pregel};
use dkcore_sim::{
    ActiveSetConfig, ActiveSetEngine, ActiveSetHostConfig, ActiveSetHostEngine, HostSim,
    HostSimConfig, NodeSim, NodeSimConfig,
};

/// Error produced by CLI parsing or execution.
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    fn new(msg: impl Into<String>) -> Self {
        CliError(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

impl From<dkcore_graph::GraphError> for CliError {
    fn from(e: dkcore_graph::GraphError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Usage text shown by `dkcore help` and on argument errors.
pub const USAGE: &str = "\
dkcore — distributed k-core decomposition toolkit

USAGE:
  dkcore stats     <input> [--seed S]
  dkcore decompose <input> [--algorithm bz|naive|protocol|pregel] [--shells] [--seed S]
  dkcore simulate  <input> [--hosts H] [--policy broadcast|p2p] [--mode sync|random]
                            [--engine legacy|active-set] [--threads T]
                            [--reps R] [--seed S]
  dkcore stream    <input> [--batch B] [--steps S]
                            [--workload sliding-window|insert-heavy|adversarial|hotspot|mixed]
                            [--engine batched|per-edge|warm-dist] [--threads T]
                            [--insert-pct P] [--report-json FILE] [--seed S]
  dkcore serve     <input> [--port P] [--batch B] [--steps S] [--shards S]
                            [--replicas R] [--fault-plan SPEC] [--pin-cores]
                            [--workload ...] [--insert-pct P] [--interval-ms MS]
                            [--events-capacity N] [--no-wait] [--seed S]
  dkcore query     --port P <coreness V | members K [offset O] [limit L] |
                             subgraph K | hist | topk N [offset O] |
                             epoch | health [--json] | metrics |
                             events [since S] [limit N] | shutdown>
  dkcore generate  <analog> --nodes N [--seed S] [--out FILE]
  dkcore model-check [--scenario node|host|publish|all] [--max-states N]
                     [--max-depth D]
  dkcore list-analogs
  dkcore help

INPUT:
  a SNAP-style edge-list file, or  analog:NAME[:NODES]  for a built-in
  synthetic dataset (see `dkcore list-analogs`).

STREAM ENGINES:
  batched   repair each batch in one amortized pass (StreamCore; default)
  per-edge  replay every mutation through DynamicCore, one repair per edge
  warm-dist re-converge the distributed protocol per batch, warm-started
            from batch-safe upper bounds (vs a cold start, for comparison)

THREADS:
  --threads T (0 = automatic) sizes the active-set engine's worker pool.
  It applies only to `simulate --engine active-set` and
  `stream --engine warm-dist`; every other path is sequential.

SERVE:
  runs the epoch-snapshot query service (dkcore-serve): one writer applies
  the churn workload batch by batch, publishing an immutable snapshot per
  epoch; concurrent readers query over a TCP line protocol. `--port 0`
  picks an ephemeral port (printed on startup). Unless --no-wait is given
  the command keeps serving after the churn until a client sends
  `shutdown` (`dkcore query --port P shutdown`). With `--shards S` (S > 1)
  the graph is partitioned over S shard writers that re-converge via
  border-estimate exchange; queries are answered by the stitching front
  end against a consistent vector of per-shard epochs — same protocol,
  same answers. `--replicas R` keeps R standby writers per partition so
  a killed primary fails over by replaying the batch log; `--fault-plan`
  injects deterministic faults into the border exchange for chaos runs,
  e.g. `seed=7,drop=10,delay=5:3,kill=0@4` (drop/dup/delay are percents,
  kill=SHARD@EPOCH[:ROUND], stall=SHARD@EPOCH:ROUNDS). `dkcore query
  --port P health` reports writer/partition liveness, deferred-batch
  lag, and border-exchange round timing/utilization without touching
  the query path. `--pin-cores` best-effort pins the persistent shard
  drain workers to distinct cores (ignored where unsupported).

OBSERVABILITY:
  every serve backend carries one telemetry bundle: a metrics registry
  (publish/repair phase latencies, exchange rounds, pool utilization,
  per-verb wire counters, response-cache hits/misses) and a bounded
  event flight recorder (batch/publish/failover/promotion/degraded/
  revive history). `dkcore query --port P metrics` dumps the registry
  in Prometheus text form; `dkcore query --port P events [since S]
  [limit N]` replays the recorder (cursor on the `last=` header field);
  `query health --json` emits the health line as a JSON object.
  `--events-capacity N` sizes the recorder ring (default 1024); serve
  echoes failover/degradation/revive events to stderr as they happen,
  sourced from the same recorder.

MODEL CHECK:
  exhaustively explores the pure protocol state machines (dkcore-model)
  on small fixed instances, checking the paper's safety properties on
  every reachable interleaving: Theorem-2 lower bounds and monotone
  estimates for the one-to-one and one-to-many protocols, and epoch
  monotonicity / atomic-flip consistency / no-lost-acked-batch for the
  sharded publish+failover pipeline. Exit is nonzero with a minimal
  counterexample trace (flight-recorder format) on any violation;
  instances that exceed --max-states are reported as `capped`, not
  failures. `--scenario` picks one machine family (default: all).
";

/// Resolves an `<input>` argument into a graph.
///
/// # Errors
///
/// Returns [`CliError`] for unknown analogs or unreadable files.
pub fn load_input(input: &str, seed: u64) -> Result<Graph, CliError> {
    if let Some(rest) = input.strip_prefix("analog:") {
        let mut parts = rest.splitn(2, ':');
        let name = parts.next().expect("non-empty split");
        let spec = dkcore_data::by_name(name).ok_or_else(|| {
            CliError::new(format!(
                "unknown analog {name:?}; try `dkcore list-analogs`"
            ))
        })?;
        let graph = match parts.next() {
            Some(nodes) => {
                let n: usize = nodes
                    .parse()
                    .map_err(|_| CliError::new(format!("invalid node count {nodes:?}")))?;
                spec.build_scaled(n, seed)
            }
            None => spec.build_default(seed),
        };
        Ok(graph)
    } else {
        let (g, _) = graph_io::read_edge_list_file(input)?;
        Ok(g)
    }
}

/// `dkcore stats`: Table-1-style statistics for one graph.
///
/// # Errors
///
/// Returns [`CliError`] on input or output failures.
pub fn cmd_stats<W: Write>(input: &str, seed: u64, out: &mut W) -> Result<(), CliError> {
    let g = load_input(input, seed)?;
    let decomp = CoreDecomposition::compute(&g);
    let mut t = Table::new(["metric", "value"]);
    t.row(["nodes |V|", &g.node_count().to_string()]);
    t.row(["edges |E|", &g.edge_count().to_string()]);
    t.row(["max degree", &g.max_degree().to_string()]);
    t.row(["avg degree", &format!("{:.2}", g.avg_degree())]);
    t.row([
        "diameter (approx)",
        &metrics::approx_diameter(&g, 4).to_string(),
    ]);
    t.row([
        "components",
        &metrics::connected_components(&g).0.to_string(),
    ]);
    t.row(["max coreness", &decomp.max_coreness().to_string()]);
    t.row(["avg coreness", &format!("{:.2}", decomp.avg_coreness())]);
    write!(out, "{t}")?;
    Ok(())
}

/// `dkcore decompose`: coreness of every node via the chosen algorithm.
///
/// With `shells = true` prints the shell-size histogram instead of the
/// per-node list.
///
/// # Errors
///
/// Returns [`CliError`] for unknown algorithms and I/O failures.
pub fn cmd_decompose<W: Write>(
    input: &str,
    algorithm: &str,
    shells: bool,
    seed: u64,
    out: &mut W,
) -> Result<(), CliError> {
    let g = load_input(input, seed)?;
    let coreness: Vec<u32> = match algorithm {
        "bz" => batagelj_zaversnik(&g),
        "naive" => naive_peeling(&g),
        "protocol" => {
            NodeSim::new(&g, NodeSimConfig::random_order(seed))
                .run()
                .final_estimates
        }
        "pregel" => Pregel::new(4)
            .run(&g, &KCoreProgram::default())
            .states
            .iter()
            .map(|s| s.core)
            .collect(),
        other => {
            return Err(CliError::new(format!(
                "unknown algorithm {other:?}; expected bz|naive|protocol|pregel"
            )))
        }
    };
    if shells {
        let d = CoreDecomposition::from_coreness(coreness);
        let mut t = Table::new(["k-shell", "nodes"]);
        for (k, &size) in d.shell_sizes().iter().enumerate() {
            if size > 0 {
                t.row([k.to_string(), size.to_string()]);
            }
        }
        write!(out, "{t}")?;
    } else {
        writeln!(out, "# node\tcoreness")?;
        for (u, k) in coreness.iter().enumerate() {
            writeln!(out, "{u}\t{k}")?;
        }
    }
    Ok(())
}

/// `dkcore simulate`: run the distributed protocol and report rounds and
/// message statistics.
///
/// `hosts == 0` selects the one-to-one protocol; otherwise the one-to-many
/// protocol over that many hosts. `engine` picks the simulator: `legacy`
/// (the reference engines, both modes) or `active-set` (the flat parallel
/// fast path — synchronous mode only, bit-identical results). `threads`
/// controls active-set sharding (`0` = automatic).
///
/// # Errors
///
/// Returns [`CliError`] for invalid options and I/O failures.
#[allow(clippy::too_many_arguments)]
pub fn cmd_simulate<W: Write>(
    input: &str,
    hosts: usize,
    policy: &str,
    mode: &str,
    engine: &str,
    threads: usize,
    reps: u32,
    seed: u64,
    out: &mut W,
) -> Result<(), CliError> {
    let g = load_input(input, seed)?;
    let active_set = match engine {
        "legacy" => false,
        "active-set" => true,
        other => {
            return Err(CliError::new(format!(
                "unknown engine {other:?}; expected legacy|active-set"
            )))
        }
    };
    if active_set && mode != "sync" {
        return Err(CliError::new(
            "--engine active-set requires --mode sync (the fast path is synchronous-only)",
        ));
    }
    let truth = batagelj_zaversnik(&g);
    let mut t = Table::new(["rep", "rounds", "exec-time", "messages", "correct"]);
    for rep in 0..reps.max(1) {
        let rep_seed = dkcore_sim::experiment::repetition_seed(seed, rep);
        let (rounds, exec, messages, estimates) = if hosts == 0 {
            let config = match mode {
                "sync" => NodeSimConfig::synchronous(),
                "random" => NodeSimConfig::random_order(rep_seed),
                other => return Err(CliError::new(format!("unknown mode {other:?}"))),
            };
            let r = if active_set {
                let mut fast = ActiveSetConfig::with_protocol(config.protocol);
                fast.threads = threads;
                ActiveSetEngine::new(&g, fast).run()
            } else {
                NodeSim::new(&g, config).run()
            };
            (
                r.rounds_executed,
                r.execution_time,
                r.total_messages,
                r.final_estimates,
            )
        } else {
            let mut config = match mode {
                "sync" => HostSimConfig::synchronous(hosts),
                "random" => HostSimConfig::random_order(hosts, rep_seed),
                other => return Err(CliError::new(format!("unknown mode {other:?}"))),
            };
            config.protocol.policy = match policy {
                "broadcast" => DisseminationPolicy::Broadcast,
                "p2p" => DisseminationPolicy::PointToPoint,
                other => return Err(CliError::new(format!("unknown policy {other:?}"))),
            };
            let r = if active_set {
                ActiveSetHostEngine::new(
                    &g,
                    ActiveSetHostConfig {
                        hosts: config.hosts,
                        assignment: config.assignment,
                        policy: config.protocol.policy,
                        threads,
                        max_rounds: config.max_rounds,
                    },
                )
                .run()
            } else {
                HostSim::new(&g, config).run()
            };
            (
                r.rounds_executed,
                r.execution_time,
                r.total_messages,
                r.final_estimates,
            )
        };
        let correct = estimates == truth;
        t.row([
            rep.to_string(),
            rounds.to_string(),
            exec.to_string(),
            messages.to_string(),
            correct.to_string(),
        ]);
    }
    write!(out, "{t}")?;
    Ok(())
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Resolves a `--workload` name against a loaded graph.
fn parse_workload(
    name: &str,
    batch: usize,
    node_count: usize,
    insert_pct: u32,
) -> Result<dkcore_data::ChurnWorkload, CliError> {
    use dkcore_data::ChurnWorkload;
    Ok(match name {
        "sliding-window" => ChurnWorkload::SlidingWindow { window: 2 * batch },
        "insert-heavy" => ChurnWorkload::InsertHeavy { remove_every: 8 },
        "adversarial" => ChurnWorkload::Adversarial,
        "hotspot" => ChurnWorkload::Hotspot {
            span: (node_count / 20).max(16),
            remove_every: 8,
        },
        "mixed" => ChurnWorkload::Mixed { insert_pct },
        other => {
            return Err(CliError::new(format!(
                "unknown workload {other:?}; expected \
                 sliding-window|insert-heavy|adversarial|hotspot|mixed"
            )))
        }
    })
}

/// `dkcore stream`: run an edge-churn stream and maintain the coreness
/// decomposition with the chosen engine, verifying every step against the
/// sequential ground truth.
///
/// Engines: `batched` repairs whole batches through
/// [`dkcore::stream::StreamCore`]; `per-edge` replays each mutation
/// through [`dkcore::dynamic::DynamicCore`]; `warm-dist` re-converges the
/// distributed protocol per batch via a warm-started
/// [`ActiveSetEngine`](dkcore_sim::ActiveSetEngine), reporting warm vs
/// cold round counts.
///
/// With `report_json = Some(path)`, a machine-readable summary of the run
/// (per-step rows plus totals, same flat `results` shape as the
/// `BENCH_PR*.json` artifacts) is written to `path` in addition to the
/// table on `out`.
///
/// # Errors
///
/// Returns [`CliError`] for invalid options and I/O failures.
#[allow(clippy::too_many_arguments)]
pub fn cmd_stream<W: Write>(
    input: &str,
    batch: usize,
    steps: usize,
    workload: &str,
    engine: &str,
    threads: usize,
    insert_pct: u32,
    report_json: Option<&str>,
    seed: u64,
    out: &mut W,
) -> Result<(), CliError> {
    use dkcore::dynamic::DynamicCore;
    use dkcore::stream::{warm_start_estimates_batch, StreamCore};
    use dkcore_sim::ActiveSetConfig;
    use std::fmt::Write as _;

    let g = load_input(input, seed)?;
    if g.node_count() < 2 {
        return Err(CliError::new("stream needs a graph with at least 2 nodes"));
    }
    let workload_name = workload;
    let workload = parse_workload(workload, batch, g.node_count(), insert_pct)?;
    let stream = dkcore_data::churn_stream(&g, workload, steps, batch, seed);

    let mut all_correct = true;
    let mut json_rows: Vec<String> = Vec::new();
    let mut total_mutations = 0usize;
    match engine {
        "batched" | "per-edge" => {
            let batched = engine == "batched";
            // --threads applies only to warm-dist's active-set runs; the
            // batched and per-edge repairs are sequential.
            let mut sc = batched.then(|| StreamCore::new(&g));
            let mut dc = (!batched).then(|| DynamicCore::new(&g));
            let mut t = Table::new([
                "step",
                "inserts",
                "removals",
                "candidates",
                "changed",
                "correct",
            ]);
            for (i, b) in stream.iter().enumerate() {
                let (candidates, changed, values, graph) = if let Some(dc) = dc.as_mut() {
                    let mut candidates = 0usize;
                    let mut changed = 0usize;
                    for &(u, v) in b.removals() {
                        let s = dc
                            .remove_edge(u, v)
                            .map_err(|e| CliError::new(e.to_string()))?;
                        candidates += s.candidates;
                        changed += s.changed;
                    }
                    for &(u, v) in b.insertions() {
                        let s = dc
                            .insert_edge(u, v)
                            .map_err(|e| CliError::new(e.to_string()))?;
                        candidates += s.candidates;
                        changed += s.changed;
                    }
                    (candidates, changed, dc.values().to_vec(), dc.to_graph())
                } else {
                    let sc = sc.as_mut().expect("batched engine");
                    let s = sc
                        .apply_batch(b)
                        .map_err(|e| CliError::new(e.to_string()))?;
                    (s.candidates, s.changed, sc.values().to_vec(), sc.to_graph())
                };
                let correct = values == batagelj_zaversnik(&graph);
                all_correct &= correct;
                total_mutations += b.len();
                let mut row = String::new();
                let _ = write!(
                    row,
                    "{{\"graph\": \"step{i}\", \"step\": {i}, \"inserts\": {}, \
                     \"removals\": {}, \"candidates\": {candidates}, \
                     \"changed\": {changed}, \"correct\": {correct}}}",
                    b.insertions().len(),
                    b.removals().len(),
                );
                json_rows.push(row);
                t.row([
                    i.to_string(),
                    b.insertions().len().to_string(),
                    b.removals().len().to_string(),
                    candidates.to_string(),
                    changed.to_string(),
                    correct.to_string(),
                ]);
            }
            write!(out, "{t}")?;
        }
        "warm-dist" => {
            let mut sc = StreamCore::new(&g);
            let mut t = Table::new([
                "step",
                "inserts",
                "removals",
                "warm-rounds",
                "cold-rounds",
                "warm-msgs",
                "correct",
            ]);
            for (i, b) in stream.iter().enumerate() {
                let old = sc.values().to_vec();
                sc.apply_batch(b)
                    .map_err(|e| CliError::new(e.to_string()))?;
                let new_graph = sc.to_graph();
                let est =
                    warm_start_estimates_batch(&old, &new_graph, b.insertions(), b.removals());
                let cfg = ActiveSetConfig {
                    threads,
                    ..Default::default()
                };
                let warm = ActiveSetEngine::with_estimates(&new_graph, cfg, &est).run();
                let cold = ActiveSetEngine::new(&new_graph, cfg).run();
                let correct =
                    warm.final_estimates == sc.values() && cold.final_estimates == sc.values();
                all_correct &= correct;
                total_mutations += b.len();
                let mut row = String::new();
                let _ = write!(
                    row,
                    "{{\"graph\": \"step{i}\", \"step\": {i}, \"inserts\": {}, \
                     \"removals\": {}, \"warm_rounds\": {}, \"cold_rounds\": {}, \
                     \"warm_messages\": {}, \"correct\": {correct}}}",
                    b.insertions().len(),
                    b.removals().len(),
                    warm.rounds_executed,
                    cold.rounds_executed,
                    warm.total_messages,
                );
                json_rows.push(row);
                t.row([
                    i.to_string(),
                    b.insertions().len().to_string(),
                    b.removals().len().to_string(),
                    warm.rounds_executed.to_string(),
                    cold.rounds_executed.to_string(),
                    warm.total_messages.to_string(),
                    correct.to_string(),
                ]);
            }
            write!(out, "{t}")?;
        }
        other => {
            return Err(CliError::new(format!(
                "unknown engine {other:?}; expected batched|per-edge|warm-dist"
            )))
        }
    }
    if let Some(path) = report_json {
        let mut json = String::from("{\n  \"command\": \"stream\",\n");
        let _ = writeln!(json, "  \"input\": \"{}\",", json_escape(input));
        let _ = writeln!(json, "  \"engine\": \"{engine}\",");
        let _ = writeln!(json, "  \"workload\": \"{workload_name}\",");
        let _ = writeln!(json, "  \"batch\": {batch},");
        let _ = writeln!(json, "  \"steps\": {},", json_rows.len());
        let _ = writeln!(json, "  \"seed\": {seed},");
        let _ = writeln!(json, "  \"total_mutations\": {total_mutations},");
        let _ = writeln!(json, "  \"all_correct\": {all_correct},");
        json.push_str("  \"results\": [\n");
        for (i, row) in json_rows.iter().enumerate() {
            json.push_str("    ");
            json.push_str(row);
            json.push_str(if i + 1 < json_rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json)?;
    }
    if !all_correct {
        return Err(CliError::new("stream verification failed (see table)"));
    }
    Ok(())
}

/// `dkcore serve`: run the epoch-snapshot query service over a churning
/// graph (see [`dkcore_serve`]).
///
/// Starts the TCP front end on `127.0.0.1:port` (`0` = ephemeral; the
/// bound port is printed first), then applies `steps` churn batches
/// through the writer — publishing one epoch each, `interval_ms` apart —
/// and reports per-epoch stats plus repair/publish-latency percentiles.
/// With `shards > 1` the graph is partitioned over that many shard
/// writers (`ShardedCoreService`) and queries are answered by the
/// stitching front end; the wire protocol is identical. `replicas`
/// standby writers per partition enable failover, and `fault_plan`
/// (the `--fault-plan` spec; empty = no faults) injects deterministic
/// drop/delay/duplicate/kill/stall faults into the border exchange.
/// With `wait` the service then keeps serving queries until a client
/// sends `SHUTDOWN`; otherwise it exits once the churn is exhausted.
///
/// # Errors
///
/// Returns [`CliError`] for invalid options and I/O failures.
#[allow(clippy::too_many_arguments)]
pub fn cmd_serve<W: Write>(
    input: &str,
    port: u16,
    workload: &str,
    batch: usize,
    steps: usize,
    shards: usize,
    replicas: usize,
    fault_plan: &str,
    pin_cores: bool,
    insert_pct: u32,
    interval_ms: u64,
    events_capacity: usize,
    wait: bool,
    seed: u64,
    out: &mut W,
) -> Result<(), CliError> {
    use dkcore_metrics::{EventKind, Percentiles, Telemetry};
    use dkcore_serve::{wire, CoreService, FaultPlan, ShardedConfig, ShardedCoreService};

    let g = load_input(input, seed)?;
    if g.node_count() < 2 {
        return Err(CliError::new("serve needs a graph with at least 2 nodes"));
    }
    let plan = if fault_plan.is_empty() {
        FaultPlan::none()
    } else {
        FaultPlan::parse(fault_plan).map_err(|e| CliError::new(format!("--fault-plan: {e}")))?
    };
    if shards <= 1 && (replicas > 0 || !plan.is_none() || pin_cores) {
        return Err(CliError::new(
            "--replicas, --fault-plan, and --pin-cores require --shards > 1 \
             (replication, fault injection, and the pinned worker pool live \
             in the sharded backend)",
        ));
    }
    let workload = parse_workload(workload, batch, g.node_count(), insert_pct)?;
    let stream = dkcore_data::churn_stream(&g, workload, steps, batch, seed);

    // One apply/report arm per backend; everything else is shared. Boxed
    // so the enum stays pointer-sized (the services embed large state).
    enum Backend {
        Single(Box<CoreService>),
        Sharded(Box<ShardedCoreService>),
    }
    let tel = Telemetry::new(events_capacity.max(1));
    let mut backend = if shards > 1 {
        let config = ShardedConfig {
            replicas,
            fault_plan: plan,
            pin: pin_cores,
            telemetry: tel.clone(),
            ..ShardedConfig::default()
        };
        Backend::Sharded(Box::new(ShardedCoreService::with_config(
            &g, shards, config,
        )))
    } else {
        Backend::Single(Box::new(CoreService::with_telemetry(&g, tel.clone())))
    };
    let server = match &backend {
        Backend::Single(svc) => wire::serve(svc.handle(), ("127.0.0.1", port))?,
        Backend::Sharded(svc) => wire::serve(svc.handle(), ("127.0.0.1", port))?,
    };
    writeln!(
        out,
        "listening on 127.0.0.1:{} (epoch 0: {} nodes, {} edges{})",
        server.port(),
        g.node_count(),
        g.edge_count(),
        if shards > 1 {
            format!(", {shards} shards")
        } else {
            String::new()
        }
    )?;

    let mut t = Table::new(["epoch", "inserts", "removals", "changed", "publish-us"]);
    let mut repair = Percentiles::new();
    let mut publish = Percentiles::new();
    let mut failovers = 0u32;
    let mut resends = 0u64;
    // Lifecycle events (failover, degradation, revival) are echoed to
    // stderr as they happen, sourced from the flight recorder — the
    // same stream `dkcore query events` replays later.
    let mut event_cursor = 0u64;
    let echo_events = |cursor: &mut u64| {
        for e in tel.events_since(*cursor, usize::MAX) {
            *cursor = e.seq;
            if matches!(
                e.kind,
                EventKind::Failover
                    | EventKind::Promotion
                    | EventKind::Degraded
                    | EventKind::Revive
                    | EventKind::Deferred
            ) {
                eprintln!("dkcore-serve: {}", e.render());
            }
        }
    };
    for b in &stream {
        let (epoch, changed, repair_us, publish_us) = match &mut backend {
            Backend::Single(svc) => {
                let r = svc
                    .apply_batch(b)
                    .map_err(|e| CliError::new(e.to_string()))?;
                (r.epoch, r.stats.changed, r.repair_micros, r.publish_micros)
            }
            Backend::Sharded(svc) => {
                let r = svc
                    .apply_batch(b)
                    .map_err(|e| CliError::new(e.to_string()))?;
                failovers += r.failovers;
                resends += r.resends;
                (r.epoch, r.changed, r.repair_micros, r.publish_micros)
            }
        };
        echo_events(&mut event_cursor);
        repair.record(repair_us);
        publish.record(publish_us);
        t.row([
            epoch.to_string(),
            b.insertions().len().to_string(),
            b.removals().len().to_string(),
            changed.to_string(),
            format!("{publish_us:.0}"),
        ]);
        if interval_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    write!(out, "{t}")?;

    // The final published epoch must be the exact decomposition (of the
    // union graph, in the sharded case).
    let (epoch, edges, kmax, verified) = match &backend {
        Backend::Single(svc) => {
            let snap = svc.handle().snapshot();
            let ok = snap.values() == batagelj_zaversnik(snap.graph()).as_slice();
            (snap.epoch(), snap.edge_count(), snap.max_coreness(), ok)
        }
        Backend::Sharded(svc) => {
            let snap = svc.handle().snapshot();
            let ok = snap.values() == batagelj_zaversnik(snap.graph()).as_slice();
            (snap.epoch(), snap.edge_count(), snap.max_coreness(), ok)
        }
    };
    writeln!(
        out,
        "final epoch {epoch} ({edges} edges, kmax {kmax}) verified: {verified}"
    )?;
    writeln!(out, "repair latency (us):  {repair}")?;
    writeln!(out, "publish latency (us): {publish}")?;
    if failovers > 0 || resends > 0 {
        writeln!(
            out,
            "fault recovery: {failovers} failovers, {resends} border resends"
        )?;
    }
    if !verified {
        return Err(CliError::new("served epoch diverged from ground truth"));
    }
    if wait {
        writeln!(
            out,
            "serving until SHUTDOWN (dkcore query --port {} shutdown)",
            server.port()
        )?;
        server.wait();
    }
    Ok(())
}

/// `dkcore query`: one query against a running `dkcore serve` instance
/// on `127.0.0.1:port`.
///
/// `args` is the query in CLI spelling, e.g. `["coreness", "5"]`,
/// `["members", "3"]`, `["subgraph", "2"]`, `["hist"]`, `["topk", "10"]`,
/// `["epoch"]`, `["health"]`, `["metrics"]`, `["events", "since", "4"]`,
/// `["shutdown"]`. Prints the wire response verbatim (multi-line
/// `SUBGRAPH`/`METRICS`/`EVENTS` bodies included). With `json` (the
/// `--json` flag), a `health` response is re-emitted as a JSON object.
///
/// All requests run under a [`RetryPolicy`](dkcore_serve::RetryPolicy):
/// per-operation I/O timeouts so a hung or mid-shutdown server fails the
/// query in bounded time instead of blocking forever, plus a short
/// reconnect-with-backoff loop for transient connection failures.
///
/// # Errors
///
/// Returns [`CliError`] for unknown queries, connection failures and
/// `ERR` responses.
pub fn cmd_query<W: Write>(
    port: u16,
    args: &[&str],
    json: bool,
    out: &mut W,
) -> Result<(), CliError> {
    use dkcore_serve::wire::{RetryPolicy, WireClient};

    let Some((&verb, rest)) = args.split_first() else {
        return Err(CliError::new(
            "query needs a command: coreness V | members K | subgraph K | \
             hist | topk N | epoch | health | metrics | events | shutdown",
        ));
    };
    if json && verb != "health" {
        return Err(CliError::new(
            "query --json is only supported for health (metrics and events \
             have their own line-oriented formats)",
        ));
    }
    // Validate the query — arguments included — before touching the
    // network: every numeric argument is parsed here, so no raw user
    // string (which could embed newlines, i.e. extra protocol commands)
    // ever reaches the wire.
    let num = |name: &str| -> Result<u32, CliError> {
        let token = rest
            .first()
            .copied()
            .ok_or_else(|| CliError::new(format!("query {name} requires an argument")))?;
        token
            .parse()
            .map_err(|_| CliError::new(format!("query {name}: {token:?} is not a number")))
    };
    enum Request {
        Line(String),
        Subgraph(u32),
        Metrics,
        Events { since: u64, limit: Option<u64> },
    }
    // Optional pagination keywords (`offset O` and, for members,
    // `limit L`), validated and canonicalized here for the same
    // no-raw-strings-on-the-wire reason as the numeric arguments.
    let page_args = |tail: &[&str], allow_limit: bool| -> Result<String, CliError> {
        let mut suffix = String::new();
        let mut it = tail.iter();
        while let Some(&kw) = it.next() {
            let canon = if kw.eq_ignore_ascii_case("offset") {
                "OFFSET"
            } else if allow_limit && kw.eq_ignore_ascii_case("limit") {
                "LIMIT"
            } else {
                return Err(CliError::new(format!("query: unexpected argument {kw:?}")));
            };
            let val = it
                .next()
                .ok_or_else(|| CliError::new(format!("query {canon} requires an argument")))?;
            let n: u64 = val
                .parse()
                .map_err(|_| CliError::new(format!("query {canon}: {val:?} is not a number")))?;
            suffix.push_str(&format!(" {canon} {n}"));
        }
        Ok(suffix)
    };
    let tail = rest.get(1..).unwrap_or(&[]);
    let request = match verb {
        "coreness" => Request::Line(format!("CORENESS {}", num("coreness")?)),
        "members" => Request::Line(format!(
            "MEMBERS {}{}",
            num("members")?,
            page_args(tail, true)?
        )),
        "subgraph" => Request::Subgraph(num("subgraph")?),
        "hist" => Request::Line("HIST".into()),
        "topk" => Request::Line(format!("TOPK {}{}", num("topk")?, page_args(tail, false)?)),
        "epoch" => Request::Line("EPOCH".into()),
        "health" => Request::Line("HEALTH".into()),
        "metrics" => {
            if !rest.is_empty() {
                return Err(CliError::new(format!(
                    "query metrics takes no arguments, got {:?}",
                    rest[0]
                )));
            }
            Request::Metrics
        }
        "events" => {
            // `since S` / `limit N`, validated and parsed here like the
            // pagination keywords — no raw strings reach the wire.
            let mut since = 0u64;
            let mut limit: Option<u64> = None;
            let mut it = rest.iter();
            while let Some(&kw) = it.next() {
                if !kw.eq_ignore_ascii_case("since") && !kw.eq_ignore_ascii_case("limit") {
                    return Err(CliError::new(format!("query: unexpected argument {kw:?}")));
                }
                let val = it.next().ok_or_else(|| {
                    CliError::new(format!("query {} requires an argument", kw.to_lowercase()))
                })?;
                let n: u64 = val.parse().map_err(|_| {
                    CliError::new(format!("query {kw}: {val:?} is not a number"))
                })?;
                if kw.eq_ignore_ascii_case("since") {
                    since = n;
                } else {
                    limit = Some(n);
                }
            }
            Request::Events { since, limit }
        }
        "shutdown" => Request::Line("SHUTDOWN".into()),
        other => {
            return Err(CliError::new(format!(
            "unknown query {other:?}; expected coreness|members|subgraph|hist|topk|epoch|health|metrics|events|shutdown"
        )))
        }
    };
    let policy = RetryPolicy::default();
    let lines = match request {
        Request::Line(line) => {
            vec![
                WireClient::request_retrying(("127.0.0.1", port), &line, &policy)
                    .map_err(|e| CliError::new(format!("cannot reach 127.0.0.1:{port}: {e}")))?,
            ]
        }
        Request::Subgraph(k) => {
            // Multi-line responses are not idempotently retryable at the
            // request level (a retry could interleave with a half-read
            // body), so only the connect is policy-governed here.
            let mut client = WireClient::connect_with(("127.0.0.1", port), &policy)
                .map_err(|e| CliError::new(format!("cannot reach 127.0.0.1:{port}: {e}")))?;
            client.request_subgraph(k)?
        }
        Request::Metrics => {
            let mut client = WireClient::connect_with(("127.0.0.1", port), &policy)
                .map_err(|e| CliError::new(format!("cannot reach 127.0.0.1:{port}: {e}")))?;
            client.request_metrics()?
        }
        Request::Events { since, limit } => {
            let mut client = WireClient::connect_with(("127.0.0.1", port), &policy)
                .map_err(|e| CliError::new(format!("cannot reach 127.0.0.1:{port}: {e}")))?;
            client.request_events(since, limit)?
        }
    };
    let failed = lines.first().is_some_and(|l| l.starts_with("ERR"));
    if json && !failed {
        writeln!(out, "{}", health_line_to_json(&lines[0]))?;
    } else {
        for line in &lines {
            writeln!(out, "{line}")?;
        }
    }
    if failed {
        return Err(CliError::new(format!(
            "server rejected the query: {}",
            lines[0]
        )));
    }
    Ok(())
}

/// Converts a `HEALTH` response line (`OK epoch=3 status=healthy` plus
/// optional `down=...` / `exchange=...` fields) into a flat JSON
/// object. Values that parse as unsigned integers are emitted as JSON
/// numbers; everything else is an escaped string.
fn health_line_to_json(line: &str) -> String {
    use std::fmt::Write as _;
    let mut obj = String::from("{");
    for token in line.split_ascii_whitespace() {
        let Some((key, val)) = token.split_once('=') else {
            continue; // the leading "OK"
        };
        if obj.len() > 1 {
            obj.push(',');
        }
        let _ = write!(obj, "\"{}\":", json_escape(key));
        if val.parse::<u64>().is_ok() {
            obj.push_str(val);
        } else {
            let _ = write!(obj, "\"{}\"", json_escape(val));
        }
    }
    obj.push('}');
    obj
}

/// `dkcore generate`: build a dataset analog and write it as an edge list.
///
/// # Errors
///
/// Returns [`CliError`] for unknown analogs and I/O failures.
pub fn cmd_generate<W: Write>(
    analog: &str,
    nodes: usize,
    seed: u64,
    out: &mut W,
) -> Result<(), CliError> {
    let spec = dkcore_data::by_name(analog)
        .ok_or_else(|| CliError::new(format!("unknown analog {analog:?}")))?;
    let g = spec.build_scaled(nodes, seed);
    graph_io::write_edge_list(&g, out)?;
    Ok(())
}

/// `dkcore list-analogs`: the catalog with the paper's reference stats.
///
/// # Errors
///
/// Returns [`CliError`] on output failures.
pub fn cmd_list_analogs<W: Write>(out: &mut W) -> Result<(), CliError> {
    let mut t = Table::new([
        "analog",
        "stands in for",
        "paper |V|",
        "paper k_max",
        "default",
    ]);
    for spec in dkcore_data::catalog() {
        t.row([
            spec.name.to_string(),
            spec.snap_name.to_string(),
            spec.paper.nodes.to_string(),
            spec.paper.max_coreness.to_string(),
            spec.default_nodes.to_string(),
        ]);
    }
    write!(out, "{t}")?;
    Ok(())
}

/// `dkcore model-check`: exhaustive bounded exploration of the protocol
/// state machines on small fixed instances.
///
/// Runs every instance of the selected scenario family through the
/// `dkcore-model` explorer (BFS, so any counterexample is minimal) and
/// prints one summary row per instance. Instances that exhaust their
/// reachable state space within the caps are `proved`; instances that
/// hit `--max-states`/`--max-depth` are `capped` (a bounded sweep, not a
/// proof, and not a failure).
///
/// # Errors
///
/// Returns [`CliError`] — with the minimal counterexample trace in the
/// message — if any instance violates an invariant, a step property, or
/// a terminal condition, and on unknown scenarios or output failures.
pub fn cmd_model_check<W: Write>(
    scenario: &str,
    max_states: usize,
    max_depth: usize,
    out: &mut W,
) -> Result<(), CliError> {
    use dkcore::machine::{HostNetModel, NodeNetModel};
    use dkcore::one_to_many::{Assignment, AssignmentPolicy};
    use dkcore::one_to_one::OneToOneConfig;
    use dkcore_graph::generators::{complete, path, star};
    use dkcore_model::{ExploreConfig, Explorer, Report};
    use dkcore_serve::{PublishModel, PublishScenario};

    if !matches!(scenario, "node" | "host" | "publish" | "all") {
        return Err(CliError::new(format!(
            "--scenario: unknown scenario {scenario:?} (node|host|publish|all)"
        )));
    }
    let explorer = Explorer::new(ExploreConfig {
        max_states,
        max_depth,
        ..ExploreConfig::default()
    });
    let mut rows: Vec<(String, Report)> = Vec::new();

    if scenario == "node" || scenario == "all" {
        let cfg = OneToOneConfig::default();
        for (name, g) in [
            ("triangle", complete(3)),
            ("complete4", complete(4)),
            ("path6", path(6)),
            ("star5", star(5)),
        ] {
            let model = NodeNetModel::new(&g, cfg);
            rows.push((format!("node/{name}"), explorer.run(&model)));
        }
    }
    if scenario == "host" || scenario == "all" {
        for (name, g, hosts, policy) in [
            (
                "path6/h2/p2p",
                path(6),
                2,
                DisseminationPolicy::PointToPoint,
            ),
            ("path6/h2/bcast", path(6), 2, DisseminationPolicy::Broadcast),
            (
                "path6/h3/p2p",
                path(6),
                3,
                DisseminationPolicy::PointToPoint,
            ),
            ("star4/h3/bcast", star(4), 3, DisseminationPolicy::Broadcast),
        ] {
            let assignment = Assignment::new(&g, hosts, &AssignmentPolicy::Modulo);
            let model = HostNetModel::new(&g, &assignment, policy);
            rows.push((format!("host/{name}"), explorer.run(&model)));
        }
    }
    if scenario == "publish" || scenario == "all" {
        for (name, shards, replicas, batches, kills, readers) in [
            ("1shard", 1, 0, 3, 0, 1),
            ("failover", 2, 1, 2, 1, 1),
            ("degraded", 2, 0, 2, 1, 1),
            ("deep-kills", 2, 2, 2, 2, 1),
        ] {
            let model = PublishModel::new(PublishScenario {
                shards,
                replicas,
                batches,
                kills,
                readers,
                ..PublishScenario::default()
            });
            rows.push((format!("publish/{name}"), explorer.run(&model)));
        }
    }

    let mut t = Table::new([
        "instance",
        "states",
        "transitions",
        "terminals",
        "depth",
        "outcome",
    ]);
    let mut violations = Vec::new();
    for (name, report) in &rows {
        let outcome = if report.proved() {
            "proved".to_string()
        } else if let Some(cx) = report.counterexample() {
            violations.push(format!("{name}:\n{}", cx.render()));
            "VIOLATION".to_string()
        } else {
            "capped".to_string()
        };
        t.row([
            name.clone(),
            report.states.to_string(),
            report.transitions.to_string(),
            report.terminals.to_string(),
            report.max_depth_seen.to_string(),
            outcome,
        ]);
    }
    write!(out, "{t}")?;
    if !violations.is_empty() {
        return Err(CliError::new(format!(
            "model check found {} violation(s):\n\n{}",
            violations.len(),
            violations.join("\n\n")
        )));
    }
    Ok(())
}

/// Parses and dispatches a full argument vector (without the binary
/// name); the entry point used by the `dkcore` binary.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on any failure.
pub fn dispatch<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut algorithm = "bz".to_string();
    let mut shells = false;
    let mut hosts = 0usize;
    let mut policy = "p2p".to_string();
    let mut mode = "random".to_string();
    let mut engine: Option<String> = None;
    let mut threads = 0usize;
    let mut reps = 1u32;
    let mut seed = 42u64;
    let mut nodes = 0usize;
    let mut batch = 32usize;
    let mut steps = 8usize;
    let mut workload = "sliding-window".to_string();
    let mut out_path: Option<String> = None;
    let mut port = 0u16;
    let mut shards = 1usize;
    let mut replicas = 0usize;
    let mut fault_plan = String::new();
    let mut pin_cores = false;
    let mut insert_pct = 60u32;
    let mut interval_ms = 0u64;
    let mut events_capacity = dkcore_metrics::DEFAULT_EVENTS_CAPACITY;
    let mut json = false;
    let mut wait = true;
    let mut report_json: Option<String> = None;
    let mut scenario = "all".to_string();
    let mut max_states = 1_000_000usize;
    let mut max_depth = 10_000usize;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::new(format!("{name} requires a value")))
        };
        match a.as_str() {
            "--algorithm" => algorithm = value("--algorithm")?,
            "--shells" => shells = true,
            "--hosts" => {
                hosts = value("--hosts")?
                    .parse()
                    .map_err(|_| CliError::new("--hosts: expected a number"))?
            }
            "--policy" => policy = value("--policy")?,
            "--mode" => mode = value("--mode")?,
            "--engine" => engine = Some(value("--engine")?),
            "--workload" => workload = value("--workload")?,
            "--batch" => {
                batch = value("--batch")?
                    .parse()
                    .map_err(|_| CliError::new("--batch: expected a number"))?
            }
            "--steps" => {
                steps = value("--steps")?
                    .parse()
                    .map_err(|_| CliError::new("--steps: expected a number"))?
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|_| CliError::new("--threads: expected a number"))?
            }
            "--reps" => {
                reps = value("--reps")?
                    .parse()
                    .map_err(|_| CliError::new("--reps: expected a number"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| CliError::new("--seed: expected a number"))?
            }
            "--nodes" => {
                nodes = value("--nodes")?
                    .parse()
                    .map_err(|_| CliError::new("--nodes: expected a number"))?
            }
            "--out" => out_path = Some(value("--out")?),
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|_| CliError::new("--port: expected a port number"))?
            }
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|_| CliError::new("--shards: expected a number"))?;
                if shards == 0 {
                    return Err(CliError::new("--shards: need at least 1 shard"));
                }
            }
            "--replicas" => {
                replicas = value("--replicas")?
                    .parse()
                    .map_err(|_| CliError::new("--replicas: expected a number"))?
            }
            "--fault-plan" => fault_plan = value("--fault-plan")?,
            "--pin-cores" => pin_cores = true,
            "--insert-pct" => {
                insert_pct = value("--insert-pct")?
                    .parse()
                    .map_err(|_| CliError::new("--insert-pct: expected a percentage"))?
            }
            "--interval-ms" => {
                interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|_| CliError::new("--interval-ms: expected a number"))?
            }
            "--events-capacity" => {
                events_capacity = value("--events-capacity")?
                    .parse()
                    .map_err(|_| CliError::new("--events-capacity: expected a number"))?
            }
            "--json" => json = true,
            "--no-wait" => wait = false,
            "--scenario" => scenario = value("--scenario")?,
            "--max-states" => {
                max_states = value("--max-states")?
                    .parse()
                    .map_err(|_| CliError::new("--max-states: expected a number"))?
            }
            "--max-depth" => {
                max_depth = value("--max-depth")?
                    .parse()
                    .map_err(|_| CliError::new("--max-depth: expected a number"))?
            }
            "--report-json" => report_json = Some(value("--report-json")?),
            flag if flag.starts_with("--") => {
                return Err(CliError::new(format!("unknown flag {flag}")))
            }
            plain => positional.push(plain),
        }
    }

    let Some((&command, rest)) = positional.split_first() else {
        return Err(CliError::new(USAGE));
    };
    let input = rest.first().copied();
    let need_input = || input.ok_or_else(|| CliError::new(USAGE));

    // Route output to --out when given.
    let mut file_out: Box<dyn Write> = match &out_path {
        Some(p) => Box::new(std::fs::File::create(p)?),
        None => Box::new(Vec::new()), // placeholder, unused
    };
    let use_file = out_path.is_some();
    let mut sink: &mut dyn Write = if use_file { &mut file_out } else { out };

    match command {
        "stats" => cmd_stats(need_input()?, seed, &mut sink),
        "decompose" => cmd_decompose(need_input()?, &algorithm, shells, seed, &mut sink),
        "simulate" => cmd_simulate(
            need_input()?,
            hosts,
            &policy,
            &mode,
            engine.as_deref().unwrap_or("legacy"),
            threads,
            reps,
            seed,
            &mut sink,
        ),
        "stream" => cmd_stream(
            need_input()?,
            batch,
            steps,
            &workload,
            engine.as_deref().unwrap_or("batched"),
            threads,
            insert_pct,
            report_json.as_deref(),
            seed,
            &mut sink,
        ),
        "serve" => cmd_serve(
            need_input()?,
            port,
            &workload,
            batch,
            steps,
            shards,
            replicas,
            &fault_plan,
            pin_cores,
            insert_pct,
            interval_ms,
            events_capacity,
            wait,
            seed,
            &mut sink,
        ),
        "query" => {
            if port == 0 {
                return Err(CliError::new("query requires --port P (the serve port)"));
            }
            cmd_query(port, rest, json, &mut sink)
        }
        "generate" => {
            if nodes == 0 {
                return Err(CliError::new("generate requires --nodes N"));
            }
            cmd_generate(need_input()?, nodes, seed, &mut sink)
        }
        "model-check" => cmd_model_check(&scenario, max_states, max_depth, &mut sink),
        "list-analogs" => cmd_list_analogs(&mut sink),
        "help" | "--help" | "-h" => {
            write!(sink, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::new(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn stats_on_analog() {
        let text = run(&["stats", "analog:gnutella-like:500"]).unwrap();
        assert!(text.contains("nodes |V|"));
        assert!(text.contains("500"));
        assert!(text.contains("max coreness"));
    }

    #[test]
    fn decompose_algorithms_agree() {
        let input = "analog:amazon-like:400";
        let bz = run(&["decompose", input, "--algorithm", "bz"]).unwrap();
        let naive = run(&["decompose", input, "--algorithm", "naive"]).unwrap();
        let protocol = run(&["decompose", input, "--algorithm", "protocol"]).unwrap();
        let pregel = run(&["decompose", input, "--algorithm", "pregel"]).unwrap();
        assert_eq!(bz, naive);
        assert_eq!(bz, protocol);
        assert_eq!(bz, pregel);
        assert!(bz.starts_with("# node\tcoreness\n"));
    }

    #[test]
    fn decompose_shells_histogram() {
        let text = run(&["decompose", "analog:condmat-like:400", "--shells"]).unwrap();
        assert!(text.contains("k-shell"));
    }

    #[test]
    fn simulate_one_to_one_and_hosts() {
        let text = run(&["simulate", "analog:gnutella-like:300", "--reps", "2"]).unwrap();
        assert!(
            text.matches("true").count() == 2,
            "both reps correct: {text}"
        );
        let text = run(&[
            "simulate",
            "analog:gnutella-like:300",
            "--hosts",
            "4",
            "--policy",
            "broadcast",
            "--mode",
            "sync",
        ])
        .unwrap();
        assert!(text.contains("true"));
    }

    #[test]
    fn simulate_active_set_engines() {
        // One-to-one and one-to-many fast paths both agree with the
        // ground-truth check (the table prints `true` per repetition) and
        // match the legacy engine's table output exactly.
        for hosts in ["0", "4"] {
            let fast = run(&[
                "simulate",
                "analog:gnutella-like:300",
                "--hosts",
                hosts,
                "--mode",
                "sync",
                "--engine",
                "active-set",
                "--threads",
                "2",
            ])
            .unwrap();
            assert!(fast.contains("true"), "hosts={hosts}: {fast}");
            let legacy = run(&[
                "simulate",
                "analog:gnutella-like:300",
                "--hosts",
                hosts,
                "--mode",
                "sync",
                "--engine",
                "legacy",
            ])
            .unwrap();
            assert_eq!(fast, legacy, "hosts={hosts}");
        }
    }

    #[test]
    fn active_set_engine_rejects_random_mode() {
        let err = run(&[
            "simulate",
            "analog:gnutella-like:100",
            "--mode",
            "random",
            "--engine",
            "active-set",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--mode sync"), "{err}");
        let err = run(&[
            "simulate",
            "analog:gnutella-like:100",
            "--engine",
            "warp-drive",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "{err}");
    }

    #[test]
    fn stream_engines_verify_against_ground_truth() {
        for engine in ["batched", "per-edge"] {
            for workload in ["sliding-window", "insert-heavy", "adversarial"] {
                let text = run(&[
                    "stream",
                    "analog:gnutella-like:300",
                    "--batch",
                    "8",
                    "--steps",
                    "4",
                    "--workload",
                    workload,
                    "--engine",
                    engine,
                ])
                .unwrap();
                assert_eq!(
                    text.matches("true").count(),
                    4,
                    "{engine}/{workload}: every step verified: {text}"
                );
                assert!(text.contains("candidates"));
            }
        }
    }

    #[test]
    fn stream_warm_dist_reports_round_counts() {
        let text = run(&[
            "stream",
            "analog:condmat-like:400",
            "--batch",
            "6",
            "--steps",
            "3",
            "--engine",
            "warm-dist",
        ])
        .unwrap();
        assert!(text.contains("warm-rounds"), "{text}");
        assert!(text.contains("cold-rounds"), "{text}");
        assert_eq!(text.matches("true").count(), 3, "{text}");
    }

    #[test]
    fn stream_mixed_workload_verifies() {
        let text = run(&[
            "stream",
            "analog:gnutella-like:300",
            "--batch",
            "8",
            "--steps",
            "4",
            "--workload",
            "mixed",
            "--insert-pct",
            "70",
        ])
        .unwrap();
        assert_eq!(text.matches("true").count(), 4, "{text}");
    }

    #[test]
    fn stream_report_json_is_machine_readable() {
        let dir = std::env::temp_dir().join("dkcore_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream_report.json");
        let path_str = path.to_str().unwrap().to_string();
        run(&[
            "stream",
            "analog:gnutella-like:300",
            "--batch",
            "6",
            "--steps",
            "3",
            "--workload",
            "mixed",
            "--report-json",
            &path_str,
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"command\": \"stream\""), "{json}");
        assert!(json.contains("\"engine\": \"batched\""));
        assert!(json.contains("\"workload\": \"mixed\""));
        assert!(json.contains("\"steps\": 3"));
        assert!(json.contains("\"all_correct\": true"));
        assert!(json.contains("\"results\": ["));
        assert_eq!(json.matches("\"step\":").count(), 3);
        // warm-dist rows carry round counts instead.
        run(&[
            "stream",
            "analog:condmat-like:300",
            "--batch",
            "4",
            "--steps",
            "2",
            "--engine",
            "warm-dist",
            "--report-json",
            &path_str,
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"warm_rounds\":"), "{json}");
        assert!(json.contains("\"cold_rounds\":"));
        std::fs::remove_file(&path).ok();
    }

    /// `Write` sink shared with the thread running `cmd_serve`, so the
    /// test can read the bound port while the server is still running.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8")
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_and_query_end_to_end() {
        let buf = SharedBuf::default();
        let server = {
            let mut sink = buf.clone();
            std::thread::spawn(move || {
                cmd_serve(
                    "analog:gnutella-like:200",
                    0,
                    "mixed",
                    8,
                    3,
                    1,
                    0,
                    "",
                    false,
                    60,
                    0,
                    1024,
                    true, // keep serving until the SHUTDOWN query below
                    42,
                    &mut sink,
                )
            })
        };
        // Wait for the ephemeral port to be announced.
        let port: u16 = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                let text = buf.contents();
                if let Some(rest) = text.split("listening on 127.0.0.1:").nth(1) {
                    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
                    if !digits.is_empty() {
                        break digits.parse().unwrap();
                    }
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "serve never announced its port: {text:?}"
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        };
        let port_s = port.to_string();
        // Wait for the churn to finish (3 epochs), then query.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let e = run(&["query", "epoch", "--port", &port_s]).unwrap();
            assert!(e.starts_with("OK epoch="), "{e}");
            if e.contains("epoch=3") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "stuck at {e}");
        }
        let c = run(&["query", "coreness", "5", "--port", &port_s]).unwrap();
        assert!(c.contains("coreness=") && c.contains("degree="), "{c}");
        let h = run(&["query", "hist", "--port", &port_s]).unwrap();
        assert!(h.contains("hist=0:") || h.contains("hist="), "{h}");
        let t = run(&["query", "topk", "3", "--port", &port_s]).unwrap();
        assert_eq!(t.matches(':').count(), 3, "{t}");
        // Paginated members/topk: pages concatenate to the full answer.
        let full = run(&["query", "members", "1", "--port", &port_s]).unwrap();
        let full_ids = full.trim().split("members=").nth(1).unwrap().to_string();
        let mut paged = Vec::new();
        let mut offset = 0usize;
        loop {
            let page = run(&[
                "query",
                "members",
                "1",
                "offset",
                &offset.to_string(),
                "limit",
                "7",
                "--port",
                &port_s,
            ])
            .unwrap();
            assert!(
                page.contains("total=") && page.contains("offset="),
                "{page}"
            );
            let ids = page.trim().split("members=").nth(1).unwrap().to_string();
            let got = if ids.is_empty() {
                0
            } else {
                ids.split(',').count()
            };
            if got > 0 {
                paged.push(ids);
            }
            offset += got;
            if got < 7 {
                break;
            }
        }
        assert_eq!(paged.join(","), full_ids);
        let t2 = run(&["query", "topk", "2", "offset", "1", "--port", &port_s]).unwrap();
        assert!(t2.contains("offset=1 top="), "{t2}");
        let bad = run(&["query", "members", "1", "sideways", "2", "--port", &port_s]).unwrap_err();
        assert!(bad.to_string().contains("unexpected argument"), "{bad}");
        let s = run(&["query", "subgraph", "2", "--port", &port_s]).unwrap();
        assert!(s.starts_with("OK epoch=3 nodes="), "{s}");
        let hl = run(&["query", "health", "--port", &port_s]).unwrap();
        assert_eq!(hl.trim(), "OK epoch=3 status=healthy", "{hl}");
        // Bad queries surface the server's ERR.
        let err = run(&["query", "coreness", "99999", "--port", &port_s]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Telemetry exposition: the registry dump covers the publish
        // path and the wire counters the queries above just ticked.
        let m = run(&["query", "metrics", "--port", &port_s]).unwrap();
        assert!(m.starts_with("OK epoch=3 lines="), "{m}");
        assert!(m.contains("serve_publish_batches 3"), "{m}");
        assert!(m.contains("serve_wire_requests{verb=\"coreness\"}"), "{m}");
        // Event replay: three publishes leave three batch-applied /
        // epoch-published pairs; SINCE pages with the last= cursor.
        let ev = run(&["query", "events", "--port", &port_s]).unwrap();
        assert!(ev.starts_with("OK epoch=3 count=6 last=6"), "{ev}");
        assert_eq!(ev.matches("kind=batch-applied").count(), 3, "{ev}");
        let tail = run(&[
            "query", "events", "since", "4", "limit", "1", "--port", &port_s,
        ])
        .unwrap();
        assert!(tail.starts_with("OK epoch=3 count=1 last=5"), "{tail}");
        let bad_ev = run(&["query", "events", "sideways", "--port", &port_s]).unwrap_err();
        assert!(
            bad_ev.to_string().contains("unexpected argument"),
            "{bad_ev}"
        );
        // health --json re-emits the same fields as a JSON object.
        let hj = run(&["query", "health", "--json", "--port", &port_s]).unwrap();
        assert_eq!(hj.trim(), "{\"epoch\":3,\"status\":\"healthy\"}", "{hj}");
        let bad_json = run(&["query", "epoch", "--json", "--port", &port_s]).unwrap_err();
        assert!(
            bad_json.to_string().contains("only supported for health"),
            "{bad_json}"
        );
        // Shut the service down and join the serve command.
        let bye = run(&["query", "shutdown", "--port", &port_s]).unwrap();
        assert!(bye.contains("shutting-down"), "{bye}");
        server.join().unwrap().unwrap();
        let text = buf.contents();
        assert!(text.contains("final epoch 3"), "{text}");
        assert!(text.contains("verified: true"), "{text}");
        assert!(text.contains("repair latency (us):"), "{text}");
        assert!(text.contains("publish latency (us):"), "{text}");
        assert!(text.contains("p95="), "{text}");
    }

    #[test]
    fn serve_no_wait_runs_to_completion() {
        let mut out = Vec::new();
        cmd_serve(
            "analog:gnutella-like:150",
            0,
            "sliding-window",
            6,
            2,
            1,
            0,
            "",
            false,
            60,
            0,
            1024,
            false, // exit as soon as the churn is exhausted
            7,
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("final epoch 2"), "{text}");
        assert!(text.contains("verified: true"), "{text}");
        assert!(!text.contains("serving until SHUTDOWN"), "{text}");
    }

    #[test]
    fn serve_sharded_runs_to_completion_and_verifies() {
        // The sharded backend behind the same command: stitched epochs
        // verified against union-graph ground truth for shard counts
        // above 1, same table and summary output.
        for shards in [2usize, 4] {
            let mut out = Vec::new();
            cmd_serve(
                "analog:gnutella-like:200",
                0,
                "mixed",
                8,
                3,
                shards,
                0,
                "",
                false,
                60,
                0,
                1024,
                false,
                11,
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains(&format!("{shards} shards")), "{text}");
            assert!(text.contains("final epoch 3"), "{text}");
            assert!(text.contains("verified: true"), "{text}");
        }
        // --shards 0 is rejected at parse time.
        let args: Vec<String> = ["serve", "analog:gnutella-like:100", "--shards", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = dispatch(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn serve_with_replicas_and_fault_plan_recovers_and_verifies() {
        // A scheduled primary kill at epoch 2 with one standby per
        // partition: the run must fail over, finish all epochs, and
        // still verify against ground truth.
        let mut out = Vec::new();
        cmd_serve(
            "analog:gnutella-like:200",
            0,
            "mixed",
            8,
            4,
            2,
            1,
            "seed=3,drop=10,kill=0@2",
            false,
            60,
            0,
            1024,
            false,
            13,
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("final epoch 4"), "{text}");
        assert!(text.contains("verified: true"), "{text}");
        assert!(text.contains("fault recovery: 1 failovers"), "{text}");

        // The fault knobs are sharded-only and validated up front.
        for args in [
            vec!["serve", "analog:gnutella-like:100", "--replicas", "1"],
            vec![
                "serve",
                "analog:gnutella-like:100",
                "--fault-plan",
                "drop=5",
            ],
            vec!["serve", "analog:gnutella-like:100", "--pin-cores"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = dispatch(&args, &mut Vec::new()).unwrap_err();
            assert!(err.to_string().contains("--shards > 1"), "{err}");
        }
        // Malformed plans are rejected with the offending clause.
        let args: Vec<String> = [
            "serve",
            "analog:gnutella-like:100",
            "--shards",
            "2",
            "--fault-plan",
            "drop=999",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = dispatch(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--fault-plan"), "{err}");
    }

    #[test]
    fn query_rejects_bad_usage() {
        assert!(run(&["query", "epoch"])
            .unwrap_err()
            .to_string()
            .contains("--port"));
        assert!(run(&["query", "--port", "1"])
            .unwrap_err()
            .to_string()
            .contains("query needs a command"));
        assert!(run(&["query", "teleport", "--port", "1"])
            .unwrap_err()
            .to_string()
            .contains("unknown query"));
        // Arguments are validated client-side (before any connection), so
        // raw strings — including embedded protocol commands — never
        // reach the wire.
        assert!(run(&["query", "coreness", "abc", "--port", "1"])
            .unwrap_err()
            .to_string()
            .contains("is not a number"));
        assert!(run(&["query", "topk", "5\nSHUTDOWN", "--port", "1"])
            .unwrap_err()
            .to_string()
            .contains("is not a number"));
        // Nothing listens on the discard port: connection errors surface.
        assert!(run(&["query", "epoch", "--port", "9"])
            .unwrap_err()
            .to_string()
            .contains("cannot reach"));
        assert!(
            run(&["serve", "analog:gnutella-like:100", "--workload", "bogus"])
                .unwrap_err()
                .to_string()
                .contains("unknown workload")
        );
    }

    #[test]
    fn stream_rejects_bad_options() {
        assert!(
            run(&["stream", "analog:gnutella-like:100", "--engine", "bogus"])
                .unwrap_err()
                .to_string()
                .contains("unknown engine")
        );
        assert!(
            run(&["stream", "analog:gnutella-like:100", "--workload", "bogus"])
                .unwrap_err()
                .to_string()
                .contains("unknown workload")
        );
        assert!(run(&["stream", "analog:gnutella-like:100", "--batch", "x"]).is_err());
        assert!(run(&["stream"]).is_err());
    }

    #[test]
    fn generate_roundtrips_through_stats() {
        let dir = std::env::temp_dir().join("dkcore_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.txt");
        let path_str = path.to_str().unwrap();
        run(&[
            "generate",
            "roadnet-like",
            "--nodes",
            "400",
            "--out",
            path_str,
        ])
        .unwrap();
        let text = run(&["stats", path_str]).unwrap();
        assert!(text.contains("edges |E|"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_check_publish_proves() {
        let text = run(&["model-check", "--scenario", "publish"]).unwrap();
        for instance in ["publish/1shard", "publish/failover", "publish/degraded"] {
            assert!(text.contains(instance), "{instance} missing:\n{text}");
        }
        assert!(text.contains("proved"), "{text}");
        assert!(!text.contains("VIOLATION"), "{text}");
    }

    #[test]
    fn model_check_caps_are_reported_not_failed() {
        let text = run(&["model-check", "--scenario", "node", "--max-states", "50"]).unwrap();
        assert!(text.contains("capped"), "{text}");
    }

    #[test]
    fn model_check_rejects_unknown_scenario() {
        assert!(run(&["model-check", "--scenario", "quantum"])
            .unwrap_err()
            .to_string()
            .contains("unknown scenario"));
    }

    #[test]
    fn list_analogs_shows_all_nine() {
        let text = run(&["list-analogs"]).unwrap();
        for spec in dkcore_data::catalog() {
            assert!(text.contains(spec.name), "{} missing", spec.name);
        }
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&["bogus-cmd"])
            .unwrap_err()
            .to_string()
            .contains("unknown command"));
        assert!(run(&["stats"]).is_err());
        assert!(run(&["stats", "analog:nope:100"])
            .unwrap_err()
            .to_string()
            .contains("unknown analog"));
        assert!(run(&[
            "decompose",
            "analog:gnutella-like:100",
            "--algorithm",
            "magic"
        ])
        .unwrap_err()
        .to_string()
        .contains("unknown algorithm"));
        assert!(run(&["generate", "roadnet-like"])
            .unwrap_err()
            .to_string()
            .contains("--nodes"));
        assert!(run(&["stats", "/no/such/file.txt"]).is_err());
        assert!(run(&["simulate", "analog:gnutella-like:100", "--mode", "warp"]).is_err());
        assert!(run(&["stats", "analog:gnutella-like:100", "--seed"]).is_err());
        assert!(run(&["stats", "analog:gnutella-like:100", "--wat"]).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let text = run(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn seed_changes_analog_output_deterministically() {
        let a1 = run(&["decompose", "analog:gnutella-like:300", "--seed", "1"]).unwrap();
        let a2 = run(&["decompose", "analog:gnutella-like:300", "--seed", "1"]).unwrap();
        let b = run(&["decompose", "analog:gnutella-like:300", "--seed", "2"]).unwrap();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }
}
