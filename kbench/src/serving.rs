//! The live-serving phase: a writer applies seeded churn batches in an
//! open loop while one reader connection queries the wire server in a
//! closed loop, both in this process.
//!
//! * Writes go through the public `apply_batch` of [`CoreService`] or
//!   [`ShardedCoreService`] (the wire has no write verb).
//! * Reads go over loopback TCP through [`wire::serve`] and
//!   [`WireClient`] (text mode) or [`dkcore_serve::BinaryWireClient`] (binary,
//!   pipelined).
//! * A batch is timed from when it was *due*, so a stalled writer
//!   charges its delay to every later batch; it becomes visible at the
//!   first reply on the reader connection whose epoch is at least the
//!   batch's epoch.
//! * At the end, the final published epoch is checked against
//!   Batagelj–Zaveršnik on the graph this module rebuilt on its own
//!   from the initial edges and every applied batch.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dkcore::seq::batagelj_zaversnik;
use dkcore::stream::EdgeBatch;
use dkcore_data::{by_name, churn_stream, ChurnWorkload};
use dkcore_graph::{Graph, NodeId};
use dkcore_metrics::Telemetry;
use dkcore_serve::{
    wire, BinRequest, BinResponse, CacheStats, CoreQuery, CoreScan, CoreService, RetryPolicy,
    ShardedConfig, ShardedCoreService, SnapshotSource, WireClient, WireServer,
};

use crate::place::{self, Role};
use crate::report::{ratio, Metrics};
use crate::stats::{mean, median, percentile, Better, Reservoir, Rng};
use crate::trace::Trace;

/// Mutations per batch.
pub const BATCH: usize = 32;
/// Share of insertions in the mixed churn, in percent.
pub const INSERT_PCT: u32 = 50;
/// Requests the binary reader keeps in flight.
pub const PIPELINE: usize = 4;
/// Page size of the binary reader's `MEMBERS` and `TOPK` requests.
pub const PAGE: u64 = 64;
/// Latency samples kept per reservoir (a uniform sample of all reads).
const SAMPLES: usize = 1 << 18;
/// How long the reader may take to see the final epoch once the
/// writer is done before the run fails.
const VISIBILITY_TIMEOUT: Duration = Duration::from_secs(10);

/// Which reader drives the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// Text mode, `CORENESS v` for uniformly random `v`.
    TextPoint,
    /// Binary pipelined mode: a bulk mix of `MEMBERS` pages, `TOPK`
    /// pages, `HIST` and some `CORENESS`, half of the pages hot.
    BinaryBulk,
}

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Catalog analog the graph is generated from.
    pub dataset: &'static str,
    /// Requested node count.
    pub nodes: usize,
    /// Writer partitions: 1 = [`CoreService`], more = [`ShardedCoreService`].
    pub shards: usize,
    /// Open-loop write rate, in batches per second.
    pub rate: f64,
    /// Reader kind.
    pub reads: Reads,
}

/// What one `apply_batch` reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct Applied {
    epoch: u64,
    repair_us: f64,
    publish_us: f64,
    deferred: bool,
    examined: usize,
    changed: usize,
    regions: usize,
    rounds: u32,
    messages: u64,
    round_us_p50: f64,
    busy_pct: f64,
    resends: u64,
}

/// The writer side of a serving backend, as the benchmark drives it.
pub trait Writer: Sized {
    /// Reader handle type served over the wire.
    type Source: SnapshotSource;
    /// True for the multi-writer sharded service.
    const SHARDED: bool;
    /// Builds the service on `g` with `shards` partitions.
    fn build(g: &Graph, shards: usize, tel: Telemetry) -> Self;
    /// A reader handle.
    fn source(&self) -> Self::Source;
    /// Applies and publishes one batch; `None` when validation rejects
    /// it.
    fn apply(&mut self, b: &EdgeBatch) -> Option<Applied>;
    /// The writer's telemetry bundle.
    fn telemetry(&self) -> &Telemetry;
    /// The latest published epoch.
    fn epoch(&self) -> u64;
    /// `(epoch, coreness, edge count)` of the latest published epoch.
    fn published(&self) -> (u64, Vec<u32>, usize);
}

impl Writer for CoreService {
    type Source = dkcore_serve::ServiceHandle;
    const SHARDED: bool = false;
    fn build(g: &Graph, _shards: usize, tel: Telemetry) -> Self {
        CoreService::with_telemetry(g, tel)
    }
    fn source(&self) -> Self::Source {
        self.handle()
    }
    fn apply(&mut self, b: &EdgeBatch) -> Option<Applied> {
        let r = self.apply_batch(b).ok()?;
        Some(Applied {
            epoch: r.epoch,
            repair_us: r.repair_micros,
            publish_us: r.publish_micros,
            examined: r.stats.candidates,
            changed: r.stats.changed,
            regions: r.stats.regions,
            ..Applied::default()
        })
    }
    fn telemetry(&self) -> &Telemetry {
        CoreService::telemetry(self)
    }
    fn epoch(&self) -> u64 {
        CoreService::epoch(self)
    }
    fn published(&self) -> (u64, Vec<u32>, usize) {
        let s = self.handle().snapshot();
        (s.epoch(), s.values().to_vec(), s.edge_count())
    }
}

impl Writer for ShardedCoreService {
    type Source = dkcore_serve::ShardedHandle;
    const SHARDED: bool = true;
    fn build(g: &Graph, shards: usize, tel: Telemetry) -> Self {
        let config = ShardedConfig {
            telemetry: tel,
            ..ShardedConfig::default()
        };
        ShardedCoreService::with_config(g, shards, config)
    }
    fn source(&self) -> Self::Source {
        self.handle()
    }
    fn apply(&mut self, b: &EdgeBatch) -> Option<Applied> {
        let r = self.apply_batch(b).ok()?;
        Some(Applied {
            epoch: r.epoch,
            repair_us: r.repair_micros,
            publish_us: r.publish_micros,
            deferred: r.deferred,
            changed: r.changed,
            rounds: r.rounds,
            messages: r.messages,
            round_us_p50: r.round_us_p50,
            busy_pct: r.worker_busy_pct,
            resends: r.resends,
            ..Applied::default()
        })
    }
    fn telemetry(&self) -> &Telemetry {
        ShardedCoreService::telemetry(self)
    }
    fn epoch(&self) -> u64 {
        ShardedCoreService::epoch(self)
    }
    fn published(&self) -> (u64, Vec<u32>, usize) {
        let s = self.handle().snapshot();
        (s.epoch(), s.values().to_vec(), s.edge_count())
    }
}

/// A built service with its wire server running.
pub struct Setup<W> {
    graph: Graph,
    writer: W,
    server: WireServer,
}

/// Builds the graph from `seed`, the service with the program's default
/// telemetry (as `dkcore serve` ships it) and the wire server on an
/// ephemeral loopback port.
pub fn setup<W: Writer>(spec: &Spec, seed: u64) -> Result<Setup<W>, String> {
    let ds =
        by_name(spec.dataset).ok_or_else(|| format!("{} is not in the catalog", spec.dataset))?;
    let graph = ds.build_scaled(spec.nodes, seed);
    let writer = W::build(&graph, spec.shards, Telemetry::default());
    // The server's accept thread, and the connection threads it spawns,
    // inherit the reader's core.
    place::pin(Role::Reader);
    let server = wire::serve(writer.source(), ("127.0.0.1", 0));
    place::pin(Role::Any);
    let server = server.map_err(|e| format!("wire server failed to start: {e}"))?;
    Ok(Setup {
        graph,
        writer,
        server,
    })
}

/// Request classes of the readers, in metric-name order (see [`class`]).
const CLASSES: [&str; 4] = ["coreness", "members", "topk", "hist"];

/// One batch as the writer saw it.
#[derive(Debug, Clone, Copy)]
struct BatchRec {
    due_ns: u64,
    start_ns: u64,
    end_ns: u64,
    /// `None` when validation rejected the batch.
    applied: Option<Applied>,
    /// Repair phase split read off the telemetry registry (traced
    /// phase, single writer): removal, region, insert, export.
    phase_us: [u64; 4],
}

/// Everything the reader connection recorded.
#[derive(Debug)]
struct ReadLog {
    /// Request latency, in µs (replies only, `ERR` included).
    lat_us: Reservoir,
    /// In-process floor, in µs, over all classes and per class (traced
    /// phase only).
    floor_us: Reservoir,
    class_floor_us: [Reservoir; 4],
    /// `(reply time, epoch)` at each reply whose epoch is new on the
    /// connection.
    seen: Vec<(u64, u64)>,
    ok: u64,
    err: u64,
    io_err: u64,
    bytes: u64,
    /// Replies whose epoch was lower than an earlier reply's.
    regressions: u64,
    start_ns: u64,
    end_ns: u64,
}

impl ReadLog {
    fn new(seed: u64) -> Self {
        let r = |i: u64| Reservoir::new(SAMPLES, seed ^ (i << 56));
        ReadLog {
            lat_us: r(1),
            floor_us: r(2),
            class_floor_us: [r(3), r(4), r(5), r(6)],
            seen: Vec::new(),
            ok: 0,
            err: 0,
            io_err: 0,
            bytes: 0,
            regressions: 0,
            start_ns: 0,
            end_ns: 0,
        }
    }

    fn attempted(&self) -> u64 {
        self.ok + self.err + self.io_err
    }

    fn record_latency(&mut self, class: u8, lat: Duration, floor: Option<Duration>) {
        self.lat_us.push(us(lat));
        if let Some(f) = floor {
            self.floor_us.push(us(f));
            self.class_floor_us[usize::from(class)].push(us(f));
        }
    }

    fn record_reply(&mut self, at_ns: u64, epoch: u64) {
        match self.seen.last() {
            Some(&(_, last)) if epoch < last => self.regressions += 1,
            Some(&(_, last)) if epoch == last => {}
            _ => self.seen.push((at_ns, epoch)),
        }
    }

    fn max_epoch(&self) -> Option<u64> {
        self.seen.last().map(|&(_, e)| e)
    }
}

/// Index of `req`'s class in [`CLASSES`].
fn class(req: &BinRequest) -> u8 {
    match req {
        BinRequest::Coreness(_) => 0,
        BinRequest::Members { .. } => 1,
        BinRequest::TopK { .. } => 2,
        _ => 3,
    }
}

/// The bulk mix: 20% `CORENESS`, 45% `MEMBERS k` pages over four core
/// levels, 20% `TOPK` pages, 15% `HIST`. Half of the pages are the
/// first page (hot keys that repeat within an epoch); the rest are
/// spread over every page (a long tail of distinct keys).
struct BulkMix {
    nodes: u64,
    levels: Vec<(u32, u64)>,
}

impl BulkMix {
    fn new<V: CoreScan>(view: &V) -> Self {
        let kmax = view.max_coreness().max(1);
        let mut ks = vec![1, kmax / 4, kmax / 2, 3 * kmax / 4];
        ks.retain(|&k| k >= 1);
        ks.dedup();
        let levels = ks
            .into_iter()
            .map(|k| (k, (view.kcore_size(k) as u64).div_ceil(PAGE).max(1)))
            .collect();
        BulkMix {
            nodes: view.node_count() as u64,
            levels,
        }
    }

    fn page(rng: &mut Rng, pages: u64) -> u64 {
        if rng.below(2) == 0 {
            0
        } else {
            rng.below(pages) * PAGE
        }
    }

    fn draw(&self, rng: &mut Rng) -> BinRequest {
        let r = rng.below(100);
        if r < 20 {
            BinRequest::Coreness(rng.below(self.nodes) as u32)
        } else if r < 65 {
            let (k, pages) = self.levels[rng.below(self.levels.len() as u64) as usize];
            BinRequest::Members {
                k,
                offset: Self::page(rng, pages),
                limit: PAGE,
            }
        } else if r < 85 {
            BinRequest::TopK {
                n: PAGE,
                offset: Self::page(rng, self.nodes.div_ceil(PAGE)),
            }
        } else {
            BinRequest::Hist
        }
    }
}

/// Runs `q` in process against the latest snapshot: the floor the wire
/// adds its cost to. Returns the elapsed time.
fn view_floor<S: SnapshotSource>(src: &S, q: &BinRequest) -> Duration {
    let t = Instant::now();
    let snap = src.snapshot();
    match *q {
        BinRequest::Coreness(v) => {
            black_box((snap.coreness(NodeId(v)), snap.degree(NodeId(v))));
        }
        BinRequest::Members { k, offset, limit } => {
            let total = snap.kcore_size(k);
            let page: Vec<u32> = snap
                .members(k, offset as usize, limit as usize)
                .map(|v| v.0)
                .collect();
            black_box((total, page));
        }
        BinRequest::TopK { n, offset } => {
            black_box(snap.top(offset as usize, n as usize).collect::<Vec<_>>());
        }
        _ => {
            black_box(snap.shell_sizes().collect::<Vec<_>>());
        }
    }
    t.elapsed()
}

/// How a phase's reader runs.
#[derive(Debug, Clone, Copy)]
struct Reader {
    /// Seed of the reader's keys.
    seed: u64,
    /// Span key of the phase's first request.
    key_base: u64,
    /// Instant span and log times count from.
    base: Instant,
    /// Whether requests get in-process floors and spans.
    traced: bool,
}

/// Shared state between the writer (main thread) and the reader.
struct Control {
    base: Instant,
    key_base: u64,
    /// The last epoch the writer published, `u64::MAX` while writing.
    final_epoch: AtomicU64,
}

impl Control {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// True once the reader has seen the writer's last epoch, or has
    /// waited too long for it.
    fn reader_done(&self, log: &ReadLog, writer_done_at: &mut Option<Instant>) -> bool {
        let target = self.final_epoch.load(Ordering::Acquire);
        if target == u64::MAX {
            return false;
        }
        if log.max_epoch().is_some_and(|e| e >= target) {
            return true;
        }
        writer_done_at.get_or_insert_with(Instant::now).elapsed() > VISIBILITY_TIMEOUT
    }
}

fn io_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        io_timeout: Duration::from_secs(10),
        backoff: Duration::from_millis(10),
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Parses the `epoch=<e>` field of a text reply.
fn text_epoch(line: &str) -> Option<u64> {
    let rest = &line[line.find("epoch=")? + 6..];
    let end = rest.find(' ').unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Closed-loop text reader: `CORENESS v` for random `v`.
fn text_reader<S: SnapshotSource>(
    addr: SocketAddr,
    src: &S,
    ctl: &Control,
    seed: u64,
    mut trace: Option<&mut Trace>,
) -> ReadLog {
    let mut log = ReadLog::new(seed);
    let nodes = src.snapshot().node_count() as u64;
    let mut rng = Rng(seed);
    let mut client = WireClient::connect_with(addr, &io_policy()).ok();
    let mut done_at = None;
    log.start_ns = ctl.ns(Instant::now());
    while !ctl.reader_done(&log, &mut done_at) {
        let Some(c) = client.as_mut() else { break };
        let v = rng.below(nodes) as u32;
        let key = ctl.key_base + log.attempted();
        let floor = trace.as_deref_mut().map(|tr| {
            let t = Instant::now();
            let floor = view_floor(src, &BinRequest::Coreness(v));
            tr.record_leaf("view.query", key, t, t + floor);
            floor
        });
        let cmd = format!("CORENESS {v}");
        let t0 = Instant::now();
        let reply = c.request(&cmd);
        let t1 = Instant::now();
        if let Some(tr) = trace.as_deref_mut() {
            tr.record_leaf("read", key, t0, t1);
        }
        match reply {
            Ok(line) => {
                log.record_latency(0, t1 - t0, floor);
                log.bytes += line.len() as u64 + 1;
                match text_epoch(&line).filter(|_| line.starts_with("OK")) {
                    Some(e) => {
                        log.ok += 1;
                        log.record_reply(ctl.ns(t1), e);
                    }
                    None => log.err += 1,
                }
            }
            Err(_) => {
                log.io_err += 1;
                client = WireClient::connect_with(addr, &io_policy()).ok();
            }
        }
    }
    log.end_ns = ctl.ns(Instant::now());
    log
}

/// True when a binary reply decodes as the class it answers.
fn well_formed(class: u8, r: &BinResponse) -> bool {
    match class {
        0 => r.coreness().is_some(),
        1 => r.members().is_some(),
        2 => r.top().is_some(),
        _ => r.hist().is_some(),
    }
}

/// A binary request on the wire: id, class, send time, span key and
/// in-process floor.
type InFlight = (u32, u8, Instant, u64, Option<Duration>);

/// Closed-loop binary reader keeping [`PIPELINE`] requests in flight.
fn binary_reader<S: SnapshotSource>(
    addr: SocketAddr,
    src: &S,
    ctl: &Control,
    seed: u64,
    mut trace: Option<&mut Trace>,
) -> ReadLog {
    let mut log = ReadLog::new(seed);
    let mix = BulkMix::new(&*src.snapshot());
    let mut rng = Rng(seed);
    let mut done_at = None;
    let mut next_key = ctl.key_base;
    log.start_ns = ctl.ns(Instant::now());
    let connect = || WireClient::connect_with(addr, &io_policy()).and_then(WireClient::into_binary);
    let Ok(mut client) = connect() else {
        log.io_err += 1;
        return log;
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(PIPELINE);
    loop {
        if !ctl.reader_done(&log, &mut done_at) {
            while inflight.len() < PIPELINE {
                let req = mix.draw(&mut rng);
                let key = next_key;
                next_key += 1;
                let floor = trace.as_deref_mut().map(|tr| {
                    let t = Instant::now();
                    let floor = view_floor(src, &req);
                    tr.record_leaf("view.query", key, t, t + floor);
                    floor
                });
                let sent = Instant::now();
                match client.send(&req) {
                    Ok(id) => inflight.push_back((id, class(&req), sent, key, floor)),
                    Err(_) => {
                        log.io_err += 1;
                        break;
                    }
                }
            }
        }
        let Some((id, class, sent, key, floor)) = inflight.pop_front() else {
            break;
        };
        let reply = client.recv();
        let t1 = Instant::now();
        if let Some(tr) = trace.as_deref_mut() {
            tr.record_leaf("read", key, sent, t1);
        }
        match reply {
            Ok(r) if r.req_id == id => {
                log.record_latency(class, t1 - sent, floor);
                log.bytes += r.payload.len() as u64 + 17;
                if r.ok && well_formed(class, &r) {
                    log.ok += 1;
                    log.record_reply(ctl.ns(t1), r.epoch);
                } else {
                    log.err += 1;
                }
            }
            _ => {
                // A broken or desynchronised stream loses every request
                // still in flight; start over on a fresh connection.
                log.io_err += 1 + inflight.len() as u64;
                inflight.clear();
                match connect() {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    log.end_ns = ctl.ns(Instant::now());
    log
}

/// One phase: the writer applies `batches` at `rate` on this thread
/// while the reader runs on another.
fn run_phase<W: Writer>(
    spec: &Spec,
    setup: &mut Setup<W>,
    batches: &[EdgeBatch],
    reader: Reader,
) -> (Vec<BatchRec>, ReadLog, Option<Trace>) {
    let Reader {
        seed,
        key_base,
        base,
        traced,
    } = reader;
    let ctl = Control {
        base,
        key_base,
        final_epoch: AtomicU64::new(u64::MAX),
    };
    let addr = setup.server.local_addr();
    let src = setup.writer.source();
    let phase_hist: Vec<_> = ["removal", "region", "insert", "export"]
        .iter()
        .map(|p| {
            setup
                .writer
                .telemetry()
                .registry()
                .histogram(&format!("serve.repair.{p}_us"), &[])
        })
        .collect();
    let reads = spec.reads;
    std::thread::scope(|s| {
        let ctl = &ctl;
        let reader = s.spawn(move || {
            place::pin(Role::Reader);
            let mut local = traced.then(|| Trace::new(base));
            let log = match reads {
                Reads::TextPoint => text_reader(addr, &src, ctl, seed, local.as_mut()),
                Reads::BinaryBulk => binary_reader(addr, &src, ctl, seed, local.as_mut()),
            };
            (log, local)
        });
        place::pin(Role::Writer);
        let interval = Duration::from_secs_f64(1.0 / spec.rate);
        let t_phase = Instant::now();
        let mut recs = Vec::with_capacity(batches.len());
        for (i, b) in batches.iter().enumerate() {
            let due = t_phase + interval * i as u32;
            // Wait by polling the clock rather than sleeping: on a shared
            // virtual machine an idle core is handed to other guests, and
            // a batch started after a sleep ran on a cold, contended core,
            // up to twice as slow. (No pause hint either: a pause loop
            // makes the hypervisor deschedule the core all the same.)
            while Instant::now() < due {}
            let before: Vec<u64> = if traced {
                phase_hist.iter().map(|h| h.sum()).collect()
            } else {
                Vec::new()
            };
            let start = Instant::now();
            let applied = setup.writer.apply(b);
            let end = Instant::now();
            let mut phase_us = [0u64; 4];
            if traced {
                for ((slot, h), b0) in phase_us.iter_mut().zip(&phase_hist).zip(&before) {
                    *slot = h.sum() - b0;
                }
            }
            recs.push(BatchRec {
                due_ns: ctl.ns(due),
                start_ns: ctl.ns(start),
                end_ns: ctl.ns(end),
                applied,
                phase_us,
            });
        }
        ctl.final_epoch
            .store(setup.writer.epoch(), Ordering::Release);
        let (log, local) = reader.join().expect("reader thread panicked");
        place::pin(Role::Any);
        (recs, log, local)
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What one phase recorded.
struct PhaseResult {
    recs: Vec<BatchRec>,
    log: ReadLog,
    /// Per published batch: due → first reply seeing it, in ms.
    visible_ms: Vec<f64>,
    /// Per published batch: end of `apply_batch` → first reply seeing
    /// it, in µs.
    lag_us: Vec<f64>,
    cache_hits: u64,
    cache_lookups: u64,
}

/// Values of `f` over every phase, concatenated.
fn gather<'a>(phases: &'a [PhaseResult], f: impl Fn(&'a PhaseResult) -> &'a [f64]) -> Vec<f64> {
    phases.iter().flat_map(f).copied().collect()
}

/// Fails when the writer's lateness keeps growing: the median lateness
/// of the last quarter of batches exceeds both one interval and the
/// first quarter's by more than one interval.
fn check_capacity(spec: &Spec, recs: &[BatchRec]) -> Result<(), String> {
    let late: Vec<f64> = recs
        .iter()
        .map(|r| ms(r.start_ns.saturating_sub(r.due_ns)))
        .collect();
    let q = late.len() / 4;
    if q == 0 {
        return Ok(());
    }
    let interval_ms = 1e3 / spec.rate;
    let first = median(&late[..q]);
    let last = median(&late[late.len() - q..]);
    if last > interval_ms && last - first > interval_ms {
        return Err(format!(
            "over capacity at {} batches/s: writer lateness grew from {first:.1} ms to {last:.1} ms",
            spec.rate
        ));
    }
    Ok(())
}

/// Result of the serving phases.
pub struct Outcome {
    /// End-to-end metrics of the untraced phases.
    pub e2e: Metrics,
    /// Per-layer metrics of the traced phases (empty when untraced).
    pub layers: Metrics,
    /// Writes plus reads attempted, over all phases.
    pub attempted: u64,
    /// Rejected or deferred batches, `ERR` replies and I/O errors.
    pub failed: u64,
    /// Batches published.
    pub batches: u64,
}

/// A serving run made of several phases on one service: the seeded
/// churn is applied in order across them, and the checks span them all.
pub struct Session<'a, W> {
    spec: Spec,
    setup: &'a mut Setup<W>,
    seed: u64,
    churn: Vec<EdgeBatch>,
    next: usize,
    /// The graph as the benchmark rebuilds it from the applied batches.
    edges: HashSet<(u32, u32)>,
    published: u64,
    attempted: u64,
    failed: u64,
    untraced: Vec<PhaseResult>,
    traced: Vec<PhaseResult>,
}

impl<'a, W: Writer> Session<'a, W> {
    /// Generates `batches` batches of seeded mixed churn for the set-up's
    /// graph.
    pub fn new(spec: &Spec, setup: &'a mut Setup<W>, seed: u64, batches: usize) -> Self {
        let churn = churn_stream(
            &setup.graph,
            ChurnWorkload::Mixed {
                insert_pct: INSERT_PCT,
            },
            batches,
            BATCH,
            seed ^ 0x5EED_C4A2,
        );
        let edges = setup.graph.edges().map(|(u, v)| key(u, v)).collect();
        Session {
            spec: *spec,
            setup,
            seed,
            churn,
            next: 0,
            edges,
            published: 0,
            attempted: 0,
            failed: 0,
            untraced: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// Serves one phase: the next `batches` churn batches at the
    /// workload's rate beside a fresh reader connection. With a trace,
    /// the phase is traced and its spans land in `trace`.
    pub fn serve(&mut self, batches: usize, trace: Option<&mut Trace>) -> Result<(), String> {
        let end = (self.next + batches).min(self.churn.len());
        let traced = trace.is_some();
        let phase_seed = self.seed.wrapping_add(self.next as u64 + 1);
        let base = trace.as_deref().map_or_else(Instant::now, Trace::base);
        let cache0 = self.setup.server.cache_stats();
        let (recs, log, local) = run_phase(
            &self.spec,
            self.setup,
            &self.churn[self.next..end],
            Reader {
                seed: phase_seed,
                key_base: self.attempted,
                base,
                traced,
            },
        );
        let cache1 = self.setup.server.cache_stats();
        for (r, b) in recs.iter().zip(&self.churn[self.next..end]) {
            match r.applied {
                Some(a) if !a.deferred => {
                    self.published += 1;
                    for &(u, v) in b.insertions() {
                        self.edges.insert(key(u, v));
                    }
                    for &(u, v) in b.removals() {
                        self.edges.remove(&key(u, v));
                    }
                }
                _ => self.failed += 1,
            }
        }
        self.next = end;
        self.attempted += recs.len() as u64 + log.attempted();
        self.failed += log.err + log.io_err;
        if log.regressions > 0 {
            return Err(format!(
                "{} replies carried an epoch lower than an earlier reply's",
                log.regressions
            ));
        }
        check_capacity(&self.spec, &recs)?;
        let (visible_ms, lag_us) = visibility(&recs, &log)?;
        if let Some(tr) = trace {
            if let Some(local) = local {
                tr.absorb(local);
            }
            record_write_spans::<W>(tr, &recs, &log);
        }
        let lookups = |c: CacheStats| c.hits + c.misses;
        let result = PhaseResult {
            recs,
            log,
            visible_ms,
            lag_us,
            cache_hits: cache1.hits - cache0.hits,
            cache_lookups: lookups(cache1) - lookups(cache0),
        };
        if traced {
            self.traced.push(result);
        } else {
            self.untraced.push(result);
        }
        Ok(())
    }

    /// Checks the final published epoch against BZ on the graph rebuilt
    /// from the initial edges and every applied batch, then computes the
    /// metrics.
    pub fn finish(self) -> Result<Outcome, String> {
        let (epoch, values, edge_count) = self.setup.writer.published();
        if epoch != self.published {
            return Err(format!(
                "published epoch {epoch}, expected {}",
                self.published
            ));
        }
        let n = self.setup.graph.node_count();
        let expected =
            Graph::from_edges(n, self.edges.iter().copied()).map_err(|e| e.to_string())?;
        if edge_count != expected.edge_count() {
            return Err(format!(
                "published epoch has {edge_count} edges, expected {}",
                expected.edge_count()
            ));
        }
        let bz = batagelj_zaversnik(&expected);
        if values != bz {
            let bad = values.iter().zip(&bz).filter(|(a, b)| a != b).count();
            return Err(format!(
                "published epoch {epoch}: {bad} nodes differ from BZ"
            ));
        }

        let e2e_metrics = e2e(&self.untraced);
        let mut layers = Metrics::default();
        if !self.traced.is_empty() {
            layers = layer_metrics::<W>(&self.spec, &self.traced, &self.untraced);
            layers.push(
                "error_rate",
                ratio(self.failed as f64, self.attempted as f64),
                "ratio",
            );
            let traced_e2e = e2e(&self.traced);
            for (name, better) in [
                ("read_qps", Better::Higher),
                ("read_p50_us", Better::Lower),
                ("write_visible_p50_ms", Better::Lower),
            ] {
                let u = e2e_metrics.get(name).unwrap_or(0.0);
                let t = traced_e2e.get(name).unwrap_or(0.0);
                let worse = match better {
                    Better::Lower => t - u,
                    Better::Higher => u - t,
                };
                layers.push(
                    format!("trace.overhead_pct.{name}"),
                    100.0 * ratio(worse, u),
                    "%",
                );
            }
        }
        Ok(Outcome {
            e2e: e2e_metrics,
            layers,
            attempted: self.attempted,
            failed: self.failed,
            batches: self.published,
        })
    }
}

/// Per-batch visibility: `(due → visible ms, apply end → visible µs)`
/// for every published batch; `Err` names a batch the reader never saw.
fn visibility(recs: &[BatchRec], log: &ReadLog) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut due_to_vis = Vec::with_capacity(recs.len());
    let mut lag = Vec::with_capacity(recs.len());
    for r in recs {
        let Some(a) = r.applied.filter(|a| !a.deferred) else {
            continue;
        };
        let i = log.seen.partition_point(|&(_, e)| e < a.epoch);
        let Some(&(t, _)) = log.seen.get(i) else {
            return Err(format!("epoch {} was never visible to the reader", a.epoch));
        };
        due_to_vis.push(ms(t.saturating_sub(r.due_ns)));
        lag.push((t as f64 - r.end_ns as f64) / 1e3);
    }
    Ok((due_to_vis, lag))
}

/// End-to-end numbers over `phases`.
fn e2e(phases: &[PhaseResult]) -> Metrics {
    let visible = gather(phases, |p| &p.visible_ms);
    let lat_us = gather(phases, |p| p.log.lat_us.values());
    let ok: u64 = phases.iter().map(|p| p.log.ok).sum();
    let window_ns: u64 = phases
        .iter()
        .map(|p| p.log.end_ns.saturating_sub(p.log.start_ns))
        .sum();
    let mut m = Metrics::default();
    m.push("write_visible_p50_ms", percentile(&visible, 50.0), "ms");
    m.push("write_visible_p90_ms", percentile(&visible, 90.0), "ms");
    m.push("read_p50_us", percentile(&lat_us, 50.0), "us");
    m.push("read_p99_us", percentile(&lat_us, 99.0), "us");
    m.push("read_qps", ratio(ok as f64, window_ns as f64 / 1e9), "1/s");
    m
}

fn key(u: NodeId, v: NodeId) -> (u32, u32) {
    (u.0.min(v.0), u.0.max(v.0))
}

/// Turns the writer's records into spans: `batch` (due → visible) ⊃
/// `apply_batch` (the call) ⊃ `repair` and `publish` (from the report's
/// `repair_micros` / `publish_micros`) ⊃ the single writer's repair
/// phases read off the telemetry registry. Call only after
/// [`visibility`] succeeded for these records.
fn record_write_spans<W: Writer>(tr: &mut Trace, recs: &[BatchRec], log: &ReadLog) {
    for r in recs {
        let Some(a) = r.applied.filter(|a| !a.deferred) else {
            continue;
        };
        let key = a.epoch;
        let j = log.seen.partition_point(|&(_, e)| e < a.epoch);
        let visible = log.seen.get(j).map_or(r.end_ns, |&(t, _)| t);
        let root = tr.record_ns("batch", key, None, r.due_ns, visible);
        let call = tr.record_ns("apply_batch", key, Some(root), r.start_ns, r.end_ns);
        let repair_end = r.start_ns + (a.repair_us * 1e3) as u64;
        let repair = tr.record_ns("repair", key, Some(call), r.start_ns, repair_end);
        let publish_start = r.end_ns.saturating_sub((a.publish_us * 1e3) as u64);
        tr.record_ns("publish", key, Some(call), publish_start, r.end_ns);
        if !W::SHARDED {
            let mut at = r.start_ns;
            let names = [
                "repair.removal",
                "repair.region",
                "repair.insert",
                "repair.export",
            ];
            for (name, us) in names.into_iter().zip(r.phase_us) {
                tr.record_ns(name, key, Some(repair), at, at + us * 1000);
                at += us * 1000;
            }
        }
    }
}

/// Per-layer metrics of the traced phases. Layers the backend bypasses
/// read 0 (e.g. `stream.*` on the sharded service).
fn layer_metrics<W: Writer>(
    spec: &Spec,
    traced: &[PhaseResult],
    untraced: &[PhaseResult],
) -> Metrics {
    let recs: Vec<&BatchRec> = traced.iter().flat_map(|p| &p.recs).collect();
    let ok: Vec<Applied> = recs
        .iter()
        .filter_map(|r| r.applied)
        .filter(|a| !a.deferred)
        .collect();
    let col = |f: &dyn Fn(&Applied) -> f64| -> Vec<f64> { ok.iter().map(f).collect() };
    let apply_us: Vec<f64> = recs
        .iter()
        .filter(|r| r.applied.is_some())
        .map(|r| (r.end_ns - r.start_ns) as f64 / 1e3)
        .collect();
    let repair = col(&|a| a.repair_us);
    let publish = col(&|a| a.publish_us);
    let examined: f64 = col(&|a| a.examined as f64).iter().sum();
    let changed: f64 = col(&|a| a.changed as f64).iter().sum();
    let batches = ok.len() as f64;
    let single = |v: f64| if W::SHARDED { 0.0 } else { v };
    let sharded = |v: f64| if W::SHARDED { v } else { 0.0 };

    let mut m = Metrics::default();
    m.push(
        "stream.repair_us.p50",
        single(percentile(&repair, 50.0)),
        "us",
    );
    m.push(
        "stream.repair_us.p99",
        single(percentile(&repair, 99.0)),
        "us",
    );
    m.push(
        "stream.examined_per_batch",
        ratio(examined, batches),
        "count",
    );
    m.push(
        "stream.changed_per_batch",
        single(ratio(changed, batches)),
        "count",
    );
    m.push("stream.amplification", ratio(examined, changed), "ratio");
    m.push("stream.examined_total", examined, "count");
    m.push("stream.changed_total", single(changed), "count");
    let regions: f64 = col(&|a| a.regions as f64).iter().sum();
    m.push("stream.regions_per_batch", ratio(regions, batches), "count");
    for (i, p) in ["removal", "region", "insert", "export"].iter().enumerate() {
        let v: Vec<f64> = recs.iter().map(|r| r.phase_us[i] as f64).collect();
        m.push(
            format!("stream.{p}_us.p50"),
            single(percentile(&v, 50.0)),
            "us",
        );
    }
    m.push("snapshot.publish_us.p50", percentile(&publish, 50.0), "us");
    m.push("snapshot.publish_us.p99", percentile(&publish, 99.0), "us");
    m.push(
        "service.apply_us.p50",
        single(percentile(&apply_us, 50.0)),
        "us",
    );
    m.push(
        "service.apply_us.p99",
        single(percentile(&apply_us, 99.0)),
        "us",
    );
    m.push(
        "sharded.apply_us.p50",
        sharded(percentile(&apply_us, 50.0)),
        "us",
    );
    m.push(
        "sharded.apply_us.p99",
        sharded(percentile(&apply_us, 99.0)),
        "us",
    );
    m.push(
        "sharded.rounds_per_batch",
        mean(&col(&|a| f64::from(a.rounds))),
        "count",
    );
    m.push(
        "sharded.messages_per_batch",
        mean(&col(&|a| a.messages as f64)),
        "count",
    );
    m.push(
        "sharded.changed_per_batch",
        sharded(ratio(changed, batches)),
        "count",
    );
    m.push(
        "sharded.round_us.p50",
        median(&col(&|a| a.round_us_p50)),
        "us",
    );
    m.push("sharded.worker_busy_pct", mean(&col(&|a| a.busy_pct)), "%");
    m.push(
        "sharded.resends",
        col(&|a| a.resends as f64).iter().sum(),
        "count",
    );
    let deferred = recs
        .iter()
        .filter(|r| r.applied.is_some_and(|a| a.deferred));
    m.push("sharded.deferred", deferred.count() as f64, "count");

    for (c, name) in CLASSES.iter().enumerate() {
        let floor = gather(traced, |p| p.log.class_floor_us[c].values());
        m.push(
            format!("view.{name}_us.p50"),
            percentile(&floor, 50.0),
            "us",
        );
    }
    // The wire's cost over the in-process floor, taken from the untraced
    // phases' reads: in a traced phase the floor queries themselves
    // delay the requests pipelined behind them.
    let read = percentile(&gather(untraced, |p| p.log.lat_us.values()), 50.0);
    let floor = percentile(&gather(traced, |p| p.log.floor_us.values()), 50.0);
    let sum = |f: &dyn Fn(&PhaseResult) -> u64| -> f64 { traced.iter().map(f).sum::<u64>() as f64 };
    let reads = sum(&|p| p.log.attempted());
    m.push("wire.overhead_us.p50", read - floor, "us");
    m.push(
        "wire.visible_lag_us.p50",
        percentile(&gather(traced, |p| &p.lag_us), 50.0),
        "us",
    );
    let (hits, lookups) = (sum(&|p| p.cache_hits), sum(&|p| p.cache_lookups));
    m.push("wire.cache_hit_ratio", ratio(hits, lookups), "ratio");
    m.push("wire.cache_hits", hits, "count");
    m.push("wire.cache_lookups", lookups, "count");
    m.push(
        "wire.reply_bytes_per_read",
        ratio(sum(&|p| p.log.bytes), reads),
        "B",
    );
    m.push("wire.err_replies", sum(&|p| p.log.err), "count");

    let late: Vec<f64> = recs
        .iter()
        .map(|r| ms(r.start_ns.saturating_sub(r.due_ns)))
        .collect();
    m.push("gen.late_ms.p99", percentile(&late, 99.0), "ms");
    m.push("gen.writes_attempted", recs.len() as f64, "count");
    m.push("gen.reads_attempted", reads, "count");
    m.push("gen.rate_batches_per_s", spec.rate, "1/s");
    m
}
