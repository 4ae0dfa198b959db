//! Sharded multi-writer serving: one [`CoreService`]-style writer per
//! partition, cross-shard coreness agreement via border-estimate
//! exchange, and a stitching query front end.
//!
//! # Architecture
//!
//! The union graph is partitioned over `S` shards with the one-to-many
//! deployment's [`Assignment`] policies (§3.2.2 of the paper). Each
//! [`Shard`] owns its partition's nodes: their adjacency (an
//! [`AdjacencyArena`] whose slots are shard-local, values global node
//! ids), their estimates, and a **border cache** of the last announced
//! estimate of every remote neighbor — exactly the state a host of the
//! one-to-many protocol keeps.
//!
//! Applying a batch ([`ShardedCoreService::apply_batch`]) is the
//! protocol's re-convergence, warm-started:
//!
//! 1. mutations are applied to the owning shards' arenas (a cross-shard
//!    edge updates one arc in each shard);
//! 2. the coordinator grows merged insertion/removal
//!    [`candidate_regions`] over the *union* graph through a
//!    shard-backed neighbor closure, and seeds every candidate and
//!    removal endpoint with the proven upper bound
//!    `min(old + region insertions, new degree)`;
//! 3. synchronous rounds run until quiescence: every shard drains its
//!    worklist in parallel (recomputing Algorithm 2's `computeIndex`
//!    from owned estimates plus the border cache, cascading drops
//!    locally), then the coordinator routes each dropped **border**
//!    estimate to the shards owning a neighbor of the dropped node —
//!    the `⟨S⟩` exchange of the host protocol;
//! 4. at the fixpoint every estimate is locally justified, which makes
//!    the stitched vector the *exact* coreness of the union graph (the
//!    estimates started as upper bounds and only ever descended — the
//!    same safety/convergence argument as the paper's Theorems 2/3,
//!    checked end-to-end against Batagelj–Zaveršnik by
//!    `tests/sharded_oracle.rs` at shard counts {1, 2, 4});
//! 5. each shard publishes its local epoch **incrementally** (chunked
//!    copy-on-write state exactly like
//!    [`CoreSnapshot`](crate::CoreSnapshot)), and the coordinator swaps
//!    the assembled [`StitchedSnapshot`] — a consistent vector of
//!    per-shard epochs — into the publication cell in one atomic flip,
//!    so readers can never observe shards from different epochs.
//!
//! [`ShardedHandle`] is the stitching front end: every query family of
//! the single-writer service (point coreness, membership, histograms,
//! top-k, induced subgraphs) is answered against one pinned stitched
//! epoch, with cross-shard results merged in global id order.
//!
//! # Worker lifecycle and barrier protocol
//!
//! The per-round drains of step 3 run on a **persistent worker pool**
//! ([`dkcore_runtime::WorkerPool`], the barrier primitive of the live
//! runtime's coordinator): one long-lived thread per shard, created on
//! the first multi-shard exchange round and kept for the life of the
//! service — across rounds, batch attempts, and batches. Between
//! dispatches a worker parks on its job channel (a blocking receive),
//! so an idle pool costs nothing while the coordinator validates,
//! routes, or publishes.
//!
//! Because the workspace forbids `unsafe`, workers never borrow
//! coordinator state: each round the coordinator *moves* every live
//! [`Shard`] (plus its outgoing staging frames) into its worker and the
//! worker moves both back with the drain finished — an ownership
//! round trip per shard per round, with no thread spawned per round.
//! A round is the same deliver/flush double barrier as
//! `dkcore-runtime`: the coordinator first applies last round's staged
//! frames (deliver), checks quiescence, then dispatches drains and
//! collects replies in shard order (flush). Workers optionally pin
//! themselves to cores ([`ShardedConfig::pin`], CLI `--pin-cores`) —
//! strictly best-effort, degrading to unpinned where the platform
//! refuses.
//!
//! Failures compose with the pool. A drain panic is caught *inside* the
//! worker (the shard value survives and returns to the coordinator),
//! reported in the reply, and surfaces as a primary death at the round
//! boundary: the attempt rolls back and promotion replaces the returned
//! shard's state wholesale. The worker thread itself never dies with its primary —
//! it simply keeps serving whatever shard value the coordinator sends
//! next (the promoted replica's, after failover). Stalled shards are
//! not dispatched at all (no job, no reply), and a shard killed by an
//! injected `kill=S@E:R` aborts the attempt after its round's replies
//! are collected, before any staged frame is routed.
//!
//! Border traffic itself moves in **recycled per-(src, dst) staging
//! frames** (the PR 2 `⟨S⟩` slot-translated batch): a drain appends
//! slot-translated messages to one reusable `Vec` per destination
//! shard instead of sending each message through the network
//! individually. On a lossless plan the frames *are* the network —
//! they are applied wholesale at the next deliver barrier and their
//! buffers recycled. Under a fault plan every staged message is still
//! unpacked through [`BorderNet::send`] individually, so the
//! drop/duplicate/delay/retransmit semantics below are preserved
//! per message on top of the batched frames.
//!
//! # Failure model
//!
//! The service tolerates (and [`crate::fault`] deterministically
//! injects) three failure classes, all scoped to one batch attempt:
//!
//! - **Lossy border exchange.** Round messages (estimate drops) may be
//!   dropped, duplicated, or delayed. Delivery applies `min` to the
//!   border cache, so duplicates and reordering are no-ops and a stale
//!   higher value is merely an upper bound — the paper's safety
//!   argument. Dropped copies are re-sent with exponential backoff;
//!   quiescence additionally requires an empty network, so a round
//!   cannot end with a drop in flight. Seed messages (which *raise*
//!   bounds at batch start) ride the reliable control plane and are
//!   never faulted: a lost raise would leave a neighbor computing from
//!   a too-low bound that monotone descent can never repair.
//! - **Primary death.** A shard's primary writer can die at a batch
//!   boundary, after an exchange round (injected kill, or a real panic
//!   caught from its drain thread), or by missing more than
//!   `heartbeat_timeout` round heartbeats (injected stall). The whole
//!   batch attempt rolls back — mutations inverted, estimates restored
//!   from the epoch change log, border caches reset to the exact
//!   between-epoch coreness — and a standby [`Replica`] is promoted:
//!   it replays the validated batch log from its applied epoch up to
//!   the published epoch vector (its adjacency then equals the
//!   published [`StitchedSnapshot`]'s), rebuilds estimates and border
//!   cache from the coordinator's exact `global_core`, and the batch is
//!   re-attempted. Because everything is restored to the last published
//!   epoch first, failover is invisible to readers except as latency.
//! - **Partition loss (degraded mode).** When a primary dies with no
//!   standby left, the partition is down: validated batches are
//!   accepted into the log but *deferred* (the published epoch
//!   freezes), readers keep answering from the last consistent
//!   stitched epoch, and health reports `DEGRADED(shard, epoch_lag)`.
//!   [`ShardedCoreService::revive_shard`] rebuilds the partition from
//!   its published snapshot chunks plus `global_core`, restocks
//!   replicas, and drains the backlog — recovery is bounded by the
//!   number of deferred batches.
//!
//! `tests/chaos_oracle.rs` drives churn under seeded fault plans and
//! checks that every observable stitched epoch still equals fresh
//! Batagelj–Zaveršnik on the union graph.
//!
//! [`CoreService`]: crate::CoreService

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use dkcore::compute_index;
use dkcore::dynamic::MutationError;
use dkcore::one_to_many::{Assignment, AssignmentPolicy};
use dkcore::seq::batagelj_zaversnik;
use dkcore::stream::{candidate_regions, AdjacencyArena, EdgeBatch};
use dkcore_graph::{Graph, NodeId};
use dkcore_metrics::{Counter, EventKind, Gauge, Histogram, Percentiles, Telemetry};
use dkcore_runtime::WorkerPool;

use crate::fault::{Fate, FaultPlan, FaultSession};
use crate::health::{ExchangeHealth, HealthCell, HealthReport, ShardHealth};
use crate::index::{MergedMembers, MergedTop, ShellIndex};
use crate::service::EpochCell;
use crate::snapshot::{apply_shell_change, trim_shells, AdjChunk, ChunkedU32, ADJ_CHUNK};

/// A batch attempt is aborted and retried at most this many times
/// before the fault plan is declared unsatisfiable.
const MAX_BATCH_ATTEMPTS: u32 = 5;
/// A single border message is (re-)sent at most this many times before
/// the attempt is aborted and re-run.
const MAX_SEND_ATTEMPTS: u32 = 12;
/// Hard safety cap on exchange rounds per attempt (never reached by a
/// satisfiable plan; guards against a runaway injected schedule).
const MAX_ROUNDS: u32 = 100_000;

/// Node → (shard, local slot) tables shared by the shards, the
/// coordinator, and every stitched snapshot.
#[derive(Debug)]
struct ShardMap {
    /// Owning shard of each node.
    owner: Vec<u32>,
    /// Local slot of each node within its owning shard.
    slot: Vec<u32>,
}

/// One estimate-drop message of the border exchange: `source` (owned by
/// the sending shard, a global id — the receiver's border-cache key)
/// dropped to `est`; the node at `target_slot` of shard `dest` neighbors
/// it and must be re-examined. The target is **slot-translated by the
/// sender** (which owns the shard map anyway), so delivery is a direct
/// array index — the PR 2 `⟨S⟩` staging convention.
#[derive(Debug, Clone, Copy)]
struct BorderMsg {
    dest: u32,
    target_slot: u32,
    source: u32,
    est: u32,
}

/// One border-cache entry: the cached estimate plus the number of owned
/// arcs referencing the remote node (eviction at zero).
#[derive(Debug, Clone, Copy)]
struct BorderEntry {
    est: u32,
    refs: u32,
}

/// The per-shard writer state: the partition's slice of the union graph
/// plus the border cache. See the [module docs](self).
struct Shard {
    /// Sorted global ids of the owned nodes (slot `i` ↔ `owned[i]`).
    owned: Vec<u32>,
    /// Slot-indexed adjacency; values are global node ids.
    adj: AdjacencyArena,
    /// Per-slot estimate: exact coreness between epochs.
    est: Vec<u32>,
    /// Border cache: last announced estimate of every *current* remote
    /// neighbor (global id), refcounted by how many owned arcs point at
    /// it so churn that removes the last cross-shard edge to a node also
    /// evicts its entry (no unbounded growth under sliding-window
    /// workloads).
    remote_est: HashMap<u32, BorderEntry>,
    /// Worklist of local slots (deduplicated by `queued`).
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    /// Epoch-change log: slot → pre-epoch estimate, stamped per epoch;
    /// `epoch_touched` lists the stamped slots so the publish-side
    /// change gather is `O(|touched|)`, not a full slot scan.
    epoch_mark: Vec<u64>,
    epoch_old: Vec<u32>,
    epoch_touched: Vec<u32>,
    /// Latest published local snapshot (the chain `advance` extends).
    snapshot: Arc<ShardSnapshot>,
}

impl Shard {
    /// Enqueues a local slot for (re-)examination.
    fn enqueue(&mut self, slot: u32) {
        if !self.queued[slot as usize] {
            self.queued[slot as usize] = true;
            self.queue.push_back(slot);
        }
    }

    /// Records the pre-epoch value of a slot once per epoch. The caller
    /// (the coordinator) clears `epoch_touched` at every batch start.
    fn mark(&mut self, slot: u32, epoch: u64) {
        if self.epoch_mark[slot as usize] != epoch {
            self.epoch_mark[slot as usize] = epoch;
            self.epoch_old[slot as usize] = self.est[slot as usize];
            self.epoch_touched.push(slot);
        }
    }

    /// Sets a seeded estimate and notifies the neighbors: local ones are
    /// enqueued, remote ones produce border messages (which both refresh
    /// the destination's cache and enqueue the target).
    fn seed(
        &mut self,
        map: &ShardMap,
        me: u32,
        slot: u32,
        value: u32,
        epoch: u64,
        out: &mut Vec<BorderMsg>,
    ) {
        self.mark(slot, epoch);
        let changed = self.est[slot as usize] != value;
        self.est[slot as usize] = value;
        self.enqueue(slot);
        if !changed {
            return;
        }
        let u = self.owned[slot as usize];
        for i in 0..self.adj.degree(slot as usize) as usize {
            let v = self.adj.neighbors(slot as usize)[i];
            let owner = map.owner[v as usize];
            if owner == me {
                self.enqueue(map.slot[v as usize]);
            } else {
                out.push(BorderMsg {
                    dest: owner,
                    target_slot: map.slot[v as usize],
                    source: u,
                    est: value,
                });
            }
        }
    }

    /// Drains the worklist to its local fixpoint: Algorithm 2 over owned
    /// estimates plus the border cache, cascading drops through owned
    /// neighbors immediately and staging one slot-translated border
    /// message per remote neighbor of every net-dropped node into
    /// `stage[destination shard]` (recycled per-(src, dst) frames — the
    /// caller clears them after routing). Returns the number of staged
    /// messages.
    fn drain(&mut self, map: &ShardMap, me: u32, epoch: u64, stage: &mut [Vec<BorderMsg>]) -> u64 {
        let mut dropped: Vec<u32> = Vec::new();
        while let Some(s) = self.queue.pop_front() {
            self.queued[s as usize] = false;
            let cap = self.est[s as usize];
            if cap == 0 {
                continue;
            }
            let new = {
                let nbrs = self.adj.neighbors(s as usize);
                compute_index(
                    nbrs.iter().map(|&v| {
                        if map.owner[v as usize] == me {
                            self.est[map.slot[v as usize] as usize]
                        } else {
                            self.remote_est
                                .get(&v)
                                .expect("border cache covers every remote neighbor")
                                .est
                        }
                    }),
                    cap,
                )
            };
            if new < cap {
                self.mark(s, epoch);
                self.est[s as usize] = new;
                dropped.push(s);
                // Owned neighbors re-examine immediately (same round).
                for i in 0..self.adj.degree(s as usize) as usize {
                    let v = self.adj.neighbors(s as usize)[i];
                    if map.owner[v as usize] == me {
                        self.enqueue(map.slot[v as usize]);
                    }
                }
            }
        }
        // One message per (dropped node, remote neighbor), carrying the
        // node's final value for this round.
        let mut staged = 0u64;
        dropped.sort_unstable();
        dropped.dedup();
        for s in dropped {
            let u = self.owned[s as usize];
            let value = self.est[s as usize];
            for &v in self.adj.neighbors(s as usize) {
                let owner = map.owner[v as usize];
                if owner != me {
                    stage[owner as usize].push(BorderMsg {
                        dest: owner,
                        target_slot: map.slot[v as usize],
                        source: u,
                        est: value,
                    });
                    staged += 1;
                }
            }
        }
        staged
    }

    /// An empty stand-in left in the coordinator's slot while the real
    /// shard value is travelling through a pool worker (the ownership
    /// round trip of the pooled exchange). Never drained or published.
    fn placeholder() -> Shard {
        Shard {
            owned: Vec::new(),
            adj: AdjacencyArena::from_sorted_lists(std::iter::empty::<Vec<u32>>()),
            est: Vec::new(),
            remote_est: HashMap::new(),
            queue: VecDeque::new(),
            queued: Vec::new(),
            epoch_mark: Vec::new(),
            epoch_old: Vec::new(),
            epoch_touched: Vec::new(),
            snapshot: Arc::new(ShardSnapshot {
                coreness: ChunkedU32::default(),
                degrees: ChunkedU32::default(),
                adj: Vec::new(),
                shell_sizes: vec![0],
                index: ShellIndex::default(),
            }),
        }
    }

    /// The (global, old, new) coreness changes of this epoch, gathered
    /// from the touched-slot log in `O(|touched|)`.
    fn epoch_changes(&self, epoch: u64) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for &s in &self.epoch_touched {
            let s = s as usize;
            if self.epoch_mark[s] == epoch && self.epoch_old[s] != self.est[s] {
                out.push((self.owned[s], self.epoch_old[s], self.est[s]));
            }
        }
        out
    }
}

/// One shard's published epoch: chunked copy-on-write coreness, degrees
/// and adjacency over the shard's local slots (values are global ids).
#[derive(Debug)]
pub(crate) struct ShardSnapshot {
    coreness: ChunkedU32,
    degrees: ChunkedU32,
    adj: Vec<Arc<AdjChunk>>,
    /// Local shell-size histogram (trailing zeros trimmed).
    shell_sizes: Vec<usize>,
    /// Per-shell membership lists holding **global** ids — valid because
    /// `owned` is sorted, so ascending slot order is ascending global-id
    /// order. The stitched view merges these across shards for O(answer)
    /// `members` / `top_k`.
    index: ShellIndex,
}

impl ShardSnapshot {
    fn capture(shard: &Shard) -> Self {
        let n = shard.owned.len();
        let coreness = ChunkedU32::from_iter(n, shard.est.iter().copied());
        let degrees = ChunkedU32::from_iter(n, (0..n).map(|s| shard.adj.degree(s)));
        let adj = (0..n.div_ceil(ADJ_CHUNK))
            .map(|ci| {
                let base = ci * ADJ_CHUNK;
                Arc::new(AdjChunk::pack(&shard.adj, base, ADJ_CHUNK.min(n - base)))
            })
            .collect();
        let max_core = shard.est.iter().copied().max().unwrap_or(0) as usize;
        let mut shell_sizes = vec![0usize; max_core + 1];
        for &k in &shard.est {
            shell_sizes[k as usize] += 1;
        }
        let index = ShellIndex::build(shard.owned.iter().copied().zip(shard.est.iter().copied()));
        ShardSnapshot {
            coreness,
            degrees,
            adj,
            shell_sizes,
            index,
        }
    }

    /// Incremental successor: copy-on-write rewrites of the chunks
    /// holding a changed coreness or a mutated adjacency slot, all other
    /// chunks shared with `self`.
    fn advance(&self, shard: &Shard, changes: &[(u32, u32, u32)], dirty_slots: &[u32]) -> Self {
        let n = shard.owned.len();
        let mut next = ShardSnapshot {
            coreness: self.coreness.clone(),
            degrees: self.degrees.clone(),
            adj: self.adj.clone(),
            shell_sizes: self.shell_sizes.clone(),
            // The epoch's (global, old, new) delta maintains the shell
            // index copy-on-write, like every other chunked array here.
            index: self.index.advance(changes.iter().copied()),
        };
        for &(u, old, new) in changes {
            let s = shard_slot(shard, u);
            next.coreness.set(s, new);
            apply_shell_change(&mut next.shell_sizes, old, new);
        }
        trim_shells(&mut next.shell_sizes);
        let mut dirty_chunks: Vec<usize> = Vec::new();
        for &s in dirty_slots {
            next.degrees.set(s as usize, shard.adj.degree(s as usize));
            let ci = s as usize / ADJ_CHUNK;
            if !dirty_chunks.contains(&ci) {
                dirty_chunks.push(ci);
            }
        }
        for ci in dirty_chunks {
            let base = ci * ADJ_CHUNK;
            next.adj[ci] = Arc::new(AdjChunk::pack(&shard.adj, base, ADJ_CHUNK.min(n - base)));
        }
        next
    }

    #[inline]
    fn coreness_at(&self, slot: usize) -> u32 {
        self.coreness.get(slot).expect("slot in range")
    }

    #[inline]
    fn degree_at(&self, slot: usize) -> u32 {
        self.degrees.get(slot).expect("slot in range")
    }

    #[inline]
    fn neighbors_at(&self, slot: usize) -> &[u32] {
        self.adj[slot / ADJ_CHUNK].neighbors(slot % ADJ_CHUNK)
    }
}

/// Busy time as a percentage of capacity; 0 when nothing was measured.
fn busy_pct(busy_nanos: u64, cap_nanos: u64) -> f64 {
    if cap_nanos == 0 {
        0.0
    } else {
        busy_nanos as f64 / cap_nanos as f64 * 100.0
    }
}

/// The slot of global node `u` inside `shard` (binary search over the
/// sorted owned list — used only on the publish path).
fn shard_slot(shard: &Shard, u: u32) -> usize {
    shard
        .owned
        .binary_search(&u)
        .expect("change log only names owned nodes")
}

/// Configuration of the sharded service beyond the shard count:
/// assignment policy, replication factor, and the fault machinery.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Node-to-shard assignment policy (default: the paper's modulo).
    pub policy: AssignmentPolicy,
    /// Standby replicas per partition (default 0: no failover, a dead
    /// primary puts its partition straight into degraded mode).
    pub replicas: usize,
    /// Seeded fault schedule (default [`FaultPlan::none`]).
    pub fault_plan: FaultPlan,
    /// Round heartbeats a primary may miss before it is declared dead
    /// (default 3).
    pub heartbeat_timeout: u32,
    /// Replicas replay the batch log once they trail the published
    /// epoch by this many batches (default 1: every epoch; larger lags
    /// make promotion replay longer log suffixes).
    pub replica_lag: u64,
    /// Best-effort: pin pool worker `i` to core `i % available_cores`
    /// (see [`dkcore_runtime::pin_to_core`]); falls back gracefully
    /// where pinning is unsupported (default false).
    pub pin: bool,
    /// Telemetry bundle the service records into (default: a fresh
    /// enabled bundle; pass a shared one to expose the service through
    /// a wire server, or [`Telemetry::disabled`] to strip the
    /// instrumentation down to one branch per batch).
    pub telemetry: Telemetry,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            policy: AssignmentPolicy::Modulo,
            replicas: 0,
            fault_plan: FaultPlan::none(),
            heartbeat_timeout: 3,
            replica_lag: 1,
            pin: false,
            telemetry: Telemetry::default(),
        }
    }
}

/// One pooled drain dispatch: the shard value plus its recycled
/// outgoing frames (one per destination shard), moved into the worker
/// and moved back with [`DrainReply`].
struct DrainJob {
    shard: Shard,
    stage: Vec<Vec<BorderMsg>>,
    epoch: u64,
}

/// A pool worker's reply: the shard and frames travelling home, the
/// staged message count, whether the drain panicked (a primary death
/// observed at the round boundary), and the busy time for the
/// worker-utilization counters.
struct DrainReply {
    shard: Shard,
    stage: Vec<Vec<BorderMsg>>,
    staged: u64,
    panicked: bool,
    busy_nanos: u64,
}

/// A standby writer for one partition: a copy of the partition's
/// adjacency kept `applied_epoch`-current by replaying the validated
/// batch log. Estimates and the border cache are *not* replicated —
/// promotion rebuilds both from the coordinator's exact between-epoch
/// `global_core`, which is the published truth anyway.
#[derive(Debug)]
struct Replica {
    applied_epoch: u64,
    adj: AdjacencyArena,
}

/// Why a batch attempt was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptError {
    /// Shard's primary died (panic, injected kill, or heartbeat loss).
    Dead(usize),
    /// The network schedule exhausted a message's send attempts (or the
    /// round safety cap); retrying re-rolls the fates.
    Stuck,
}

/// Counters from one successful batch attempt.
struct AttemptOutcome {
    rounds: u32,
    messages: u64,
    resends: u64,
    /// Wall time of every exchange round, in microseconds.
    round_us: Vec<f64>,
    /// Summed drain time across workers (the numerator of the
    /// worker-utilization counter).
    busy_nanos: u64,
    /// Summed `round wall × dispatched workers` (the denominator).
    cap_nanos: u64,
}

/// The in-process "network" for one batch attempt: fresh, delayed and
/// duplicated copies in flight, plus a retransmit buffer with
/// exponential backoff for dropped copies. Dropped wholesale when an
/// attempt aborts, so a rolled-back epoch leaves no message in flight.
struct BorderNet {
    /// `(deliver_round, message)` copies in flight.
    inflight: Vec<(u32, BorderMsg)>,
    /// `(resend_round, failed_sends, message)` awaiting retransmission.
    retrans: Vec<(u32, u32, BorderMsg)>,
    resends: u64,
    /// Set when a message exhausts [`MAX_SEND_ATTEMPTS`].
    stuck: bool,
}

impl BorderNet {
    fn new() -> Self {
        BorderNet {
            inflight: Vec::new(),
            retrans: Vec::new(),
            resends: 0,
            stuck: false,
        }
    }

    fn idle(&self) -> bool {
        self.inflight.is_empty() && self.retrans.is_empty()
    }

    /// Routes one copy of `m` sent during `round` through the fault
    /// plan. `failed` counts this message's prior dropped sends.
    fn send(&mut self, m: BorderMsg, round: u32, faults: &mut FaultSession, failed: u32) {
        match faults.fate() {
            Fate::Deliver => self.inflight.push((round, m)),
            Fate::Duplicate => {
                self.inflight.push((round, m));
                self.inflight.push((round + 1, m));
            }
            Fate::Delay(d) => self.inflight.push((round + d, m)),
            Fate::Drop => {
                let failed = failed + 1;
                if failed >= MAX_SEND_ATTEMPTS {
                    self.stuck = true;
                } else {
                    // Exponential backoff: resend after 1, 2, 4, 8, 8 …
                    // rounds.
                    let wait = (1u32 << (failed - 1).min(3)).min(8);
                    self.retrans.push((round + wait, failed, m));
                }
            }
        }
    }

    /// Re-sends due retransmits (re-rolling their fates), then takes
    /// every copy due for delivery by `round`.
    fn pump(&mut self, round: u32, faults: &mut FaultSession) -> Vec<BorderMsg> {
        let mut i = 0;
        while i < self.retrans.len() {
            if self.retrans[i].0 <= round {
                let (_, failed, m) = self.retrans.swap_remove(i);
                self.resends += 1;
                self.send(m, round, faults, failed);
            } else {
                i += 1;
            }
        }
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].0 <= round {
                due.push(self.inflight.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        due
    }
}

/// Report of one applied-and-published (or deferred) batch on the
/// sharded service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedPublishReport {
    /// The epoch the batch was published as (the previous epoch when
    /// `deferred`).
    pub epoch: u64,
    /// Border-exchange rounds until quiescence (0 when nothing crossed a
    /// shard boundary).
    pub rounds: u32,
    /// Border messages exchanged (first copies; see `resends`).
    pub messages: u64,
    /// Nodes whose coreness changed.
    pub changed: usize,
    /// Time spent applying and re-converging, in microseconds.
    pub repair_micros: f64,
    /// Time spent building and swapping the stitched epoch, in
    /// microseconds.
    pub publish_micros: f64,
    /// True when the batch was validated and logged but not applied
    /// because a partition has no live writer; the published epoch is
    /// unchanged and the batch waits in the backlog.
    pub deferred: bool,
    /// Primary deaths failed over to a replica while applying this
    /// batch.
    pub failovers: u32,
    /// Log batches replayed by replica promotions for this batch.
    pub replayed: u64,
    /// Border-message retransmissions (dropped copies re-sent).
    pub resends: u64,
    /// Median exchange-round wall time of the successful attempt, in
    /// microseconds (0 when no round ran).
    pub round_us_p50: f64,
    /// p99 exchange-round wall time of the successful attempt, in
    /// microseconds (0 when no round ran).
    pub round_us_p99: f64,
    /// Drain busy time as a percentage of dispatched worker-time across
    /// the successful attempt's rounds (0 when no round ran).
    pub worker_busy_pct: f64,
}

/// The sharded multi-writer core-number service. See the
/// [module docs](self) for the protocol.
pub struct ShardedCoreService {
    shards: Vec<Shard>,
    map: Arc<ShardMap>,
    /// Coordinator mirror of the union coreness (exact between epochs;
    /// the old values feed the next batch's candidate analysis).
    global_core: Vec<u32>,
    epoch: u64,
    edges: usize,
    cell: Arc<EpochCell<StitchedSnapshot>>,
    /// Every validated batch, in order: the replicated log replicas
    /// replay and the backlog degraded mode defers
    /// (`log[epoch..]` is the backlog).
    log: Vec<EdgeBatch>,
    /// Standby replicas per partition.
    replicas: Vec<Vec<Replica>>,
    /// Partitions with no live primary (degraded mode).
    down: Vec<bool>,
    faults: FaultSession,
    replica_target: usize,
    replica_lag: u64,
    heartbeat_timeout: u32,
    health: Arc<HealthCell>,
    pin: bool,
    /// Persistent drain workers (multi-shard only), created on first
    /// use and kept for the service's life.
    pool: Option<WorkerPool<DrainJob, DrainReply>>,
    /// Recycled border staging frames: `stage[src][dst]` holds the
    /// messages shard `src` staged for shard `dst` this round. The
    /// buffers are reused across rounds, attempts, and batches.
    stage: Vec<Vec<Vec<BorderMsg>>>,
    tel: Telemetry,
    /// Registry handles for the exchange path; the `HEALTH` suffix is
    /// derived from these same handles (see [`ExchangeMetrics`]).
    xch: ExchangeMetrics,
}

/// Registry handles for the sharded exchange/failover path, registered
/// once at construction so hot-path recording is pure atomics.
///
/// [`ExchangeHealth`] is computed from these handles in
/// `refresh_health` — `HEALTH` and `METRICS` read the same counters and
/// can never disagree (satellite: the old parallel `xch_*` bookkeeping
/// is gone).
#[derive(Debug)]
struct ExchangeMetrics {
    /// `serve.exchange.rounds` — rounds across all published epochs.
    rounds: Counter,
    /// `serve.exchange.round_us` — per-round wall time.
    round_us: Histogram,
    /// `serve.exchange.messages` — first-copy border messages.
    messages: Counter,
    /// `serve.exchange.resends` — retransmitted border messages.
    resends: Counter,
    /// `serve.exchange.busy_nanos` / `serve.exchange.cap_nanos` — the
    /// worker-utilization integrals.
    busy_nanos: Counter,
    cap_nanos: Counter,
    /// `serve.failover.count` — primary deaths failed over.
    failovers: Counter,
    /// `serve.deferred.batches` — batches accepted but deferred.
    deferred: Counter,
    /// `serve.publish.epoch` — latest published epoch.
    epoch: Gauge,
    /// `serve.pool.dispatched` / `.busy_nanos` / `.park_nanos` —
    /// bridged from [`WorkerPool::stats`] at each health refresh.
    pool_dispatched: Gauge,
    pool_busy_nanos: Gauge,
    pool_park_nanos: Gauge,
}

impl ExchangeMetrics {
    fn register(tel: &Telemetry) -> Self {
        let r = tel.registry();
        ExchangeMetrics {
            rounds: r.counter("serve.exchange.rounds", &[]),
            round_us: r.histogram("serve.exchange.round_us", &[]),
            messages: r.counter("serve.exchange.messages", &[]),
            resends: r.counter("serve.exchange.resends", &[]),
            busy_nanos: r.counter("serve.exchange.busy_nanos", &[]),
            cap_nanos: r.counter("serve.exchange.cap_nanos", &[]),
            failovers: r.counter("serve.failover.count", &[]),
            deferred: r.counter("serve.deferred.batches", &[]),
            epoch: r.gauge("serve.publish.epoch", &[]),
            pool_dispatched: r.gauge("serve.pool.dispatched", &[]),
            pool_busy_nanos: r.gauge("serve.pool.busy_nanos", &[]),
            pool_park_nanos: r.gauge("serve.pool.park_nanos", &[]),
        }
    }
}

impl Drop for ShardedCoreService {
    /// A writer thread that panics drops the service mid-unwind; flag
    /// that so readers holding health handles can observe the death
    /// instead of watching the epoch silently stop advancing.
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.health.poison_writer();
        }
    }
}

impl std::fmt::Debug for ShardedCoreService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCoreService")
            .field("shards", &self.shards.len())
            .field("epoch", &self.epoch)
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

impl ShardedCoreService {
    /// Builds the service over `shard_count` partitions with the paper's
    /// default `u mod |H|` assignment and publishes epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn new(g: &Graph, shard_count: usize) -> Self {
        Self::with_assignment(g, shard_count, &AssignmentPolicy::Modulo)
    }

    /// Builds the service with an explicit [`AssignmentPolicy`]
    /// (`BfsBlocks` cuts far fewer cross-shard edges on local graphs).
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn with_assignment(g: &Graph, shard_count: usize, policy: &AssignmentPolicy) -> Self {
        Self::with_config(
            g,
            shard_count,
            ShardedConfig {
                policy: policy.clone(),
                ..ShardedConfig::default()
            },
        )
    }

    /// Builds the service with a full [`ShardedConfig`]: assignment
    /// policy, standby replicas per partition, and a seeded fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn with_config(g: &Graph, shard_count: usize, config: ShardedConfig) -> Self {
        let n = g.node_count();
        let assignment = Assignment::new(g, shard_count, &config.policy);
        let global_core = batagelj_zaversnik(g);

        let mut owner = vec![0u32; n];
        let mut slot = vec![0u32; n];
        for h in assignment.hosts() {
            for (i, &u) in assignment.nodes_of(h).iter().enumerate() {
                owner[u.index()] = h.0;
                slot[u.index()] = i as u32;
            }
        }
        let map = Arc::new(ShardMap { owner, slot });

        let shards: Vec<Shard> = assignment
            .hosts()
            .map(|h| {
                let owned: Vec<u32> = assignment.nodes_of(h).iter().map(|u| u.0).collect();
                let adj = AdjacencyArena::from_sorted_lists(owned.iter().map(|&u| {
                    g.neighbors(NodeId(u))
                        .iter()
                        .map(|v| v.0)
                        .collect::<Vec<_>>()
                }));
                Self::build_shard(h.0, owned, adj, &global_core, &map, None)
            })
            .collect();

        let replicas: Vec<Vec<Replica>> = shards
            .iter()
            .map(|s| {
                (0..config.replicas)
                    .map(|_| Replica {
                        applied_epoch: 0,
                        adj: s.adj.clone(),
                    })
                    .collect()
            })
            .collect();

        let latest = Arc::new(StitchedSnapshot::assemble(
            0,
            n,
            g.edge_count(),
            map.clone(),
            shards.iter().map(|s| s.snapshot.clone()).collect(),
        ));
        let down = vec![false; shards.len()];
        let stage = vec![vec![Vec::new(); shards.len()]; shards.len()];
        let tel = config.telemetry;
        let xch = ExchangeMetrics::register(&tel);
        let svc = ShardedCoreService {
            shards,
            map,
            global_core,
            epoch: 0,
            edges: g.edge_count(),
            cell: Arc::new(EpochCell::new(latest)),
            log: Vec::new(),
            replicas,
            down,
            faults: FaultSession::new(config.fault_plan),
            replica_target: config.replicas,
            replica_lag: config.replica_lag.max(1),
            heartbeat_timeout: config.heartbeat_timeout,
            health: HealthCell::new(HealthReport::healthy(0, shard_count)),
            pin: config.pin,
            pool: None,
            stage,
            tel,
            xch,
        };
        svc.refresh_health();
        svc
    }

    /// Lazily creates the persistent drain pool (pooled mode,
    /// multi-shard only): one parked worker per shard, each owning a
    /// clone of the shard map and optionally pinned to a core. The pool
    /// outlives every batch — failover only swaps the shard *values*
    /// the workers are handed, never the workers themselves.
    fn ensure_pool(&mut self) {
        if self.pool.is_some() {
            return;
        }
        let map = self.map.clone();
        self.pool = Some(WorkerPool::new(
            self.shards.len(),
            self.pin,
            move |i, job: DrainJob| {
                let DrainJob {
                    mut shard,
                    mut stage,
                    epoch,
                } = job;
                let t = Instant::now();
                // A panicking drain is a primary death; catching it
                // here keeps the shard value (and the recycled frames)
                // alive so ownership returns to the coordinator, which
                // rolls back and promotes a replica.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    shard.drain(&map, i as u32, epoch, &mut stage)
                }));
                let busy_nanos = t.elapsed().as_nanos() as u64;
                let (staged, panicked) = match result {
                    Ok(staged) => (staged, false),
                    Err(_) => (0, true),
                };
                DrainReply {
                    shard,
                    stage,
                    staged,
                    panicked,
                    busy_nanos,
                }
            },
        ));
    }

    /// Assembles a live [`Shard`] for partition `me` from an adjacency
    /// arena and the exact between-epoch coreness: estimates come from
    /// `global_core`, the border cache is rebuilt by scanning the arcs,
    /// and `snapshot` (when given) chains the new shard onto the
    /// partition's published snapshot history. This is the shared core
    /// of construction, replica promotion, and degraded-mode revival.
    fn build_shard(
        me: u32,
        owned: Vec<u32>,
        adj: AdjacencyArena,
        global_core: &[u32],
        map: &ShardMap,
        snapshot: Option<Arc<ShardSnapshot>>,
    ) -> Shard {
        let count = owned.len();
        let est: Vec<u32> = owned.iter().map(|&u| global_core[u as usize]).collect();
        let mut remote_est: HashMap<u32, BorderEntry> = HashMap::new();
        for s in 0..count {
            for &v in adj.neighbors(s) {
                if map.owner[v as usize] != me {
                    remote_est
                        .entry(v)
                        .or_insert(BorderEntry {
                            est: global_core[v as usize],
                            refs: 0,
                        })
                        .refs += 1;
                }
            }
        }
        let capture = snapshot.is_none();
        let mut shard = Shard {
            owned,
            adj,
            est,
            remote_est,
            queue: VecDeque::new(),
            queued: vec![false; count],
            epoch_mark: vec![u64::MAX; count],
            epoch_old: vec![0; count],
            epoch_touched: Vec::new(),
            snapshot: snapshot.unwrap_or_else(|| {
                Arc::new(ShardSnapshot {
                    coreness: ChunkedU32::default(),
                    degrees: ChunkedU32::default(),
                    adj: Vec::new(),
                    shell_sizes: vec![0],
                    index: ShellIndex::default(),
                })
            }),
        };
        if capture {
            shard.snapshot = Arc::new(ShardSnapshot::capture(&shard));
        }
        shard
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A new stitching reader handle.
    pub fn handle(&self) -> ShardedHandle {
        ShardedHandle {
            cell: self.cell.clone(),
            health: self.health.clone(),
            tel: self.tel.clone(),
        }
    }

    /// The telemetry bundle this service records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Whether the union graph *logically* has the edge `{u, v}`:
    /// the published state of the owning partition overlaid with the
    /// deferred backlog, so validation stays consistent while a
    /// partition is down.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let n = self.map.owner.len();
        if u.index() >= n || v.index() >= n {
            return false;
        }
        // Backlog overlay, newest first: a deferred batch already
        // decided this edge's fate.
        fn has_pair(list: &[(NodeId, NodeId)], u: NodeId, v: NodeId) -> bool {
            list.iter()
                .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
        }
        for b in self.log[self.epoch as usize..].iter().rev() {
            if has_pair(b.insertions(), u, v) {
                return true;
            }
            if has_pair(b.removals(), u, v) {
                return false;
            }
        }
        let owner = self.map.owner[u.index()] as usize;
        let slot = self.map.slot[u.index()] as usize;
        if self.down[owner] {
            // The tombstoned arena is empty; answer from the published
            // local snapshot (which is what revival rebuilds from).
            self.shards[owner]
                .snapshot
                .neighbors_at(slot)
                .binary_search(&v.0)
                .is_ok()
        } else {
            self.shards[owner]
                .adj
                .neighbors(slot)
                .binary_search(&v.0)
                .is_ok()
        }
    }

    /// Validated batches not yet reflected in the published epoch
    /// (non-zero only while a partition is down).
    pub fn backlog(&self) -> usize {
        self.log.len() - self.epoch as usize
    }

    /// Standby replicas currently available for `shard`.
    pub fn replica_count(&self, shard: usize) -> usize {
        self.replicas[shard].len()
    }

    /// True when some partition has no live primary and reads are
    /// served from the last consistent stitched epoch.
    pub fn is_degraded(&self) -> bool {
        self.down.iter().any(|&d| d)
    }

    /// Kills the primary writer of `shard` at a batch boundary, exactly
    /// as an injected `kill=S@E` fault would. Returns `true` when a
    /// standby replica took over (the partition stays live), `false`
    /// when none was left and the partition entered degraded mode.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or already down.
    pub fn kill_primary(&mut self, shard: usize) -> bool {
        assert!(!self.down[shard], "shard {shard} is already down");
        let promoted = self.promote(shard).is_some();
        self.refresh_health();
        promoted
    }

    /// Revives a downed partition: rebuilds its primary from the
    /// published snapshot chunks plus the exact between-epoch coreness,
    /// restocks its standby replicas, then drains the deferred backlog
    /// (publishing one epoch per deferred batch). Returns the number of
    /// backlog batches applied.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not down.
    pub fn revive_shard(&mut self, shard: usize) -> u64 {
        assert!(self.down[shard], "shard {shard} has a live primary");
        let (owned, snapshot) = {
            let old = &mut self.shards[shard];
            (std::mem::take(&mut old.owned), old.snapshot.clone())
        };
        let adj = AdjacencyArena::from_sorted_lists(
            (0..owned.len()).map(|s| snapshot.neighbors_at(s).to_vec()),
        );
        self.shards[shard] = Self::build_shard(
            shard as u32,
            owned,
            adj,
            &self.global_core,
            &self.map,
            Some(snapshot),
        );
        self.down[shard] = false;
        self.restock(shard);
        let mut drained = 0u64;
        while (self.epoch as usize) < self.log.len() {
            let before = self.epoch;
            self.apply_next();
            if self.epoch == before {
                break; // went down again mid-drain
            }
            drained += 1;
        }
        self.tel.event(
            EventKind::Revive,
            shard as u32,
            self.epoch,
            drained,
            self.backlog() as u64,
        );
        self.refresh_health();
        drained
    }

    /// Applies one batch to the union graph atomically, re-converges the
    /// shards through (possibly faulty) border exchange, and publishes
    /// the next stitched epoch. On a validation error nothing is mutated
    /// and no epoch is published.
    ///
    /// Primary deaths fail over to standby replicas transparently (the
    /// attempt rolls back, a replica replays the log, the batch is
    /// re-attempted). When a partition has no live writer the batch is
    /// validated, logged, and **deferred**: the report comes back with
    /// `deferred == true`, the published epoch unchanged, and readers
    /// keep the last consistent stitched epoch until
    /// [`revive_shard`](Self::revive_shard) drains the backlog.
    ///
    /// # Errors
    ///
    /// Returns the [`MutationError`] from batch validation (the same
    /// rules as [`StreamCore::apply_batch`](dkcore::stream::StreamCore)).
    pub fn apply_batch(
        &mut self,
        batch: &EdgeBatch,
    ) -> Result<ShardedPublishReport, MutationError> {
        let n = self.map.owner.len();
        batch.validate_against(n, |u, v| self.has_edge(u, v))?;
        self.log.push(batch.clone());
        if self.is_degraded() {
            let t0 = Instant::now();
            return Ok(self.deferred_report(t0, 0, 0));
        }
        Ok(self.apply_next())
    }

    /// Applies the next logged batch: batch-boundary kills, the
    /// attempt/rollback/promote loop, then publish + replica sync.
    fn apply_next(&mut self) -> ShardedPublishReport {
        let epoch = self.epoch + 1;
        let batch = self.log[(epoch - 1) as usize].clone();
        let t0 = Instant::now();
        let mut failovers = 0u32;
        let mut replayed = 0u64;

        for s in 0..self.shards.len() {
            if self.faults.take_kill(s as u32, epoch, None) {
                match self.promote(s) {
                    Some(r) => {
                        failovers += 1;
                        replayed += r;
                    }
                    None => return self.deferred_report(t0, failovers, replayed),
                }
            }
        }

        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            assert!(
                attempts <= MAX_BATCH_ATTEMPTS,
                "epoch {epoch}: batch aborted {MAX_BATCH_ATTEMPTS} times; \
                 the fault plan is unsatisfiable"
            );
            match self.attempt(epoch, &batch) {
                Ok(o) => break o,
                Err(e) => {
                    let dead = match e {
                        AttemptError::Dead(s) => Some(s),
                        AttemptError::Stuck => None,
                    };
                    self.rollback(&batch, dead);
                    if let Some(s) = dead {
                        match self.promote(s) {
                            Some(r) => {
                                failovers += 1;
                                replayed += r;
                            }
                            None => return self.deferred_report(t0, failovers, replayed),
                        }
                    }
                }
            }
        };
        let repair_micros = t0.elapsed().as_secs_f64() * 1e6;

        // --- 4. Gather the epoch's changes, publish the stitched epoch. ---
        let t1 = Instant::now();
        let n = self.map.owner.len();
        let mut changed = 0usize;
        let mut shard_snaps = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let changes = shard.epoch_changes(epoch);
            changed += changes.len();
            for &(u, _, new) in &changes {
                self.global_core[u as usize] = new;
            }
            let dirty_slots: Vec<u32> = batch
                .insertions()
                .iter()
                .chain(batch.removals())
                .flat_map(|&(u, v)| [u.0, v.0])
                .filter(|&w| self.map.owner[w as usize] as usize == i)
                .map(|w| self.map.slot[w as usize])
                .collect();
            shard.snapshot = Arc::new(shard.snapshot.advance(shard, &changes, &dirty_slots));
            shard_snaps.push(shard.snapshot.clone());
        }
        let stitched = Arc::new(StitchedSnapshot::assemble(
            epoch,
            n,
            self.edges,
            self.map.clone(),
            shard_snaps,
        ));
        self.cell.publish(stitched, epoch);
        self.epoch = epoch;
        self.sync_replicas();

        // Exchange observability: fold the successful attempt's round
        // timings into the registry handles (HEALTH and METRICS both
        // read them) and compute this batch's percentiles for the
        // report.
        let mut batch_rounds = Percentiles::new();
        for &us in &outcome.round_us {
            batch_rounds.record(us);
        }
        if self.tel.enabled() {
            for &us in &outcome.round_us {
                self.xch.round_us.record(us as u64);
            }
            self.xch.rounds.add(u64::from(outcome.rounds));
            self.xch.messages.add(outcome.messages);
            self.xch.resends.add(outcome.resends);
            self.xch.busy_nanos.add(outcome.busy_nanos);
            self.xch.cap_nanos.add(outcome.cap_nanos);
            self.xch.epoch.set(epoch as i64);
            self.tel.event(
                EventKind::BatchApplied,
                0,
                epoch,
                batch.insertions().len() as u64,
                batch.removals().len() as u64,
            );
            if outcome.resends > 0 {
                self.tel
                    .event(EventKind::Retransmit, 0, epoch, outcome.resends, 0);
            }
            self.tel.event(
                EventKind::EpochPublished,
                0,
                epoch,
                u64::from(outcome.rounds),
                outcome.messages,
            );
        }
        self.refresh_health();
        let publish_micros = t1.elapsed().as_secs_f64() * 1e6;

        ShardedPublishReport {
            epoch,
            rounds: outcome.rounds,
            messages: outcome.messages,
            changed,
            repair_micros,
            publish_micros,
            deferred: false,
            failovers,
            replayed,
            resends: outcome.resends,
            round_us_p50: if batch_rounds.is_empty() {
                0.0
            } else {
                batch_rounds.p50()
            },
            round_us_p99: if batch_rounds.is_empty() {
                0.0
            } else {
                batch_rounds.p99()
            },
            worker_busy_pct: busy_pct(outcome.busy_nanos, outcome.cap_nanos),
        }
    }

    /// One attempt at applying `batch` as `epoch`: mutations, candidate
    /// seeding over the reliable control plane, then exchange rounds
    /// over the (possibly faulty) [`BorderNet`] until quiescence —
    /// empty worklists *and* an empty network.
    fn attempt(&mut self, epoch: u64, batch: &EdgeBatch) -> Result<AttemptOutcome, AttemptError> {
        let n = self.map.owner.len();
        for shard in &mut self.shards {
            shard.epoch_touched.clear();
        }

        // --- 1. Apply the mutations to the owning shards' arenas. ---
        self.apply_mutations(batch, None);
        self.edges = self.edges + batch.insertions().len() - batch.removals().len();

        // --- 2. Candidate analysis over the union graph + seeding. ---
        let regions = {
            let shards = &self.shards;
            let map = &self.map;
            candidate_regions(
                n,
                batch.insertions(),
                batch.removals(),
                &self.global_core,
                |x| {
                    let shard = &shards[map.owner[x as usize] as usize];
                    shard
                        .adj
                        .neighbors(map.slot[x as usize] as usize)
                        .iter()
                        .copied()
                },
            )
        };
        let mut seeds: Vec<(u32, u32)> = Vec::new(); // (node, bound)
        let mut bumped: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for region in &regions {
            // Removal-only regions are grown for the merge/slack analysis
            // but need no bump: only their endpoints are seeded (below)
            // and drop cascades reach the rest, exactly like the
            // single-writer removal phase.
            if region.insertions == 0 {
                continue;
            }
            for &w in &region.members {
                let deg = self.degree_of(w);
                let bound = (self.global_core[w as usize] + region.insertions).min(deg);
                seeds.push((w, bound));
                bumped.insert(w);
            }
        }
        // Removal endpoints outside every bumped region still need
        // examination (their coreness can only drop; the degree cap may
        // bind immediately).
        for &(u, v) in batch.removals() {
            for w in [u.0, v.0] {
                if !bumped.contains(&w) {
                    let bound = self.global_core[w as usize].min(self.degree_of(w));
                    seeds.push((w, bound));
                }
            }
        }
        let mut pending: Vec<BorderMsg> = Vec::new();
        for (w, bound) in seeds {
            let me = self.map.owner[w as usize];
            let slot = self.map.slot[w as usize];
            let map = self.map.clone();
            self.shards[me as usize].seed(&map, me, slot, bound, epoch, &mut pending);
        }
        let mut messages = pending.len() as u64;

        // Seed messages raise cached bounds back to safe upper bounds;
        // they ride the reliable control plane (never faulted — see the
        // module docs) and are delivered before any lossy round runs.
        for m in pending.drain(..) {
            let shard = &mut self.shards[m.dest as usize];
            shard
                .remote_est
                .get_mut(&m.source)
                .expect("border message for a cached neighbor")
                .est = m.est;
            shard.enqueue(m.target_slot);
        }

        // --- 3. Border-exchange rounds until quiescence. ---
        let shard_count = self.shards.len();
        // Recycled frames may still hold messages staged by an aborted
        // attempt (including a drain that panicked mid-stage); they
        // must not leak into this one.
        for row in &mut self.stage {
            for frame in row {
                frame.clear();
            }
        }
        if shard_count > 1 {
            self.ensure_pool();
        }
        let mut stall: Vec<u32> = vec![0; shard_count];
        for (s, slot) in stall.iter_mut().enumerate() {
            *slot = self.faults.take_stall(s as u32, epoch).unwrap_or(0);
        }
        let mut missed: Vec<u32> = vec![0; shard_count];
        let mut net = BorderNet::new();
        let lossless = self.faults.lossless();
        let mut round = 0u32;
        let mut round_us: Vec<f64> = Vec::new();
        let mut busy_nanos = 0u64;
        let mut cap_nanos = 0u64;
        loop {
            // Deliver barrier: lower the border caches (min — duplicates
            // and reordered stale copies are no-ops), enqueue the
            // targets unconditionally (one drop fans out to several
            // targets with the same estimate, and only the first
            // arrival lowers the cache). The cache entry must exist:
            // messages are only generated for edges present in the
            // sender's arena, which the receiver mirrors, and no
            // eviction happens during rounds. On a lossless plan last
            // round's staged frames are applied wholesale and their
            // buffers recycled; under a fault plan the frames were
            // unpacked into the BorderNet at the flush barrier and
            // delivery pumps the due copies individually.
            if lossless {
                let shards = &mut self.shards;
                for row in &mut self.stage {
                    for (dst, frame) in row.iter_mut().enumerate() {
                        if frame.is_empty() {
                            continue;
                        }
                        let shard = &mut shards[dst];
                        for m in frame.iter() {
                            let entry = shard
                                .remote_est
                                .get_mut(&m.source)
                                .expect("border message for a cached neighbor");
                            entry.est = entry.est.min(m.est);
                            shard.enqueue(m.target_slot);
                        }
                        frame.clear();
                    }
                }
            } else {
                for m in net.pump(round, &mut self.faults) {
                    let shard = &mut self.shards[m.dest as usize];
                    let entry = shard
                        .remote_est
                        .get_mut(&m.source)
                        .expect("border message for a cached neighbor");
                    entry.est = entry.est.min(m.est);
                    shard.enqueue(m.target_slot);
                }
                if net.stuck {
                    return Err(AttemptError::Stuck);
                }
            }
            // Every frame is empty here (applied above, or unpacked at
            // the flush barrier), so quiescence is worklists + network.
            if self.shards.iter().all(|s| s.queue.is_empty()) && net.idle() {
                return Ok(AttemptOutcome {
                    rounds: round,
                    messages,
                    resends: net.resends,
                    round_us,
                    busy_nanos,
                    cap_nanos,
                });
            }
            round += 1;
            if round > MAX_ROUNDS {
                return Err(AttemptError::Stuck);
            }
            // Heartbeats: a stalled shard skips its drain and misses
            // this round's heartbeat; past the timeout it is declared
            // dead (the failover path — even if it was only slow).
            let stalled: Vec<bool> = stall.iter().map(|&r| r > 0).collect();
            for s in 0..shard_count {
                if stalled[s] {
                    stall[s] -= 1;
                    missed[s] += 1;
                    if missed[s] > self.heartbeat_timeout {
                        return Err(AttemptError::Dead(s));
                    }
                }
            }
            // Flush barrier: drain every live shard into its staging
            // frames. Stalled shards are skipped *before* dispatch —
            // no job, no thread — but still receive deliveries above.
            let t_round = Instant::now();
            let mut staged = 0u64;
            let mut dispatched = 0u64;
            let mut dead: Option<usize> = None;
            if shard_count == 1 {
                // Single shard: nothing ever crosses a border; drain
                // inline on the coordinator.
                let map = &self.map;
                let shard = &mut self.shards[0];
                let stage = &mut self.stage[0];
                dispatched = 1;
                match catch_unwind(AssertUnwindSafe(|| shard.drain(map, 0, epoch, stage))) {
                    Ok(n) => staged += n,
                    Err(_) => dead = Some(0),
                }
            } else {
                // Ownership round trip: move each live shard (and its
                // frames) to its persistent worker, collect them back
                // in shard order.
                let pool = self.pool.as_ref().expect("pool created above");
                let mut sent: Vec<usize> = Vec::with_capacity(shard_count);
                for (s, _) in stalled.iter().enumerate().filter(|&(_, &st)| !st) {
                    let shard = std::mem::replace(&mut self.shards[s], Shard::placeholder());
                    let stage = std::mem::take(&mut self.stage[s]);
                    pool.dispatch(
                        s,
                        DrainJob {
                            shard,
                            stage,
                            epoch,
                        },
                    );
                    sent.push(s);
                }
                for &s in &sent {
                    let reply = pool.collect(s);
                    self.shards[s] = reply.shard;
                    self.stage[s] = reply.stage;
                    dispatched += 1;
                    staged += reply.staged;
                    busy_nanos += reply.busy_nanos;
                    // First panicking shard by index, reported only after
                    // every shard is home again.
                    if reply.panicked && dead.is_none() {
                        dead = Some(s);
                    }
                }
            }
            let wall = t_round.elapsed();
            round_us.push(wall.as_secs_f64() * 1e6);
            cap_nanos += wall.as_nanos() as u64 * dispatched;
            if shard_count == 1 {
                // The inline drain's wall time is its busy time.
                busy_nanos += wall.as_nanos() as u64;
            }
            // A drain panic is a primary death observed at the round
            // boundary.
            if let Some(s) = dead {
                return Err(AttemptError::Dead(s));
            }
            // Injected kills pinned to this exchange round fire before
            // the dead shard's round output reaches the network.
            for s in 0..shard_count {
                if self.faults.take_kill(s as u32, epoch, Some(round)) {
                    return Err(AttemptError::Dead(s));
                }
            }
            messages += staged;
            if !lossless {
                // Unpack the staged frames through the per-message
                // fault machinery in (src, dst) frame order: every
                // message still rolls its own fate.
                for row in &mut self.stage {
                    for frame in row {
                        for m in frame.drain(..) {
                            net.send(m, round, &mut self.faults, 0);
                        }
                    }
                }
            }
        }
    }

    /// Rolls the whole in-flight batch attempt back to the published
    /// epoch: inverse mutations, estimates restored from the epoch
    /// change log, worklists cleared, and every border cache reset to
    /// the exact between-epoch coreness (`global_core`), which is what
    /// each entry held before the attempt. The `dead` shard (if any) is
    /// skipped — promotion replaces its state wholesale.
    fn rollback(&mut self, batch: &EdgeBatch, dead: Option<usize>) {
        self.apply_mutations(&batch.inverse(), dead);
        self.edges = self.edges + batch.removals().len() - batch.insertions().len();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if dead == Some(i) {
                continue;
            }
            for s in std::mem::take(&mut shard.epoch_touched) {
                let s = s as usize;
                shard.est[s] = shard.epoch_old[s];
                shard.epoch_mark[s] = u64::MAX;
            }
            shard.queue.clear();
            shard.queued.fill(false);
            for (v, entry) in shard.remote_est.iter_mut() {
                entry.est = self.global_core[*v as usize];
            }
        }
    }

    /// Promotes the freshest standby replica of `shard` to primary:
    /// replays the validated log from the replica's applied epoch to the
    /// published epoch vector, then rebuilds estimates and border cache
    /// from the exact between-epoch coreness. Returns the number of log
    /// batches replayed, or `None` when no replica is left — in which
    /// case the partition is tombstoned and marked down.
    fn promote(&mut self, shard: usize) -> Option<u64> {
        if self.tel.enabled() {
            self.xch.failovers.inc();
            self.tel
                .event(EventKind::Failover, shard as u32, self.epoch, 0, 0);
        }
        let reps = &mut self.replicas[shard];
        let Some(best) = (0..reps.len()).max_by_key(|&i| reps[i].applied_epoch) else {
            self.tombstone(shard);
            self.down[shard] = true;
            let backlog = self.log.len() as u64 - self.epoch;
            self.tel
                .event(EventKind::Degraded, shard as u32, self.epoch, backlog, 0);
            return None;
        };
        let mut rep = reps.swap_remove(best);
        let replayed = self.epoch - rep.applied_epoch;
        for e in rep.applied_epoch..self.epoch {
            Self::replay_into(&mut rep.adj, &self.log[e as usize], &self.map, shard as u32);
        }
        let (owned, snapshot) = {
            let old = &mut self.shards[shard];
            (std::mem::take(&mut old.owned), old.snapshot.clone())
        };
        self.shards[shard] = Self::build_shard(
            shard as u32,
            owned,
            rep.adj,
            &self.global_core,
            &self.map,
            Some(snapshot),
        );
        self.tel.event(
            EventKind::Promotion,
            shard as u32,
            self.epoch,
            replayed,
            self.replicas[shard].len() as u64,
        );
        Some(replayed)
    }

    /// Empties a dead partition's writer state (its published snapshot
    /// and owned-node list survive for degraded reads and revival).
    fn tombstone(&mut self, shard: usize) {
        let sh = &mut self.shards[shard];
        sh.adj = AdjacencyArena::from_sorted_lists(sh.owned.iter().map(|_| Vec::<u32>::new()));
        sh.est.fill(0);
        sh.remote_est.clear();
        sh.queue.clear();
        sh.queued.fill(false);
        sh.epoch_mark.fill(u64::MAX);
        sh.epoch_touched.clear();
    }

    /// Replays one logged batch's arcs owned by shard `me` into a
    /// replica's adjacency.
    fn replay_into(adj: &mut AdjacencyArena, batch: &EdgeBatch, map: &ShardMap, me: u32) {
        for &(u, v) in batch.removals() {
            if map.owner[u.index()] == me {
                let ok = adj.remove_arc(map.slot[u.index()] as usize, v.0);
                debug_assert!(ok, "replayed removal");
            }
            if map.owner[v.index()] == me {
                let ok = adj.remove_arc(map.slot[v.index()] as usize, u.0);
                debug_assert!(ok, "replayed removal");
            }
        }
        for &(u, v) in batch.insertions() {
            if map.owner[u.index()] == me {
                let ok = adj.insert_arc(map.slot[u.index()] as usize, v.0);
                debug_assert!(ok, "replayed insertion");
            }
            if map.owner[v.index()] == me {
                let ok = adj.insert_arc(map.slot[v.index()] as usize, u.0);
                debug_assert!(ok, "replayed insertion");
            }
        }
    }

    /// Applies a batch's arc mutations to the owning shards' arenas,
    /// skipping arcs owned by `skip` (a dead shard about to be rebuilt).
    fn apply_mutations(&mut self, batch: &EdgeBatch, skip: Option<usize>) {
        let skip = skip.map(|s| s as u32);
        for &(u, v) in batch.removals() {
            if skip != Some(self.map.owner[u.index()]) {
                self.arc_remove(u.0, v.0);
            }
            if skip != Some(self.map.owner[v.index()]) {
                self.arc_remove(v.0, u.0);
            }
        }
        for &(u, v) in batch.insertions() {
            if skip != Some(self.map.owner[u.index()]) {
                self.arc_insert(u.0, v.0);
            }
            if skip != Some(self.map.owner[v.index()]) {
                self.arc_insert(v.0, u.0);
            }
        }
    }

    /// Brings lagging replicas up to the published epoch by replaying
    /// the log suffix (triggered once they trail by `replica_lag`).
    fn sync_replicas(&mut self) {
        for s in 0..self.shards.len() {
            for rep in &mut self.replicas[s] {
                if rep.applied_epoch + self.replica_lag <= self.epoch {
                    while rep.applied_epoch < self.epoch {
                        Self::replay_into(
                            &mut rep.adj,
                            &self.log[rep.applied_epoch as usize],
                            &self.map,
                            s as u32,
                        );
                        rep.applied_epoch += 1;
                    }
                }
            }
        }
    }

    /// Restocks `shard`'s standby replicas to the configured target by
    /// cloning the (healthy) primary's adjacency.
    fn restock(&mut self, shard: usize) {
        while self.replicas[shard].len() < self.replica_target {
            self.replicas[shard].push(Replica {
                applied_epoch: self.epoch,
                adj: self.shards[shard].adj.clone(),
            });
        }
    }

    /// Publishes the current liveness/lag picture to the health cell.
    fn refresh_health(&self) {
        let backlog = self.log.len() as u64 - self.epoch;
        let shards = (0..self.shards.len())
            .map(|s| ShardHealth {
                shard: s as u32,
                primary_alive: !self.down[s],
                replicas: self.replicas[s].len(),
                epoch_lag: if self.down[s] { backlog } else { 0 },
            })
            .collect();
        // The exchange suffix is a *view over the registry*: HEALTH
        // and METRICS read the same handles, so they cannot drift.
        if let Some(pool) = &self.pool {
            let s = pool.stats();
            self.xch.pool_dispatched.set(s.dispatched as i64);
            self.xch.pool_busy_nanos.set(s.busy_nanos as i64);
            self.xch.pool_park_nanos.set(s.park_nanos as i64);
        }
        self.health.store(HealthReport {
            writer_alive: true,
            epoch: self.epoch,
            shards,
            exchange: Some(ExchangeHealth {
                rounds: self.xch.rounds.value(),
                round_p50_us: if self.xch.round_us.count() == 0 {
                    0
                } else {
                    self.xch.round_us.quantile(0.5)
                },
                round_p99_us: if self.xch.round_us.count() == 0 {
                    0
                } else {
                    self.xch.round_us.quantile(0.99)
                },
                worker_busy_pct: busy_pct(self.xch.busy_nanos.value(), self.xch.cap_nanos.value())
                    as u32,
            }),
        });
    }

    /// The report for a batch accepted into the log but deferred
    /// because a partition has no live writer.
    fn deferred_report(
        &mut self,
        t0: Instant,
        failovers: u32,
        replayed: u64,
    ) -> ShardedPublishReport {
        if self.tel.enabled() {
            self.xch.deferred.inc();
            self.tel.event(
                EventKind::Deferred,
                0,
                self.epoch,
                self.log.len() as u64 - self.epoch,
                0,
            );
        }
        self.refresh_health();
        ShardedPublishReport {
            epoch: self.epoch,
            rounds: 0,
            messages: 0,
            changed: 0,
            repair_micros: t0.elapsed().as_secs_f64() * 1e6,
            publish_micros: 0.0,
            deferred: true,
            failovers,
            replayed,
            resends: 0,
            round_us_p50: 0.0,
            round_us_p99: 0.0,
            worker_busy_pct: 0.0,
        }
    }

    /// Removes the arc `u → v` from `u`'s owning shard, dropping the
    /// border-cache reference when `v` is remote (the entry is evicted
    /// once no owned arc points at `v` anymore, so churn cannot grow the
    /// cache past the live border).
    fn arc_remove(&mut self, u: u32, v: u32) {
        let su = self.map.owner[u as usize];
        let shard = &mut self.shards[su as usize];
        let removed = shard.adj.remove_arc(self.map.slot[u as usize] as usize, v);
        debug_assert!(removed, "validated removal");
        if self.map.owner[v as usize] != su {
            let entry = shard
                .remote_est
                .get_mut(&v)
                .expect("border cache covers every remote neighbor");
            entry.refs -= 1;
            if entry.refs == 0 {
                shard.remote_est.remove(&v);
            }
        }
    }

    /// Inserts the arc `u → v` into `u`'s owning shard, priming (or
    /// re-referencing) the border cache when `v` is remote. The primed
    /// value is the exact pre-batch coreness; the seeding pass overwrites
    /// it for bumped candidates before any round reads it.
    fn arc_insert(&mut self, u: u32, v: u32) {
        let su = self.map.owner[u as usize];
        let shard = &mut self.shards[su as usize];
        let inserted = shard.adj.insert_arc(self.map.slot[u as usize] as usize, v);
        debug_assert!(inserted, "validated insertion");
        if self.map.owner[v as usize] != su {
            let entry = shard.remote_est.entry(v).or_insert(BorderEntry {
                est: self.global_core[v as usize],
                refs: 0,
            });
            entry.refs += 1;
            // A re-referenced surviving entry may hold a stale (higher)
            // announcement; reset it to the authoritative pre-batch value.
            entry.est = self.global_core[v as usize];
        }
    }

    /// Current degree of global node `w`.
    fn degree_of(&self, w: u32) -> u32 {
        self.shards[self.map.owner[w as usize] as usize]
            .adj
            .degree(self.map.slot[w as usize] as usize)
    }
}

/// A consistent vector of per-shard epochs, published atomically: every
/// query runs against the same union-graph batch boundary on every
/// shard. Immutable; holding one pins all of its shards' chunked state.
#[derive(Debug)]
pub struct StitchedSnapshot {
    epoch: u64,
    nodes: usize,
    edges: usize,
    map: Arc<ShardMap>,
    shards: Vec<Arc<ShardSnapshot>>,
    /// Union shell-size histogram (sum of the shard histograms, trailing
    /// zeros trimmed).
    shell_sizes: Vec<usize>,
    /// Memoized union k-core subgraphs for hot `k` values; invalidated
    /// for free at the epoch flip (the next stitched vector is a new
    /// snapshot with an empty cache).
    subgraphs: Mutex<crate::view::SubgraphMemo>,
    /// Lazily materialized flat coreness (query-side, once per epoch).
    full_values: OnceLock<Vec<u32>>,
    /// Lazily materialized union graph (query-side, once per epoch).
    full_graph: OnceLock<Graph>,
}

impl StitchedSnapshot {
    fn assemble(
        epoch: u64,
        nodes: usize,
        edges: usize,
        map: Arc<ShardMap>,
        shards: Vec<Arc<ShardSnapshot>>,
    ) -> Self {
        let kmax = shards
            .iter()
            .map(|s| s.shell_sizes.len())
            .max()
            .unwrap_or(1);
        let mut shell_sizes = vec![0usize; kmax];
        for s in &shards {
            for (k, &c) in s.shell_sizes.iter().enumerate() {
                shell_sizes[k] += c;
            }
        }
        trim_shells(&mut shell_sizes);
        StitchedSnapshot {
            epoch,
            nodes,
            edges,
            map,
            shards,
            shell_sizes,
            subgraphs: Mutex::new(HashMap::new()),
            full_values: OnceLock::new(),
            full_graph: OnceLock::new(),
        }
    }

    /// The epoch this stitched vector was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards stitched together.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of nodes in the union graph.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges in the union graph.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Coreness of `v` in the union graph, or `None` when out of range.
    pub fn coreness(&self, v: NodeId) -> Option<u32> {
        if v.index() >= self.nodes {
            return None;
        }
        let shard = &self.shards[self.map.owner[v.index()] as usize];
        Some(shard.coreness_at(self.map.slot[v.index()] as usize))
    }

    /// Degree of `v` in the union graph, or `None` when out of range.
    pub fn degree(&self, v: NodeId) -> Option<u32> {
        if v.index() >= self.nodes {
            return None;
        }
        let shard = &self.shards[self.map.owner[v.index()] as usize];
        Some(shard.degree_at(self.map.slot[v.index()] as usize))
    }

    /// Sorted neighbors of `v` (global ids), or `None` when out of range.
    pub fn neighbors(&self, v: NodeId) -> Option<&[u32]> {
        if v.index() >= self.nodes {
            return None;
        }
        let shard = &self.shards[self.map.owner[v.index()] as usize];
        Some(shard.neighbors_at(self.map.slot[v.index()] as usize))
    }

    /// The largest coreness of this epoch.
    pub fn max_coreness(&self) -> u32 {
        (self.shell_sizes.len() - 1) as u32
    }

    /// Union shell-size histogram (`max_coreness() + 1` entries).
    pub fn histogram(&self) -> &[usize] {
        &self.shell_sizes
    }

    /// Number of nodes with coreness at least `k`.
    pub fn kcore_size(&self, k: u32) -> usize {
        self.shell_sizes
            .iter()
            .skip(k as usize)
            .copied()
            .sum::<usize>()
    }

    /// The members of the union k-core in ascending global id order: a
    /// k-way merge of the per-shard shell indexes, O(answer · log S)
    /// instead of a scan of the global id space.
    pub fn kcore_members(&self, k: u32) -> Vec<NodeId> {
        self.kcore_members_page(k, 0, usize::MAX).collect()
    }

    /// One page of the union k-core members: positions `offset ..
    /// offset + limit` of the ascending-global-id member sequence.
    /// Pages concatenate to exactly [`kcore_members`](Self::kcore_members).
    pub fn kcore_members_page(
        &self,
        k: u32,
        offset: usize,
        limit: usize,
    ) -> Box<dyn Iterator<Item = NodeId> + '_> {
        match &self.shards[..] {
            // Single shard: its index pages directly (chunk-skipping
            // offset instead of an element-wise merge skip).
            [only] => Box::new(only.index.members_page(k, offset, limit).map(NodeId)),
            shards => Box::new(
                MergedMembers::new(shards.iter().map(|s| s.index.members(k)))
                    .skip(offset)
                    .take(limit)
                    .map(NodeId),
            ),
        }
    }

    /// Extracts the union k-core subgraph with the compact-id mapping,
    /// identical to [`CoreSnapshot::kcore_subgraph`](crate::CoreSnapshot::kcore_subgraph):
    /// O(answer) member enumeration off the shard indexes, then the
    /// shared member-fed extraction. Clones out of the per-snapshot
    /// memo; [`kcore_subgraph_cached`](Self::kcore_subgraph_cached)
    /// shares it instead.
    pub fn kcore_subgraph(&self, k: u32) -> (Graph, Vec<NodeId>) {
        (*self.kcore_subgraph_cached(k)).clone()
    }

    /// The memoized union k-core subgraph: first call per `k` extracts
    /// and caches; epochs are immutable, so the cache can never go
    /// stale.
    pub fn kcore_subgraph_cached(&self, k: u32) -> Arc<(Graph, Vec<NodeId>)> {
        let mut memo = self
            .subgraphs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(memo.entry(k).or_insert_with(|| {
            Arc::new(crate::view::kcore_subgraph_from_members(
                self,
                self.kcore_members_page(k, 0, usize::MAX),
            ))
        }))
    }

    /// The `n` nodes of largest coreness, ordered by descending coreness
    /// then ascending global id — same contract as the single-writer
    /// snapshot's `top_k`, emitted by a rank-order merge of the shard
    /// indexes in O(answer · log S).
    pub fn top_k(&self, n: usize) -> Vec<(NodeId, u32)> {
        self.top_page(0, n).collect()
    }

    /// One page of the full union coreness ranking: positions `offset
    /// .. offset + limit` of the (coreness desc, global id asc)
    /// sequence. Pages concatenate to the whole ranking.
    pub fn top_page(
        &self,
        offset: usize,
        limit: usize,
    ) -> Box<dyn Iterator<Item = (NodeId, u32)> + '_> {
        Box::new(
            MergedTop::new(self.shards.iter().map(|s| s.index.top()))
                .skip(offset)
                .take(limit)
                .map(|(u, c)| (NodeId(u), c)),
        )
    }

    /// Coreness of every node in the union graph, materialized lazily on
    /// first use and cached for the snapshot's lifetime.
    pub fn values(&self) -> &[u32] {
        self.full_values.get_or_init(|| {
            (0..self.nodes as u32)
                .map(|u| self.coreness(NodeId(u)).expect("in range"))
                .collect()
        })
    }

    /// The union graph, materialized lazily on first use and cached for
    /// the snapshot's lifetime. Cross-shard edges appear once.
    pub fn graph(&self) -> &Graph {
        self.full_graph.get_or_init(|| {
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for u in 0..self.nodes as u32 {
                for &v in self.neighbors(NodeId(u)).expect("in range") {
                    if u < v {
                        edges.push((u, v));
                    }
                }
            }
            Graph::from_edges(self.nodes, edges).expect("stitched adjacency is a valid graph")
        })
    }
}

/// Cloneable stitching reader handle over the sharded service: pins one
/// consistent vector of per-shard epochs per `snapshot()` call.
#[derive(Debug, Clone)]
pub struct ShardedHandle {
    cell: Arc<EpochCell<StitchedSnapshot>>,
    health: Arc<HealthCell>,
    tel: Telemetry,
}

impl ShardedHandle {
    /// The latest published stitched epoch. The returned `Arc` pins every
    /// shard's state for that epoch.
    pub fn snapshot(&self) -> Arc<StitchedSnapshot> {
        self.cell.load()
    }

    /// The latest published epoch number, without loading a snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The writer's latest health report: per-partition liveness,
    /// standby counts, and deferred-batch lag. Degraded or not, queries
    /// through [`snapshot`](Self::snapshot) keep working — this is how
    /// a reader learns the epoch has stopped advancing.
    pub fn health(&self) -> HealthReport {
        self.health.load()
    }

    /// The writer's telemetry bundle (registry + flight recorder).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkcore_graph::generators::{gnp, path};
    use rand::prelude::*;

    fn random_batch(svc: &ShardedCoreService, n: u32, size: usize, rng: &mut StdRng) -> EdgeBatch {
        let mut b = EdgeBatch::new();
        let mut seen: Vec<(u32, u32)> = Vec::new();
        let mut tries = 0;
        while b.len() < size && tries < size * 40 {
            tries += 1;
            let x = rng.random_range(0..n);
            let y = rng.random_range(0..n);
            if x == y {
                continue;
            }
            let key = (x.min(y), x.max(y));
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            if svc.has_edge(NodeId(key.0), NodeId(key.1)) {
                b.remove(NodeId(key.0), NodeId(key.1));
            } else {
                b.insert(NodeId(key.0), NodeId(key.1));
            }
        }
        b
    }

    #[test]
    fn stitched_epochs_match_union_ground_truth() {
        for shards in [1usize, 2, 4] {
            let g = gnp(240, 0.03, 11 + shards as u64);
            let mut svc = ShardedCoreService::new(&g, shards);
            let handle = svc.handle();
            assert_eq!(
                handle.snapshot().values(),
                batagelj_zaversnik(&g).as_slice()
            );
            let mut rng = StdRng::seed_from_u64(99 + shards as u64);
            for step in 1..=10u64 {
                let b = random_batch(&svc, 240, 10, &mut rng);
                let report = svc.apply_batch(&b).unwrap();
                assert_eq!(report.epoch, step);
                let snap = handle.snapshot();
                assert_eq!(snap.epoch(), step);
                assert_eq!(
                    snap.values(),
                    batagelj_zaversnik(snap.graph()).as_slice(),
                    "shards {shards}, step {step}: stitched epoch must equal \
                     fresh BZ on the union graph"
                );
                assert_eq!(snap.graph().edge_count(), snap.edge_count());
            }
        }
    }

    #[test]
    fn stitched_queries_agree_with_single_writer_service() {
        let g = gnp(200, 0.04, 23);
        let mut sharded = ShardedCoreService::new(&g, 3);
        let mut single = crate::CoreService::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..6 {
            let b = random_batch(&sharded, 200, 8, &mut rng);
            sharded.apply_batch(&b).unwrap();
            single.apply_batch(&b).unwrap();
        }
        let s = sharded.handle().snapshot();
        let c = single.handle().snapshot();
        assert_eq!(s.values(), c.values());
        assert_eq!(s.histogram(), c.histogram());
        assert_eq!(s.max_coreness(), c.max_coreness());
        assert_eq!(s.edge_count(), c.edge_count());
        for k in 0..=s.max_coreness() + 1 {
            assert_eq!(s.kcore_members(k), c.kcore_members(k), "members k={k}");
            assert_eq!(s.kcore_size(k), c.kcore_size(k));
            let (ss, sb) = s.kcore_subgraph(k);
            let (cs, cb) = c.kcore_subgraph(k);
            assert_eq!(ss, cs, "subgraph k={k}");
            assert_eq!(sb, cb);
        }
        for n in [0usize, 1, 5, 50, 200] {
            assert_eq!(s.top_k(n), c.top_k(n), "top_k {n}");
        }
        for u in 0..200u32 {
            assert_eq!(s.coreness(NodeId(u)), c.coreness(NodeId(u)));
            assert_eq!(s.degree(NodeId(u)), c.degree(NodeId(u)));
        }
        assert_eq!(s.graph(), c.graph());
    }

    #[test]
    fn pinned_stitched_epochs_survive_further_churn() {
        let g = gnp(150, 0.04, 3);
        let mut svc = ShardedCoreService::with_assignment(&g, 2, &AssignmentPolicy::BfsBlocks);
        let handle = svc.handle();
        let mut pinned = vec![handle.snapshot()];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..8 {
            let b = random_batch(&svc, 150, 6, &mut rng);
            svc.apply_batch(&b).unwrap();
            pinned.push(handle.snapshot());
        }
        for (i, snap) in pinned.iter().enumerate() {
            assert_eq!(snap.epoch(), i as u64);
            assert_eq!(
                snap.values(),
                batagelj_zaversnik(snap.graph()).as_slice(),
                "pinned epoch {i}"
            );
        }
    }

    #[test]
    fn failed_validation_publishes_nothing() {
        let g = path(6);
        let mut svc = ShardedCoreService::new(&g, 2);
        let handle = svc.handle();
        let mut b = EdgeBatch::new();
        b.remove(NodeId(0), NodeId(5)); // not an edge
        assert!(svc.apply_batch(&b).is_err());
        assert_eq!(svc.epoch(), 0);
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.snapshot().graph(), &g);
    }

    fn config(replicas: usize, plan: &str) -> ShardedConfig {
        ShardedConfig {
            replicas,
            fault_plan: FaultPlan::parse(plan).expect("test plan parses"),
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn failover_to_replica_keeps_every_epoch_exact() {
        // Kill each partition's primary in turn between batches; the
        // replica must replay to the published epoch and rejoin so
        // cleanly that every stitched epoch still equals fresh BZ.
        let g = gnp(160, 0.04, 31);
        let mut svc = ShardedCoreService::with_config(&g, 3, config(1, "none"));
        let handle = svc.handle();
        let mut rng = StdRng::seed_from_u64(41);
        for step in 1..=9u64 {
            let b = random_batch(&svc, 160, 8, &mut rng);
            svc.apply_batch(&b).unwrap();
            if step % 3 == 0 {
                let victim = (step / 3 - 1) as usize;
                assert_eq!(svc.replica_count(victim), 1);
                assert!(svc.kill_primary(victim), "replica takes over");
                assert_eq!(svc.replica_count(victim), 0);
                assert!(!svc.is_degraded());
            }
            let snap = handle.snapshot();
            assert_eq!(snap.epoch(), step);
            assert_eq!(
                snap.values(),
                batagelj_zaversnik(snap.graph()).as_slice(),
                "step {step}: failover must not perturb results"
            );
        }
        assert!(svc.handle().health().shards.iter().all(|s| s.primary_alive));
    }

    #[test]
    fn lagging_replica_replays_the_log_suffix_on_promotion() {
        // With a large replica_lag the standby never syncs, so promotion
        // must replay the whole log suffix from its own applied epoch.
        let g = gnp(120, 0.05, 7);
        let mut cfg = config(1, "none");
        cfg.replica_lag = 100; // never proactively sync
        let mut svc = ShardedCoreService::with_config(&g, 2, cfg);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..5 {
            let b = random_batch(&svc, 120, 6, &mut rng);
            svc.apply_batch(&b).unwrap();
        }
        assert!(svc.kill_primary(1), "promotion replays 5 epochs");
        let b = random_batch(&svc, 120, 6, &mut rng);
        svc.apply_batch(&b).unwrap();
        let snap = svc.handle().snapshot();
        assert_eq!(snap.epoch(), 6);
        assert_eq!(snap.values(), batagelj_zaversnik(snap.graph()).as_slice());
    }

    #[test]
    fn exhausted_partition_degrades_then_revives_from_the_snapshot() {
        let g = gnp(100, 0.05, 19);
        let mut svc = ShardedCoreService::with_config(&g, 2, config(0, "none"));
        let handle = svc.handle();
        let mut rng = StdRng::seed_from_u64(23);
        let b = random_batch(&svc, 100, 6, &mut rng);
        svc.apply_batch(&b).unwrap();

        assert!(!svc.kill_primary(0), "no replica: partition goes down");
        assert!(svc.is_degraded());

        // Batches still validate (against the logical edge set) and are
        // logged, but the published epoch is frozen.
        for lag in 1..=3u64 {
            let b = random_batch(&svc, 100, 6, &mut rng);
            let report = svc.apply_batch(&b).unwrap();
            assert!(report.deferred, "degraded batches defer");
            assert_eq!(report.epoch, 1, "epoch frozen while degraded");
            assert_eq!(svc.backlog(), lag as usize);
            let health = handle.health();
            assert_eq!(
                health.status_line(),
                format!("status=degraded down=0:{lag}")
            );
        }
        // Readers keep answering from the last consistent epoch.
        let snap = handle.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.values(), batagelj_zaversnik(snap.graph()).as_slice());

        // Revival rebuilds the partition from the published snapshot and
        // drains the whole backlog.
        assert_eq!(svc.revive_shard(0), 3);
        assert!(!svc.is_degraded());
        assert_eq!(svc.backlog(), 0);
        let snap = handle.snapshot();
        assert_eq!(snap.epoch(), 4);
        assert_eq!(snap.values(), batagelj_zaversnik(snap.graph()).as_slice());
        assert_eq!(handle.health().status_line(), "status=healthy");
    }

    #[test]
    fn flight_recorder_replays_the_failover_chain_in_order() {
        // Drive a full lifecycle on shard 1 — kill (replica promotes),
        // kill again (exhausted: degraded), defer a batch, revive — and
        // assert the flight recorder replays exactly that chain, in
        // order, with gapless sequence numbers.
        let g = gnp(100, 0.05, 19);
        let mut svc = ShardedCoreService::with_config(&g, 2, config(1, "none"));
        let mut rng = StdRng::seed_from_u64(5);
        let b = random_batch(&svc, 100, 6, &mut rng);
        svc.apply_batch(&b).unwrap();

        assert!(svc.kill_primary(1), "first kill: replica promotes");
        assert!(!svc.kill_primary(1), "second kill: shard exhausted");
        let b = random_batch(&svc, 100, 6, &mut rng);
        assert!(svc.apply_batch(&b).unwrap().deferred);
        assert_eq!(svc.revive_shard(1), 1);

        let events = svc.telemetry().events_since(0, usize::MAX);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1, "gapless seqs from 1");
        }
        let lifecycle: Vec<(EventKind, u32)> = events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    EventKind::BatchApplied | EventKind::EpochPublished | EventKind::Retransmit
                )
            })
            .map(|e| (e.kind, e.shard))
            .collect();
        assert_eq!(
            lifecycle,
            vec![
                (EventKind::Failover, 1),
                (EventKind::Promotion, 1),
                (EventKind::Failover, 1),
                (EventKind::Degraded, 1),
                (EventKind::Deferred, 0),
                (EventKind::Revive, 1),
            ],
            "full events: {events:?}"
        );
        // The revive drains the deferred batch, so the final published
        // epoch in the event stream is 2.
        assert_eq!(events.last().unwrap().kind, EventKind::Revive);
        assert_eq!(svc.telemetry().recorder().last_seq(), events.len() as u64);
    }

    #[test]
    fn message_faults_force_resends_but_never_wrong_answers() {
        // 20% drops plus duplicates and delay spikes on the border
        // exchange: retransmission must absorb all of it.
        let g = gnp(140, 0.05, 47);
        let plan = "seed=9,drop=20,dup=10,delay=10:3";
        let mut svc = ShardedCoreService::with_config(&g, 2, config(0, plan));
        let mut rng = StdRng::seed_from_u64(53);
        let mut resends = 0u64;
        for step in 1..=10u64 {
            let b = random_batch(&svc, 140, 8, &mut rng);
            let report = svc.apply_batch(&b).unwrap();
            resends += report.resends;
            let snap = svc.handle().snapshot();
            assert_eq!(
                snap.values(),
                batagelj_zaversnik(snap.graph()).as_slice(),
                "step {step} under plan {plan}"
            );
        }
        assert!(resends > 0, "a 20% drop rate must trigger retransmits");
    }

    #[test]
    fn scheduled_kill_fails_over_mid_stream() {
        let g = gnp(120, 0.05, 61);
        let mut svc = ShardedCoreService::with_config(&g, 2, config(1, "kill=0@2"));
        let mut rng = StdRng::seed_from_u64(67);
        for step in 1..=4u64 {
            let b = random_batch(&svc, 120, 6, &mut rng);
            let report = svc.apply_batch(&b).unwrap();
            assert_eq!(report.failovers, u32::from(step == 2), "step {step}");
            let snap = svc.handle().snapshot();
            assert_eq!(snap.epoch(), step);
            assert_eq!(snap.values(), batagelj_zaversnik(snap.graph()).as_slice());
        }
        assert_eq!(svc.replica_count(0), 0, "the standby was consumed");
    }

    #[test]
    fn short_stall_rides_through_long_stall_fails_over() {
        // A stall below the heartbeat timeout is just a slow shard; one
        // above it is indistinguishable from death and must fail over.
        let g = path(40);
        for (plan, expect_failover) in [("stall=1@1:2", false), ("stall=1@1:30", true)] {
            let mut svc = ShardedCoreService::with_config(&g, 2, config(1, plan));
            let mut b = EdgeBatch::new();
            b.insert(NodeId(0), NodeId(39)); // cascade crosses every border
            let report = svc.apply_batch(&b).unwrap();
            assert_eq!(
                report.failovers > 0,
                expect_failover,
                "plan {plan}: failovers={}",
                report.failovers
            );
            let snap = svc.handle().snapshot();
            assert!(snap.values().iter().all(|&c| c == 2), "plan {plan}");
        }
    }

    #[test]
    fn cross_shard_cascades_converge() {
        // A path sharded modulo 2 makes *every* edge a border edge: any
        // repair must flow entirely through border exchange.
        let g = path(40);
        let mut svc = ShardedCoreService::new(&g, 2);
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(39)); // close the cycle: all coreness 2
        let report = svc.apply_batch(&b).unwrap();
        assert!(report.rounds >= 1, "border exchange must run");
        let snap = svc.handle().snapshot();
        assert!(snap.values().iter().all(|&c| c == 2));
        // Cut it again: everyone drops back to 1, purely via borders.
        let mut b = EdgeBatch::new();
        b.remove(NodeId(20), NodeId(21));
        svc.apply_batch(&b).unwrap();
        let snap = svc.handle().snapshot();
        assert_eq!(snap.values(), batagelj_zaversnik(snap.graph()).as_slice());
    }
}
