//! Flat, active-set, optionally parallel engine for the synchronous
//! one-to-many protocol (Algorithms 3–5) under the default Worklist
//! emulation — the host-layer counterpart of
//! [`ActiveSetEngine`](crate::ActiveSetEngine), behind the same semantics
//! as [`HostSim`](crate::HostSim) in [`SimMode`](crate::SimMode)
//! `Synchronous` mode. The Sweep and PerRound emulation ablations run on
//! [`HostSim`](crate::HostSim): [`ActiveSetHostConfig`] carries a
//! dissemination policy but no emulation mode, so it cannot ask for one.
//!
//! The legacy [`HostSim`](crate::HostSim) drives every
//! [`HostProtocol`](dkcore::one_to_many::HostProtocol) sequentially
//! through per-host `Vec<Vec<(NodeId, u32)>>` inboxes: each `⟨S⟩` batch is
//! `clone()`d once per recipient (for a broadcast, `|H| − 1` times),
//! every host is visited every round even when quiescent, and the whole
//! estimate vector is rebuilt per round for observers. This engine
//! instead concatenates every host's slot space (`V(x) ∪ neighborV(x)`,
//! locals first) into global arrays:
//!
//! * `est` — the **contiguous estimates arena**: exactly one entry per
//!   node, grouped by owning host and indexed by the host-offset table
//!   `arena_off`. External neighbors have no receiver-side copy at all:
//!   every staged pair carries `(destination slot, old, new)` with the
//!   `old` value tracked by the *sender* (exact, because each external
//!   slot has a single, monotone writer), so delivery feeds the
//!   histograms directly without reading or writing any per-ext state.
//! * `adj` / `rev` — CSR adjacency between a host's locals and its slots
//!   (`u32` offsets: the tables sit on the per-event hot path).
//! * `hist` — the incremental `computeIndex` suffix-count histograms
//!   ([`dkcore::IncrementalIndex`]'s `cnt` arrays), one `degree + 1`
//!   slice per local, in one arena at `adj_off[a] + a`.
//! * `border_local` / `border_slot` — per (host, neighbor host) border
//!   lists with the destination slot of every border node precomputed
//!   (built linearly: a host's ext region *is* the union of everyone
//!   else's border toward it). Flushes under **both** policies stage
//!   through these: a broadcast's applied effect at any receiver is
//!   provably the border ∩ changed subset — pairs about nodes a receiver
//!   does not know are discarded by Algorithm 3's receive — so only the
//!   message/pair *accounting* differs between Algorithm 3 and
//!   Algorithm 5, and no receiver ever resolves a node id.
//!
//! Rounds are fused: each shard makes one pass over its worklist hosts
//! — apply staged batches, run the drop-event cascade, flush — while a
//! host's state stays cache-hot. Only hosts that received a batch are
//! processed, so quiescent hosts cost zero work per round. Shards are
//! disjoint contiguous host ranges run on scoped threads with one barrier
//! per round. External-slot drops run their single cascade hop inline
//! (only induced local drops round-trip through the event queue), and
//! sparse flushes gallop through the border lists instead of merging.
//!
//! Synchronous-round semantics are preserved *exactly*: batches flushed in
//! round `r` are delivered in round `r + 1`, and round/message/estimate
//! and per-host accounting matches [`HostSim`](crate::HostSim) bit for
//! bit. The cascade's final state is schedule-independent (estimates are
//! monotone and the histogram/`ge` invariant `ge = Σ cnt[core..]` is
//! maintained exactly under any event order), so sharding and batch
//! grouping never change observables — asserted by
//! `tests/active_set_host.rs` across graph families, dissemination
//! policies, assignment policies and thread counts.
//!
//! # Example
//!
//! ```
//! use dkcore_sim::{ActiveSetHostConfig, ActiveSetHostEngine, HostSim, HostSimConfig};
//! use dkcore::seq::batagelj_zaversnik;
//! use dkcore_graph::generators::gnp;
//!
//! let g = gnp(120, 0.05, 7);
//! let fast = ActiveSetHostEngine::new(&g, ActiveSetHostConfig::synchronous(6)).run();
//! assert!(fast.converged);
//! assert_eq!(fast.final_estimates, batagelj_zaversnik(&g));
//! // Identical trace to the legacy synchronous host engine:
//! let legacy = HostSim::new(&g, HostSimConfig::synchronous(6)).run();
//! assert_eq!(fast, legacy);
//! ```

use std::collections::VecDeque;

use dkcore::one_to_many::{Assignment, AssignmentPolicy, DisseminationPolicy, HostId};
use dkcore::INFINITY_EST;
use dkcore_graph::{Graph, NodeId};

use crate::RunResult;

/// Configuration of an [`ActiveSetHostEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSetHostConfig {
    /// Number of hosts `|H|`.
    pub hosts: usize,
    /// Node → host assignment policy (§3.2.2; the paper uses `Modulo`).
    pub assignment: AssignmentPolicy,
    /// How a host sends its `⟨S⟩` batches (Algorithm 3 broadcast or
    /// Algorithm 5 point-to-point). The emulation mode is always
    /// Worklist; the ablations run on [`HostSim`](crate::HostSim).
    pub policy: DisseminationPolicy,
    /// Worker threads for the delivery/flush phases; `0` means automatic
    /// (available parallelism, bounded by graph size and host count).
    /// `1` forces the sequential path.
    pub threads: usize,
    /// Safety cap on simulated rounds; `0` means automatic (`2·N + 100`),
    /// matching [`HostSimConfig`](crate::HostSimConfig).
    pub max_rounds: u32,
}

impl ActiveSetHostConfig {
    /// Automatic threading, `hosts` hosts, the paper's modulo assignment,
    /// default dissemination policy — the fast-path equivalent of
    /// [`HostSimConfig::synchronous`](crate::HostSimConfig::synchronous).
    pub fn synchronous(hosts: usize) -> Self {
        ActiveSetHostConfig {
            hosts,
            assignment: AssignmentPolicy::Modulo,
            policy: DisseminationPolicy::default(),
            threads: 0,
            max_rounds: 0,
        }
    }

    /// Forces the sequential (single-thread) path.
    pub fn sequential(hosts: usize) -> Self {
        ActiveSetHostConfig {
            threads: 1,
            ..Self::synchronous(hosts)
        }
    }

    pub(crate) fn effective_max_rounds(&self, n: usize) -> u32 {
        if self.max_rounds > 0 {
            self.max_rounds
        } else {
            2 * n as u32 + 100
        }
    }
}

/// Outcome of one [`ActiveSetHostEngine::step`]: like
/// [`StepReport`](crate::StepReport) but with an active-host count instead
/// of the `O(|H|)` per-host activity vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostStepReport {
    /// 1-based round index.
    pub round: u32,
    /// `⟨S⟩` messages sent during the round (a broadcast counts once).
    pub messages: u64,
    /// Hosts that sent a message or hold pending internal changes — the
    /// population a [`CentralizedDetector`](dkcore::termination::CentralizedDetector)
    /// would see as active.
    pub active_hosts: u64,
}

/// One shard's staged outgoing batches for a round: a flat arena of
/// `(destination slot, old, new)` triples plus batch windows
/// `(destination host, start, end)` bucketed by destination shard.
#[derive(Debug, Default)]
struct FlatStage {
    pairs: Vec<(u32, u32, u32)>,
    p2p: Vec<Vec<(u32, u32, u32)>>,
}

impl FlatStage {
    fn new(shards: usize) -> Self {
        FlatStage {
            pairs: Vec::new(),
            p2p: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    fn clear(&mut self) {
        self.pairs.clear();
        for bucket in &mut self.p2p {
            bucket.clear();
        }
    }

    fn is_empty(&self) -> bool {
        self.p2p.iter().all(Vec::is_empty)
    }
}

/// Read-only topology tables shared by all shards.
#[derive(Debug)]
struct Tables {
    /// Host-offset table into the estimates arena: host `h`'s locals are
    /// arena indices `arena_off[h]..arena_off[h + 1]`.
    arena_off: Vec<usize>,
    /// Host `h`'s slot region is `slot_off[h]..slot_off[h + 1]` (locals
    /// first, then external neighbors; both runs sorted by node id).
    slot_off: Vec<usize>,
    /// Node id of every slot (the local prefixes double as the arena →
    /// node map for snapshots).
    slot_node: Vec<u32>,
    /// CSR offsets (arena-indexed) into `adj`; `adj_off[a] + a` is also
    /// the histogram base of arena index `a`.
    adj_off: Vec<u32>,
    /// Arc targets: global slots (within the owner's region).
    adj: Vec<u32>,
    /// CSR offsets (slot-indexed) into `rev`.
    rev_off: Vec<u32>,
    /// Reverse arcs: arena indices of the same-host locals adjacent to a
    /// slot.
    rev: Vec<u32>,
    /// CSR offsets (host-indexed) into `nbr_host` and the border CSR.
    nbr_off: Vec<usize>,
    /// Neighbor hosts (`neighborH`), sorted, per host.
    nbr_host: Vec<u32>,
    /// CSR offsets per `nbr_host` entry into the border arrays.
    border_off: Vec<usize>,
    /// Border nodes as host-relative local indices (sorted per entry).
    border_local: Vec<u32>,
    /// The same border node's address in the destination host: either
    /// its slot, or — when exactly one destination local is adjacent to
    /// it (the common case) — that local's arena index tagged with
    /// [`SINGLE_LOCAL`], letting delivery skip the `rev` indirection.
    border_slot: Vec<u32>,
    /// Shard owning each host.
    shard_of_host: Vec<u32>,
}

impl Tables {
    #[inline]
    fn nlocal(&self, h: usize) -> usize {
        self.arena_off[h + 1] - self.arena_off[h]
    }

    /// Slot of arena index `a`, a local of host `h`.
    #[inline]
    fn slot_of_arena(&self, h: usize, a: usize) -> usize {
        self.slot_off[h] + (a - self.arena_off[h])
    }

    /// Degree of the node at arena index `a`.
    #[inline]
    fn degree(&self, a: usize) -> u32 {
        self.adj_off[a + 1] - self.adj_off[a]
    }

    /// Histogram base of arena index `a` (one `degree + 1` slice per
    /// local, packed in arena order).
    #[inline]
    fn hist_base(&self, a: usize) -> usize {
        self.adj_off[a] as usize + a
    }
}

/// Tag bit in a staged pair's address: the low 31 bits are the arena
/// index of the destination's single adjacent local, not a slot.
const SINGLE_LOCAL: u32 = 1 << 31;

/// The suffix-count walk of `IncrementalIndex::walk_down` over one
/// histogram slice: finds the largest `t < core` with `running(t) ≥ t`.
/// Precondition: `core > 0` and `ge < core`.
#[inline]
fn walk_down(hist: &[u32], base: usize, core: u32, ge: u32) -> (u32, u32) {
    let mut t = core - 1;
    let mut running = ge;
    loop {
        if t == 0 {
            break;
        }
        running += hist[base + t as usize];
        if running >= t {
            break;
        }
        t -= 1;
    }
    (t, running)
}

/// Flat active-set simulator of the synchronous one-to-many protocol
/// (Worklist emulation), bit-identical to [`HostSim`](crate::HostSim).
/// See the [module documentation](self).
#[derive(Debug)]
pub struct ActiveSetHostEngine {
    t: Tables,
    /// The contiguous estimates arena: each node's current `core`,
    /// grouped by owning host (see [`Tables::arena_off`]).
    est: Vec<u32>,
    /// Histogram arena (see [`Tables::hist_base`]).
    hist: Vec<u32>,
    /// `ge[a]`: neighbors of local `a` with clamped estimate ≥ its core —
    /// `IncrementalIndex`'s `ge_core`.
    ge: Vec<u32>,
    /// Changed-since-flush flag per local (arena-indexed).
    changed: Vec<bool>,
    /// Last value flushed for each local (arena-indexed; `+∞` before the
    /// first flush) — the `old` side of every staged pair, replacing any
    /// receiver-side external-estimate storage.
    last_sent: Vec<u32>,
    /// `⟨S⟩` messages sent per host.
    msgs_sent: Vec<u64>,
    /// `(node, estimate)` pairs sent per host.
    pairs_sent: Vec<u64>,

    policy: DisseminationPolicy,
    shard_bounds: Vec<usize>,
    stage_front: Vec<FlatStage>,
    stage_back: Vec<FlatStage>,
    /// Per-shard, per-local-host inbound batch lists `(cell, start, end)`.
    inboxes: Vec<Vec<Vec<(u32, u32, u32)>>>,
    flush_lists: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// Per-shard drop-event FIFO (reused, allocation-free once warm).
    works: Vec<VecDeque<(u32, u32, u32)>>,
    /// Per-shard changed-local scratch (host-relative indices).
    scratches: Vec<Vec<u32>>,

    node_count: usize,
    round: u32,
    max_rounds: u32,
    execution_time: u32,
    total_messages: u64,
    started: bool,
}

impl ActiveSetHostEngine {
    /// Builds the engine for `g` under `config`. Setup is `O(N + M)`;
    /// after it, rounds allocate nothing beyond staging/worklist growth.
    ///
    /// # Panics
    ///
    /// Panics if `config.hosts == 0`.
    pub fn new(g: &Graph, config: ActiveSetHostConfig) -> Self {
        let assignment = Assignment::new(g, config.hosts, &config.assignment);
        let h_count = assignment.host_count();
        let n = g.node_count();

        // Arena layout + node → arena inverse.
        let mut arena_off = Vec::with_capacity(h_count + 1);
        arena_off.push(0usize);
        for h in assignment.hosts() {
            arena_off.push(arena_off.last().unwrap() + assignment.nodes_of(h).len());
        }
        let mut arena_of_node = vec![0u32; n];
        for h in assignment.hosts() {
            for (i, &u) in assignment.nodes_of(h).iter().enumerate() {
                arena_of_node[u.index()] = (arena_off[h.index()] + i) as u32;
            }
        }

        // Slot regions: locals, then sorted/deduped external neighbors.
        let mut slot_off = Vec::with_capacity(h_count + 1);
        slot_off.push(0usize);
        let mut slot_node: Vec<u32> = Vec::new();
        let mut ext_scratch: Vec<u32> = Vec::new();
        for h in assignment.hosts() {
            for &u in assignment.nodes_of(h) {
                slot_node.push(u.0);
            }
            ext_scratch.clear();
            for &u in assignment.nodes_of(h) {
                for &v in g.neighbors(u) {
                    if assignment.host_of(v) != h {
                        ext_scratch.push(v.0);
                    }
                }
            }
            ext_scratch.sort_unstable();
            ext_scratch.dedup();
            slot_node.extend_from_slice(&ext_scratch);
            slot_off.push(slot_node.len());
        }
        let slot_count = slot_node.len();

        // Adjacency (arena → slots) and its reverse (slot → arenas).
        let mut adj_off = Vec::with_capacity(n + 1);
        adj_off.push(0u32);
        let mut adj: Vec<u32> = Vec::with_capacity(g.arc_count());
        for h in 0..h_count {
            let lo = slot_off[h];
            let mid = lo + (arena_off[h + 1] - arena_off[h]);
            let ext = &slot_node[mid..slot_off[h + 1]];
            for &u in assignment.nodes_of(HostId(h as u32)) {
                for &v in g.neighbors(u) {
                    let s = if assignment.host_of(v).index() == h {
                        lo + (arena_of_node[v.index()] as usize - arena_off[h])
                    } else {
                        mid + ext.binary_search(&v.0).expect("ext neighbor present")
                    };
                    adj.push(s as u32);
                }
                adj_off.push(adj.len() as u32);
            }
        }
        let mut rev_off = vec![0u32; slot_count + 1];
        for &s in &adj {
            rev_off[s as usize + 1] += 1;
        }
        for i in 0..slot_count {
            rev_off[i + 1] += rev_off[i];
        }
        let mut rev = vec![0u32; adj.len()];
        let mut cursor = rev_off.clone();
        for a in 0..n {
            for &s in &adj[adj_off[a] as usize..adj_off[a + 1] as usize] {
                rev[cursor[s as usize] as usize] = a as u32;
                cursor[s as usize] += 1;
            }
        }

        // Neighbor hosts per host: the owners of the ext slots, sorted.
        let mut nbr_off = Vec::with_capacity(h_count + 1);
        nbr_off.push(0usize);
        let mut nbr_host: Vec<u32> = Vec::new();
        for h in 0..h_count {
            let mid = slot_off[h] + (arena_off[h + 1] - arena_off[h]);
            let start = nbr_host.len();
            for &e in &slot_node[mid..slot_off[h + 1]] {
                nbr_host.push(assignment.host_of(NodeId(e)).0);
            }
            nbr_host[start..].sort_unstable();
            // Dedup within this host's range only (Vec::dedup would merge
            // across the previous host's boundary).
            let mut w = start;
            for r in start..nbr_host.len() {
                if w == start || nbr_host[w - 1] != nbr_host[r] {
                    nbr_host[w] = nbr_host[r];
                    w += 1;
                }
            }
            nbr_host.truncate(w);
            nbr_off.push(nbr_host.len());
        }

        // Border CSR with destination slots, built linearly: host y's ext
        // region is exactly the union of every other host's border toward
        // y, so one ascending pass per region fills each (x → y) entry in
        // sorted order with the sender-relative local index and the
        // receiver slot. (Neighborhood is symmetric in an undirected
        // graph, so y is always in x's neighbor list.)
        let entry_of = |x: usize, y: u32| -> usize {
            let range = &nbr_host[nbr_off[x]..nbr_off[x + 1]];
            nbr_off[x] + range.binary_search(&y).expect("symmetric neighbor")
        };
        let entries = nbr_host.len();
        let mut border_off = vec![0usize; entries + 1];
        for y in 0..h_count {
            let mid = slot_off[y] + (arena_off[y + 1] - arena_off[y]);
            for &e in &slot_node[mid..slot_off[y + 1]] {
                let x = assignment.host_of(NodeId(e)).index();
                border_off[entry_of(x, y as u32) + 1] += 1;
            }
        }
        for i in 0..entries {
            border_off[i + 1] += border_off[i];
        }
        let mut border_local = vec![0u32; *border_off.last().unwrap()];
        let mut border_slot = vec![0u32; border_local.len()];
        let mut bcursor = border_off.clone();
        for y in 0..h_count {
            let mid = slot_off[y] + (arena_off[y + 1] - arena_off[y]);
            for (r, &e) in slot_node[mid..slot_off[y + 1]].iter().enumerate() {
                let x = assignment.host_of(NodeId(e)).index();
                let c = &mut bcursor[entry_of(x, y as u32)];
                border_local[*c] = arena_of_node[e as usize] - arena_off[x] as u32;
                let s = mid + r;
                border_slot[*c] = if rev_off[s + 1] - rev_off[s] == 1 {
                    SINGLE_LOCAL | rev[rev_off[s] as usize]
                } else {
                    s as u32
                };
                *c += 1;
            }
        }

        // Shards, weighted by arcs + locals (the histogram layout prefix).
        let hist_starts: Vec<usize> = (0..=h_count)
            .map(|h| adj_off[arena_off[h]] as usize + arena_off[h])
            .collect();
        let shards = effective_threads(config.threads, g.arc_count(), h_count);
        let shard_bounds = balance_shards(&hist_starts, shards);
        let mut shard_of_host = vec![0u32; h_count];
        for (s, w) in shard_bounds.windows(2).enumerate() {
            for owner in &mut shard_of_host[w[0]..w[1]] {
                *owner = s as u32;
            }
        }

        let t = Tables {
            arena_off,
            slot_off,
            slot_node,
            adj_off,
            adj,
            rev_off,
            rev,
            nbr_off,
            nbr_host,
            border_off,
            border_local,
            border_slot,
            shard_of_host,
        };

        // Algorithm 3 initialization: locals start at their degree,
        // externals (virtually) at +∞; histograms are built from those
        // values.
        let mut est = vec![0u32; n];
        for (a, e) in est.iter_mut().enumerate() {
            *e = t.degree(a);
        }
        let mut hist = vec![0u32; t.adj.len() + n];
        let mut ge = vec![0u32; n];
        for h in 0..h_count {
            let nlocal = t.nlocal(h);
            let slot_lo = t.slot_off[h];
            // `a` also addresses the degree/histogram tables, so an
            // iterator over `ge` alone would not simplify this loop.
            #[allow(clippy::needless_range_loop)]
            for a in t.arena_off[h]..t.arena_off[h + 1] {
                let cap = t.degree(a);
                let base = t.hist_base(a);
                for &s in &t.adj[t.adj_off[a] as usize..t.adj_off[a + 1] as usize] {
                    // Local neighbor: its degree; external: +∞ (clamped).
                    let v = if (s as usize) < slot_lo + nlocal {
                        let na = t.arena_off[h] + (s as usize - slot_lo);
                        t.degree(na).min(cap)
                    } else {
                        cap
                    };
                    hist[base + v as usize] += 1;
                }
                ge[a] = hist[base + cap as usize];
            }
        }

        let mut this = ActiveSetHostEngine {
            est,
            hist,
            ge,
            changed: vec![false; n],
            last_sent: vec![INFINITY_EST; n],
            msgs_sent: vec![0; h_count],
            pairs_sent: vec![0; h_count],
            policy: config.policy,
            stage_front: (0..shards).map(|_| FlatStage::new(shards)).collect(),
            stage_back: (0..shards).map(|_| FlatStage::new(shards)).collect(),
            inboxes: shard_bounds
                .windows(2)
                .map(|w| vec![Vec::new(); w[1] - w[0]])
                .collect(),
            flush_lists: vec![Vec::new(); shards],
            queued: vec![false; h_count],
            works: (0..shards).map(|_| VecDeque::new()).collect(),
            scratches: vec![Vec::new(); shards],
            shard_bounds,
            t,
            node_count: n,
            round: 0,
            max_rounds: config.effective_max_rounds(n),
            execution_time: 0,
            total_messages: 0,
            started: false,
        };
        this.init_improve();
        this
    }

    /// The constructor's `improveEstimate` (the tail of Algorithm 3's
    /// initialization): seed a drop event for every local whose histogram
    /// justifies less than its degree, then cascade — host by host,
    /// through the same shard views the rounds use.
    fn init_improve(&mut self) {
        let mut views = carve(
            &self.t,
            &self.shard_bounds,
            self.policy,
            &mut self.est,
            &mut self.hist,
            &mut self.ge,
            &mut self.changed,
            &mut self.last_sent,
            &mut self.msgs_sent,
            &mut self.pairs_sent,
            &mut self.queued,
            &mut self.flush_lists,
            &mut self.inboxes,
            &mut self.works,
            &mut self.scratches,
        );
        for view in &mut views {
            for h in view.lo..view.hi {
                view.init_host(h);
            }
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.msgs_sent.len()
    }

    /// 1-based index of the last executed round (0 before the first).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The execution-time counter: rounds in which ≥ 1 message was sent.
    pub fn execution_time(&self) -> u32 {
        self.execution_time
    }

    /// Total `(node, estimate)` pairs sent so far across all hosts — the
    /// numerator of the paper's Figure 5 overhead metric.
    pub fn estimates_sent(&self) -> u64 {
        self.pairs_sent.iter().sum()
    }

    /// Figure 5's y-axis: estimates sent per node.
    pub fn overhead_per_node(&self) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            self.estimates_sent() as f64 / self.node_count as f64
        }
    }

    /// Current estimates for all nodes, indexed by node id.
    pub fn estimates(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.node_count];
        for h in 0..self.host_count() {
            let slot_lo = self.t.slot_off[h];
            let arena_lo = self.t.arena_off[h];
            for i in 0..self.t.nlocal(h) {
                out[self.t.slot_node[slot_lo + i] as usize] = self.est[arena_lo + i];
            }
        }
        out
    }

    /// Whether no batches are staged and no host has unflushed changes
    /// (evaluated between rounds, after [`step`](Self::step)).
    pub fn is_quiescent(&self) -> bool {
        self.stage_front.iter().all(FlatStage::is_empty) && !self.changed.iter().any(|&c| c)
    }

    #[cfg(test)]
    fn shard_bounds(&self) -> &[usize] {
        &self.shard_bounds
    }

    /// Executes one synchronous round (see the module docs for the fused
    /// round structure).
    pub fn step(&mut self) -> HostStepReport {
        self.round += 1;
        let first = !self.started;
        self.started = true;
        let shards = self.shard_bounds.len() - 1;

        let (messages, active_hosts) = {
            let mut views = carve(
                &self.t,
                &self.shard_bounds,
                self.policy,
                &mut self.est,
                &mut self.hist,
                &mut self.ge,
                &mut self.changed,
                &mut self.last_sent,
                &mut self.msgs_sent,
                &mut self.pairs_sent,
                &mut self.queued,
                &mut self.flush_lists,
                &mut self.inboxes,
                &mut self.works,
                &mut self.scratches,
            );
            if shards == 1 {
                let view = &mut views[0];
                if first {
                    view.initial(&mut self.stage_back[0])
                } else {
                    view.round(&self.stage_front, &mut self.stage_back[0], 0)
                }
            } else {
                let stage_front = &self.stage_front;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = views
                        .iter_mut()
                        .zip(self.stage_back.iter_mut())
                        .enumerate()
                        .map(|(s, (view, back_row))| {
                            scope.spawn(move || {
                                if first {
                                    view.initial(back_row)
                                } else {
                                    view.round(stage_front, back_row, s)
                                }
                            })
                        })
                        .collect();
                    let mut messages = 0u64;
                    let mut active = 0u64;
                    for h in handles {
                        let (m, a) = h.join().expect("shard worker panicked");
                        messages += m;
                        active += a;
                    }
                    (messages, active)
                })
            }
        };
        std::mem::swap(&mut self.stage_front, &mut self.stage_back);

        if messages > 0 {
            self.execution_time += 1;
        }
        self.total_messages += messages;
        HostStepReport {
            round: self.round,
            messages,
            active_hosts,
        }
    }

    /// Runs to quiescence, mirroring [`HostSim::run`](crate::HostSim::run)
    /// under the exact `CentralizedDetector`: the run ends after the first
    /// round in which no host is active.
    pub fn run(&mut self) -> RunResult {
        loop {
            let report = self.step();
            if report.active_hosts == 0 || self.round >= self.max_rounds {
                break;
            }
        }
        RunResult {
            execution_time: self.execution_time,
            rounds_executed: self.round,
            total_messages: self.total_messages,
            messages_per_sender: self.msgs_sent.clone(),
            final_estimates: self.estimates(),
            converged: self.is_quiescent(),
        }
    }
}

/// Mutable view of one shard's disjoint host range `[lo, hi)`; the
/// per-local / per-host arrays are rebased to the range start, the
/// topology tables stay global and read-only.
struct FlatShard<'a> {
    lo: usize,
    hi: usize,
    arena_base: usize,
    hist_base: usize,
    policy: DisseminationPolicy,
    est: &'a mut [u32],
    hist: &'a mut [u32],
    ge: &'a mut [u32],
    changed: &'a mut [bool],
    last_sent: &'a mut [u32],
    msgs: &'a mut [u64],
    pairs_sent: &'a mut [u64],
    queued: &'a mut [bool],
    list: &'a mut Vec<u32>,
    inbox: &'a mut [Vec<(u32, u32, u32)>],
    work: &'a mut VecDeque<(u32, u32, u32)>,
    scratch: &'a mut Vec<u32>,
    t: &'a Tables,
}

/// Carves the engine state into disjoint mutable shard views.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn carve<'a>(
    t: &'a Tables,
    bounds: &[usize],
    policy: DisseminationPolicy,
    mut est: &'a mut [u32],
    mut hist: &'a mut [u32],
    mut ge: &'a mut [u32],
    mut changed: &'a mut [bool],
    mut last_sent: &'a mut [u32],
    mut msgs: &'a mut [u64],
    mut pairs_sent: &'a mut [u64],
    mut queued: &'a mut [bool],
    flush_lists: &'a mut [Vec<u32>],
    inboxes: &'a mut [Vec<Vec<(u32, u32, u32)>>],
    works: &'a mut [VecDeque<(u32, u32, u32)>],
    scratches: &'a mut [Vec<u32>],
) -> Vec<FlatShard<'a>> {
    let mut views = Vec::with_capacity(bounds.len() - 1);
    let mut lists = flush_lists.iter_mut();
    let mut inbox_rows = inboxes.iter_mut();
    let mut work_rows = works.iter_mut();
    let mut scratch_rows = scratches.iter_mut();
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let hosts = hi - lo;
        let arenas = t.arena_off[hi] - t.arena_off[lo];
        let hist_len = t.hist_base(t.arena_off[hi]) - t.hist_base(t.arena_off[lo]);
        let (e, e_rest) = est.split_at_mut(arenas);
        let (hh, hh_rest) = hist.split_at_mut(hist_len);
        let (g_, g_rest) = ge.split_at_mut(arenas);
        let (c, c_rest) = changed.split_at_mut(arenas);
        let (l, l_rest) = last_sent.split_at_mut(arenas);
        let (m, m_rest) = msgs.split_at_mut(hosts);
        let (p, p_rest) = pairs_sent.split_at_mut(hosts);
        let (q, q_rest) = queued.split_at_mut(hosts);
        views.push(FlatShard {
            lo,
            hi,
            arena_base: t.arena_off[lo],
            hist_base: t.hist_base(t.arena_off[lo]),
            policy,
            est: e,
            hist: hh,
            ge: g_,
            changed: c,
            last_sent: l,
            msgs: m,
            pairs_sent: p,
            queued: q,
            list: lists.next().expect("one flush list per shard"),
            inbox: inbox_rows.next().expect("one inbox row per shard"),
            work: work_rows.next().expect("one work queue per shard"),
            scratch: scratch_rows.next().expect("one scratch per shard"),
            t,
        });
        est = e_rest;
        hist = hh_rest;
        ge = g_rest;
        changed = c_rest;
        last_sent = l_rest;
        msgs = m_rest;
        pairs_sent = p_rest;
        queued = q_rest;
    }
    views
}

impl FlatShard<'_> {
    /// Feeds one neighbor-estimate drop `old → new` into local `a`'s
    /// histogram — the inlined `IncrementalIndex::update`. If `a`'s own
    /// estimate drops in response, the event is queued for further hops.
    #[inline]
    fn touch_local(&mut self, h: usize, a: usize, old: u32, new: u32) {
        let cap = self.t.degree(a);
        let o = old.min(cap);
        let nn = new.min(cap);
        if o == nn {
            return;
        }
        let hb = self.t.hist_base(a) - self.hist_base;
        self.hist[hb + o as usize] -= 1;
        self.hist[hb + nn as usize] += 1;
        let ai = a - self.arena_base;
        let core = self.est[ai];
        if core == 0 || o < core || nn >= core {
            return;
        }
        let g = self.ge[ai] - 1;
        if g >= core {
            self.ge[ai] = g;
            return;
        }
        let (tt, running) = walk_down(self.hist, hb, core, g);
        self.est[ai] = tt;
        self.ge[ai] = running;
        self.changed[ai] = true;
        self.work
            .push_back((self.t.slot_of_arena(h, a) as u32, core, tt));
    }

    /// One cascade hop: the estimate of slot `s` (host `h`) dropped
    /// `old → new`; feed the histograms of the adjacent locals.
    #[inline]
    fn hop(&mut self, h: usize, s: usize, old: u32, new: u32) {
        for ri in self.t.rev_off[s] as usize..self.t.rev_off[s + 1] as usize {
            let a = self.t.rev[ri] as usize;
            self.touch_local(h, a, old, new);
        }
    }

    /// Drains the drop-event queue (local-slot events; delivered external
    /// drops hop inline at apply time) to the internal fixpoint —
    /// Algorithm 4's `improveEstimate` as a worklist.
    fn cascade(&mut self, h: usize) {
        while let Some((s, old, new)) = self.work.pop_front() {
            self.hop(h, s as usize, old, new);
        }
    }

    /// Seeds and cascades the constructor's `improveEstimate` for host
    /// `h` (histograms must hold the pristine initial estimates).
    fn init_host(&mut self, h: usize) {
        for a in self.t.arena_off[h]..self.t.arena_off[h + 1] {
            let cap = self.t.degree(a);
            let ai = a - self.arena_base;
            if cap > 0 && self.ge[ai] < cap {
                let hb = self.t.hist_base(a) - self.hist_base;
                let (tt, running) = walk_down(self.hist, hb, cap, self.ge[ai]);
                self.est[ai] = tt;
                self.ge[ai] = running;
                self.changed[ai] = true;
                self.work
                    .push_back((self.t.slot_of_arena(h, a) as u32, cap, tt));
            }
        }
        self.cascade(h);
    }

    /// First-round flush: every host announces its initial estimates
    /// (the end of Algorithm 3's initialization). Returns
    /// `(messages, active hosts)`.
    fn initial(&mut self, back_row: &mut FlatStage) -> (u64, u64) {
        back_row.clear();
        let mut messages = 0u64;
        let mut active = 0u64;
        for h in self.lo..self.hi {
            // All locals are announced: stage the full border lists.
            let arena_lo = self.t.arena_off[h];
            let nlocal = self.t.nlocal(h);
            let d = h - self.lo;
            let mut m = 0u64;
            let has_neighbors = self.t.nbr_off[h + 1] > self.t.nbr_off[h];
            if !(self.policy == DisseminationPolicy::Broadcast && (nlocal == 0 || !has_neighbors)) {
                for e in self.t.nbr_off[h]..self.t.nbr_off[h + 1] {
                    let (b0, b1) = (self.t.border_off[e], self.t.border_off[e + 1]);
                    if b0 == b1 {
                        continue;
                    }
                    let start = back_row.pairs.len() as u32;
                    for b in b0..b1 {
                        let i = self.t.border_local[b] as usize;
                        let ai = arena_lo + i - self.arena_base;
                        back_row.pairs.push((
                            self.t.border_slot[b],
                            self.last_sent[ai],
                            self.est[ai],
                        ));
                    }
                    let end = back_row.pairs.len() as u32;
                    let dest = self.t.nbr_host[e];
                    back_row.p2p[self.t.shard_of_host[dest as usize] as usize]
                        .push((dest, start, end));
                    if self.policy == DisseminationPolicy::PointToPoint {
                        self.pairs_sent[d] += (b1 - b0) as u64;
                        self.msgs[d] += 1;
                        m += 1;
                    }
                }
                if self.policy == DisseminationPolicy::Broadcast {
                    // Algorithm 3: one message carrying every local.
                    self.pairs_sent[d] += nlocal as u64;
                    self.msgs[d] += 1;
                    m = 1;
                }
            }
            // Mark everything announced (+∞ → value for border locals).
            for ai in arena_lo..arena_lo + nlocal {
                self.last_sent[ai - self.arena_base] = self.est[ai - self.arena_base];
                self.changed[ai - self.arena_base] = false;
            }
            messages += m;
            active += u64::from(m > 0);
        }
        (messages, active)
    }

    /// One fused round for this shard: group last round's batches by
    /// destination host, then one pass over the worklist hosts — apply
    /// each host's inbound batches, cascade, and flush while its state is
    /// cache-hot. Returns `(messages, active hosts)`.
    fn round(
        &mut self,
        stage_front: &[FlatStage],
        back_row: &mut FlatStage,
        my_shard: usize,
    ) -> (u64, u64) {
        back_row.clear();

        for (ci, cell) in stage_front.iter().enumerate() {
            for &(dest, start, end) in &cell.p2p[my_shard] {
                let d = dest as usize - self.lo;
                if !self.queued[d] {
                    self.queued[d] = true;
                    self.list.push(dest);
                }
                self.inbox[d].push((ci as u32, start, end));
            }
        }

        let mut messages = 0u64;
        let mut active = 0u64;
        let list = std::mem::take(self.list);
        for &hh in &list {
            let h = hh as usize;
            let d = h - self.lo;
            self.queued[d] = false;
            for bi in 0..self.inbox[d].len() {
                let (ci, start, end) = self.inbox[d][bi];
                let cell = &stage_front[ci as usize];
                for &(addr, old, new) in &cell.pairs[start as usize..end as usize] {
                    if addr & SINGLE_LOCAL != 0 {
                        // Single adjacent local, resolved at build time.
                        self.touch_local(h, (addr & !SINGLE_LOCAL) as usize, old, new);
                    } else {
                        self.hop(h, addr as usize, old, new);
                    }
                }
            }
            self.inbox[d].clear();
            self.cascade(h);
            let m = self.flush_host(h, back_row);
            messages += m;
            // Worklist mode: active iff the host sent something.
            active += u64::from(m > 0);
        }
        drop(list);
        (messages, active)
    }

    /// The periodic block of Algorithms 3/5 for one host: collect its
    /// changed locals, clear the flags, and stage the outgoing messages.
    fn flush_host(&mut self, h: usize, back_row: &mut FlatStage) -> u64 {
        let nlocal = self.t.nlocal(h);
        let arena_lo = self.t.arena_off[h];
        let d = h - self.lo;
        self.scratch.clear();
        for i in 0..nlocal {
            let ai = arena_lo + i - self.arena_base;
            if self.changed[ai] {
                self.changed[ai] = false;
                self.scratch.push(i as u32);
            }
        }
        if self.scratch.is_empty() {
            return 0;
        }
        let mut messages = 0u64;
        for e in self.t.nbr_off[h]..self.t.nbr_off[h + 1] {
            let border = &self.t.border_local[self.t.border_off[e]..self.t.border_off[e + 1]];
            let slots = &self.t.border_slot[self.t.border_off[e]..self.t.border_off[e + 1]];
            let start = back_row.pairs.len() as u32;
            if self.scratch.len() * 16 < border.len() {
                // Sparse flush: gallop — binary-search each changed local
                // in the border list.
                let mut from = 0usize;
                for &i in self.scratch.iter() {
                    match border[from..].binary_search(&i) {
                        Ok(p) => {
                            let bi = from + p;
                            let ai = arena_lo + i as usize - self.arena_base;
                            back_row
                                .pairs
                                .push((slots[bi], self.last_sent[ai], self.est[ai]));
                            from = bi + 1;
                        }
                        Err(p) => from += p,
                    }
                    if from >= border.len() {
                        break;
                    }
                }
            } else {
                // Dense flush: merge the two sorted lists.
                let (mut bi, mut ci) = (0usize, 0usize);
                while bi < border.len() && ci < self.scratch.len() {
                    match border[bi].cmp(&self.scratch[ci]) {
                        std::cmp::Ordering::Less => bi += 1,
                        std::cmp::Ordering::Greater => ci += 1,
                        std::cmp::Ordering::Equal => {
                            let ai = arena_lo + border[bi] as usize - self.arena_base;
                            back_row
                                .pairs
                                .push((slots[bi], self.last_sent[ai], self.est[ai]));
                            bi += 1;
                            ci += 1;
                        }
                    }
                }
            }
            let end = back_row.pairs.len() as u32;
            if end == start {
                continue;
            }
            let dest = self.t.nbr_host[e];
            back_row.p2p[self.t.shard_of_host[dest as usize] as usize].push((dest, start, end));
            if self.policy == DisseminationPolicy::PointToPoint {
                self.pairs_sent[d] += (end - start) as u64;
                self.msgs[d] += 1;
                messages += 1;
            }
        }
        if self.policy == DisseminationPolicy::Broadcast {
            // Algorithm 3: one broadcast message per flush, carrying
            // every changed local — sent even when no neighbor applies
            // anything (the medium hears it regardless).
            self.pairs_sent[d] += self.scratch.len() as u64;
            self.msgs[d] += 1;
            messages = 1;
        }
        // The flushed values are now what every tracking host holds.
        for &i in self.scratch.iter() {
            let ai = arena_lo + i as usize - self.arena_base;
            self.last_sent[ai] = self.est[ai];
        }
        messages
    }
}

/// Resolves the worker-thread count: explicit, or available parallelism
/// bounded so each shard keeps at least ~64k arcs of protocol work, never
/// exceeding the host count.
fn effective_threads(configured: usize, arcs: usize, host_count: usize) -> usize {
    let raw = if configured > 0 {
        configured
    } else {
        let by_size = (arcs / 65_536).max(1);
        let available = std::thread::available_parallelism().map_or(1, usize::from);
        available.min(by_size).min(16)
    };
    raw.clamp(1, host_count.max(1))
}

/// Splits hosts into `shards` contiguous ranges of roughly equal weight.
/// `weight` is a prefix-sum table (`weight[h]` = total weight of hosts
/// `< h`). Returns `shards + 1` boundaries from 0 to the host count.
fn balance_shards(weight: &[usize], shards: usize) -> Vec<usize> {
    let n = weight.len() - 1;
    let total = weight[n];
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0);
    for s in 1..shards {
        let target = total * s / shards;
        let b = weight.partition_point(|&w| w < target).min(n);
        let b = (*bounds.last().unwrap()).max(b.saturating_sub(1)).min(n);
        bounds.push(b);
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostSim, HostSimConfig};
    use dkcore::seq::batagelj_zaversnik;
    use dkcore_graph::generators::{complete, gnp, path, star, worst_case};

    fn legacy(g: &Graph, hosts: usize, policy: DisseminationPolicy) -> RunResult {
        let mut config = HostSimConfig::synchronous(hosts);
        config.protocol.policy = policy;
        HostSim::new(g, config).run()
    }

    fn fast(g: &Graph, hosts: usize, policy: DisseminationPolicy, threads: usize) -> RunResult {
        let mut config = ActiveSetHostConfig::synchronous(hosts);
        config.policy = policy;
        config.threads = threads;
        ActiveSetHostEngine::new(g, config).run()
    }

    #[test]
    fn identical_to_legacy_on_graph_families() {
        for (name, g) in [
            ("gnp", gnp(150, 0.05, 3)),
            ("star", star(40)),
            ("complete", complete(12)),
            ("worst_case", worst_case(25)),
            ("path", path(60)),
        ] {
            for policy in [
                DisseminationPolicy::Broadcast,
                DisseminationPolicy::PointToPoint,
            ] {
                for hosts in [1, 4, 9] {
                    for threads in [1, 3] {
                        let a = fast(&g, hosts, policy, threads);
                        let b = legacy(&g, hosts, policy);
                        assert_eq!(a, b, "{name}, {policy:?}, hosts={hosts}, threads={threads}");
                        assert_eq!(a.final_estimates, batagelj_zaversnik(&g), "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn stepwise_state_matches_legacy() {
        // Not just the final result: every intermediate round agrees.
        let g = gnp(80, 0.08, 11);
        let mut config = HostSimConfig::synchronous(5);
        config.protocol.policy = DisseminationPolicy::PointToPoint;
        let mut b = HostSim::new(&g, config);
        let mut fast_config = ActiveSetHostConfig::sequential(5);
        fast_config.policy = DisseminationPolicy::PointToPoint;
        let mut a = ActiveSetHostEngine::new(&g, fast_config);
        loop {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra.messages, rb.messages, "round {}", ra.round);
            assert_eq!(
                ra.active_hosts,
                rb.active_count() as u64,
                "round {}",
                ra.round
            );
            assert_eq!(a.estimates(), b.estimates(), "round {}", ra.round);
            if ra.active_hosts == 0 {
                break;
            }
        }
        assert!(a.is_quiescent() && b.is_quiescent());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = gnp(200, 0.05, 9);
        let r1 = fast(&g, 8, DisseminationPolicy::PointToPoint, 1);
        let r2 = fast(&g, 8, DisseminationPolicy::PointToPoint, 3);
        let r3 = fast(&g, 8, DisseminationPolicy::PointToPoint, 8);
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = Graph::from_edges(0, []).unwrap();
        let r = ActiveSetHostEngine::new(&g, ActiveSetHostConfig::synchronous(3)).run();
        assert!(r.converged);
        assert_eq!(r.total_messages, 0);

        let g = Graph::from_edges(5, []).unwrap();
        let r = ActiveSetHostEngine::new(&g, ActiveSetHostConfig::synchronous(3)).run();
        assert_eq!(r.final_estimates, vec![0; 5]);
        assert_eq!(r.execution_time, 0);
    }

    #[test]
    fn max_rounds_cap_reports_nonconvergence() {
        // One node per host: the worst-case chain needs N - 1 rounds, so a
        // cap of 2 stops the run early.
        let g = worst_case(30);
        let mut config = ActiveSetHostConfig::sequential(30);
        let uncapped = ActiveSetHostEngine::new(&g, config.clone()).run();
        assert!(uncapped.converged && uncapped.rounds_executed > 2);
        config.max_rounds = 2;
        let r = ActiveSetHostEngine::new(&g, config).run();
        assert_eq!(r.rounds_executed, 2);
        assert!(!r.converged);
    }

    #[test]
    fn overhead_accounting_matches_legacy() {
        let g = gnp(100, 0.06, 17);
        let mut legacy_sim = HostSim::new(&g, HostSimConfig::synchronous(8));
        legacy_sim.run();
        let mut engine = ActiveSetHostEngine::new(&g, ActiveSetHostConfig::synchronous(8));
        engine.run();
        assert_eq!(engine.estimates_sent(), legacy_sim.estimates_sent());
        assert!((engine.overhead_per_node() - legacy_sim.overhead_per_node()).abs() < 1e-12);
    }

    #[test]
    fn shard_bounds_cover_all_hosts() {
        let g = gnp(300, 0.03, 1);
        let mut config = ActiveSetHostConfig::synchronous(24);
        config.threads = 5;
        let engine = ActiveSetHostEngine::new(&g, config);
        let b = engine.shard_bounds();
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&24));
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "monotone bounds: {b:?}");
    }
}
