//! Batched streaming maintenance of the k-core decomposition — the
//! engine behind edge-churn streams, where mutations arrive in batches
//! and the decomposition must re-converge without per-edge rescans.
//!
//! [`DynamicCore`](crate::dynamic::DynamicCore) repairs one mutation at a
//! time: every call walks a candidate region and allocates working maps
//! over the whole node set. Over a stream of `B` mutations that is `B`
//! traversals and `O(B·N)` of scratch traffic. This module amortizes the
//! whole batch into **one** repair:
//!
//! * [`AdjacencyArena`] — a slotted-CSR adjacency that supports in-place
//!   sorted insertion/removal (binary search + shift inside a node's
//!   slot, amortized relocation on growth) with all neighbor lists in one
//!   flat arena — no `Vec<Vec<_>>`, no per-mutation rebuilds.
//! * [`EdgeBatch`] — an atomically validated set of insertions and
//!   removals.
//! * [`StreamCore`] — the batched maintenance structure: one call to
//!   [`apply_batch`](StreamCore::apply_batch) applies every mutation and
//!   repairs all coreness values, touching each affected node **once per
//!   batch** instead of once per edge.
//! * [`warm_start_estimates_batch`] — the batch generalization of
//!   [`warm_start_estimates`](crate::dynamic::warm_start_estimates):
//!   safe initial estimates that let the *distributed* protocol
//!   re-converge from a handful of candidate nodes.
//!
//! # The batched repair
//!
//! A batch is applied in two phases:
//!
//! 1. **Removal phase.** All removed edges are taken out of the arena and
//!    a *descent* (below) runs seeded with the removal endpoints only.
//!    Removals never increase coreness, so the pre-batch values are
//!    already safe upper bounds and no candidate analysis is needed; the
//!    descent converges to the exact decomposition of the pruned graph.
//! 2. **Insertion phase.** All inserted edges enter the arena, the
//!    *union candidate set* is computed in one pass (below), candidate
//!    estimates are bumped to a safe upper bound, and a second descent —
//!    seeded from the candidates only — converges to the final
//!    decomposition.
//!
//! The **descent** is the sequential analog of the paper's distributed
//! protocol: every node's estimate only decreases, and a node re-derives
//! its estimate from its neighbors' estimates with Algorithm 2. It reuses
//! the [`IncrementalIndex`] suffix-count histograms: a touched node is
//! scanned **once** to build its histogram, after which every neighbor
//! drop costs `O(1)` amortized — no node is rescanned per edge. Nodes
//! whose inputs never change are never examined at all.
//!
//! # Safety argument (why the upper bounds are upper bounds)
//!
//! Let `core₁` be the exact coreness after the removal phase, `E⁺` the
//! inserted edges, and `G'` the final graph.
//!
//! **Theorem (reach).** If `core'(w) > core₁(w)` for some node `w`, then
//! `w` is connected to an endpoint of some inserted edge by a path whose
//! nodes `x` all satisfy `core₁(x) < core'(w) ≤ core'(x)`.
//!
//! *Proof.* Let `k = core'(w)` and `H` the k-core of `G'`, so `w ∈ H`.
//! Let `P` be the connected component of `w` in `H_< = {x ∈ H :
//! core₁(x) < k}`. If no node of `P` touches an inserted edge inside `H`,
//! then every `x ∈ P` has ≥ `k` `H`-neighbors via *old* edges, each lying
//! in `P` or in `H_≥ = {x ∈ H : core₁(x) ≥ k}`. `H_≥` is contained in the
//! k-core of the pre-insertion graph, so `P ∪ (k-core)` is a subgraph of
//! the pre-insertion graph with min degree ≥ `k` — contradicting
//! `core₁(x) < k` for `x ∈ P`. ∎
//!
//! **Theorem (grouping).** Partition `E⁺` into groups `G_i` and grow for
//! each a region `R_i` containing its endpoints, *closed* under the rule
//! "`x ∈ R_i`, `y` adjacent in `G'`, `|core₁(x) − core₁(y)| ≤ |G_i| − 1`
//! ⇒ `y ∈ R_i`", merging groups whenever their regions touch (so regions
//! are pairwise disjoint and closure holds for the merged size). Then for
//! every node `w`:
//!
//! ```text
//! core'(w) ≤ min(deg'(w), core₁(w) + |G_i|)   if w ∈ R_i,
//! core'(w) = core₁(w)                          otherwise.
//! ```
//!
//! *Proof sketch.* Apply the insertions group by group, one edge at a
//! time, with the invariant `cur(x) ≤ core₁(x) + aᵢ(x)` where `aᵢ(x)`
//! counts applied edges of `x`'s group (`0` outside all regions). A
//! single insertion raises exactly the nodes at the current level
//! `k_e = min(cur(u), cur(v))` reachable from an endpoint through
//! equal-`cur` nodes, each by exactly 1 (the classic traversal insight
//! used by `DynamicCore`). Along such a path, consecutive nodes have
//! `|Δcore₁| ≤ max(a(x), a(y)) ≤ |G_i| − 1`, so by closure and region
//! disjointness the path — and therefore every raised node — stays inside
//! the group's region, preserving the invariant. ∎
//!
//! The descent then converges to the exact coreness from any pointwise
//! upper bound that is capped by the degree: iterates are sandwiched
//! between the true coreness (safety: Algorithm 2 never undershoots an
//! estimate vector that upper-bounds coreness) and the run started from
//! plain degrees, which the paper proves converges (Theorem 3). At the
//! internal fixpoint the estimates are locally justified, and a locally
//! justified assignment is a lower-bound certificate — so the fixpoint
//! *is* the coreness.
//!
//! # Example
//!
//! ```
//! use dkcore::stream::{EdgeBatch, StreamCore};
//! use dkcore::seq::batagelj_zaversnik;
//! use dkcore_graph::{generators::path, NodeId};
//!
//! let mut sc = StreamCore::new(&path(6));
//! let mut batch = EdgeBatch::new();
//! batch.insert(NodeId(0), NodeId(5)); // close the cycle
//! batch.remove(NodeId(2), NodeId(3)); // ... and cut it elsewhere
//! let stats = sc.apply_batch(&batch).unwrap();
//! assert_eq!(sc.values(), batagelj_zaversnik(&sc.to_graph()).as_slice());
//! assert_eq!(stats.inserted, 1);
//! assert_eq!(stats.removed, 1);
//! ```

use std::collections::VecDeque;
use std::time::Instant;

use dkcore_graph::{Graph, GraphBuilder, NodeId};

use crate::dynamic::MutationError;
use crate::seq::batagelj_zaversnik;
use crate::IncrementalIndex;

/// One edge mutation of a churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the (currently absent) edge `{u, v}`.
    Insert(NodeId, NodeId),
    /// Remove the (currently present) edge `{u, v}`.
    Remove(NodeId, NodeId),
}

impl Mutation {
    /// The mutation's endpoints.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            Mutation::Insert(u, v) | Mutation::Remove(u, v) => (u, v),
        }
    }
}

/// A batch of edge mutations with *set* semantics: all removals are
/// validated against the pre-batch graph, all insertions against the
/// post-removal graph, and the whole batch is applied atomically (a
/// validation error leaves the structure untouched). An edge may appear
/// in both lists — it is removed and re-inserted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    insertions: Vec<(NodeId, NodeId)>,
    removals: Vec<(NodeId, NodeId)>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// Builds a batch from a mutation sequence.
    pub fn from_mutations<I: IntoIterator<Item = Mutation>>(mutations: I) -> Self {
        let mut b = EdgeBatch::new();
        for m in mutations {
            match m {
                Mutation::Insert(u, v) => b.insert(u, v),
                Mutation::Remove(u, v) => b.remove(u, v),
            };
        }
        b
    }

    /// Queues the insertion of `{u, v}`.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.insertions.push(ordered(u, v));
        self
    }

    /// Queues the removal of `{u, v}`.
    pub fn remove(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.removals.push(ordered(u, v));
        self
    }

    /// The queued insertions, endpoints ordered.
    pub fn insertions(&self) -> &[(NodeId, NodeId)] {
        &self.insertions
    }

    /// The queued removals, endpoints ordered.
    pub fn removals(&self) -> &[(NodeId, NodeId)] {
        &self.removals
    }

    /// Total number of queued mutations.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.removals.len()
    }

    /// Whether the batch holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.removals.is_empty()
    }

    /// The inverse batch: applying `self` then `self.inverse()` restores
    /// the original edge set. Removals become insertions and vice versa.
    ///
    /// This is the replay/rollback hook for batch-log consumers: a
    /// replica catching up replays logged batches forward, and a writer
    /// aborting a failed batch attempt applies the inverse to roll its
    /// adjacency back to the last published epoch.
    pub fn inverse(&self) -> EdgeBatch {
        EdgeBatch {
            insertions: self.removals.clone(),
            removals: self.insertions.clone(),
        }
    }

    /// Validates the batch against a graph with `n` nodes whose edge set
    /// is exposed through `has_edge`: all removals must name present
    /// edges, all insertions absent ones (unless the same batch also
    /// removes them), duplicates and bad endpoints are rejected. This is
    /// the exact rule [`StreamCore::apply_batch`] enforces, exported so
    /// other batch appliers (e.g. the sharded serving layer) stay
    /// bit-compatible with it.
    ///
    /// # Errors
    ///
    /// Returns the first [`MutationError`] found.
    pub fn validate_against<F>(&self, n: usize, has_edge: F) -> Result<(), MutationError>
    where
        F: Fn(NodeId, NodeId) -> bool,
    {
        let endpoints_ok = |&(u, v): &(NodeId, NodeId)| -> Result<(), MutationError> {
            if u == v || u.index() >= n || v.index() >= n {
                return Err(MutationError::InvalidEndpoints { u, v });
            }
            Ok(())
        };
        let mut removals = self.removals().to_vec();
        removals.sort_unstable();
        for (i, r) in removals.iter().enumerate() {
            endpoints_ok(r)?;
            let &(u, v) = r;
            if i > 0 && removals[i - 1] == (u, v) {
                // A duplicate removal: the second one targets a missing edge.
                return Err(MutationError::EdgeState {
                    u,
                    v,
                    present: false,
                });
            }
            if !has_edge(u, v) {
                return Err(MutationError::EdgeState {
                    u,
                    v,
                    present: false,
                });
            }
        }
        let mut insertions = self.insertions().to_vec();
        insertions.sort_unstable();
        for (i, ins) in insertions.iter().enumerate() {
            endpoints_ok(ins)?;
            let &(u, v) = ins;
            let dup = i > 0 && insertions[i - 1] == (u, v);
            let present = has_edge(u, v);
            let also_removed = removals.binary_search(&(u, v)).is_ok();
            if dup || (present && !also_removed) {
                return Err(MutationError::EdgeState {
                    u,
                    v,
                    present: true,
                });
            }
        }
        Ok(())
    }
}

fn ordered(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Statistics of one [`StreamCore::apply_batch`] repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Edges inserted.
    pub inserted: usize,
    /// Edges removed.
    pub removed: usize,
    /// Distinct nodes examined by the repair (candidate regions plus
    /// descent cascades) — the batch's working set.
    pub candidates: usize,
    /// Nodes whose coreness differs from before the batch.
    pub changed: usize,
    /// Insertion candidate groups after region merging (0 for pure
    /// removal batches).
    pub regions: usize,
}

/// Wall-clock split of the most recent [`StreamCore::apply_batch`]
/// repair, populated only when phase timing is on
/// ([`StreamCore::set_phase_timing`]).
///
/// Deliberately *not* part of [`BatchStats`]: stats are deterministic
/// work counters, and wall times never can be. Telemetry layers read this through
/// [`StreamCore::last_phase_times`] and feed it into their own
/// histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes {
    /// Removal arc mutation + exact removal descent (Phase A).
    pub removal_us: u64,
    /// Candidate-region growth (union-find merge + BFS closure).
    pub region_us: u64,
    /// Insertion bump + descent to the fixpoint (Phase B remainder).
    pub insert_us: u64,
    /// Delta tally over the touched set (the export snapshot builders
    /// consume).
    pub export_us: u64,
}

/// Slotted-CSR adjacency: every node's sorted neighbor list lives in a
/// contiguous slot of one flat arena, with amortized-doubling relocation
/// on overflow. Insertions and removals keep the list sorted with a
/// binary search plus an in-slot shift — the mutable counterpart of the
/// immutable [`Graph`] CSR, with no per-node heap allocations.
#[derive(Debug, Clone)]
pub struct AdjacencyArena {
    /// Slot start of node `u` in `pool`.
    start: Vec<usize>,
    /// Live neighbors of node `u` (prefix of the slot).
    len: Vec<u32>,
    /// Slot capacity of node `u`.
    cap: Vec<u32>,
    /// The arena. Slots are disjoint; relocation leaves dead ranges that
    /// are reclaimed by [`compact`](Self::compact).
    pool: Vec<u32>,
    /// Total live slot capacity (for the compaction trigger).
    live: usize,
}

impl AdjacencyArena {
    /// Builds the arena from a static graph (one packed copy).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let mut start = Vec::with_capacity(n);
        let mut len = Vec::with_capacity(n);
        let mut pool = Vec::with_capacity(g.arc_count());
        for u in g.nodes() {
            start.push(pool.len());
            let nbrs = g.neighbors(u);
            pool.extend(nbrs.iter().map(|v| v.0));
            len.push(nbrs.len() as u32);
        }
        AdjacencyArena {
            start,
            cap: len.clone(),
            len,
            live: pool.len(),
            pool,
        }
    }

    /// Builds the arena from explicit sorted neighbor lists — the
    /// constructor for slot spaces that are not `0..n` graph ids, such as
    /// a shard arena whose slots are shard-local node indices while the
    /// stored values stay global.
    ///
    /// Each list must be strictly ascending (debug-asserted).
    pub fn from_sorted_lists<I, J>(lists: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = u32>,
    {
        let mut start = Vec::new();
        let mut len = Vec::new();
        let mut pool: Vec<u32> = Vec::new();
        for list in lists {
            let s = pool.len();
            start.push(s);
            pool.extend(list);
            debug_assert!(
                pool[s..].windows(2).all(|w| w[0] < w[1]),
                "neighbor lists must be strictly ascending"
            );
            len.push((pool.len() - s) as u32);
        }
        AdjacencyArena {
            start,
            cap: len.clone(),
            len,
            live: pool.len(),
            pool,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.len.len()
    }

    /// Current degree of `u`.
    pub fn degree(&self, u: usize) -> u32 {
        self.len[u]
    }

    /// Sorted neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.pool[self.start[u]..self.start[u] + self.len[u] as usize]
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum::<usize>() / 2
    }

    /// Inserts the undirected edge `{u, v}` (both arcs). Returns `false`
    /// (and changes nothing) if it was already present.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range; callers validate.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.insert_arc(u.index(), v.0) {
            return false;
        }
        let inserted = self.insert_arc(v.index(), u.0);
        debug_assert!(inserted, "arc directions in sync");
        true
    }

    /// Removes the undirected edge `{u, v}` (both arcs). Returns `false`
    /// (and changes nothing) if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range; callers validate.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.remove_arc(u.index(), v.0) {
            return false;
        }
        let removed = self.remove_arc(v.index(), u.0);
        debug_assert!(removed, "arc directions in sync");
        true
    }

    /// Inserts `v` into `u`'s sorted list (one direction). Returns `false`
    /// if already present.
    ///
    /// Public for callers that manage both arc directions themselves —
    /// e.g. a sharded service whose slots are shard-local while the
    /// stored values are global node ids, so the matching reverse arc
    /// lives in a *different* arena.
    pub fn insert_arc(&mut self, u: usize, v: u32) -> bool {
        let Err(pos) = self.neighbors(u).binary_search(&v) else {
            return false;
        };
        if self.len[u] == self.cap[u] {
            self.grow(u);
        }
        let s = self.start[u];
        let l = self.len[u] as usize;
        // Shift the tail right by one inside the slot.
        self.pool.copy_within(s + pos..s + l, s + pos + 1);
        self.pool[s + pos] = v;
        self.len[u] += 1;
        true
    }

    /// Removes `v` from `u`'s sorted list (one direction). Returns `false`
    /// if absent. See [`insert_arc`](Self::insert_arc) for when one-sided
    /// arc maintenance is the right tool.
    pub fn remove_arc(&mut self, u: usize, v: u32) -> bool {
        let Ok(pos) = self.neighbors(u).binary_search(&v) else {
            return false;
        };
        let s = self.start[u];
        let l = self.len[u] as usize;
        self.pool.copy_within(s + pos + 1..s + l, s + pos);
        self.len[u] -= 1;
        true
    }

    /// Relocates `u`'s slot to the arena end with doubled capacity.
    fn grow(&mut self, u: usize) {
        let new_cap = (self.cap[u] * 2).max(4);
        let s = self.start[u];
        let l = self.len[u] as usize;
        let new_start = self.pool.len();
        self.pool.extend_from_within(s..s + l);
        self.pool.resize(new_start + new_cap as usize, u32::MAX);
        self.start[u] = new_start;
        self.live += (new_cap - self.cap[u]) as usize;
        self.cap[u] = new_cap;
        // Reclaim dead ranges once they dominate the arena.
        if self.pool.len() > 2 * self.live.max(64) {
            self.compact();
        }
    }

    /// Repacks all slots front to back, dropping dead ranges.
    fn compact(&mut self) {
        let mut pool = Vec::with_capacity(self.live);
        for u in 0..self.len.len() {
            let s = self.start[u];
            let l = self.len[u] as usize;
            self.start[u] = pool.len();
            pool.extend_from_slice(&self.pool[s..s + l]);
            pool.resize(self.start[u] + self.cap[u] as usize, u32::MAX);
        }
        self.pool = pool;
    }

    /// Snapshot as an immutable [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.node_count()).expect("node count fits");
        for u in 0..self.node_count() {
            for &v in self.neighbors(u) {
                if (u as u32) < v {
                    b.add_edge(NodeId(u as u32), NodeId(v));
                }
            }
        }
        b.build()
    }
}

impl PartialEq for AdjacencyArena {
    /// Logical equality: same node count and same neighbor lists (slot
    /// layout and dead arena ranges are representation details).
    fn eq(&self, other: &Self) -> bool {
        self.node_count() == other.node_count()
            && (0..self.node_count()).all(|u| self.neighbors(u) == other.neighbors(u))
    }
}

impl Eq for AdjacencyArena {}

/// Batched streaming k-core maintenance. See the [module docs](self) for
/// the algorithm and its safety argument.
#[derive(Debug, Clone)]
pub struct StreamCore {
    adj: AdjacencyArena,
    /// Current coreness (exact between batches; the descending estimate
    /// during a repair).
    core: Vec<u32>,

    // --- persistent, stamp-invalidated scratch (no per-batch O(N) work) ---
    /// Phase counter: bumping it invalidates `seen` and the index table.
    phase: u64,
    /// Batch counter: bumping it invalidates `claimed` and `touched_mark`.
    batch: u64,
    /// Node examined this phase (enqueued or histogram built).
    seen: Vec<u64>,
    /// Node has a live histogram this phase; its pool slot is `idx_of`.
    idx_built: Vec<u64>,
    /// Pool slot of a node's histogram, valid when `idx_built` matches.
    idx_of: Vec<u32>,
    /// Recycled histogram pool: slots `0..idx_used` are live this phase,
    /// the rest keep their allocations for rebuilding.
    idx_pool: Vec<IncrementalIndex>,
    /// Live prefix of `idx_pool` this phase.
    idx_used: usize,
    /// Node recorded in `touched` this batch.
    touched_mark: Vec<u64>,
    /// `(node, pre-batch coreness)` of every examined node.
    touched: Vec<(u32, u32)>,
    /// Descent worklist.
    queue: VecDeque<u32>,
    /// Drop-event queue `(node, old, new)` driving the cascade.
    events: VecDeque<(u32, u32, u32)>,
    /// Whether [`apply_batch`](Self::apply_batch) wall-clocks its repair
    /// phases into `phase_times` (off by default: four `Instant` reads
    /// per batch are cheap but not free).
    time_phases: bool,
    /// Phase split of the most recent batch when `time_phases` is on.
    phase_times: PhaseTimes,
}

impl StreamCore {
    /// Builds the structure from a static graph (full Batagelj–Zaveršnik
    /// pass).
    pub fn new(g: &Graph) -> Self {
        let n = g.node_count();
        StreamCore {
            adj: AdjacencyArena::from_graph(g),
            core: batagelj_zaversnik(g),
            phase: 0,
            batch: 0,
            seen: vec![0; n],
            idx_built: vec![0; n],
            idx_of: vec![0; n],
            idx_pool: Vec::new(),
            idx_used: 0,
            touched_mark: vec![0; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
            events: VecDeque::new(),
            time_phases: false,
            phase_times: PhaseTimes::default(),
        }
    }

    /// Turns per-phase wall-clock timing of
    /// [`apply_batch`](Self::apply_batch) on or off (default off); read
    /// the split with [`last_phase_times`](Self::last_phase_times).
    pub fn set_phase_timing(&mut self, on: bool) {
        self.time_phases = on;
    }

    /// Builder-style [`set_phase_timing`](Self::set_phase_timing).
    #[must_use]
    pub fn with_phase_timing(mut self, on: bool) -> Self {
        self.set_phase_timing(on);
        self
    }

    /// Phase split of the most recent batch; all zeros when phase timing
    /// is off or before the first batch.
    pub fn last_phase_times(&self) -> PhaseTimes {
        self.phase_times
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.core.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.edge_count()
    }

    /// Current coreness of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn coreness(&self, u: NodeId) -> u32 {
        self.core[u.index()]
    }

    /// Current coreness of every node.
    pub fn values(&self) -> &[u32] {
        &self.core
    }

    /// Current degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> u32 {
        self.adj.degree(u.index())
    }

    /// Whether the edge `{u, v}` currently exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.adj.node_count() && self.adj.has_edge(u.index(), v.0)
    }

    /// Snapshot of the current graph.
    pub fn to_graph(&self) -> Graph {
        self.adj.to_graph()
    }

    /// Current degree of every node, read straight off the arena.
    ///
    /// Together with [`values`](Self::values) and
    /// [`adjacency`](Self::adjacency) this is the cheap read-only state
    /// export consumed by snapshot builders (e.g. `dkcore-serve`): the
    /// coreness values are exact between batches, so nothing has to be
    /// re-derived with a fresh decomposition pass.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.adj.node_count())
            .map(|u| self.adj.degree(u))
            .collect()
    }

    /// Read-only view of the slotted-CSR adjacency arena.
    pub fn adjacency(&self) -> &AdjacencyArena {
        &self.adj
    }

    /// The per-batch delta: every node the most recent
    /// [`apply_batch`](Self::apply_batch) examined, with its *pre-batch*
    /// coreness. Nodes not listed are untouched — their coreness,
    /// degree, and adjacency are identical to the previous batch
    /// boundary (adjacency additionally changes only at the batch's own
    /// edge endpoints).
    ///
    /// This is the export incremental snapshot builders (e.g.
    /// `dkcore-serve`) consume to publish an epoch in `O(|touched|)`
    /// instead of rebuilding `O(N + M)` state. Valid until the next
    /// `apply_batch` call; empty before the first one.
    pub fn last_touched(&self) -> &[(u32, u32)] {
        &self.touched
    }

    /// `(node, old, new)` for every node whose coreness changed in the
    /// most recent [`apply_batch`](Self::apply_batch) — the filtered
    /// view of [`last_touched`](Self::last_touched).
    pub fn last_coreness_changes(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.touched
            .iter()
            .filter(|&&(u, old)| self.core[u as usize] != old)
            .map(|&(u, old)| (u, old, self.core[u as usize]))
    }

    /// Inserts one edge — a batch of one.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError`] if the edge exists or the endpoints are
    /// invalid.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<BatchStats, MutationError> {
        let mut b = EdgeBatch::new();
        b.insert(u, v);
        self.apply_batch(&b)
    }

    /// Removes one edge — a batch of one.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError`] if the edge is absent or the endpoints
    /// are invalid.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<BatchStats, MutationError> {
        let mut b = EdgeBatch::new();
        b.remove(u, v);
        self.apply_batch(&b)
    }

    /// Applies a whole batch atomically and repairs the decomposition.
    ///
    /// Removals are validated against the pre-batch graph, insertions
    /// against the post-removal graph; on any validation error nothing is
    /// mutated. See the [module docs](self) for the repair itself.
    ///
    /// # Errors
    ///
    /// Returns the first [`MutationError`] found during validation.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<BatchStats, MutationError> {
        self.validate(batch)?;
        self.batch += 1;
        self.touched.clear();
        self.phase_times = PhaseTimes::default();

        // --- Phase A: removals, exact descent from the old coreness. ---
        let clock = self.time_phases.then(Instant::now);
        for &(u, v) in batch.removals() {
            self.adj.remove_arc(u.index(), v.0);
            self.adj.remove_arc(v.index(), u.0);
        }
        if !batch.removals().is_empty() {
            self.begin_phase();
            for &(u, v) in batch.removals() {
                self.enqueue(u.0);
                self.enqueue(v.0);
            }
            self.descend();
        }
        if let Some(t) = clock {
            self.phase_times.removal_us = t.elapsed().as_micros() as u64;
        }

        // --- Phase B: insertions, candidate regions + bumped descent. ---
        for &(u, v) in batch.insertions() {
            self.adj.insert_arc(u.index(), v.0);
            self.adj.insert_arc(v.index(), u.0);
        }
        let mut regions = 0usize;
        if !batch.insertions().is_empty() {
            regions = self.insertion_phase(batch.insertions());
        }

        let clock = self.time_phases.then(Instant::now);
        let changed = self
            .touched
            .iter()
            .filter(|&&(u, old)| self.core[u as usize] != old)
            .count();
        if let Some(t) = clock {
            self.phase_times.export_us = t.elapsed().as_micros() as u64;
        }
        Ok(BatchStats {
            inserted: batch.insertions().len(),
            removed: batch.removals().len(),
            candidates: self.touched.len(),
            changed,
            regions,
        })
    }

    /// Validates the whole batch against the current graph without
    /// mutating anything.
    fn validate(&self, batch: &EdgeBatch) -> Result<(), MutationError> {
        batch.validate_against(self.adj.node_count(), |u, v| {
            self.adj.has_edge(u.index(), v.0)
        })
    }

    /// Opens a fresh descent phase: invalidates every histogram and
    /// every `seen` stamp in O(1). Pool allocations are kept for
    /// recycling.
    fn begin_phase(&mut self) {
        self.phase += 1;
        self.idx_used = 0;
        self.queue.clear();
        self.events.clear();
    }

    /// Marks a node examined (for stats) and queues it for the descent.
    fn enqueue(&mut self, u: u32) {
        self.touch(u);
        if self.seen[u as usize] != self.phase {
            self.seen[u as usize] = self.phase;
            self.queue.push_back(u);
        }
    }

    /// Records a node's pre-batch coreness once per batch.
    fn touch(&mut self, u: u32) {
        if self.touched_mark[u as usize] != self.batch {
            self.touched_mark[u as usize] = self.batch;
            self.touched.push((u, self.core[u as usize]));
        }
    }

    /// Runs the descent to its fixpoint: pops queued nodes, lazily builds
    /// their histograms from the *current* estimates (one neighbor scan
    /// per touched node per phase), and cascades drops through already
    /// built histograms in amortized O(1) per event.
    fn descend(&mut self) {
        while let Some(w) = self.queue.pop_front() {
            let wi = w as usize;
            if self.idx_built[wi] != self.phase {
                let cap = self.core[wi];
                let slot = self.idx_used;
                if slot == self.idx_pool.len() {
                    self.idx_pool.push(IncrementalIndex::from_estimates(
                        self.adj
                            .neighbors(wi)
                            .iter()
                            .map(|&y| self.core[y as usize]),
                        cap,
                    ));
                } else {
                    self.idx_pool[slot].rebuild(
                        self.adj
                            .neighbors(wi)
                            .iter()
                            .map(|&y| self.core[y as usize]),
                        cap,
                    );
                }
                self.idx_used += 1;
                self.idx_built[wi] = self.phase;
                self.idx_of[wi] = slot as u32;
            }
            let t = self.idx_pool[self.idx_of[wi] as usize].core();
            if t < self.core[wi] {
                self.drop_to(w, t);
            }
        }
    }

    /// Lowers `w`'s estimate and drains the resulting drop cascade.
    /// Invariant: the event queue is empty when histograms are built, so
    /// a histogram sees exactly the drops that occur after its creation.
    fn drop_to(&mut self, w: u32, new: u32) {
        self.touch(w);
        let old = self.core[w as usize];
        self.core[w as usize] = new;
        self.events.push_back((w, old, new));
        while let Some((s, o, n)) = self.events.pop_front() {
            let (a, b) = (
                self.adj.start[s as usize],
                self.adj.start[s as usize] + self.adj.len[s as usize] as usize,
            );
            for p in a..b {
                let y = self.adj.pool[p];
                let yi = y as usize;
                if self.idx_built[yi] == self.phase {
                    let idx = &mut self.idx_pool[self.idx_of[yi] as usize];
                    if idx.update(o, n) {
                        self.touch(y);
                        let oy = self.core[yi];
                        let ny = self.idx_pool[self.idx_of[yi] as usize].core();
                        self.core[yi] = ny;
                        self.events.push_back((y, oy, ny));
                    }
                } else if self.seen[yi] != self.phase {
                    self.touch(y);
                    self.seen[yi] = self.phase;
                    self.queue.push_back(y);
                }
            }
        }
    }

    /// Insertion phase: grows the merged candidate regions, bumps
    /// candidate estimates to the proven upper bound, and descends.
    /// Returns the number of merged regions.
    fn insertion_phase(&mut self, insertions: &[(NodeId, NodeId)]) -> usize {
        // The removal phase already ran, so `core` is exact for the
        // post-removal graph and no removal slack is needed here.
        let clock = self.time_phases.then(Instant::now);
        let regions = {
            let adj = &self.adj;
            candidate_regions(self.core.len(), insertions, &[], &self.core, |x| {
                adj.neighbors(x as usize).iter().copied()
            })
        };
        let clock = clock.map(|t| {
            self.phase_times.region_us = t.elapsed().as_micros() as u64;
            Instant::now()
        });
        let count = regions.len();
        // Bump and seed: est ← min(deg', core₁ + group insertions).
        self.begin_phase();
        for region in regions {
            let bump = region.insertions;
            for w in region.members {
                let wi = w as usize;
                self.touch(w); // record core₁ before the bump
                let est = (self.core[wi] + bump).min(self.adj.degree(wi));
                self.core[wi] = self.core[wi].max(est);
                self.enqueue(w);
            }
        }
        self.descend();
        if let Some(t) = clock {
            self.phase_times.insert_us = t.elapsed().as_micros() as u64;
        }
        count
    }
}

/// One merged candidate region of [`candidate_regions`]: the nodes whose
/// coreness the group's mutations may change, together with the group's
/// mutation counts (the insertion count is the proven estimate bump).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateRegion {
    /// Inserted edges merged into this group — members' coreness can rise
    /// by at most this much.
    pub insertions: u32,
    /// Removed edges merged into this group — the group's share of the
    /// removal slack (widens the traversal window, never the bump).
    pub removals: u32,
    /// The region's nodes.
    pub members: Vec<u32>,
}

/// Grows the merged candidate regions of the [module](self) theorem:
/// union-find over edge groups (every inserted *and* removed edge seeds
/// its own group), each region closed under the "`|Δcore| ≤ window`"
/// traversal rule with `window = max(insertions − 1, 0) + removals`
/// counted *per group*, groups merged whenever their regions touch.
///
/// Seeding the removals as groups of their own is what regionalizes the
/// removal slack: a removal's influence (the nodes whose coreness its
/// drop cascade can lower) stays connected to its endpoints through
/// nodes whose pre-batch coreness differs by at most the number of
/// removals compounding there — two adjacent nodes that were at the same
/// *current* level when a drop propagated satisfy
/// `|core₁(x) − core₁(y)| = |δ(x) − δ(y)| ≤ r` once every removal
/// affecting them is merged into the same group of `r` removals, and the
/// merge fixpoint below guarantees exactly that. Removals that never
/// touch an insertion region therefore contribute **no** slack to it,
/// instead of the former global `+removed_count` on every window.
///
/// Merges widen a group's window, so its members must be re-expanded;
/// re-expansion is deferred to drain rounds (all merges of a round are
/// re-pushed together, and a node is skipped unless its group's window
/// grew since its last scan), keeping the growth near-linear in the
/// final region size instead of `O(merges × region)`.
///
/// `core` is the pre-batch coreness, `neighbors` the **post-batch**
/// adjacency. Exported for warm-start planners outside this module (the
/// sharded serving layer grows its cross-shard candidate regions through
/// a shard-backed `neighbors` closure).
pub fn candidate_regions<N, I>(
    n: usize,
    insertions: &[(NodeId, NodeId)],
    removals: &[(NodeId, NodeId)],
    core: &[u32],
    neighbors: N,
) -> Vec<CandidateRegion>
where
    N: Fn(u32) -> I,
    I: Iterator<Item = u32>,
{
    let b = insertions.len() + removals.len();
    if b == 0 {
        return Vec::new();
    }
    let mut parent: Vec<u32> = (0..b as u32).collect();
    // Per-group mutation counts, authoritative at the group root.
    let mut ins: Vec<u32> = vec![0; b];
    let mut rem: Vec<u32> = vec![0; b];
    ins[..insertions.len()].fill(1);
    rem[insertions.len()..].fill(1);
    // Region member lists, authoritative at the group root.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); b];
    let mut region_of: Vec<u32> = vec![u32::MAX; n];
    // Window a node was last expanded with, stored as `window + 1`
    // (`0` = never scanned).
    let mut scanned: Vec<u32> = vec![0; n];
    let mut dirty: Vec<bool> = vec![false; b];
    let mut frontier: VecDeque<u32> = VecDeque::new();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    fn window(ins: u32, rem: u32) -> u32 {
        ins.saturating_sub(1) + rem
    }

    /// Claims `w` for (the root of) `g`; on contact with another region
    /// the groups union and the root is marked for re-expansion.
    #[allow(clippy::too_many_arguments)]
    fn claim(
        w: u32,
        g: u32,
        parent: &mut [u32],
        ins: &mut [u32],
        rem: &mut [u32],
        members: &mut [Vec<u32>],
        region_of: &mut [u32],
        frontier: &mut VecDeque<u32>,
        dirty: &mut [bool],
    ) {
        let g = find(parent, g);
        let wi = w as usize;
        if region_of[wi] == u32::MAX {
            region_of[wi] = g;
            members[g as usize].push(w);
            frontier.push_back(w);
            return;
        }
        let h = find(parent, region_of[wi]);
        if h == g {
            return;
        }
        // Union by member-list size; the child's list moves to the root.
        let (root, child) = if members[g as usize].len() >= members[h as usize].len() {
            (g, h)
        } else {
            (h, g)
        };
        parent[child as usize] = root;
        ins[root as usize] += ins[child as usize];
        rem[root as usize] += rem[child as usize];
        let moved = std::mem::take(&mut members[child as usize]);
        members[root as usize].extend_from_slice(&moved);
        dirty[root as usize] = true;
        dirty[child as usize] = false;
    }

    // Seed with the mutated endpoints (merging shared endpoints).
    for (ei, &(u, v)) in insertions.iter().chain(removals.iter()).enumerate() {
        for w in [u.0, v.0] {
            claim(
                w,
                ei as u32,
                &mut parent,
                &mut ins,
                &mut rem,
                &mut members,
                &mut region_of,
                &mut frontier,
                &mut dirty,
            );
        }
    }
    loop {
        while let Some(x) = frontier.pop_front() {
            let g = find(&mut parent, region_of[x as usize]);
            let win = window(ins[g as usize], rem[g as usize]);
            if scanned[x as usize] > win {
                continue; // already expanded at this window or wider
            }
            scanned[x as usize] = win + 1;
            let cx = core[x as usize];
            for y in neighbors(x) {
                if core[y as usize].abs_diff(cx) <= win {
                    claim(
                        y,
                        g,
                        &mut parent,
                        &mut ins,
                        &mut rem,
                        &mut members,
                        &mut region_of,
                        &mut frontier,
                        &mut dirty,
                    );
                }
            }
        }
        // Merges widened some windows: re-expand those groups' members.
        let mut any = false;
        for gi in 0..b {
            if dirty[gi] && parent[gi] == gi as u32 {
                dirty[gi] = false;
                any = true;
                frontier.extend(members[gi].iter().copied());
            }
        }
        if !any {
            break;
        }
    }
    (0..b)
        .filter(|&gi| parent[gi] == gi as u32)
        .map(|gi| CandidateRegion {
            insertions: ins[gi],
            removals: rem[gi],
            members: std::mem::take(&mut members[gi]),
        })
        .collect()
}

/// Safe initial estimates for re-running the **distributed** protocol
/// after a whole batch of mutations — the batch generalization of
/// [`warm_start_estimates`](crate::dynamic::warm_start_estimates).
///
/// * `old_core` — exact coreness *before* the batch;
/// * `new_graph` — the graph *after* the batch;
/// * `inserted` — the batch's inserted edges;
/// * `removed` — the batch's removed edges.
///
/// Every returned estimate upper-bounds the node's new coreness, so a
/// warm-started descending protocol (e.g.
/// `dkcore_sim::ActiveSetEngine::with_estimates`) converges to the new
/// decomposition in a handful of rounds: unaffected nodes confirm their
/// old value immediately and only the candidate regions exchange
/// messages.
///
/// The bound is the one-pass variant of the [module](self) theorem run
/// directly on the *old* coreness (no exact removal phase is available
/// here): [`candidate_regions`] grows merged regions seeded by both the
/// inserted and the removed edges, with window
/// `(group insertions − 1) + group removals` — the removal slack is
/// counted **per region**, so removals that never touch an insertion's
/// neighborhood no longer widen its window the way the former global
/// `removed_count` slack did. Region members are bumped by the group's
/// insertion count, capped by the new degree; nodes outside every region
/// keep their old value (also capped by the new degree, which removals
/// may have lowered).
///
/// # Example
///
/// ```
/// use dkcore::stream::warm_start_estimates_batch;
/// use dkcore_graph::{Graph, NodeId};
///
/// // Close a 5-path into a cycle: everyone may now reach 2.
/// let old = vec![1, 1, 1, 1, 1];
/// let cycle = Graph::from_edges(5, [(0,1),(1,2),(2,3),(3,4),(4,0)])?;
/// let est = warm_start_estimates_batch(&old, &cycle, &[(NodeId(0), NodeId(4))], &[]);
/// assert!(est.iter().all(|&e| e == 2));
/// # Ok::<(), dkcore_graph::GraphError>(())
/// ```
pub fn warm_start_estimates_batch(
    old_core: &[u32],
    new_graph: &Graph,
    inserted: &[(NodeId, NodeId)],
    removed: &[(NodeId, NodeId)],
) -> Vec<u32> {
    let n = new_graph.node_count();
    assert_eq!(old_core.len(), n, "one old coreness per node");
    let mut est: Vec<u32> = old_core.to_vec();

    if !inserted.is_empty() {
        let regions = candidate_regions(n, inserted, removed, old_core, |x| {
            new_graph.neighbors(NodeId(x)).iter().map(|v| v.0)
        });
        for region in regions {
            if region.insertions == 0 {
                continue; // removal-only region: no bump to apply
            }
            for w in region.members {
                est[w as usize] = old_core[w as usize] + region.insertions;
            }
        }
    }

    // Degrees always cap estimates (see `warm_start_estimates`).
    for u in new_graph.nodes() {
        est[u.index()] = est[u.index()].min(new_graph.degree(u));
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkcore_graph::generators::{complete, gnp, path, star, worst_case};
    use rand::prelude::*;

    #[test]
    fn arena_roundtrip_and_mutation() {
        let g = gnp(200, 0.04, 9);
        let mut a = AdjacencyArena::from_graph(&g);
        assert_eq!(a.to_graph(), g);
        assert!(a.insert_arc(0, 199));
        assert!(a.insert_arc(199, 0));
        assert!(!a.insert_arc(0, 199), "duplicate insert rejected");
        assert!(a.has_edge(0, 199));
        assert!(a.remove_arc(0, 199));
        assert!(a.remove_arc(199, 0));
        assert!(!a.remove_arc(0, 199), "double remove rejected");
        assert_eq!(a.to_graph(), g);
        // Sortedness is maintained through arbitrary churn.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let u = rng.random_range(0..200u32);
            let v = rng.random_range(0..200u32);
            if u == v {
                continue;
            }
            if a.has_edge(u as usize, v) {
                a.remove_arc(u as usize, v);
                a.remove_arc(v as usize, u);
            } else {
                a.insert_arc(u as usize, v);
                a.insert_arc(v as usize, u);
            }
            assert!(a.neighbors(u as usize).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn arena_growth_compacts() {
        // A node that keeps growing forces relocations and eventually a
        // compaction; the logical content must survive both.
        let g = Graph::from_edges(600, []).unwrap();
        let mut a = AdjacencyArena::from_graph(&g);
        for v in 1..600u32 {
            assert!(a.insert_arc(0, v));
            assert!(a.insert_arc(v as usize, 0));
        }
        assert_eq!(a.degree(0), 599);
        assert!(a.neighbors(0).windows(2).all(|w| w[0] < w[1]));
        for v in 1..600u32 {
            assert!(a.has_edge(v as usize, 0));
        }
    }

    #[test]
    fn inverse_batch_restores_the_edge_set() {
        let g = gnp(80, 0.05, 9);
        let mut sc = StreamCore::new(&g);
        let mut b = EdgeBatch::new();
        for (u, v) in [(NodeId(0), NodeId(79)), (NodeId(1), NodeId(78))] {
            if g.neighbors(u).contains(&v) {
                b.remove(u, v);
            } else {
                b.insert(u, v);
            }
        }
        let removable: Vec<_> = g.edges().filter(|&(u, _)| u.0 >= 2).take(3).collect();
        for (u, v) in removable {
            b.remove(u, v);
        }
        sc.apply_batch(&b).unwrap();
        sc.apply_batch(&b.inverse()).unwrap();
        assert_eq!(sc.to_graph(), g);
        assert_eq!(sc.values(), batagelj_zaversnik(&g).as_slice());
        assert_eq!(b.inverse().inverse(), b);
    }

    #[test]
    fn batch_matches_ground_truth_on_cycle_example() {
        let mut sc = StreamCore::new(&path(6));
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(5));
        let stats = sc.apply_batch(&b).unwrap();
        assert!(sc.values().iter().all(|&k| k == 2));
        assert_eq!(stats.changed, 6);
        assert_eq!(stats.regions, 1);
    }

    #[test]
    fn mixed_batch_is_atomic_on_validation_failure() {
        let g = path(5);
        let mut sc = StreamCore::new(&g);
        let before = sc.clone();
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(2));
        b.remove(NodeId(0), NodeId(4)); // not an edge: whole batch fails
        assert!(matches!(
            sc.apply_batch(&b),
            Err(MutationError::EdgeState { present: false, .. })
        ));
        assert_eq!(sc.values(), before.values());
        assert_eq!(sc.to_graph(), g);
    }

    #[test]
    fn validation_catches_duplicates_and_bad_endpoints() {
        let mut sc = StreamCore::new(&path(5));
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(0));
        assert!(matches!(
            sc.apply_batch(&b),
            Err(MutationError::InvalidEndpoints { .. })
        ));
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(2));
        b.insert(NodeId(2), NodeId(0)); // duplicate (unordered) insertion
        assert!(matches!(
            sc.apply_batch(&b),
            Err(MutationError::EdgeState { present: true, .. })
        ));
        let mut b = EdgeBatch::new();
        b.remove(NodeId(0), NodeId(1));
        b.remove(NodeId(1), NodeId(0)); // duplicate removal
        assert!(matches!(
            sc.apply_batch(&b),
            Err(MutationError::EdgeState { present: false, .. })
        ));
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(1)); // already present
        assert!(matches!(
            sc.apply_batch(&b),
            Err(MutationError::EdgeState { present: true, .. })
        ));
    }

    #[test]
    fn remove_and_reinsert_same_edge_in_one_batch() {
        let g = gnp(40, 0.1, 3);
        let mut sc = StreamCore::new(&g);
        let (u, v) = {
            let u = NodeId(0);
            let v = *g.neighbors(u).first().expect("node 0 has a neighbor");
            (u, v)
        };
        let mut b = EdgeBatch::new();
        b.remove(u, v);
        b.insert(u, v);
        sc.apply_batch(&b).unwrap();
        assert_eq!(sc.to_graph(), g, "net no-op on the graph");
        assert_eq!(sc.values(), batagelj_zaversnik(&g).as_slice());
    }

    #[test]
    fn random_batches_match_bz_across_families() {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for (name, g) in [
            ("gnp", gnp(120, 0.05, 1)),
            ("star", star(40)),
            ("complete", complete(10)),
            ("worst_case", worst_case(30)),
            ("path", path(50)),
        ] {
            let mut sc = StreamCore::new(&g);
            for step in 0..12 {
                let n = sc.node_count() as u32;
                let mut b = EdgeBatch::new();
                let mut seen: Vec<(u32, u32)> = Vec::new();
                for _ in 0..10 {
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
                    if sc.has_edge(NodeId(x), NodeId(y)) {
                        b.remove(NodeId(x), NodeId(y));
                    } else {
                        b.insert(NodeId(x), NodeId(y));
                    }
                }
                sc.apply_batch(&b).unwrap();
                assert_eq!(
                    sc.values(),
                    batagelj_zaversnik(&sc.to_graph()).as_slice(),
                    "{name}, step {step}"
                );
            }
        }
    }

    #[test]
    fn batch_of_one_agrees_with_dynamic_core() {
        use crate::dynamic::DynamicCore;
        let g = gnp(80, 0.06, 7);
        let mut sc = StreamCore::new(&g);
        let mut dc = DynamicCore::new(&g);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let u = NodeId(rng.random_range(0..80));
            let v = NodeId(rng.random_range(0..80));
            if u == v {
                continue;
            }
            if sc.has_edge(u, v) {
                sc.remove_edge(u, v).unwrap();
                dc.remove_edge(u, v).unwrap();
            } else {
                sc.insert_edge(u, v).unwrap();
                dc.insert_edge(u, v).unwrap();
            }
            assert_eq!(sc.values(), dc.values());
        }
    }

    #[test]
    fn phase_timing_is_opt_in_and_does_not_perturb_results() {
        let g = gnp(120, 0.05, 21);
        let mut plain = StreamCore::new(&g);
        let mut timed = StreamCore::new(&g).with_phase_timing(true);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..8 {
            let mut b = EdgeBatch::new();
            while b.len() < 12 {
                let u = NodeId(rng.random_range(0..120));
                let v = NodeId(rng.random_range(0..120));
                if u == v {
                    continue;
                }
                if plain.has_edge(u, v) {
                    if !b.removals().contains(&ordered(u, v)) {
                        b.remove(u, v);
                    }
                } else if !b.insertions().contains(&ordered(u, v)) {
                    b.insert(u, v);
                }
            }
            let sp = plain.apply_batch(&b).unwrap();
            let st = timed.apply_batch(&b).unwrap();
            assert_eq!(sp, st, "timing must not change repair statistics");
            assert_eq!(plain.values(), timed.values());
            // Timing off: the split stays zeroed.
            assert_eq!(plain.last_phase_times(), PhaseTimes::default());
        }
        // Flipping timing off again re-zeroes on the next batch.
        timed.set_phase_timing(false);
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(1));
        if timed.has_edge(NodeId(0), NodeId(1)) {
            b = EdgeBatch::new();
            b.remove(NodeId(0), NodeId(1));
        }
        timed.apply_batch(&b).unwrap();
        assert_eq!(timed.last_phase_times(), PhaseTimes::default());
    }

    #[test]
    fn working_set_is_local_for_scattered_batches() {
        // Candidate regions cannot cross component boundaries, so a
        // batch scattered over a few of many disjoint components must
        // leave the rest untouched. (On a single homogeneous component
        // the safe region may legitimately span the whole level set.)
        const BLOCKS: u32 = 50;
        const SIZE: u32 = 80;
        let mut rng = StdRng::seed_from_u64(2);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for blk in 0..BLOCKS {
            let base = blk * SIZE;
            for i in 0..SIZE {
                for j in (i + 1)..SIZE {
                    if rng.random_bool(0.05) {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        let g = Graph::from_edges((BLOCKS * SIZE) as usize, edges).unwrap();
        let mut sc = StreamCore::new(&g);
        let mut total = 0usize;
        let mut batches = 0usize;
        for step in 0..10u32 {
            // 4 insertions confined to 2 blocks per batch.
            let mut b = EdgeBatch::new();
            let mut tried = 0;
            while b.len() < 4 && tried < 200 {
                tried += 1;
                let blk = (2 * step + rng.random_range(0..2u32)) % BLOCKS;
                let u = NodeId(blk * SIZE + rng.random_range(0..SIZE));
                let v = NodeId(blk * SIZE + rng.random_range(0..SIZE));
                if u == v || sc.has_edge(u, v) || b.insertions().contains(&ordered(u, v)) {
                    continue;
                }
                b.insert(u, v);
            }
            let stats = sc.apply_batch(&b).unwrap();
            total += stats.candidates;
            batches += 1;
        }
        let avg = total as f64 / batches as f64;
        assert!(
            avg <= (2 * SIZE) as f64,
            "repairs should stay within the mutated blocks: avg {avg}"
        );
    }

    #[test]
    fn snapshot_accessors_match_ground_truth_after_every_batch() {
        // The read-only export (`values` + `degrees` + `adjacency`) must
        // agree with a fresh Batagelj–Zaveršnik pass and the materialized
        // graph after every applied batch — snapshot builders rely on it
        // instead of re-deriving state.
        let g = gnp(120, 0.05, 21);
        let mut sc = StreamCore::new(&g);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..10 {
            let mut b = EdgeBatch::new();
            let mut seen: Vec<(u32, u32)> = Vec::new();
            for _ in 0..8 {
                let x = rng.random_range(0..120u32);
                let y = rng.random_range(0..120u32);
                if x == y {
                    continue;
                }
                let key = (x.min(y), x.max(y));
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                if sc.has_edge(NodeId(x), NodeId(y)) {
                    b.remove(NodeId(x), NodeId(y));
                } else {
                    b.insert(NodeId(x), NodeId(y));
                }
            }
            sc.apply_batch(&b).unwrap();
            let graph = sc.to_graph();
            assert_eq!(sc.values(), batagelj_zaversnik(&graph).as_slice());
            assert_eq!(sc.degrees(), graph.degrees());
            for u in 0..sc.node_count() {
                let nbrs: Vec<u32> = graph
                    .neighbors(NodeId(u as u32))
                    .iter()
                    .map(|v| v.0)
                    .collect();
                assert_eq!(sc.adjacency().neighbors(u), nbrs.as_slice());
            }
        }
    }

    #[test]
    fn empty_batch_is_a_cheap_no_op() {
        let g = gnp(50, 0.1, 4);
        let mut sc = StreamCore::new(&g);
        let stats = sc.apply_batch(&EdgeBatch::new()).unwrap();
        assert_eq!(stats, BatchStats::default());
        assert_eq!(sc.values(), batagelj_zaversnik(&g).as_slice());
    }

    #[test]
    fn warm_start_batch_estimates_are_upper_bounds() {
        let mut rng = StdRng::seed_from_u64(0x57AB);
        for trial in 0..8 {
            let g = gnp(100, 0.05, 40 + trial);
            let mut sc = StreamCore::new(&g);
            for _ in 0..5 {
                let old = sc.values().to_vec();
                let mut b = EdgeBatch::new();
                let mut ins: Vec<(NodeId, NodeId)> = Vec::new();
                for _ in 0..12 {
                    let u = NodeId(rng.random_range(0..100));
                    let v = NodeId(rng.random_range(0..100));
                    if u == v {
                        continue;
                    }
                    let key = ordered(u, v);
                    if b.insertions().contains(&key) || b.removals().contains(&key) {
                        continue;
                    }
                    if sc.has_edge(u, v) {
                        b.remove(u, v);
                    } else {
                        b.insert(u, v);
                        ins.push(key);
                    }
                }
                sc.apply_batch(&b).unwrap();
                let new_graph = sc.to_graph();
                let est = warm_start_estimates_batch(&old, &new_graph, &ins, b.removals());
                for u in new_graph.nodes() {
                    assert!(
                        est[u.index()] >= sc.coreness(u),
                        "trial {trial}: estimate below new coreness at {u}"
                    );
                    assert!(est[u.index()] <= new_graph.degree(u));
                }
            }
        }
    }

    #[test]
    fn warm_start_batch_reduces_to_single_edge_helper() {
        use crate::dynamic::warm_start_estimates;
        let g = gnp(60, 0.08, 13);
        let mut sc = StreamCore::new(&g);
        let (u, v) = {
            let mut found = None;
            'outer: for a in 0..60u32 {
                for b in (a + 1)..60 {
                    if !sc.has_edge(NodeId(a), NodeId(b)) {
                        found = Some((NodeId(a), NodeId(b)));
                        break 'outer;
                    }
                }
            }
            found.expect("sparse graph has a non-edge")
        };
        let old = sc.values().to_vec();
        sc.insert_edge(u, v).unwrap();
        let new_graph = sc.to_graph();
        let batch = warm_start_estimates_batch(&old, &new_graph, &[(u, v)], &[]);
        let single = warm_start_estimates(&old, &new_graph, Some((u, v)));
        // Both are safe; the batch region may be a slight superset (it
        // expands from both endpoints), so batch ≥ single pointwise.
        for i in 0..60 {
            assert!(batch[i] >= single[i] || batch[i] >= sc.values()[i]);
            assert!(batch[i] >= sc.values()[i]);
        }
    }

    #[test]
    fn removal_slack_is_regional_not_global() {
        // Two disjoint dense blocks. Removals confined to block A must not
        // widen the warm-start bounds of an insertion inside block B: with
        // the former global slack (`window += total removals`), B's region
        // flooded the whole block and every member was bumped; with
        // per-region slack the insertion's window stays `insertions − 1 = 0`.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for base in [0u32, 40] {
            for i in 0..40 {
                for j in (i + 1)..40 {
                    if (i + j) % 3 != 0 {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        let g = Graph::from_edges(80, edges).unwrap();
        let mut sc = StreamCore::new(&g);
        let old = sc.values().to_vec();

        let mut b = EdgeBatch::new();
        // Five removals inside block A.
        let mut removed = 0;
        'outer: for i in 0..40u32 {
            for j in (i + 1)..40 {
                if sc.has_edge(NodeId(i), NodeId(j)) {
                    b.remove(NodeId(i), NodeId(j));
                    removed += 1;
                    if removed == 5 {
                        break 'outer;
                    }
                }
            }
        }
        // One insertion inside block B.
        let (u, v) = {
            let mut found = None;
            'search: for i in 40..80u32 {
                for j in (i + 1)..80 {
                    if !sc.has_edge(NodeId(i), NodeId(j)) {
                        found = Some((NodeId(i), NodeId(j)));
                        break 'search;
                    }
                }
            }
            found.expect("block B has a non-edge")
        };
        b.insert(u, v);
        sc.apply_batch(&b).unwrap();
        let new_graph = sc.to_graph();

        let est = warm_start_estimates_batch(&old, &new_graph, &[ordered(u, v)], b.removals());
        // Safety first: still an upper bound everywhere.
        for w in new_graph.nodes() {
            assert!(est[w.index()] >= sc.coreness(w), "unsafe bound at {w}");
        }
        // Tightness: block B's region grew with window 0 (single
        // insertion, no nearby removals), so only nodes at the endpoints'
        // coreness level can be bumped — nodes in B at other levels keep
        // their old estimate exactly.
        let window_levels: Vec<u32> = vec![old[u.index()], old[v.index()]];
        for w in 40..80usize {
            if !window_levels.contains(&old[w]) {
                assert!(
                    est[w] <= old[w],
                    "node {w} (old core {}) picked up removal slack from block A",
                    old[w]
                );
            }
        }
    }

    #[test]
    fn candidate_regions_merge_removals_with_touching_insertions() {
        // An insertion whose region overlaps a removal's influence region
        // must absorb its slack (the merged group widens), while a far
        // removal stays a separate region.
        let g = path(12);
        let core = vec![1u32; 12];
        let regions = candidate_regions(
            12,
            &[(NodeId(2), NodeId(4))],
            &[(NodeId(3), NodeId(4)), (NodeId(9), NodeId(10))],
            &core,
            |x| g.neighbors(NodeId(x)).iter().map(|v| v.0),
        );
        // Path is one uniform level set: the insertion at {2,4} and the
        // removal at {3,4} share node 4 and merge; {9,10} is claimed by
        // the flood of the merged region (equal coreness everywhere), so
        // at minimum every region is accounted for and the merged region
        // carries both kinds of counts.
        let total_ins: u32 = regions.iter().map(|r| r.insertions).sum();
        let total_rem: u32 = regions.iter().map(|r| r.removals).sum();
        assert_eq!(total_ins, 1);
        assert_eq!(total_rem, 2);
        let merged = regions
            .iter()
            .find(|r| r.insertions > 0)
            .expect("insertion region");
        assert!(merged.removals >= 1, "touching removal must merge");
        assert!(merged.members.contains(&2) && merged.members.contains(&4));
    }

    #[test]
    fn last_touched_delta_covers_every_change() {
        // After every batch, the exported delta must (a) list every node
        // whose coreness changed with the right old value, and (b) list
        // nothing with a wrong old value — the contract incremental
        // snapshot publishers rely on.
        let g = gnp(150, 0.05, 17);
        let mut sc = StreamCore::new(&g);
        assert!(sc.last_touched().is_empty(), "no delta before any batch");
        let mut rng = StdRng::seed_from_u64(0xDE17A);
        for _ in 0..12 {
            let before = sc.values().to_vec();
            let mut b = EdgeBatch::new();
            let mut seen: Vec<(u32, u32)> = Vec::new();
            for _ in 0..9 {
                let x = rng.random_range(0..150u32);
                let y = rng.random_range(0..150u32);
                if x == y {
                    continue;
                }
                let key = (x.min(y), x.max(y));
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                if sc.has_edge(NodeId(x), NodeId(y)) {
                    b.remove(NodeId(x), NodeId(y));
                } else {
                    b.insert(NodeId(x), NodeId(y));
                }
            }
            sc.apply_batch(&b).unwrap();
            let touched: std::collections::HashMap<u32, u32> =
                sc.last_touched().iter().copied().collect();
            assert_eq!(touched.len(), sc.last_touched().len(), "no duplicates");
            for (u, &old) in before.iter().enumerate() {
                if sc.values()[u] != old {
                    assert_eq!(
                        touched.get(&(u as u32)),
                        Some(&old),
                        "changed node {u} missing from delta"
                    );
                }
            }
            for &(u, old) in sc.last_touched() {
                assert_eq!(before[u as usize], old, "wrong old value for {u}");
            }
            let changes: Vec<(u32, u32, u32)> = sc.last_coreness_changes().collect();
            for &(u, old, new) in &changes {
                assert_eq!(before[u as usize], old);
                assert_eq!(sc.values()[u as usize], new);
                assert_ne!(old, new);
            }
            let changed_count = before
                .iter()
                .enumerate()
                .filter(|&(u, &old)| sc.values()[u] != old)
                .count();
            assert_eq!(changes.len(), changed_count);
        }
    }

    #[test]
    fn arena_from_sorted_lists_roundtrips() {
        let g = gnp(60, 0.1, 3);
        let a = AdjacencyArena::from_sorted_lists((0..60u32).map(|u| {
            g.neighbors(NodeId(u))
                .iter()
                .map(|v| v.0)
                .collect::<Vec<_>>()
        }));
        assert_eq!(a.to_graph(), g);
        // Arbitrary value spaces work: slots are local, values global.
        let mut b = AdjacencyArena::from_sorted_lists([vec![5u32, 900], vec![7]]);
        assert_eq!(b.node_count(), 2);
        assert_eq!(b.neighbors(0), &[5, 900]);
        assert!(b.insert_arc(1, 900));
        assert_eq!(b.neighbors(1), &[7, 900]);
        assert!(b.remove_arc(0, 5));
        assert_eq!(b.neighbors(0), &[900]);
    }

    #[test]
    fn dense_removal_batches_cascade_correctly() {
        // Peeling a complete graph edge by edge in batches exercises the
        // removal descent's multi-level drops.
        let g = complete(9);
        let mut sc = StreamCore::new(&g);
        let mut b = EdgeBatch::new();
        for v in 1..9u32 {
            b.remove(NodeId(0), NodeId(v));
        }
        let stats = sc.apply_batch(&b).unwrap();
        assert_eq!(sc.coreness(NodeId(0)), 0);
        assert_eq!(sc.values(), batagelj_zaversnik(&sc.to_graph()).as_slice());
        assert!(stats.changed >= 1);
    }
}
