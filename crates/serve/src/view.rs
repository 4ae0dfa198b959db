//! The query interface shared by the single-writer and sharded serving
//! layers, so the wire front end (and any embedding application) can
//! serve either backend through one code path.
//!
//! # The v2 split: [`CoreQuery`] + [`CoreScan`]
//!
//! The original single query trait mixed O(1) point lookups with
//! allocating `Vec`-returning bulk reads (`histogram()`, `kcore_members`,
//! `top_k`), which forced the wire layer to materialize whole answers
//! and hid the O(N) scans behind innocent-looking calls. v2 splits it:
//!
//! * [`CoreQuery`] — point lookups only (`coreness`, `degree`,
//!   `neighbors`, sizes). Everything here is O(1)/O(shells) per call.
//! * [`CoreScan`] — bulk reads as **iterators with pagination**
//!   (`members(k, offset, limit)`, `top(offset, limit)`,
//!   `shell_sizes()`) plus the memoized [`kcore_subgraph_cached`]. On
//!   indexed snapshots these emit in O(answer), flat in N.
//!
//! [`kcore_subgraph_cached`]: CoreScan::kcore_subgraph_cached

use std::collections::HashMap;
use std::sync::Arc;

use dkcore_graph::{Graph, NodeId};

use crate::health::HealthReport;
use crate::service::ServiceHandle;
use crate::sharded::{ShardedHandle, StitchedSnapshot};
use crate::snapshot::CoreSnapshot;

/// Per-snapshot memo of extracted k-core subgraphs, keyed by `k`.
pub(crate) type SubgraphMemo = HashMap<u32, Arc<(Graph, Vec<NodeId>)>>;

/// Point lookups against one pinned, immutable epoch. Implemented by
/// [`CoreSnapshot`] (single writer) and [`StitchedSnapshot`] (sharded);
/// all answers are internally consistent because the view never changes
/// after publication.
pub trait CoreQuery: Send + Sync {
    /// The epoch this view was published as.
    fn epoch(&self) -> u64;
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Number of edges.
    fn edge_count(&self) -> usize;
    /// The largest coreness.
    fn max_coreness(&self) -> u32;
    /// Coreness of `v`, or `None` when out of range.
    fn coreness(&self, v: NodeId) -> Option<u32>;
    /// Degree of `v`, or `None` when out of range.
    fn degree(&self, v: NodeId) -> Option<u32>;
    /// Sorted neighbors of `v` (global node ids), or `None` when out of
    /// range.
    fn neighbors(&self, v: NodeId) -> Option<&[u32]>;
    /// Number of nodes with coreness exactly `k` (0 past the top shell).
    fn shell_size(&self, k: u32) -> usize;
    /// Number of nodes with coreness ≥ `k` — the k-core's size, without
    /// materializing the member list. O(shells).
    fn kcore_size(&self, k: u32) -> usize {
        if k > self.max_coreness() {
            return 0;
        }
        (k..=self.max_coreness()).map(|j| self.shell_size(j)).sum()
    }
}

/// Paginated / iterator bulk reads over one pinned epoch — the scan
/// half of the v2 query API. On indexed snapshots every method emits in
/// O(answer) (flat in N for a fixed answer size); implementations
/// without an index fall back to O(N) scans with identical results.
pub trait CoreScan: CoreQuery {
    /// The shell-size histogram as an iterator: entry `k` counts the
    /// nodes with coreness exactly `k`, `max_coreness() + 1` entries.
    fn shell_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..=self.max_coreness()).map(|k| self.shell_size(k))
    }
    /// One page of the k-core members: positions `offset .. offset +
    /// limit` of the ascending-id sequence of nodes with coreness ≥ `k`.
    /// Pages concatenate to exactly the full member list; `(0,
    /// usize::MAX)` streams it whole.
    fn members(&self, k: u32, offset: usize, limit: usize) -> impl Iterator<Item = NodeId> + '_;
    /// One page of the full coreness ranking: positions `offset ..
    /// offset + limit` of the (coreness desc, id asc) sequence over all
    /// nodes. Pages concatenate to the whole ranking.
    fn top(&self, offset: usize, limit: usize) -> impl Iterator<Item = (NodeId, u32)> + '_;
    /// The memoized k-core subgraph: the graph induced on the nodes
    /// with coreness ≥ `k` plus the compact-id → original-id map
    /// (position `i` is the original id of new node `i`, ascending).
    /// First call per `k` extracts and caches in the snapshot; epochs
    /// are immutable, so the cache is invalidated for free at the flip.
    fn kcore_subgraph_cached(&self, k: u32) -> Arc<(Graph, Vec<NodeId>)>;
}

/// The O(N) scan over all node ids behind the pre-index `MEMBERS` path.
/// Retained as the fallback for unindexed (benchmark-baseline) snapshots
/// and as the reference the indexed path is benchmarked against
/// (`bench_pr7`); production queries go through [`CoreScan::members`].
#[doc(hidden)]
pub fn kcore_members_scan<V: CoreQuery + ?Sized>(
    view: &V,
    k: u32,
) -> impl Iterator<Item = NodeId> + '_ {
    (0..view.node_count() as u32)
        .filter(move |&u| view.coreness(NodeId(u)).expect("in range") >= k)
        .map(NodeId)
}

/// The O(N) scan-and-partial-sort behind the pre-index `TOPK` path (the
/// histogram locates the threshold shell, one scan collects members).
/// Retained as the unindexed fallback and the `bench_pr7` baseline; the
/// indexed path ([`CoreScan::top`]) is a slice of the shell index.
#[doc(hidden)]
pub fn top_k_scan<V: CoreQuery + ?Sized>(view: &V, n: usize) -> Vec<(NodeId, u32)> {
    let total = view.node_count();
    let n = n.min(total);
    if n == 0 {
        return Vec::new();
    }
    // Find the smallest threshold t such that |{v : core(v) ≥ t}| ≥ n.
    let hist: Vec<usize> = (0..=view.max_coreness())
        .map(|k| view.shell_size(k))
        .collect();
    let mut t = hist.len(); // exclusive upper bound
    let mut above = 0usize; // |{v : core(v) ≥ t}|
    while t > 0 && above < n {
        t -= 1;
        above += hist[t];
    }
    let t = t as u32;
    // One scan: everything strictly above t is in; nodes at exactly t
    // fill the remainder in id order.
    let mut strict: Vec<(NodeId, u32)> = Vec::new();
    let mut at: Vec<(NodeId, u32)> = Vec::new();
    for u in 0..total as u32 {
        let c = view.coreness(NodeId(u)).expect("in range");
        if c > t {
            strict.push((NodeId(u), c));
        } else if c == t {
            at.push((NodeId(u), c));
        }
    }
    strict.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let fill = n - strict.len();
    strict.extend(at.into_iter().take(fill));
    strict
}

/// The O(N)-membership subgraph extraction (scan every id, dense remap
/// table). Retained as the `bench_pr7` baseline; production extraction
/// is [`kcore_subgraph_from_members`] fed by the shell index.
#[doc(hidden)]
pub fn kcore_subgraph_scan<V: CoreQuery + ?Sized>(view: &V, k: u32) -> (Graph, Vec<NodeId>) {
    let n = view.node_count();
    let mut new_id = vec![u32::MAX; n];
    let mut back: Vec<NodeId> = Vec::new();
    for u in 0..n as u32 {
        if view.coreness(NodeId(u)).expect("in range") >= k {
            new_id[u as usize] = back.len() as u32;
            back.push(NodeId(u));
        }
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &u in &back {
        for &v in view.neighbors(u).expect("member in range") {
            if u.0 < v && new_id[v as usize] != u32::MAX {
                edges.push((new_id[u.index()], new_id[v as usize]));
            }
        }
    }
    let sub = Graph::from_edges(back.len(), edges).expect("induced subgraph is valid");
    (sub, back)
}

/// Extracts the k-core subgraph from an already-enumerated member list
/// (ascending ids, straight off the shell index): O(answer) membership +
/// remap instead of the O(N) scan of [`kcore_subgraph_scan`]. The one
/// implementation behind both snapshots' memoized extraction.
pub(crate) fn kcore_subgraph_from_members<V: CoreQuery + ?Sized>(
    view: &V,
    members: impl Iterator<Item = NodeId>,
) -> (Graph, Vec<NodeId>) {
    let back: Vec<NodeId> = members.collect();
    let new_id: HashMap<u32, u32> = back
        .iter()
        .enumerate()
        .map(|(i, v)| (v.0, i as u32))
        .collect();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, &u) in back.iter().enumerate() {
        for &v in view.neighbors(u).expect("member in range") {
            if u.0 < v {
                if let Some(&nv) = new_id.get(&v) {
                    edges.push((i as u32, nv));
                }
            }
        }
    }
    let sub = Graph::from_edges(back.len(), edges).expect("induced subgraph is valid");
    (sub, back)
}

impl CoreQuery for CoreSnapshot {
    fn epoch(&self) -> u64 {
        CoreSnapshot::epoch(self)
    }
    fn node_count(&self) -> usize {
        CoreSnapshot::node_count(self)
    }
    fn edge_count(&self) -> usize {
        CoreSnapshot::edge_count(self)
    }
    fn max_coreness(&self) -> u32 {
        CoreSnapshot::max_coreness(self)
    }
    fn coreness(&self, v: NodeId) -> Option<u32> {
        CoreSnapshot::coreness(self, v)
    }
    fn degree(&self, v: NodeId) -> Option<u32> {
        CoreSnapshot::degree(self, v)
    }
    fn neighbors(&self, v: NodeId) -> Option<&[u32]> {
        CoreSnapshot::neighbors(self, v)
    }
    fn shell_size(&self, k: u32) -> usize {
        CoreSnapshot::histogram(self)
            .get(k as usize)
            .copied()
            .unwrap_or(0)
    }
    fn kcore_size(&self, k: u32) -> usize {
        CoreSnapshot::kcore_size(self, k)
    }
}

impl CoreScan for CoreSnapshot {
    fn shell_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        CoreSnapshot::histogram(self).iter().copied()
    }
    fn members(&self, k: u32, offset: usize, limit: usize) -> impl Iterator<Item = NodeId> + '_ {
        CoreSnapshot::kcore_members_page(self, k, offset, limit)
    }
    fn top(&self, offset: usize, limit: usize) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        CoreSnapshot::top_page(self, offset, limit)
    }
    fn kcore_subgraph_cached(&self, k: u32) -> Arc<(Graph, Vec<NodeId>)> {
        CoreSnapshot::kcore_subgraph_cached(self, k)
    }
}

impl CoreQuery for StitchedSnapshot {
    fn epoch(&self) -> u64 {
        StitchedSnapshot::epoch(self)
    }
    fn node_count(&self) -> usize {
        StitchedSnapshot::node_count(self)
    }
    fn edge_count(&self) -> usize {
        StitchedSnapshot::edge_count(self)
    }
    fn max_coreness(&self) -> u32 {
        StitchedSnapshot::max_coreness(self)
    }
    fn coreness(&self, v: NodeId) -> Option<u32> {
        StitchedSnapshot::coreness(self, v)
    }
    fn degree(&self, v: NodeId) -> Option<u32> {
        StitchedSnapshot::degree(self, v)
    }
    fn neighbors(&self, v: NodeId) -> Option<&[u32]> {
        StitchedSnapshot::neighbors(self, v)
    }
    fn shell_size(&self, k: u32) -> usize {
        StitchedSnapshot::histogram(self)
            .get(k as usize)
            .copied()
            .unwrap_or(0)
    }
    fn kcore_size(&self, k: u32) -> usize {
        StitchedSnapshot::kcore_size(self, k)
    }
}

impl CoreScan for StitchedSnapshot {
    fn shell_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        StitchedSnapshot::histogram(self).iter().copied()
    }
    fn members(&self, k: u32, offset: usize, limit: usize) -> impl Iterator<Item = NodeId> + '_ {
        StitchedSnapshot::kcore_members_page(self, k, offset, limit)
    }
    fn top(&self, offset: usize, limit: usize) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        StitchedSnapshot::top_page(self, offset, limit)
    }
    fn kcore_subgraph_cached(&self, k: u32) -> Arc<(Graph, Vec<NodeId>)> {
        StitchedSnapshot::kcore_subgraph_cached(self, k)
    }
}

/// A cloneable reader handle yielding pinned [`CoreScan`] views — what
/// the wire server is generic over. Implemented by [`ServiceHandle`] and
/// [`ShardedHandle`].
pub trait SnapshotSource: Clone + Send + 'static {
    /// The pinned epoch type this source yields.
    type View: CoreScan;
    /// The latest published epoch, pinned.
    fn snapshot(&self) -> Arc<Self::View>;
    /// The latest published epoch number, without pinning a view.
    fn epoch(&self) -> u64;
    /// The writer's latest health report (feeds the wire `HEALTH`
    /// verb): whether the writer is alive and, for the sharded backend,
    /// per-partition liveness and deferred-batch lag.
    fn health(&self) -> HealthReport;
    /// The writer's telemetry bundle (feeds the wire `METRICS` and
    /// `EVENTS` verbs). The default is a disabled bundle so bare
    /// sources still serve; both service handles override it with the
    /// writer's live bundle.
    fn telemetry(&self) -> dkcore_metrics::Telemetry {
        dkcore_metrics::Telemetry::disabled()
    }
}

impl SnapshotSource for ServiceHandle {
    type View = CoreSnapshot;
    fn snapshot(&self) -> Arc<CoreSnapshot> {
        ServiceHandle::snapshot(self)
    }
    fn epoch(&self) -> u64 {
        ServiceHandle::epoch(self)
    }
    fn health(&self) -> HealthReport {
        ServiceHandle::health(self)
    }
    fn telemetry(&self) -> dkcore_metrics::Telemetry {
        ServiceHandle::telemetry(self).clone()
    }
}

impl SnapshotSource for ShardedHandle {
    type View = StitchedSnapshot;
    fn snapshot(&self) -> Arc<StitchedSnapshot> {
        ShardedHandle::snapshot(self)
    }
    fn epoch(&self) -> u64 {
        ShardedHandle::epoch(self)
    }
    fn health(&self) -> HealthReport {
        ShardedHandle::health(self)
    }
    fn telemetry(&self) -> dkcore_metrics::Telemetry {
        ShardedHandle::telemetry(self).clone()
    }
}
