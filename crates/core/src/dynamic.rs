//! Coreness maintenance under edge churn — the natural extension of the
//! paper's *live system* scenario (§1: a P2P overlay "needs to inspect
//! itself" at run time; real overlays gain and lose edges continuously).
//!
//! Two pieces:
//!
//! * [`DynamicCore`] — an incremental maintenance structure: after an
//!   edge insertion or removal it repairs the coreness of exactly the
//!   *candidate* nodes that can change (the affected k-shell region
//!   reachable through that shell), instead of recomputing the whole
//!   decomposition. Single-edge changes move any coreness by at most 1,
//!   and only nodes with coreness `min(k(u), k(v))` can move — the
//!   classic traversal/subcore insight.
//! * [`warm_start_estimates`] — translates a mutation into safe initial
//!   estimates for the *distributed* protocol: unaffected nodes keep
//!   their (still correct) coreness, candidates are bumped to a safe
//!   upper bound, and the ordinary descending protocol re-converges in a
//!   handful of rounds instead of a full cold start (safety requires
//!   every initial estimate to upper-bound the new coreness — removals
//!   only lower coreness, and insertion candidates can gain at most 1).
//!
//! `DynamicCore` repairs **one mutation at a time**; adjacency lives in
//! the shared slotted-CSR [`AdjacencyArena`](crate::stream::AdjacencyArena)
//! (binary-search insert/remove, no per-node vectors). For whole batches
//! of churn — where per-edge repairs waste a traversal per edge — use the
//! amortized [`StreamCore`](crate::stream::StreamCore) instead.
//!
//! # Example
//!
//! ```
//! use dkcore::dynamic::DynamicCore;
//! use dkcore_graph::{generators::path, NodeId};
//!
//! // A path has coreness 1 everywhere; closing it into a cycle raises
//! // everyone to 2.
//! let mut dc = DynamicCore::new(&path(5));
//! assert!(dc.values().iter().all(|&k| k == 1));
//! let stats = dc.insert_edge(NodeId(0), NodeId(4)).unwrap();
//! assert!(dc.values().iter().all(|&k| k == 2));
//! assert_eq!(stats.changed, 5);
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use dkcore_graph::{Graph, NodeId};

use crate::seq::batagelj_zaversnik;
use crate::stream::AdjacencyArena;

/// Error for invalid dynamic-graph mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MutationError {
    /// The edge already exists (insertion) or does not exist (removal).
    EdgeState {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// Whether the edge was present at the time of the mutation.
        present: bool,
    },
    /// An endpoint is out of range or the endpoints coincide.
    InvalidEndpoints {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::EdgeState {
                u,
                v,
                present: true,
            } => {
                write!(f, "edge {{{u}, {v}}} already present")
            }
            MutationError::EdgeState {
                u,
                v,
                present: false,
            } => {
                write!(f, "edge {{{u}, {v}}} not present")
            }
            MutationError::InvalidEndpoints { u, v } => {
                write!(f, "invalid endpoints {{{u}, {v}}}")
            }
        }
    }
}

impl Error for MutationError {}

/// Statistics of one incremental repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Nodes examined as candidates (the repair's working set).
    pub candidates: usize,
    /// Nodes whose coreness actually changed.
    pub changed: usize,
}

/// Incrementally maintained k-core decomposition of a mutable graph.
///
/// See the [module docs](self) for the algorithmic background.
///
/// # Why it stays beside `StreamCore`
///
/// A [`StreamCore`](crate::stream::StreamCore) batch of one mutation does
/// not yet cover single-edge repair. Replaying each mutation of
/// `bench_pr3`'s quick streams as a one-mutation `StreamCore` batch was
/// 2.6–4.2× slower than this structure on a 2-core machine:
/// `sliding_gnp16/10000` 1,843 ms vs 706 ms, `sliding_gnp4/10000` 494 ms
/// vs 182 ms, `insert_heavy_ba8/10000` 2,259 ms vs 675 ms, and
/// `adversarial_worst_case/3000` 27.9 ms vs 6.7 ms. `bench_pr3`'s gated
/// batch-vs-per-edge ratio also uses it as the per-edge comparator. It
/// can go once the batched insertion repair is bounded (ROADMAP item 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicCore {
    /// Sorted adjacency in one slotted-CSR arena (shared representation
    /// with the batched [`StreamCore`](crate::stream::StreamCore)):
    /// mutations are a binary search plus an in-slot shift, never a
    /// per-node vector rebuild.
    adj: AdjacencyArena,
    /// Current coreness of every node.
    core: Vec<u32>,
}

impl DynamicCore {
    /// Builds the structure from a static graph (full Batagelj–Zaveršnik
    /// pass).
    pub fn new(g: &Graph) -> Self {
        DynamicCore {
            adj: AdjacencyArena::from_graph(g),
            core: batagelj_zaversnik(g),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.node_count()
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

    /// Whether the edge `{u, v}` currently exists (a binary search in
    /// `u`'s sorted slot).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.adj.node_count() && self.adj.has_edge(u.index(), v.0)
    }

    /// Snapshot of the current graph.
    pub fn to_graph(&self) -> Graph {
        self.adj.to_graph()
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), MutationError> {
        let n = self.adj.node_count();
        if u == v || u.index() >= n || v.index() >= n {
            return Err(MutationError::InvalidEndpoints { u, v });
        }
        Ok(())
    }

    /// Inserts the edge `{u, v}` and repairs the decomposition.
    ///
    /// Only nodes with coreness `k_min = min(k(u), k(v))` that are
    /// reachable from the lower endpoint(s) through the `k_min`-shell can
    /// gain (exactly) one level; the repair walks that region and prunes
    /// it with the standard candidate-degree test.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError`] if the edge already exists or the
    /// endpoints are invalid.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateStats, MutationError> {
        self.check_endpoints(u, v)?;
        if self.has_edge(u, v) {
            return Err(MutationError::EdgeState {
                u,
                v,
                present: true,
            });
        }
        self.adj.insert_edge(u, v);

        let k_min = self.core[u.index()].min(self.core[v.index()]);
        // Roots: the endpoint(s) sitting exactly at k_min.
        let roots: Vec<NodeId> = [u, v]
            .into_iter()
            .filter(|w| self.core[w.index()] == k_min)
            .collect();

        // Candidate region: k_min-shell nodes reachable from the roots
        // through the k_min-shell.
        let n = self.adj.node_count();
        let mut in_candidates = vec![false; n];
        let mut candidates: Vec<NodeId> = Vec::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for r in roots {
            if !in_candidates[r.index()] {
                in_candidates[r.index()] = true;
                candidates.push(r);
                queue.push_back(r);
            }
        }
        while let Some(w) = queue.pop_front() {
            for &x in self.adj.neighbors(w.index()) {
                let x = NodeId(x);
                if self.core[x.index()] == k_min && !in_candidates[x.index()] {
                    in_candidates[x.index()] = true;
                    candidates.push(x);
                    queue.push_back(x);
                }
            }
        }

        // Candidate degree: neighbors that could support level k_min + 1 —
        // higher-core neighbors plus surviving candidates.
        let mut cd = vec![0u32; n];
        for &w in &candidates {
            cd[w.index()] = self
                .adj
                .neighbors(w.index())
                .iter()
                .filter(|&&x| self.core[x as usize] > k_min || in_candidates[x as usize])
                .count() as u32;
        }
        // Prune candidates that cannot reach k_min + 1.
        let mut evicted = vec![false; n];
        let mut peel: VecDeque<NodeId> = candidates
            .iter()
            .copied()
            .filter(|w| cd[w.index()] <= k_min)
            .collect();
        for w in &peel {
            evicted[w.index()] = true;
        }
        while let Some(w) = peel.pop_front() {
            for &x in self.adj.neighbors(w.index()) {
                let x = x as usize;
                if in_candidates[x] && !evicted[x] {
                    cd[x] -= 1;
                    if cd[x] <= k_min {
                        evicted[x] = true;
                        peel.push_back(NodeId(x as u32));
                    }
                }
            }
        }

        let mut changed = 0usize;
        for &w in &candidates {
            if !evicted[w.index()] {
                self.core[w.index()] = k_min + 1;
                changed += 1;
            }
        }
        Ok(UpdateStats {
            candidates: candidates.len(),
            changed,
        })
    }

    /// Removes the edge `{u, v}` and repairs the decomposition.
    ///
    /// Only `k_min`-shell nodes reachable from the endpoint(s) at `k_min`
    /// can lose (exactly) one level; the repair peels the region with a
    /// support cascade.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError`] if the edge does not exist or the
    /// endpoints are invalid.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateStats, MutationError> {
        self.check_endpoints(u, v)?;
        if !self.has_edge(u, v) {
            return Err(MutationError::EdgeState {
                u,
                v,
                present: false,
            });
        }
        let k_min = self.core[u.index()].min(self.core[v.index()]);
        self.adj.remove_edge(u, v);

        let roots: Vec<NodeId> = [u, v]
            .into_iter()
            .filter(|w| self.core[w.index()] == k_min)
            .collect();

        // Candidate region, as for insertion (over the post-removal graph;
        // the roots are included regardless of reachability).
        let n = self.adj.node_count();
        let mut in_candidates = vec![false; n];
        let mut candidates: Vec<NodeId> = Vec::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for r in roots {
            if !in_candidates[r.index()] {
                in_candidates[r.index()] = true;
                candidates.push(r);
                queue.push_back(r);
            }
        }
        while let Some(w) = queue.pop_front() {
            for &x in self.adj.neighbors(w.index()) {
                let x = NodeId(x);
                if self.core[x.index()] == k_min && !in_candidates[x.index()] {
                    in_candidates[x.index()] = true;
                    candidates.push(x);
                    queue.push_back(x);
                }
            }
        }

        // Support: neighbors at coreness >= k_min keep a node at k_min.
        let mut support = vec![0u32; n];
        for &w in &candidates {
            support[w.index()] = self
                .adj
                .neighbors(w.index())
                .iter()
                .filter(|&&x| self.core[x as usize] >= k_min)
                .count() as u32;
        }
        let mut dropped = vec![false; n];
        let mut peel: VecDeque<NodeId> = candidates
            .iter()
            .copied()
            .filter(|w| support[w.index()] < k_min)
            .collect();
        for w in &peel {
            dropped[w.index()] = true;
        }
        let mut changed = 0usize;
        while let Some(w) = peel.pop_front() {
            self.core[w.index()] = k_min.saturating_sub(1);
            changed += 1;
            for &x in self.adj.neighbors(w.index()) {
                let x = x as usize;
                if in_candidates[x] && !dropped[x] {
                    support[x] -= 1;
                    if support[x] < k_min {
                        dropped[x] = true;
                        peel.push_back(NodeId(x as u32));
                    }
                }
            }
        }
        Ok(UpdateStats {
            candidates: candidates.len(),
            changed,
        })
    }
}

/// Safe initial estimates for re-running the *distributed* protocol after
/// a mutation that [`DynamicCore`] has already analyzed: every node gets
/// an upper bound on its new coreness, so the ordinary descending
/// protocol (warm-started from these values) converges to the new
/// decomposition.
///
/// * `old_core` — coreness before the mutation;
/// * `new_graph` — the graph after the mutation;
/// * `inserted` — the endpoints if the mutation was an insertion (`None`
///   for a removal).
///
/// For a removal, the old coreness values are already upper bounds. For
/// an insertion, the `k_min`-shell region reachable from the lower
/// endpoint(s) is bumped by one (capped by the new degree).
///
/// # Example
///
/// ```
/// use dkcore::dynamic::warm_start_estimates;
/// use dkcore_graph::{generators::path, Graph, NodeId};
///
/// let old = vec![1, 1, 1, 1, 1];
/// let cycle = Graph::from_edges(5, [(0,1),(1,2),(2,3),(3,4),(4,0)])?;
/// let est = warm_start_estimates(&old, &cycle, Some((NodeId(0), NodeId(4))));
/// assert!(est.iter().all(|&e| e == 2)); // everyone may now reach 2
/// # Ok::<(), dkcore_graph::GraphError>(())
/// ```
pub fn warm_start_estimates(
    old_core: &[u32],
    new_graph: &Graph,
    inserted: Option<(NodeId, NodeId)>,
) -> Vec<u32> {
    let mut est: Vec<u32> = old_core.to_vec();
    if let Some((u, v)) = inserted {
        let k_min = old_core[u.index()].min(old_core[v.index()]);
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut seen = vec![false; new_graph.node_count()];
        for r in [u, v] {
            if old_core[r.index()] == k_min && !seen[r.index()] {
                seen[r.index()] = true;
                queue.push_back(r);
            }
        }
        while let Some(w) = queue.pop_front() {
            est[w.index()] = (k_min + 1).min(new_graph.degree(w));
            for &x in new_graph.neighbors(w) {
                if old_core[x.index()] == k_min && !seen[x.index()] {
                    seen[x.index()] = true;
                    queue.push_back(x);
                }
            }
        }
    }
    // Degrees always cap estimates (a removal can lower a degree below
    // the old coreness only when the old coreness was degree-limited,
    // in which case the new coreness dropped too).
    for u in new_graph.nodes() {
        est[u.index()] = est[u.index()].min(new_graph.degree(u));
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkcore_graph::generators::{complete, cycle, gnp, path, star};

    #[test]
    fn cycle_close_and_open() {
        let mut dc = DynamicCore::new(&path(6));
        assert!(dc.values().iter().all(|&k| k == 1));
        dc.insert_edge(NodeId(0), NodeId(5)).unwrap();
        assert!(dc.values().iter().all(|&k| k == 2), "closed into a cycle");
        dc.remove_edge(NodeId(2), NodeId(3)).unwrap();
        assert!(
            dc.values().iter().all(|&k| k == 1),
            "opened back into a path"
        );
    }

    #[test]
    fn insert_between_isolated_nodes() {
        let g = Graph::from_edges(3, []).unwrap();
        let mut dc = DynamicCore::new(&g);
        let stats = dc.insert_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(dc.values(), &[1, 0, 1]);
        assert_eq!(stats.changed, 2);
    }

    #[test]
    fn remove_to_isolation() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut dc = DynamicCore::new(&g);
        dc.remove_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(dc.values(), &[0, 0]);
        assert_eq!(dc.edge_count(), 0);
    }

    #[test]
    fn errors_on_bad_mutations() {
        let mut dc = DynamicCore::new(&path(3));
        assert!(matches!(
            dc.insert_edge(NodeId(0), NodeId(1)),
            Err(MutationError::EdgeState { present: true, .. })
        ));
        assert!(matches!(
            dc.remove_edge(NodeId(0), NodeId(2)),
            Err(MutationError::EdgeState { present: false, .. })
        ));
        assert!(matches!(
            dc.insert_edge(NodeId(1), NodeId(1)),
            Err(MutationError::InvalidEndpoints { .. })
        ));
        assert!(matches!(
            dc.remove_edge(NodeId(0), NodeId(9)),
            Err(MutationError::InvalidEndpoints { .. })
        ));
        assert!(MutationError::EdgeState {
            u: NodeId(0),
            v: NodeId(1),
            present: true
        }
        .to_string()
        .contains("already present"));
    }

    #[test]
    fn repair_matches_full_recompute_on_random_traces() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let g = gnp(60, 0.06, trial);
            let mut dc = DynamicCore::new(&g);
            for step in 0..80 {
                let a = NodeId(rng.random_range(0..60));
                let b = NodeId(rng.random_range(0..60));
                if a == b {
                    continue;
                }
                if dc.has_edge(a, b) {
                    dc.remove_edge(a, b).unwrap();
                } else {
                    dc.insert_edge(a, b).unwrap();
                }
                let expected = batagelj_zaversnik(&dc.to_graph());
                assert_eq!(
                    dc.values(),
                    expected.as_slice(),
                    "trial {trial}, step {step}, after mutating {{{a}, {b}}}"
                );
            }
        }
    }

    #[test]
    fn repair_working_set_is_local() {
        // Inserting one edge at the edge of a large graph should examine
        // far fewer nodes than the whole graph. The working-set size is
        // sensitive to the sampled graph, so pin a seed with a comfortable
        // margin under the offline rand shim.
        let g = gnp(2_000, 0.005, 5);
        let mut dc = DynamicCore::new(&g);
        let mut total_candidates = 0usize;
        let mut mutations = 0usize;
        for i in 0..50u32 {
            let a = NodeId(i);
            let b = NodeId(1_000 + i);
            if !dc.has_edge(a, b) {
                total_candidates += dc.insert_edge(a, b).unwrap().candidates;
                mutations += 1;
            }
        }
        let avg = total_candidates as f64 / mutations as f64;
        assert!(
            avg < 2_000.0 / 2.0,
            "repairs should be local, avg working set {avg}"
        );
    }

    #[test]
    fn dense_graph_updates() {
        let mut dc = DynamicCore::new(&complete(8));
        assert!(dc.values().iter().all(|&k| k == 7));
        dc.remove_edge(NodeId(0), NodeId(1)).unwrap();
        let expected = batagelj_zaversnik(&dc.to_graph());
        assert_eq!(dc.values(), expected.as_slice());
    }

    #[test]
    fn star_hub_gains_from_leaf_links() {
        let mut dc = DynamicCore::new(&star(6));
        assert!(dc.values().iter().all(|&k| k == 1));
        // Connect two leaves: a triangle with the hub appears.
        dc.insert_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(dc.coreness(NodeId(0)), 2);
        assert_eq!(dc.coreness(NodeId(1)), 2);
        assert_eq!(dc.coreness(NodeId(2)), 2);
        assert_eq!(dc.coreness(NodeId(3)), 1);
    }

    #[test]
    fn high_degree_hub_mutations_stay_sorted_and_correct() {
        // Regression for the adjacency fast path: a 20k-leaf star hub is
        // churned hundreds of times. Sorted-insertion via binary search +
        // in-slot shift must keep `has_edge`/repair correct at high
        // degree (a linear-scan or rebuild-based adjacency would blow up
        // quadratically here).
        const LEAVES: u32 = 20_000;
        let g = star(LEAVES as usize + 1);
        let mut dc = DynamicCore::new(&g);
        assert_eq!(dc.degree(NodeId(0)), LEAVES);
        // Remove and re-insert hub edges scattered across the slot.
        for i in 0..400u32 {
            let leaf = NodeId(1 + (i * 37) % LEAVES);
            dc.remove_edge(NodeId(0), leaf).unwrap();
            assert!(!dc.has_edge(NodeId(0), leaf));
            dc.insert_edge(NodeId(0), leaf).unwrap();
            assert!(dc.has_edge(NodeId(0), leaf));
        }
        assert_eq!(dc.degree(NodeId(0)), LEAVES);
        // Leaf-to-leaf chords trigger hub-region repairs at full degree.
        for i in 0..50u32 {
            dc.insert_edge(NodeId(1 + 2 * i), NodeId(2 + 2 * i))
                .unwrap();
        }
        let expected = batagelj_zaversnik(&dc.to_graph());
        assert_eq!(dc.values(), expected.as_slice());
        assert_eq!(dc.coreness(NodeId(0)), 2);
    }

    #[test]
    fn to_graph_roundtrip() {
        let g = gnp(50, 0.1, 3);
        let dc = DynamicCore::new(&g);
        assert_eq!(dc.to_graph(), g);
        assert_eq!(dc.node_count(), 50);
        assert_eq!(dc.edge_count(), g.edge_count());
    }

    #[test]
    fn warm_start_estimates_are_upper_bounds() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = gnp(80, 0.05, 5);
        let mut dc = DynamicCore::new(&g);
        for _ in 0..40 {
            let a = NodeId(rng.random_range(0..80));
            let b = NodeId(rng.random_range(0..80));
            if a == b {
                continue;
            }
            let old = dc.values().to_vec();
            let inserted = if dc.has_edge(a, b) {
                dc.remove_edge(a, b).unwrap();
                None
            } else {
                dc.insert_edge(a, b).unwrap();
                Some((a, b))
            };
            let new_graph = dc.to_graph();
            let est = warm_start_estimates(&old, &new_graph, inserted);
            for u in new_graph.nodes() {
                assert!(
                    est[u.index()] >= dc.coreness(u),
                    "warm start below new coreness at {u}"
                );
            }
        }
    }

    #[test]
    fn warm_start_on_cycle_example() {
        let old = vec![1, 1, 1, 1, 1];
        let c = cycle(5);
        let est = warm_start_estimates(&old, &c, Some((NodeId(0), NodeId(4))));
        assert_eq!(est, vec![2; 5]);
    }
}
