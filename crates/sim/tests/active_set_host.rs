//! Property tests for the PR 2 fast path: the [`ActiveSetHostEngine`]
//! must be indistinguishable from the legacy synchronous host engine —
//! same coreness (cross-checked against Batagelj–Zaveršnik ground truth),
//! same round count, same per-host `⟨S⟩` message counts — across random
//! graphs, random partitions, both dissemination policies, and arbitrary
//! thread counts. (The engine runs the default Worklist emulation only;
//! the Sweep/PerRound ablations run on `HostSim` alone.)
//!
//! The CI `determinism` job re-runs this suite with `DKCORE_TEST_THREADS`
//! forced to 1, 2 and 8 and `DKCORE_TEST_SEED` varied, proving that
//! sharding never changes rounds, messages or estimates.

use dkcore::one_to_many::{AssignmentPolicy, DisseminationPolicy};
use dkcore::seq::batagelj_zaversnik;
use dkcore_graph::generators::{complete, gnp, star, worst_case};
use dkcore_graph::Graph;
use dkcore_sim::{
    ActiveSetHostConfig, ActiveSetHostEngine, HostSim, HostSimConfig, RunResult, SimMode,
};
use proptest::prelude::*;

mod common;
use common::{seed_offset, test_threads};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..60).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..220);
        edges.prop_map(move |es| Graph::from_edges(n, es).expect("endpoints in range"))
    })
}

fn arb_assignment() -> impl Strategy<Value = AssignmentPolicy> {
    (0u32..4, any::<u64>()).prop_map(|(which, seed)| match which {
        0 => AssignmentPolicy::Modulo,
        1 => AssignmentPolicy::Block,
        2 => AssignmentPolicy::Random { seed },
        _ => AssignmentPolicy::BfsBlocks,
    })
}

fn legacy_config(
    hosts: usize,
    policy: DisseminationPolicy,
    assignment: &AssignmentPolicy,
) -> HostSimConfig {
    let mut config = HostSimConfig::synchronous(hosts);
    config.protocol.policy = policy;
    config.assignment = assignment.clone();
    config
}

fn run_legacy(
    g: &Graph,
    hosts: usize,
    policy: DisseminationPolicy,
    assignment: &AssignmentPolicy,
) -> RunResult {
    HostSim::new(g, legacy_config(hosts, policy, assignment)).run()
}

fn run_fast(
    g: &Graph,
    hosts: usize,
    policy: DisseminationPolicy,
    assignment: &AssignmentPolicy,
    threads: usize,
) -> RunResult {
    let mut config = ActiveSetHostConfig::synchronous(hosts);
    config.policy = policy;
    config.assignment = assignment.clone();
    config.threads = threads;
    ActiveSetHostEngine::new(g, config).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole equivalence on random graphs and random partitions:
    /// coreness equals the sequential ground truth, and the whole
    /// `RunResult` (rounds, execution time, total and per-host messages)
    /// matches the legacy engine under both dissemination policies, with
    /// sequential and sharded execution.
    #[test]
    fn active_set_host_equals_legacy_and_bz(
        g in arb_graph(),
        hosts in 1usize..12,
        broadcast in any::<bool>(),
        assignment in arb_assignment(),
    ) {
        let policy = if broadcast {
            DisseminationPolicy::Broadcast
        } else {
            DisseminationPolicy::PointToPoint
        };
        let truth = batagelj_zaversnik(&g);
        let legacy = run_legacy(&g, hosts, policy, &assignment);
        let fast = run_fast(&g, hosts, policy, &assignment, 1);
        prop_assert_eq!(&fast.final_estimates, &truth);
        prop_assert_eq!(&fast, &legacy);
        // Sharded execution changes nothing either.
        let sharded = run_fast(&g, hosts, policy, &assignment, test_threads(3));
        prop_assert_eq!(&sharded, &legacy);
    }
}

/// The fixed-family × policy × host-count matrix, with per-field failure
/// messages (the counterpart of `active_set.rs`'s family matrix).
#[test]
fn family_matrix_identical_counts() {
    let off = seed_offset();
    let families: Vec<(&str, Graph)> = vec![
        ("gnp", gnp(120, 0.06, 5 + off)),
        ("star", star(30)),
        ("complete", complete(14)),
        ("worst_case", worst_case(20)),
    ];
    let threads = test_threads(3);
    for (name, g) in &families {
        let truth = batagelj_zaversnik(g);
        for policy in [
            DisseminationPolicy::Broadcast,
            DisseminationPolicy::PointToPoint,
        ] {
            for hosts in [1usize, 3, 8] {
                let legacy = run_legacy(g, hosts, policy, &AssignmentPolicy::Modulo);
                let fast = run_fast(g, hosts, policy, &AssignmentPolicy::Modulo, threads);
                let tag = format!("{name} {policy:?} hosts={hosts} threads={threads}");
                assert_eq!(fast.final_estimates, truth, "{tag}: coreness");
                assert_eq!(
                    fast.rounds_executed, legacy.rounds_executed,
                    "{tag}: rounds"
                );
                assert_eq!(
                    fast.execution_time, legacy.execution_time,
                    "{tag}: execution time"
                );
                assert_eq!(
                    fast.total_messages, legacy.total_messages,
                    "{tag}: total messages"
                );
                assert_eq!(
                    fast.messages_per_sender, legacy.messages_per_sender,
                    "{tag}: per-host messages"
                );
                assert_eq!(fast.converged, legacy.converged, "{tag}: convergence");
            }
        }
    }
}

/// Sharding is invisible: any thread count yields the same `RunResult`.
#[test]
fn thread_count_invariance() {
    let off = seed_offset();
    let g = gnp(250, 0.04, 13 + off);
    let reference = run_fast(
        &g,
        16,
        DisseminationPolicy::PointToPoint,
        &AssignmentPolicy::Modulo,
        1,
    );
    for threads in [2, 3, 8, 16] {
        let sharded = run_fast(
            &g,
            16,
            DisseminationPolicy::PointToPoint,
            &AssignmentPolicy::Modulo,
            threads,
        );
        assert_eq!(sharded, reference, "threads={threads}");
    }
}

/// The engine rejects nothing HostSim accepts: degenerate shapes (more
/// hosts than nodes, single host, empty graph) behave identically.
#[test]
fn degenerate_shapes_equal_legacy() {
    let threads = test_threads(2);
    for (name, g, hosts) in [
        ("empty", Graph::from_edges(0, []).unwrap(), 3usize),
        ("isolated", Graph::from_edges(6, []).unwrap(), 4),
        ("more_hosts_than_nodes", gnp(5, 0.5, 2), 9),
        ("single_host", gnp(40, 0.1, 3), 1),
    ] {
        let legacy = run_legacy(
            &g,
            hosts,
            DisseminationPolicy::PointToPoint,
            &AssignmentPolicy::Modulo,
        );
        let fast = run_fast(
            &g,
            hosts,
            DisseminationPolicy::PointToPoint,
            &AssignmentPolicy::Modulo,
            threads,
        );
        assert_eq!(fast, legacy, "{name}");
    }
}

/// `SimMode::RandomOrder` stays the legacy engine's exclusive domain; the
/// fast engine's synchronous results still agree with what a random-order
/// run converges to (the protocol's fixpoint is schedule-independent).
#[test]
fn synchronous_fixpoint_matches_random_order_runs() {
    let off = seed_offset();
    let g = gnp(90, 0.07, 23 + off);
    let fast = run_fast(
        &g,
        6,
        DisseminationPolicy::PointToPoint,
        &AssignmentPolicy::Modulo,
        test_threads(2),
    );
    for seed in 0..3u64 {
        let mut config = HostSimConfig::synchronous(6);
        config.mode = SimMode::RandomOrder { seed };
        let random = HostSim::new(&g, config).run();
        assert!(random.converged);
        assert_eq!(random.final_estimates, fast.final_estimates, "seed {seed}");
    }
}
