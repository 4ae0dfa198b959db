//! Bit-identity oracle for the persistent exchange pool: the same churn
//! stream driven through an unpinned-pool service and a pinned-pool
//! service must publish identical epochs, identical per-batch
//! convergence counters (rounds / messages / changed), and identical
//! stitched coreness — core pinning is a placement hint, never an
//! algorithm change. Both must in turn match a fresh Batagelj–Zaveršnik
//! decomposition of the final graph.
//!
//! The CI determinism matrix re-runs this suite with
//! `DKCORE_TEST_SEED` shifting the churn streams and
//! `DKCORE_TEST_SHARDS` pinning one shard count (default: all of
//! {1, 2, 4, 8}).

use dkcore::one_to_many::AssignmentPolicy;
use dkcore::seq::batagelj_zaversnik;
use dkcore_data::{churn_stream, ChurnWorkload};
use dkcore_graph::generators::{gnp, worst_case};
use dkcore_graph::Graph;
use dkcore_serve::{ShardedConfig, ShardedCoreService, ShardedPublishReport};

/// Shard counts under test: `DKCORE_TEST_SHARDS` pins one, default all.
fn shard_counts() -> Vec<usize> {
    std::env::var("DKCORE_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or_else(|| vec![1, 2, 4, 8], |s| vec![s])
}

/// Offset mixed into every stream seed, from `DKCORE_TEST_SEED`.
fn seed_offset() -> u64 {
    std::env::var("DKCORE_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The deterministic slice of a publish report — everything except the
/// wall-clock timings, which legitimately differ between strategies.
fn counters(r: &ShardedPublishReport) -> (u64, u32, u64, usize, bool, u32, u64) {
    (
        r.epoch,
        r.rounds,
        r.messages,
        r.changed,
        r.deferred,
        r.failovers,
        r.replayed,
    )
}

fn config(pin: bool) -> ShardedConfig {
    ShardedConfig {
        policy: AssignmentPolicy::Modulo,
        pin,
        ..ShardedConfig::default()
    }
}

/// Drives the same stream through every configuration in `configs`
/// lockstep, asserting batch-by-batch counter identity against the
/// first configuration and final-snapshot identity against fresh BZ.
// One parameter per experiment axis, same shape as the sharded oracle.
#[allow(clippy::too_many_arguments)]
fn run_lockstep(
    name: &str,
    g: &Graph,
    shards: usize,
    configs: &[(&str, ShardedConfig)],
    workload: ChurnWorkload,
    batches: usize,
    batch_size: usize,
    seed: u64,
) {
    let stream = churn_stream(g, workload, batches, batch_size, seed);
    let mut services: Vec<_> = configs
        .iter()
        .map(|(_, c)| ShardedCoreService::with_config(g, shards, c.clone()))
        .collect();
    for (i, batch) in stream.iter().enumerate() {
        let mut base = None;
        for (svc, (label, _)) in services.iter_mut().zip(configs) {
            let report = svc
                .apply_batch(batch)
                .unwrap_or_else(|e| panic!("{name}/{label}: batch {i} invalid: {e}"));
            let got = counters(&report);
            match &base {
                None => base = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "{name}/{label}: batch {i} counters diverged from {}",
                    configs[0].0
                ),
            }
        }
    }
    let reference = services[0].handle().snapshot();
    let truth = batagelj_zaversnik(reference.graph());
    for (svc, (label, _)) in services.iter().zip(configs) {
        let snap = svc.handle().snapshot();
        assert_eq!(snap.epoch(), stream.len() as u64, "{name}/{label}");
        assert_eq!(
            snap.values(),
            reference.values(),
            "{name}/{label}: stitched coreness diverged from {}",
            configs[0].0
        );
        assert_eq!(
            snap.values(),
            truth.as_slice(),
            "{name}/{label}: stitched coreness diverged from fresh BZ"
        );
    }
}

#[test]
fn pinned_pool_matches_unpinned_pool_on_mixed_gnp200() {
    let seed = 0xF001 + seed_offset();
    for shards in shard_counts() {
        let g = gnp(200, 0.04, seed + shards as u64);
        run_lockstep(
            &format!("mixed/gnp200/s{shards}"),
            &g,
            shards,
            &[("pooled", config(false)), ("pinned", config(true))],
            ChurnWorkload::Mixed { insert_pct: 55 },
            20,
            8,
            seed + shards as u64,
        );
    }
}

#[test]
fn pinned_pool_matches_unpinned_pool_on_mixed_gnp150() {
    let seed = 0x9188 + seed_offset();
    for shards in shard_counts() {
        let g = gnp(150, 0.05, seed + shards as u64);
        run_lockstep(
            &format!("pinned/gnp150/s{shards}"),
            &g,
            shards,
            &[("pooled", config(false)), ("pinned", config(true))],
            ChurnWorkload::Mixed { insert_pct: 50 },
            15,
            10,
            seed + shards as u64,
        );
    }
}

#[test]
fn pinned_pool_matches_unpinned_pool_on_adversarial_worst56() {
    // §4.2 chain toggles cascade repairs across every shard boundary —
    // the maximum-round case where a pool scheduling bug (a stale
    // barrier, a worker reading a previous round's staging) would show
    // up as a counter or coreness divergence.
    let seed = 3 + seed_offset();
    for shards in shard_counts() {
        let g = worst_case(56);
        run_lockstep(
            &format!("adversarial/worst56/s{shards}"),
            &g,
            shards,
            &[("pooled", config(false)), ("pinned", config(true))],
            ChurnWorkload::Adversarial,
            12,
            5,
            seed + shards as u64,
        );
    }
}
