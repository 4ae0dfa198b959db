//! Benchmarks of the one-to-many (host) engines: the legacy sequential
//! [`HostSim`] versus the flat [`ActiveSetHostEngine`] fast path — the
//! PR 2 acceptance comparison, also emitted as `BENCH_PR2.json` by the
//! `bench_pr2` binary — across host counts and both dissemination
//! policies.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkcore::one_to_many::DisseminationPolicy;
use dkcore_graph::generators::{barabasi_albert, gnp};
use dkcore_sim::{ActiveSetHostConfig, ActiveSetHostEngine, HostSim, HostSimConfig};

fn bench_host_engines(c: &mut Criterion) {
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let scale = if quick { 10_000 } else { 100_000 };
    let mut group = c.benchmark_group("host_engine_comparison");
    group.sample_size(10);
    let workloads: Vec<(String, dkcore_graph::Graph)> = vec![
        (
            format!("gnp_avg16/{scale}"),
            gnp(scale, 16.0 / scale as f64, 42),
        ),
        (format!("ba_m8/{scale}"), barabasi_albert(scale, 8, 44)),
    ];
    for (name, g) in &workloads {
        for hosts in [64usize, 256] {
            for (policy_name, policy) in [
                ("p2p", DisseminationPolicy::PointToPoint),
                ("bcast", DisseminationPolicy::Broadcast),
            ] {
                let id = format!("{name}/h{hosts}/{policy_name}");
                group.bench_with_input(BenchmarkId::new("legacy", &id), g, |b, g| {
                    b.iter(|| {
                        let mut config = HostSimConfig::synchronous(hosts);
                        config.protocol.policy = policy;
                        HostSim::new(black_box(g), config).run()
                    })
                });
                group.bench_with_input(BenchmarkId::new("active_set_host_seq", &id), g, |b, g| {
                    b.iter(|| {
                        let mut config = ActiveSetHostConfig::sequential(hosts);
                        config.policy = policy;
                        ActiveSetHostEngine::new(black_box(g), config).run()
                    })
                });
                group.bench_with_input(BenchmarkId::new("active_set_host_par", &id), g, |b, g| {
                    b.iter(|| {
                        let mut config = ActiveSetHostConfig::synchronous(hosts);
                        config.policy = policy;
                        ActiveSetHostEngine::new(black_box(g), config).run()
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_host_engines);
criterion_main!(benches);
