//! PR 2 acceptance benchmark: legacy synchronous host engine ([`HostSim`])
//! vs the flat [`ActiveSetHostEngine`](dkcore_sim::ActiveSetHostEngine),
//! with correctness cross-checks, emitting machine-readable
//! `BENCH_PR2.json`.
//!
//! The headline metric is **round throughput**: engine construction is
//! timed and reported separately (`*_build_ms`) so the speedup ratios
//! compare the cost of actually simulating rounds — the part that is
//! paid once per run in experiments and repeatedly in parameter sweeps.
//!
//! Usage: `bench_pr2 [output.json]` (default `BENCH_PR2.json`). Set
//! `BENCH_QUICK=1` for a fast smoke run (smaller graphs, fewer repetitions)
//! — the mode CI uses.

use std::fmt::Write as _;
use std::time::Instant;

use dkcore::one_to_many::DisseminationPolicy;
use dkcore::seq::batagelj_zaversnik;
use dkcore_graph::generators::{barabasi_albert, gnp, worst_case};
use dkcore_graph::Graph;
use dkcore_sim::{ActiveSetHostConfig, ActiveSetHostEngine, HostSim, HostSimConfig, RunResult};

struct Row {
    graph: String,
    nodes: usize,
    edges: usize,
    hosts: usize,
    legacy_build_ms: f64,
    fast_build_ms: f64,
    legacy_ms: f64,
    fast_ms: f64,
    identical: bool,
}

/// Best-of-`reps` timing of construction and run, separately.
fn time_engine<B, R, E>(reps: usize, mut build: B, mut run: R) -> (f64, f64, RunResult)
where
    B: FnMut() -> E,
    R: FnMut(&mut E) -> RunResult,
{
    let mut best_build = f64::INFINITY;
    let mut best_run = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let mut engine = build();
        best_build = best_build.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        result = Some(run(&mut engine));
        best_run = best_run.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best_build, best_run, result.expect("reps >= 1"))
}

fn measure(graph: &str, g: &Graph, hosts: usize, policy: DisseminationPolicy, reps: usize) -> Row {
    let truth = batagelj_zaversnik(g);
    let legacy_config = {
        let mut c = HostSimConfig::synchronous(hosts);
        c.protocol.policy = policy;
        c
    };
    let fast_config = {
        let mut c = ActiveSetHostConfig::synchronous(hosts);
        c.policy = policy;
        c
    };
    let (legacy_build_ms, legacy_ms, legacy) =
        time_engine(reps, || HostSim::new(g, legacy_config.clone()), |e| e.run());
    let (fast_build_ms, fast_ms, fast) = time_engine(
        reps,
        || ActiveSetHostEngine::new(g, fast_config.clone()),
        |e| e.run(),
    );
    let identical = legacy.final_estimates == truth && fast == legacy;
    println!(
        "{graph:<28} legacy {legacy_ms:>9.2} ms | active-set host {fast_ms:>9.2} ms \
         ({:>5.2}x) | build {legacy_build_ms:>7.1} -> {fast_build_ms:>7.1} ms | identical: {identical}",
        legacy_ms / fast_ms,
    );
    Row {
        graph: graph.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        hosts,
        legacy_build_ms,
        fast_build_ms,
        legacy_ms,
        fast_ms,
        identical,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR2.json".into());
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let (scale, wc_scale, reps) = if quick {
        (10_000usize, 3_000usize, 3usize)
    } else {
        (100_000, 25_000, 3)
    };

    println!("building graphs (scale {scale})...");
    let gnp16 = gnp(scale, 16.0 / scale as f64, 42);
    let gnp4 = gnp(scale, 4.0 / scale as f64, 43);
    let ba8 = barabasi_albert(scale, 8, 44);
    let wc = worst_case(wc_scale);
    let p2p = DisseminationPolicy::PointToPoint;
    let bcast = DisseminationPolicy::Broadcast;
    let rows = [
        measure(&format!("gnp_avg16_h64_p2p/{scale}"), &gnp16, 64, p2p, reps),
        measure(&format!("gnp_avg4_h64_p2p/{scale}"), &gnp4, 64, p2p, reps),
        measure(&format!("ba_m8_h256_p2p/{scale}"), &ba8, 256, p2p, reps),
        measure(
            &format!("gnp_avg16_h64_bcast/{scale}"),
            &gnp16,
            64,
            bcast,
            reps,
        ),
        measure(&format!("ba_m8_h64_bcast/{scale}"), &ba8, 64, bcast, reps),
        measure(
            &format!("worst_case_h64_p2p/{wc_scale}"),
            &wc,
            64,
            p2p,
            reps,
        ),
    ];

    let mut json = String::from("{\n  \"bench\": \"BENCH_PR2\",\n");
    let _ = writeln!(json, "  \"quick_mode\": {quick},");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let _ = writeln!(json, "  \"cores\": {cores},");
    json.push_str("  \"metric\": \"round throughput (run time, construction separate)\",\n");
    json.push_str("  \"engines\": [\"legacy_host_sync\", \"active_set_host\"],\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"graph\": \"{}\", \"nodes\": {}, \"edges\": {}, \"hosts\": {}, \
             \"legacy_host_ms\": {:.3}, \"active_set_host_ms\": {:.3}, \
             \"legacy_build_ms\": {:.3}, \"active_set_build_ms\": {:.3}, \
             \"speedup\": {:.3}, \"identical_output\": {}}}",
            r.graph,
            r.nodes,
            r.edges,
            r.hosts,
            r.legacy_ms,
            r.fast_ms,
            r.legacy_build_ms,
            r.fast_build_ms,
            r.legacy_ms / r.fast_ms,
            r.identical,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_PR2.json");
    println!("wrote {out_path}");

    assert!(
        rows.iter().all(|r| r.identical),
        "engines disagree — see table above"
    );
}
