//! Command-line entry point of the dkcore benchmark; see the library
//! docs for what a run measures.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dkcore_kbench::decompose::Decomposer;
use dkcore_kbench::report::{result_json, Metrics};
use dkcore_kbench::serving::{self, Session, Spec, Writer};
use dkcore_kbench::stats::{self, Better};
use dkcore_kbench::trace::Trace;
use dkcore_kbench::{CYCLES, GRAPH_SEED, SERVE_SHARE, SETUP_REPS, WORKLOADS};
use dkcore_serve::{CoreService, ShardedCoreService};

/// Span names whose self time is reported, in output order.
const SPANS: [&str; 12] = [
    "batch",
    "apply_batch",
    "repair",
    "publish",
    "repair.removal",
    "repair.region",
    "repair.insert",
    "repair.export",
    "read",
    "view.query",
    "runtime.run",
    "seq.bz",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Resident-set high-water mark of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs one workload; returns the result line.
fn run<W: Writer>(args: &Args, spec: &Spec) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = serving::setup::<W>(spec, GRAPH_SEED)?;
        let d = Decomposer::new(GRAPH_SEED)?;
        setup_s.push(t.elapsed().as_secs_f64());
        // Replacing the previous set-up shuts its server down.
        kept = Some((s, d));
    }
    let (mut served_setup, mut dec) = kept.expect("at least one set-up");

    // Most of the measured time serves and the rest decomposes, split
    // into cycles so both parts sample the whole run.
    let serve_s = args.seconds as f64 * SERVE_SHARE;
    // A traced run splits the serving time between untraced and traced
    // phases, so it takes as long as an untraced one.
    let phases = if args.trace { 2 * CYCLES } else { CYCLES };
    let per_phase = ((spec.rate * serve_s / phases as f64).ceil() as usize).max(1);
    let decompose_per_cycle = args.seconds as f64 * (1.0 - SERVE_SHARE) / CYCLES as f64;
    let decompose_budget = Duration::from_secs_f64(decompose_per_cycle);
    let mut trace = args.trace.then(|| Trace::new(Instant::now()));
    let mut session = Session::new(spec, &mut served_setup, args.seed, per_phase * phases);
    for _ in 0..CYCLES {
        session.serve(per_phase, None)?;
        if let Some(tr) = trace.as_mut() {
            session.serve(per_phase, Some(tr))?;
        }
        dec.run_for(decompose_budget, trace.as_mut())?;
    }
    let served = session.finish()?;
    drop(served_setup);
    let dec = dec.finish();

    let attempted = served.attempted + dec.attempted;
    let failed = served.failed;
    let mut metrics = Metrics::default();
    if let Some(tr) = &trace {
        metrics.extend(served.layers);
        metrics.extend(dec.layers);
        let self_times = tr.self_times();
        for name in SPANS {
            let mean = self_times.get(name).map_or(0.0, |s| s.mean_us());
            metrics.push(format!("self.{name}_us"), mean, "us");
        }
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        metrics.push("host.cores", cores as f64, "count");
        metrics.push("host.load_threads", 2.0, "count");
        metrics.push("host.connections", 1.0, "count");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.csv", args.workload, args.seed));
        tr.write_csv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    } else {
        metrics.push("setup_s", stats::median(&setup_s), "s");
        metrics.extend(served.e2e);
        metrics.push("decompose_s", dec.decompose_s, "s");
        metrics.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    }

    let reads = attempted - served.batches - dec.attempted;
    let tail = |n: usize| stats::tail_percentile(n).map_or("none".into(), |p| format!("p{p}"));
    eprintln!(
        "{}: seed {} | {} batches (tail rule: {}) | {} reads (tail rule: {}) | {} failed of {}",
        args.workload,
        args.seed,
        served.batches,
        tail(served.batches as usize),
        reads,
        tail(reads as usize),
        failed,
        attempted
    );
    for m in &metrics.0 {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(true, attempted, failed, &metrics))
}

/// `compare <lower|higher> <parent-file> <change-file> [bound]`: one
/// value per line in each file, paired by line.
fn compare(args: &[String]) -> Result<(), String> {
    let usage = "usage: kbench compare <lower|higher> <parent-file> <change-file> [bound]";
    let better = args.first().and_then(|b| Better::parse(b)).ok_or(usage)?;
    let read = |i: usize| -> Result<Vec<f64>, String> {
        let path = args.get(i).ok_or(usage)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.split_whitespace()
            .map(|v| v.parse().map_err(|_| format!("{path}: not a number: {v}")))
            .collect()
    };
    let (parent, change) = (read(1)?, read(2)?);
    let bound: f64 = match args.get(3) {
        Some(b) => b.parse().map_err(|_| usage.to_string())?,
        None => 0.0,
    };
    let v = stats::compare_pairs(&parent, &change, better).ok_or("need at least two pairs")?;
    println!(
        "pairs won {} lost {} tied {} | parent median {} (spread {:?}) | change median {} (spread {:?})",
        v.wins,
        v.losses,
        v.ties,
        v.parent_median,
        stats::spread(&parent),
        v.change_median,
        stats::spread(&change)
    );
    println!(
        "gain: {} | regression beyond bound {bound}: {}",
        v.gain,
        v.regressed(bound, better)
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare(&argv[1..]).map(|()| None)
    } else {
        parse_args(&argv).and_then(|args| {
            let spec = WORKLOADS
                .iter()
                .find(|(name, _)| *name == args.workload)
                .map(|(_, spec)| *spec)
                .ok_or_else(|| format!("unknown workload {}", args.workload))?;
            if spec.shards > 1 {
                run::<ShardedCoreService>(&args, &spec).map(Some)
            } else {
                run::<CoreService>(&args, &spec).map(Some)
            }
        })
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kbench: {e}");
            ExitCode::FAILURE
        }
    }
}
