//! The one-shot decomposition phase: a static web graph decomposed by
//! the live threaded [`Runtime`] (the paper's one-to-many protocol,
//! §3.2, with one OS thread per host), checked against
//! Batagelj–Zaveršnik (BZ). No writes, no wire.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dkcore::seq::batagelj_zaversnik;
use dkcore_data::by_name;
use dkcore_graph::Graph;
use dkcore_runtime::{Runtime, RuntimeConfig};

use crate::report::{ratio, Metrics};
use crate::stats::median;
use crate::trace::Trace;

/// Catalog analog decomposed (a web crawl: long tail of rounds with few
/// active nodes).
pub const DATASET: &str = "berkstan-like";
/// Requested size; the generator rounds it up to whole web sites.
pub const NODES: usize = 100_000;
/// Hosts of the one-to-many deployment (one worker thread each).
pub const HOSTS: usize = 2;
/// The decomposition graph and runtime, plus what the repetitions so
/// far measured.
pub struct Decomposer {
    graph: Graph,
    runtime: Runtime,
    run_s: Vec<f64>,
    bz_s: Vec<f64>,
    /// `(rounds, messages, estimates_sent)`, identical on every
    /// repetition.
    counts: Option<(u32, u64, u64)>,
    kmax: u32,
}

/// Counts and times of the phase.
pub struct Outcome {
    /// Median wall time of `Runtime::run`, in seconds.
    pub decompose_s: f64,
    /// Per-layer metrics (`runtime.*`, `seq.*`).
    pub layers: Metrics,
    /// Decompositions attempted.
    pub attempted: u64,
}

impl Decomposer {
    /// Builds the graph from `seed` and the runtime.
    pub fn new(seed: u64) -> Result<Self, String> {
        let spec = by_name(DATASET).ok_or_else(|| format!("{DATASET} is not in the catalog"))?;
        Ok(Decomposer {
            graph: spec.build_scaled(NODES, seed),
            runtime: Runtime::new(RuntimeConfig::with_hosts(HOSTS)),
            run_s: Vec::new(),
            bz_s: Vec::new(),
            counts: None,
            kmax: 0,
        })
    }

    /// Repeats decompositions, each followed by a BZ run, until `budget`
    /// has passed (at least one). Fails when a decomposition does not
    /// converge or differs from BZ, or when the protocol counts differ
    /// between repetitions (they are deterministic).
    pub fn run_for(
        &mut self,
        budget: Duration,
        mut trace: Option<&mut Trace>,
    ) -> Result<(), String> {
        let g = &self.graph;
        let start = Instant::now();
        loop {
            let rep = self.run_s.len() as u64;
            let t0 = Instant::now();
            let result = self.runtime.run(black_box(g));
            let t1 = Instant::now();
            let bz = batagelj_zaversnik(black_box(g));
            let t2 = Instant::now();
            if let Some(tr) = trace.as_deref_mut() {
                tr.record("runtime.run", rep, None, t0, t1);
                tr.record("seq.bz", rep, None, t1, t2);
            }
            self.run_s.push((t1 - t0).as_secs_f64());
            self.bz_s.push((t2 - t1).as_secs_f64());
            if !result.converged {
                return Err(format!("decompose: runtime did not converge (rep {rep})"));
            }
            if result.coreness != bz {
                let bad = result
                    .coreness
                    .iter()
                    .zip(&bz)
                    .filter(|(a, b)| a != b)
                    .count();
                return Err(format!("decompose: {bad} nodes differ from BZ (rep {rep})"));
            }
            let c = (result.rounds, result.messages, result.estimates_sent);
            if *self.counts.get_or_insert(c) != c {
                return Err(format!(
                    "decompose: counts {c:?} changed between repetitions"
                ));
            }
            self.kmax = bz.iter().copied().max().unwrap_or(0);
            if start.elapsed() >= budget {
                return Ok(());
            }
        }
    }

    /// The metrics over every repetition so far.
    pub fn finish(self) -> Outcome {
        let (rounds, messages, estimates) = self.counts.unwrap_or_default();
        let decompose_s = median(&self.run_s);
        let bz_s = median(&self.bz_s);
        let mut layers = Metrics::default();
        layers.push("runtime.rounds", f64::from(rounds), "count");
        layers.push("runtime.messages", messages as f64, "count");
        layers.push("runtime.estimates_sent", estimates as f64, "count");
        let per_round = ratio(decompose_s * 1e6, f64::from(rounds));
        layers.push("runtime.us_per_round", per_round, "us");
        layers.push("runtime.nodes", self.graph.node_count() as f64, "count");
        layers.push("seq.bz_s", bz_s, "s");
        layers.push("seq.decompose_over_bz", ratio(decompose_s, bz_s), "ratio");
        layers.push("seq.kmax", f64::from(self.kmax), "count");
        Outcome {
            decompose_s,
            layers,
            attempted: self.run_s.len() as u64,
        }
    }
}
