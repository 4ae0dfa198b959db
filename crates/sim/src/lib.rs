//! Round-based simulation engine for the distributed k-core protocols —
//! the workspace's stand-in for PeerSim, which the paper's §5 used for all
//! experiments.
//!
//! Two execution models are provided, selected by [`SimMode`]:
//!
//! * [`SimMode::Synchronous`] — lock-step rounds: messages sent in round
//!   `r` are delivered at the start of round `r + 1`. This is the model of
//!   the paper's §4 proofs (Theorems 4–5, Corollary 1); the theory-bound
//!   experiments use it.
//! * [`SimMode::RandomOrder`] — PeerSim-style cycles: within each cycle
//!   nodes are processed in a random order and messages become visible to
//!   nodes processed later *in the same cycle*. The paper: "Experiments
//!   differ in the (random) order with which operations performed at
//!   different nodes are considered in the simulation." Table 1, Table 2
//!   and Figures 4–5 use this model.
//!
//! [`NodeSim`] drives the one-to-one protocol, [`HostSim`] the one-to-many
//! protocol; both expose a per-round [`Observer`] hook (error evolution for
//! Figure 4, per-core completion for Table 2) and work with any
//! [`TerminationDetector`](dkcore::termination::TerminationDetector).
//! [`experiment`] wraps repetition + aggregation ("average over 50
//! experiments").
//!
//! # Engine selection
//!
//! Four engines cover the protocol × performance matrix; the slow pair is
//! the semantic reference (both execution models, observers, pluggable
//! termination detectors), the fast pair is the bit-identical synchronous
//! fast path:
//!
//! | engine | protocol | modes | when to use |
//! |--------|----------|-------|-------------|
//! | [`NodeSim`] | one-to-one (Alg. 1) | sync + random-order | reference runs, observers, Table 1/2 + Figure 4 experiments |
//! | [`ActiveSetEngine`] | one-to-one (Alg. 1) | sync only | large synchronous runs: flat CSR, active sets, sharded threads (`BENCH_PR1.json`) |
//! | [`HostSim`] | one-to-many (Alg. 3–5) | sync + random-order | reference host runs, observers, Figure 5 experiments |
//! | [`ActiveSetHostEngine`] | one-to-many (Alg. 3–5) | sync, Worklist emulation only | large multi-host synchronous runs: estimates arena, shard-staged `⟨S⟩` batches, host worklists (`BENCH_PR2.json`); the Sweep/PerRound emulation ablations run on [`HostSim`] |
//!
//! Both fast engines produce results bit-identical to their reference
//! engine (rounds, execution time, total and per-sender messages, final
//! estimates — property-tested in `tests/active_set.rs` and
//! `tests/active_set_host.rs`), so they are safe drop-in replacements
//! whenever the execution model is synchronous. The `dkcore simulate`
//! CLI exposes the choice as `--engine legacy|active-set`.
//!
//! The one-to-one engines also support **warm starts** for edge-churn
//! streams: [`NodeSim::with_estimates`] and
//! [`ActiveSetEngine::with_estimates`] (bit-identical to each other)
//! begin from per-node upper bounds — e.g.
//! [`dkcore::stream::warm_start_estimates_batch`] after a batch of
//! mutations — so only the mutation candidates reactivate and
//! re-convergence costs a fraction of a cold start (`dkcore stream
//! --engine warm-dist`, `BENCH_PR3.json`).
//!
//! Beyond the protocol simulators, two maintenance/serving layers build
//! on the same decomposition core and extend the selection matrix for
//! *churning* graphs:
//!
//! | engine | layer | concurrency | when to use |
//! |--------|-------|-------------|-------------|
//! | `dkcore::stream::StreamCore` | batched streaming repair | single-threaded writer | re-converge after each mutation batch without rescanning the graph (`BENCH_PR3.json`) |
//! | `dkcore_serve::CoreService` | epoch-snapshot query service | one writer + lock-free readers | answer coreness / k-core / histogram / top-k queries concurrently *while* the graph churns — readers pin immutable epochs, the writer publishes one per batch (`dkcore serve`, `BENCH_PR4.json`) |
//!
//! Pick a simulator when the object of study is the *protocol* (rounds,
//! messages, convergence); pick the serving stack when the object is the
//! *answers* and the graph never stops changing.
//!
//! # Example
//!
//! ```
//! use dkcore_sim::{NodeSim, NodeSimConfig, SimMode};
//! use dkcore_graph::generators::worst_case;
//!
//! // The paper's Figure 3 worst-case graph needs exactly N - 1 = 11
//! // synchronous rounds (counting, as the paper does, the final round in
//! // which the last updates arrive without further effect).
//! let g = worst_case(12);
//! let mut sim = NodeSim::new(&g, NodeSimConfig::synchronous());
//! let result = sim.run();
//! assert!(result.converged);
//! assert_eq!(result.rounds_executed, 11);
//! assert!(result.final_estimates.iter().all(|&c| c == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active_set;
mod active_set_host;
mod async_engine;
mod host_engine;
mod node_engine;
mod observer;
mod report;

pub mod experiment;

pub use active_set::{ActiveSetConfig, ActiveSetEngine, ActiveStepReport};
pub use active_set_host::{ActiveSetHostConfig, ActiveSetHostEngine, HostStepReport};
pub use async_engine::{AsyncRunResult, AsyncSim, AsyncSimConfig};
pub use host_engine::{HostSim, HostSimConfig};
pub use node_engine::{NodeSim, NodeSimConfig};
pub use observer::{CoreCompletionObserver, ErrorEvolutionObserver, Observer, ProgressObserver};
pub use report::{RunResult, StepReport};

/// Execution model of a simulation (see the [crate docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Lock-step rounds; messages cross exactly one round boundary. The
    /// model under which the paper's §4 bounds are proven.
    Synchronous,
    /// PeerSim-style cycles: random per-cycle processing order, immediate
    /// message visibility within the cycle. The model of the paper's §5
    /// experiments.
    RandomOrder {
        /// Seed for the per-cycle permutation; vary it across repetitions.
        seed: u64,
    },
}
