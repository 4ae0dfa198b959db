//! Multi-repetition experiment running and aggregation.
//!
//! The paper's Table 1 reports, per dataset, the average/minimum/maximum
//! execution time and the average/maximum messages per node over 50
//! repetitions that "differ in the (random) order with which operations
//! performed at different nodes are considered". [`run_node_experiment`]
//! and [`run_host_experiment`] reproduce exactly that loop, deriving one
//! RNG seed per repetition from a base seed.

use dkcore::one_to_many::EmulationMode;
use dkcore_graph::Graph;
use dkcore_metrics::Summary;

use crate::{
    ActiveSetHostConfig, ActiveSetHostEngine, HostSim, HostSimConfig, NodeSim, NodeSimConfig,
    RunResult, SimMode,
};

/// Engine driving a host experiment (see the crate's *Engine selection*
/// docs): the legacy reference simulator, or the flat active-set fast
/// path, which is bit-identical in synchronous mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostEngine {
    /// [`HostSim`] — both execution modes, observers, detectors.
    #[default]
    Legacy,
    /// [`ActiveSetHostEngine`] — synchronous mode with the Worklist
    /// emulation only; any other template (`RandomOrder`, or the Sweep /
    /// PerRound ablations) falls back to [`HostSim`], the only engine
    /// implementing those schedules.
    ActiveSet,
}

/// Aggregated outcome of repeated runs of the same configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// Execution time (rounds with ≥1 message) across repetitions:
    /// `mean()`, `min()`, `max()` give the paper's `t_avg`, `t_min`,
    /// `t_max`.
    pub execution_time: Summary,
    /// Per-run *average messages per sender* (`m_avg` column).
    pub avg_messages: Summary,
    /// Per-run *maximum messages from one sender* (`m_max` column).
    pub max_messages: Summary,
    /// Per-run total messages.
    pub total_messages: Summary,
    /// Per-run overhead numerator (host experiments only): estimates sent.
    pub estimates_sent: Summary,
    /// Whether every repetition converged.
    pub all_converged: bool,
}

impl ExperimentOutcome {
    fn new() -> Self {
        ExperimentOutcome {
            execution_time: Summary::new(),
            avg_messages: Summary::new(),
            max_messages: Summary::new(),
            total_messages: Summary::new(),
            estimates_sent: Summary::new(),
            all_converged: true,
        }
    }

    fn record(&mut self, result: &RunResult) {
        self.execution_time.record(result.execution_time as f64);
        self.avg_messages.record(result.avg_messages_per_sender());
        self.max_messages
            .record(result.max_messages_per_sender() as f64);
        self.total_messages.record(result.total_messages as f64);
        self.all_converged &= result.converged;
    }
}

/// Derives the per-repetition seed from a base seed (SplitMix64 step, so
/// neighboring repetitions get decorrelated streams).
pub fn repetition_seed(base: u64, repetition: u32) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(repetition as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the one-to-one protocol `repetitions` times in random-order mode
/// (different order per repetition) and aggregates the Table 1 metrics.
///
/// `template.mode` supplies everything except the seed, which is replaced
/// per repetition; in `Synchronous` mode repetitions are identical, so one
/// run is performed.
///
/// # Example
///
/// ```
/// use dkcore_sim::experiment::run_node_experiment;
/// use dkcore_sim::NodeSimConfig;
/// use dkcore_graph::generators::gnp;
///
/// let g = gnp(60, 0.08, 1);
/// let outcome = run_node_experiment(&g, NodeSimConfig::random_order(0), 5, 42);
/// assert_eq!(outcome.execution_time.count(), 5);
/// assert!(outcome.all_converged);
/// assert!(outcome.execution_time.min() <= outcome.execution_time.mean());
/// ```
pub fn run_node_experiment(
    g: &Graph,
    template: NodeSimConfig,
    repetitions: u32,
    base_seed: u64,
) -> ExperimentOutcome {
    let mut outcome = ExperimentOutcome::new();
    let reps = if template.mode == SimMode::Synchronous {
        1
    } else {
        repetitions.max(1)
    };
    for rep in 0..reps {
        let mut config = template;
        if let SimMode::RandomOrder { .. } = config.mode {
            config.mode = SimMode::RandomOrder {
                seed: repetition_seed(base_seed, rep),
            };
        }
        let result = NodeSim::new(g, config).run();
        outcome.record(&result);
    }
    outcome
}

/// Runs the one-to-many protocol `repetitions` times and aggregates the
/// Figure 5 metrics (overhead = estimates sent per node) alongside the
/// Table 1 ones.
pub fn run_host_experiment(
    g: &Graph,
    template: HostSimConfig,
    repetitions: u32,
    base_seed: u64,
) -> ExperimentOutcome {
    run_host_experiment_on(g, template, repetitions, base_seed, HostEngine::Legacy)
}

/// [`run_host_experiment`] with an explicit [`HostEngine`] choice.
///
/// With [`HostEngine::ActiveSet`], synchronous Worklist repetitions run
/// on the flat fast path (bit-identical results, multiple of the
/// throughput — see `BENCH_PR2.json`); `RandomOrder` templates and the
/// Sweep / PerRound emulation ablations always use [`HostSim`], the only
/// engine implementing those schedules.
pub fn run_host_experiment_on(
    g: &Graph,
    template: HostSimConfig,
    repetitions: u32,
    base_seed: u64,
    engine: HostEngine,
) -> ExperimentOutcome {
    let mut outcome = ExperimentOutcome::new();
    let reps = if template.mode == SimMode::Synchronous {
        1
    } else {
        repetitions.max(1)
    };
    for rep in 0..reps {
        let mut config = template.clone();
        if let SimMode::RandomOrder { .. } = config.mode {
            config.mode = SimMode::RandomOrder {
                seed: repetition_seed(base_seed, rep),
            };
        }
        if engine == HostEngine::ActiveSet
            && config.mode == SimMode::Synchronous
            && config.protocol.emulation == EmulationMode::Worklist
        {
            let mut fast = ActiveSetHostEngine::new(
                g,
                ActiveSetHostConfig {
                    hosts: config.hosts,
                    assignment: config.assignment,
                    policy: config.protocol.policy,
                    threads: 0,
                    max_rounds: config.max_rounds,
                },
            );
            let result = fast.run();
            outcome.record(&result);
            outcome.estimates_sent.record(fast.estimates_sent() as f64);
        } else {
            let mut sim = HostSim::new(g, config);
            let result = sim.run();
            outcome.record(&result);
            outcome.estimates_sent.record(sim.estimates_sent() as f64);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkcore::seq::batagelj_zaversnik;
    use dkcore_graph::generators::{gnp, path};

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let s: Vec<u64> = (0..10).map(|r| repetition_seed(42, r)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
        assert_eq!(repetition_seed(42, 3), repetition_seed(42, 3));
        assert_ne!(repetition_seed(42, 3), repetition_seed(43, 3));
    }

    #[test]
    fn node_experiment_aggregates_repetitions() {
        let g = path(40);
        let outcome = run_node_experiment(&g, NodeSimConfig::random_order(0), 8, 7);
        assert_eq!(outcome.execution_time.count(), 8);
        assert!(outcome.all_converged);
        assert!(outcome.execution_time.min() <= outcome.execution_time.max());
        assert!(outcome.avg_messages.mean() > 0.0);
    }

    #[test]
    fn synchronous_template_collapses_to_single_run() {
        let g = gnp(40, 0.1, 3);
        let outcome = run_node_experiment(&g, NodeSimConfig::synchronous(), 20, 7);
        assert_eq!(outcome.execution_time.count(), 1);
    }

    #[test]
    fn host_experiment_tracks_overhead() {
        let g = gnp(60, 0.08, 5);
        let outcome = run_host_experiment(&g, HostSimConfig::random_order(4, 0), 5, 13);
        assert_eq!(outcome.estimates_sent.count(), 5);
        assert!(outcome.estimates_sent.mean() > 0.0);
        assert!(outcome.all_converged);
    }

    #[test]
    fn host_engines_agree_in_synchronous_experiments() {
        let g = gnp(70, 0.08, 8);
        let template = HostSimConfig::synchronous(6);
        let legacy = run_host_experiment_on(&g, template.clone(), 3, 1, HostEngine::Legacy);
        let fast = run_host_experiment_on(&g, template, 3, 1, HostEngine::ActiveSet);
        assert_eq!(legacy, fast);
        // Random-order templates fall back to the legacy engine.
        let template = HostSimConfig::random_order(6, 0);
        let a = run_host_experiment_on(&g, template.clone(), 4, 9, HostEngine::ActiveSet);
        let b = run_host_experiment(&g, template, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn ablation_templates_fall_back_to_the_legacy_engine() {
        let g = gnp(70, 0.08, 8);
        for emulation in [EmulationMode::Sweep, EmulationMode::PerRound] {
            let mut template = HostSimConfig::synchronous(6);
            template.protocol.emulation = emulation;
            let legacy = run_host_experiment_on(&g, template.clone(), 3, 1, HostEngine::Legacy);
            let fast = run_host_experiment_on(&g, template, 3, 1, HostEngine::ActiveSet);
            assert!(legacy.all_converged, "{emulation:?}");
            assert_eq!(legacy, fast, "{emulation:?}");
        }
    }

    #[test]
    fn experiment_outcomes_are_reproducible() {
        let g = gnp(50, 0.1, 9);
        let a = run_node_experiment(&g, NodeSimConfig::random_order(0), 4, 99);
        let b = run_node_experiment(&g, NodeSimConfig::random_order(0), 4, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn every_repetition_converges_to_truth() {
        let g = gnp(50, 0.1, 15);
        let truth = batagelj_zaversnik(&g);
        for rep in 0..5 {
            let config = NodeSimConfig::random_order(repetition_seed(1, rep));
            let result = NodeSim::new(&g, config).run();
            assert_eq!(result.final_estimates, truth);
        }
    }
}
