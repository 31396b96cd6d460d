//! Experiment execution: single runs and parallel sweeps.
//!
//! Every experiment runs on the one cluster engine,
//! [`ShardedClusterSim`], at whatever `cluster.shards` the config asks
//! for (one shard by default). Each simulation is strictly
//! deterministic; sweeps add parallelism one level up (one independent
//! simulation per (scheme, budget, seed) cell), which is both
//! embarrassingly parallel and reproducible — no shared mutable state, a
//! pure function per cell, mapped with [`simcore::par::map`].

use crate::config::{ClusterConfig, ExperimentConfig, SchemeKind};
use crate::control::plane::ControlTrace;
use crate::results::SimReport;
use crate::shard::ShardedClusterSim;
use powercap::BudgetLevel;
use simcore::{par, SimTime};
use workloads::scenario::ScenarioBuilder;
use workloads::source::TrafficSource;

/// A factory producing fresh traffic sources for one experiment run.
///
/// Sources are stateful and consumed by a run, so sweeps need a way to
/// mint identical populations per cell; the factory receives the cell's
/// [`ExperimentConfig`] (so it can use the cell seed) and returns the
/// boxed sources.
pub trait SourceFactory: Sync {
    /// Build the traffic population for `exp`.
    fn build(&self, exp: &ExperimentConfig) -> Vec<Box<dyn TrafficSource>>;
}

impl<F> SourceFactory for F
where
    F: Fn(&ExperimentConfig) -> Vec<Box<dyn TrafficSource>> + Sync,
{
    fn build(&self, exp: &ExperimentConfig) -> Vec<Box<dyn TrafficSource>> {
        self(exp)
    }
}

/// A scenario is its own factory: every run builds the population
/// afresh from the experiment's seed over its horizon.
impl SourceFactory for ScenarioBuilder {
    fn build(&self, exp: &ExperimentConfig) -> Vec<Box<dyn TrafficSource>> {
        ScenarioBuilder::build(self, exp.seed, SimTime::ZERO + exp.duration)
    }
}

/// Run one experiment to completion.
pub fn run_experiment(exp: &ExperimentConfig, factory: &dyn SourceFactory) -> SimReport {
    ShardedClusterSim::run(exp, factory.build(exp))
}

/// [`run_experiment`] with a control-plane trace recorder attached:
/// the same simulation byte-for-byte (recording is read-only), plus the
/// per-slot trace the live replay backend consumes.
pub fn record_experiment(
    exp: &ExperimentConfig,
    factory: &dyn SourceFactory,
) -> (SimReport, ControlTrace) {
    ShardedClusterSim::run_recorded(exp, factory.build(exp))
}

/// Run the full (scheme × budget) matrix of the paper's evaluation in
/// parallel. Returns reports in `(scheme-major, budget-minor)` order.
pub fn run_matrix(
    schemes: &[SchemeKind],
    budgets: &[BudgetLevel],
    base_cluster: &ClusterConfig,
    duration: simcore::SimDuration,
    seed: u64,
    factory: &dyn SourceFactory,
) -> Vec<SimReport> {
    let cells: Vec<ExperimentConfig> = schemes
        .iter()
        .flat_map(|&s| budgets.iter().map(move |&b| (s, b)))
        .map(|(scheme, budget)| {
            let mut cluster = base_cluster.clone();
            cluster.budget = budget;
            let mut exp = ExperimentConfig::paper_window(cluster, scheme, seed);
            exp.duration = duration;
            exp
        })
        .collect();
    par::map(cells, |e| run_experiment(&e, factory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;
    use workloads::attacker::AttackTool;
    use workloads::scenario::SeedPin;
    use workloads::service::ServiceKind;

    fn factory() -> ScenarioBuilder {
        ScenarioBuilder::new()
            .with_normal_users(60.0, 50)
            .pinned(1_000, 0, SeedPin::Raw)
            .with_attack(AttackTool::HttpLoad { rate: 300.0 }, ServiceKind::CollaFilt, 30, 2)
            .pinned(50_000, 1 << 40, SeedPin::Xor(0xABCD))
    }

    #[test]
    fn matrix_covers_all_cells_in_order() {
        let reports = run_matrix(
            &[SchemeKind::Capping, SchemeKind::AntiDope],
            &[BudgetLevel::Normal, BudgetLevel::Low],
            &ClusterConfig::paper_rack(BudgetLevel::Normal),
            SimDuration::from_secs(20),
            5,
            &factory(),
        );
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].scheme, "Capping");
        assert_eq!(reports[0].budget, "Normal-PB");
        assert_eq!(reports[1].budget, "Low-PB");
        assert_eq!(reports[2].scheme, "Anti-DOPE");
        for r in &reports {
            assert!(r.traffic.offered > 0);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let cluster = ClusterConfig::paper_rack(BudgetLevel::Medium);
        let reports = run_matrix(
            &[SchemeKind::Shaving],
            &[BudgetLevel::Medium],
            &cluster,
            SimDuration::from_secs(20),
            9,
            &factory(),
        );
        let mut exp =
            ExperimentConfig::paper_window(cluster, SchemeKind::Shaving, 9);
        exp.duration = SimDuration::from_secs(20);
        let solo = run_experiment(&exp, &factory());
        assert_eq!(format!("{:?}", reports[0]), format!("{solo:?}"));
    }
}
