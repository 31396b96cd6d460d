//! Shared experiment cells for the integration tests, over the standard
//! population (`antidope::testutil::population`).
#![allow(dead_code)] // each test binary uses a subset of these helpers

use antidope_repro::antidope::testutil::population;
use antidope_repro::prelude::*;

/// Run one (scheme, budget) cell of the standard scenario.
pub fn run_cell(
    scheme: SchemeKind,
    budget: BudgetLevel,
    attack_rate: f64,
    duration_s: u64,
    seed: u64,
) -> SimReport {
    let mut exp = ExperimentConfig::paper_window(ClusterConfig::paper_rack(budget), scheme, seed);
    exp.duration = SimDuration::from_secs(duration_s);
    run_experiment(&exp, &population(ServiceKind::CollaFilt, attack_rate))
}

/// Like [`run_chaos_cell`], but with the online power-attribution
/// profiler enabled alongside the fault plan.
pub fn run_profiled_chaos_cell(
    scheme: SchemeKind,
    budget: BudgetLevel,
    attack_rate: f64,
    duration_s: u64,
    seed: u64,
    faults: FaultConfig,
) -> SimReport {
    let mut cluster = ClusterConfig::paper_rack(budget);
    cluster.faults = Some(faults);
    cluster.profiler = Some(ProfilerConfig::default());
    let mut exp = ExperimentConfig::paper_window(cluster, scheme, seed);
    exp.duration = SimDuration::from_secs(duration_s);
    run_experiment(&exp, &population(ServiceKind::CollaFilt, attack_rate))
}

/// Run one (scheme, budget) cell of the standard scenario with a fault
/// plan injected.
pub fn run_chaos_cell(
    scheme: SchemeKind,
    budget: BudgetLevel,
    attack_rate: f64,
    duration_s: u64,
    seed: u64,
    faults: FaultConfig,
) -> SimReport {
    let mut cluster = ClusterConfig::paper_rack(budget);
    cluster.faults = Some(faults);
    let mut exp = ExperimentConfig::paper_window(cluster, scheme, seed);
    exp.duration = SimDuration::from_secs(duration_s);
    run_experiment(&exp, &population(ServiceKind::CollaFilt, attack_rate))
}
