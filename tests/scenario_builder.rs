//! Cross-crate check: ScenarioBuilder-produced populations drive the
//! full simulator, deterministically, with correctly-separated sources.

use antidope_repro::prelude::*;
use workloads::attacker::AttackTool;

#[test]
fn builder_scenario_runs_end_to_end() {
    let builder = ScenarioBuilder::new()
        .with_normal_users(80.0, 60)
        .with_attack(
            AttackTool::HttpLoad { rate: 390.0 },
            ServiceKind::CollaFilt,
            40,
            5,
        );
    let mut exp = ExperimentConfig::paper_window(
        ClusterConfig::paper_rack(BudgetLevel::Medium),
        SchemeKind::AntiDope,
        17,
    );
    exp.duration = SimDuration::from_secs(60);
    let a = antidope::run_experiment(&exp, &builder);
    let b = antidope::run_experiment(&exp, &builder);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "builder scenarios must be deterministic"
    );
    assert!(a.traffic.offered > 1000);
    assert!(a.traffic.to_suspect_pool > 0, "attack must hit the pool");
    assert_eq!(a.power.violations, 0);
}

#[test]
fn builder_switching_scenario() {
    // Attack windows rotate victims; the builder owns the bookkeeping.
    let builder = ScenarioBuilder::new()
        .with_normal_users(80.0, 60)
        .with_attack_window(
            AttackTool::HttpLoad { rate: 400.0 },
            ServiceKind::CollaFilt,
            40,
            5,
            30,
        )
        .with_attack_window(
            AttackTool::HttpLoad { rate: 400.0 },
            ServiceKind::KMeans,
            40,
            30,
            55,
        );
    let mut exp = ExperimentConfig::paper_window(
        ClusterConfig::paper_rack(BudgetLevel::Low),
        SchemeKind::Capping,
        19,
    );
    exp.duration = SimDuration::from_secs(60);
    let r = antidope::run_experiment(&exp, &builder);
    // Both attack phases produced load: attack outcomes from two kernels.
    assert!(r.attack_sla.total() > 1000);
    assert!(r.power.violations > 0);
}
