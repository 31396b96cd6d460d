//! End-to-end DOPE attack behaviour: stealth, convergence, and the
//! operating region of Fig 11.

use antidope_repro::antidope::testutil::{users, NORMAL_PEAK_RATE};
use antidope_repro::prelude::*;

/// Users plus the adaptive DOPE attacker on Colla-Filt from t = 2 s.
fn dope_factory(bots: u32, initial_rate: f64, max_rate: f64) -> ScenarioBuilder {
    let dope = DopeConfig {
        victim: ServiceKind::CollaFilt,
        initial_rate,
        bots,
        max_rate,
        ..DopeConfig::default()
    };
    users(NORMAL_PEAK_RATE)
        .with_dope(dope, 2)
        .pinned(50_000, 1 << 40, SeedPin::Xor(0xD09E))
}

/// A stealthy DOPE attack (many bots, per-bot rate well under the 150
/// req/s firewall threshold) is never blocked by the firewall yet drives
/// power over the budget on an unmanaged cluster — the Fig 11 region.
#[test]
fn stealthy_dope_evades_firewall_and_violates_power() {
    let mut exp = ExperimentConfig::paper_window(
        ClusterConfig::paper_rack(BudgetLevel::Medium),
        SchemeKind::None,
        3,
    );
    exp.duration = SimDuration::from_secs(120);
    // 40 bots, ramping to at most 1200 rps aggregate = 30 rps per bot.
    let report = run_experiment(&exp, &dope_factory(40, 100.0, 1200.0));
    assert_eq!(
        report.traffic.firewall_blocked, 0,
        "stealthy attack must not be blocked: {:?}",
        report.traffic
    );
    assert!(
        report.power.violations > 10,
        "power must be violated: {}",
        report.oneline()
    );
}

/// A loud DOPE attack (few bots, so the probing overshoots the per-source
/// threshold) gets caught, backs off, and converges to a rate below the
/// detection limit — the Fig 12 algorithm closing the loop end-to-end.
#[test]
fn loud_dope_gets_caught_then_converges() {
    let mut exp = ExperimentConfig::paper_window(
        ClusterConfig::paper_rack(BudgetLevel::Medium),
        SchemeKind::None,
        5,
    );
    exp.duration = SimDuration::from_secs(180);
    // 4 bots ramping toward 2000 rps aggregate = 500 rps/bot: must trip
    // the 150 rps rule during probing.
    let report = run_experiment(&exp, &dope_factory(4, 200.0, 2000.0));
    assert!(
        report.traffic.firewall_blocked > 0,
        "probing should overshoot: {:?}",
        report.traffic
    );
    // After convergence the attack still lands requests (bot rotation +
    // backoff): attack completions continue to the end.
    assert!(report.attack_sla.on_time() + report.attack_sla.late() > 0);
}

/// Anti-DOPE contains the stealthy attack that the firewall cannot see.
#[test]
fn antidope_contains_stealthy_dope() {
    let run = |scheme: SchemeKind| {
        let mut exp = ExperimentConfig::paper_window(
            ClusterConfig::paper_rack(BudgetLevel::Medium),
            scheme,
            7,
        );
        exp.duration = SimDuration::from_secs(120);
        run_experiment(&exp, &dope_factory(40, 100.0, 1200.0))
    };
    let unmanaged = run(SchemeKind::None);
    let anti = run(SchemeKind::AntiDope);
    assert!(anti.power.violation_fraction < unmanaged.power.violation_fraction * 0.5);
    assert!(
        anti.normal_latency.p90_ms < 250.0,
        "normal users protected: {}",
        anti.oneline()
    );
}

/// The offline profiling step points the attacker at the heavy kernels
/// (the paper's attack recipe), and heavier kernels produce higher power
/// per request on the victim.
#[test]
fn offline_profiling_matches_online_power() {
    let model = antidope_repro::powercap::server_power::ServerPowerModel::paper_default();
    let ranked =
        DopeAttacker::offline_rank(model.table.max_freq_ghz(), model.dynamic_headroom_w());
    assert_eq!(ranked[0].0, ServiceKind::KMeans);
    // Verify online: flood with the top-ranked vs bottom-ranked kernel at
    // the same rate; the top-ranked one burns more energy.
    let run_kernel = |kind: ServiceKind| {
        let flood = ScenarioBuilder::new()
            .with_attack(AttackTool::HttpLoad { rate: 200.0 }, kind, 40, 0)
            .pinned(50_000, 1 << 40, SeedPin::Raw);
        let mut exp = ExperimentConfig::paper_window(
            ClusterConfig::paper_rack(BudgetLevel::Normal),
            SchemeKind::None,
            9,
        );
        exp.duration = SimDuration::from_secs(60);
        run_experiment(&exp, &flood)
    };
    let heavy = run_kernel(ranked[0].0);
    let light = run_kernel(ranked[3].0);
    assert!(
        heavy.energy.utility_j > light.energy.utility_j * 1.3,
        "heavy {} vs light {}",
        heavy.energy.utility_j,
        light.energy.utility_j
    );
}
