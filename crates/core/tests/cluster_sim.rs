//! End-to-end tests of the cluster engine (dataplane + staged control
//! plane), driven through the runner the way experiments are.

use antidope::config::SchemeKind;
use antidope::results::FaultReport;
use antidope::testutil::{quick_exp, users};
use antidope::{record_experiment, run_experiment, ShardedClusterSim};
use powercap::budget::BudgetLevel;
use simcore::faults::{CrashEvent, FaultConfig};
use simcore::{SimDuration, SimTime};
use workloads::attacker::AttackTool;
use workloads::scenario::{ScenarioBuilder, SeedPin};
use workloads::service::ServiceKind;

/// `base` plus a 40-bot http-load flood on Colla-Filt at `rate`
/// requests/s over `[start_s, stop_s)`, pinned to address 50 000, id
/// space `1 << 40` and the raw run seed.
fn flooded(base: ScenarioBuilder, rate: f64, start_s: u64, stop_s: u64) -> ScenarioBuilder {
    let tool = AttackTool::HttpLoad { rate };
    base.with_attack_window(tool, ServiceKind::CollaFilt, 40, start_s, stop_s)
        .pinned(50_000, 1 << 40, SeedPin::Raw)
}

#[test]
fn idle_cluster_draws_idle_power() {
    let exp = quick_exp(SchemeKind::None, BudgetLevel::Normal, 10, 1);
    let report = run_experiment(&exp, &ScenarioBuilder::new());
    assert_eq!(report.traffic.offered, 0);
    // 4 nodes × 40 W idle.
    assert!((report.power.peak_w - 160.0).abs() < 1e-6);
    assert!((report.energy.utility_j - 1600.0).abs() < 1.0);
    assert_eq!(report.normal_sla.total(), 0);
}

#[test]
fn normal_traffic_served_fast_at_normal_pb() {
    let exp = quick_exp(SchemeKind::Capping, BudgetLevel::Normal, 60, 2);
    let report = run_experiment(&exp, &users(100.0));
    assert!(report.traffic.offered > 1000);
    assert!(report.availability() > 0.95, "{}", report.oneline());
    // Paper: below 40 ms at Normal-PB.
    assert!(report.normal_latency.mean_ms < 40.0, "{}", report.oneline());
    assert_eq!(report.power.violations, 0);
}

#[test]
fn unmanaged_attack_violates_budget() {
    let exp = quick_exp(SchemeKind::None, BudgetLevel::Medium, 60, 3);
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 60));
    assert!(report.power.violations > 0, "{}", report.oneline());
    assert!(report.power.peak_w > 340.0);
}

#[test]
fn capping_holds_power_but_hurts_latency() {
    let exp = quick_exp(SchemeKind::Capping, BudgetLevel::Medium, 90, 4);
    let capped = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 90));
    let exp_none = quick_exp(SchemeKind::None, BudgetLevel::Medium, 90, 4);
    let unmanaged = run_experiment(&exp_none, &flooded(users(80.0), 600.0, 5, 90));
    // Far fewer violating slots than unmanaged…
    assert!(
        capped.power.violation_fraction < unmanaged.power.violation_fraction * 0.6,
        "capped {} vs unmanaged {}",
        capped.power.violation_fraction,
        unmanaged.power.violation_fraction
    );
    // …at the cost of V/F reduction.
    assert!(capped.vf.max_reduction_steps > 0);
    assert!(capped.normal_latency.p90_ms > unmanaged.normal_latency.p90_ms * 0.8);
}

#[test]
fn deterministic_runs() {
    let exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 30, 7);
    let a = run_experiment(&exp, &flooded(users(60.0), 300.0, 5, 30));
    let b = run_experiment(&exp, &flooded(users(60.0), 300.0, 5, 30));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn antidope_routes_suspects_to_pool() {
    let exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 30, 8);
    let report = run_experiment(&exp, &flooded(users(60.0), 300.0, 2, 30));
    assert!(
        report.traffic.to_suspect_pool > 1000,
        "{:?}",
        report.traffic
    );
}

#[test]
fn token_sheds_load_under_attack() {
    let exp = quick_exp(SchemeKind::Token, BudgetLevel::Low, 60, 9);
    let report = run_experiment(&exp, &flooded(users(80.0), 800.0, 2, 60));
    assert!(report.traffic.scheme_denied > 0, "token must deny requests");
    assert!(report.traffic.drop_rate > 0.3, "{}", report.oneline());
}

#[test]
fn shaving_uses_battery_before_dvfs() {
    let exp = quick_exp(SchemeKind::Shaving, BudgetLevel::Medium, 45, 10);
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 2, 45));
    assert!(report.battery.episodes > 0);
    assert!(report.battery.discharged_j > 0.0);
    assert!(report.battery.min_soc < 1.0);
}

#[test]
fn energy_accounting_consistent() {
    let exp = quick_exp(SchemeKind::Shaving, BudgetLevel::Low, 45, 11);
    let report = run_experiment(&exp, &flooded(users(80.0), 500.0, 2, 45));
    // Load energy = utility − charge + battery. All positive, and
    // load ≥ idle floor over the window.
    assert!(report.energy.load_j > 160.0 * 40.0);
    assert!(report.energy.utility_j > 0.0);
    assert!(report.energy.normalized_utility > 0.0 && report.energy.normalized_utility < 1.5);
}

#[test]
fn sustained_overload_trips_breaker_and_outage_follows() {
    let mut exp = quick_exp(SchemeKind::None, BudgetLevel::Medium, 120, 21);
    exp.cluster.breaker = true;
    exp.cluster.breaker_rating_factor = 1.05; // trips at 357 W
    exp.cluster.breaker_trip_delay = SimDuration::from_secs(30);
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 120));
    let outage = report.power.outage_at_s.expect("breaker should trip");
    // The attack starts at 5 s and the trip delay is 30 s.
    assert!((30.0..90.0).contains(&outage), "outage at {outage}");
    // Power flatlines after the trip.
    let after: Vec<f64> = report
        .power
        .series
        .iter()
        .filter(|&&(t, _)| t > outage + 2.0)
        .map(|&(_, w)| w)
        .collect();
    assert!(!after.is_empty());
    assert!(
        after.iter().all(|&w| w == 0.0),
        "power after outage: {after:?}"
    );
    // Requests arriving during the outage are all dropped.
    assert!(report.normal_sla.drop_rate() > 0.2, "{}", report.oneline());
}

#[test]
fn antidope_prevents_the_outage() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 120, 21);
    exp.cluster.breaker = true;
    exp.cluster.breaker_rating_factor = 1.05;
    exp.cluster.breaker_trip_delay = SimDuration::from_secs(30);
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 120));
    assert_eq!(report.power.outage_at_s, None, "{}", report.oneline());
}

#[test]
fn breaker_disabled_by_default() {
    let exp = quick_exp(SchemeKind::None, BudgetLevel::Medium, 60, 22);
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 60));
    assert_eq!(report.power.outage_at_s, None);
    assert!(report.power.violations > 0);
}

/// A minimal RAPL-style scheme: per-node watt limits instead of
/// explicit P-states — exercises `Action::SetPowerLimit` end to end.
struct RaplCapper {
    per_node_limit_w: f64,
}

impl antidope::scheme::PowerScheme for RaplCapper {
    fn name(&self) -> &'static str {
        "RaplCapper"
    }
    fn control(
        &mut self,
        input: &antidope::scheme::ControlInput,
        actions: &mut Vec<antidope::scheme::Action>,
    ) {
        for i in 0..input.nodes.len() {
            actions.push(antidope::scheme::Action::SetPowerLimit {
                node: i,
                limit_w: Some(self.per_node_limit_w),
            });
        }
    }
}

#[test]
fn rapl_limit_actions_enforce_per_node_caps() {
    let exp = quick_exp(SchemeKind::None, BudgetLevel::Medium, 60, 31);
    let scheme = Box::new(RaplCapper {
        per_node_limit_w: 80.0,
    });
    let report = ShardedClusterSim::run_with_scheme(
        &exp,
        scheme,
        flooded(users(80.0), 600.0, 5, 60).build(exp.seed, SimTime::ZERO + exp.duration),
    );
    // 4 nodes capped at 80 W each: the cluster stays at/below 320 W
    // (within one slot of enforcement slack at the attack onset).
    let over: usize = report
        .power
        .series
        .iter()
        .filter(|&&(t, w)| t > 10.0 && w > 321.0)
        .count();
    assert_eq!(over, 0, "per-node RAPL caps must bound the cluster");
    assert!(report.vf.max_reduction_steps > 0);
}

#[test]
fn thermal_prochot_clamps_hot_nodes() {
    let mut exp = quick_exp(SchemeKind::None, BudgetLevel::Normal, 240, 25);
    exp.cluster.thermal = true;
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 240));
    // Sustained near-nameplate power heats past the 75 °C PROCHOT
    // threshold within a few thermal time constants.
    assert!(report.thermal.peak_temp_c > 75.0, "{:?}", report.thermal);
    assert!(report.thermal.prochot_events > 0);
    assert_eq!(report.thermal.tripped_nodes, 0, "trip needs > 95 °C");
    // The hardware clamp reduced frequency somewhere.
    assert!(report.vf.max_reduction_steps >= 8);
}

#[test]
fn thermal_disabled_reports_zeros() {
    let exp = quick_exp(SchemeKind::None, BudgetLevel::Normal, 30, 26);
    let report = run_experiment(&exp, &flooded(ScenarioBuilder::new(), 600.0, 0, 30));
    assert_eq!(report.thermal.peak_temp_c, 0.0);
    assert_eq!(report.thermal.prochot_events, 0);
}

#[test]
fn antidope_keeps_innocent_nodes_cool() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Normal, 240, 27);
    exp.cluster.thermal = true;
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 240));
    let none_exp = {
        let mut e = quick_exp(SchemeKind::None, BudgetLevel::Normal, 240, 27);
        e.cluster.thermal = true;
        e
    };
    let unmanaged = run_experiment(&none_exp, &flooded(users(80.0), 600.0, 5, 240));
    // Isolation confines the heat to the suspect node: far fewer
    // PROCHOT assertions than with the attack spread everywhere.
    assert!(
        report.thermal.prochot_events < unmanaged.thermal.prochot_events,
        "anti {} !< unmanaged {}",
        report.thermal.prochot_events,
        unmanaged.thermal.prochot_events
    );
}

#[test]
fn firewall_blocks_loud_attackers() {
    // One source at 5000 rps over only 5 bots = 1000 rps/bot: way
    // over the 150 rps threshold.
    let exp = quick_exp(SchemeKind::Capping, BudgetLevel::Normal, 30, 12);
    let loud = ScenarioBuilder::new()
        .with_attack(AttackTool::HttpLoad { rate: 5000.0 }, ServiceKind::TextCont, 5, 0)
        .pinned(90_000, 1 << 42, SeedPin::Raw);
    let report = run_experiment(&exp, &loud);
    assert!(
        report.traffic.firewall_blocked > 10_000,
        "{:?}",
        report.traffic
    );
}

// ---- fault-injection layer ----

#[test]
fn noop_fault_plan_changes_only_the_report() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 30, 41);
    let base = run_experiment(&exp, &flooded(users(60.0), 300.0, 5, 30));
    exp.cluster.faults = Some(FaultConfig::default());
    let mut chaotic = run_experiment(&exp, &flooded(users(60.0), 300.0, 5, 30));
    let fr = chaotic.faults.take().expect("fault report present");
    assert_eq!(fr, FaultReport::default(), "no-op plan must inject nothing");
    // With the report's faults field removed, a no-op plan is
    // byte-identical to running without the fault layer at all.
    assert_eq!(format!("{base:?}"), format!("{chaotic:?}"));
}

#[test]
fn crashed_node_reboots_and_returns() {
    let mut exp = quick_exp(SchemeKind::Capping, BudgetLevel::Normal, 60, 42);
    exp.cluster.faults = Some(FaultConfig {
        crashes: vec![CrashEvent {
            node: 1,
            at: SimTime::from_secs(10),
        }],
        reboot_after: SimDuration::from_secs(15),
        ..FaultConfig::default()
    });
    let report = run_experiment(&exp, &users(200.0));
    let faults = report.faults.as_ref().expect("fault report");
    assert_eq!(faults.crashes, 1);
    assert_eq!(faults.reboots, 1);
    assert!(faults.lost_to_crash > 0, "{faults:?}");
    // The NLB routes around the dead node: service continues.
    assert!(report.availability() > 0.9, "{}", report.oneline());
}

#[test]
fn crash_without_reboot_stays_down() {
    let mut exp = quick_exp(SchemeKind::Capping, BudgetLevel::Normal, 30, 46);
    exp.cluster.faults = Some(FaultConfig {
        crashes: vec![CrashEvent {
            node: 0,
            at: SimTime::from_secs(5),
        }],
        // reboot_after stays ZERO: the node never comes back.
        ..FaultConfig::default()
    });
    let report = run_experiment(&exp, &users(150.0));
    let faults = report.faults.as_ref().expect("fault report");
    assert_eq!(faults.crashes, 1);
    assert_eq!(faults.reboots, 0);
    assert!(report.availability() > 0.9, "{}", report.oneline());
}

#[test]
fn telemetry_blackout_engages_watchdog_and_recovers() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 60, 43);
    exp.cluster.faults = Some(FaultConfig {
        blackouts: vec![(SimTime::from_secs(15), SimTime::from_secs(30))],
        ..FaultConfig::default()
    });
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 5, 60));
    let faults = report.faults.as_ref().expect("fault report");
    assert!(faults.blackout_samples > 0);
    assert!(faults.degraded_slots > 0, "{faults:?}");
    assert_eq!(faults.degraded_episodes, 1, "{faults:?}");
    assert!(
        faults.mttr_s > 0.0,
        "watchdog must disengage after the window"
    );
    assert!(faults.time_degraded_s >= 15.0, "{faults:?}");
    // Degraded mode is safe, not dead: the run still completes with
    // most legitimate traffic served.
    assert!(report.availability() > 0.5, "{}", report.oneline());
}

#[test]
fn failed_charger_blocks_recharge() {
    let mut exp = quick_exp(SchemeKind::Shaving, BudgetLevel::Medium, 45, 44);
    exp.cluster.faults = Some(FaultConfig {
        charger_fails_at: Some(SimTime::ZERO),
        ..FaultConfig::default()
    });
    let report = run_experiment(&exp, &flooded(users(80.0), 600.0, 2, 20));
    let faults = report.faults.as_ref().expect("fault report");
    assert!(faults.charger_blocked_slots > 0, "{faults:?}");
    assert_eq!(report.battery.charge_drawn_j, 0.0);
}

#[test]
fn battery_fade_derates_capacity() {
    let mut exp = quick_exp(SchemeKind::Shaving, BudgetLevel::Medium, 10, 45);
    let base_cap = run_experiment(&exp, &ScenarioBuilder::new()).battery.capacity_j;
    exp.cluster.faults = Some(FaultConfig {
        battery_fade: 0.5,
        ..FaultConfig::default()
    });
    let faded_cap = run_experiment(&exp, &ScenarioBuilder::new()).battery.capacity_j;
    assert!(
        (faded_cap - base_cap * 0.5).abs() < 1e-6,
        "{faded_cap} vs half of {base_cap}"
    );
}

// -------------------------------------------------------------------
// Control-plane trace recording (the live-plane record/replay surface)
// -------------------------------------------------------------------

#[test]
fn recording_leaves_the_run_byte_identical() {
    for shards in [1, 2] {
        let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 30, 51);
        exp.cluster.shards = shards;
        exp.cluster.faults = Some(FaultConfig {
            sensor_dropout_p: 0.2,
            actuator_loss_p: 0.3,
            blackouts: vec![(SimTime::from_secs(8), SimTime::from_secs(16))],
            crashes: vec![CrashEvent {
                node: 1,
                at: SimTime::from_secs(10),
            }],
            reboot_after: SimDuration::from_secs(8),
            ..FaultConfig::default()
        });
        let sources = flooded(users(60.0), 300.0, 5, 30);
        let plain = run_experiment(&exp, &sources);
        let (recorded, trace) = record_experiment(&exp, &sources);
        assert_eq!(
            format!("{plain:?}"),
            format!("{recorded:?}"),
            "recording must not perturb the simulation at {shards} shard(s)"
        );
        assert_eq!(trace.slots.len(), 30, "one record per control slot");
        assert!(trace.footer.peak_true_w > 0.0);
        // The trace must survive the JSONL round trip bit-exactly.
        let jsonl = trace.to_jsonl();
        let back = antidope::ControlTrace::from_jsonl_str(&jsonl).expect("well-formed trace");
        assert_eq!(format!("{trace:?}"), format!("{back:?}"));
    }
}
