//! Failure-injection and edge-of-envelope robustness: pathological
//! populations, degenerate configurations, extreme parameters. The
//! simulator must stay sane (no panic, conserved accounting), never
//! merely "probably work".

use antidope_repro::prelude::*;
use netsim::request::{Request, RequestBuilder, SourceId, UrlId};
use workloads::source::TrafficSource;

/// A source emitting adversarially-shaped requests: alternating
/// microscopic (1 µs) and enormous (40 s) work items at a fixed rate.
struct PathologicalSource {
    builder: RequestBuilder,
    clock: SimTime,
    horizon: SimTime,
    n: u64,
}

impl TrafficSource for PathologicalSource {
    fn next_request(&mut self, now: SimTime) -> Option<Request> {
        if self.clock < now {
            self.clock = now;
        }
        self.clock += SimDuration::from_millis(50);
        if self.clock > self.horizon {
            return None;
        }
        self.n += 1;
        let huge = self.n.is_multiple_of(7);
        Some(self.builder.build(
            UrlId(if huge { 1 } else { 3 }),
            SourceId(77),
            self.clock,
            if huge { 96.0 } else { 2.4e-6 },
            if huge { 0.4 } else { 1.0 },
            if huge { 1.0 } else { 0.0 },
            if huge { 0.0 } else { 1.0 },
            false,
        ))
    }

    fn label(&self) -> &str {
        "pathological"
    }
}

fn pathological_factory(exp: &ExperimentConfig) -> Vec<Box<dyn TrafficSource>> {
    vec![Box::new(PathologicalSource {
        builder: RequestBuilder::new(),
        clock: SimTime::ZERO,
        horizon: SimTime::ZERO + exp.duration,
        n: 0,
    })]
}

#[test]
fn survives_pathological_work_distribution() {
    for scheme in [SchemeKind::Capping, SchemeKind::AntiDope, SchemeKind::Token] {
        let mut exp = ExperimentConfig::paper_window(
            ClusterConfig::paper_rack(BudgetLevel::Low),
            scheme,
            1,
        );
        exp.duration = SimDuration::from_secs(60);
        let r = antidope::run_experiment(&exp, &pathological_factory);
        assert!(r.traffic.offered > 1000, "{scheme}: {}", r.oneline());
        // Energy accounting stays physical.
        assert!(r.energy.load_j > 0.0 && r.energy.load_j.is_finite());
        assert!(r.power.peak_w <= 400.0 + 1e-6);
        // Tiny requests complete almost instantly; the report is sane.
        assert!(r.normal_latency.min_ms >= 0.0);
    }
}

#[test]
fn empty_population_is_fine() {
    let mut exp = ExperimentConfig::paper_window(
        ClusterConfig::paper_rack(BudgetLevel::Low),
        SchemeKind::AntiDope,
        2,
    );
    exp.duration = SimDuration::from_secs(30);
    let r = antidope::run_experiment(&exp, &ScenarioBuilder::new());
    assert_eq!(r.traffic.offered, 0);
    assert_eq!(r.availability(), 1.0);
    // Idle rack: 4 × 40 W for 30 s.
    assert!((r.energy.load_j - 4.0 * 40.0 * 30.0).abs() < 10.0);
}

#[test]
fn monster_flood_causes_rejections_not_panics() {
    let builder = ScenarioBuilder::new().with_attack(
        workloads::attacker::AttackTool::HttpLoad { rate: 5000.0 },
        ServiceKind::KMeans,
        100,
        0,
    );
    let mut exp = ExperimentConfig::paper_window(
        ClusterConfig::paper_rack(BudgetLevel::Low),
        SchemeKind::Capping,
        3,
    );
    exp.duration = SimDuration::from_secs(30);
    let r = antidope::run_experiment(&exp, &builder);
    assert!(r.traffic.queue_rejected > 10_000, "{:?}", r.traffic);
    assert!(r.power.peak_w <= 400.0 + 1e-6);
}

#[test]
fn degenerate_configurations() {
    // Tiny battery.
    let mut c1 = ClusterConfig::paper_rack(BudgetLevel::Low);
    c1.battery_sustain = SimDuration::from_secs(1);
    // Control slot longer than several attack periods.
    let mut c2 = ClusterConfig::paper_rack(BudgetLevel::Low);
    c2.control_slot = SimDuration::from_secs(20);
    // Minimal cluster: 2 servers, 1 suspect.
    let mut c3 = ClusterConfig::paper_rack(BudgetLevel::Low);
    c3.servers = 2;
    c3.suspect_pool_size = 1;

    for (i, cluster) in [c1, c2, c3].into_iter().enumerate() {
        let builder = ScenarioBuilder::new()
            .with_normal_users(40.0, 20)
            .with_attack(
                workloads::attacker::AttackTool::HttpLoad { rate: 200.0 },
                ServiceKind::CollaFilt,
                20,
                2,
            );
        for scheme in [SchemeKind::Shaving, SchemeKind::AntiDope] {
            let mut exp = ExperimentConfig::paper_window(cluster.clone(), scheme, 5 + i as u64);
            exp.duration = SimDuration::from_secs(45);
            let r = antidope::run_experiment(&exp, &builder);
            assert!(r.traffic.offered > 100, "{scheme} cfg{i}: {}", r.oneline());
            assert!(r.battery.min_soc >= 0.0 && r.battery.min_soc <= 1.0);
        }
    }
}

#[test]
fn control_slot_shorter_than_dvfs_latency() {
    // Controller re-decides faster than the hardware settles: commands
    // re-target in flight; nothing deadlocks or oscillates unboundedly.
    let mut cluster = ClusterConfig::paper_rack(BudgetLevel::Low);
    cluster.control_slot = SimDuration::from_millis(5);
    cluster.dvfs_latency = SimDuration::from_millis(50);
    let builder = ScenarioBuilder::new()
        .with_normal_users(60.0, 20)
        .with_attack(
            workloads::attacker::AttackTool::HttpLoad { rate: 400.0 },
            ServiceKind::CollaFilt,
            40,
            1,
        );
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::Capping, 9);
    exp.duration = SimDuration::from_secs(20);
    let r = antidope::run_experiment(&exp, &builder);
    assert!(r.traffic.offered > 1000);
    assert!(r.vf.transitions < 100_000, "transition storm: {}", r.vf.transitions);
}
