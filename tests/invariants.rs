//! Property tests over whole simulations: invariants that must hold for
//! *any* seed and any (sane) attack intensity, not just the calibrated
//! figures.

use antidope_repro::prelude::*;
use proptest::prelude::*;
use workloads::attacker::AttackTool;

fn run(scheme: SchemeKind, budget: BudgetLevel, rate: f64, seed: u64) -> SimReport {
    let builder = ScenarioBuilder::new()
        .with_normal_users(60.0, 40)
        .with_attack(
            AttackTool::HttpLoad { rate },
            ServiceKind::CollaFilt,
            40,
            2,
        );
    let mut exp = ExperimentConfig::paper_window(ClusterConfig::paper_rack(budget), scheme, seed);
    exp.duration = SimDuration::from_secs(20);
    antidope::run_experiment(&exp, &builder)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Physical sanity for every scheme: power within the nameplate
    /// envelope, probabilities in range, accounting internally
    /// consistent.
    #[test]
    fn prop_reports_physically_sane(
        seed in 0u64..1000,
        rate in 50.0f64..900.0,
        scheme_ix in 0usize..4,
    ) {
        let scheme = SchemeKind::EVALUATED[scheme_ix];
        let r = run(scheme, BudgetLevel::Medium, rate, seed);
        prop_assert!(r.power.peak_w <= 400.0 + 1e-6, "peak {}", r.power.peak_w);
        prop_assert!(r.power.avg_w >= 0.0 && r.power.avg_w <= r.power.peak_w + 1e-6);
        prop_assert!((0.0..=1.0).contains(&r.availability()));
        prop_assert!((0.0..=1.0).contains(&r.traffic.drop_rate));
        prop_assert!((0.0..=1.0).contains(&r.battery.min_soc));
        prop_assert!(r.energy.utility_j >= 0.0);
        // Everything offered is accounted for: completions + drops +
        // still-in-flight-at-horizon (bounded by queue capacity).
        let accounted = r.normal_sla.total() + r.attack_sla.total();
        prop_assert!(accounted <= r.traffic.offered);
        prop_assert!(
            r.traffic.offered - accounted <= (4 * 32) as u64 + 8,
            "unaccounted {} exceeds in-flight bound",
            r.traffic.offered - accounted
        );
    }

    /// Anti-DOPE never violates the budget more than leaving the cluster
    /// unmanaged, at any attack intensity.
    #[test]
    fn prop_antidope_never_worse_on_power(
        seed in 0u64..1000,
        rate in 100.0f64..900.0,
    ) {
        let anti = run(SchemeKind::AntiDope, BudgetLevel::Medium, rate, seed);
        let none = run(SchemeKind::None, BudgetLevel::Medium, rate, seed);
        prop_assert!(
            anti.power.violation_fraction <= none.power.violation_fraction + 1e-9,
            "anti {} > none {}",
            anti.power.violation_fraction,
            none.power.violation_fraction
        );
    }

    /// Determinism holds across the whole parameter space, not just the
    /// calibrated scenarios.
    #[test]
    fn prop_deterministic_everywhere(
        seed in 0u64..1000,
        rate in 50.0f64..900.0,
        scheme_ix in 0usize..4,
    ) {
        let scheme = SchemeKind::EVALUATED[scheme_ix];
        let a = run(scheme, BudgetLevel::Low, rate, seed);
        let b = run(scheme, BudgetLevel::Low, rate, seed);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
