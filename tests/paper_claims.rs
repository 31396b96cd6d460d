//! Cross-crate integration tests asserting the paper's *qualitative*
//! claims end-to-end: who wins, in which regime, and why.

mod common;

use antidope_repro::antidope::testutil::population;
use antidope_repro::prelude::*;
use common::run_cell;

/// Section 6.3: "For the baseline [Normal-PB], all the service response
/// time under different power schemes is below 40 milliseconds and there
/// is no difference among the observed power schemes."
#[test]
fn normal_pb_all_schemes_equivalent_and_fast() {
    // A moderate DOPE flow (power stays adequate at Normal-PB, and the
    // suspect pool is not driven past capacity): the schemes must be
    // indistinguishable and fast.
    let mut means = Vec::new();
    for scheme in SchemeKind::EVALUATED {
        // 60 req/s of Colla-Filt: stealth-scale DOPE that stays inside
        // the suspect pool's service capacity (~110 req/s).
        let r = run_cell(scheme, BudgetLevel::Normal, 60.0, 60, 42);
        assert!(
            r.normal_latency.mean_ms < 40.0,
            "{}: mean {} ms",
            scheme,
            r.normal_latency.mean_ms
        );
        means.push(r.normal_latency.mean_ms);
    }
    let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = means.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        hi - lo < 25.0,
        "schemes should be close at Normal-PB: {means:?}"
    );
}

/// The headline: under-provisioned + DOPE, Anti-DOPE beats the power
/// baselines on both mean response time and p90 tail latency of
/// legitimate users (paper: 44 % shorter mean, 68.1 % better p90).
#[test]
fn antidope_beats_power_baselines_under_attack() {
    let seed = 7;
    let attack = 600.0;
    for budget in [BudgetLevel::Medium, BudgetLevel::Low] {
        let capping = run_cell(SchemeKind::Capping, budget, attack, 120, seed);
        let shaving = run_cell(SchemeKind::Shaving, budget, attack, 120, seed);
        let anti = run_cell(SchemeKind::AntiDope, budget, attack, 120, seed);
        assert!(
            anti.normal_latency.mean_ms < capping.normal_latency.mean_ms,
            "{budget}: anti {} !< capping {}",
            anti.normal_latency.mean_ms,
            capping.normal_latency.mean_ms
        );
        assert!(
            anti.normal_latency.p90_ms < capping.normal_latency.p90_ms,
            "{budget}: anti p90 {} !< capping p90 {}",
            anti.normal_latency.p90_ms,
            capping.normal_latency.p90_ms
        );
        assert!(
            anti.normal_latency.p90_ms < shaving.normal_latency.p90_ms * 1.05,
            "{budget}: anti p90 {} should not lose to shaving p90 {}",
            anti.normal_latency.p90_ms,
            shaving.normal_latency.p90_ms
        );
    }
}

/// Section 5.4 / 6.3: Token holds latency low only by abandoning most of
/// the traffic ("more than 60 % of the packages"), legitimate included.
#[test]
fn token_trades_drops_for_latency() {
    let token = run_cell(SchemeKind::Token, BudgetLevel::Low, 800.0, 90, 11);
    let capping = run_cell(SchemeKind::Capping, BudgetLevel::Low, 800.0, 90, 11);
    assert!(
        token.traffic.drop_rate > 0.5,
        "token drop rate {}",
        token.traffic.drop_rate
    );
    // Capping also sheds load once its throttled queues overflow, but
    // Token, whose *only* tool is shedding, must drop more.
    assert!(
        token.traffic.drop_rate > capping.traffic.drop_rate,
        "token {} !> capping {}",
        token.traffic.drop_rate,
        capping.traffic.drop_rate
    );
    // And its *served* latency is indeed short.
    assert!(token.normal_latency.mean_ms < capping.normal_latency.mean_ms);
    // But legitimate users pay in availability: the bucket cannot tell a
    // legitimate recommendation query from an attack one, so the heavy
    // fifth of legitimate traffic is shed alongside the attack.
    assert!(
        token.normal_sla.drop_rate() > 0.1,
        "legit drop rate {}",
        token.normal_sla.drop_rate()
    );
}

/// Fig 15-a: every managed scheme keeps sustained power near the budget;
/// unmanaged does not.
#[test]
fn managed_schemes_contain_power() {
    let unmanaged = run_cell(SchemeKind::None, BudgetLevel::Medium, 600.0, 90, 13);
    assert!(
        unmanaged.power.violation_fraction > 0.5,
        "unmanaged should violate persistently: {}",
        unmanaged.power.violation_fraction
    );
    for scheme in [SchemeKind::Capping, SchemeKind::AntiDope] {
        let r = run_cell(scheme, BudgetLevel::Medium, 600.0, 90, 13);
        assert!(
            r.power.violation_fraction < 0.35,
            "{}: violation fraction {}",
            scheme,
            r.power.violation_fraction
        );
    }
}

/// Fig 15-b / Section 6.2: Anti-DOPE's collateral damage on legitimate
/// users is bounded — availability stays high under attack.
#[test]
fn antidope_preserves_availability() {
    let r = run_cell(SchemeKind::AntiDope, BudgetLevel::Medium, 600.0, 120, 17);
    // The innocent 80 % of legitimate traffic is fully protected; the
    // ~20 % classified suspect shares the isolated pool with the attack
    // (the paper's accepted collateral, §5.4), so availability is
    // bounded below by roughly the innocent share.
    assert!(
        r.availability() > 0.72,
        "availability {} too low: {}",
        r.availability(),
        r.oneline()
    );
    // Attack traffic actually landed on the suspect pool.
    assert!(r.traffic.to_suspect_pool > 0);
}

/// Fig 19: at Normal-PB all schemes consume about the same energy; under
/// attack with low budgets, Capping consumes the least utility energy
/// (it blindly slows everything down).
#[test]
fn energy_orderings() {
    let seed = 23;
    // "Different schemes consume the same energy in the baseline case":
    // the baseline is normal operation (no DOPE).
    let base: Vec<f64> = SchemeKind::EVALUATED
        .iter()
        .map(|&s| {
            run_cell(s, BudgetLevel::Normal, 0.0, 60, seed)
                .energy
                .normalized_utility
        })
        .collect();
    let lo = base.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = base.iter().cloned().fold(0.0f64, f64::max);
    assert!(hi / lo < 1.5, "Normal-PB energies should be close: {base:?}");

    let capping = run_cell(SchemeKind::Capping, BudgetLevel::Low, 600.0, 90, seed);
    let anti = run_cell(SchemeKind::AntiDope, BudgetLevel::Low, 600.0, 90, seed);
    let shaving = run_cell(SchemeKind::Shaving, BudgetLevel::Low, 600.0, 90, seed);
    // Shaving carries the whole load on the UPS during violations, so
    // its meter reading inside a short window defers most of the cost to
    // battery debt; compare the debt-adjusted billed energy (drained
    // charge must be bought back at ~90 % round-trip efficiency).
    let adjusted = |r: &antidope::SimReport| {
        r.energy.utility_j + (1.0 - r.battery.final_soc) * r.battery.capacity_j / 0.9
    };
    // Shaving serves the full attack at nominal frequency on battery
    // power, so its adjusted bill is the largest; Capping saves by
    // slowing everything; Anti-DOPE saves by isolating (and shedding)
    // the attack. (Divergence note: the paper ranks Capping below
    // Anti-DOPE on energy; our bounded suspect queue gives Anti-DOPE an
    // extra saving through rejected attack work — see EXPERIMENTS.md.)
    assert!(
        adjusted(&capping) < adjusted(&shaving),
        "capping {} !< shaving {}",
        adjusted(&capping),
        adjusted(&shaving)
    );
    assert!(
        adjusted(&anti) < adjusted(&shaving),
        "anti {} !< shaving {}",
        adjusted(&anti),
        adjusted(&shaving)
    );
    // Anti-DOPE leans on the battery less than Shaving.
    assert!(
        anti.battery.discharged_j < shaving.battery.discharged_j,
        "anti battery {} vs shaving {}",
        anti.battery.discharged_j,
        shaving.battery.discharged_j
    );
}

/// Colla-Filt and K-means degrade service more than light traffic under
/// capping (Fig 8): attack with each kernel, compare p90 of normal users.
#[test]
fn heavy_kernels_hurt_more() {
    let run_kernel = |kind: ServiceKind| {
        let mut exp = ExperimentConfig::paper_window(
            ClusterConfig::paper_rack(BudgetLevel::Low),
            SchemeKind::Capping,
            31,
        );
        exp.duration = SimDuration::from_secs(90);
        run_experiment(&exp, &population(kind, 500.0))
    };
    let colla = run_kernel(ServiceKind::CollaFilt);
    let text = run_kernel(ServiceKind::TextCont);
    assert!(
        colla.normal_latency.p90_ms > text.normal_latency.p90_ms,
        "colla p90 {} !> text p90 {}",
        colla.normal_latency.p90_ms,
        text.normal_latency.p90_ms
    );
    // The heavy kernel also forces deeper V/F cuts.
    assert!(colla.vf.mean_reduction_steps > text.vf.mean_reduction_steps);
}
