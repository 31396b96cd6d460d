//! Fig 18 end-to-end: battery trajectories differ by scheme under the
//! same sustained DOPE attack.

mod common;

use antidope_repro::antidope::testutil::{users, NORMAL_PEAK_RATE};
use antidope_repro::prelude::*;
use common::run_cell;

/// "Since the DOPE generates high and long power peaks, it exhausts the
/// battery" — Shaving drains to (near) empty under a sustained attack
/// longer than the 2-minute sustain rating.
#[test]
fn shaving_exhausts_battery_under_sustained_dope() {
    // Deficit arithmetic: Low-PB supplies 320 W against a ≤400 W
    // nameplate, so the worst-case shaving drain is 80 W and the
    // 2-minute (48 kJ) battery survives at least 600 s — exhaustion
    // needs an attack outlasting that.
    let r = run_cell(SchemeKind::Shaving, BudgetLevel::Low, 700.0, 700, 3);
    assert!(
        r.battery.min_soc < 0.2,
        "battery should be nearly drained: min_soc={} {}",
        r.battery.min_soc,
        r.oneline()
    );
    assert!(r.battery.discharged_j > 0.5 * r.battery.capacity_j);
}

/// "Our proposal mainly uses batteries as the transition medium" —
/// Anti-DOPE's battery dips but stays far from empty and recharges.
#[test]
fn antidope_battery_is_transition_medium_only() {
    let anti = run_cell(SchemeKind::AntiDope, BudgetLevel::Low, 700.0, 300, 3);
    let shaving = run_cell(SchemeKind::Shaving, BudgetLevel::Low, 700.0, 300, 3);
    assert!(
        anti.battery.min_soc > shaving.battery.min_soc + 0.3,
        "anti min_soc {} vs shaving {}",
        anti.battery.min_soc,
        shaving.battery.min_soc
    );
    assert!(
        anti.battery.discharged_j < 0.5 * shaving.battery.discharged_j,
        "anti discharged {} vs shaving {}",
        anti.battery.discharged_j,
        shaving.battery.discharged_j
    );
}

/// Capping never touches the battery at all.
#[test]
fn capping_leaves_battery_full() {
    let r = run_cell(SchemeKind::Capping, BudgetLevel::Low, 700.0, 120, 3);
    assert_eq!(r.battery.episodes, 0);
    assert_eq!(r.battery.discharged_j, 0.0);
    assert!((r.battery.final_soc - 1.0).abs() < 1e-9);
}

/// Fig 18's attack-switching scenario: the attack rotates kernels every
/// 2 minutes. In the paper Anti-DOPE discharges briefly at each change
/// (its testbed re-profiles on the fly); our PDF isolates the attack
/// *statically*, so the cluster never even sees a transient deficit —
/// a strictly stronger outcome we assert as "battery barely touched
/// while Shaving drains on the identical scenario" (divergence recorded
/// in EXPERIMENTS.md).
#[test]
fn attack_switching_battery_contrast() {
    // Rotate Colla-Filt → K-means → Word-Count every 120 s.
    let kinds = [
        ServiceKind::CollaFilt,
        ServiceKind::KMeans,
        ServiceKind::WordCount,
    ];
    let mut switching = users(NORMAL_PEAK_RATE);
    for (i, kind) in (0u64..).zip(kinds) {
        switching = switching
            .with_attack_window(
                AttackTool::HttpLoad { rate: 700.0 },
                kind,
                40,
                5 + 120 * i,
                5 + 120 * (i + 1),
            )
            .pinned(50_000 + i as u32 * 1_000, (1 + i) << 40, SeedPin::Xor(i + 1));
    }
    let run = |scheme: SchemeKind| {
        let mut exp =
            ExperimentConfig::paper_window(ClusterConfig::paper_rack(BudgetLevel::Low), scheme, 13);
        exp.duration = SimDuration::from_secs(365);
        run_experiment(&exp, &switching)
    };
    let anti = run(SchemeKind::AntiDope);
    let shaving = run(SchemeKind::Shaving);
    assert!(
        shaving.battery.discharged_j > 5.0 * anti.battery.discharged_j.max(1.0),
        "shaving {} J vs anti {} J",
        shaving.battery.discharged_j,
        anti.battery.discharged_j
    );
    assert!(
        anti.battery.min_soc > 0.8,
        "transition-medium use must not drain: min_soc {}",
        anti.battery.min_soc
    );
    assert!(shaving.battery.min_soc < anti.battery.min_soc);
    // And the isolation is doing the work: the rotating attack landed on
    // the suspect pool.
    assert!(anti.traffic.to_suspect_pool > 10_000);
}
