//! Figures 16, 17 and 19 — the evaluation matrix: mean response time,
//! 90th-percentile tail latency, and normalized energy for all four
//! schemes at all four provisioning levels, under the standard
//! AliOS + Colla-Filt DOPE scenario. The three figures share one run
//! matrix, so the harness produces them together.

use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_matrix, ClusterConfig, SchemeKind, SimReport};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::SimDuration;
use workloads::service::ServiceKind;

/// The evaluation matrix: every evaluated scheme at every budget level
/// on the paper rack, under AliOS plus a sustained 390 req/s Colla-Filt
/// DOPE flood. Reports are scheme-major over [`SchemeKind::EVALUATED`]
/// × [`BudgetLevel::ALL`].
pub(crate) fn eval_matrix(secs: u64, seed: u64) -> Vec<SimReport> {
    run_matrix(
        &SchemeKind::EVALUATED,
        &BudgetLevel::ALL,
        &ClusterConfig::paper_rack(BudgetLevel::Normal),
        SimDuration::from_secs(secs),
        seed,
        &population(ServiceKind::CollaFilt, 390.0),
    )
}

/// Generate Figs 16, 17, 19 plus the headline improvement numbers.
pub fn run(mode: RunMode) -> Vec<Table> {
    let reports = eval_matrix(mode.window_secs(), mode.seed);
    // reports are scheme-major over SchemeKind::EVALUATED × BudgetLevel::ALL.
    let schemes = ["Capping", "Shaving", "Token", "Anti-DOPE"];
    let budgets = ["Normal-PB", "High-PB", "Medium-PB", "Low-PB"];
    let get = |s: usize, b: usize| &reports[s * budgets.len() + b];

    let mut fig16 = Table::new(
        "Fig 16: mean response time of normal users, ms",
        &["scheme", "Normal-PB", "High-PB", "Medium-PB", "Low-PB"],
    );
    for (si, s) in schemes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for bi in 0..budgets.len() {
            row.push(Table::fmt_f64(get(si, bi).normal_latency.mean_ms));
        }
        fig16.push_row(row);
    }

    let mut fig17 = Table::new(
        "Fig 17: 90th-percentile tail latency of normal users, ms",
        &["scheme", "Normal-PB", "High-PB", "Medium-PB", "Low-PB"],
    );
    for (si, s) in schemes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for bi in 0..budgets.len() {
            row.push(Table::fmt_f64(get(si, bi).normal_latency.p90_ms));
        }
        fig17.push_row(row);
    }

    let mut fig19 = Table::new(
        "Fig 19: energy normalized to supplied utility energy (supply × window)",
        &["scheme", "Normal-PB", "High-PB", "Medium-PB", "Low-PB"],
    );
    for (si, s) in schemes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for bi in 0..budgets.len() {
            row.push(Table::fmt_f64(get(si, bi).energy.normalized_utility));
        }
        fig19.push_row(row);
    }

    // Steady-state view: a battery left drained at the end of the window
    // is deferred utility energy (it must be recharged at ~90 %
    // round-trip efficiency), so add that debt back in.
    let mut fig19_adj = Table::new(
        "Fig 19 (battery-debt adjusted): normalized utility energy incl. recharge debt",
        &["scheme", "Normal-PB", "High-PB", "Medium-PB", "Low-PB"],
    );
    for (si, s) in schemes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for bi in 0..budgets.len() {
            let r = get(si, bi);
            let debt_j = (1.0 - r.battery.final_soc) * r.battery.capacity_j / 0.9;
            let supply_j = r.power.supply_w * r.duration_s;
            row.push(Table::fmt_f64(
                (r.energy.utility_j + debt_j) / supply_j.max(1e-9),
            ));
        }
        fig19_adj.push_row(row);
    }

    let mut battery = Table::new(
        "Fig 19 (battery split): energy delivered by batteries, kJ",
        &["scheme", "Normal-PB", "High-PB", "Medium-PB", "Low-PB"],
    );
    for (si, s) in schemes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for bi in 0..budgets.len() {
            row.push(Table::fmt_f64(get(si, bi).battery.discharged_j / 1e3));
        }
        battery.push_row(row);
    }

    // Headline numbers: Anti-DOPE (row 3) vs the mean of the power
    // control baselines Capping (0) and Shaving (1), averaged over the
    // under-provisioned budgets (High/Medium/Low), matching the
    // abstract's "44 % shorter average response time … 90th percentile
    // tail latency by 68.1 %".
    let mut mean_impr = 0.0;
    let mut p90_impr = 0.0;
    for bi in 1..4 {
        let base_mean =
            (get(0, bi).normal_latency.mean_ms + get(1, bi).normal_latency.mean_ms) / 2.0;
        let base_p90 =
            (get(0, bi).normal_latency.p90_ms + get(1, bi).normal_latency.p90_ms) / 2.0;
        mean_impr += 1.0 - get(3, bi).normal_latency.mean_ms / base_mean;
        p90_impr += 1.0 - get(3, bi).normal_latency.p90_ms / base_p90;
    }
    mean_impr /= 3.0;
    p90_impr /= 3.0;
    let mut headline = Table::new(
        "Headline: Anti-DOPE vs power-control baselines (mean of Capping & Shaving, under-provisioned budgets)",
        &["metric", "paper", "measured"],
    );
    headline.push_row(vec![
        "mean response time improvement".into(),
        "44%".into(),
        format!("{:.1}%", mean_impr * 100.0),
    ]);
    headline.push_row(vec![
        "p90 tail latency improvement".into(),
        "68.1%".into(),
        format!("{:.1}%", p90_impr * 100.0),
    ]);

    // Token context: its latency is bought with drops.
    let mut drops = Table::new(
        "Context: drop rate of all offered traffic",
        &["scheme", "Normal-PB", "High-PB", "Medium-PB", "Low-PB"],
    );
    for (si, s) in schemes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for bi in 0..budgets.len() {
            row.push(format!("{:.1}%", get(si, bi).traffic.drop_rate * 100.0));
        }
        drops.push_row(row);
    }

    vec![fig16, fig17, fig19, fig19_adj, battery, headline, drops]
}
