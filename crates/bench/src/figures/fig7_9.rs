//! Figures 7 and 9 — service quality and availability vs attack rate in
//! an aggressively power-insufficient cluster (Low-PB, Capping).
//!
//! Fig 7: mean and 90th-percentile response time of *normal* users blow
//! up once the attack rate passes the knee (paper: ≈7.4× mean, ≈8.9×
//! p90 past ~100 req/s).
//! Fig 9: availability (on-time fraction of legitimate requests)
//! collapses over the same sweep.

use crate::scenarios::experiment;
use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_experiment, SchemeKind, SimReport};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::par;
use workloads::service::ServiceKind;

fn sweep(mode: RunMode) -> Vec<(f64, SimReport)> {
    let rates: Vec<f64> = if mode.quick {
        vec![0.0, 100.0, 500.0]
    } else {
        vec![0.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0]
    };
    par::map(rates.iter().collect(), |&r| {
        (
            r,
            run_experiment(
                &experiment(
                    SchemeKind::Capping,
                    BudgetLevel::Low,
                    mode.cell_secs(),
                    mode.seed,
                    false,
                ),
                &population(ServiceKind::CollaFilt, r),
            ),
        )
    })
}

/// Fig 7: latency vs attack rate.
pub(crate) fn run_fig7(mode: RunMode) -> Vec<Table> {
    let reports = sweep(mode);
    let baseline = &reports[0].1;
    let base_mean = baseline.normal_latency.mean_ms.max(1e-9);
    let base_p90 = baseline.normal_latency.p90_ms.max(1e-9);
    let mut t = Table::new(
        "Fig 7: normal-user latency vs attack rate (Low-PB, Capping)",
        &[
            "attack_rps",
            "mean_ms",
            "p90_ms",
            "mean_vs_noattack",
            "p90_vs_noattack",
        ],
    );
    for (r, rep) in &reports {
        t.push_row(vec![
            Table::fmt_f64(*r),
            Table::fmt_f64(rep.normal_latency.mean_ms),
            Table::fmt_f64(rep.normal_latency.p90_ms),
            format!("{:.1}x", rep.normal_latency.mean_ms / base_mean),
            format!("{:.1}x", rep.normal_latency.p90_ms / base_p90),
        ]);
    }
    vec![t]
}

/// Fig 9: availability vs attack rate.
pub(crate) fn run_fig9(mode: RunMode) -> Vec<Table> {
    let reports = sweep(mode);
    let mut t = Table::new(
        "Fig 9: service availability vs attack rate (Low-PB, Capping)",
        &[
            "attack_rps",
            "availability",
            "completion_rate",
            "drop_rate",
            "mean_vf_steps",
        ],
    );
    for (r, rep) in &reports {
        t.push_row(vec![
            Table::fmt_f64(*r),
            Table::fmt_f64(rep.normal_sla.availability()),
            Table::fmt_f64(rep.normal_sla.completion_rate()),
            Table::fmt_f64(rep.normal_sla.drop_rate()),
            Table::fmt_f64(rep.vf.mean_reduction_steps),
        ]);
    }
    vec![t]
}
