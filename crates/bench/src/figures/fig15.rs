//! Figure 15 — Anti-DOPE allocates power within the supply with slight
//! degradation for normal users.
//!
//! (a) the power trace: original (no attack), under DOPE with no
//! management, and under DOPE with Anti-DOPE — the managed trace stays
//! at/below the budget;
//! (b) normal-user response-time percentiles: good-user Normal-PB
//! baseline vs Anti-DOPE under attack at Medium-PB.

use crate::scenarios::experiment;
use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_experiment, SchemeKind};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::par;
use workloads::service::ServiceKind;

/// Generate the Fig 15 data.
pub(crate) fn run(mode: RunMode) -> Vec<Table> {
    let secs = mode.window_secs();
    let cells: Vec<(&str, SchemeKind, BudgetLevel, f64)> = vec![
        ("original(no attack)", SchemeKind::None, BudgetLevel::Medium, 0.0),
        ("DOPE unmanaged", SchemeKind::None, BudgetLevel::Medium, 600.0),
        ("DOPE + Anti-DOPE", SchemeKind::AntiDope, BudgetLevel::Medium, 600.0),
        ("baseline good user", SchemeKind::AntiDope, BudgetLevel::Normal, 0.0),
    ];
    let reports = par::map(cells.iter().collect(), |&(label, scheme, budget, rate)| {
        (
            label,
            run_experiment(
                &experiment(scheme, budget, secs, mode.seed, true),
                &population(ServiceKind::CollaFilt, rate),
            ),
        )
    });

    let mut a = Table::new(
        "Fig 15-a: power trace (Medium-PB supply = 340 W)",
        &["t_s", "scenario", "power_W"],
    );
    for (label, rep) in reports.iter().take(3) {
        for &(t, w) in &rep.power.series {
            a.push_row(vec![
                Table::fmt_f64(t),
                (*label).into(),
                Table::fmt_f64(w),
            ]);
        }
    }

    let mut summary = Table::new(
        "Fig 15-a (summary)",
        &["scenario", "avg_W", "peak_W", "violation_fraction"],
    );
    for (label, rep) in reports.iter().take(3) {
        summary.push_row(vec![
            (*label).into(),
            Table::fmt_f64(rep.power.avg_w),
            Table::fmt_f64(rep.power.peak_w),
            Table::fmt_f64(rep.power.violation_fraction),
        ]);
    }

    let mut b = Table::new(
        "Fig 15-b: normal-user response-time percentiles, ms",
        &["scenario", "min", "mean", "p50", "p90", "p95", "p99", "max"],
    );
    for (label, rep) in [&reports[3], &reports[2]] {
        let l = &rep.normal_latency;
        b.push_row(vec![
            (*label).into(),
            Table::fmt_f64(l.min_ms),
            Table::fmt_f64(l.mean_ms),
            Table::fmt_f64(l.p50_ms),
            Table::fmt_f64(l.p90_ms),
            Table::fmt_f64(l.p95_ms),
            Table::fmt_f64(l.p99_ms),
            Table::fmt_f64(l.max_ms),
        ]);
    }
    vec![summary, a, b]
}
