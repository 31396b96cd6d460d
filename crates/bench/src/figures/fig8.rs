//! Figure 8 — service time per traffic type under capping: Colla-Filt
//! and K-means arouse the most serious degradation.

use crate::scenarios::experiment;
use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_experiment, SchemeKind};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::par;
use workloads::service::ServiceKind;

/// Generate the Fig 8 data.
pub fn run(mode: RunMode) -> Vec<Table> {
    let rate = 500.0;
    let budgets = [BudgetLevel::Medium, BudgetLevel::Low];
    let cells: Vec<(ServiceKind, BudgetLevel)> = ServiceKind::ALL
        .iter()
        .flat_map(|&k| budgets.iter().map(move |&b| (k, b)))
        .collect();
    let reports: Vec<_> = par::map(cells.iter().collect(), |&(k, b)| {
        (
            k,
            b,
            run_experiment(
                &experiment(SchemeKind::Capping, b, mode.cell_secs(), mode.seed, false),
                &population(k, rate),
            ),
        )
    });

    let mut t = Table::new(
        "Fig 8: normal-user service time by attack traffic type (Capping, 500 req/s)",
        &["attack_type", "budget", "mean_ms", "p90_ms", "mean_vf_steps"],
    );
    for (k, b, rep) in &reports {
        t.push_row(vec![
            k.name().into(),
            b.name().into(),
            Table::fmt_f64(rep.normal_latency.mean_ms),
            Table::fmt_f64(rep.normal_latency.p90_ms),
            Table::fmt_f64(rep.vf.mean_reduction_steps),
        ]);
    }
    vec![t]
}
