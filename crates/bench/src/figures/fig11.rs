//! Figure 11 — the DOPE operating region.
//!
//! Sweep aggregate attack rate (spread over a 40-agent botnet, so
//! per-source rates stay modest) and classify each point: does the
//! firewall see it? does it violate the Medium-PB power budget on an
//! unmanaged cluster? The DOPE region is `detected = no ∧ violates =
//! yes` — requests "close to the normal while far smaller than the
//! DoS-detecting network capacity" that still break the power budget.

use crate::scenarios::{experiment, BOTS};
use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_experiment, SchemeKind};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::par;
use workloads::service::ServiceKind;

/// Generate the Fig 11 data.
pub(crate) fn run(mode: RunMode) -> Vec<Table> {
    let rates: Vec<f64> = if mode.quick {
        vec![50.0, 200.0, 800.0]
    } else {
        vec![25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0]
    };
    let kinds = [ServiceKind::CollaFilt, ServiceKind::TextCont];
    let cells: Vec<(ServiceKind, f64)> = kinds
        .iter()
        .flat_map(|&k| rates.iter().map(move |&r| (k, r)))
        .collect();
    let reports: Vec<_> = par::map(cells.iter().collect(), |&(k, r)| {
        (
            k,
            r,
            run_experiment(
                // Firewall armed: detection is part of the map.
                &experiment(
                    SchemeKind::None,
                    BudgetLevel::Medium,
                    mode.cell_secs(),
                    mode.seed,
                    true,
                ),
                &population(k, r),
            ),
        )
    });

    let mut t = Table::new(
        "Fig 11: DOPE operating region (Medium-PB, unmanaged, deflate@150 req/s, 40 bots)",
        &[
            "service",
            "rate_rps",
            "per_bot_rps",
            "detected",
            "violates_budget",
            "region",
        ],
    );
    for (k, r, rep) in &reports {
        let detected = rep.traffic.firewall_blocked > 0;
        let violates = rep.power.violation_fraction > 0.05;
        let region = match (detected, violates) {
            (false, true) => "DOPE",
            (true, _) => "classic DoS (visible)",
            (false, false) => "harmless",
        };
        t.push_row(vec![
            k.name().into(),
            Table::fmt_f64(*r),
            Table::fmt_f64(*r / BOTS as f64),
            detected.to_string(),
            violates.to_string(),
            region.into(),
        ]);
    }
    vec![t]
}
