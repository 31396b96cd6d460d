//! Figure 6 — the effect of HTTP DoS attack on power capping.
//!
//! (a) V/F reduction vs traffic rate per victim service under Medium-PB
//! capping — Colla-Filt trips DVFS at the lowest rate;
//! (b) V/F reduction per request type at 1000 req/s — K-means forces the
//! deepest cut because its power barely responds to frequency.

use crate::scenarios::experiment;
use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_experiment, SchemeKind, SimReport};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::par;
use workloads::service::ServiceKind;

fn cell(kind: ServiceKind, rate: f64, mode: RunMode) -> SimReport {
    run_experiment(
        &experiment(SchemeKind::Capping, BudgetLevel::Medium, mode.cell_secs(), mode.seed, false),
        &population(kind, rate),
    )
}

/// Generate the Fig 6 data.
pub fn run(mode: RunMode) -> Vec<Table> {
    let rates: Vec<f64> = if mode.quick {
        vec![50.0, 200.0, 1000.0]
    } else {
        vec![25.0, 50.0, 100.0, 200.0, 500.0, 1000.0]
    };
    let cells: Vec<(ServiceKind, f64)> = ServiceKind::ALL
        .iter()
        .flat_map(|&k| rates.iter().map(move |&r| (k, r)))
        .collect();
    let reports = par::map(cells.iter().collect(), |&(k, r)| (k, r, cell(k, r, mode)));

    let mut a = Table::new(
        "Fig 6-a: V/F reduction vs traffic rate (Medium-PB, Capping)",
        &["service", "rate_rps", "mean_vf_steps", "max_vf_steps"],
    );
    for (k, r, rep) in &reports {
        a.push_row(vec![
            k.name().into(),
            Table::fmt_f64(*r),
            Table::fmt_f64(rep.vf.mean_reduction_steps),
            rep.vf.max_reduction_steps.to_string(),
        ]);
    }

    let mut b = Table::new(
        "Fig 6-b: V/F reduction per request type at 1000 req/s",
        &["service", "mean_vf_steps", "max_vf_steps", "dvfs_transitions"],
    );
    let top_rate = *rates.last().expect("non-empty");
    for (k, r, rep) in &reports {
        if *r == top_rate {
            b.push_row(vec![
                k.name().into(),
                Table::fmt_f64(rep.vf.mean_reduction_steps),
                rep.vf.max_reduction_steps.to_string(),
                rep.vf.transitions.to_string(),
            ]);
        }
    }
    vec![a, b]
}
