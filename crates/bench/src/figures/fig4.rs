//! Figure 4 — higher traffic rate causes higher power.
//!
//! (a) mean power vs attack rate per victim service;
//! (b) the CDF of per-second power samples at several rates.

use crate::scenarios::experiment;
use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_experiment, SchemeKind, SimReport};
use dcmetrics::export::Table;
use dcmetrics::Ecdf;
use powercap::BudgetLevel;
use simcore::par;
use workloads::service::ServiceKind;

fn rates(mode: RunMode) -> Vec<f64> {
    if mode.quick {
        vec![10.0, 100.0, 500.0]
    } else {
        vec![10.0, 50.0, 100.0, 200.0, 500.0, 1000.0]
    }
}

fn cell(kind: ServiceKind, rate: f64, mode: RunMode) -> SimReport {
    run_experiment(
        &experiment(SchemeKind::None, BudgetLevel::Normal, mode.cell_secs(), mode.seed, false),
        &population(kind, rate),
    )
}

/// Generate the Fig 4 data.
pub(crate) fn run(mode: RunMode) -> Vec<Table> {
    let rates = rates(mode);
    let cells: Vec<(ServiceKind, f64)> = ServiceKind::ALL
        .iter()
        .flat_map(|&k| rates.iter().map(move |&r| (k, r)))
        .collect();
    let reports: Vec<(ServiceKind, f64, SimReport)> =
        par::map(cells.iter().collect(), |&(k, r)| (k, r, cell(k, r, mode)));

    let mut a = Table::new(
        "Fig 4-a: mean power vs traffic rate per service (unmanaged rack)",
        &["service", "rate_rps", "mean_power_W", "peak_power_W"],
    );
    for (k, r, rep) in &reports {
        a.push_row(vec![
            k.name().into(),
            Table::fmt_f64(*r),
            Table::fmt_f64(rep.power.avg_w),
            Table::fmt_f64(rep.power.peak_w),
        ]);
    }

    // (b): power CDFs at three rates, Colla-Filt attack, normalized to
    // the rack nameplate as in the paper.
    let cdf_rates: Vec<f64> = if mode.quick {
        vec![10.0, 500.0]
    } else {
        vec![50.0, 200.0, 1000.0]
    };
    let mut b = Table::new(
        "Fig 4-b: CDF of power at several traffic rates (Colla-Filt)",
        &["rate_rps", "power_norm", "cdf"],
    );
    for &rate in &cdf_rates {
        let rep = reports
            .iter()
            .find(|(k, r, _)| *k == ServiceKind::CollaFilt && *r == rate)
            .map(|(_, _, rep)| rep.clone())
            .unwrap_or_else(|| cell(ServiceKind::CollaFilt, rate, mode));
        let mut cdf = Ecdf::from_samples(rep.power.series.iter().map(|&(_, w)| w / 400.0));
        for (x, p) in cdf.curve(0.3, 1.05, 26) {
            b.push_row(vec![
                Table::fmt_f64(rate),
                Table::fmt_f64(x),
                Table::fmt_f64(p),
            ]);
        }
    }
    vec![a, b]
}
