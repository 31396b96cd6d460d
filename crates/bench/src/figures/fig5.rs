//! Figure 5 — power per traffic type at rate 100: volume-based requests
//! have low power intensity.
//!
//! (a) power CDF per traffic type (the paper's subvertical, rightmost
//! Colla-Filt curve);
//! (b) average power and energy per request type — K-means tops the
//! per-request energy ranking.

use crate::scenarios::experiment;
use crate::RunMode;
use antidope::testutil::population;
use antidope::{run_experiment, SchemeKind, SimReport};
use dcmetrics::export::Table;
use dcmetrics::{Ecdf, OnlineSummary};
use powercap::BudgetLevel;
use simcore::par;
use workloads::service::ServiceKind;

/// Generate the Fig 5 data.
pub fn run(mode: RunMode) -> Vec<Table> {
    let rate = 100.0;
    let reports: Vec<(ServiceKind, SimReport)> = par::map(ServiceKind::ALL.iter().collect(), |&k| {
        (
            k,
            run_experiment(
                &experiment(
                    SchemeKind::None,
                    BudgetLevel::Normal,
                    mode.cell_secs().max(60),
                    mode.seed,
                    false,
                ),
                &population(k, rate),
            ),
        )
    });

    let mut a = Table::new(
        "Fig 5-a: CDF of power per traffic type at 100 req/s (normalized to nameplate)",
        &["service", "power_norm", "cdf"],
    );
    for (k, rep) in &reports {
        // Skip the pre-attack warmup (first 5 s) so the CDF reflects the
        // attack steady state, as the paper's measurement does.
        let mut cdf = Ecdf::from_samples(
            rep.power
                .series
                .iter()
                .filter(|&&(t, _)| t >= 5.0)
                .map(|&(_, w)| w / 400.0),
        );
        for (x, p) in cdf.curve(0.3, 1.05, 26) {
            a.push_row(vec![
                k.name().into(),
                Table::fmt_f64(x),
                Table::fmt_f64(p),
            ]);
        }
    }

    let mut b = Table::new(
        "Fig 5-b: average power and per-request energy by type at 100 req/s",
        &[
            "service",
            "avg_power_W",
            "power_stability_cv",
            "energy_per_request_J",
        ],
    );
    for (k, rep) in &reports {
        let mut stats = OnlineSummary::new();
        for &(t, w) in &rep.power.series {
            if t >= 5.0 {
                stats.record(w);
            }
        }
        // Per-request dynamic energy: attack energy injected / requests
        // served (idle floor subtracted).
        let idle_j = 160.0 * rep.duration_s;
        let served = (rep.attack_sla.on_time() + rep.attack_sla.late()).max(1);
        let energy_per_req = (rep.energy.load_j - idle_j).max(0.0) / served as f64;
        b.push_row(vec![
            k.name().into(),
            Table::fmt_f64(stats.mean()),
            Table::fmt_f64(stats.cv()),
            Table::fmt_f64(energy_per_req),
        ]);
    }
    vec![a, b]
}
