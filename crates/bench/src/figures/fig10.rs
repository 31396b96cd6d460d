//! Figure 10 — CDF of power with and without firewalls per traffic type.
//!
//! A *loud* attacker (few bots, per-source rate far above the 150 req/s
//! deflate rule) is eventually banned — but the detection lag lets the
//! early power spikes through, and the lag itself differs by traffic
//! type (heavier requests take longer to attribute).

use crate::scenarios::NORMAL_PEAK_RATE;
use crate::RunMode;
use antidope::testutil::users;
use antidope::{run_experiment, SchemeKind, SimReport};
use dcmetrics::export::Table;
use dcmetrics::Ecdf;
use powercap::BudgetLevel;
use simcore::par;
use workloads::attacker::AttackTool;
use workloads::scenario::SeedPin;
use workloads::service::ServiceKind;

fn run_one(kind: ServiceKind, firewall: bool, mode: RunMode) -> SimReport {
    let exp = crate::scenarios::experiment(
        SchemeKind::None,
        BudgetLevel::Normal,
        mode.cell_secs().max(60),
        mode.seed,
        firewall,
    );
    // 1000 req/s over 4 bots = 250 req/s per source: over the
    // threshold, so the firewall catches it after its lag.
    let loud = users(NORMAL_PEAK_RATE)
        .with_attack(AttackTool::HttpLoad { rate: 1000.0 }, kind, 4, 5)
        .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED));
    run_experiment(&exp, &loud)
}

/// Generate the Fig 10 data.
pub(crate) fn run(mode: RunMode) -> Vec<Table> {
    let cells: Vec<(ServiceKind, bool)> = ServiceKind::ALL
        .iter()
        .flat_map(|&k| [(k, false), (k, true)])
        .collect();
    let reports: Vec<(ServiceKind, bool, SimReport)> =
        par::map(cells.iter().collect(), |&(k, fw)| {
            (k, fw, run_one(k, fw, mode))
        });

    let mut summary = Table::new(
        "Fig 10 (summary): firewall effect on a loud 1000 req/s attack (4 bots)",
        &[
            "attack_type",
            "firewall",
            "mean_power_W",
            "peak_power_W",
            "blocked_requests",
        ],
    );
    for (k, fw, rep) in &reports {
        summary.push_row(vec![
            k.name().into(),
            if *fw { "on" } else { "off" }.into(),
            Table::fmt_f64(rep.power.avg_w),
            Table::fmt_f64(rep.power.peak_w),
            rep.traffic.firewall_blocked.to_string(),
        ]);
    }

    let mut cdfs = Table::new(
        "Fig 10 (CDFs): power with/without firewall",
        &["attack_type", "firewall", "power_norm", "cdf"],
    );
    for (k, fw, rep) in &reports {
        let mut cdf = Ecdf::from_samples(rep.power.series.iter().map(|&(_, w)| w / 400.0));
        for (x, p) in cdf.curve(0.3, 1.05, 26) {
            cdfs.push_row(vec![
                k.name().into(),
                if *fw { "on" } else { "off" }.into(),
                Table::fmt_f64(x),
                Table::fmt_f64(p),
            ]);
        }
    }
    vec![summary, cdfs]
}
