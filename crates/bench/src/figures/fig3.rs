//! Figure 3 — power profile of typical cyber-attacks.
//!
//! One run per flood kind at its tool's characteristic rate against the
//! unmanaged, unfirewalled cluster, over the paper's 600 s window. The
//! output reproduces the figure's grouping: application-layer attacks
//! (HTTP/DNS) ride high near nameplate; network-layer volume floods
//! (SYN/UDP/ICMP) barely move the needle.

use crate::scenarios::{self, NORMAL_PEAK_RATE};
use crate::RunMode;
use antidope::testutil::users;
use antidope::{run_experiment, SchemeKind, SimReport};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::par;
use workloads::floods::FloodKind;
use workloads::scenario::SeedPin;

fn run_flood(kind: FloodKind, mode: RunMode) -> SimReport {
    let secs = mode.window_secs();
    // Cap the volume floods' packet rates so the event count stays
    // tractable; their per-packet CPU cost is microseconds, so their
    // power contribution has already flattened far below the cap.
    let rate = kind.typical_max_rate().min(5_000.0);
    let exp = scenarios::experiment(SchemeKind::None, BudgetLevel::Normal, secs, mode.seed, false);
    let flood = users(NORMAL_PEAK_RATE)
        .with_flood(kind, rate, 200, 5)
        .pinned(50_000, 1 << 40, SeedPin::Xor(0xF100D));
    run_experiment(&exp, &flood)
}

/// Generate the Fig 3 data.
pub fn run(mode: RunMode) -> Vec<Table> {
    let reports = par::map(FloodKind::ALL.iter().collect(), |&k| (k, run_flood(k, mode)));

    let mut summary = Table::new(
        "Fig 3: power profile of typical cyber-attacks (4-node rack, 400 W nameplate)",
        &["attack", "layer", "mean_power_W", "peak_power_W", "band"],
    );
    for (kind, r) in &reports {
        let band = if r.power.avg_w > 300.0 {
            "high"
        } else if r.power.avg_w > 220.0 {
            "medium"
        } else {
            "low"
        };
        summary.push_row(vec![
            kind.name().into(),
            format!("{:?}", kind.layer()),
            Table::fmt_f64(r.power.avg_w),
            Table::fmt_f64(r.power.peak_w),
            band.into(),
        ]);
    }

    // The time series the figure actually plots.
    let mut series = Table::new(
        "Fig 3 (series): power vs time per attack",
        &["t_s", "attack", "power_W"],
    );
    for (kind, r) in &reports {
        for &(t, w) in &r.power.series {
            series.push_row(vec![
                Table::fmt_f64(t),
                kind.name().into(),
                Table::fmt_f64(w),
            ]);
        }
    }
    vec![summary, series]
}
