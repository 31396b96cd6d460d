//! Table 2 — the evaluated power-management schemes.

use crate::RunMode;
use antidope::SchemeKind;
use dcmetrics::export::Table;

/// Render the scheme catalog.
pub(crate) fn run(_mode: RunMode) -> Vec<Table> {
    let mut t = Table::new(
        "Table 2: evaluated power management schemes",
        &["scheme", "feature", "description"],
    );
    let rows: [(SchemeKind, &str, &str); 4] = [
        (
            SchemeKind::Capping,
            "performance scaling only",
            "uniform DVFS across all nodes whenever aggregate power violates the budget",
        ),
        (
            SchemeKind::Shaving,
            "UPS-based peak shaving",
            "the UPS carries the load during violations; uniform DVFS only once it empties",
        ),
        (
            SchemeKind::Token,
            "power-based token bucket",
            "NLB admission bucket refilled at the dynamic power budget; requests are charged their profiled energy",
        ),
        (
            SchemeKind::AntiDope,
            "request-aware (this paper)",
            "PDF: URL-split forwarding isolates suspect flows; RPM/DPM throttles suspect nodes first, battery bridges transitions",
        ),
    ];
    for (kind, feature, desc) in rows {
        t.push_row(vec![kind.name().into(), feature.into(), desc.into()]);
    }
    vec![t]
}
