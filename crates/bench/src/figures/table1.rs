//! Table 1 — the evaluated workload zoo, with the calibrated parameters
//! this reproduction assigns to each entry.

use crate::RunMode;
use dcmetrics::export::Table;
use powercap::server_power::ServerPowerModel;
use workloads::floods::FloodKind;
use workloads::service::ServiceKind;

/// Render the workload catalog. Service times and energies are priced
/// on the paper's server model: nominal frequency and dynamic headroom.
pub(crate) fn run(_mode: RunMode) -> Vec<Table> {
    let model = ServerPowerModel::paper_default();
    let (ghz, headroom_w) = (model.table.max_freq_ghz(), model.dynamic_headroom_w());
    let mut victims = Table::new(
        "Table 1 (victims): EC service kernels and calibrated parameters",
        &[
            "name",
            "character",
            "mean_service_ms",
            "beta",
            "intensity",
            "gamma",
            "energy_per_req_J",
        ],
    );
    for kind in ServiceKind::ALL {
        let p = kind.profile();
        let character = match kind {
            ServiceKind::CollaFilt => "computing-intensive",
            ServiceKind::KMeans => "memory-intensive",
            ServiceKind::WordCount => "disk-read heavy",
            ServiceKind::TextCont => "text delivery",
        };
        victims.push_row(vec![
            kind.name().to_string(),
            character.to_string(),
            format!("{:.1}", p.mean_service_time(ghz).as_secs_f64() * 1e3),
            format!("{:.2}", p.beta),
            format!("{:.2}", p.intensity),
            format!("{:.2}", p.gamma),
            format!("{:.3}", p.energy_estimate_j(ghz, headroom_w)),
        ]);
    }

    let mut tools = Table::new(
        "Table 1 (DoS tools & normal model)",
        &["name", "kind", "behaviour"],
    );
    tools.push_row(vec![
        "http-load".into(),
        "DoS".into(),
        "open-loop HTTP flood at a configured aggregate rate over a botnet".into(),
    ]);
    tools.push_row(vec![
        "ApacheBench".into(),
        "DoS".into(),
        "closed-loop: holds a fixed number of concurrent requests outstanding".into(),
    ]);
    tools.push_row(vec![
        "AliOS".into(),
        "Normal".into(),
        "NHPP arrivals modulated by an Alibaba-trace-shaped utilization signal".into(),
    ]);
    for kind in FloodKind::ALL {
        tools.push_row(vec![
            kind.name().into(),
            format!("{:?}-layer flood", kind.layer()),
            format!(
                "typical max rate {:.0}/s, {:.1} µs CPU per packet/query",
                kind.typical_max_rate(),
                kind.params().work_gcycles / ghz * 1e6
            ),
        ]);
    }
    vec![victims, tools]
}
