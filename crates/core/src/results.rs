//! Simulation reports — every number the paper's figures need.

use dcmetrics::{LatencyHistogram, SlaTracker};

pub use profiler::ProfilerReport;

/// Response-time summary in milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// Completed requests measured.
    pub count: u64,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// Minimum, ms.
    pub min_ms: f64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 90th percentile, ms (the paper's headline tail metric).
    pub p90_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Maximum, ms.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarize a histogram of response times in **seconds**.
    pub(crate) fn from_histogram(h: &LatencyHistogram) -> Self {
        if h.is_empty() {
            return LatencySummary::default();
        }
        let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
        LatencySummary {
            count: h.count(),
            mean_ms: h.mean() * 1e3,
            min_ms: ms(h.min()),
            p50_ms: ms(h.median()),
            p90_ms: ms(h.p90()),
            p95_ms: ms(h.p95()),
            p99_ms: ms(h.p99()),
            max_ms: ms(h.max()),
        }
    }
}

/// Aggregate power figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerReport {
    /// Supplied budget, watts.
    pub supply_w: f64,
    /// Peak load power observed, watts.
    pub peak_w: f64,
    /// Time-weighted average load power, watts.
    pub avg_w: f64,
    /// Monitor samples over budget.
    pub violations: u64,
    /// Fraction of monitor samples over budget.
    pub violation_fraction: f64,
    /// Thinned load-power trace as `(seconds, watts)`.
    pub series: Vec<(f64, f64)>,
    /// When the cluster breaker opened (outage), seconds — `None` if the
    /// feed survived the run.
    pub outage_at_s: Option<f64>,
}

/// Battery figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatteryReport {
    /// Usable capacity, joules.
    pub capacity_j: f64,
    /// Lowest state of charge reached.
    pub min_soc: f64,
    /// State of charge at the end of the run.
    pub final_soc: f64,
    /// Discharge episodes started.
    pub episodes: u64,
    /// Total energy delivered by the battery, joules.
    pub discharged_j: f64,
    /// Total wall energy drawn to recharge, joules.
    pub charge_drawn_j: f64,
    /// Thinned state-of-charge trace as `(seconds, soc)`.
    pub series: Vec<(f64, f64)>,
}

/// Energy figures (Fig 19).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyReport {
    /// Energy billed at the utility meter, joules.
    pub utility_j: f64,
    /// Energy delivered by the battery, joules.
    pub battery_j: f64,
    /// Energy delivered to the load, joules.
    pub load_j: f64,
    /// Utility energy normalized to `supply × duration` (the paper
    /// normalizes "to the supplied utility power energy").
    pub normalized_utility: f64,
}

/// DVFS behaviour figures (Fig 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VfReport {
    /// Mean V/F reduction steps across nodes, averaged over slots.
    pub mean_reduction_steps: f64,
    /// Deepest reduction observed on any node.
    pub max_reduction_steps: u8,
    /// Total DVFS transitions commanded.
    pub transitions: u64,
}

/// Thermal figures (when the thermal model is enabled).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThermalReport {
    /// Hottest junction temperature reached on any node, °C.
    pub peak_temp_c: f64,
    /// Total PROCHOT assertions across nodes.
    pub prochot_events: u64,
    /// Nodes that hit the critical trip.
    pub tripped_nodes: u64,
}

/// Traffic accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficReport {
    /// Requests generated by all sources.
    pub offered: u64,
    /// Dropped by the perimeter firewall.
    pub firewall_blocked: u64,
    /// Denied by the scheme's admission control (Token).
    pub scheme_denied: u64,
    /// Rejected by full server queues.
    pub queue_rejected: u64,
    /// Forwarded to the suspect pool (Anti-DOPE).
    pub to_suspect_pool: u64,
    /// Overall drop rate (all drop causes / offered).
    pub drop_rate: f64,
}

/// Fault-injection and graceful-degradation accounting. Present only
/// when the experiment ran with a fault plan
/// ([`crate::config::ClusterConfig::faults`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Sensor samples lost to dropout.
    pub sensor_dropouts: u64,
    /// Sensor samples frozen by a stuck-at fault.
    pub sensor_stuck: u64,
    /// Sensor samples that redelivered a stale value.
    pub sensor_stale: u64,
    /// Sensor samples lost to blackout windows.
    pub blackout_samples: u64,
    /// Actuator commands lost in flight.
    pub actuator_lost: u64,
    /// Actuator commands that applied late.
    pub actuator_delayed: u64,
    /// Actuator commands that hit a stuck P-state.
    pub actuator_stuck: u64,
    /// Node crashes (scheduled + stochastic).
    pub crashes: u64,
    /// Node reboots completed.
    pub reboots: u64,
    /// In-flight requests lost to crashes.
    pub lost_to_crash: u64,
    /// Control slots where a charge action was blocked by a failed
    /// charger.
    pub charger_blocked_slots: u64,
    /// Actuation retries issued after a failed read-back.
    pub actuator_retries: u64,
    /// Actuations abandoned after exhausting the retry budget.
    pub actuator_giveups: u64,
    /// Control slots spent with the safety watchdog engaged.
    pub degraded_slots: u64,
    /// Watchdog engagement episodes.
    pub degraded_episodes: u64,
    /// Total time degraded, seconds.
    pub time_degraded_s: f64,
    /// Mean time to recovery over completed episodes, seconds (0 when
    /// no episode completed).
    pub mttr_s: f64,
}

/// End-to-end resilience accounting. Present only when the experiment
/// ran with a retry policy ([`crate::config::ClusterConfig::retry`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetryReport {
    /// Re-dispatches issued (attempts beyond each request's first).
    pub attempts: u64,
    /// Requests that completed after at least one retry — traffic that
    /// oracle-free failure handling would have silently dropped.
    pub recovered: u64,
    /// Requests dropped after exhausting the attempt budget.
    pub exhausted: u64,
    /// Pool circuit-breaker trips.
    pub breaker_trips: u64,
    /// Dispatches steered to another pool by an open breaker.
    pub rerouted: u64,
}

/// Hierarchical power-topology accounting. Present only when the
/// experiment ran with a [`crate::topology::TopologyConfig`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyReport {
    /// Rack count.
    pub racks: usize,
    /// PDU count.
    pub pdus: usize,
    /// Row count.
    pub rows: usize,
    /// Peak sensed power per rack, watts.
    pub rack_peak_w: Vec<f64>,
    /// Load energy delivered per rack, joules. Sums exactly to the
    /// cluster-level [`EnergyReport::load_j`] (no double counting).
    pub rack_energy_j: Vec<f64>,
    /// Slots each rack spent over its oversubscribed budget.
    pub rack_breach_slots: Vec<u64>,
    /// PDU-slots spent over a PDU budget.
    pub pdu_breach_slots: u64,
    /// Row-slots spent over a row budget.
    pub row_breach_slots: u64,
    /// Slots the facility feed spent over its budget.
    pub facility_breach_slots: u64,
    /// When each rack's breaker opened, if it did (seconds).
    pub rack_trip_at_s: Vec<Option<f64>>,
    /// The rack with the highest recorded peak — the hierarchical
    /// attribution verdict for "where did the flood concentrate?".
    pub hottest_rack: usize,
    /// Slots the rack guard pinned at least one over-allocation rack to
    /// the safe P-state.
    pub guard_slots: u64,
    /// Slots with at least one rack's telemetry blacked out past the
    /// staleness window (0 unless a fault plan is configured).
    pub blackout_slots: u64,
    /// Rack-blackout episodes: rising edges of "some rack blacked out".
    pub blackout_episodes: u64,
}

/// The complete result of one simulated experiment.
///
/// `Debug` is hand-written to match the derived rendering except that a
/// `None` topology is elided entirely — the golden-report harness
/// renders reports with `{:#?}`, and flat (no-topology) runs must stay
/// byte-identical to snapshots captured before the field existed.
#[derive(Clone)]
pub struct SimReport {
    /// Experiment label.
    pub label: String,
    /// Scheme name.
    pub scheme: String,
    /// Budget level name.
    pub budget: String,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Latency of legitimate traffic.
    pub normal_latency: LatencySummary,
    /// Latency of attack traffic that got served.
    pub attack_latency: LatencySummary,
    /// SLA outcomes for legitimate traffic.
    pub normal_sla: SlaTracker,
    /// SLA outcomes for attack traffic.
    pub attack_sla: SlaTracker,
    /// Power figures.
    pub power: PowerReport,
    /// Battery figures.
    pub battery: BatteryReport,
    /// Energy figures.
    pub energy: EnergyReport,
    /// DVFS figures.
    pub vf: VfReport,
    /// Traffic accounting.
    pub traffic: TrafficReport,
    /// Thermal figures (zeros when the thermal model is disabled).
    pub thermal: ThermalReport,
    /// Fault-injection accounting; `None` when the fault layer is
    /// disabled, keeping reports byte-identical to fault-free builds.
    pub faults: Option<FaultReport>,
    /// Online-profiler accounting; `None` when the profiler is
    /// disabled, keeping reports byte-identical to profiler-free builds.
    pub profiler: Option<ProfilerReport>,
    /// Resilience accounting; `None` when no retry policy is
    /// configured, keeping reports byte-identical to retry-free builds.
    pub retry: Option<RetryReport>,
    /// Staged-admission verdict accounting; `None` (and elided from
    /// `Debug`) when no admission config is set, keeping reports
    /// byte-identical to builds without the pipeline.
    pub admission: Option<netsim::AdmissionReport>,
    /// Hierarchical-topology accounting; `None` (and elided from
    /// `Debug`) when no topology is configured, keeping reports
    /// byte-identical to flat builds.
    pub topology: Option<TopologyReport>,
    /// Events processed by the engine (throughput sanity).
    pub events: u64,
}

impl std::fmt::Debug for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SimReport");
        d.field("label", &self.label)
            .field("scheme", &self.scheme)
            .field("budget", &self.budget)
            .field("duration_s", &self.duration_s)
            .field("seed", &self.seed)
            .field("normal_latency", &self.normal_latency)
            .field("attack_latency", &self.attack_latency)
            .field("normal_sla", &self.normal_sla)
            .field("attack_sla", &self.attack_sla)
            .field("power", &self.power)
            .field("battery", &self.battery)
            .field("energy", &self.energy)
            .field("vf", &self.vf)
            .field("traffic", &self.traffic)
            .field("thermal", &self.thermal)
            .field("faults", &self.faults)
            .field("profiler", &self.profiler)
            .field("retry", &self.retry);
        if self.admission.is_some() {
            d.field("admission", &self.admission);
        }
        if self.topology.is_some() {
            d.field("topology", &self.topology);
        }
        d.field("events", &self.events);
        d.finish()
    }
}

impl SimReport {
    /// Availability of legitimate traffic.
    pub fn availability(&self) -> f64 {
        self.normal_sla.availability()
    }

    /// Render a one-line summary for logs.
    pub fn oneline(&self) -> String {
        format!(
            "{}: mean={:.1}ms p90={:.1}ms avail={:.3} peak={:.0}W viol={} drops={:.1}%",
            self.label,
            self.normal_latency.mean_ms,
            self.normal_latency.p90_ms,
            self.availability(),
            self.power.peak_w,
            self.power.violations,
            self.traffic.drop_rate * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_from_histogram() {
        let mut h = LatencyHistogram::for_latency_secs();
        for i in 1..=100 {
            h.record(i as f64 * 1e-3); // 1..100 ms
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 0.1);
        assert!((s.p90_ms - 90.0).abs() / 90.0 < 0.05);
        assert!((s.min_ms - 1.0).abs() < 1e-9);
        assert!((s.max_ms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = LatencyHistogram::for_latency_secs();
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn report_debug_elides_unset_sections() {
        let r = SimReport {
            label: "x".into(),
            scheme: "Capping".into(),
            budget: "Low-PB".into(),
            duration_s: 600.0,
            seed: 1,
            normal_latency: LatencySummary::default(),
            attack_latency: LatencySummary::default(),
            normal_sla: SlaTracker::new(),
            attack_sla: SlaTracker::new(),
            power: PowerReport::default(),
            battery: BatteryReport::default(),
            energy: EnergyReport::default(),
            vf: VfReport::default(),
            traffic: TrafficReport::default(),
            thermal: ThermalReport::default(),
            faults: None,
            profiler: None,
            retry: None,
            admission: None,
            topology: None,
            events: 0,
        };
        // Reports without the admission pipeline or a topology print
        // without those fields at all.
        let text = format!("{r:?}");
        assert!(!text.contains("admission"));
        assert!(!text.contains("topology"));
        assert_eq!(r.availability(), 1.0);
        assert!(r.oneline().contains("Capping") || r.oneline().contains("x"));

        let mut r = r;
        r.topology = Some(TopologyReport::default());
        assert!(format!("{r:?}").contains("topology: Some("));
    }
}
