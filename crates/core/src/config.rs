//! Cluster and experiment configuration.

use netsim::RetryConfig;
use powercap::BudgetLevel;
use profiler::{ProfilerConfig, ProfilerConfigError};
use simcore::faults::{FaultConfig, FaultError};
use simcore::SimDuration;

/// Why a cluster configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The simulated cluster needs at least two servers (one suspect +
    /// one innocent under Anti-DOPE).
    TooFewServers {
        /// Configured server count.
        servers: usize,
    },
    /// A count parameter that must be at least one was zero.
    ZeroCount {
        /// Parameter name.
        what: &'static str,
    },
    /// A duration parameter that must be non-zero was zero.
    ZeroDuration {
        /// Parameter name.
        what: &'static str,
    },
    /// The suspect pool must leave at least one innocent server.
    SuspectPool {
        /// Configured suspect pool size.
        pool: usize,
        /// Configured server count.
        servers: usize,
    },
    /// A suspicion threshold outside `[0, 1]`.
    Threshold {
        /// Offending value.
        value: f64,
    },
    /// A control-plane parameter outside its valid range.
    ControlPlane {
        /// Parameter name.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The fault-injection plan was invalid.
    Fault(FaultError),
    /// The online-profiler configuration was invalid.
    Profiler(ProfilerConfigError),
    /// The shard count must stay within `1..=servers` so every shard
    /// owns at least one node.
    Shards {
        /// Configured shard count.
        shards: usize,
        /// Configured server count.
        servers: usize,
    },
    /// The retry / circuit-breaker policy was invalid (the wrapped
    /// error names the offending knob and its value).
    Retry(netsim::ConfigError),
    /// The staged admission-pipeline configuration was invalid (the
    /// wrapped error names the offending stage parameter).
    Admission(netsim::ConfigError),
    /// A power-topology level count broke the nesting invariant
    /// `rows ≤ pdus ≤ racks ≤ servers` (every level needs at least one
    /// child per parent feed).
    Topology {
        /// Level name.
        what: &'static str,
        /// Configured count.
        count: usize,
        /// Largest count the next level up permits.
        max: usize,
    },
    /// A control-plane trace was written by an incompatible schema
    /// version (see [`crate::control::plane::TRACE_SCHEMA_VERSION`]).
    TraceSchema {
        /// Version stamped in the trace header.
        found: u32,
        /// Version this build can read.
        supported: u32,
    },
    /// A control-plane trace stream was structurally invalid (missing
    /// header/footer, unparseable line, I/O failure).
    TraceFormat {
        /// What was wrong, with the offending line when known.
        what: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewServers { servers } => {
                write!(f, "need at least 2 servers, got {servers}")
            }
            ConfigError::ZeroCount { what } => write!(f, "{what} must be at least 1"),
            ConfigError::ZeroDuration { what } => write!(f, "{what} must be non-zero"),
            ConfigError::SuspectPool { pool, servers } => write!(
                f,
                "suspect pool of {pool} must leave innocent servers (cluster has {servers})"
            ),
            ConfigError::Threshold { value } => {
                write!(f, "suspect threshold {value} is outside [0, 1]")
            }
            ConfigError::ControlPlane { what, value } => {
                write!(f, "control plane: {what} = {value} is out of range")
            }
            ConfigError::Fault(e) => write!(f, "fault plan: {e}"),
            ConfigError::Profiler(e) => write!(f, "profiler: {e}"),
            ConfigError::Shards { shards, servers } => write!(
                f,
                "shard count {shards} must be in 1..={servers} (one node per shard minimum)"
            ),
            ConfigError::Retry(e) => write!(f, "retry policy: {e}"),
            ConfigError::Admission(e) => write!(f, "admission pipeline: {e}"),
            ConfigError::Topology { what, count, max } => write!(
                f,
                "topology: {what} = {count} must be in 1..={max} (levels nest: rows ≤ pdus ≤ racks ≤ servers)"
            ),
            ConfigError::TraceSchema { found, supported } => write!(
                f,
                "trace schema version {found} is not readable by this build (supports {supported})"
            ),
            ConfigError::TraceFormat { what } => write!(f, "malformed trace: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<FaultError> for ConfigError {
    fn from(e: FaultError) -> Self {
        ConfigError::Fault(e)
    }
}

impl From<ProfilerConfigError> for ConfigError {
    fn from(e: ProfilerConfigError) -> Self {
        ConfigError::Profiler(e)
    }
}

impl From<netsim::ConfigError> for ConfigError {
    fn from(e: netsim::ConfigError) -> Self {
        ConfigError::Retry(e)
    }
}

/// Which power-management scheme runs the cluster (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No power management at all (reference / vulnerability studies).
    None,
    /// DVFS-only uniform capping.
    Capping,
    /// UPS-first peak shaving, DVFS when the battery empties.
    Shaving,
    /// Power-denominated token bucket at the NLB.
    Token,
    /// The paper's proposal: PDF + RPM.
    AntiDope,
    /// Ablation: PDF isolation without any power control.
    PdfOnly,
    /// Ablation: RPM/DPM control without PDF isolation.
    RpmOnly,
}

impl SchemeKind {
    /// The four evaluated schemes, Table 2 order.
    pub const EVALUATED: [SchemeKind; 4] = [
        SchemeKind::Capping,
        SchemeKind::Shaving,
        SchemeKind::Token,
        SchemeKind::AntiDope,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::None => "None",
            SchemeKind::Capping => "Capping",
            SchemeKind::Shaving => "Shaving",
            SchemeKind::Token => "Token",
            SchemeKind::AntiDope => "Anti-DOPE",
            SchemeKind::PdfOnly => "PDF-only",
            SchemeKind::RpmOnly => "RPM-only",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunables of the staged control plane ([`crate::control`]): watchdog
/// engagement/recovery, telemetry staleness, and the actuator retry
/// budget. Defaults equal the previously hard-coded deployment values,
/// so a default config is behavior-identical to the pre-config build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPlaneConfig {
    /// Telemetry coverage (fraction of alive nodes with a fresh sensor
    /// reading) below which the watchdog distrusts the scheme's plan
    /// and applies the uniform safe cap. Must lie in `[0, 1]`.
    pub watchdog_coverage_floor: f64,
    /// Consecutive healthy slots before the watchdog disengages
    /// (recovery hysteresis). Must be at least 1.
    pub watchdog_recovery_slots: u32,
    /// Control slots a held last-good telemetry sample stays usable
    /// before the node is charged its nameplate. Must be at least 1.
    pub telemetry_staleness_slots: u64,
    /// Read-back retries before an actuation is abandoned. Must be at
    /// least 1.
    pub actuator_max_retries: u8,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            watchdog_coverage_floor: 0.5,
            watchdog_recovery_slots: 3,
            telemetry_staleness_slots: 5,
            actuator_max_retries: 3,
        }
    }
}

impl ControlPlaneConfig {
    /// Validate parameter ranges.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.watchdog_coverage_floor) {
            return Err(ConfigError::ControlPlane {
                what: "watchdog_coverage_floor",
                value: self.watchdog_coverage_floor,
            });
        }
        if self.watchdog_recovery_slots < 1 {
            return Err(ConfigError::ZeroCount {
                what: "watchdog_recovery_slots",
            });
        }
        if self.telemetry_staleness_slots < 1 {
            return Err(ConfigError::ZeroCount {
                what: "telemetry_staleness_slots",
            });
        }
        if self.actuator_max_retries < 1 {
            return Err(ConfigError::ZeroCount {
                what: "actuator_max_retries",
            });
        }
        Ok(())
    }
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of compute nodes.
    pub servers: usize,
    /// Cores per node.
    pub cores_per_server: usize,
    /// Accept-queue bound per node (requests in flight).
    pub max_inflight: usize,
    /// Nodes reserved for the suspect pool under Anti-DOPE.
    pub suspect_pool_size: usize,
    /// Power provisioning level.
    pub budget: BudgetLevel,
    /// Battery sustain time at full cluster nameplate (paper: 2 min).
    pub battery_sustain: SimDuration,
    /// Power-management control slot (paper: per time-slot, 1 s).
    pub control_slot: SimDuration,
    /// DVFS transition latency.
    pub dvfs_latency: SimDuration,
    /// Enable the perimeter firewall.
    pub firewall: bool,
    /// Firewall per-source threshold, requests/s.
    pub firewall_threshold_rps: f64,
    /// Firewall detection lag.
    pub firewall_lag: SimDuration,
    /// Model the cluster circuit breaker (sustained overload → outage).
    pub breaker: bool,
    /// Breaker rating as a multiple of the supplied budget.
    pub breaker_rating_factor: f64,
    /// Sustained-overload time before the breaker opens.
    pub breaker_trip_delay: SimDuration,
    /// Model node thermals (PROCHOT clamping + critical trip).
    pub thermal: bool,
    /// Fault-injection plan. `None` (the default) disables the fault
    /// layer entirely and the simulation is byte-identical to a build
    /// without it.
    pub faults: Option<FaultConfig>,
    /// Online power-attribution profiler. `None` (the default) keeps
    /// Anti-DOPE on the offline-profiled suspect list; `Some` switches
    /// its NLB policy to adaptive forwarding driven by runtime
    /// attribution (see the `profiler` crate).
    pub profiler: Option<ProfilerConfig>,
    /// End-to-end request resilience: NLB-side timeout + bounded retry
    /// with exponential backoff, and per-rack circuit breakers. `None`
    /// (the default) keeps today's oracle failure handling — a crashed
    /// node is instantly taken out of rotation and its in-flight
    /// requests are final drops. `Some` switches to learned failure
    /// handling (the NLB only discovers a dead rack through failed
    /// dispatches).
    pub retry: Option<RetryConfig>,
    /// Staged admission pipeline in front of the NLB (CAPoW-style
    /// cost-to-serve pricing, firewall ban-duration override). `None`
    /// (the default) keeps the bare firewall perimeter and is
    /// byte-identical to configs written before the field existed.
    pub admission: Option<AdmissionConfig>,
    /// Hierarchical power topology (racks → PDUs → rows → facility)
    /// with per-level oversubscribed budgets, breakers, and the
    /// top-down [`crate::topology::HierarchicalBudget`] allocator.
    /// `None` (the default) keeps the flat single-feed model and is
    /// byte-identical to configs written before the field existed.
    pub topology: Option<crate::topology::TopologyConfig>,
    /// Staged-control-plane tunables (watchdog, telemetry staleness,
    /// actuator retries). The default reproduces the previously
    /// hard-coded values.
    pub control: ControlPlaneConfig,
    /// Dataplane shard count. The engine partitions the nodes across
    /// `N` shards that advance a control slot independently and
    /// synchronize at slot boundaries (see [`crate::shard`]); `1` (the
    /// default) is one shard. Same-seed reports are byte-identical at
    /// every shard count.
    pub shards: usize,
}

/// Declarative admission-pipeline configuration: which stages run in
/// front of the NLB beyond the base firewall toggle, and perimeter
/// overrides the firewall's `FirewallConfig` defaults don't expose
/// through the flat `ClusterConfig` knobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdmissionConfig {
    /// CAPoW-style cost-to-serve pricing stage after the firewall.
    pub cost_to_serve: Option<netsim::CostToServeConfig>,
    /// Finite firewall ban duration in seconds (default: bans are
    /// permanent for the run). Finite bans are what an ON/OFF burst
    /// envelope exploits: sleep past the ban, burst again.
    pub firewall_ban_s: Option<f64>,
}

impl AdmissionConfig {
    /// Validate stage parameters with the same typed errors their
    /// runtime constructors raise.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if let Some(c) = &self.cost_to_serve {
            netsim::CostToServe::try_new(simcore::SimTime::ZERO, *c)
                .map_err(ConfigError::Admission)?;
        }
        if let Some(ban) = self.firewall_ban_s {
            if ban <= 0.0 || !ban.is_finite() {
                return Err(ConfigError::Admission(netsim::ConfigError::Parameter {
                    component: "AdmissionConfig",
                    field: "firewall_ban_s",
                    value: ban,
                }));
            }
        }
        Ok(())
    }
}

impl ClusterConfig {
    /// The paper's scaled-down testbed: 4 × 100 W nodes (we give each 4
    /// cores), 2-minute battery, 1 s control slots, deflate-style
    /// firewall at 150 req/s with a 5 s lag.
    pub fn paper_rack(budget: BudgetLevel) -> Self {
        ClusterConfig {
            servers: 4,
            cores_per_server: 4,
            max_inflight: 32,
            suspect_pool_size: 1,
            budget,
            battery_sustain: SimDuration::from_mins(2),
            control_slot: SimDuration::from_secs(1),
            dvfs_latency: SimDuration::from_millis(10),
            firewall: true,
            firewall_threshold_rps: 150.0,
            firewall_lag: SimDuration::from_secs(5),
            breaker: false,
            breaker_rating_factor: 1.10,
            breaker_trip_delay: SimDuration::from_secs(30),
            thermal: false,
            faults: None,
            profiler: None,
            retry: None,
            admission: None,
            topology: None,
            control: ControlPlaneConfig::default(),
            shards: 1,
        }
    }

    /// A larger cluster for scaling studies (16 nodes, 2 suspect).
    pub fn scaled(budget: BudgetLevel) -> Self {
        ClusterConfig {
            servers: 16,
            cores_per_server: 4,
            max_inflight: 32,
            suspect_pool_size: 2,
            ..Self::paper_rack(budget)
        }
    }

    /// Aggregate nameplate of the cluster in watts.
    pub(crate) fn aggregate_nameplate_w(&self) -> f64 {
        self.servers as f64 * powercap::ServerPowerModel::paper_default().nameplate_w
    }

    /// The wattage budget at this config's provisioning level.
    pub fn supply_w(&self) -> f64 {
        self.aggregate_nameplate_w() * self.budget.fraction()
    }

    /// Validate internal consistency (called by the simulator before any
    /// component is built).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.servers < 2 {
            return Err(ConfigError::TooFewServers {
                servers: self.servers,
            });
        }
        if self.cores_per_server < 1 {
            return Err(ConfigError::ZeroCount {
                what: "cores_per_server",
            });
        }
        if self.max_inflight < 1 {
            return Err(ConfigError::ZeroCount {
                what: "max_inflight",
            });
        }
        if self.suspect_pool_size < 1 || self.suspect_pool_size >= self.servers {
            return Err(ConfigError::SuspectPool {
                pool: self.suspect_pool_size,
                servers: self.servers,
            });
        }
        if self.control_slot.is_zero() {
            return Err(ConfigError::ZeroDuration {
                what: "control_slot",
            });
        }
        if self.battery_sustain.is_zero() {
            return Err(ConfigError::ZeroDuration {
                what: "battery_sustain",
            });
        }
        if self.shards < 1 || self.shards > self.servers {
            return Err(ConfigError::Shards {
                shards: self.shards,
                servers: self.servers,
            });
        }
        // One breaker observation per slot equals any number of them
        // only for a non-zero trip delay. A rating below the budget is a
        // derated feed and stays valid.
        if self.breaker_trip_delay.is_zero() {
            return Err(ConfigError::ZeroDuration {
                what: "breaker_trip_delay",
            });
        }
        if !(self.breaker_rating_factor.is_finite() && self.breaker_rating_factor > 0.0) {
            return Err(ConfigError::ControlPlane {
                what: "breaker_rating_factor",
                value: self.breaker_rating_factor,
            });
        }
        if !(self.firewall_threshold_rps.is_finite() && self.firewall_threshold_rps > 0.0) {
            return Err(ConfigError::Admission(netsim::ConfigError::Parameter {
                component: "Firewall",
                field: "threshold_rps",
                value: self.firewall_threshold_rps,
            }));
        }
        self.control.validate()?;
        if let Some(f) = &self.faults {
            f.validate(self.servers)?;
        }
        if let Some(p) = &self.profiler {
            p.validate()?;
        }
        if let Some(r) = &self.retry {
            r.validate()?;
        }
        if let Some(a) = &self.admission {
            a.validate()?;
        }
        if let Some(t) = &self.topology {
            t.validate(self.servers)?;
        }
        Ok(())
    }

    /// Build the staged admission pipeline this config describes: the
    /// flat firewall knobs fill the front slot (with the admission
    /// config's ban-duration override applied), and the configured
    /// cost-to-serve stage follows. The engine constructs its perimeter through this
    /// one method so a given config admits identically everywhere.
    pub fn build_admission(&self, start: simcore::SimTime) -> netsim::AdmissionPipeline {
        let mut pipeline = netsim::AdmissionPipeline::new();
        if self.firewall {
            let ban_duration = self
                .admission
                .as_ref()
                .and_then(|a| a.firewall_ban_s)
                .map(SimDuration::from_secs_f64);
            pipeline = pipeline.with_firewall(netsim::Firewall::new(
                start,
                netsim::FirewallConfig {
                    threshold_rps: self.firewall_threshold_rps,
                    detection_lag: self.firewall_lag,
                    ban_duration,
                    ..netsim::FirewallConfig::default()
                },
            ));
        }
        if let Some(cost) = self.admission.as_ref().and_then(|a| a.cost_to_serve) {
            let stage = netsim::CostToServe::try_new(start, cost)
                .expect("admission config checked by ClusterConfig::validate");
            pipeline = pipeline.with_cost(stage);
        }
        pipeline
    }
}

/// A complete experiment: cluster + scheme + duration + seed.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Simulated duration (paper windows: 600 s).
    pub duration: SimDuration,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Label used in reports.
    pub label: String,
}

impl ExperimentConfig {
    /// The paper's standard 10-minute observation window.
    pub fn paper_window(cluster: ClusterConfig, scheme: SchemeKind, seed: u64) -> Self {
        let label = format!("{}@{}", scheme.name(), cluster.budget.name());
        ExperimentConfig {
            cluster,
            scheme,
            duration: SimDuration::from_secs(600),
            seed,
            label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rack_matches_testbed() {
        let c = ClusterConfig::paper_rack(BudgetLevel::Medium);
        assert_eq!(c.servers, 4);
        assert_eq!(c.aggregate_nameplate_w(), 400.0);
        assert!((c.supply_w() - 340.0).abs() < 1e-9);
        assert_eq!(c.firewall_threshold_rps, 150.0);
        assert!(c.faults.is_none());
        c.validate().unwrap();
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SchemeKind::AntiDope.name(), "Anti-DOPE");
        assert_eq!(SchemeKind::EVALUATED.len(), 4);
        assert_eq!(format!("{}", SchemeKind::Capping), "Capping");
    }

    #[test]
    fn validate_rejects_all_suspect() {
        let mut c = ClusterConfig::paper_rack(BudgetLevel::Normal);
        c.suspect_pool_size = 4;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::SuspectPool {
                pool: 4,
                servers: 4
            }
        );
    }

    #[test]
    fn validate_rejects_bad_fault_plan() {
        let mut c = ClusterConfig::paper_rack(BudgetLevel::Normal);
        c.faults = Some(FaultConfig {
            sensor_dropout_p: 1.5,
            ..FaultConfig::default()
        });
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::Fault(FaultError::Probability { .. })
        ));
        c.faults = Some(FaultConfig::default());
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_profiler_config() {
        let mut c = ClusterConfig::paper_rack(BudgetLevel::Normal);
        c.profiler = Some(ProfilerConfig {
            threshold: 2.0,
            ..ProfilerConfig::default()
        });
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::Profiler(ProfilerConfigError::Threshold { .. })
        ));
        c.profiler = Some(ProfilerConfig::default());
        c.validate().unwrap();
    }

    #[test]
    fn control_plane_defaults_match_legacy_constants() {
        let c = ControlPlaneConfig::default();
        assert_eq!(c.watchdog_coverage_floor, 0.5);
        assert_eq!(c.watchdog_recovery_slots, 3);
        assert_eq!(c.telemetry_staleness_slots, 5);
        assert_eq!(c.actuator_max_retries, 3);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_control_plane() {
        let mut c = ClusterConfig::paper_rack(BudgetLevel::Normal);
        c.control.watchdog_coverage_floor = 1.5;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::ControlPlane {
                what: "watchdog_coverage_floor",
                value: 1.5
            }
        );
        c.control.watchdog_coverage_floor = 0.5;
        c.control.watchdog_recovery_slots = 0;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::ZeroCount {
                what: "watchdog_recovery_slots"
            }
        );
        c.control.watchdog_recovery_slots = 3;
        c.control.telemetry_staleness_slots = 0;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::ZeroCount {
                what: "telemetry_staleness_slots"
            }
        );
        c.control.telemetry_staleness_slots = 5;
        c.control.actuator_max_retries = 0;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::ZeroCount {
                what: "actuator_max_retries"
            }
        );
    }

    #[test]
    fn validate_topology_nesting() {
        use crate::topology::TopologyConfig;
        let mut c = ClusterConfig::scaled(BudgetLevel::Medium);
        assert!(c.topology.is_none(), "default is the flat model");
        c.topology = Some(TopologyConfig::with_racks(4, 2));
        c.validate().unwrap();
        // More racks than servers.
        c.topology = Some(TopologyConfig::with_racks(17, 1));
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::Topology { what: "racks", count: 17, max: 16 }
        ));
        // More PDUs than racks.
        c.topology = Some(TopologyConfig::with_racks(2, 3));
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::Topology { what: "pdus", count: 3, max: 2 }
        ));
        c.topology = Some(TopologyConfig::default());
        c.validate().unwrap();
    }

    #[test]
    fn experiment_label() {
        let e = ExperimentConfig::paper_window(
            ClusterConfig::paper_rack(BudgetLevel::Low),
            SchemeKind::Token,
            1,
        );
        assert_eq!(e.label, "Token@Low-PB");
        assert_eq!(e.duration.as_secs(), 600);
    }

    #[test]
    fn scaled_cluster() {
        let c = ClusterConfig::scaled(BudgetLevel::High);
        assert_eq!(c.servers, 16);
        assert_eq!(c.suspect_pool_size, 2);
        c.validate().unwrap();
    }

    #[test]
    fn validate_shard_bounds() {
        let mut c = ClusterConfig::scaled(BudgetLevel::Medium);
        assert_eq!(c.shards, 1, "default is the single-threaded engine");
        for shards in [1, 2, 4, 16] {
            c.shards = shards;
            c.validate().unwrap();
        }
        c.shards = 0;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::Shards { shards: 0, servers: 16 }
        ));
        c.shards = 17;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::Shards { shards: 17, servers: 16 }
        ));
    }

    #[test]
    fn validate_rejects_bad_firewall_threshold() {
        let mut c = ClusterConfig::paper_rack(BudgetLevel::Medium);
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            c.firewall_threshold_rps = bad;
            let err = c.validate().expect_err("threshold must be finite and positive");
            assert!(
                matches!(
                    err,
                    ConfigError::Admission(netsim::ConfigError::Parameter {
                        field: "threshold_rps",
                        ..
                    })
                ),
                "{bad}: {err:?}"
            );
        }
        c.firewall_threshold_rps = 0.5;
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_breaker() {
        let mut c = ClusterConfig::paper_rack(BudgetLevel::Normal);
        c.breaker_trip_delay = SimDuration::ZERO;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::ZeroDuration {
                what: "breaker_trip_delay"
            }
        );
        c.breaker_trip_delay = SimDuration::from_secs(30);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            c.breaker_rating_factor = bad;
            assert!(
                matches!(
                    c.validate().unwrap_err(),
                    ConfigError::ControlPlane {
                        what: "breaker_rating_factor",
                        ..
                    }
                ),
                "factor {bad}"
            );
        }
        // A derated feed (rating below the budget) is a valid rig.
        c.breaker_rating_factor = 0.8;
        c.validate().unwrap();
    }

    #[test]
    fn validate_accepts_sharded_faults() {
        // Per-shard fault RNG streams made the old `shards > 1 xor
        // faults` restriction obsolete: the combination is first-class.
        let mut c = ClusterConfig::scaled(BudgetLevel::Medium);
        c.shards = 4;
        c.faults = Some(FaultConfig::default());
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_retry_policy() {
        let mut c = ClusterConfig::scaled(BudgetLevel::Medium);
        c.retry = Some(RetryConfig {
            max_attempts: 0,
            ..RetryConfig::default()
        });
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Retry(_)));
        let msg = format!("{err}");
        assert!(
            msg.contains("retry policy") && msg.contains("max_attempts"),
            "message must name the knob: {msg}"
        );
        c.retry = Some(RetryConfig {
            backoff_base: SimDuration::from_secs(3),
            backoff_cap: SimDuration::from_secs(1),
            ..RetryConfig::default()
        });
        assert!(format!("{}", c.validate().unwrap_err()).contains("backoff_cap"));
        // A valid policy passes, as does a config with no policy.
        c.retry = Some(RetryConfig::default());
        c.validate().unwrap();
        c.retry = None;
        c.validate().unwrap();
    }
}
