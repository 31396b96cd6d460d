//! Umbrella crate for the Anti-DOPE reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can `use antidope_repro::...`. See the individual
//! crates for documentation:
//!
//! * [`simcore`] — simulated clock, seeded RNG streams, fault plans
//! * [`dcmetrics`] — histograms, CDFs, energy/SLA accounting
//! * [`powercap`] — P-states, DVFS, RAPL, batteries, budgets
//! * [`netsim`] — requests, queues, token buckets, firewall, NLB
//! * [`workloads`] — EC service kernels, traces, attackers, DOPE
//! * [`profiler`] — online power attribution and adaptive suspect lists
//! * [`antidope`] — PDF + RPM/DPM, baselines, the cluster engine
//! * [`liveplane`] — live control-plane host: trace replay, mock sysfs,
//!   wall-clock daemon, sim/live parity

pub use antidope;
pub use dcmetrics;
pub use liveplane;
pub use netsim;
pub use powercap;
pub use profiler;
pub use simcore;
pub use workloads;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use antidope::{
        run_experiment, run_matrix, ClusterConfig, ExperimentConfig, FaultReport,
        RetryReport, SchemeKind, ShardedClusterSim, SimReport,
    };
    pub use antidope::{record_experiment, ControlTrace};
    pub use antidope::{HierarchicalBudget, PowerTopology, TopologyConfig, TopologyReport};
    pub use liveplane::{LiveDaemon, LiveSummary, ReplayClock, ReplayTelemetry};
    pub use netsim::RetryConfig;
    pub use powercap::BudgetLevel;
    pub use profiler::{AdaptiveSuspectList, PowerProfiler, ProfilerConfig, ProfilerReport};
    pub use simcore::faults::{CrashEvent, FaultConfig};
    pub use simcore::{SimDuration, SimTime};
    pub use workloads::{
        alibaba::{AlibabaTraceConfig, UtilizationTrace},
        attacker::AttackTool,
        dope::{DopeAttacker, DopeConfig},
        normal::NormalUsers,
        scenario::{ScenarioBuilder, SeedPin},
        service::{ServiceKind, ServiceMix},
        source::TrafficSource,
        vector::{AttackVector, AttackVectorSpec, SourcePlan, TargetPlan},
    };
}
