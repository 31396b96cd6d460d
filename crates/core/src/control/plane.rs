//! The control plane lifted out of the simulator.
//!
//! Everything in [`ControlPipeline`] consumes typed values — a
//! [`Plant`] in, [`Action`]s out — and nothing in the stages is
//! intrinsically tied to simulated time. This module makes that
//! portability structural:
//!
//! * [`ControlClock`] — where slot ticks come from (the DES engine's
//!   slot boundaries, a recorded trace's timestamps, or a wall clock);
//! * [`TelemetryTransport`] / [`ActuationTransport`] — where a slot's
//!   [`PlaneSample`] is read from and where the decided [`Action`] plan
//!   is written to (the simulator's node array, a JSONL trace, or
//!   RAPL/ACPI-shaped files);
//! * the **trace schema** ([`TraceHeader`] / [`SlotRecord`] /
//!   [`TraceFooter`], versioned by [`TRACE_SCHEMA_VERSION`]) — a
//!   recorded stream of per-slot pipeline inputs *and* the decisions the
//!   sim took on them, so any scenario can be replayed through the live
//!   pipeline and compared byte-for-byte;
//! * [`TraceRecorder`] — the tap the DES engine drives when recording;
//! * [`SamplePlant`] — the [`Plant`] that feeds a [`PlaneSample`] to
//!   [`ControlPipeline::run_slot`], the one slot function the engine
//!   runs too, and collects its read-back retries.
//!
//! The `liveplane` crate builds the clocks, the trace-replay backend,
//! the mock-sysfs backend, and the daemon loop on top of these types;
//! the sim/live parity harness proves that a fixed-seed DES run and a
//! replay of its recorded telemetry emit byte-identical decision
//! sequences and accounting totals.

use super::{ClusterView, ControlPipeline, Plant, UrlMix};
use crate::config::{ClusterConfig, ConfigError, ExperimentConfig};
use crate::node::ComputeNode;
use crate::scheme::{Action, NodeSnapshot};
use crate::jsonl::Json;
use netsim::request::UrlId;
use powercap::monitor::PowerCondition;
use powercap::pstate::{PState, PStateTable};
use profiler::MixTracker;
use simcore::{SimDuration, SimTime};
use std::fmt;
use std::io::{BufRead, Write};
use std::path::Path;

/// Version stamped into every trace header. Bump on any breaking change
/// to the record types below; [`ControlTrace::from_jsonl_str`] rejects
/// mismatches with a typed [`ConfigError::TraceSchema`].
pub const TRACE_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Clock and transport abstractions
// ---------------------------------------------------------------------

/// One control-slot tick handed out by a [`ControlClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTick {
    /// Monotone slot counter, starting at 0.
    pub slot: u64,
    /// The slot's timestamp on the control plane's time axis.
    pub now: SimTime,
    /// True when the tick fired past its deadline (a wall clock that
    /// overslept). The daemon treats the slot's telemetry as suspect
    /// and lets the staleness machinery bridge it.
    pub missed_deadline: bool,
}

/// Slot cadence + deadline source.
///
/// The DES engine is an implicit implementation (its slot boundaries
/// fall exactly every `control_slot` of simulated time and can never
/// miss a deadline); the `liveplane` crate provides a trace clock and a
/// wall clock.
pub trait ControlClock {
    /// Block until the next slot is due and return its tick, or `None`
    /// when the clock's schedule is exhausted (end of trace, slot
    /// budget reached).
    fn next_slot(&mut self) -> Option<SlotTick>;
}

/// Why a transport could not produce or accept a slot's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The telemetry source has not advanced past what was already
    /// read; the slot has no fresh data (a slow agent, a missed
    /// deadline). The daemon substitutes a fully-stale sample and lets
    /// [`crate::health::TelemetryHealth`] bridge the gap.
    Stale {
        /// Slot counter the source is still showing.
        have: u64,
        /// Slot the control plane asked for.
        want: u64,
    },
    /// The source has no further slots at all (end of a trace).
    Exhausted,
    /// An I/O failure reading or writing the backing store.
    Io(String),
    /// The backing data was readable but not parseable.
    Malformed(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Stale { have, want } => {
                write!(f, "telemetry stale: source at slot {have}, control plane at {want}")
            }
            TransportError::Exhausted => write!(f, "telemetry source exhausted"),
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Malformed(e) => write!(f, "transport data malformed: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Reads one [`PlaneSample`] per slot from some telemetry source.
pub trait TelemetryTransport {
    /// Produce the sample for `tick`.
    fn sample(&mut self, tick: &SlotTick) -> Result<PlaneSample, TransportError>;
}

/// Applies one slot's decided commands to some actuation sink.
pub trait ActuationTransport {
    /// Write the slot's read-back retries and action plan.
    fn apply(&mut self, now: SimTime, decision: &DecisionRecord) -> Result<(), TransportError>;
}

// ---------------------------------------------------------------------
// The per-slot sample (pipeline input) and record types
// ---------------------------------------------------------------------

/// Which control-plane state a forgotten node resets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForgetKind {
    /// A crash: the filter's held sample, the actuator intent, and the
    /// learning mix are all gone (the node's next telemetry comes from
    /// fresh hardware).
    Full,
    /// A reboot completion, thermal trip, or outage drain: only the
    /// in-flight learning mix is gone.
    Learn,
}

/// A node-forget event carried in the slot it becomes visible to the
/// control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forget {
    /// Global node index.
    pub node: usize,
    /// How much state the event resets.
    pub kind: ForgetKind,
}

/// Per-node observation carried by a [`PlaneSample`] — everything the
/// Decide stage's [`NodeSnapshot`] needs, plus the optional learning
/// feed.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeObs {
    /// Busy-core fraction.
    pub utilization: f64,
    /// Resident-mix power intensity.
    pub intensity: f64,
    /// Resident-mix DVFS power sensitivity.
    pub gamma: f64,
    /// Resident-mix CPU-boundedness.
    pub beta: f64,
    /// Currently commanded P-state (raw ladder index).
    pub target: u8,
    /// Requests in flight.
    pub inflight: u32,
    /// Nominal-equivalent power for the attribution engine: the sensed
    /// reading with DVFS throttling inverted out by the hardware power
    /// model (the sensor side knows its own V/F state; the control
    /// plane does not need the hardware model to learn). `None` when
    /// the sensor produced nothing or learning is off.
    pub learn_power_w: Option<f64>,
    /// In-flight URL mix `(url, count)` feeding attribution; empty when
    /// learning is off.
    pub mix: Vec<(u16, u32)>,
}

/// Battery state as the control plane observed it this slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryObs {
    /// State of charge `[0, 1]`.
    pub soc: f64,
    /// Stored energy, joules.
    pub stored_j: f64,
    /// Watts currently granted for discharge.
    pub discharge_w: f64,
    /// Watts currently drawn for charging.
    pub charge_w: f64,
}

/// One slot's complete pipeline input, as read through a
/// [`TelemetryTransport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneSample {
    /// Ground-truth aggregate load power, watts (what an exact meter
    /// would read; the monitor's input when no fault layer distorts
    /// sensing).
    pub true_power_w: f64,
    /// Per-node sensed readings (`None` = sensor produced nothing),
    /// present only when sensors are individually read (hardened mode).
    pub readings: Option<Vec<Option<f64>>>,
    /// Per-node observations at the decision point.
    pub nodes: Vec<NodeObs>,
    /// Commanded-P-state read-back *before* this slot's retry sweep,
    /// when read-back verification is active. Kept separate from
    /// [`NodeObs::target`] because the simulator's in-slot retries can
    /// change the commanded state between the sweep and the decision.
    pub readback: Option<Vec<u8>>,
    /// Dead-node mask (crashed or thermally tripped).
    pub node_dead: Vec<bool>,
    /// Battery observation.
    pub battery: BatteryObs,
    /// Cumulative load-energy counter, joules — RAPL-style: transports
    /// report the counter, accountants difference it.
    pub energy_j: f64,
    /// Node-forget events that became visible since the previous slot.
    pub forgets: Vec<Forget>,
    /// Per-rack sensed power, watts, when a hierarchical topology is
    /// configured (global rack order); empty otherwise. Traces recorded
    /// before the topology subsystem parse with this empty.
    pub rack_power_w: Vec<f64>,
}

impl PlaneSample {
    /// Check the sample against the cluster it claims to describe:
    /// every per-node vector has one entry per node, every forget names
    /// a node that exists, `rack_power_w` has one entry per rack of the
    /// configured topology (none without one), and every commanded or
    /// read-back P-state is on the paper's ladder.
    pub fn check_shape(&self, cluster: &ClusterConfig) -> Result<(), String> {
        let servers = cluster.servers;
        let racks = cluster.topology.as_ref().map_or(0, |t| t.racks);
        let lens = [
            ("nodes", Some(self.nodes.len()), servers),
            ("node_dead", Some(self.node_dead.len()), servers),
            ("readings", self.readings.as_ref().map(Vec::len), servers),
            ("readback", self.readback.as_ref().map(Vec::len), servers),
            ("rack_power_w", Some(self.rack_power_w.len()), racks),
        ];
        for (what, len, want) in lens {
            if let Some(len) = len.filter(|&l| l != want) {
                return Err(format!("{what} has {len} entries, want {want}"));
            }
        }
        if let Some(f) = self.forgets.iter().find(|f| f.node >= servers) {
            return Err(format!("forget names node {} of {servers} servers", f.node));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            check_pstate(format_args!("node {i} target"), n.target)?;
        }
        for (i, &p) in self.readback.iter().flatten().enumerate() {
            check_pstate(format_args!("node {i} readback"), p)?;
        }
        Ok(())
    }
}

/// `p` must be a state of the paper's P-state ladder, which every node
/// runs; `what` names the field in the error.
fn check_pstate(what: fmt::Arguments<'_>, p: u8) -> Result<(), String> {
    let states = PStateTable::PAPER_STATES;
    if usize::from(p) < states {
        Ok(())
    } else {
        Err(format!("{what} P-state {p} is past the {states}-state ladder"))
    }
}

/// The trusted view the Filter stage produced for one slot, in
/// serializable form (the parity harness byte-compares these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewRecord {
    /// Monitor verdict.
    pub condition: ConditionRecord,
    /// Power estimate the monitor judged, watts.
    pub observed_w: f64,
    /// Fresh-sensor coverage.
    pub coverage: f64,
    /// Whether the coverage watchdog forced the uniform safe cap.
    pub watchdog_engaged: bool,
}

/// Serializable mirror of [`PowerCondition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionRecord {
    /// Comfortably under budget.
    Nominal,
    /// Within the guard band.
    NearBudget,
    /// Over budget, not yet sustained.
    Transient,
    /// Sustained violation.
    Emergency,
}

impl From<PowerCondition> for ConditionRecord {
    fn from(c: PowerCondition) -> Self {
        match c {
            PowerCondition::Nominal => ConditionRecord::Nominal,
            PowerCondition::NearBudget => ConditionRecord::NearBudget,
            PowerCondition::Transient => ConditionRecord::Transient,
            PowerCondition::Emergency => ConditionRecord::Emergency,
        }
    }
}

impl From<&ClusterView> for ViewRecord {
    fn from(v: &ClusterView) -> Self {
        ViewRecord {
            condition: v.condition.into(),
            observed_w: v.observed_w,
            coverage: v.coverage,
            watchdog_engaged: v.watchdog_engaged,
        }
    }
}

/// Serializable mirror of [`Action`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActionRecord {
    /// Command a node to a P-state.
    SetPState {
        /// Node index.
        node: usize,
        /// Target ladder index.
        target: u8,
    },
    /// Set (or clear) a RAPL watt limit.
    SetPowerLimit {
        /// Node index.
        node: usize,
        /// Watt limit; `None` removes the cap.
        limit_w: Option<f64>,
    },
    /// Discharge the battery at the given watts (0 stops).
    BatteryDischarge {
        /// Requested watts.
        watts: f64,
    },
    /// Charge the battery from headroom (0 stops).
    BatteryCharge {
        /// Offered watts.
        watts: f64,
    },
}

impl From<&Action> for ActionRecord {
    fn from(a: &Action) -> Self {
        match *a {
            Action::SetPState { node, target } => {
                ActionRecord::SetPState { node, target: target.0 }
            }
            Action::SetPowerLimit { node, limit_w } => {
                ActionRecord::SetPowerLimit { node, limit_w }
            }
            Action::BatteryDischarge { watts } => ActionRecord::BatteryDischarge { watts },
            Action::BatteryCharge { watts } => ActionRecord::BatteryCharge { watts },
        }
    }
}

impl ActionRecord {
    /// Back to the in-memory action type.
    pub fn to_action(self) -> Action {
        match self {
            ActionRecord::SetPState { node, target } => {
                Action::SetPState { node, target: PState(target) }
            }
            ActionRecord::SetPowerLimit { node, limit_w } => {
                Action::SetPowerLimit { node, limit_w }
            }
            ActionRecord::BatteryDischarge { watts } => Action::BatteryDischarge { watts },
            ActionRecord::BatteryCharge { watts } => Action::BatteryCharge { watts },
        }
    }
}

/// Everything the control plane commanded in one slot: the read-back
/// retry re-issues (before Decide) plus the decided action plan (after
/// the rack guard, exactly as enacted).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionRecord {
    /// Re-issued `(node, pstate)` commands from the verification sweep.
    pub retries: Vec<(usize, u8)>,
    /// The slot's action plan.
    pub actions: Vec<ActionRecord>,
}

/// One fully-recorded control slot: input, trusted view, decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRecord {
    /// Record index (outage slots are not recorded, so this is dense in
    /// records, not in slots).
    pub slot: u64,
    /// Slot timestamp.
    pub now: SimTime,
    /// Pipeline input.
    pub sample: PlaneSample,
    /// Filter-stage output (for parity comparison).
    pub view: ViewRecord,
    /// Sweep + Decide output (for parity comparison).
    pub decisions: DecisionRecord,
}

impl SlotRecord {
    /// Check the record against the header's cluster: the sample's
    /// shape ([`PlaneSample::check_shape`]), and every retry and
    /// per-node action names a node that exists and, where it commands
    /// a P-state, one on the ladder.
    fn check_shape(&self, cluster: &ClusterConfig) -> Result<(), String> {
        let servers = cluster.servers;
        self.sample.check_shape(cluster).map_err(|e| format!("slot {}: {e}", self.slot))?;
        let commands = self.decisions.retries.iter().map(|&(node, p)| (node, Some(p))).chain(
            self.decisions.actions.iter().filter_map(|a| match *a {
                ActionRecord::SetPState { node, target } => Some((node, Some(target))),
                ActionRecord::SetPowerLimit { node, .. } => Some((node, None)),
                ActionRecord::BatteryDischarge { .. } | ActionRecord::BatteryCharge { .. } => None,
            }),
        );
        for (node, pstate) in commands {
            if node >= servers {
                return Err(format!(
                    "slot {}: node {node} does not exist in {servers} servers",
                    self.slot
                ));
            }
            if let Some(p) = pstate {
                check_pstate(format_args!("slot {}: node {node} command", self.slot), p)?;
            }
        }
        Ok(())
    }
}

/// First line of a trace: schema version + the full experiment
/// configuration, enough to reconstruct the identical pipeline.
#[derive(Debug, Clone)]
pub struct TraceHeader {
    /// Must equal [`TRACE_SCHEMA_VERSION`] to be readable.
    pub schema: u32,
    /// The experiment the trace was recorded from.
    pub experiment: ExperimentConfig,
}

/// Last line of a trace: the recording side's accounting summary. A
/// replay recomputes the same quantities independently and the parity
/// harness requires bit equality.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceFooter {
    /// Control slots recorded.
    pub slots: u64,
    /// Actions across all slots.
    pub actions: u64,
    /// Read-back retries across all slots.
    pub retries: u64,
    /// Slots the monitor judged `Emergency`.
    pub emergency_slots: u64,
    /// Slots with the coverage watchdog engaged.
    pub watchdog_slots: u64,
    /// Final cumulative load-energy counter, joules.
    pub energy_j: f64,
    /// Peak true aggregate power seen at any slot, watts.
    pub peak_true_w: f64,
}

/// A complete recorded control-plane trace.
#[derive(Debug, Clone)]
pub struct ControlTrace {
    /// Schema + experiment.
    pub header: TraceHeader,
    /// The recorded slots, in time order.
    pub slots: Vec<SlotRecord>,
    /// The recording side's accounting summary.
    pub footer: TraceFooter,
}

impl ControlTrace {
    /// Serialize to JSONL: one header line, one line per slot, one
    /// footer line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, tag: &str, body: Json| {
            out.push_str(&Json::Obj(vec![(tag.to_string(), body)]).render());
            out.push('\n');
        };
        push(&mut out, "Header", codec::header_to_json(&self.header));
        for s in &self.slots {
            push(&mut out, "Slot", codec::slot_to_json(s));
        }
        push(&mut out, "Footer", codec::footer_to_json(&self.footer));
        out
    }

    /// Write the JSONL form to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.to_jsonl().as_bytes())
    }

    /// Parse a JSONL trace, rejecting unknown schema versions and
    /// malformed streams with typed errors instead of panicking.
    pub fn from_jsonl_str(s: &str) -> Result<Self, ConfigError> {
        Self::from_lines(s.lines().map(Ok))
    }

    /// Read and parse a JSONL trace file.
    pub fn read_jsonl(path: &Path) -> Result<Self, ConfigError> {
        let f = std::fs::File::open(path)
            .map_err(|e| ConfigError::TraceFormat { what: format!("open {}: {e}", path.display()) })?;
        Self::from_lines(std::io::BufReader::new(f).lines())
    }

    fn from_lines<L: AsRef<str>>(
        lines: impl Iterator<Item = std::io::Result<L>>,
    ) -> Result<Self, ConfigError> {
        let mut header: Option<TraceHeader> = None;
        let mut slots = Vec::new();
        let mut footer: Option<TraceFooter> = None;
        for (i, line) in lines.enumerate() {
            let line = line
                .map_err(|e| ConfigError::TraceFormat { what: format!("read line {}: {e}", i + 1) })?;
            let line = line.as_ref();
            if line.trim().is_empty() {
                continue;
            }
            let bad = |e: String| ConfigError::TraceFormat { what: format!("line {}: {e}", i + 1) };
            let value = Json::parse(line).map_err(bad)?;
            let [(tag, body)] = value.as_obj().map_err(bad)? else {
                return Err(bad("expected a single-key tagged object".to_string()));
            };
            match tag.as_str() {
                "Header" => {
                    // Version-check before decoding the body: an old or
                    // future schema must fail with the typed version
                    // error, not a field mismatch.
                    let schema = body
                        .get("schema")
                        .and_then(|v| v.as_u32())
                        .map_err(bad)?;
                    if schema != TRACE_SCHEMA_VERSION {
                        return Err(ConfigError::TraceSchema {
                            found: schema,
                            supported: TRACE_SCHEMA_VERSION,
                        });
                    }
                    let h = codec::header_from_json(body).map_err(bad)?;
                    if header.replace(h).is_some() {
                        return Err(bad("duplicate header".to_string()));
                    }
                }
                "Slot" => {
                    if header.is_none() {
                        return Err(bad("slot record before header".to_string()));
                    }
                    slots.push(codec::slot_from_json(body).map_err(bad)?);
                }
                "Footer" => {
                    let f = codec::footer_from_json(body).map_err(bad)?;
                    if footer.replace(f).is_some() {
                        return Err(bad("duplicate footer".to_string()));
                    }
                }
                other => return Err(bad(format!("unknown record tag {other:?}"))),
            }
        }
        let trace = ControlTrace {
            header: header
                .ok_or(ConfigError::TraceFormat { what: "missing header line".to_string() })?,
            slots,
            footer: footer
                .ok_or(ConfigError::TraceFormat { what: "missing footer line".to_string() })?,
        };
        trace.check_shape()?;
        Ok(trace)
    }

    /// Reject a decoded trace that a replay could not run: an invalid
    /// header config, or a slot that does not fit the header's cluster.
    fn check_shape(&self) -> Result<(), ConfigError> {
        let cluster = &self.header.experiment.cluster;
        cluster.validate()?;
        for slot in &self.slots {
            slot.check_shape(cluster).map_err(|what| ConfigError::TraceFormat { what })?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The recorder (the sim-side tap)
// ---------------------------------------------------------------------

/// Records every control slot of a DES run as [`SlotRecord`]s. Attach
/// one to either engine (`attach_recorder`) and take the finished
/// [`ControlTrace`] after the run; recording is read-only and leaves
/// the simulation byte-identical to an unrecorded run.
pub struct TraceRecorder {
    header: TraceHeader,
    slots: Vec<SlotRecord>,
    pending_forgets: Vec<Forget>,
}

impl TraceRecorder {
    /// Recorder for one experiment.
    pub fn new(exp: &ExperimentConfig) -> Self {
        TraceRecorder {
            header: TraceHeader { schema: TRACE_SCHEMA_VERSION, experiment: exp.clone() },
            slots: Vec::new(),
            pending_forgets: Vec::new(),
        }
    }

    /// Note a node-forget event; it is carried in the next recorded
    /// slot (the first one whose pipeline pass can observe it).
    pub fn note_forget(&mut self, node: usize, kind: ForgetKind) {
        self.pending_forgets.push(Forget { node, kind });
    }

    /// Capture one slot. Called by the engine between the slot function
    /// and Act: the observations the decision consumed, and the final
    /// (post-guard) plan.
    pub(crate) fn capture_slot(
        &mut self,
        now: SimTime,
        plant: &impl Plant,
        readback: Option<Vec<u8>>,
        view: &ClusterView,
        pipeline: &ControlPipeline,
    ) {
        let (learn, topology) = (pipeline.learn.as_ref(), pipeline.topology.as_ref());
        let mut mix = Vec::new();
        let nodes = (0..plant.node_dead().len())
            .map(|i| {
                let s = plant.snapshot(i, false);
                let (learn_power_w, mix) = match learn {
                    None => (None, Vec::new()),
                    Some(l) => {
                        let (power_w, _) = plant.learn_obs(i, &l.mix, &mut mix);
                        (power_w, mix.iter().map(|&(u, c)| (u.0, c)).collect())
                    }
                };
                NodeObs {
                    utilization: s.utilization,
                    intensity: s.intensity,
                    gamma: s.gamma,
                    beta: s.beta,
                    target: s.target.0,
                    inflight: s.inflight as u32,
                    learn_power_w,
                    mix,
                }
            })
            .collect();
        self.slots.push(SlotRecord {
            slot: self.slots.len() as u64,
            now,
            sample: PlaneSample {
                true_power_w: plant.true_power_w(),
                readings: plant.readings().map(<[_]>::to_vec),
                nodes,
                readback,
                node_dead: plant.node_dead().to_vec(),
                battery: plant.battery(),
                energy_j: pipeline.account.load_joules(now),
                forgets: std::mem::take(&mut self.pending_forgets),
                rack_power_w: topology.map_or(Vec::new(), |t| t.rack_power_w.clone()),
            },
            view: view.into(),
            decisions: DecisionRecord {
                retries: pipeline.act.retry_scratch.iter().map(|&(n, p)| (n, p.0)).collect(),
                actions: pipeline.actions.iter().map(ActionRecord::from).collect(),
            },
        });
    }

    /// Finish recording: compute the footer from the records and return
    /// the complete trace.
    pub fn finish(self) -> ControlTrace {
        let mut footer = TraceFooter { slots: self.slots.len() as u64, ..Default::default() };
        for s in &self.slots {
            footer.actions += s.decisions.actions.len() as u64;
            footer.retries += s.decisions.retries.len() as u64;
            if s.view.condition == ConditionRecord::Emergency {
                footer.emergency_slots += 1;
            }
            if s.view.watchdog_engaged {
                footer.watchdog_slots += 1;
            }
            footer.energy_j = s.sample.energy_j;
            footer.peak_true_w = footer.peak_true_w.max(s.sample.true_power_w);
        }
        ControlTrace { header: self.header, slots: self.slots, footer }
    }
}

// ---------------------------------------------------------------------
// Driving the identical pipeline from samples
// ---------------------------------------------------------------------

impl ControlPipeline {
    /// Assemble the pipeline exactly as the DES engine does for `exp` —
    /// same scheme construction, budget, hardening, safe P-state,
    /// verifier and profiler — but owned by a live/replay driver
    /// instead of a simulator.
    pub fn for_experiment(exp: &ExperimentConfig) -> Self {
        let cfg = &exp.cluster;
        cfg.validate().expect("invalid cluster config");
        let start = SimTime::ZERO;
        let scheme = crate::scheme::build_scheme(exp.scheme, cfg);
        // Seed the accountant at the same t=0 idle draw the engine
        // computes from freshly-built nodes.
        let idle_total = ComputeNode::new(start, cfg.cores_per_server, cfg.max_inflight, cfg.dvfs_latency)
            .power_w()
            * cfg.servers as f64;
        ControlPipeline::new(cfg, scheme, start, cfg.faults.is_some(), idle_total)
    }

    /// Apply a forget event to every stage that holds per-node state.
    pub fn forget_node(&mut self, f: Forget) {
        match f.kind {
            ForgetKind::Full => {
                self.filter.forget_node(f.node);
                self.act.clear_node(f.node);
                if let Some(learn) = &mut self.learn {
                    learn.forget_node(f.node);
                }
            }
            ForgetKind::Learn => {
                if let Some(learn) = &mut self.learn {
                    learn.forget_node(f.node);
                }
            }
        }
    }
}

/// The [`Plant`] over one [`PlaneSample`]: a recorded or live slot fed
/// to [`ControlPipeline::run_slot`]. Read-back retries are collected
/// for the caller's [`ActuationTransport`] instead of issued.
pub struct SamplePlant<'a> {
    sample: &'a PlaneSample,
    retries: Vec<(usize, u8)>,
}

impl<'a> SamplePlant<'a> {
    /// The plant over `sample`.
    pub fn new(sample: &'a PlaneSample) -> Self {
        SamplePlant { sample, retries: Vec::new() }
    }

    /// The slot's decisions: the collected retries plus the plan
    /// `run_slot` left in `actions`, which this drains.
    pub fn decisions(self, actions: &mut Vec<Action>) -> DecisionRecord {
        DecisionRecord {
            retries: self.retries,
            actions: actions.drain(..).map(|a| ActionRecord::from(&a)).collect(),
        }
    }
}

impl Plant for SamplePlant<'_> {
    fn forgets(&self) -> &[Forget] {
        &self.sample.forgets
    }

    fn true_power_w(&self) -> f64 {
        self.sample.true_power_w
    }

    fn readings(&self) -> Option<&[Option<f64>]> {
        self.sample.readings.as_deref()
    }

    fn node_dead(&self) -> &[bool] {
        &self.sample.node_dead
    }

    /// The sensor side already normalized the reading and took the mix.
    fn learn_obs(&self, i: usize, _: &MixTracker, mix: &mut UrlMix) -> (Option<f64>, f64) {
        let o = &self.sample.nodes[i];
        mix.clear();
        mix.extend(o.mix.iter().map(|&(u, c)| (UrlId(u), c)));
        (o.learn_power_w, o.utilization)
    }

    fn readback(&self, i: usize) -> Option<PState> {
        self.sample.readback.as_ref().map(|r| PState(r[i]))
    }

    fn retry(&mut self, _: SimTime, node: usize, target: PState) {
        self.retries.push((node, target.0));
    }

    fn snapshot(&self, i: usize, suspect: bool) -> NodeSnapshot {
        let o = &self.sample.nodes[i];
        NodeSnapshot {
            utilization: o.utilization,
            intensity: o.intensity,
            gamma: o.gamma,
            beta: o.beta,
            target: PState(o.target),
            suspect,
            inflight: o.inflight as usize,
        }
    }

    fn target(&self, i: usize) -> PState {
        PState(self.sample.nodes[i].target)
    }

    fn battery(&self) -> BatteryObs {
        self.sample.battery
    }
}

/// Hand-rolled, exact JSON codec for the trace schema (see
/// [`crate::jsonl`] for why: floats round-trip bit-exactly via
/// shortest-roundtrip formatting, integers never pass through `f64`).
mod codec {
    use super::*;
    use crate::config::{ControlPlaneConfig, SchemeKind};
    use netsim::RetryConfig;
    use powercap::budget::BudgetLevel;
    use profiler::ProfilerConfig;
    use simcore::faults::{CrashEvent, FaultConfig};

    type R<T> = Result<T, String>;

    fn time_j(t: SimTime) -> Json {
        Json::u64(t.as_micros())
    }

    fn time_f(v: &Json) -> R<SimTime> {
        Ok(SimTime::from_micros(v.as_u64()?))
    }

    fn dur_j(d: SimDuration) -> Json {
        Json::u64(d.as_micros())
    }

    fn dur_f(v: &Json) -> R<SimDuration> {
        Ok(SimDuration::from_micros(v.as_u64()?))
    }

    fn scheme_j(s: SchemeKind) -> Json {
        Json::str(match s {
            SchemeKind::None => "None",
            SchemeKind::Capping => "Capping",
            SchemeKind::Shaving => "Shaving",
            SchemeKind::Token => "Token",
            SchemeKind::AntiDope => "AntiDope",
            SchemeKind::PdfOnly => "PdfOnly",
            SchemeKind::RpmOnly => "RpmOnly",
        })
    }

    fn scheme_f(v: &Json) -> R<SchemeKind> {
        Ok(match v.as_str()? {
            "None" => SchemeKind::None,
            "Capping" => SchemeKind::Capping,
            "Shaving" => SchemeKind::Shaving,
            "Token" => SchemeKind::Token,
            "AntiDope" => SchemeKind::AntiDope,
            "PdfOnly" => SchemeKind::PdfOnly,
            "RpmOnly" => SchemeKind::RpmOnly,
            other => return Err(format!("unknown scheme {other:?}")),
        })
    }

    fn budget_j(b: BudgetLevel) -> Json {
        Json::str(match b {
            BudgetLevel::Normal => "Normal",
            BudgetLevel::High => "High",
            BudgetLevel::Medium => "Medium",
            BudgetLevel::Low => "Low",
        })
    }

    fn budget_f(v: &Json) -> R<BudgetLevel> {
        Ok(match v.as_str()? {
            "Normal" => BudgetLevel::Normal,
            "High" => BudgetLevel::High,
            "Medium" => BudgetLevel::Medium,
            "Low" => BudgetLevel::Low,
            other => return Err(format!("unknown budget level {other:?}")),
        })
    }

    fn faults_j(f: &FaultConfig) -> Json {
        Json::Obj(vec![
            ("sensor_dropout_p".into(), Json::f64(f.sensor_dropout_p)),
            ("sensor_noise_w".into(), Json::f64(f.sensor_noise_w)),
            ("sensor_stuck_p".into(), Json::f64(f.sensor_stuck_p)),
            ("sensor_stuck_for".into(), dur_j(f.sensor_stuck_for)),
            ("sensor_stale_p".into(), Json::f64(f.sensor_stale_p)),
            (
                "blackouts".into(),
                Json::Arr(
                    f.blackouts
                        .iter()
                        .map(|&(a, b)| Json::Arr(vec![time_j(a), time_j(b)]))
                        .collect(),
                ),
            ),
            ("actuator_loss_p".into(), Json::f64(f.actuator_loss_p)),
            ("actuator_delay_p".into(), Json::f64(f.actuator_delay_p)),
            ("actuator_delay".into(), dur_j(f.actuator_delay)),
            ("actuator_stuck_p".into(), Json::f64(f.actuator_stuck_p)),
            ("actuator_stuck_for".into(), dur_j(f.actuator_stuck_for)),
            (
                "crashes".into(),
                Json::Arr(
                    f.crashes
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("node".into(), Json::u64(c.node as u64)),
                                ("at".into(), time_j(c.at)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("crash_p".into(), Json::f64(f.crash_p)),
            ("reboot_after".into(), dur_j(f.reboot_after)),
            ("battery_fade".into(), Json::f64(f.battery_fade)),
            ("charger_fails_at".into(), Json::opt(&f.charger_fails_at, |&t| time_j(t))),
        ])
    }

    fn faults_f(v: &Json) -> R<FaultConfig> {
        Ok(FaultConfig {
            sensor_dropout_p: v.get("sensor_dropout_p")?.as_f64()?,
            sensor_noise_w: v.get("sensor_noise_w")?.as_f64()?,
            sensor_stuck_p: v.get("sensor_stuck_p")?.as_f64()?,
            sensor_stuck_for: dur_f(v.get("sensor_stuck_for")?)?,
            sensor_stale_p: v.get("sensor_stale_p")?.as_f64()?,
            blackouts: v
                .get("blackouts")?
                .as_arr()?
                .iter()
                .map(|pair| {
                    let [a, b] = pair.as_arr()? else {
                        return Err("blackout must be a [start, end] pair".to_string());
                    };
                    Ok((time_f(a)?, time_f(b)?))
                })
                .collect::<R<_>>()?,
            actuator_loss_p: v.get("actuator_loss_p")?.as_f64()?,
            actuator_delay_p: v.get("actuator_delay_p")?.as_f64()?,
            actuator_delay: dur_f(v.get("actuator_delay")?)?,
            actuator_stuck_p: v.get("actuator_stuck_p")?.as_f64()?,
            actuator_stuck_for: dur_f(v.get("actuator_stuck_for")?)?,
            crashes: v
                .get("crashes")?
                .as_arr()?
                .iter()
                .map(|c| {
                    Ok(CrashEvent {
                        node: c.get("node")?.as_usize()?,
                        at: time_f(c.get("at")?)?,
                    })
                })
                .collect::<R<_>>()?,
            crash_p: v.get("crash_p")?.as_f64()?,
            reboot_after: dur_f(v.get("reboot_after")?)?,
            battery_fade: v.get("battery_fade")?.as_f64()?,
            charger_fails_at: v.get_opt("charger_fails_at")?.map(time_f).transpose()?,
        })
    }

    fn profiler_j(p: &ProfilerConfig) -> Json {
        Json::Obj(vec![
            ("idle_w".into(), Json::f64(p.idle_w)),
            ("dynamic_scale_w".into(), Json::f64(p.dynamic_scale_w)),
            ("util_exponent".into(), Json::f64(p.util_exponent)),
            ("forgetting".into(), Json::f64(p.forgetting)),
            ("prior_intensity".into(), Json::f64(p.prior_intensity)),
            ("prior_variance".into(), Json::f64(p.prior_variance)),
            ("variance_cap".into(), Json::f64(p.variance_cap)),
            ("threshold".into(), Json::f64(p.threshold)),
            ("hysteresis".into(), Json::f64(p.hysteresis)),
            ("min_samples".into(), Json::u64(u64::from(p.min_samples))),
            ("stale_after_slots".into(), Json::u64(p.stale_after_slots)),
            ("max_urls".into(), Json::u64(p.max_urls as u64)),
            ("cusum_slack".into(), Json::f64(p.cusum_slack)),
            ("cusum_threshold".into(), Json::f64(p.cusum_threshold)),
            ("cusum_warmup".into(), Json::u64(u64::from(p.cusum_warmup))),
            ("track_convergence".into(), Json::Bool(p.track_convergence)),
        ])
    }

    fn profiler_f(v: &Json) -> R<ProfilerConfig> {
        Ok(ProfilerConfig {
            idle_w: v.get("idle_w")?.as_f64()?,
            dynamic_scale_w: v.get("dynamic_scale_w")?.as_f64()?,
            util_exponent: v.get("util_exponent")?.as_f64()?,
            forgetting: v.get("forgetting")?.as_f64()?,
            prior_intensity: v.get("prior_intensity")?.as_f64()?,
            prior_variance: v.get("prior_variance")?.as_f64()?,
            variance_cap: v.get("variance_cap")?.as_f64()?,
            threshold: v.get("threshold")?.as_f64()?,
            hysteresis: v.get("hysteresis")?.as_f64()?,
            min_samples: v.get("min_samples")?.as_u32()?,
            stale_after_slots: v.get("stale_after_slots")?.as_u64()?,
            max_urls: v.get("max_urls")?.as_usize()?,
            cusum_slack: v.get("cusum_slack")?.as_f64()?,
            cusum_threshold: v.get("cusum_threshold")?.as_f64()?,
            cusum_warmup: v.get("cusum_warmup")?.as_u32()?,
            // Absent in pre-convergence-tracking traces: defaults off.
            track_convergence: v
                .get_opt("track_convergence")?
                .map(|b| b.as_bool())
                .transpose()?
                .unwrap_or(false),
        })
    }

    fn retry_j(r: &RetryConfig) -> Json {
        Json::Obj(vec![
            ("max_attempts".into(), Json::u64(u64::from(r.max_attempts))),
            ("timeout".into(), dur_j(r.timeout)),
            ("backoff_base".into(), dur_j(r.backoff_base)),
            ("backoff_cap".into(), dur_j(r.backoff_cap)),
            ("jitter".into(), Json::f64(r.jitter)),
            ("breaker_cooldown".into(), dur_j(r.breaker_cooldown)),
            (
                "breaker_failure_threshold".into(),
                Json::u64(u64::from(r.breaker_failure_threshold)),
            ),
        ])
    }

    fn retry_f(v: &Json) -> R<RetryConfig> {
        Ok(RetryConfig {
            max_attempts: v.get("max_attempts")?.as_u8()?,
            timeout: dur_f(v.get("timeout")?)?,
            backoff_base: dur_f(v.get("backoff_base")?)?,
            backoff_cap: dur_f(v.get("backoff_cap")?)?,
            jitter: v.get("jitter")?.as_f64()?,
            breaker_cooldown: dur_f(v.get("breaker_cooldown")?)?,
            breaker_failure_threshold: v.get("breaker_failure_threshold")?.as_u32()?,
        })
    }

    fn control_j(c: &ControlPlaneConfig) -> Json {
        Json::Obj(vec![
            ("watchdog_coverage_floor".into(), Json::f64(c.watchdog_coverage_floor)),
            ("watchdog_recovery_slots".into(), Json::u64(u64::from(c.watchdog_recovery_slots))),
            ("telemetry_staleness_slots".into(), Json::u64(c.telemetry_staleness_slots)),
            ("actuator_max_retries".into(), Json::u64(u64::from(c.actuator_max_retries))),
        ])
    }

    fn control_f(v: &Json) -> R<ControlPlaneConfig> {
        Ok(ControlPlaneConfig {
            watchdog_coverage_floor: v.get("watchdog_coverage_floor")?.as_f64()?,
            watchdog_recovery_slots: v.get("watchdog_recovery_slots")?.as_u32()?,
            telemetry_staleness_slots: v.get("telemetry_staleness_slots")?.as_u64()?,
            actuator_max_retries: v.get("actuator_max_retries")?.as_u8()?,
        })
    }

    fn topology_j(t: &crate::topology::TopologyConfig) -> Json {
        Json::Obj(vec![
            ("racks".into(), Json::u64(t.racks as u64)),
            ("pdus".into(), Json::u64(t.pdus as u64)),
            ("rows".into(), Json::u64(t.rows as u64)),
            ("rack_oversub".into(), Json::f64(t.rack_oversub)),
            ("pdu_oversub".into(), Json::f64(t.pdu_oversub)),
            ("row_oversub".into(), Json::f64(t.row_oversub)),
            ("breaker_rating_factor".into(), Json::f64(t.breaker_rating_factor)),
            ("breaker_trip_delay".into(), dur_j(t.breaker_trip_delay)),
            ("defend".into(), Json::Bool(t.defend)),
        ])
    }

    fn topology_f(v: &Json) -> R<crate::topology::TopologyConfig> {
        Ok(crate::topology::TopologyConfig {
            racks: v.get("racks")?.as_usize()?,
            pdus: v.get("pdus")?.as_usize()?,
            rows: v.get("rows")?.as_usize()?,
            rack_oversub: v.get("rack_oversub")?.as_f64()?,
            pdu_oversub: v.get("pdu_oversub")?.as_f64()?,
            row_oversub: v.get("row_oversub")?.as_f64()?,
            breaker_rating_factor: v.get("breaker_rating_factor")?.as_f64()?,
            breaker_trip_delay: dur_f(v.get("breaker_trip_delay")?)?,
            defend: v.get("defend")?.as_bool()?,
        })
    }

    fn admission_j(a: &crate::config::AdmissionConfig) -> Json {
        Json::Obj(vec![
            (
                "cost_to_serve".into(),
                Json::opt(&a.cost_to_serve, |c| {
                    Json::Obj(vec![
                        ("budget_per_s".into(), Json::f64(c.budget_per_s)),
                        ("burst_s".into(), Json::f64(c.burst_s)),
                        ("mem_surcharge".into(), Json::f64(c.mem_surcharge)),
                    ])
                }),
            ),
            (
                "firewall_ban_s".into(),
                Json::opt(&a.firewall_ban_s, |b| Json::f64(*b)),
            ),
        ])
    }

    fn admission_f(v: &Json) -> R<crate::config::AdmissionConfig> {
        Ok(crate::config::AdmissionConfig {
            cost_to_serve: v
                .get_opt("cost_to_serve")?
                .map(|c| {
                    Ok::<_, String>(netsim::CostToServeConfig {
                        budget_per_s: c.get("budget_per_s")?.as_f64()?,
                        burst_s: c.get("burst_s")?.as_f64()?,
                        mem_surcharge: c.get("mem_surcharge")?.as_f64()?,
                    })
                })
                .transpose()?,
            firewall_ban_s: v.get_opt("firewall_ban_s")?.map(|b| b.as_f64()).transpose()?,
        })
    }

    fn cluster_j(c: &ClusterConfig) -> Json {
        Json::Obj(vec![
            ("servers".into(), Json::u64(c.servers as u64)),
            ("cores_per_server".into(), Json::u64(c.cores_per_server as u64)),
            ("max_inflight".into(), Json::u64(c.max_inflight as u64)),
            ("suspect_pool_size".into(), Json::u64(c.suspect_pool_size as u64)),
            ("budget".into(), budget_j(c.budget)),
            ("battery_sustain".into(), dur_j(c.battery_sustain)),
            ("control_slot".into(), dur_j(c.control_slot)),
            ("dvfs_latency".into(), dur_j(c.dvfs_latency)),
            ("firewall".into(), Json::Bool(c.firewall)),
            ("firewall_threshold_rps".into(), Json::f64(c.firewall_threshold_rps)),
            ("firewall_lag".into(), dur_j(c.firewall_lag)),
            ("breaker".into(), Json::Bool(c.breaker)),
            ("breaker_rating_factor".into(), Json::f64(c.breaker_rating_factor)),
            ("breaker_trip_delay".into(), dur_j(c.breaker_trip_delay)),
            ("thermal".into(), Json::Bool(c.thermal)),
            ("faults".into(), Json::opt(&c.faults, faults_j)),
            ("profiler".into(), Json::opt(&c.profiler, profiler_j)),
            ("retry".into(), Json::opt(&c.retry, retry_j)),
            ("control".into(), control_j(&c.control)),
            ("shards".into(), Json::u64(c.shards as u64)),
            ("topology".into(), Json::opt(&c.topology, topology_j)),
            ("admission".into(), Json::opt(&c.admission, admission_j)),
        ])
    }

    fn cluster_f(v: &Json) -> R<ClusterConfig> {
        Ok(ClusterConfig {
            servers: v.get("servers")?.as_usize()?,
            cores_per_server: v.get("cores_per_server")?.as_usize()?,
            max_inflight: v.get("max_inflight")?.as_usize()?,
            suspect_pool_size: v.get("suspect_pool_size")?.as_usize()?,
            budget: budget_f(v.get("budget")?)?,
            battery_sustain: dur_f(v.get("battery_sustain")?)?,
            control_slot: dur_f(v.get("control_slot")?)?,
            dvfs_latency: dur_f(v.get("dvfs_latency")?)?,
            firewall: v.get("firewall")?.as_bool()?,
            firewall_threshold_rps: v.get("firewall_threshold_rps")?.as_f64()?,
            firewall_lag: dur_f(v.get("firewall_lag")?)?,
            breaker: v.get("breaker")?.as_bool()?,
            breaker_rating_factor: v.get("breaker_rating_factor")?.as_f64()?,
            breaker_trip_delay: dur_f(v.get("breaker_trip_delay")?)?,
            thermal: v.get("thermal")?.as_bool()?,
            faults: v.get_opt("faults")?.map(faults_f).transpose()?,
            profiler: v.get_opt("profiler")?.map(profiler_f).transpose()?,
            retry: v.get_opt("retry")?.map(retry_f).transpose()?,
            control: control_f(v.get("control")?)?,
            shards: v.get("shards")?.as_usize()?,
            // Absent in pre-topology traces: they parse as None.
            topology: v.get_opt("topology")?.map(topology_f).transpose()?,
            // Absent in pre-admission traces: they parse as None.
            admission: v.get_opt("admission")?.map(admission_f).transpose()?,
        })
    }

    pub(super) fn header_to_json(h: &TraceHeader) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::u64(u64::from(h.schema))),
            (
                "experiment".into(),
                Json::Obj(vec![
                    ("cluster".into(), cluster_j(&h.experiment.cluster)),
                    ("scheme".into(), scheme_j(h.experiment.scheme)),
                    ("duration".into(), dur_j(h.experiment.duration)),
                    ("seed".into(), Json::u64(h.experiment.seed)),
                    ("label".into(), Json::str(&h.experiment.label)),
                ]),
            ),
        ])
    }

    pub(super) fn header_from_json(v: &Json) -> R<TraceHeader> {
        let e = v.get("experiment")?;
        Ok(TraceHeader {
            schema: v.get("schema")?.as_u32()?,
            experiment: ExperimentConfig {
                cluster: cluster_f(e.get("cluster")?)?,
                scheme: scheme_f(e.get("scheme")?)?,
                duration: dur_f(e.get("duration")?)?,
                seed: e.get("seed")?.as_u64()?,
                label: e.get("label")?.as_str()?.to_string(),
            },
        })
    }

    fn node_obs_j(o: &NodeObs) -> Json {
        Json::Obj(vec![
            ("utilization".into(), Json::f64(o.utilization)),
            ("intensity".into(), Json::f64(o.intensity)),
            ("gamma".into(), Json::f64(o.gamma)),
            ("beta".into(), Json::f64(o.beta)),
            ("target".into(), Json::u64(u64::from(o.target))),
            ("inflight".into(), Json::u64(u64::from(o.inflight))),
            ("learn_power_w".into(), Json::opt(&o.learn_power_w, |&w| Json::f64(w))),
            (
                "mix".into(),
                Json::Arr(
                    o.mix
                        .iter()
                        .map(|&(u, c)| {
                            Json::Arr(vec![Json::u64(u64::from(u)), Json::u64(u64::from(c))])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn node_obs_f(v: &Json) -> R<NodeObs> {
        Ok(NodeObs {
            utilization: v.get("utilization")?.as_f64()?,
            intensity: v.get("intensity")?.as_f64()?,
            gamma: v.get("gamma")?.as_f64()?,
            beta: v.get("beta")?.as_f64()?,
            target: v.get("target")?.as_u8()?,
            inflight: v.get("inflight")?.as_u32()?,
            learn_power_w: v.get_opt("learn_power_w")?.map(Json::as_f64).transpose()?,
            mix: v
                .get("mix")?
                .as_arr()?
                .iter()
                .map(|pair| {
                    let [u, c] = pair.as_arr()? else {
                        return Err("mix entry must be a [url, count] pair".to_string());
                    };
                    Ok((
                        u16::try_from(u.as_u64()?).map_err(|_| "url out of u16 range")?,
                        c.as_u32()?,
                    ))
                })
                .collect::<R<_>>()?,
        })
    }

    fn sample_j(s: &PlaneSample) -> Json {
        let mut fields = vec![
            ("true_power_w".into(), Json::f64(s.true_power_w)),
            (
                "readings".into(),
                Json::opt(&s.readings, |r| {
                    Json::Arr(r.iter().map(|x| Json::opt(x, |&w| Json::f64(w))).collect())
                }),
            ),
            ("nodes".into(), Json::Arr(s.nodes.iter().map(node_obs_j).collect())),
            (
                "readback".into(),
                Json::opt(&s.readback, |r| {
                    Json::Arr(r.iter().map(|&p| Json::u64(u64::from(p))).collect())
                }),
            ),
            (
                "node_dead".into(),
                Json::Arr(s.node_dead.iter().map(|&d| Json::Bool(d)).collect()),
            ),
            (
                "battery".into(),
                Json::Obj(vec![
                    ("soc".into(), Json::f64(s.battery.soc)),
                    ("stored_j".into(), Json::f64(s.battery.stored_j)),
                    ("discharge_w".into(), Json::f64(s.battery.discharge_w)),
                    ("charge_w".into(), Json::f64(s.battery.charge_w)),
                ]),
            ),
            ("energy_j".into(), Json::f64(s.energy_j)),
            (
                "forgets".into(),
                Json::Arr(
                    s.forgets
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("node".into(), Json::u64(f.node as u64)),
                                (
                                    "kind".into(),
                                    Json::str(match f.kind {
                                        ForgetKind::Full => "Full",
                                        ForgetKind::Learn => "Learn",
                                    }),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        // Key elided entirely for flat (no-topology) runs so their
        // traces stay byte-identical to pre-topology recordings.
        if !s.rack_power_w.is_empty() {
            fields.push((
                "rack_power_w".into(),
                Json::Arr(s.rack_power_w.iter().map(|&w| Json::f64(w)).collect()),
            ));
        }
        Json::Obj(fields)
    }

    fn sample_f(v: &Json) -> R<PlaneSample> {
        Ok(PlaneSample {
            true_power_w: v.get("true_power_w")?.as_f64()?,
            readings: v
                .get_opt("readings")?
                .map(|r| {
                    r.as_arr()?
                        .iter()
                        .map(|x| match x {
                            Json::Null => Ok(None),
                            other => other.as_f64().map(Some),
                        })
                        .collect::<R<Vec<Option<f64>>>>()
                })
                .transpose()?,
            nodes: v.get("nodes")?.as_arr()?.iter().map(node_obs_f).collect::<R<_>>()?,
            readback: v
                .get_opt("readback")?
                .map(|r| r.as_arr()?.iter().map(Json::as_u8).collect::<R<Vec<u8>>>())
                .transpose()?,
            node_dead: v
                .get("node_dead")?
                .as_arr()?
                .iter()
                .map(Json::as_bool)
                .collect::<R<_>>()?,
            battery: {
                let b = v.get("battery")?;
                BatteryObs {
                    soc: b.get("soc")?.as_f64()?,
                    stored_j: b.get("stored_j")?.as_f64()?,
                    discharge_w: b.get("discharge_w")?.as_f64()?,
                    charge_w: b.get("charge_w")?.as_f64()?,
                }
            },
            energy_j: v.get("energy_j")?.as_f64()?,
            forgets: v
                .get("forgets")?
                .as_arr()?
                .iter()
                .map(|f| {
                    Ok(Forget {
                        node: f.get("node")?.as_usize()?,
                        kind: match f.get("kind")?.as_str()? {
                            "Full" => ForgetKind::Full,
                            "Learn" => ForgetKind::Learn,
                            other => return Err(format!("unknown forget kind {other:?}")),
                        },
                    })
                })
                .collect::<R<_>>()?,
            rack_power_w: v
                .get_opt("rack_power_w")?
                .map(|r| r.as_arr()?.iter().map(Json::as_f64).collect::<R<Vec<f64>>>())
                .transpose()?
                .unwrap_or_default(),
        })
    }

    fn action_j(a: &ActionRecord) -> Json {
        match *a {
            ActionRecord::SetPState { node, target } => Json::Obj(vec![(
                "SetPState".into(),
                Json::Obj(vec![
                    ("node".into(), Json::u64(node as u64)),
                    ("target".into(), Json::u64(u64::from(target))),
                ]),
            )]),
            ActionRecord::SetPowerLimit { node, limit_w } => Json::Obj(vec![(
                "SetPowerLimit".into(),
                Json::Obj(vec![
                    ("node".into(), Json::u64(node as u64)),
                    ("limit_w".into(), Json::opt(&limit_w, |&w| Json::f64(w))),
                ]),
            )]),
            ActionRecord::BatteryDischarge { watts } => Json::Obj(vec![(
                "BatteryDischarge".into(),
                Json::Obj(vec![("watts".into(), Json::f64(watts))]),
            )]),
            ActionRecord::BatteryCharge { watts } => Json::Obj(vec![(
                "BatteryCharge".into(),
                Json::Obj(vec![("watts".into(), Json::f64(watts))]),
            )]),
        }
    }

    fn action_f(v: &Json) -> R<ActionRecord> {
        let [(tag, body)] = v.as_obj()? else {
            return Err("action must be a single-key tagged object".to_string());
        };
        Ok(match tag.as_str() {
            "SetPState" => ActionRecord::SetPState {
                node: body.get("node")?.as_usize()?,
                target: body.get("target")?.as_u8()?,
            },
            "SetPowerLimit" => ActionRecord::SetPowerLimit {
                node: body.get("node")?.as_usize()?,
                limit_w: body.get_opt("limit_w")?.map(Json::as_f64).transpose()?,
            },
            "BatteryDischarge" => {
                ActionRecord::BatteryDischarge { watts: body.get("watts")?.as_f64()? }
            }
            "BatteryCharge" => {
                ActionRecord::BatteryCharge { watts: body.get("watts")?.as_f64()? }
            }
            other => return Err(format!("unknown action {other:?}")),
        })
    }

    pub(super) fn slot_to_json(s: &SlotRecord) -> Json {
        Json::Obj(vec![
            ("slot".into(), Json::u64(s.slot)),
            ("now".into(), time_j(s.now)),
            ("sample".into(), sample_j(&s.sample)),
            (
                "view".into(),
                Json::Obj(vec![
                    (
                        "condition".into(),
                        Json::str(match s.view.condition {
                            ConditionRecord::Nominal => "Nominal",
                            ConditionRecord::NearBudget => "NearBudget",
                            ConditionRecord::Transient => "Transient",
                            ConditionRecord::Emergency => "Emergency",
                        }),
                    ),
                    ("observed_w".into(), Json::f64(s.view.observed_w)),
                    ("coverage".into(), Json::f64(s.view.coverage)),
                    ("watchdog_engaged".into(), Json::Bool(s.view.watchdog_engaged)),
                ]),
            ),
            (
                "decisions".into(),
                Json::Obj(vec![
                    (
                        "retries".into(),
                        Json::Arr(
                            s.decisions
                                .retries
                                .iter()
                                .map(|&(n, p)| {
                                    Json::Arr(vec![Json::u64(n as u64), Json::u64(u64::from(p))])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "actions".into(),
                        Json::Arr(s.decisions.actions.iter().map(action_j).collect()),
                    ),
                ]),
            ),
        ])
    }

    pub(super) fn slot_from_json(v: &Json) -> R<SlotRecord> {
        let view = v.get("view")?;
        let decisions = v.get("decisions")?;
        Ok(SlotRecord {
            slot: v.get("slot")?.as_u64()?,
            now: time_f(v.get("now")?)?,
            sample: sample_f(v.get("sample")?)?,
            view: ViewRecord {
                condition: match view.get("condition")?.as_str()? {
                    "Nominal" => ConditionRecord::Nominal,
                    "NearBudget" => ConditionRecord::NearBudget,
                    "Transient" => ConditionRecord::Transient,
                    "Emergency" => ConditionRecord::Emergency,
                    other => return Err(format!("unknown condition {other:?}")),
                },
                observed_w: view.get("observed_w")?.as_f64()?,
                coverage: view.get("coverage")?.as_f64()?,
                watchdog_engaged: view.get("watchdog_engaged")?.as_bool()?,
            },
            decisions: DecisionRecord {
                retries: decisions
                    .get("retries")?
                    .as_arr()?
                    .iter()
                    .map(|pair| {
                        let [n, p] = pair.as_arr()? else {
                            return Err("retry must be a [node, pstate] pair".to_string());
                        };
                        Ok((n.as_usize()?, p.as_u8()?))
                    })
                    .collect::<R<_>>()?,
                actions: decisions
                    .get("actions")?
                    .as_arr()?
                    .iter()
                    .map(action_f)
                    .collect::<R<_>>()?,
            },
        })
    }

    pub(super) fn footer_to_json(f: &TraceFooter) -> Json {
        Json::Obj(vec![
            ("slots".into(), Json::u64(f.slots)),
            ("actions".into(), Json::u64(f.actions)),
            ("retries".into(), Json::u64(f.retries)),
            ("emergency_slots".into(), Json::u64(f.emergency_slots)),
            ("watchdog_slots".into(), Json::u64(f.watchdog_slots)),
            ("energy_j".into(), Json::f64(f.energy_j)),
            ("peak_true_w".into(), Json::f64(f.peak_true_w)),
        ])
    }

    pub(super) fn footer_from_json(v: &Json) -> R<TraceFooter> {
        Ok(TraceFooter {
            slots: v.get("slots")?.as_u64()?,
            actions: v.get("actions")?.as_u64()?,
            retries: v.get("retries")?.as_u64()?,
            emergency_slots: v.get("emergency_slots")?.as_u64()?,
            watchdog_slots: v.get("watchdog_slots")?.as_u64()?,
            energy_j: v.get("energy_j")?.as_f64()?,
            peak_true_w: v.get("peak_true_w")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use powercap::budget::BudgetLevel;

    fn tiny_exp() -> ExperimentConfig {
        crate::testutil::quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 10, 7)
    }

    #[test]
    fn jsonl_round_trips() {
        let exp = tiny_exp();
        let mut rec = TraceRecorder::new(&exp);
        rec.note_forget(2, ForgetKind::Full);
        let trace = rec.finish();
        let text = trace.to_jsonl();
        let back = ControlTrace::from_jsonl_str(&text).expect("round trip");
        assert_eq!(back.header.schema, TRACE_SCHEMA_VERSION);
        assert_eq!(back.slots.len(), 0);
        assert_eq!(back.footer, trace.footer);
    }

    #[test]
    fn schema_mismatch_is_a_typed_error() {
        let exp = tiny_exp();
        let mut trace = TraceRecorder::new(&exp).finish();
        trace.header.schema = TRACE_SCHEMA_VERSION + 1;
        let err = ControlTrace::from_jsonl_str(&trace.to_jsonl()).expect_err("must reject");
        assert!(matches!(
            err,
            ConfigError::TraceSchema { found, supported }
                if found == TRACE_SCHEMA_VERSION + 1 && supported == TRACE_SCHEMA_VERSION
        ));
    }

    #[test]
    fn truncated_trace_is_a_typed_error() {
        let exp = tiny_exp();
        let trace = TraceRecorder::new(&exp).finish();
        let text = trace.to_jsonl();
        let only_header = text.lines().next().expect("header line");
        let err = ControlTrace::from_jsonl_str(only_header).expect_err("must reject");
        assert!(matches!(err, ConfigError::TraceFormat { .. }));
        let err = ControlTrace::from_jsonl_str("not json").expect_err("must reject");
        assert!(matches!(err, ConfigError::TraceFormat { .. }));
    }

    #[test]
    fn deeply_nested_trace_is_a_typed_error() {
        let line = "[".repeat(1 << 20);
        let err = ControlTrace::from_jsonl_str(&line).expect_err("must reject");
        assert!(
            matches!(&err, ConfigError::TraceFormat { what } if what.contains("nesting deeper")),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_header_config_is_a_typed_error() {
        for (servers, shards) in [(0, 1), (4, 0)] {
            let mut trace = TraceRecorder::new(&tiny_exp()).finish();
            trace.header.experiment.cluster.servers = servers;
            trace.header.experiment.cluster.shards = shards;
            let err = ControlTrace::from_jsonl_str(&trace.to_jsonl()).expect_err("must reject");
            assert!(
                matches!(err, ConfigError::TooFewServers { .. } | ConfigError::Shards { .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn slot_out_of_shape_with_the_header_is_a_typed_error() {
        let mut exp = tiny_exp();
        exp.cluster.faults = Some(simcore::FaultConfig::default());
        let (_, trace) = crate::runner::record_experiment(&exp, &crate::testutil::users(100.0));
        let at = trace.slots.iter().position(|s| s.sample.readback.is_some());
        let at = at.expect("a fault plan records read-back");
        ControlTrace::from_jsonl_str(&trace.to_jsonl()).expect("the recorded trace is valid");
        let hostile: [fn(&mut SlotRecord); 6] = [
            |s| s.sample.readback.get_or_insert_with(Vec::new).push(12),
            |s| s.sample.node_dead.truncate(1),
            |s| s.sample.nodes.truncate(1),
            |s| s.sample.forgets.push(Forget { node: 1000, kind: ForgetKind::Full }),
            |s| s.decisions.retries.push((1000, 12)),
            |s| s.decisions.actions.push(ActionRecord::SetPowerLimit { node: 1000, limit_w: None }),
        ];
        for (i, mutate) in hostile.iter().enumerate() {
            let mut bad = trace.clone();
            mutate(&mut bad.slots[at]);
            let err = ControlTrace::from_jsonl_str(&bad.to_jsonl()).expect_err("must reject");
            assert!(
                matches!(&err, ConfigError::TraceFormat { what } if what.contains("slot")),
                "mutation {i}: {err:?}"
            );
        }
    }

    #[test]
    fn pstates_off_the_ladder_are_a_typed_error() {
        let mut exp = tiny_exp();
        exp.cluster.faults = Some(simcore::FaultConfig::default());
        let (_, trace) = crate::runner::record_experiment(&exp, &crate::testutil::users(100.0));
        let at = trace.slots.iter().position(|s| s.sample.readback.is_some());
        let at = at.expect("a fault plan records read-back");
        let top = (PStateTable::PAPER_STATES - 1) as u8;
        let mut edge = trace.clone();
        edge.slots[at].sample.nodes[0].target = top;
        edge.slots[at].decisions.actions.push(ActionRecord::SetPState { node: 0, target: top });
        ControlTrace::from_jsonl_str(&edge.to_jsonl()).expect("the top state is on the ladder");
        let hostile: [fn(&mut ControlTrace, usize); 4] = [
            |t, _| {
                for n in t.slots.iter_mut().flat_map(|s| &mut s.sample.nodes) {
                    n.target = 250;
                }
            },
            |t, at| t.slots[at].sample.readback.as_mut().unwrap()[1] = 13,
            |t, at| {
                let command = ActionRecord::SetPState { node: 0, target: 13 };
                t.slots[at].decisions.actions.push(command);
            },
            |t, at| t.slots[at].decisions.retries.push((0, u8::MAX)),
        ];
        for (i, mutate) in hostile.iter().enumerate() {
            let mut bad = trace.clone();
            mutate(&mut bad, at);
            let err = ControlTrace::from_jsonl_str(&bad.to_jsonl()).expect_err("must reject");
            let off_ladder = "past the 13-state ladder";
            assert!(
                matches!(&err, ConfigError::TraceFormat { what } if what.contains(off_ladder)),
                "mutation {i}: {err:?}"
            );
        }
    }

    #[test]
    fn rack_feeds_out_of_shape_with_the_header_are_a_typed_error() {
        let mut exp = tiny_exp();
        exp.cluster.topology = Some(crate::topology::TopologyConfig::with_racks(2, 1));
        let (_, trace) = crate::runner::record_experiment(&exp, &crate::testutil::users(100.0));
        assert!(trace.slots.iter().all(|s| s.sample.rack_power_w.len() == 2));
        ControlTrace::from_jsonl_str(&trace.to_jsonl()).expect("the recorded trace is valid");
        let hostile: [fn(&mut ControlTrace); 3] = [
            |t| t.slots[3].sample.rack_power_w.truncate(1),
            |t| t.slots[3].sample.rack_power_w.push(80.0),
            |t| t.header.experiment.cluster.topology = None,
        ];
        for (i, mutate) in hostile.iter().enumerate() {
            let mut bad = trace.clone();
            mutate(&mut bad);
            let err = ControlTrace::from_jsonl_str(&bad.to_jsonl()).expect_err("must reject");
            assert!(
                matches!(&err, ConfigError::TraceFormat { what } if what.contains("rack_power_w")),
                "mutation {i}: {err:?}"
            );
        }
    }

    #[test]
    fn action_record_round_trips() {
        let all = [
            Action::SetPState { node: 3, target: PState(5) },
            Action::SetPowerLimit { node: 1, limit_w: Some(80.0) },
            Action::SetPowerLimit { node: 1, limit_w: None },
            Action::BatteryDischarge { watts: 120.0 },
            Action::BatteryCharge { watts: 0.0 },
        ];
        for a in all {
            assert_eq!(ActionRecord::from(&a).to_action(), a);
        }
    }
}
