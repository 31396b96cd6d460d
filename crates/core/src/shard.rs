//! The cluster engine: sharded parallel simulation with data-oriented
//! node state. Every experiment runs here; `shards: 1` is one shard.
//!
//! * **Sharding** — the nodes are partitioned into `shards` contiguous,
//!   near-even slices. Within one control slot `(t0, t1]` each shard
//!   advances its own dataplane (arrivals, PS-queue completions, DVFS
//!   settles) independently; shards only exchange state at slot
//!   boundaries, a conservative synchronization that is safe because
//!   nothing couples nodes *between* boundaries — routing, control
//!   decisions, battery flows, and breaker state are all slot-scoped.
//! * **Data-oriented node state** — each shard mirrors its nodes' hot
//!   fields (power draw, in-flight count, V/F reduction) into
//!   struct-of-arrays columns, updated in O(1) per event. The slot
//!   boundary aggregates power and V/F statistics with tight flat scans
//!   over the columns, and each node's energy is integrated exactly,
//!   per event, from its own column entry.
//!
//! One slot cycle:
//!
//! ```text
//! phase A (seq): merged sources ─► admission ─► scheme admit ─► NLB route
//!                          └──► per-shard arrival inboxes
//! phase B (par): shard event loops (arrive/complete/settle) + SoA
//! phase C (seq): outbox drain ─► physics ─► Sense ─► run_slot ─► Act
//!                ─► Account
//! ```
//!
//! `run_slot` is [`ControlPipeline::run_slot`], the function the live
//! daemon runs on its samples (Filter → Learn → watchdogs → read-back
//! sweep → Decide → rack guard).
//!
//! # Bounded slot buffers
//!
//! At one shard the arrival inbox holds at most `INBOX_BOUND` entries:
//! when routing fills it, the coordinator advances the shard inline to
//! the current routing instant (events only; energy integration still
//! closes at the slot boundary) and drains its Learn hooks. This moves
//! no event: routing reads no shard state between boundaries (feedback,
//! NLB load sync and dead masks are all applied at the boundary),
//! arrivals are routed in nondecreasing time, and the shard loop is a
//! merge in which the heap wins ties — so interrupting it at `now` and
//! resuming later yields the same event order. With more shards the
//! inboxes drain in the parallel phase B: a mid-slot advance there
//! would add a parallel region per inbox-full, while a lone shard has
//! no parallelism to lose.
//!
//! # Semantics fixed by the slot-aligned design
//!
//! * NLB load estimates refresh once per slot (plus LeastLoaded's
//!   optimistic increments).
//! * Perimeter feedback (firewall blocks, admission denials) is
//!   delivered inline during phase A; completion/queue-rejection
//!   feedback is delivered at the closing slot boundary, in the total
//!   order `(time, source, kind, client)`.
//! * The battery integrates at slot boundaries; [`Battery::advance`]
//!   clamps at empty/full itself, so no mid-slot bound event exists.
//! * Crash reboots settle at the next slot boundary.
//!
//! # Determinism contract
//!
//! * Same seed + same shard layout ⇒ identical [`SimReport`]s: nothing
//!   in the cycle depends on thread scheduling — phase B shards touch
//!   disjoint state and phase C drains them in a fixed order.
//! * Same seed at *any* shard count ⇒ **byte-identical** reports, with
//!   or without fault injection. Three mechanisms carry the guarantee:
//!   the slot-boundary power aggregate is one flat scan in global node
//!   order (independent of the partition), so every control decision —
//!   and therefore every discrete count — is layout-invariant; energy
//!   and latency statistics are accumulated **per node** and folded in
//!   global node order at finalize, so float addition order never
//!   depends on the partition; and fault randomness is drawn from
//!   per-node RNG streams ([`ShardFaultPlan`]), so no draw ever crosses
//!   a shard boundary.
//! * With a [`RetryConfig`] the coordinator owns a resilience
//!   dataplane: failed dispatches re-enter the NLB after timeout +
//!   jittered exponential backoff, and per-pool circuit breakers
//!   steer retries away from dark racks. A pool is a physical domain —
//!   one per rack with a power topology, one per node without — and
//!   the success signal folds per-node completion flags in global node
//!   order, so retry runs are byte-identical across shard counts too.
//!   No state outside the dataplane dispatch is keyed by shard.

use crate::config::{ClusterConfig, ExperimentConfig};
use crate::control::act::{self, ActCtx};
use crate::control::learn::LearnStage;
use crate::control::plane::{BatteryObs, ControlTrace, Forget, ForgetKind, TraceRecorder};
use crate::control::{BatteryFlows, ControlPipeline, FaultLayer, NodePlant};
use crate::node::ComputeNode;
use crate::results::{
    BatteryReport, EnergyReport, FaultReport, LatencySummary, PowerReport, RetryReport, SimReport,
    ThermalReport, TrafficReport, VfReport,
};
use crate::scheme::{self, PowerScheme};
use crate::topology::near_even;
use dcmetrics::availability::RequestOutcome;
use dcmetrics::{LatencyHistogram, OnlineSummary, SlaTracker, TimeSeries};
use netsim::admission::{AdmissionDecision, AdmissionPipeline, StageKind};
use netsim::nlb::Nlb;
use netsim::queueing::PushOutcome;
use netsim::request::{Request, RequestId, UrlId};
use netsim::resilience::{PoolBreakers, RetryConfig};
use powercap::battery::{Battery, BatteryMode};
use simcore::faults::ShardFaultPlan;
use simcore::fxhash::FxHashMap;
use simcore::rng::{streams, RngFactory, SimRng};
use simcore::{par, SimTime};
use std::collections::{BinaryHeap, VecDeque};
use workloads::fanout::MergedSources;
use workloads::source::{SourceEvent, TrafficSource};

/// Shard-local events (node indices are shard-local).
#[derive(Debug)]
enum ShardEv {
    /// Predicted completion (valid only at the stamped queue epoch).
    Complete {
        node: usize,
        epoch: u64,
        id: RequestId,
    },
    /// A DVFS transition settles.
    DvfsSettle { node: usize },
}

/// Heap entry ordered by `(time, seq)`; `seq` makes the order total and
/// insertion-stable, so shard replay is deterministic.
struct HeapEntry {
    time: SimTime,
    seq: u64,
    ev: ShardEv,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Arrivals a lone shard's inbox may hold before the coordinator
/// advances it mid-slot (see `ShardedClusterSim::flush_single_shard`).
/// Bounds the per-slot buffers under a flood instead of letting them
/// grow with the arrival rate.
const INBOX_BOUND: usize = 1024;

/// Total delivery order of source feedback: `(time, source, kind,
/// client)`. Two entries with equal keys are identical.
fn feedback_key(&(t, src, ev): &(SimTime, usize, SourceEvent)) -> (SimTime, usize, u8, u32) {
    let (rank, id) = match ev {
        SourceEvent::Blocked(id) => (0u8, id),
        SourceEvent::Rejected(id) => (1, id),
        SourceEvent::Completed(id) => (2, id),
    };
    (t, src, rank, id.0)
}

/// Learn-stage hook replay, drained when a lone shard is advanced
/// mid-slot and at the slot boundary (node indices are global). The hooks are
/// counters, so replay order is irrelevant.
#[derive(Debug, Clone, Copy)]
enum LearnEvt {
    Dispatch { node: usize, url: UrlId },
    Complete { node: usize, url: UrlId },
}

/// One dataplane shard: a contiguous slice of the cluster's nodes, its
/// own event queues, RNG stream space, metrics, and the data-oriented
/// (struct-of-arrays) mirror of the hot per-node fields.
pub struct Shard {
    /// Global index of this shard's first node.
    start: usize,
    /// Hot column: per-node power draw, watts (0 for dead nodes).
    power_w: Vec<f64>,
    /// Hot column: per-node in-flight request count.
    inflight: Vec<u32>,
    /// Hot column: per-node effective V/F reduction steps.
    vf_steps: Vec<u8>,
    /// Hot column: dead-node mask (crash, thermal trip, or outage).
    dead: Vec<bool>,
    /// Exact per-node load energy integrated so far, joules. Kept per
    /// node (not per shard) so the finalize fold can sum in global node
    /// order — float addition order independent of the partition.
    joules: Vec<f64>,
    /// Instant up to which each node's `joules` is integrated.
    last_t: Vec<SimTime>,
    /// Per-node latency summaries (normal / attack traffic), folded in
    /// global node order at finalize for layout-invariant means.
    normal_sum: Vec<OnlineSummary>,
    attack_sum: Vec<OnlineSummary>,
    /// Arrivals for the current slot, in delivery order
    /// (`(time, source, local node, request)`).
    inbox: VecDeque<(SimTime, usize, usize, Request)>,
    /// Completion predictions and DVFS settles.
    heap: BinaryHeap<HeapEntry>,
    /// Monotonic tiebreaker for heap entries.
    seq: u64,
    /// Accepted request → owning source index.
    owner: FxHashMap<RequestId, usize>,
    /// Source feedback produced this slot, drained at the boundary.
    outbox: Vec<(SimTime, usize, SourceEvent)>,
    /// Learn-stage hook replays produced this slot.
    learn_out: Vec<LearnEvt>,
    /// Whether to collect learn replays at all (profiler configured).
    learn_enabled: bool,
    /// Shard-local latency/SLA metrics, merged at finalize.
    normal_hist: LatencyHistogram,
    attack_hist: LatencyHistogram,
    normal_sla: SlaTracker,
    attack_sla: SlaTracker,
    /// Per-shard stream space derived as `master.shard(index)`; reserved
    /// for stochastic dataplane extensions so adding one never perturbs
    /// another shard's streams.
    rng: RngFactory,
    /// Events this shard has processed.
    events: u64,
    /// Completions whose request had already been retried at least once.
    recovered: u64,
    /// Per-node completion flags for the current slot, set only when
    /// `track_completions` is on: the circuit breakers' success signal,
    /// folded in global node order at the boundary (so it is
    /// shard-layout-invariant), then cleared.
    completed: Vec<bool>,
    /// Whether completions are tracked per node (runs with circuit
    /// breakers enabled).
    track_completions: bool,
}

impl Shard {
    fn new(
        index: usize,
        start: usize,
        nodes: &[ComputeNode],
        master: &RngFactory,
        learn_enabled: bool,
        track_completions: bool,
    ) -> Self {
        let power_w: Vec<f64> = nodes.iter().map(|n| n.power_w()).collect();
        Shard {
            start,
            power_w,
            inflight: vec![0; nodes.len()],
            vf_steps: vec![0; nodes.len()],
            dead: vec![false; nodes.len()],
            joules: vec![0.0; nodes.len()],
            last_t: vec![SimTime::ZERO; nodes.len()],
            normal_sum: vec![OnlineSummary::new(); nodes.len()],
            attack_sum: vec![OnlineSummary::new(); nodes.len()],
            inbox: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            owner: FxHashMap::default(),
            outbox: Vec::new(),
            learn_out: Vec::new(),
            learn_enabled,
            normal_hist: LatencyHistogram::for_latency_secs(),
            attack_hist: LatencyHistogram::for_latency_secs(),
            normal_sla: SlaTracker::new(),
            attack_sla: SlaTracker::new(),
            rng: master.shard(index as u64),
            events: 0,
            recovered: 0,
            completed: vec![false; nodes.len()],
            track_completions,
        }
    }

    /// Number of nodes this shard owns.
    pub fn len(&self) -> usize {
        self.power_w.len()
    }

    /// True for a shard with no nodes (never built by the engine).
    pub fn is_empty(&self) -> bool {
        self.power_w.is_empty()
    }

    /// Global index of this shard's first node.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The per-node power column, watts (data-oriented hot state).
    pub fn power_col(&self) -> &[f64] {
        &self.power_w
    }

    /// The per-node in-flight column.
    pub fn inflight_col(&self) -> &[u32] {
        &self.inflight
    }

    /// The per-node V/F reduction column.
    pub fn vf_col(&self) -> &[u8] {
        &self.vf_steps
    }

    /// The shard's derived RNG stream space.
    pub fn rng_factory(&self) -> &RngFactory {
        &self.rng
    }

    /// Events processed by this shard so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Refresh the SoA columns for local node `j` after any event that
    /// may have changed its state, integrating the node's energy over
    /// the old power level first. Integration is strictly per node: a
    /// node's `(power, Δt)` product sequence depends only on its own
    /// event history, never on which shard it landed in.
    #[inline]
    fn touch(&mut self, now: SimTime, j: usize, node: &ComputeNode) {
        self.integrate_node(now, j);
        let p = if self.dead[j] { 0.0 } else { node.power_w() };
        self.power_w[j] = p;
        self.inflight[j] = node.inflight() as u32;
        self.vf_steps[j] = node.vf_reduction_steps();
    }

    /// Advance local node `j`'s exact energy integral to `t`.
    #[inline]
    fn integrate_node(&mut self, t: SimTime, j: usize) {
        if t > self.last_t[j] {
            self.joules[j] += self.power_w[j] * t.since(self.last_t[j]).as_secs_f64();
            self.last_t[j] = t;
        }
    }

    /// Advance every node's energy integral to `t` (slot close).
    fn integrate_all(&mut self, t: SimTime) {
        for j in 0..self.power_w.len() {
            self.integrate_node(t, j);
        }
    }

    /// Queue an arrival routed to local node `j` (phase A, coordinator).
    fn enqueue_arrival(&mut self, t: SimTime, src: usize, j: usize, req: Request) {
        self.inbox.push_back((t, src, j, req));
    }

    /// Queue a DVFS settle staged by the boundary control plane.
    fn push_settle(&mut self, time: SimTime, j: usize) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            ev: ShardEv::DvfsSettle { node: j },
        });
    }

    /// (Re)schedule the completion prediction for local node `j`.
    fn refresh_completion(&mut self, now: SimTime, j: usize, node: &mut ComputeNode) {
        if let Some((eta, id)) = node.next_completion(now) {
            self.seq += 1;
            self.heap.push(HeapEntry {
                time: eta.max(now),
                seq: self.seq,
                ev: ShardEv::Complete {
                    node: j,
                    epoch: node.epoch(),
                    id,
                },
            });
        }
    }

    fn record_outcome(&mut self, is_attack: bool, outcome: RequestOutcome) {
        if is_attack {
            self.attack_sla.record(outcome);
        } else {
            self.normal_sla.record(outcome);
        }
    }

    /// Phase B: replay this shard's events up to and including `t1`,
    /// then close the slot — integrate every node's energy to `t1`.
    fn advance(&mut self, nodes: &mut [ComputeNode], t1: SimTime) {
        self.run_until(nodes, t1);
        self.integrate_all(t1);
    }

    /// Replay this shard's events up to and including `t`: a merge of
    /// the arrival inbox and the event heap in which the heap wins ties.
    /// Stopping at `t` and resuming later yields the same event order as
    /// one uninterrupted call, provided every arrival queued afterwards
    /// is no earlier than `t`.
    fn run_until(&mut self, nodes: &mut [ComputeNode], t: SimTime) {
        loop {
            let th = self.heap.peek().map(|e| e.time);
            let ta = self.inbox.front().map(|a| a.0);
            // Earliest of the two queues; heap wins ties so completions
            // at an instant precede arrivals at the same instant.
            let take_heap = match (th, ta) {
                (None, None) => break,
                (Some(h), None) => {
                    if h > t {
                        break;
                    }
                    true
                }
                (None, Some(a)) => {
                    if a > t {
                        break;
                    }
                    false
                }
                (Some(h), Some(a)) => {
                    if h.min(a) > t {
                        break;
                    }
                    h <= a
                }
            };
            self.events += 1;
            if take_heap {
                let e = self.heap.pop().expect("peeked heap entry vanished");
                match e.ev {
                    ShardEv::Complete { node, epoch, id } => {
                        self.handle_completion(e.time, node, epoch, id, nodes);
                    }
                    ShardEv::DvfsSettle { node } => {
                        nodes[node].apply_dvfs(e.time);
                        self.refresh_completion(e.time, node, &mut nodes[node]);
                        self.touch(e.time, node, &nodes[node]);
                    }
                }
            } else {
                let (at, src, j, req) = self.inbox.pop_front().expect("peeked arrival vanished");
                self.handle_arrival(at, src, j, req, nodes);
            }
        }
    }

    /// Replay the queued Learn-stage hooks into `learn` (or discard them
    /// when no profiler is configured).
    fn drain_learn(&mut self, learn: Option<&mut LearnStage>) {
        match learn {
            Some(learn) => {
                for ev in self.learn_out.drain(..) {
                    match ev {
                        LearnEvt::Dispatch { node, url } => learn.on_dispatch(node, url),
                        LearnEvt::Complete { node, url } => learn.on_complete(node, url),
                    }
                }
            }
            None => self.learn_out.clear(),
        }
    }

    fn handle_arrival(
        &mut self,
        now: SimTime,
        src: usize,
        j: usize,
        req: Request,
        nodes: &mut [ComputeNode],
    ) {
        let is_attack = req.is_attack;
        let source_id = req.source;
        let id = req.id;
        let url = req.url;
        match nodes[j].push(now, req) {
            PushOutcome::Rejected => {
                self.record_outcome(is_attack, RequestOutcome::Dropped);
                self.outbox.push((now, src, SourceEvent::Rejected(source_id)));
            }
            PushOutcome::Accepted => {
                self.owner.insert(id, src);
                if self.learn_enabled {
                    self.learn_out.push(LearnEvt::Dispatch {
                        node: self.start + j,
                        url,
                    });
                }
                self.refresh_completion(now, j, &mut nodes[j]);
                self.touch(now, j, &nodes[j]);
            }
        }
    }

    fn handle_completion(
        &mut self,
        now: SimTime,
        j: usize,
        epoch: u64,
        id: RequestId,
        nodes: &mut [ComputeNode],
    ) {
        if nodes[j].epoch() != epoch {
            return; // stale prediction; a fresher event exists
        }
        match nodes[j].try_complete(now, id) {
            Some((req, sojourn)) => {
                let secs = sojourn.as_secs_f64();
                let outcome = if req.abandoned(sojourn) {
                    RequestOutcome::TimedOut
                } else if req.on_time(sojourn) {
                    RequestOutcome::OnTime
                } else {
                    RequestOutcome::Late
                };
                if req.is_attack {
                    self.attack_hist.record(secs);
                    self.attack_sum[j].record(secs);
                } else {
                    self.normal_hist.record(secs);
                    self.normal_sum[j].record(secs);
                }
                if self.track_completions {
                    self.completed[j] = true;
                }
                if req.attempt > 0 {
                    self.recovered += 1;
                }
                self.record_outcome(req.is_attack, outcome);
                if self.learn_enabled {
                    self.learn_out.push(LearnEvt::Complete {
                        node: self.start + j,
                        url: req.url,
                    });
                }
                if let Some(owner) = self.owner.remove(&id) {
                    self.outbox
                        .push((now, owner, SourceEvent::Completed(req.source)));
                }
                self.refresh_completion(now, j, &mut nodes[j]);
                self.touch(now, j, &nodes[j]);
            }
            None => {
                // Same epoch but residual work above tolerance — only
                // possible through float pathology; self-heal by
                // rescheduling from current state.
                self.refresh_completion(now, j, &mut nodes[j]);
            }
        }
    }

    /// Kill local node `j` (thermal trip or crash without a retry
    /// policy): in-flight requests count as SLA drops, the node is
    /// masked out of the power column. Returns the number of in-flight
    /// requests lost.
    fn kill_node(&mut self, j: usize, node: &mut ComputeNode, now: SimTime) -> u64 {
        let Shard {
            owner,
            normal_sla,
            attack_sla,
            ..
        } = self;
        let mut lost = 0u64;
        node.drain_with(now, |req| {
            let sla = if req.is_attack { &mut *attack_sla } else { &mut *normal_sla };
            sla.record(RequestOutcome::Dropped);
            owner.remove(&req.id);
            lost += 1;
        });
        self.dead[j] = true;
        self.touch(now, j, node);
        lost
    }

    /// Kill local node `j` but hand its in-flight requests back to the
    /// coordinator as `(source, request, global node)` tuples instead of
    /// dropping them — the resilience dataplane decides their fate.
    fn kill_node_collect(
        &mut self,
        j: usize,
        node: &mut ComputeNode,
        now: SimTime,
        global: usize,
        out: &mut Vec<(usize, Request, usize)>,
    ) {
        let Shard { owner, .. } = self;
        node.drain_with(now, |req| {
            let src = owner
                .remove(&req.id)
                .expect("every in-flight request has a recorded owner");
            out.push((src, req, global));
        });
        self.dead[j] = true;
        self.touch(now, j, node);
    }

    /// A crashed node finished rebooting: unmask it and refresh its
    /// columns from the fresh hardware.
    fn revive_node(&mut self, j: usize, node: &ComputeNode, now: SimTime) {
        self.dead[j] = false;
        self.touch(now, j, node);
    }

    /// The breaker opened: drop everything, zero the columns, and stop
    /// integrating — nothing is served until the end of the window.
    fn blackout(&mut self, nodes: &mut [ComputeNode], now: SimTime) {
        for (j, node) in nodes.iter_mut().enumerate() {
            self.integrate_node(now, j);
            let Shard {
                owner,
                normal_sla,
                attack_sla,
                ..
            } = self;
            node.drain_with(now, |req| {
                let sla = if req.is_attack { &mut *attack_sla } else { &mut *normal_sla };
                sla.record(RequestOutcome::Dropped);
                owner.remove(&req.id);
            });
            self.power_w[j] = 0.0;
            self.inflight[j] = 0;
        }
        self.heap.clear();
        self.inbox.clear();
    }
}

/// A retried request waiting out its timeout + backoff, ordered by
/// `(at, request id)` so the replay order is total and deterministic.
struct RetryEntry {
    at: SimTime,
    src: usize,
    req: Request,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.req.id == other.req.id
    }
}
impl Eq for RetryEntry {}
impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest retry.
        (other.at, other.req.id).cmp(&(self.at, self.req.id))
    }
}

/// The coordinator's resilience dataplane: bounded retry with jittered
/// exponential backoff plus one circuit breaker per pool (a rack under
/// a power topology, a node otherwise).
struct Resilience {
    policy: RetryConfig,
    breakers: PoolBreakers,
    /// Dedicated RNG stream for backoff jitter (`streams::RETRY`), so
    /// enabling retries never perturbs fault or workload streams.
    rng: SimRng,
    /// Retries waiting out their backoff, interleaved with source
    /// arrivals in phase A.
    pending: BinaryHeap<RetryEntry>,
    attempts: u64,
    exhausted: u64,
    rerouted: u64,
}

/// The sharded cluster engine: a sequential coordinator (sources,
/// perimeter, NLB, control plane, physics) driving parallel dataplane
/// shards with slot-aligned conservative synchronization.
pub struct ShardedClusterSim {
    config: ClusterConfig,
    horizon: SimTime,
    nodes: Vec<ComputeNode>,
    node_dead: Vec<bool>,
    nlb: Nlb,
    /// Staged perimeter: firewall + configured admission stages.
    admission: AdmissionPipeline,
    battery: Battery,
    flows: BatteryFlows,
    pipeline: ControlPipeline,
    sources: MergedSources,
    shards: Vec<Shard>,
    /// Global node index → owning shard index.
    owner_shard: Vec<usize>,
    /// Global node index → circuit-breaker pool: the owning rack when a
    /// power topology is configured (a trip isolates the physical
    /// rack), the node itself otherwise.
    breaker_pool: Vec<usize>,
    offered: u64,
    scheme_denied_drops: u64,
    normal_hist: LatencyHistogram,
    attack_hist: LatencyHistogram,
    normal_sla: SlaTracker,
    attack_sla: SlaTracker,
    /// Coordinator event count (arrivals + slots), reported alongside
    /// the shards' own counts.
    events: u64,
    /// Fault layer (sharded per-node plans), when configured.
    fault: Option<FaultLayer>,
    /// Crashed nodes waiting to reboot (`(due, global node)`), settled
    /// at slot boundaries in node-index order.
    pending_reboots: Vec<(SimTime, usize)>,
    /// DVFS settles `(time, global node)` queued by the Act and Account
    /// stages, moved into shard heaps by [`Self::queue_settles`].
    settles: Vec<(SimTime, usize)>,
    /// Recycled global per-node power vector for the topology's rack
    /// fold (concatenated shard power columns, global node order).
    node_power_scratch: Vec<f64>,
    /// Recycled per-rack power vector the rack fold produces.
    rack_power_scratch: Vec<f64>,
    /// Control-plane trace recorder, when attached. Recording is
    /// read-only — it draws no randomness and touches no model state —
    /// so a recorded run stays byte-identical to an unrecorded one.
    recorder: Option<TraceRecorder>,
    /// Retry / circuit-breaker dataplane, when configured.
    resilience: Option<Resilience>,
}

impl ShardedClusterSim {
    /// Build the engine for an experiment over the given traffic
    /// sources. Panics if `exp.cluster` fails validation.
    pub fn new(exp: &ExperimentConfig, sources: Vec<Box<dyn TrafficSource>>) -> Self {
        let scheme = scheme::build_scheme(exp.scheme, &exp.cluster);
        Self::with_scheme(exp, scheme, sources)
    }

    /// Build with an explicitly-constructed scheme.
    pub fn with_scheme(
        exp: &ExperimentConfig,
        scheme: Box<dyn PowerScheme>,
        sources: Vec<Box<dyn TrafficSource>>,
    ) -> Self {
        let cfg = exp.cluster.clone();
        cfg.validate().expect("invalid cluster config");
        let start = SimTime::ZERO;
        let mut nlb = Nlb::new(cfg.servers, scheme.forwarding_policy(&cfg))
            .expect("forwarding pools checked by ClusterConfig::validate");
        let nodes: Vec<ComputeNode> = (0..cfg.servers)
            .map(|_| ComputeNode::new(start, cfg.cores_per_server, cfg.max_inflight, cfg.dvfs_latency))
            .collect();
        let admission = cfg.build_admission(start);
        let mut battery =
            Battery::sized_for(start, cfg.aggregate_nameplate_w(), cfg.battery_sustain);

        // Near-even contiguous partition: the first `servers % shards`
        // shards own one extra node.
        let master = RngFactory::new(exp.seed);
        let ranges = near_even(cfg.servers, cfg.shards);
        let mut owner_shard = vec![0usize; cfg.servers];
        for (i, &(at, len)) in ranges.iter().enumerate() {
            owner_shard[at..at + len].fill(i);
        }

        // One deterministic fault plan over every node. Each node draws
        // from its own stream, so the fault schedule is independent of
        // the partition.
        let fault = cfg.faults.as_ref().map(|fc| {
            let plan = ShardFaultPlan::new(fc.clone(), cfg.servers, 0, cfg.servers, &master)
                .expect("fault plan checked by ClusterConfig::validate");
            let keep = plan.battery_capacity_factor();
            if keep < 1.0 {
                battery.derate(keep);
            }
            FaultLayer::new(plan)
        });
        let idle_total: f64 = nodes.iter().map(|n| n.power_w()).sum();
        let pipeline =
            ControlPipeline::new(&cfg, scheme, start, fault.is_some(), idle_total);

        // Circuit-breaker pools are physical: a rack under a power
        // topology (a trip isolates the rack), a node otherwise.
        let (pool_count, breaker_pool) = match pipeline.topology.as_ref() {
            Some(t) => (t.topo.racks(), t.topo.owner_rack().to_vec()),
            None => (cfg.servers, (0..cfg.servers).collect()),
        };
        // The NLB learns the same placement: routing prefers a URL's
        // home rack, so a rack trip only displaces the flows homed
        // there instead of reshuffling the whole cluster. A single rack
        // is every URL's home, so it routes placement-blind.
        if let Some(t) = pipeline.topology.as_ref().filter(|t| t.topo.racks() > 1) {
            let placement =
                netsim::RackPlacement::new(t.topo.racks(), t.topo.owner_rack().to_vec())
                    .expect("topology checked by ClusterConfig::validate");
            nlb.set_placement(placement)
                .expect("placement covers every backend by construction");
        }
        let resilience = cfg.retry.as_ref().map(|policy| Resilience {
            breakers: PoolBreakers::new(
                pool_count,
                policy.breaker_failure_threshold,
                policy.breaker_cooldown,
            ),
            rng: master.stream(streams::RETRY),
            pending: BinaryHeap::new(),
            attempts: 0,
            exhausted: 0,
            rerouted: 0,
            policy: policy.clone(),
        });
        let track_completions = cfg.retry.as_ref().is_some_and(RetryConfig::breaker_enabled);

        let learn_enabled = pipeline.learn.is_some();
        let shards: Vec<Shard> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(at, len))| {
                Shard::new(i, at, &nodes[at..at + len], &master, learn_enabled, track_completions)
            })
            .collect();

        ShardedClusterSim {
            horizon: start + exp.duration,
            nodes,
            node_dead: vec![false; cfg.servers],
            nlb,
            admission,
            battery,
            flows: BatteryFlows::default(),
            pipeline,
            sources: MergedSources::new(sources),
            shards,
            owner_shard,
            breaker_pool,
            offered: 0,
            scheme_denied_drops: 0,
            normal_hist: LatencyHistogram::for_latency_secs(),
            attack_hist: LatencyHistogram::for_latency_secs(),
            normal_sla: SlaTracker::new(),
            attack_sla: SlaTracker::new(),
            events: 0,
            fault,
            pending_reboots: Vec::new(),
            settles: Vec::new(),
            node_power_scratch: Vec::new(),
            rack_power_scratch: Vec::new(),
            recorder: None,
            resilience,
            config: cfg,
        }
    }

    /// Attach a control-plane trace recorder; every subsequent slot is
    /// captured until [`Self::take_recorder`] collects it.
    pub fn attach_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Detach the trace recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<TraceRecorder> {
        self.recorder.take()
    }

    /// Run an experiment to completion and produce the report.
    pub fn run(exp: &ExperimentConfig, sources: Vec<Box<dyn TrafficSource>>) -> SimReport {
        let scheme = scheme::build_scheme(exp.scheme, &exp.cluster);
        Self::run_with_scheme(exp, scheme, sources)
    }

    /// Run with an explicitly-constructed scheme.
    pub fn run_with_scheme(
        exp: &ExperimentConfig,
        scheme: Box<dyn PowerScheme>,
        sources: Vec<Box<dyn TrafficSource>>,
    ) -> SimReport {
        let mut sim = Self::with_scheme(exp, scheme, sources);
        let horizon = sim.horizon;
        sim.drive_to(horizon);
        sim.finalize(exp, horizon)
    }

    /// Run an experiment while recording the control-plane trace: the
    /// per-slot telemetry, decisions, and actions the live replay
    /// backend needs to reproduce the control sequence bit-exactly.
    pub fn run_recorded(
        exp: &ExperimentConfig,
        sources: Vec<Box<dyn TrafficSource>>,
    ) -> (SimReport, ControlTrace) {
        let scheme = scheme::build_scheme(exp.scheme, &exp.cluster);
        let mut sim = Self::with_scheme(exp, scheme, sources);
        sim.attach_recorder(TraceRecorder::new(exp));
        let horizon = sim.horizon;
        sim.drive_to(horizon);
        let trace = sim
            .take_recorder()
            .expect("recorder attached above")
            .finish();
        (sim.finalize(exp, horizon), trace)
    }

    /// The slot loop: advance window, boundary, repeat to the horizon.
    fn drive_to(&mut self, horizon: SimTime) {
        let slot = self.config.control_slot;
        let mut t0 = SimTime::ZERO;
        loop {
            let t1 = t0 + slot;
            if t1 <= horizon {
                self.advance_window(t1);
                self.boundary(t1);
                t0 = t1;
            } else {
                if t0 < horizon {
                    self.advance_window(horizon);
                }
                break;
            }
        }
    }

    /// The shards (exposed for tests and probes).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Phase A + phase B: route this window's arrivals (interleaved
    /// with due retries in time order), then advance every shard to
    /// `t1` in parallel.
    fn advance_window(&mut self, t1: SimTime) {
        if self.pipeline.account.outage().is_some() {
            // Dark data center: the feed is open; nothing is served.
            // (`begin_outage` already drained any pending retries.)
            while let Some((i, t, req)) = self.sources.next_arrival_up_to(t1) {
                self.offered += 1;
                self.events += 1;
                self.record_outcome(req.is_attack, RequestOutcome::Dropped);
                self.sources.feedback(t, i, SourceEvent::Rejected(req.source));
            }
            return;
        }
        // Merge the source feed with the retry queue. `next_arrival_up_to`
        // consumes its arrival, so one is buffered while the retry heap
        // is consulted; ties deliver the retry first (it failed earlier,
        // so its logical arrival predates the fresh request).
        let mut buffered: Option<(usize, SimTime, Request)> = None;
        loop {
            if buffered.is_none() {
                buffered = self.sources.next_arrival_up_to(t1);
            }
            let retry_at = self
                .resilience
                .as_ref()
                .and_then(|r| r.pending.peek())
                .map(|e| e.at)
                .filter(|&at| at <= t1);
            let take_retry = match (retry_at, buffered.as_ref()) {
                (None, None) => break,
                (None, Some(_)) => false,
                (Some(_), None) => true,
                (Some(ra), Some(&(_, ta, _))) => ra <= ta,
            };
            if take_retry {
                let e = self
                    .resilience
                    .as_mut()
                    .expect("retry heap implies a policy")
                    .pending
                    .pop()
                    .expect("peeked retry entry vanished");
                self.events += 1;
                self.dispatch(e.at, e.src, e.req);
            } else {
                let (i, t, req) = buffered.take().expect("checked above");
                self.events += 1;
                self.route_arrival(t, i, req);
            }
        }
        let Self { shards, nodes, .. } = self;
        let mut slices: Vec<&mut [ComputeNode]> = Vec::with_capacity(shards.len());
        let mut rest: &mut [ComputeNode] = nodes;
        for sh in shards.iter() {
            let (head, tail) = rest.split_at_mut(sh.len());
            slices.push(head);
            rest = tail;
        }
        par::map(shards.iter_mut().zip(slices).collect(), |(sh, slice)| {
            sh.advance(slice, t1)
        });
    }

    /// Phase A per arrival: perimeter, admission, routing — in global
    /// arrival order, so the counts it produces are independent of the
    /// shard layout.
    fn route_arrival(&mut self, now: SimTime, src_idx: usize, req: Request) {
        self.offered += 1;
        let is_attack = req.is_attack;
        let source_id = req.source;

        // 1. Staged admission perimeter (firewall first, then any
        // configured stages; first denial wins). A firewall denial is a
        // perimeter detection the source can observe; every other stage
        // looks like a 503.
        match self.admission.decide(now, &req) {
            AdmissionDecision::Admit => {}
            AdmissionDecision::Deny(StageKind::Firewall) => {
                self.record_outcome(is_attack, RequestOutcome::Dropped);
                self.sources.feedback(now, src_idx, SourceEvent::Blocked(source_id));
                return;
            }
            AdmissionDecision::Deny(_) => {
                self.record_outcome(is_attack, RequestOutcome::Dropped);
                self.sources.feedback(now, src_idx, SourceEvent::Rejected(source_id));
                return;
            }
        }

        // 2. Scheme admission (Token's power bucket).
        if !self.pipeline.decide.admit(now, &req) {
            self.scheme_denied_drops += 1;
            self.record_outcome(is_attack, RequestOutcome::Dropped);
            self.sources.feedback(now, src_idx, SourceEvent::Rejected(source_id));
            return;
        }

        // 3. Forward into the owning shard's inbox.
        self.dispatch(now, src_idx, req);
    }

    /// Route a request (fresh or retried) through the NLB into a shard
    /// inbox. With a resilience policy, a dispatch aimed at a breaker-
    /// blocked pool is re-routed to a surviving pool, and a dispatch
    /// landing on a dead node becomes a failed attempt (retried after
    /// timeout + backoff) instead of a silent drop.
    fn dispatch(&mut self, now: SimTime, src_idx: usize, req: Request) {
        let mut target = self.nlb.route(&req);
        let pool = self.breaker_pool[target];
        let blocked = match self.resilience.as_mut() {
            Some(r) if r.policy.breaker_enabled() => !r.breakers.allows(pool, now),
            _ => false,
        };
        if blocked {
            if let Some(alt) = self.pick_alternate(now) {
                target = alt;
                self.resilience
                    .as_mut()
                    .expect("blocked pool implies a policy")
                    .rerouted += 1;
            }
        }
        if self.node_dead[target] {
            if self.resilience.is_some() {
                self.attempt_failed(now, src_idx, req, target);
            } else {
                self.record_outcome(req.is_attack, RequestOutcome::Dropped);
                self.sources
                    .feedback(now, src_idx, SourceEvent::Rejected(req.source));
            }
            return;
        }
        let s = self.owner_shard[target];
        let local = target - self.shards[s].start();
        self.shards[s].enqueue_arrival(now, src_idx, local, req);
        if self.shards.len() == 1 && self.shards[0].inbox.len() >= INBOX_BOUND {
            self.flush_single_shard(now);
        }
    }

    /// Advance the only shard to `now` so its inbox stays bounded:
    /// events only — energy integration still closes at the slot
    /// boundary — then drain its queued Learn hooks. Routing reads no
    /// shard state between boundaries and arrivals are routed in
    /// nondecreasing time, so this changes no event order.
    fn flush_single_shard(&mut self, now: SimTime) {
        let Self { shards, nodes, pipeline, .. } = self;
        shards[0].run_until(nodes, now);
        shards[0].drain_learn(pipeline.learn.as_mut());
    }

    /// First alive node in an unblocked pool, scanning from node 0 —
    /// deterministic, and biased toward low-index pools the same way for
    /// every request, which the per-slot NLB load sync then corrects.
    fn pick_alternate(&self, now: SimTime) -> Option<usize> {
        let r = self.resilience.as_ref()?;
        (0..self.nodes.len())
            .find(|&g| !self.node_dead[g] && !r.breakers.blocked(self.breaker_pool[g], now))
    }

    /// A dispatch attempt failed (dead node or crash-drained in-flight
    /// request). Charge the target's pool breaker, then either schedule
    /// a retry after timeout + jittered exponential backoff or — with
    /// the attempt budget exhausted — record the final drop.
    fn attempt_failed(&mut self, now: SimTime, src_idx: usize, req: Request, target: usize) {
        let pool = self.breaker_pool[target];
        let exhausted = {
            let r = self
                .resilience
                .as_mut()
                .expect("failed attempts are only raised with a policy");
            if r.policy.breaker_enabled() {
                r.breakers.on_failure(pool, now);
            }
            if req.attempt + 1 < r.policy.max_attempts {
                let backoff = r.policy.backoff(req.attempt, &mut r.rng);
                let mut req = req;
                req.attempt += 1;
                r.attempts += 1;
                r.pending.push(RetryEntry {
                    at: now + r.policy.timeout + backoff,
                    src: src_idx,
                    req,
                });
                None
            } else {
                r.exhausted += 1;
                Some(req)
            }
        };
        if let Some(req) = exhausted {
            self.record_outcome(req.is_attack, RequestOutcome::Dropped);
            self.sources
                .feedback(now, src_idx, SourceEvent::Rejected(req.source));
        }
    }

    fn record_outcome(&mut self, is_attack: bool, outcome: RequestOutcome) {
        if is_attack {
            self.attack_sla.record(outcome);
        } else {
            self.normal_sla.record(outcome);
        }
    }

    fn integrate_battery(&mut self, now: SimTime) {
        let flow = self.battery.advance(now);
        match self.battery.mode() {
            BatteryMode::Discharging(_) => {
                self.flows.discharge_w = flow;
            }
            BatteryMode::Charging(_) => {
                self.flows.charge_w = flow;
            }
            BatteryMode::Idle => {
                self.flows = BatteryFlows::default();
            }
        }
    }

    /// The slot-boundary power aggregate: one flat scan over the shards'
    /// power columns *in global node order*. One accumulator, one
    /// addition order, regardless of how many shards the nodes are split
    /// into — this is what makes control decisions (and therefore every
    /// discrete count) bit-identical across shard layouts.
    fn aggregate_power_w(&self) -> f64 {
        let mut total = 0.0;
        for sh in &self.shards {
            for &p in sh.power_col() {
                total += p;
            }
        }
        total
    }

    /// Drain shard outboxes: learn-hook replays (count increments,
    /// order-insensitive) and source feedback. Each outbox is sorted in
    /// place, descending, on the total key [`feedback_key`]; the shards
    /// are then merged by popping the least tail. Equal keys are
    /// identical elements, so delivery order is independent of the
    /// shard layout.
    fn drain_shard_outboxes(&mut self, now: SimTime) {
        let Self { shards, sources, pipeline, .. } = self;
        for sh in shards.iter_mut() {
            sh.drain_learn(pipeline.learn.as_mut());
            sh.outbox
                .sort_unstable_by_key(|e| std::cmp::Reverse(feedback_key(e)));
        }
        while let Some((_, s)) = shards
            .iter()
            .enumerate()
            .filter_map(|(s, sh)| sh.outbox.last().map(|e| (feedback_key(e), s)))
            .min()
        {
            let (_, src, ev) = shards[s].outbox.pop().expect("merged tail vanished");
            sources.feedback(now, src, ev);
        }
    }

    /// Move the settles the control stages queued in `self.settles`
    /// into the owning shards' event heaps.
    fn queue_settles(&mut self) {
        let Self { settles, shards, owner_shard, .. } = self;
        for (time, node) in settles.drain(..) {
            let sh = &mut shards[owner_shard[node]];
            let local = node - sh.start();
            sh.push_settle(time, local);
        }
    }

    /// Thermal boundary pass: PROCHOT clamps become shard settle events;
    /// critical trips kill the node inside its owning shard.
    fn thermal_boundary(&mut self, now: SimTime) {
        let mut tripped = std::mem::take(&mut self.pipeline.tripped);
        {
            let Self { pipeline, nodes, node_dead, settles, .. } = self;
            pipeline
                .account
                .advance_thermals(now, nodes, node_dead, settles, &mut tripped);
        }
        self.queue_settles();
        for &i in &tripped {
            self.node_dead[i] = true;
            let s = self.owner_shard[i];
            let local = i - self.shards[s].start();
            if self.resilience.is_some() {
                let mut lost = Vec::new();
                self.shards[s].kill_node_collect(local, &mut self.nodes[i], now, i, &mut lost);
                for (src, req, node) in lost {
                    self.attempt_failed(now, src, req, node);
                }
            } else {
                self.shards[s].kill_node(local, &mut self.nodes[i], now);
            }
            self.forget(i, ForgetKind::Learn);
        }
        tripped.clear();
        self.pipeline.tripped = tripped;
    }

    /// Settle due reboots (slot-aligned). Fresh hardware replaces the crashed node, cumulative
    /// counters are retired into the fault layer, and — without a retry
    /// policy — the oracle failure detector puts it back in rotation.
    fn process_reboots(&mut self, now: SimTime) {
        if self.pending_reboots.is_empty() {
            return;
        }
        let mut due: Vec<usize> = self
            .pending_reboots
            .iter()
            .filter(|&&(t, _)| t <= now)
            .map(|&(_, n)| n)
            .collect();
        self.pending_reboots.retain(|&(t, _)| t > now);
        due.sort_unstable();
        for node in due {
            if !self.node_dead[node] {
                continue;
            }
            {
                let Self { nodes, fault, config, .. } = self;
                let f = fault
                    .as_mut()
                    .expect("reboots only scheduled with a fault plan");
                f.retired_rejected += nodes[node].rejected();
                f.retired_transitions += nodes[node].dvfs_transitions();
                nodes[node] = ComputeNode::new(
                    now,
                    config.cores_per_server,
                    config.max_inflight,
                    config.dvfs_latency,
                );
                f.record_reboot();
            }
            self.forget(node, ForgetKind::Learn);
            self.node_dead[node] = false;
            let s = self.owner_shard[node];
            let local = node - self.shards[s].start();
            self.shards[s].revive_node(local, &self.nodes[node], now);
            if self.resilience.is_none() {
                self.nlb.set_health(node, true);
                self.nlb.report_load(node, 0);
            }
        }
    }

    /// Kill nodes whose injected crash is due: with a retry policy the
    /// drained in-flight requests become failed attempts (the NLB is
    /// *not* told — failure is observed end-to-end through timeouts and
    /// breakers); without one they are dropped and the oracle detector
    /// routes around the corpse.
    fn process_crashes(&mut self, now: SimTime) {
        let mut lost_reqs: Vec<(usize, Request, usize)> = Vec::new();
        for g in 0..self.nodes.len() {
            if self.node_dead[g] {
                continue;
            }
            let due = match self.fault.as_mut() {
                Some(f) => f.crash_due(now, g),
                None => return,
            };
            if !due {
                continue;
            }
            self.node_dead[g] = true;
            let s = self.owner_shard[g];
            let local = g - self.shards[s].start();
            let lost = if self.resilience.is_some() {
                let before = lost_reqs.len();
                self.shards[s].kill_node_collect(local, &mut self.nodes[g], now, g, &mut lost_reqs);
                (lost_reqs.len() - before) as u64
            } else {
                self.shards[s].kill_node(local, &mut self.nodes[g], now)
            };
            let f = self.fault.as_mut().expect("crash implies a fault plan");
            f.lost_to_crash += lost;
            let reboot_after = f.config().reboot_after;
            self.forget(g, ForgetKind::Full);
            if self.resilience.is_none() {
                self.nlb.set_health(g, false);
                self.nlb.report_load(g, 0);
            }
            if !reboot_after.is_zero() {
                self.pending_reboots.push((now + reboot_after, g));
            }
        }
        for (src, req, node) in lost_reqs {
            self.attempt_failed(now, src, req, node);
        }
    }

    /// The hierarchical topology's slot pass: fold per-node power into
    /// per-rack feeds (global node order, so the aggregates are
    /// shard-layout-independent), cascade the budget allocations, and
    /// evaluate every level's breaker. A rack whose breaker opens loses
    /// power: every node on it dies, latched, with no reboot — a
    /// rack-local outage instead of the facility-wide one.
    fn topology_boundary(&mut self, now: SimTime) {
        let fresh = {
            let Self { shards, node_power_scratch, rack_power_scratch, pipeline, .. } = self;
            node_power_scratch.clear();
            for sh in shards.iter() {
                node_power_scratch.extend_from_slice(sh.power_col());
            }
            let topo = pipeline
                .topology
                .as_mut()
                .expect("topology_boundary requires a configured topology");
            topo.topo.rack_powers(node_power_scratch, rack_power_scratch);
            topo.observe_racks(now, rack_power_scratch);
            topo.verdict.newly_tripped_racks.clone()
        };
        for r in fresh {
            self.trip_rack(now, r);
        }
    }

    /// Rack `rack`'s breaker opened: kill every node it feeds. With a
    /// retry policy the drained in-flights become failed attempts
    /// (timeouts and per-pool breakers observe the dark rack
    /// end-to-end); without one they are dropped and the oracle
    /// detector routes around the corpses — the same split as
    /// [`Self::process_crashes`].
    fn trip_rack(&mut self, now: SimTime, rack: usize) {
        let (start, len) = self
            .pipeline
            .topology
            .as_ref()
            .expect("rack trips come from the topology pass")
            .topo
            .rack_range(rack);
        let mut lost_reqs: Vec<(usize, Request, usize)> = Vec::new();
        for g in start..start + len {
            if self.node_dead[g] {
                continue;
            }
            self.node_dead[g] = true;
            let s = self.owner_shard[g];
            let local = g - self.shards[s].start();
            if self.resilience.is_some() {
                self.shards[s].kill_node_collect(local, &mut self.nodes[g], now, g, &mut lost_reqs);
            } else {
                self.shards[s].kill_node(local, &mut self.nodes[g], now);
            }
            self.forget(g, ForgetKind::Full);
            if self.resilience.is_none() {
                self.nlb.set_health(g, false);
                self.nlb.report_load(g, 0);
            }
        }
        for (src, req, node) in lost_reqs {
            self.attempt_failed(now, src, req, node);
        }
    }

    /// Reset `node`'s control-plane state and carry the event to the
    /// trace recorder, whose next slot replays it on the live side.
    fn forget(&mut self, node: usize, kind: ForgetKind) {
        self.pipeline.forget_node(Forget { node, kind });
        if let Some(rec) = &mut self.recorder {
            rec.note_forget(node, kind);
        }
    }

    /// The breaker opened: every in-flight request is lost and nothing
    /// is served until the end of the window.
    fn begin_outage(&mut self, now: SimTime) {
        // Retries waiting out their backoff have nowhere to land — the
        // whole facility is dark. They become final drops.
        let mut orphans = Vec::new();
        if let Some(r) = self.resilience.as_mut() {
            while let Some(e) = r.pending.pop() {
                orphans.push(e);
            }
        }
        for e in orphans {
            self.record_outcome(e.req.is_attack, RequestOutcome::Dropped);
            self.sources
                .feedback(now, e.src, SourceEvent::Rejected(e.req.source));
        }
        {
            let Self { shards, nodes, .. } = self;
            for sh in shards.iter_mut() {
                let range = sh.start()..sh.start() + sh.len();
                sh.blackout(&mut nodes[range], now);
            }
        }
        if self.pipeline.learn.is_some() {
            for i in 0..self.config.servers {
                self.forget(i, ForgetKind::Learn);
            }
        }
        self.battery.stop(now);
        self.flows = BatteryFlows::default();
        self.pipeline.account.sync_power_total(now, 0.0, &self.flows);
    }

    /// Phase C: the slot boundary at `now` — physics, then the staged
    /// control plane (Sense → Filter → Learn → Decide → Act → Account),
    /// the same stage code the live backends drive.
    fn boundary(&mut self, now: SimTime) {
        self.events += 1;
        self.drain_shard_outboxes(now);
        // Per-pool breaker success signal: any completion from a pool
        // this slot proves it is serving again. Per-node completion
        // flags are folded in global node order (`on_success` is
        // idempotent within a slot), so the signal is
        // shard-layout-invariant. Flags are set only with the breaker
        // armed.
        if let Some(r) = self.resilience.as_mut() {
            for sh in &mut self.shards {
                let at = sh.start;
                for (j, done) in sh.completed.iter_mut().enumerate() {
                    if std::mem::take(done) {
                        r.breakers.on_success(self.breaker_pool[at + j]);
                    }
                }
            }
        }
        self.integrate_battery(now);
        let total = self.aggregate_power_w();
        {
            let Self { pipeline, flows, .. } = self;
            pipeline.account.sync_power_total(now, total, flows);
        }
        if self.fault.is_some() {
            self.process_reboots(now);
            self.process_crashes(now);
            let total = self.aggregate_power_w();
            let Self { pipeline, flows, .. } = self;
            pipeline.account.sync_power_total(now, total, flows);
        }
        if self.pipeline.account.thermals.is_some() {
            self.thermal_boundary(now);
            let total = self.aggregate_power_w();
            let Self { pipeline, flows, .. } = self;
            pipeline.account.sync_power_total(now, total, flows);
        }
        if self.pipeline.topology.is_some() {
            self.topology_boundary(now);
            let total = self.aggregate_power_w();
            let Self { pipeline, flows, .. } = self;
            pipeline.account.sync_power_total(now, total, flows);
        }
        let n_nodes = self.nodes.len();
        if self.pipeline.account.breaker_tripped(now, &self.flows, n_nodes) {
            self.begin_outage(now);
        }
        if self.pipeline.account.outage().is_some() {
            let soc = self.battery.soc();
            self.pipeline.account.record_outage_slot(now, soc);
            return;
        }

        // Sense → run_slot → Act. Queued settles move into shard heaps;
        // power and V/F cannot change before the commands settle, so
        // the pre-enact aggregate stands.
        {
            let Self {
                pipeline,
                nodes,
                node_dead,
                nlb,
                battery,
                flows,
                config,
                fault,
                recorder,
                settles,
                ..
            } = self;
            let readings = pipeline.sense.run(now, nodes, node_dead, fault.as_mut());
            // Pre-sweep commanded states: what the read-back verifier is
            // about to check against, captured for trace replay.
            let readback = match (&recorder, &pipeline.act.verify) {
                (Some(_), Some(_)) => {
                    Some(nodes.iter().map(|n| n.target_pstate().0).collect::<Vec<u8>>())
                }
                _ => None,
            };
            let mut plant = NodePlant {
                nodes,
                node_dead,
                true_power_w: pipeline.account.cluster_power_w(),
                readings: readings.as_deref(),
                battery: BatteryObs {
                    soc: battery.soc(),
                    stored_j: battery.stored_j(),
                    discharge_w: flows.discharge_w,
                    charge_w: flows.charge_w,
                },
                fault: fault.as_mut(),
                settles,
            };
            let (view, classes_changed) = pipeline.run_slot(now, config, &mut plant);
            if classes_changed {
                let learn = pipeline.learn.as_ref().expect("only Learn changes classes");
                nlb.publish_classes(learn.engine.list().classes());
            }
            if let Some(rec) = recorder.as_mut() {
                rec.capture_slot(now, &plant, readback, &view, pipeline);
            }
            let mut actions = std::mem::take(&mut pipeline.actions);
            act::enact(
                now,
                &mut actions,
                ActCtx { nodes, node_dead, battery, flows, fault: fault.as_mut() },
                settles,
            );
            pipeline.actions = actions;
            pipeline.sense.recycle(readings);
        }
        self.queue_settles();

        // Slot-batched NLB load refresh + V/F stats, both as flat scans
        // over the data-oriented columns.
        {
            let Self { shards, nlb, .. } = self;
            for sh in shards.iter() {
                nlb.sync_loads(sh.start(), sh.inflight_col());
            }
        }
        let mut vf_sum = 0.0;
        let mut vf_max = 0u8;
        for sh in &self.shards {
            for &v in sh.vf_col() {
                vf_sum += v as f64;
                vf_max = vf_max.max(v);
            }
        }
        let mean_vf = vf_sum / self.nodes.len() as f64;
        let soc = self.battery.soc();
        self.pipeline.account.record_slot_stats(now, mean_vf, vf_max, soc);
    }

    fn finalize(&mut self, exp: &ExperimentConfig, horizon: SimTime) -> SimReport {
        // Close every shard's integration interval and merge metrics in
        // shard-index order (counter additions are layout-independent).
        let mut shard_events = 0u64;
        let mut recovered = 0u64;
        for sh in &mut self.shards {
            sh.integrate_all(horizon);
            shard_events += sh.events;
            recovered += sh.recovered;
            self.normal_hist.merge(&sh.normal_hist);
            self.attack_hist.merge(&sh.attack_hist);
            self.normal_sla.merge(&sh.normal_sla);
            self.attack_sla.merge(&sh.attack_sla);
        }
        // Float folds walk nodes in *global* order with one accumulator,
        // so the sums (and the Chan-merged latency summaries) come out
        // byte-identical at any shard count.
        let mut load_j = 0.0;
        let mut normal_sum = OnlineSummary::new();
        let mut attack_sum = OnlineSummary::new();
        for sh in &self.shards {
            for &j in &sh.joules {
                load_j += j;
            }
            for s in &sh.normal_sum {
                normal_sum.merge(s);
            }
            for s in &sh.attack_sum {
                attack_sum.merge(s);
            }
        }
        // With a topology, the cluster total is *defined* as the fold of
        // the per-rack sub-folds (each contiguous in global node order),
        // so per-rack energies sum to the reported total exactly — the
        // conservation identity the topology tests pin down. Rack
        // membership is shard-layout-independent, so this fold is too.
        let (topology, load_j) = match self.pipeline.topology.take() {
            Some(t) => {
                let mut rack_energy = vec![0.0; t.topo.racks()];
                let mut g = 0usize;
                for sh in &self.shards {
                    for &j in &sh.joules {
                        rack_energy[t.topo.rack_of(g)] += j;
                        g += 1;
                    }
                }
                let total: f64 = rack_energy.iter().sum();
                (Some(t.into_report(rack_energy)), total)
            }
            None => (None, load_j),
        };
        self.normal_hist.set_summary(normal_sum);
        self.attack_hist.set_summary(attack_sum);
        // Censor in-flight requests: count those past their client
        // timeout as timed out.
        {
            let Self { nodes, attack_sla, normal_sla, .. } = self;
            for node in nodes.iter_mut() {
                node.drain_with(horizon, |req| {
                    if let Some(sojourn) = horizon.checked_since(req.arrival) {
                        if req.abandoned(sojourn) {
                            let sla =
                                if req.is_attack { &mut *attack_sla } else { &mut *normal_sla };
                            sla.record(RequestOutcome::TimedOut);
                        }
                    }
                });
            }
        }
        let account = &self.pipeline.account;
        let monitor = &self.pipeline.filter.monitor;
        let firewall_blocked = self.admission.firewall_blocked();
        let admission_denied = self.admission.stage_denied();
        let queue_rejected: u64 = self.nodes.iter().map(|n| n.rejected()).sum::<u64>()
            + self.fault.as_ref().map_or(0, |f| f.retired_rejected);
        let drops = firewall_blocked + admission_denied + self.scheme_denied_drops + queue_rejected;
        let duration_s = horizon.as_secs_f64();
        let supply_w = monitor.budget().supply_w;

        let thin = |ts: &TimeSeries| -> Vec<(f64, f64)> {
            ts.thin(600)
                .into_iter()
                .map(|(t, v)| (t.as_secs_f64(), v))
                .collect()
        };
        // Energy identities (computed from the shards' exact load
        // integral and the battery's own exact flow counters):
        // utility = load − discharge + charge.
        let battery_j = self.battery.total_discharged_j().min(load_j);
        let charge_j = self.battery.total_charge_drawn_j();
        let utility_j = (load_j - battery_j).max(0.0) + charge_j;

        SimReport {
            label: exp.label.clone(),
            scheme: self.pipeline.decide.scheme.name().to_string(),
            budget: self.config.budget.name().to_string(),
            duration_s,
            seed: exp.seed,
            normal_latency: LatencySummary::from_histogram(&self.normal_hist),
            attack_latency: LatencySummary::from_histogram(&self.attack_hist),
            normal_sla: self.normal_sla,
            attack_sla: self.attack_sla,
            power: PowerReport {
                supply_w,
                peak_w: account.power_series.max_value().unwrap_or(0.0),
                avg_w: load_j / duration_s.max(1e-9),
                violations: monitor.violations(),
                outage_at_s: account.outage().map(|t| t.as_secs_f64()),
                violation_fraction: if monitor.lifetime().count() == 0 {
                    0.0
                } else {
                    monitor.violations() as f64 / monitor.lifetime().count() as f64
                },
                series: thin(&account.power_series),
            },
            battery: BatteryReport {
                capacity_j: self.battery.capacity_j(),
                min_soc: account.battery_series.min_value().unwrap_or(1.0),
                final_soc: self.battery.soc(),
                episodes: self.battery.discharge_episodes(),
                discharged_j: self.battery.total_discharged_j(),
                charge_drawn_j: self.battery.total_charge_drawn_j(),
                series: thin(&account.battery_series),
            },
            energy: EnergyReport {
                utility_j,
                battery_j,
                load_j,
                normalized_utility: utility_j / (supply_w * duration_s).max(1e-9),
            },
            vf: VfReport {
                mean_reduction_steps: account.vf_summary.mean(),
                max_reduction_steps: account.max_vf,
                transitions: self.nodes.iter().map(|n| n.dvfs_transitions()).sum::<u64>()
                    + self.fault.as_ref().map_or(0, |f| f.retired_transitions),
            },
            thermal: match &account.thermals {
                None => ThermalReport::default(),
                Some(ths) => ThermalReport {
                    peak_temp_c: ths.iter().map(|t| t.peak_c()).fold(0.0, f64::max),
                    prochot_events: ths.iter().map(|t| t.prochot_events()).sum(),
                    tripped_nodes: self.node_dead.iter().filter(|&&d| d).count() as u64,
                },
            },
            traffic: TrafficReport {
                offered: self.offered,
                firewall_blocked,
                scheme_denied: self.pipeline.decide.scheme.denied(),
                queue_rejected,
                to_suspect_pool: self.nlb.to_suspect_pool(),
                drop_rate: if self.offered == 0 {
                    0.0
                } else {
                    drops as f64 / self.offered as f64
                },
            },
            profiler: self.pipeline.learn.as_ref().map(|l| l.report()),
            faults: self.fault.as_ref().map(|f| {
                let counts = f.counts();
                let watchdog = &self
                    .pipeline
                    .filter
                    .hardening
                    .as_ref()
                    .expect("fault layer implies hardening")
                    .watchdog;
                let verify = self
                    .pipeline
                    .act
                    .verify
                    .as_ref()
                    .expect("fault layer implies read-back verification");
                FaultReport {
                    sensor_dropouts: counts.sensor_dropouts,
                    sensor_stuck: counts.sensor_stuck,
                    sensor_stale: counts.sensor_stale,
                    blackout_samples: counts.blackout_samples,
                    actuator_lost: counts.actuator_lost,
                    actuator_delayed: counts.actuator_delayed,
                    actuator_stuck: counts.actuator_stuck,
                    crashes: counts.crashes,
                    reboots: counts.reboots,
                    lost_to_crash: f.lost_to_crash,
                    charger_blocked_slots: f.charger_blocked_slots,
                    actuator_retries: verify.retries(),
                    actuator_giveups: verify.giveups(),
                    degraded_slots: watchdog.degraded_slots(),
                    degraded_episodes: watchdog.episodes(),
                    time_degraded_s: watchdog.time_degraded(horizon).as_secs_f64(),
                    mttr_s: watchdog.mttr_s().unwrap_or(0.0),
                }
            }),
            retry: self.resilience.as_ref().map(|r| RetryReport {
                attempts: r.attempts,
                recovered,
                exhausted: r.exhausted,
                breaker_trips: r.breakers.trips(),
                rerouted: r.rerouted,
            }),
            admission: self
                .config
                .admission
                .is_some()
                .then(|| self.admission.report()),
            topology,
            events: self.events + shard_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::testutil;
    use powercap::budget::BudgetLevel;
    use simcore::SimDuration;
    use workloads::attacker::AttackTool;
    use workloads::scenario::{ScenarioBuilder, SeedPin};
    use workloads::service::ServiceKind;

    fn exp(shards: usize, scheme: SchemeKind, secs: u64) -> ExperimentConfig {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
        cluster.shards = shards;
        ExperimentConfig {
            cluster,
            scheme,
            duration: SimDuration::from_secs(secs),
            seed: 2019,
            label: "shard-test".to_string(),
        }
    }

    fn sources(e: &ExperimentConfig) -> Vec<Box<dyn TrafficSource>> {
        testutil::users(120.0)
            .with_attack(AttackTool::HttpLoad { rate: 400.0 }, ServiceKind::CollaFilt, 40, 5)
            .pinned(50_000, 1 << 40, SeedPin::Xor(0xABCD))
            .build(e.seed, SimTime::ZERO + e.duration)
    }

    fn run(shards: usize, scheme: SchemeKind, secs: u64) -> SimReport {
        let e = exp(shards, scheme, secs);
        ShardedClusterSim::run(&e, sources(&e))
    }

    #[test]
    fn shard_partition_is_near_even_and_contiguous() {
        let e = exp(3, SchemeKind::AntiDope, 30);
        let sim = ShardedClusterSim::new(&e, sources(&e));
        let sizes: Vec<usize> = sim.shards().iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![6, 5, 5]);
        let starts: Vec<usize> = sim.shards().iter().map(|s| s.start()).collect();
        assert_eq!(starts, vec![0, 6, 11]);
        // Every shard owns a distinct RNG stream space.
        let a = sim.shards()[0].rng_factory().master_seed();
        let b = sim.shards()[1].rng_factory().master_seed();
        assert_ne!(a, b);
    }

    #[test]
    fn flooded_inbox_stays_within_its_bound() {
        // 10,000 req/s on one shard: several inbox-fulls per slot, so
        // only the mid-slot advance keeps the inbox small.
        let e = exp(1, SchemeKind::AntiDope, 10);
        let horizon = SimTime::ZERO + e.duration;
        let flood = ScenarioBuilder::new()
            .with_attack(AttackTool::HttpLoad { rate: 10_000.0 }, ServiceKind::CollaFilt, 40, 0)
            .pinned(50_000, 1 << 40, SeedPin::Raw);
        let mut sim = ShardedClusterSim::new(&e, flood.build(e.seed, horizon));
        sim.drive_to(horizon);
        let sh = &sim.shards()[0];
        assert!(
            sh.events_processed() > 10 * 2 * INBOX_BOUND as u64,
            "flood too thin to fill the inbox: {} events",
            sh.events_processed()
        );
        assert!(
            sh.inbox.capacity() <= INBOX_BOUND.next_power_of_two(),
            "inbox grew to {} entries",
            sh.inbox.capacity()
        );
    }

    #[test]
    fn same_seed_same_layout_is_deterministic() {
        let a = run(4, SchemeKind::AntiDope, 30);
        let b = run(4, SchemeKind::AntiDope, 30);
        assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
    }

    #[test]
    fn reports_are_byte_identical_across_shard_counts() {
        let base = format!("{:?}", run(1, SchemeKind::AntiDope, 30));
        for shards in [2, 4, 8] {
            let other = format!("{:?}", run(shards, SchemeKind::AntiDope, 30));
            assert_eq!(base, other, "report drifted at {shards} shards");
        }
    }

    fn chaotic_exp(shards: usize, secs: u64) -> ExperimentConfig {
        use simcore::faults::{CrashEvent, FaultConfig};
        let mut e = exp(shards, SchemeKind::AntiDope, secs);
        e.cluster.faults = Some(FaultConfig {
            sensor_dropout_p: 0.08,
            sensor_noise_w: 2.5,
            sensor_stuck_p: 0.01,
            sensor_stuck_for: SimDuration::from_secs(3),
            sensor_stale_p: 0.05,
            blackouts: vec![(SimTime::from_secs(8), SimTime::from_secs(11))],
            actuator_loss_p: 0.05,
            actuator_delay_p: 0.05,
            actuator_delay: SimDuration::from_millis(400),
            actuator_stuck_p: 0.01,
            actuator_stuck_for: SimDuration::from_secs(2),
            crashes: vec![CrashEvent {
                node: 3,
                at: SimTime::from_secs(6),
            }],
            crash_p: 0.0005,
            reboot_after: SimDuration::from_secs(5),
            battery_fade: 0.1,
            charger_fails_at: None,
        });
        e
    }

    #[test]
    fn fault_reports_are_byte_identical_across_shard_counts() {
        let e = chaotic_exp(1, 30);
        let report = ShardedClusterSim::run(&e, sources(&e));
        let f = report.faults.as_ref().expect("faults configured");
        assert!(f.crashes >= 1 && f.reboots >= 1, "chaos fired: {f:?}");
        assert!(f.sensor_dropouts > 0, "sensor chaos fired: {f:?}");
        let base = format!("{report:?}");
        for shards in [2, 4, 8] {
            let e = chaotic_exp(shards, 30);
            let other = format!("{:?}", ShardedClusterSim::run(&e, sources(&e)));
            assert_eq!(base, other, "fault report drifted at {shards} shards");
        }
    }

    #[test]
    fn retries_recover_requests_lost_to_crashes() {
        let mut e = chaotic_exp(4, 30);
        e.cluster.retry = Some(RetryConfig::default());
        let report = ShardedClusterSim::run(&e, sources(&e));
        let retry = report.retry.as_ref().expect("retry policy configured");
        let faults = report.faults.as_ref().expect("faults configured");
        assert!(faults.crashes > 0, "the pinned crash fired");
        assert!(
            retry.attempts > 0,
            "dead-node dispatches were retried: {retry:?}"
        );
        // Conservation: every retry attempt either completed later,
        // is still pending at the horizon, or exhausted its budget —
        // none may be double-counted in the SLA trackers.
        let finished = report.normal_sla.total() + report.attack_sla.total();
        assert!(
            finished <= report.traffic.offered,
            "more outcomes ({finished}) than offered ({})",
            report.traffic.offered
        );
        // Determinism with the resilience dataplane in the loop.
        let again = ShardedClusterSim::run(&e, sources(&e));
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }
}
