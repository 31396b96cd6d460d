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
//! * **One pending completion per node** — every arrival, completion
//!   and frequency-changing settle re-predicts its node's next
//!   completion, moving the node's one entry in an indexed min-heap on
//!   `(time, seq)` (`shard::pending`); the fixed cost is one `u32` position
//!   per node. DVFS settles keep their own heap, stamped by the same
//!   `seq` counter, and the shard loop merges the two. No prediction is
//!   discarded unrun, so [`SimReport::events`] counts only events that
//!   run.
//! * **No request-keyed maps** — the PS queue addresses in-flight
//!   requests by slot, and a request carries the index of the source
//!   that emitted it ([`Request::emitter`], set once at routing and kept
//!   through retries), so completion feedback finds its source without
//!   a lookup.
//!
//! One slot cycle:
//!
//! ```text
//! phase A (coordinator): merged sources ─► admission ─► scheme admit ─► NLB route
//!                        └──► one batch per shard, handed to its owner
//!                             every hand-off bound of routed arrivals
//! phase B (shard owners, overlapping A): replay each batch up to its
//!                        routing instant; after the last, close at t1
//! phase C (seq): outbox drain ─► physics ─► Sense ─► run_slot ─► Act
//!                ─► Account
//! ```
//!
//! `run_slot` is the control plane's one slot function, the one the
//! live daemon runs on its samples through
//! [`ControlPipeline::run_sample`] (Filter → Learn → watchdogs →
//! read-back sweep → Decide → rack guard).
//!
//! # Pipelined window, bounded slot buffers
//!
//! Phases A and B overlap. The coordinator routes arrivals into one
//! batch per shard and, every *hand-off bound* of routed arrivals,
//! hands each non-empty batch to the shard's owner together with the
//! current routing instant; the owner replays the shard's events up to
//! that instant (events only: energy integration still closes at the
//! slot boundary). The coordinator owns shard 0 and advances it inline.
//! Shards 1.. belong to the worker threads [`simcore::par::helpers`]
//! grants — none inside a sweep's parallel chunk, and with none the
//! coordinator owns every shard — which receive batches over a bounded
//! channel and send the emptied buffers back for reuse. After the last
//! batch each owner advances its shards to the boundary and the window
//! joins. Every batch, and so every shard's pending arrivals, holds at
//! most the hand-off bound whatever the arrival rate.
//!
//! The hand-off bound is `min(INBOX_BOUND, servers × max_inflight)`:
//! 1,024 arrivals, but never more than the whole cluster can hold in
//! flight. Large shards keep their 1,024-arrival batches for cache
//! locality (every cluster of 32 default-sized servers or more), while
//! a small cluster keeps small buffers: the 4-node paper rack hands off
//! every 128 arrivals, so a sweep that runs many such cells at once
//! does not grow each cell's batches to 1,024 entries.
//!
//! This moves no event: routing reads no shard state between
//! boundaries (feedback, NLB load sync and dead masks are all applied
//! at the boundary, and the shards and nodes are moved out of the
//! coordinator for the window), arrivals are routed in nondecreasing
//! time, so none routed later precedes a hand-off's instant, and the
//! shard loop is a merge in which the heaps win ties — so interrupting
//! it at that instant and resuming later yields the same event order.
//!
//! # Semantics fixed by the slot-aligned design
//!
//! * NLB load estimates refresh once per slot (plus LeastLoaded's
//!   optimistic increments).
//! * Feedback decided in phase A (firewall blocks, admission and scheme
//!   denials, dispatches to a dead node, exhausted retries) is delivered
//!   inline, during phase A; completion and queue-rejection feedback is
//!   delivered at the closing slot boundary, in the total order
//!   `(time, source, kind, client)`.
//! * `Blocked` reaches every source. `Completed` and `Rejected` reach
//!   only sources that observe outcomes
//!   ([`TrafficSource::observes_outcomes`]; among the built-in sources,
//!   only ApacheBench's concurrency window): shards queue none for the
//!   others, so open-loop floods cost the boundary nothing.
//! * The battery integrates at slot boundaries; [`Battery::advance`]
//!   clamps at empty/full itself, so no mid-slot bound event exists.
//! * Crash reboots settle at the next slot boundary.
//!
//! # Determinism contract
//!
//! * Same seed + same shard layout ⇒ identical [`SimReport`]s: nothing
//!   in the cycle depends on thread scheduling — each shard has one
//!   owner per window, which replays its batches in routing order, and
//!   phase C drains the shards in a fixed order.
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
use crate::topology::{near_even, TopologyState};
use dcmetrics::availability::RequestOutcome;
use dcmetrics::{LatencyHistogram, OnlineSummary, SlaTracker, TimeSeries};
use netsim::admission::{AdmissionDecision, AdmissionPipeline, StageKind};
use netsim::nlb::Nlb;
use netsim::queueing::{Completion, PushOutcome};
use netsim::request::{Request, UrlId};
use netsim::resilience::{PoolBreakers, RetryConfig};
use powercap::battery::{Battery, BatteryMode};
use simcore::faults::ShardFaultPlan;
use simcore::rng::{streams, RngFactory, SimRng};
use simcore::{par, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use workloads::fanout::MergedSources;
use workloads::source::{SourceEvent, TrafficSource};

mod pending;

use pending::{Pending, PerNodeHeap};

/// A DVFS settle `(time, seq, shard-local node)`; `seq` makes the order
/// total and insertion-stable, so shard replay is deterministic.
type Settle = Reverse<(SimTime, u64, usize)>;

/// The event heap that holds a shard's earliest event.
#[derive(Debug, Clone, Copy)]
enum HeapEvent {
    Completion,
    Settle,
}

/// Most routed arrivals between two hand-offs to the shard owners (see
/// the module doc), so no shard's pending batch exceeds it. Bounds the
/// per-slot buffers under a flood instead of letting them grow with the
/// arrival rate; a small cluster hands off sooner ([`handoff_bound`]).
const INBOX_BOUND: usize = 1024;

/// Routed arrivals between two hand-offs on a cluster of `servers`
/// nodes that each admit `max_inflight` requests: [`INBOX_BOUND`], or
/// fewer when the whole cluster holds fewer in flight.
fn handoff_bound(servers: usize, max_inflight: usize) -> usize {
    INBOX_BOUND.min(servers.saturating_mul(max_inflight))
}

/// Batches a worker's channel holds before the coordinator waits for
/// it to catch up.
const BATCHES_IN_FLIGHT: usize = 2;

/// A routed arrival: `(time, global node, request)`. The request names
/// the source that emitted it ([`Request::emitter`]).
type Arrival = (SimTime, usize, Request);

/// One hand-off to a worker: shard `shard`'s routed arrivals, all at or
/// before `until`, the instant the worker may advance the shard to.
struct Batch {
    shard: usize,
    arrivals: Vec<Arrival>,
    until: SimTime,
}

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

/// Learn-stage hook replay, drained after each batch the coordinator
/// advances inline and at the slot boundary (node indices are global).
/// The hooks are counters, so replay order is irrelevant.
#[derive(Debug, Clone, Copy)]
enum LearnEvt {
    Dispatch { node: usize, url: UrlId },
    Complete { node: usize, url: UrlId },
}

/// One dataplane shard: a contiguous slice of the cluster's nodes, its
/// own event queues, RNG stream space, metrics, and the data-oriented
/// (struct-of-arrays) mirror of the hot per-node fields.
pub(crate) struct Shard {
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
    /// Each busy node's one pending completion.
    completions: PerNodeHeap<Completion>,
    /// DVFS settles staged by the control plane.
    settles: BinaryHeap<Settle>,
    /// Monotonic tiebreaker shared by completions and settles.
    seq: u64,
    /// Source feedback produced this slot, drained at the boundary.
    /// Holds only events for sources in `observes`.
    outbox: Vec<(SimTime, usize, SourceEvent)>,
    /// Per source index: whether it observes outcome events
    /// ([`MergedSources::observers`]).
    observes: Vec<bool>,
    /// Learn-stage hook replays produced this slot.
    learn_out: Vec<LearnEvt>,
    /// Whether to collect learn replays at all (profiler configured).
    learn_enabled: bool,
    /// Shard-local latency/SLA metrics, merged at finalize. The
    /// histograms hold bins only; their summaries are `normal_sum` and
    /// `attack_sum`, folded at finalize.
    normal_hist: LatencyHistogram,
    attack_hist: LatencyHistogram,
    normal_sla: SlaTracker,
    attack_sla: SlaTracker,
    /// Events this shard has run: arrivals, completions and settles.
    events: u64,
    /// Completions whose request had already been retried at least once.
    recovered: u64,
    /// Per-node completion flags for the current slot, held (and set)
    /// only when `track_completions` is on: the circuit breakers'
    /// success signal, folded in global node order at the boundary (so
    /// it is shard-layout-invariant), then cleared.
    completed: Vec<bool>,
    /// Whether completions are tracked per node (runs with circuit
    /// breakers enabled).
    track_completions: bool,
}

impl Shard {
    /// A shard of `len` fresh nodes from global index `start`, each
    /// drawing the idle power `idle_w`.
    fn new(
        start: usize,
        len: usize,
        idle_w: f64,
        observes: &[bool],
        learn_enabled: bool,
        track_completions: bool,
    ) -> Self {
        Shard {
            start,
            power_w: vec![idle_w; len],
            inflight: vec![0; len],
            vf_steps: vec![0; len],
            dead: vec![false; len],
            joules: vec![0.0; len],
            last_t: vec![SimTime::ZERO; len],
            normal_sum: vec![OnlineSummary::new(); len],
            attack_sum: vec![OnlineSummary::new(); len],
            completions: PerNodeHeap::new(len),
            settles: BinaryHeap::new(),
            seq: 0,
            outbox: Vec::new(),
            observes: observes.to_vec(),
            learn_out: Vec::new(),
            learn_enabled,
            normal_hist: LatencyHistogram::for_latency_secs(),
            attack_hist: LatencyHistogram::for_latency_secs(),
            normal_sla: SlaTracker::new(),
            attack_sla: SlaTracker::new(),
            events: 0,
            recovered: 0,
            completed: if track_completions {
                vec![false; len]
            } else {
                Vec::new()
            },
            track_completions,
        }
    }

    /// Number of nodes this shard owns.
    pub(crate) fn len(&self) -> usize {
        self.power_w.len()
    }

    /// Global index of this shard's first node.
    pub(crate) fn start(&self) -> usize {
        self.start
    }

    /// The per-node power column, watts (data-oriented hot state).
    pub(crate) fn power_col(&self) -> &[f64] {
        &self.power_w
    }

    /// The per-node in-flight column.
    pub(crate) fn inflight_col(&self) -> &[u32] {
        &self.inflight
    }

    /// The per-node V/F reduction column.
    pub(crate) fn vf_col(&self) -> &[u8] {
        &self.vf_steps
    }

    /// Events processed by this shard so far.
    #[cfg(test)]
    pub(crate) fn events_processed(&self) -> u64 {
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

    /// Queue a DVFS settle staged by the boundary control plane.
    fn push_settle(&mut self, time: SimTime, j: usize) {
        self.seq += 1;
        self.settles.push(Reverse((time, self.seq, j)));
    }

    /// Re-predict local node `j`'s next completion, moving its pending
    /// entry. With `changed` false the queue did not change since the
    /// pending prediction (a settle that kept the frequency), and the
    /// earlier of the two predictions stands.
    fn predict(&mut self, now: SimTime, j: usize, node: &mut ComputeNode, changed: bool) {
        let Some((eta, due)) = node.next_completion(now) else {
            self.completions.remove(j);
            return;
        };
        self.seq += 1;
        let next = Pending {
            time: eta.max(now),
            seq: self.seq,
            node: j as u32,
            payload: due,
        };
        if changed || self.completions.get(j).is_none_or(|p| next.key() < p.key()) {
            self.completions.set(next);
        }
    }

    /// The time of the earliest event in the two heaps by `(time, seq)`,
    /// and which heap holds it.
    fn next_event(&self) -> Option<(SimTime, HeapEvent)> {
        let completion = self.completions.peek().map(Pending::key);
        let settle = self.settles.peek().map(|&Reverse((t, seq, _))| (t, seq));
        match (completion, settle) {
            (None, None) => None,
            (Some((t, _)), None) => Some((t, HeapEvent::Completion)),
            (None, Some((t, _))) => Some((t, HeapEvent::Settle)),
            (Some(c), Some(s)) if s < c => Some((s.0, HeapEvent::Settle)),
            (Some(c), Some(_)) => Some((c.0, HeapEvent::Completion)),
        }
    }

    fn record_outcome(&mut self, is_attack: bool, outcome: RequestOutcome) {
        if is_attack {
            self.attack_sla.record(outcome);
        } else {
            self.normal_sla.record(outcome);
        }
    }

    /// Phase B's close: replay this shard's events, `arrivals`
    /// included, up to and including `t1`, then integrate every node's
    /// energy to `t1`.
    fn advance(&mut self, nodes: &mut [ComputeNode], arrivals: &mut Vec<Arrival>, t1: SimTime) {
        self.run_until(nodes, arrivals, t1);
        self.integrate_all(t1);
    }

    /// Replay this shard's events up to and including `t`: a merge of
    /// `arrivals` (in routing order, none later than `t`; drained) and
    /// the two event heaps — pending completions and DVFS settles, in
    /// `(time, seq)` order — in which the heaps win ties. Stopping at `t`
    /// and resuming later yields the same event order as one
    /// uninterrupted call, provided every arrival routed afterwards is
    /// no earlier than `t`.
    fn run_until(&mut self, nodes: &mut [ComputeNode], arrivals: &mut Vec<Arrival>, t: SimTime) {
        assert!(
            arrivals.last().is_none_or(|a| a.0 <= t),
            "a batch holds an arrival after its instant"
        );
        let mut arrivals = arrivals.drain(..).peekable();
        loop {
            let next = self.next_event();
            let th = next.map(|(time, _)| time);
            let ta = arrivals.peek().map(|a| a.0);
            // Earliest of the heaps and the batch; the heaps win ties so
            // completions and settles at an instant precede arrivals at
            // the same instant.
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
            match next {
                Some((_, HeapEvent::Settle)) if take_heap => {
                    let Reverse((time, _, j)) = self.settles.pop().expect("peeked settle vanished");
                    let epoch = nodes[j].epoch();
                    nodes[j].apply_dvfs(time);
                    let changed = nodes[j].epoch() != epoch;
                    self.predict(time, j, &mut nodes[j], changed);
                    self.touch(time, j, &nodes[j]);
                }
                Some((_, HeapEvent::Completion)) if take_heap => {
                    let due = *self.completions.peek().expect("peeked completion vanished");
                    self.handle_completion(due, nodes);
                }
                _ => {
                    let (at, g, req) = arrivals.next().expect("peeked arrival vanished");
                    self.handle_arrival(at, g - self.start, req, nodes);
                }
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

    fn handle_arrival(&mut self, now: SimTime, j: usize, req: Request, nodes: &mut [ComputeNode]) {
        let is_attack = req.is_attack;
        let source_id = req.source;
        let src = req.emitter as usize;
        let url = req.url;
        match nodes[j].push(now, req) {
            PushOutcome::Rejected => {
                self.record_outcome(is_attack, RequestOutcome::Dropped);
                if self.observes[src] {
                    self.outbox
                        .push((now, src, SourceEvent::Rejected(source_id)));
                }
            }
            PushOutcome::Accepted => {
                if self.learn_enabled {
                    self.learn_out.push(LearnEvt::Dispatch {
                        node: self.start + j,
                        url,
                    });
                }
                self.predict(now, j, &mut nodes[j], true);
                self.touch(now, j, &nodes[j]);
            }
        }
    }

    /// Run the earliest pending completion, `due`. The entry stays in
    /// place until the node's next prediction replaces it (or, with the
    /// queue empty, removes it): one sift instead of a pop and a push.
    fn handle_completion(&mut self, due: Pending<Completion>, nodes: &mut [ComputeNode]) {
        let (now, j) = (due.time, due.node as usize);
        match nodes[j].try_complete(now, due.payload) {
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
                    self.attack_hist.record_bin(secs);
                    self.attack_sum[j].record(secs);
                } else {
                    self.normal_hist.record_bin(secs);
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
                let src = req.emitter as usize;
                if self.observes[src] {
                    self.outbox
                        .push((now, src, SourceEvent::Completed(req.source)));
                }
                self.predict(now, j, &mut nodes[j], true);
                self.touch(now, j, &nodes[j]);
            }
            None => {
                // The prediction is current, so residual work above
                // tolerance is float pathology; self-heal by predicting
                // again from current state.
                self.predict(now, j, &mut nodes[j], true);
            }
        }
    }

    /// Kill local node `j` (thermal trip or crash without a retry
    /// policy): in-flight requests count as SLA drops, the node is
    /// masked out of the power column. Returns the number of in-flight
    /// requests lost.
    fn kill_node(&mut self, j: usize, node: &mut ComputeNode, now: SimTime) -> u64 {
        let Shard { normal_sla, attack_sla, .. } = self;
        let mut lost = 0u64;
        node.drain_with(now, |req| {
            let sla = if req.is_attack { &mut *attack_sla } else { &mut *normal_sla };
            sla.record(RequestOutcome::Dropped);
            lost += 1;
        });
        self.completions.remove(j);
        self.dead[j] = true;
        self.touch(now, j, node);
        lost
    }

    /// Kill local node `j` but hand its in-flight requests back to the
    /// coordinator as `(request, global node)` pairs instead of dropping
    /// them — the resilience dataplane decides their fate.
    fn kill_node_collect(
        &mut self,
        j: usize,
        node: &mut ComputeNode,
        now: SimTime,
        global: usize,
        out: &mut Vec<(Request, usize)>,
    ) {
        node.drain_with(now, |req| out.push((req, global)));
        self.completions.remove(j);
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
            let Shard { normal_sla, attack_sla, .. } = self;
            node.drain_with(now, |req| {
                let sla = if req.is_attack { &mut *attack_sla } else { &mut *normal_sla };
                sla.record(RequestOutcome::Dropped);
            });
            self.power_w[j] = 0.0;
            self.inflight[j] = 0;
        }
        self.completions.clear();
        self.settles.clear();
    }
}

/// A retried request waiting out its timeout + backoff, ordered by
/// `(at, request id)` so the replay order is total and deterministic.
struct RetryEntry {
    at: SimTime,
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

/// The shard owners of one window: the coordinator advances `mine`
/// inline, and each worker a contiguous run of the other shards from
/// the batches it receives.
struct Owners<'w> {
    /// The coordinator's shards, from shard 0, and their nodes.
    mine: &'w mut [Shard],
    my_nodes: &'w mut [ComputeNode],
    /// Per worker: the shards it owns and its batch channel.
    workers: Vec<(Range<usize>, SyncSender<Batch>)>,
    /// Emptied batch buffers the workers send back.
    back: Receiver<Vec<Arrival>>,
}

impl Owners<'_> {
    /// Hand every non-empty batch to its shard's owner with the routing
    /// instant `until`: workers' batches go first, so they run while the
    /// coordinator advances its own shards and drains their Learn hooks.
    fn hand_off(
        &mut self,
        batches: &mut [Vec<Arrival>],
        spare: &mut Vec<Vec<Arrival>>,
        mut learn: Option<&mut LearnStage>,
        until: SimTime,
    ) {
        self.send(batches, spare, until);
        for (sh, batch) in self.mine.iter_mut().zip(batches) {
            if !batch.is_empty() {
                let nodes = &mut self.my_nodes[sh.start()..sh.start() + sh.len()];
                sh.run_until(nodes, batch, until);
                sh.drain_learn(learn.as_deref_mut());
            }
        }
    }

    /// The window's last hand-off: every batch runs to `t1`, the
    /// workers are told no batch follows, and every shard closes the
    /// slot at `t1`.
    fn close(&mut self, batches: &mut [Vec<Arrival>], spare: &mut Vec<Vec<Arrival>>, t1: SimTime) {
        self.send(batches, spare, t1);
        self.workers.clear();
        for (sh, batch) in self.mine.iter_mut().zip(batches) {
            let nodes = &mut self.my_nodes[sh.start()..sh.start() + sh.len()];
            sh.advance(nodes, batch, t1);
        }
    }

    /// Send the workers' non-empty batches, replacing each with a
    /// returned buffer.
    fn send(
        &mut self,
        batches: &mut [Vec<Arrival>],
        spare: &mut Vec<Vec<Arrival>>,
        until: SimTime,
    ) {
        spare.extend(self.back.try_iter());
        for (owned, tx) in &self.workers {
            for shard in owned.clone() {
                if batches[shard].is_empty() {
                    continue;
                }
                let fresh = spare.pop().unwrap_or_default();
                let arrivals = std::mem::replace(&mut batches[shard], fresh);
                // Fails only if the worker panicked, and the window's
                // join resumes that panic.
                let _ = tx.send(Batch { shard, arrivals, until });
            }
        }
    }
}

/// A worker's window over `shards` (the first is shard `first`) and
/// their `nodes`: replay each batch up to its instant and send the
/// emptied buffer back; once the coordinator hangs up, close every
/// shard at `t1`.
fn work(
    shards: &mut [Shard],
    nodes: &mut [ComputeNode],
    first: usize,
    batches: Receiver<Batch>,
    back: Sender<Vec<Arrival>>,
    t1: SimTime,
) {
    let base = shards[0].start();
    let span = |sh: &Shard| sh.start() - base..sh.start() - base + sh.len();
    for Batch { shard, mut arrivals, until } in batches {
        let sh = &mut shards[shard - first];
        let own = span(sh);
        sh.run_until(&mut nodes[own], &mut arrivals, until);
        // The coordinator may have stopped listening only if it panicked.
        let _ = back.send(arrivals);
    }
    for sh in shards {
        let own = span(sh);
        sh.advance(&mut nodes[own], &mut Vec::new(), t1);
    }
}

/// The sharded cluster engine: a sequential coordinator (sources,
/// perimeter, NLB, control plane, physics) driving dataplane shards
/// with slot-aligned conservative synchronization.
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
    /// Routed arrivals per shard since the last hand-off to its owner.
    batches: Vec<Vec<Arrival>>,
    /// Arrivals routed since the last hand-off.
    batched: usize,
    /// Routed arrivals that trigger a hand-off ([`handoff_bound`]).
    handoff: usize,
    /// Emptied batch buffers the workers sent back, for reuse.
    spare: Vec<Vec<Arrival>>,
    /// Global node index → owning shard index.
    owner_shard: Vec<usize>,
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

/// Global node `g`'s circuit-breaker pool. Pools are physical: the
/// owning rack under a power topology (a trip isolates the rack), the
/// node itself otherwise.
fn breaker_pool(topology: Option<&TopologyState>, g: usize) -> usize {
    topology.map_or(g, |t| t.topo.rack_of(g))
}

impl ShardedClusterSim {
    /// Build the engine for an experiment over the given traffic
    /// sources. Panics if `exp.cluster` fails validation.
    pub fn new(exp: &ExperimentConfig, sources: Vec<Box<dyn TrafficSource>>) -> Self {
        let scheme = scheme::build_scheme(exp.scheme, &exp.cluster);
        Self::with_scheme(exp, scheme, sources)
    }

    /// Build with an explicitly-constructed scheme.
    pub(crate) fn with_scheme(
        exp: &ExperimentConfig,
        scheme: Box<dyn PowerScheme>,
        sources: Vec<Box<dyn TrafficSource>>,
    ) -> Self {
        let cfg = exp.cluster.clone();
        cfg.validate().expect("invalid cluster config");
        let start = SimTime::ZERO;
        let mut nlb = Nlb::new(cfg.servers, scheme.forwarding_policy(&cfg))
            .expect("forwarding pools checked by ClusterConfig::validate");
        // Every node starts alike, idle at nominal: build one, copy it,
        // and evaluate the idle draw once.
        let fresh = ComputeNode::new(
            start,
            cfg.cores_per_server,
            cfg.max_inflight,
            cfg.dvfs_latency,
        );
        let idle_w = fresh.power_w();
        let nodes = vec![fresh; cfg.servers];
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
            let plan = ShardFaultPlan::new(fc.clone(), cfg.servers, &master)
                .expect("fault plan checked by ClusterConfig::validate");
            let keep = plan.battery_capacity_factor();
            if keep < 1.0 {
                battery.derate(keep);
            }
            FaultLayer::new(plan)
        });
        // One addition per node, in node order: the bits of summing each
        // node's own draw.
        let idle_total: f64 = std::iter::repeat_n(idle_w, cfg.servers).sum();
        let pipeline =
            ControlPipeline::new(&cfg, scheme, start, fault.is_some(), idle_total);

        let pool_count = pipeline
            .topology
            .as_ref()
            .map_or(cfg.servers, |t| t.topo.racks());
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
        let sources = MergedSources::new(sources);
        let shards: Vec<Shard> = ranges
            .iter()
            .map(|&(at, len)| {
                Shard::new(
                    at,
                    len,
                    idle_w,
                    sources.observers(),
                    learn_enabled,
                    track_completions,
                )
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
            sources,
            batches: (0..shards.len()).map(|_| Vec::new()).collect(),
            batched: 0,
            handoff: handoff_bound(cfg.servers, cfg.max_inflight),
            spare: Vec::new(),
            shards,
            owner_shard,
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
    pub(crate) fn attach_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Detach the trace recorder, if one was attached.
    pub(crate) fn take_recorder(&mut self) -> Option<TraceRecorder> {
        self.recorder.take()
    }

    /// Run an experiment to completion and produce the report.
    pub(crate) fn run(exp: &ExperimentConfig, sources: Vec<Box<dyn TrafficSource>>) -> SimReport {
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
    pub(crate) fn run_recorded(
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

    /// The slot loop to the horizon, with as many workers beside the
    /// coordinator as [`par::helpers`] grants for the shards past the
    /// first.
    fn drive_to(&mut self, horizon: SimTime) {
        self.drive(horizon, par::helpers(self.shards.len() - 1));
    }

    /// The slot loop: advance window, boundary, repeat to the horizon.
    fn drive(&mut self, horizon: SimTime, workers: usize) {
        let slot = self.config.control_slot;
        let mut t0 = SimTime::ZERO;
        loop {
            let t1 = t0 + slot;
            if t1 <= horizon {
                self.advance_window(t1, workers);
                self.boundary(t1);
                t0 = t1;
            } else {
                if t0 < horizon {
                    self.advance_window(horizon, workers);
                }
                break;
            }
        }
    }

    /// Run an experiment with `workers` shard workers, whatever the
    /// host's parallelism.
    #[cfg(test)]
    pub(crate) fn run_with_workers(
        exp: &ExperimentConfig,
        sources: Vec<Box<dyn TrafficSource>>,
        workers: usize,
    ) -> SimReport {
        let mut sim = Self::new(exp, sources);
        let horizon = sim.horizon;
        sim.drive(horizon, workers);
        sim.finalize(exp, horizon)
    }

    /// The shards (exposed for tests and probes).
    #[cfg(test)]
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Phase A + phase B, pipelined: route this window's arrivals
    /// (interleaved with due retries in time order) while the shard
    /// owners advance the batches already handed off, then close every
    /// shard at `t1`. The coordinator owns shard 0 — every shard when
    /// `workers` is 0 — and each worker a near-even run of the rest.
    fn advance_window(&mut self, t1: SimTime, workers: usize) {
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
        // Routing reads no shard state, and holding the shards and nodes
        // elsewhere for the window makes that structural.
        let mut shards = std::mem::take(&mut self.shards);
        let mut nodes = std::mem::take(&mut self.nodes);
        let workers = workers.min(shards.len() - 1);
        let first = if workers == 0 { shards.len() } else { 1 };
        let (mine, theirs) = shards.split_at_mut(first);
        let split = theirs.first().map_or(nodes.len(), Shard::start);
        let (my_nodes, their_nodes) = nodes.split_at_mut(split);
        std::thread::scope(|scope| {
            let (back_tx, back) = mpsc::channel();
            let mut handles = Vec::with_capacity(workers);
            let mut senders = Vec::with_capacity(workers);
            let (mut shards, mut nodes) = (theirs, their_nodes);
            let runs = if workers == 0 {
                Vec::new()
            } else {
                near_even(shards.len(), workers)
            };
            for (at, len) in runs {
                let (own, rest) = std::mem::take(&mut shards).split_at_mut(len);
                let span = own.iter().map(Shard::len).sum();
                let (own_nodes, rest_nodes) = std::mem::take(&mut nodes).split_at_mut(span);
                (shards, nodes) = (rest, rest_nodes);
                let (tx, rx) = mpsc::sync_channel(BATCHES_IN_FLIGHT);
                let back_tx = back_tx.clone();
                let owned = first + at..first + at + len;
                handles
                    .push(scope.spawn(move || work(own, own_nodes, owned.start, rx, back_tx, t1)));
                senders.push((owned, tx));
            }
            let mut owners = Owners { mine, my_nodes, workers: senders, back };
            self.route_window(t1, &mut owners);
            for h in handles {
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
            self.spare.extend(owners.back.try_iter());
        });
        self.shards = shards;
        self.nodes = nodes;
    }

    /// Phase A's loop: route every arrival and due retry up to `t1` in
    /// time order, handing the batches to `owners` every
    /// [`handoff_bound`] routed arrivals and closing the window at `t1`.
    fn route_window(&mut self, t1: SimTime, owners: &mut Owners<'_>) {
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
            self.events += 1;
            let now = if take_retry {
                let e = self
                    .resilience
                    .as_mut()
                    .expect("retry heap implies a policy")
                    .pending
                    .pop()
                    .expect("peeked retry entry vanished");
                self.dispatch(e.at, e.req);
                e.at
            } else {
                let (i, t, req) = buffered.take().expect("checked above");
                self.route_arrival(t, i, req);
                t
            };
            if self.batched >= self.handoff {
                self.batched = 0;
                let Self { batches, spare, pipeline, .. } = self;
                owners.hand_off(batches, spare, pipeline.learn.as_mut(), now);
            }
        }
        self.batched = 0;
        owners.close(&mut self.batches, &mut self.spare, t1);
    }

    /// Phase A per arrival: perimeter, admission, routing — in global
    /// arrival order, so the counts it produces are independent of the
    /// shard layout. The request takes its source's index here, once, and
    /// carries it through every dispatch and retry.
    fn route_arrival(&mut self, now: SimTime, src_idx: usize, mut req: Request) {
        self.offered += 1;
        req.emitter = u32::try_from(src_idx).expect("source indices fit in u32");
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

        // 3. Forward into the owning shard's batch.
        self.dispatch(now, req);
    }

    /// Route a request (fresh or retried) through the NLB into its
    /// shard's batch. With a resilience policy, a dispatch aimed at a breaker-
    /// blocked pool is re-routed to a surviving pool, and a dispatch
    /// landing on a dead node becomes a failed attempt (retried after
    /// timeout + backoff) instead of a silent drop.
    fn dispatch(&mut self, now: SimTime, req: Request) {
        let mut target = self.nlb.route(&req);
        let pool = breaker_pool(self.pipeline.topology.as_ref(), target);
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
                self.attempt_failed(now, req, target);
            } else {
                self.record_outcome(req.is_attack, RequestOutcome::Dropped);
                self.sources
                    .feedback(now, req.emitter as usize, SourceEvent::Rejected(req.source));
            }
            return;
        }
        self.batches[self.owner_shard[target]].push((now, target, req));
        self.batched += 1;
    }

    /// First alive node in an unblocked pool, scanning from node 0 —
    /// deterministic, and biased toward low-index pools the same way for
    /// every request, which the per-slot NLB load sync then corrects.
    fn pick_alternate(&self, now: SimTime) -> Option<usize> {
        let r = self.resilience.as_ref()?;
        let topology = self.pipeline.topology.as_ref();
        (0..self.node_dead.len())
            .find(|&g| !self.node_dead[g] && !r.breakers.blocked(breaker_pool(topology, g), now))
    }

    /// A dispatch attempt failed (dead node or crash-drained in-flight
    /// request). Charge the target's pool breaker, then either schedule
    /// a retry after timeout + jittered exponential backoff or — with
    /// the attempt budget exhausted — record the final drop.
    fn attempt_failed(&mut self, now: SimTime, req: Request, target: usize) {
        let pool = breaker_pool(self.pipeline.topology.as_ref(), target);
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
                .feedback(now, req.emitter as usize, SourceEvent::Rejected(req.source));
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
    /// order-insensitive) and the outcome feedback of observing sources
    /// (the only ones the shards queue it for). Each outbox is sorted in
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
                for (req, node) in lost {
                    self.attempt_failed(now, req, node);
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
        let mut lost_reqs: Vec<(Request, usize)> = Vec::new();
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
        for (req, node) in lost_reqs {
            self.attempt_failed(now, req, node);
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
        let mut lost_reqs: Vec<(Request, usize)> = Vec::new();
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
        for (req, node) in lost_reqs {
            self.attempt_failed(now, req, node);
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
                .feedback(now, e.req.emitter as usize, SourceEvent::Rejected(e.req.source));
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
            let topology = self.pipeline.topology.as_ref();
            for sh in &mut self.shards {
                let at = sh.start;
                for (j, done) in sh.completed.iter_mut().enumerate() {
                    if std::mem::take(done) {
                        r.breakers.on_success(breaker_pool(topology, at + j));
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
        if self.pipeline.account.breaker_tripped(now, &self.flows) {
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
    }

    fn flood(rate: f64) -> ScenarioBuilder {
        ScenarioBuilder::new()
            .with_attack(AttackTool::HttpLoad { rate }, ServiceKind::CollaFilt, 40, 0)
            .pinned(50_000, 1 << 40, SeedPin::Raw)
    }

    #[test]
    fn flooded_inbox_stays_within_its_bound() {
        // 10,000 req/s: several hand-offs per slot, so only the
        // pipelined window keeps each shard's pending batch small. The
        // 4-node paper rack holds 128 requests in flight, so it hands
        // off every 128 arrivals.
        let rack = ClusterConfig::paper_rack(BudgetLevel::Medium);
        let rack_bound = rack.servers * rack.max_inflight;
        for (cluster, bound) in [
            (ClusterConfig::scaled(BudgetLevel::Medium), INBOX_BOUND),
            (rack, rack_bound),
        ] {
            for shards in [1, 2, 4] {
                let mut e = exp(shards, SchemeKind::AntiDope, 10);
                e.cluster = ClusterConfig {
                    shards,
                    ..cluster.clone()
                };
                let horizon = SimTime::ZERO + e.duration;
                let mut sim = ShardedClusterSim::new(&e, flood(10_000.0).build(e.seed, horizon));
                sim.drive(horizon, shards - 1);
                let events: u64 = sim.shards().iter().map(Shard::events_processed).sum();
                assert!(
                    events > 10 * 2 * bound as u64,
                    "flood too thin to fill a batch: {events} events"
                );
                for batch in sim.batches.iter().chain(&sim.spare) {
                    assert!(
                        batch.capacity() <= bound.next_power_of_two(),
                        "{} nodes, {shards} shards: a batch grew to {} entries",
                        cluster.servers,
                        batch.capacity()
                    );
                }
            }
        }
    }

    #[test]
    fn the_handoff_bound_follows_the_clusters_inflight_capacity() {
        assert_eq!(handoff_bound(4, 32), 128);
        assert_eq!(handoff_bound(16, 32), 512);
        assert_eq!(handoff_bound(32, 32), INBOX_BOUND);
        assert_eq!(handoff_bound(10_000, 32), INBOX_BOUND);
        assert_eq!(handoff_bound(usize::MAX, 2), INBOX_BOUND);
    }

    #[test]
    fn each_busy_node_holds_exactly_one_pending_completion() {
        // Every arrival, completion and settle re-predicts its node's
        // completion in place: after each window, a node has a pending
        // entry exactly when its queue holds work, and none has two.
        let e = exp(2, SchemeKind::AntiDope, 10);
        let horizon = SimTime::ZERO + e.duration;
        let mut sim = ShardedClusterSim::new(&e, flood(10_000.0).build(e.seed, horizon));
        let mut t = SimTime::ZERO;
        let mut busy_seen = 0;
        while t < horizon {
            t += e.cluster.control_slot;
            sim.advance_window(t, 1);
            for sh in &sim.shards {
                sh.completions.assert_consistent();
                for j in 0..sh.len() {
                    let busy = sim.nodes[sh.start() + j].inflight() > 0;
                    busy_seen += busy as usize;
                    assert_eq!(
                        sh.completions.get(j).is_some(),
                        busy,
                        "node {} at {t:?}",
                        sh.start() + j
                    );
                }
            }
            sim.boundary(t);
        }
        assert!(busy_seen > 0, "the flood kept no node busy");
    }

    #[test]
    fn a_settle_that_keeps_the_frequency_keeps_the_pending_completion() {
        let mut nodes = vec![ComputeNode::new(SimTime::ZERO, 4, 32, SimDuration::from_millis(10))];
        let mut shard = Shard::new(0, nodes.len(), nodes[0].power_w(), &[true], false, false);
        let req = netsim::request::RequestBuilder::new().build(
            UrlId(0),
            netsim::request::SourceId(0),
            SimTime::ZERO,
            2.4,
            1.0,
            0.8,
            0.9,
            false,
        );
        shard.run_until(&mut nodes, &mut vec![(SimTime::ZERO, 0, req)], SimTime::ZERO);
        let before = *shard.completions.get(0).expect("a busy node has a prediction");
        assert_eq!(before.time, SimTime::from_secs(1));
        // At nominal already: the settle changes nothing, and the
        // earlier prediction stands.
        let ms = SimTime::from_millis;
        shard.push_settle(ms(10), 0);
        shard.run_until(&mut nodes, &mut Vec::new(), ms(10));
        assert_eq!(shard.completions.get(0), Some(&before));
        // A settle that throttles re-predicts: later, and stamped anew.
        let settle = nodes[0].command_pstate(ms(10), powercap::pstate::PState(0));
        shard.push_settle(settle, 0);
        shard.run_until(&mut nodes, &mut Vec::new(), settle);
        let after = *shard.completions.get(0).expect("still busy");
        assert!(after.time > before.time && after.seq > before.seq, "{after:?}");
        assert_eq!(shard.events_processed(), 3);
    }

    /// A burst of `count` requests, one per client address from `base`,
    /// at 1 ms spacing from t = 0; remembers every feedback event.
    struct Burst {
        base: u32,
        count: u32,
        next: u32,
        ids: netsim::request::RequestBuilder,
        heard: std::sync::Arc<std::sync::Mutex<Vec<SourceEvent>>>,
    }

    impl TrafficSource for Burst {
        fn next_request(&mut self, _now: SimTime) -> Option<Request> {
            let k = self.next;
            (k < self.count).then(|| {
                self.next += 1;
                self.ids.build(
                    UrlId(0),
                    netsim::request::SourceId(self.base + k),
                    SimTime::from_millis(k.into()),
                    2.4,
                    1.0,
                    0.8,
                    0.9,
                    false,
                )
            })
        }

        fn label(&self) -> &str {
            "burst"
        }

        fn feedback(&mut self, _now: SimTime, event: SourceEvent) {
            self.heard.lock().expect("test lock").push(event);
        }
    }

    #[test]
    fn retried_requests_report_to_the_source_that_emitted_them() {
        // Two sources fill the cluster with 1-second requests in the
        // first 120 ms; node 5 crashes at t = 2 s with work in flight,
        // which `kill_node_collect` hands back for re-dispatch. No
        // request arrives after the crash, so every completion of a
        // retried request is one of those. Each request must end in
        // exactly one terminal event, delivered to its own source.
        use simcore::faults::{CrashEvent, FaultConfig};
        for shards in [1, 3] {
            // Round-robin routing (no power scheme) spreads the burst
            // over every node, the crashed one included.
            let mut e = exp(shards, SchemeKind::None, 30);
            e.cluster.retry = Some(RetryConfig::default());
            e.cluster.faults = Some(FaultConfig {
                crashes: vec![CrashEvent {
                    node: 5,
                    at: SimTime::from_secs(2),
                }],
                ..FaultConfig::default()
            });
            let logs: Vec<_> = (0..2).map(|_| std::sync::Arc::default()).collect();
            let bases = [10_000u32, 20_000];
            let sources: Vec<Box<dyn TrafficSource>> = bases
                .iter()
                .zip(&logs)
                .map(|(&base, heard)| {
                    Box::new(Burst {
                        base,
                        count: 120,
                        next: 0,
                        ids: netsim::request::RequestBuilder::starting_at(base as u64),
                        heard: std::sync::Arc::clone(heard),
                    }) as Box<dyn TrafficSource>
                })
                .collect();
            let report = ShardedClusterSim::run(&e, sources);
            let faults = report.faults.as_ref().expect("faults configured");
            let retry = report.retry.as_ref().expect("retry policy configured");
            assert!(faults.lost_to_crash > 0, "{shards} shards: the crash stranded no request");
            assert!(retry.recovered > 0, "{shards} shards: no retried request completed");
            for (&base, heard) in bases.iter().zip(&logs) {
                let mut clients: Vec<u32> = heard
                    .lock()
                    .expect("test lock")
                    .iter()
                    .map(|ev| match *ev {
                        SourceEvent::Blocked(c) | SourceEvent::Rejected(c) | SourceEvent::Completed(c) => c.0,
                    })
                    .collect();
                clients.sort_unstable();
                let want: Vec<u32> = (base..base + 120).collect();
                assert_eq!(clients, want, "{shards} shards: source {base}'s feedback");
            }
        }
    }

    #[test]
    fn an_apachebench_vector_closes_its_loop_at_one_and_two_shards() {
        // ApacheBench keeps `concurrency` requests outstanding and sends
        // the next only when one ends. Completions reach it at each slot
        // boundary, so it refills its window once per 1 s slot: 9 windows
        // from t = 1 s to the 10 s horizon. Without its outcomes it would
        // stop after the first. The users beside it observe nothing.
        const CONCURRENCY: u32 = 8;
        let e = |shards| exp(shards, SchemeKind::AntiDope, 10);
        let horizon = SimTime::ZERO + e(1).duration;
        let users = testutil::users(120.0);
        let with_ab = users.clone().with_attack(
            AttackTool::ApacheBench {
                concurrency: CONCURRENCY,
            },
            ServiceKind::CollaFilt,
            40,
            1,
        );
        let observers = MergedSources::new(with_ab.build(2019, horizon))
            .observers()
            .to_vec();
        assert_eq!(observers, [false, true]);
        let run = |shards, workers| {
            ShardedClusterSim::run_with_workers(&e(shards), with_ab.build(2019, horizon), workers)
        };
        let one = run(1, 0);
        let users_only = ShardedClusterSim::run(&e(1), users.build(2019, horizon));
        let sent = one.traffic.offered - users_only.traffic.offered;
        assert_eq!(e(1).cluster.control_slot, SimDuration::from_secs(1));
        assert_eq!(sent, 9 * u64::from(CONCURRENCY), "ApacheBench windows");
        let one = format!("{one:?}");
        for workers in [0, 1] {
            assert_eq!(
                one,
                format!("{:?}", run(2, workers)),
                "2 shards, {workers} workers"
            );
        }
    }

    #[test]
    fn reports_are_byte_identical_at_any_worker_count() {
        // Flooded (several hand-offs per slot), retrying and chaotic at
        // 4 shards: the coordinator alone, one worker owning shards
        // 1..4, and one worker per shard.
        let mut e = chaotic_exp(4, 12);
        e.cluster.retry = Some(RetryConfig::default());
        let horizon = SimTime::ZERO + e.duration;
        let run = |workers| {
            let sources = testutil::users(120.0)
                .with_attack(AttackTool::HttpLoad { rate: 4_000.0 }, ServiceKind::CollaFilt, 40, 0)
                .pinned(50_000, 1 << 40, SeedPin::Raw)
                .build(e.seed, horizon);
            ShardedClusterSim::run_with_workers(&e, sources, workers)
        };
        let base = run(0);
        let retry = base.retry.as_ref().expect("retry policy configured");
        assert!(retry.attempts > 0, "retries fired: {retry:?}");
        assert!(
            base.traffic.offered > 12 * 2 * INBOX_BOUND as u64,
            "flood too thin to hand off mid-slot: {}",
            base.traffic.offered
        );
        let base = format!("{base:?}");
        for workers in [1, 3] {
            let other = format!("{:?}", run(workers));
            assert_eq!(base, other, "report drifted with {workers} workers");
        }
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
