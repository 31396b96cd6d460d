//! Multi-core processor-sharing server queue with DVFS-dependent speed,
//! in the **virtual-time** formulation.
//!
//! Each server is modeled as `c` cores shared equally among all in-flight
//! requests (the classic egalitarian processor-sharing model of a
//! threaded HTTP server). A request's instantaneous service rate is
//!
//! ```text
//! rate_i = core_ghz · ((1 − βᵢ) + βᵢ · rel_f) · min(1, c / n)    [G-cycles/s]
//! ```
//!
//! so lowering the DVFS state (`rel_f`) slows CPU-bound requests
//! proportionally while memory-bound ones barely notice — the mechanism
//! behind every latency figure in the paper.
//!
//! ## Virtual time
//!
//! Sustained floods push thousands of requests in flight per node, so the
//! queue cannot afford per-request work on every event. Instead of
//! tracking each request's remaining work explicitly (O(n) per advance),
//! the queue maintains one *shared-cycle accumulator*
//!
//! ```text
//! S(t) = ∫ core_ghz · share(t) dt        share(t) = min(1, c / n(t))
//! ```
//!
//! — the G-cycles a hypothetical β-insensitive request would have
//! received so far. Request *i* consumes real work at the constant slope
//! `rᵢ = rate_factor(βᵢ, rel_f)` per unit of `S`, so its finish point
//!
//! ```text
//! S_finish,i = S_admit + work_i / rᵢ
//! ```
//!
//! is **fixed at admission** and is independent of later occupancy
//! changes: pushes and completions bend the *clock* `S(t)` (the share
//! changes) but never the finish *ordinates*, so the completion order is
//! invariant and lives in a min-heap keyed by `S_finish`. Consequences:
//!
//! * [`PsServer::advance`] is O(1) — bump `S`;
//! * [`PsServer::next_completion`] is a heap peek (amortizing out lazily
//!   deleted entries of completed requests) and returns a [`Completion`]
//!   handle naming the request's slot;
//! * [`PsServer::try_complete`] is an O(1) slot-table lookup — no
//!   hashing — plus an O(log n) lazy heap deletion;
//! * only [`PsServer::set_rel_freq`] changes the per-request slopes, and
//!   it rescales every finish point and rebuilds the heap in O(n) — DVFS
//!   transitions are control-slot-rate events, not per-request ones.
//!
//! ## Slots
//!
//! Every admitted request occupies a *slot* until it departs. The slot
//! table maps a slot to the request's admission seq and its position in
//! the in-flight list; heap keys and [`Completion`] handles carry
//! `(slot, seq)`, and are live exactly while the slot still holds that
//! seq. Seqs never repeat, so a handle or heap key outliving its request
//! — completed, drained, or its slot reused — is recognized as stale.
//!
//! The previous direct-integration implementation is preserved verbatim
//! as the test-only `reference::ReferencePsServer`, and the two are
//! proven equivalent (µs-identical completion schedules) by differential
//! property tests below.
//!
//! ## Event protocol
//!
//! The queue advances lazily: every mutating call first integrates the
//! shared-cycle accumulator over the elapsed time. Completion times
//! depend on occupancy, so any state change invalidates
//! previously-predicted ETAs; the queue exposes an [`PsServer::epoch`]
//! counter that bumps on every state change. The owning simulation keeps
//! one pending completion per server and re-predicts it after every
//! state change it makes.

use crate::error::ConfigError;
use crate::request::Request;
#[cfg(test)]
use crate::request::RequestId;
use simcore::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shared parameter validation for the PS servers (real and reference).
fn check_server_params(
    component: &'static str,
    cores: usize,
    core_ghz: f64,
    max_inflight: usize,
) -> Result<(), ConfigError> {
    if cores < 1 {
        return Err(ConfigError::Parameter {
            component,
            field: "cores",
            value: cores as f64,
        });
    }
    if core_ghz <= 0.0 || !core_ghz.is_finite() {
        return Err(ConfigError::Parameter {
            component,
            field: "core_ghz",
            value: core_ghz,
        });
    }
    // Slots and positions are `u32`, with `u32::MAX` kept as a sentinel.
    if max_inflight < 1 || max_inflight >= u32::MAX as usize {
        return Err(ConfigError::Parameter {
            component,
            field: "max_inflight",
            value: max_inflight as f64,
        });
    }
    Ok(())
}

/// Round an ETA in seconds up to the next microsecond tick, snapping to
/// the nearest tick first: the virtual-time accumulator carries ~1 ulp of
/// float noise, which must not push an exactly-on-tick ETA onto the
/// following tick (the reference integrator would say the earlier one).
/// The 1 ns snap window is ~6 orders above ulp noise and ~3 below the
/// queue's 2 µs completion tolerance.
///
/// Snapping to the nearest tick and otherwise rounding up reduce to one
/// test on the fractional part: within 1e-3 above a tick, that tick;
/// anywhere else, the next one. The cast truncates (saturating, NaN to
/// 0), and below 2^52 the fractional part is exact, so this matches the
/// `round`/`ceil` formulation bit for bit without calling either.
#[inline]
pub(crate) fn eta_to_micros(eta_s: f64) -> u64 {
    let eta_us = eta_s * 1e6;
    let whole = eta_us as u64;
    let frac = eta_us - whole as f64;
    if frac >= 1e-3 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

/// Result of offering a request to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Admitted into service.
    Accepted,
    /// Rejected: the accept queue is full (overload collapse).
    Rejected,
}

/// A predicted completion, as [`PsServer::next_completion`] returns it
/// and [`PsServer::try_complete`] takes it back: the slot of the request
/// due first and the admission seq it held. A handle whose request has
/// since departed is stale, and `try_complete` refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    slot: u32,
    seq: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    req: Request,
    /// Value of the shared-cycle accumulator at which this request's
    /// work is exhausted. Fixed between frequency changes.
    finish_cycles: f64,
    /// The slot this request occupies.
    slot: u32,
}

/// One slot-table row. An occupied slot holds its request's admission
/// seq and position in `inflight`; a vacant one holds [`VACANT`] and, in
/// `pos`, the next vacant slot ([`NO_SLOT`] ends the free list).
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    pos: u32,
}

/// The seq of a vacant slot; admission seqs never reach it.
const VACANT: u64 = u64::MAX;

/// End of the vacant-slot list.
const NO_SLOT: u32 = u32::MAX;

/// Completion-heap key: finish point first, admission order second so
/// exactly-tied finish points resolve deterministically. The key is live
/// while `slot` still holds `seq`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FinishKey {
    finish_cycles: f64,
    seq: u64,
    slot: u32,
}

impl Eq for FinishKey {}

impl PartialOrd for FinishKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FinishKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish_cycles
            .total_cmp(&other.finish_cycles)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A processor-sharing multi-core server queue (virtual-time form).
#[derive(Debug, Clone)]
pub struct PsServer {
    cores: usize,
    core_ghz: f64,
    rel_freq: f64,
    max_inflight: usize,
    /// Resident requests. Insertion + `swap_remove` discipline — the
    /// iteration order (and therefore every order-sensitive float
    /// aggregate like [`PsServer::load_character`]) matches the
    /// reference implementation exactly.
    inflight: Vec<InFlight>,
    /// Slot → (admission seq, position in `inflight`); see [`Slot`].
    slots: Vec<Slot>,
    /// First vacant slot, or [`NO_SLOT`].
    free: u32,
    /// Min-heap of finish points. Entries for departed requests are
    /// deleted lazily when they surface at the top.
    completions: BinaryHeap<Reverse<FinishKey>>,
    /// The shared-cycle accumulator `S(t)`.
    shared_cycles: f64,
    next_seq: u64,
    last_advance: SimTime,
    epoch: u64,
    completed: u64,
    rejected: u64,
}

impl PsServer {
    /// A server with `cores` cores at `core_ghz` nominal, admitting at
    /// most `max_inflight` concurrent requests. Panics on out-of-range
    /// parameters; use `PsServer::try_new` to handle them as errors.
    pub fn new(start: SimTime, cores: usize, core_ghz: f64, max_inflight: usize) -> Self {
        Self::try_new(start, cores, core_ghz, max_inflight).expect("invalid PsServer parameters")
    }

    /// Fallible constructor: rejects zero cores, a non-positive clock, or
    /// a zero admission limit with a typed [`ConfigError`].
    pub(crate) fn try_new(
        start: SimTime,
        cores: usize,
        core_ghz: f64,
        max_inflight: usize,
    ) -> Result<Self, ConfigError> {
        check_server_params("PsServer", cores, core_ghz, max_inflight)?;
        Ok(PsServer {
            cores,
            core_ghz,
            rel_freq: 1.0,
            max_inflight,
            inflight: Vec::new(),
            slots: Vec::new(),
            free: NO_SLOT,
            completions: BinaryHeap::new(),
            shared_cycles: 0.0,
            next_seq: 0,
            last_advance: start,
            epoch: 0,
            completed: 0,
            rejected: 0,
        })
    }

    /// Requests currently in flight (queued + in service — PS does not
    /// distinguish).
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// True when idle.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// State-change epoch; bumps on push / completion / frequency change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime completions.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Lifetime rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Current relative frequency.
    pub fn rel_freq(&self) -> f64 {
        self.rel_freq
    }

    /// Busy-core fraction in `[0, 1]`.
    pub(crate) fn utilization(&self) -> f64 {
        (self.inflight.len().min(self.cores)) as f64 / self.cores as f64
    }

    /// Power character of the resident mix as `(utilization, intensity,
    /// gamma)`. Intensity and gamma are averaged over the requests
    /// actually occupying core share (equal shares under PS). An idle
    /// server reports zeros.
    pub fn load_character(&self) -> (f64, f64, f64) {
        let Some((first, rest)) = self.inflight.split_first() else {
            return (0.0, 0.0, 0.0);
        };
        // Both sums in one pass, each in `inflight` order and seeded with
        // its first term: bit for bit what `Iterator::sum` returns, since
        // its `-0.0` seed is an exact identity.
        let (mut intensity, mut gamma) = (first.req.intensity, first.req.gamma);
        for f in rest {
            intensity += f.req.intensity;
            gamma += f.req.gamma;
        }
        let n = self.inflight.len() as f64;
        (self.utilization(), intensity / n, gamma / n)
    }

    /// Mean CPU-boundedness of the resident mix (0 when idle) — what a
    /// power manager needs to price the performance cost of throttling.
    pub fn mean_beta(&self) -> f64 {
        if self.inflight.is_empty() {
            return 0.0;
        }
        self.inflight.iter().map(|f| f.req.beta).sum::<f64>() / self.inflight.len() as f64
    }

    /// Per-request core share under PS.
    #[inline]
    fn share(&self) -> f64 {
        if self.inflight.is_empty() {
            0.0
        } else {
            (self.cores as f64 / self.inflight.len() as f64).min(1.0)
        }
    }

    /// Remaining work of one in-flight entry, G-cycles. Clamped at zero:
    /// a request may sit (within µs rounding) past its finish point
    /// while its completion event is in flight.
    #[inline]
    fn remaining_of(&self, f: &InFlight) -> f64 {
        ((f.finish_cycles - self.shared_cycles) * f.req.rate_factor(self.rel_freq)).max(0.0)
    }

    /// Integrate the shared-cycle accumulator up to `now`. O(1).
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt == 0.0 || self.inflight.is_empty() {
            return;
        }
        self.shared_cycles += self.core_ghz * dt * self.share();
    }

    /// Change the DVFS relative frequency at `now`. Frequency is the one
    /// event that alters per-request slopes, so every finish point is
    /// rescaled and the completion heap rebuilt — O(n), at control-slot
    /// rate rather than per-request rate.
    pub fn set_rel_freq(&mut self, now: SimTime, rel_f: f64) {
        assert!(rel_f > 0.0 && rel_f <= 1.0 + 1e-9, "rel_f={rel_f}");
        self.advance(now);
        if (rel_f - self.rel_freq).abs() <= 1e-12 {
            return;
        }
        let old = self.rel_freq;
        self.rel_freq = rel_f;
        self.epoch += 1;
        let shared = self.shared_cycles;
        for f in &mut self.inflight {
            let remaining = ((f.finish_cycles - shared) * f.req.rate_factor(old)).max(0.0);
            f.finish_cycles = shared + remaining / f.req.rate_factor(rel_f);
        }
        self.completions.clear();
        self.completions.extend(self.inflight.iter().map(|f| {
            Reverse(FinishKey {
                finish_cycles: f.finish_cycles,
                seq: self.slots[f.slot as usize].seq,
                slot: f.slot,
            })
        }));
    }

    /// Offer a request at `now`. O(log n): the finish point is fixed here
    /// and never reordered by later occupancy changes.
    pub fn push(&mut self, now: SimTime, req: Request) -> PushOutcome {
        self.advance(now);
        if self.inflight.len() >= self.max_inflight {
            self.rejected += 1;
            return PushOutcome::Rejected;
        }
        let finish_cycles = self.shared_cycles + req.work_gcycles / req.rate_factor(self.rel_freq);
        let seq = self.next_seq;
        self.next_seq += 1;
        let row = Slot {
            seq,
            pos: self.inflight.len() as u32,
        };
        let slot = if self.free == NO_SLOT {
            self.slots.push(row);
            (self.slots.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.slots[slot as usize].pos;
            self.slots[slot as usize] = row;
            slot
        };
        self.completions.push(Reverse(FinishKey {
            finish_cycles,
            seq,
            slot,
        }));
        self.inflight.push(InFlight {
            req,
            finish_cycles,
            slot,
        });
        self.epoch += 1;
        PushOutcome::Accepted
    }

    /// Predict the next completion given current state. Call
    /// [`PsServer::advance`] first. The ETA is rounded up to the next
    /// microsecond so the completion event never fires early.
    ///
    /// Takes `&mut self` to lazily discard heap entries of requests that
    /// already departed; amortized O(log n).
    pub fn next_completion(&mut self) -> Option<(SimTime, Completion)> {
        let (head, pos) = loop {
            let Reverse(key) = *self.completions.peek()?;
            let row = self.slots[key.slot as usize];
            if row.seq == key.seq {
                break (key, row.pos);
            }
            self.completions.pop();
        };
        let f = &self.inflight[pos as usize];
        let rate = self.core_ghz * f.req.rate_factor(self.rel_freq) * self.share();
        debug_assert!(rate > 0.0);
        let eta_s = self.remaining_of(f) / rate;
        let micros = eta_to_micros(eta_s);
        let due = Completion {
            slot: head.slot,
            seq: head.seq,
        };
        Some((self.last_advance + SimDuration::from_micros(micros), due))
    }

    /// The id of the request a live handle names (`None` once stale).
    #[cfg(test)]
    pub(crate) fn id_of(&self, due: Completion) -> Option<RequestId> {
        let row = self.slots.get(due.slot as usize)?;
        (row.seq == due.seq).then(|| self.inflight[row.pos as usize].req.id)
    }

    /// Attempt the completion `due` names at `now`. Returns the request
    /// and its sojourn time if its work is (within integration tolerance)
    /// done; `None` if the ETA was stale and work remains, or if the
    /// request already departed. O(1) slot lookup; the heap entry is
    /// removed lazily by a later [`PsServer::next_completion`].
    pub fn try_complete(
        &mut self,
        now: SimTime,
        due: Completion,
    ) -> Option<(Request, SimDuration)> {
        self.advance(now);
        let row = *self.slots.get(due.slot as usize)?;
        if row.seq != due.seq {
            return None;
        }
        let idx = row.pos as usize;
        let f = &self.inflight[idx];
        // Forgive up to 2 µs of residual work: completion events are
        // scheduled at µs granularity rounded up, so residuals below one
        // tick of extra service are integration noise, not stale ETAs.
        let tol = self.core_ghz * f.req.rate_factor(self.rel_freq) * self.share() * 2e-6;
        if self.remaining_of(f) > tol {
            return None;
        }
        let f = self.inflight.swap_remove(idx);
        if let Some(moved) = self.inflight.get(idx) {
            self.slots[moved.slot as usize].pos = row.pos;
        }
        self.slots[due.slot as usize] = Slot {
            seq: VACANT,
            pos: self.free,
        };
        self.free = due.slot;
        self.epoch += 1;
        self.completed += 1;
        let sojourn = now.since(f.req.arrival);
        Some((f.req, sojourn))
    }

    /// Drain every in-flight request (used when a breaker trips and the
    /// node loses power), delivering each to `visit` in queue order.
    /// Every slot is vacated; seqs run on, so no earlier handle revives.
    pub fn drain_with(&mut self, now: SimTime, mut visit: impl FnMut(Request)) {
        self.advance(now);
        self.epoch += 1;
        self.completions.clear();
        self.slots.clear();
        self.free = NO_SLOT;
        for f in self.inflight.drain(..) {
            visit(f.req);
        }
    }

    /// Drain every in-flight request into a fresh `Vec`. Convenience
    /// wrapper over [`PsServer::drain_with`] for tests and cold paths.
    #[cfg(test)]
    pub(crate) fn drain(&mut self, now: SimTime) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.inflight.len());
        self.drain_with(now, |req| out.push(req));
        out
    }

    /// Visit the id and sojourn of every in-flight request older than its
    /// client timeout (diagnostic; the simulation lets the server finish
    /// them — the work still burns power — but clients have abandoned).
    #[cfg(test)]
    pub(crate) fn for_each_overdue(
        &self,
        now: SimTime,
        mut visit: impl FnMut(RequestId, SimDuration),
    ) {
        for f in &self.inflight {
            if let Some(sojourn) = now.checked_since(f.req.arrival) {
                if f.req.abandoned(sojourn) {
                    visit(f.req.id, sojourn);
                }
            }
        }
    }

    /// Ids and sojourns of overdue in-flight requests, collected into a
    /// fresh `Vec`. Convenience wrapper over
    /// [`PsServer::for_each_overdue`] for tests and cold paths.
    #[cfg(test)]
    pub(crate) fn overdue(&self, now: SimTime) -> Vec<(RequestId, SimDuration)> {
        let mut out = Vec::new();
        self.for_each_overdue(now, |id, sojourn| out.push((id, sojourn)));
        out
    }
}

/// The direct-integration processor-sharing queue the virtual-time
/// implementation replaced.
///
/// Kept as an executable specification for the tests: [`ReferencePsServer`]
/// integrates every in-flight request's remaining work on every event
/// (O(n) per advance, O(n) scans for prediction and completion), which
/// is unaffordable at flood-scale occupancy but trivially auditable
/// against the model in the paper. The differential property tests in
/// this module prove the two produce µs-identical completion schedules.
///
/// [`ReferencePsServer`]: reference::ReferencePsServer
#[cfg(test)]
mod reference {
    use super::PushOutcome;
    use crate::error::ConfigError;
    use crate::request::{Request, RequestId};
    use simcore::{SimDuration, SimTime};

    #[derive(Debug, Clone)]
    struct InFlight {
        req: Request,
        remaining_gcycles: f64,
    }

    /// Direct-integration processor-sharing queue (the pre-virtual-time
    /// implementation, verbatim).
    #[derive(Debug, Clone)]
    pub(crate) struct ReferencePsServer {
        cores: usize,
        core_ghz: f64,
        rel_freq: f64,
        max_inflight: usize,
        inflight: Vec<InFlight>,
        last_advance: SimTime,
        epoch: u64,
        completed: u64,
        rejected: u64,
    }

    impl ReferencePsServer {
        /// A server with `cores` cores at `core_ghz` nominal, admitting
        /// at most `max_inflight` concurrent requests. Panics on
        /// out-of-range parameters; use [`ReferencePsServer::try_new`].
        pub(crate) fn new(
            start: SimTime,
            cores: usize,
            core_ghz: f64,
            max_inflight: usize,
        ) -> Self {
            Self::try_new(start, cores, core_ghz, max_inflight)
                .expect("invalid ReferencePsServer parameters")
        }

        /// Fallible constructor mirroring [`super::PsServer::try_new`].
        pub(crate) fn try_new(
            start: SimTime,
            cores: usize,
            core_ghz: f64,
            max_inflight: usize,
        ) -> Result<Self, ConfigError> {
            super::check_server_params("ReferencePsServer", cores, core_ghz, max_inflight)?;
            Ok(ReferencePsServer {
                cores,
                core_ghz,
                rel_freq: 1.0,
                max_inflight,
                inflight: Vec::new(),
                last_advance: start,
                epoch: 0,
                completed: 0,
                rejected: 0,
            })
        }

        /// Requests currently in flight.
        pub(crate) fn len(&self) -> usize {
            self.inflight.len()
        }

        /// State-change epoch.
        pub(crate) fn epoch(&self) -> u64 {
            self.epoch
        }

        /// Lifetime completions.
        pub(crate) fn completed(&self) -> u64 {
            self.completed
        }

        /// Lifetime rejections.
        pub(crate) fn rejected(&self) -> u64 {
            self.rejected
        }

        /// Power character of the resident mix.
        pub(crate) fn load_character(&self) -> (f64, f64, f64) {
            if self.inflight.is_empty() {
                return (0.0, 0.0, 0.0);
            }
            let n = self.inflight.len() as f64;
            let intensity = self.inflight.iter().map(|f| f.req.intensity).sum::<f64>() / n;
            let gamma = self.inflight.iter().map(|f| f.req.gamma).sum::<f64>() / n;
            let u = (self.inflight.len().min(self.cores)) as f64 / self.cores as f64;
            (u, intensity, gamma)
        }

        /// Mean CPU-boundedness of the resident mix.
        pub(crate) fn mean_beta(&self) -> f64 {
            if self.inflight.is_empty() {
                return 0.0;
            }
            self.inflight.iter().map(|f| f.req.beta).sum::<f64>() / self.inflight.len() as f64
        }

        #[inline]
        fn share(&self) -> f64 {
            if self.inflight.is_empty() {
                0.0
            } else {
                (self.cores as f64 / self.inflight.len() as f64).min(1.0)
            }
        }

        #[inline]
        fn rate_of(&self, f: &InFlight) -> f64 {
            self.core_ghz * f.req.rate_factor(self.rel_freq) * self.share()
        }

        /// Integrate all in-flight work up to `now`. O(n).
        pub(crate) fn advance(&mut self, now: SimTime) {
            let dt = now.since(self.last_advance).as_secs_f64();
            self.last_advance = now;
            if dt == 0.0 || self.inflight.is_empty() {
                return;
            }
            let share = self.share();
            let base = self.core_ghz * dt * share;
            for f in &mut self.inflight {
                let done = base * f.req.rate_factor(self.rel_freq);
                f.remaining_gcycles = (f.remaining_gcycles - done).max(0.0);
            }
        }

        /// Change the DVFS relative frequency at `now`.
        pub(crate) fn set_rel_freq(&mut self, now: SimTime, rel_f: f64) {
            assert!(rel_f > 0.0 && rel_f <= 1.0 + 1e-9, "rel_f={rel_f}");
            self.advance(now);
            if (rel_f - self.rel_freq).abs() > 1e-12 {
                self.rel_freq = rel_f;
                self.epoch += 1;
            }
        }

        /// Offer a request at `now`.
        pub(crate) fn push(&mut self, now: SimTime, req: Request) -> PushOutcome {
            self.advance(now);
            if self.inflight.len() >= self.max_inflight {
                self.rejected += 1;
                return PushOutcome::Rejected;
            }
            self.inflight.push(InFlight {
                remaining_gcycles: req.work_gcycles,
                req,
            });
            self.epoch += 1;
            PushOutcome::Accepted
        }

        /// Predict the next completion by scanning every in-flight
        /// request. O(n).
        pub(crate) fn next_completion(&self) -> Option<(SimTime, RequestId)> {
            let mut best: Option<(f64, RequestId)> = None;
            for f in &self.inflight {
                let rate = self.rate_of(f);
                debug_assert!(rate > 0.0);
                let eta = f.remaining_gcycles / rate;
                if best.is_none_or(|(b, _)| eta < b) {
                    best = Some((eta, f.req.id));
                }
            }
            best.map(|(eta_s, id)| {
                let micros = super::eta_to_micros(eta_s);
                (self.last_advance + SimDuration::from_micros(micros), id)
            })
        }

        /// Attempt to complete request `id` at `now`. O(n) position scan.
        pub(crate) fn try_complete(
            &mut self,
            now: SimTime,
            id: RequestId,
        ) -> Option<(Request, SimDuration)> {
            self.advance(now);
            let idx = self.inflight.iter().position(|f| f.req.id == id)?;
            let tol = self.rate_of(&self.inflight[idx]) * 2e-6;
            if self.inflight[idx].remaining_gcycles > tol {
                return None;
            }
            let f = self.inflight.swap_remove(idx);
            self.epoch += 1;
            self.completed += 1;
            let sojourn = now.since(f.req.arrival);
            Some((f.req, sojourn))
        }

        /// Drain every in-flight request.
        pub(crate) fn drain(&mut self, now: SimTime) -> Vec<Request> {
            self.advance(now);
            self.epoch += 1;
            self.inflight.drain(..).map(|f| f.req).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferencePsServer;
    use super::*;
    use crate::request::{RequestBuilder, SourceId, UrlId};
    use proptest::prelude::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn server() -> PsServer {
        PsServer::new(SimTime::ZERO, 4, 2.4, 64)
    }

    fn mk(b: &mut RequestBuilder, arrival: SimTime, work: f64, beta: f64) -> Request {
        b.build(UrlId(0), SourceId(0), arrival, work, beta, 0.8, 0.9, false)
    }

    #[test]
    fn single_request_completes_at_nominal_time() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        let r = mk(&mut b, SimTime::ZERO, 2.4, 1.0); // 1 s of work
        let id = r.id;
        assert_eq!(srv.push(SimTime::ZERO, r), PushOutcome::Accepted);
        let (eta, due) = srv.next_completion().unwrap();
        assert_eq!(eta, s(1));
        assert_eq!(srv.id_of(due), Some(id));
        let (req, sojourn) = srv.try_complete(eta, due).unwrap();
        assert_eq!(req.id, id);
        assert_eq!(sojourn, SimDuration::from_secs(1));
        assert!(srv.is_empty());
        assert_eq!(srv.completed(), 1);
    }

    #[test]
    fn processor_sharing_slows_when_oversubscribed() {
        // 8 identical 1-second jobs on 4 cores: each gets a half core, so
        // all complete at t = 2 s.
        let mut srv = server();
        let mut b = RequestBuilder::new();
        for _ in 0..8 {
            srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0));
        }
        let (eta, _) = srv.next_completion().unwrap();
        assert_eq!(eta, s(2));
    }

    #[test]
    fn underloaded_cores_not_shared() {
        // 2 jobs on 4 cores: each gets a full core.
        let mut srv = server();
        let mut b = RequestBuilder::new();
        srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0));
        srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0));
        let (eta, _) = srv.next_completion().unwrap();
        assert_eq!(eta, s(1));
        assert_eq!(srv.utilization(), 0.5);
    }

    #[test]
    fn dvfs_slows_cpu_bound_work() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        srv.set_rel_freq(SimTime::ZERO, 0.5);
        srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0));
        let (eta, _) = srv.next_completion().unwrap();
        assert_eq!(eta, s(2)); // half speed → double time
    }

    #[test]
    fn dvfs_spares_memory_bound_work() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        srv.set_rel_freq(SimTime::ZERO, 0.5);
        srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 0.0)); // β = 0
        let (eta, _) = srv.next_completion().unwrap();
        assert_eq!(eta, s(1)); // immune to frequency
    }

    #[test]
    fn midflight_frequency_change_stretches_remaining_work() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0));
        // Half the work done at full speed, then throttle to half speed:
        // remaining 0.5 s of work takes 1 s.
        srv.set_rel_freq(SimTime::from_millis(500), 0.5);
        let (eta, _) = srv.next_completion().unwrap();
        assert_eq!(eta, SimTime::from_millis(1500));
    }

    #[test]
    fn epoch_bumps_on_state_changes() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        let e0 = srv.epoch();
        srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0));
        assert!(srv.epoch() > e0);
        let e1 = srv.epoch();
        srv.set_rel_freq(s(0), 0.8);
        assert!(srv.epoch() > e1);
        let e2 = srv.epoch();
        // No-op frequency change does not bump.
        srv.set_rel_freq(s(0), 0.8);
        assert_eq!(srv.epoch(), e2);
    }

    #[test]
    fn stale_completion_rejected() {
        let mut b = RequestBuilder::new();
        // A second arrival must invalidate the first ETA; use a 1-core
        // server so the two jobs actually share.
        let mut srv = PsServer::new(SimTime::ZERO, 1, 2.4, 64);
        let r = mk(&mut b, SimTime::ZERO, 2.4, 1.0);
        let id = {
            let id = r.id;
            srv.push(SimTime::ZERO, r);
            id
        };
        let (eta, due) = srv.next_completion().unwrap();
        assert_eq!(eta, s(1));
        srv.push(SimTime::from_millis(500), mk(&mut b, SimTime::from_millis(500), 2.4, 1.0));
        // Old ETA is now stale: at t=1 s the first job has 0.25 s·2.4GHz of
        // work left (it ran shared 0.5..1.0).
        assert!(srv.try_complete(s(1), due).is_none());
        let (eta2, next) = srv.next_completion().unwrap();
        assert_eq!(next, due, "the same request is still due first");
        assert_eq!(srv.id_of(next), Some(id));
        assert_eq!(eta2, SimTime::from_millis(1500));
        assert!(srv.try_complete(eta2, next).is_some());
    }

    #[test]
    fn bounded_queue_rejects() {
        let mut srv = PsServer::new(SimTime::ZERO, 1, 2.4, 2);
        let mut b = RequestBuilder::new();
        assert_eq!(
            srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0)),
            PushOutcome::Accepted
        );
        assert_eq!(
            srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0)),
            PushOutcome::Accepted
        );
        assert_eq!(
            srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0)),
            PushOutcome::Rejected
        );
        assert_eq!(srv.rejected(), 1);
    }

    #[test]
    fn load_character_averages_mix() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        let r1 = b.build(UrlId(0), SourceId(0), SimTime::ZERO, 1.0, 1.0, 1.0, 1.0, false);
        let r2 = b.build(UrlId(1), SourceId(0), SimTime::ZERO, 1.0, 0.0, 0.5, 0.5, true);
        srv.push(SimTime::ZERO, r1);
        srv.push(SimTime::ZERO, r2);
        let (u, i, g) = srv.load_character();
        assert_eq!(u, 0.5);
        assert!((i - 0.75).abs() < 1e-12);
        assert!((g - 0.75).abs() < 1e-12);
        assert_eq!(server().load_character(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn drain_returns_everything() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        for _ in 0..5 {
            srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 2.4, 1.0));
        }
        let drained = srv.drain(s(0));
        assert_eq!(drained.len(), 5);
        assert!(srv.is_empty());
        // The heap and index must be clean: a fresh push still works.
        srv.push(s(0), mk(&mut b, s(0), 2.4, 1.0));
        let (eta, id) = srv.next_completion().unwrap();
        assert_eq!(eta, s(1));
        assert!(srv.try_complete(eta, id).is_some());
    }

    #[test]
    fn drain_with_visits_in_queue_order() {
        let mut srv = server();
        let mut b = RequestBuilder::new();
        let mut pushed = Vec::new();
        for _ in 0..5 {
            let r = mk(&mut b, SimTime::ZERO, 2.4, 1.0);
            pushed.push(r.id);
            srv.push(SimTime::ZERO, r);
        }
        let mut seen = Vec::new();
        srv.drain_with(s(0), |req| seen.push(req.id));
        assert_eq!(seen, pushed);
        assert!(srv.is_empty());
    }

    #[test]
    fn overdue_detects_abandonment() {
        let mut srv = PsServer::new(SimTime::ZERO, 1, 2.4, 64);
        let mut b = RequestBuilder::new();
        // Huge job: still running at t = 10 s; client timeout is 4 s.
        srv.push(SimTime::ZERO, mk(&mut b, SimTime::ZERO, 1000.0, 1.0));
        assert!(srv.overdue(s(4)).is_empty());
        let od = srv.overdue(s(5));
        assert_eq!(od.len(), 1);
        assert_eq!(od[0].1, SimDuration::from_secs(5));
        // The visitor path agrees.
        let mut count = 0;
        srv.for_each_overdue(s(5), |_, sojourn| {
            count += 1;
            assert_eq!(sojourn, SimDuration::from_secs(5));
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn pushes_never_reorder_pending_completions() {
        // The virtual-time invariant: a later, lighter arrival finishes
        // first without ever touching the earlier request's finish point.
        let mut srv = PsServer::new(SimTime::ZERO, 1, 2.4, 64);
        let mut b = RequestBuilder::new();
        let heavy = mk(&mut b, SimTime::ZERO, 2.4, 1.0);
        let heavy_id = heavy.id;
        srv.push(SimTime::ZERO, heavy);
        let light = mk(&mut b, SimTime::from_millis(100), 0.24, 1.0);
        let light_id = light.id;
        srv.push(SimTime::from_millis(100), light);
        // Light: 0.1 s of work at half share → done at 0.1 + 0.2 = 0.3 s.
        let (eta, due) = srv.next_completion().unwrap();
        assert_eq!(srv.id_of(due), Some(light_id));
        assert_eq!(eta, SimTime::from_millis(300));
        assert!(srv.try_complete(eta, due).is_some());
        // Heavy ran 0..0.1 alone and 0.1..0.3 shared: 0.8 s of its 1 s
        // remains, full share again → done at 1.1 s.
        let (eta, due) = srv.next_completion().unwrap();
        assert_eq!(srv.id_of(due), Some(heavy_id));
        assert_eq!(eta, SimTime::from_millis(1100));
        assert!(srv.try_complete(eta, due).is_some());
    }

    #[test]
    fn eta_rounding_matches_round_then_ceil() {
        // The formulation `eta_to_micros` replaced.
        fn snap_or_ceil(eta_s: f64) -> u64 {
            let eta_us = eta_s * 1e6;
            let nearest = eta_us.round();
            if (eta_us - nearest).abs() < 1e-3 {
                nearest as u64
            } else {
                eta_us.ceil() as u64
            }
        }
        let mut cases = vec![
            0.0,
            -0.0,
            -1.5e-6,
            f64::NAN,
            f64::INFINITY,
            1e30,
            0.5e-6,
            4.0 * (1u64 << 52) as f64 * 1e-6,
        ];
        for tick in [0u64, 1, 2, 7, 999_999, 1_000_000, 123_456_789, 1 << 40] {
            for off in [-0.5, -1e-3, -0.999e-3, -1e-9, 0.0, 1e-9, 0.999e-3, 1e-3, 1.001e-3, 0.5] {
                cases.push((tick as f64 + off) * 1e-6);
            }
        }
        // Random ETAs over 12 orders of magnitude.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64;
            cases.push(mantissa * 10f64.powi((x % 12) as i32 - 6));
        }
        for eta_s in cases {
            assert_eq!(eta_to_micros(eta_s), snap_or_ceil(eta_s), "eta {eta_s:e} s");
        }
    }

    #[test]
    fn stale_handles_are_refused() {
        let mut srv = PsServer::new(SimTime::ZERO, 1, 2.4, 64);
        let mut b = RequestBuilder::new();
        // A completed request's handle: refused, also once a new request
        // reuses its slot.
        srv.push(s(0), mk(&mut b, s(0), 2.4, 1.0));
        let (eta, done) = srv.next_completion().unwrap();
        assert!(srv.try_complete(eta, done).is_some());
        assert!(srv.try_complete(eta, done).is_none());
        let fresh = mk(&mut b, eta, 2.4, 1.0);
        let fresh_id = fresh.id;
        srv.push(eta, fresh);
        let (_, live) = srv.next_completion().unwrap();
        assert_ne!(live, done, "the reused slot carries a new seq");
        assert_eq!(srv.id_of(done), None);
        assert_eq!(srv.id_of(live), Some(fresh_id));
        assert!(srv.try_complete(s(3), done).is_none());
        assert_eq!(srv.len(), 1, "a stale handle completes nothing");
        // A drained request's handle: refused, also once a new request
        // takes the drained slot.
        srv.drain_with(s(3), |_| {});
        assert!(srv.try_complete(s(3), live).is_none());
        srv.push(s(3), mk(&mut b, s(3), 2.4, 1.0));
        assert!(srv.try_complete(s(3), live).is_none());
        assert_eq!(srv.len(), 1);
        let (eta, due) = srv.next_completion().unwrap();
        assert_eq!(eta, s(4));
        assert!(srv.try_complete(eta, due).is_some());
        assert_eq!(srv.completed(), 2);
    }

    // ---- differential tests against the reference implementation ----

    /// One random schedule op.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push a request with (work, β) after a µs gap.
        Push { gap_us: u64, work: f64, beta: f64 },
        /// Change frequency after a µs gap.
        SetFreq { gap_us: u64, rel_f: f64 },
        /// Drain the queue (power loss) after a µs gap.
        Drain { gap_us: u64 },
    }

    impl Op {
        fn gap_us(&self) -> u64 {
            match *self {
                Op::Push { gap_us, .. } | Op::SetFreq { gap_us, .. } | Op::Drain { gap_us } => gap_us,
            }
        }
    }

    fn push_op() -> impl Strategy<Value = Op> {
        (0u64..200_000, 0.001f64..5.0, 0.0f64..1.0)
            .prop_map(|(gap_us, work, beta)| Op::Push { gap_us, work, beta })
    }

    fn freq_op() -> impl Strategy<Value = Op> {
        (0u64..500_000, prop::sample::select(vec![1.0, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5]))
            .prop_map(|(gap_us, rel_f)| Op::SetFreq { gap_us, rel_f })
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![4 => push_op(), 1 => freq_op()]
    }

    /// [`op_strategy`] plus drains, for the slot-reuse property.
    fn churn_op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => push_op(),
            1 => freq_op(),
            1 => (0u64..300_000).prop_map(|gap_us| Op::Drain { gap_us }),
        ]
    }

    /// A load character's bit patterns: `==` would let `-0.0` pass for
    /// `0.0`.
    fn bits((u, i, g): (f64, f64, f64)) -> [u64; 3] {
        [u.to_bits(), i.to_bits(), g.to_bits()]
    }

    /// Fire what is due before `op`, apply it to both queues, and check
    /// they still agree. A drain's handle of the request due next joins
    /// `retired`, as do the handles of completed requests.
    fn apply_lockstep(
        vt: &mut PsServer,
        rf: &mut ReferencePsServer,
        b: &mut RequestBuilder,
        now: &mut SimTime,
        op: &Op,
        retired: &mut Vec<(Completion, RequestId)>,
    ) -> Result<(), TestCaseError> {
        let at = *now + SimDuration::from_micros(op.gap_us());
        drain_due_lockstep(vt, rf, now, at, retired)?;
        *now = at.max(*now);
        match *op {
            Op::Push { work, beta, .. } => {
                let r = mk(b, *now, work, beta);
                prop_assert_eq!(vt.push(*now, r.clone()), rf.push(*now, r));
            }
            Op::SetFreq { rel_f, .. } => {
                vt.set_rel_freq(*now, rel_f);
                rf.set_rel_freq(*now, rel_f);
            }
            Op::Drain { .. } => {
                vt.advance(*now);
                if let Some((_, due)) = vt.next_completion() {
                    let id = vt.id_of(due).expect("a fresh handle is live");
                    retired.push((due, id));
                }
                let mut dv = Vec::new();
                vt.drain_with(*now, |req| dv.push(req.id));
                let dr: Vec<_> = rf.drain(*now).into_iter().map(|r| r.id).collect();
                prop_assert_eq!(dv, dr, "drain order mismatch");
            }
        }
        prop_assert_eq!(vt.epoch(), rf.epoch(), "epoch divergence");
        prop_assert_eq!(vt.len(), rf.len());
        prop_assert_eq!(vt.completed(), rf.completed());
        prop_assert_eq!(vt.rejected(), rf.rejected());
        prop_assert_eq!(bits(vt.load_character()), bits(rf.load_character()));
        prop_assert_eq!(vt.mean_beta().to_bits(), rf.mean_beta().to_bits());
        Ok(())
    }

    /// Fire every completion predicted at or before `horizon` on both
    /// queues, asserting µs-identical (ETA, id) pairs — the simulator's
    /// event discipline: completion events are delivered in time order,
    /// so a request never sits past its finish point while external
    /// events stream in.
    ///
    /// Each completed request's handle is appended to `retired`.
    fn drain_due_lockstep(
        vt: &mut PsServer,
        rf: &mut ReferencePsServer,
        now: &mut SimTime,
        horizon: SimTime,
        retired: &mut Vec<(Completion, RequestId)>,
    ) -> Result<(), TestCaseError> {
        loop {
            vt.advance(*now);
            rf.advance(*now);
            let pv = vt.next_completion();
            let pr = rf.next_completion();
            match (pv, pr) {
                (None, None) => return Ok(()),
                (Some((tv, iv)), Some((tr, ir))) => {
                    prop_assert_eq!(tv, tr, "ETA mismatch at n={}", vt.len());
                    prop_assert_eq!(
                        vt.id_of(iv),
                        Some(ir),
                        "completion-order mismatch at n={}",
                        vt.len()
                    );
                    let t = tv.max(*now);
                    if t > horizon {
                        return Ok(());
                    }
                    let cv = vt.try_complete(t, iv);
                    let cr = rf.try_complete(t, ir);
                    prop_assert_eq!(cv.is_some(), cr.is_some(), "stale-ETA disagreement");
                    if let (Some((qv, sv)), Some((qr, sr))) = (&cv, &cr) {
                        prop_assert_eq!(qv.id, qr.id);
                        prop_assert_eq!(*sv, *sr, "sojourn mismatch");
                        retired.push((iv, ir));
                    }
                    *now = t;
                    if cv.is_none() {
                        continue;
                    }
                }
                (pv, pr) => {
                    return Err(TestCaseError::fail(format!(
                        "occupancy disagreement: vt={pv:?} ref={pr:?}"
                    )))
                }
            }
        }
    }

    proptest! {
        /// The virtual-time queue is observationally equivalent to the
        /// reference queue on random (work, β, arrival, freq-change)
        /// schedules: identical completion order, µs-identical ETAs and
        /// sojourns, identical epochs and completed/rejected counters,
        /// and bit-identical load aggregates.
        #[test]
        fn prop_virtual_time_equals_reference(
            cores in 1usize..9,
            cap in 4usize..48,
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            let mut vt = PsServer::new(SimTime::ZERO, cores, 2.4, cap);
            let mut rf = ReferencePsServer::new(SimTime::ZERO, cores, 2.4, cap);
            let mut b = RequestBuilder::new();
            let mut now = SimTime::ZERO;
            for op in &ops {
                apply_lockstep(&mut vt, &mut rf, &mut b, &mut now, op, &mut Vec::new())?;
            }
            // Run both to empty, then compare drains of nothing…
            drain_due_lockstep(&mut vt, &mut rf, &mut now, SimTime::MAX, &mut Vec::new())?;
            prop_assert_eq!(vt.len(), rf.len());
            prop_assert_eq!(vt.completed(), rf.completed());
        }

        /// Slot reuse: small admission bounds, drains and frequency
        /// changes recycle slots constantly (a re-push after a
        /// completion takes the freed slot, one after a drain restarts
        /// the table), and the queue still matches the reference. Every
        /// retired handle — of a completed request, or of the request
        /// due next when a drain struck — stays refused, whatever now
        /// holds its slot.
        #[test]
        fn prop_slot_reuse_matches_reference(
            cores in 1usize..5,
            cap in 1usize..10,
            ops in proptest::collection::vec(churn_op_strategy(), 1..160),
        ) {
            let mut vt = PsServer::new(SimTime::ZERO, cores, 2.4, cap);
            let mut rf = ReferencePsServer::new(SimTime::ZERO, cores, 2.4, cap);
            let mut b = RequestBuilder::new();
            let mut now = SimTime::ZERO;
            let mut retired = Vec::new();
            for op in &ops {
                apply_lockstep(&mut vt, &mut rf, &mut b, &mut now, op, &mut retired)?;
                // The latest retirees are the ones whose slots are
                // most likely reused right now.
                let recent = retired.len().saturating_sub(12);
                for &(due, id) in &retired[recent..] {
                    prop_assert_eq!(vt.id_of(due), None);
                    prop_assert!(vt.try_complete(now, due).is_none(), "stale handle accepted");
                    prop_assert!(rf.try_complete(now, id).is_none());
                }
                prop_assert_eq!(vt.len(), rf.len());
                prop_assert_eq!(vt.completed(), rf.completed());
            }
            drain_due_lockstep(&mut vt, &mut rf, &mut now, SimTime::MAX, &mut retired)?;
            prop_assert_eq!(vt.len(), 0);
            prop_assert_eq!(vt.completed(), rf.completed());
            prop_assert!(vt.slots.len() <= cap, "slot table outgrew the admission bound");
        }

        /// Mid-schedule drains leave both queues in equivalent states —
        /// abandoned requests come back in identical order.
        #[test]
        fn prop_drain_matches_reference(
            cores in 1usize..5,
            works in proptest::collection::vec(0.01f64..5.0, 1..30),
            betas in proptest::collection::vec(0.0f64..1.0, 30),
            drain_after_us in 0u64..3_000_000,
        ) {
            let mut vt = PsServer::new(SimTime::ZERO, cores, 2.4, 64);
            let mut rf = ReferencePsServer::new(SimTime::ZERO, cores, 2.4, 64);
            let mut b = RequestBuilder::new();
            let mut now = SimTime::ZERO;
            for (i, &w) in works.iter().enumerate() {
                let at = now + SimDuration::from_micros(10_000 * i as u64);
                drain_due_lockstep(&mut vt, &mut rf, &mut now, at, &mut Vec::new())?;
                now = at.max(now);
                let r = mk(&mut b, now, w, betas[i]);
                vt.push(now, r.clone());
                rf.push(now, r);
            }
            let t = now + SimDuration::from_micros(drain_after_us);
            drain_due_lockstep(&mut vt, &mut rf, &mut now, t, &mut Vec::new())?;
            now = t.max(now);
            let mut dv = Vec::new();
            vt.drain_with(now, |req| dv.push(req.id));
            let dr: Vec<_> = rf.drain(now).into_iter().map(|r| r.id).collect();
            prop_assert_eq!(dv, dr, "drain order mismatch");
            prop_assert_eq!(vt.epoch(), rf.epoch());
        }

        /// Work conservation: total G-cycles completed never exceed
        /// capacity × time, and every accepted request eventually finishes.
        #[test]
        fn prop_all_complete_and_work_conserved(
            works in proptest::collection::vec(0.1f64..5.0, 1..20),
            betas in proptest::collection::vec(0.0f64..1.0, 20),
        ) {
            let mut srv = PsServer::new(SimTime::ZERO, 2, 2.4, 64);
            let mut b = RequestBuilder::new();
            let mut total_work = 0.0;
            for (i, &w) in works.iter().enumerate() {
                let r = b.build(UrlId(0), SourceId(0), SimTime::ZERO, w, betas[i], 0.5, 0.5, false);
                total_work += w;
                prop_assert_eq!(srv.push(SimTime::ZERO, r), PushOutcome::Accepted);
            }
            let mut finished = 0usize;
            let mut last = SimTime::ZERO;
            let mut guard = 0;
            while let Some((eta, id)) = srv.next_completion() {
                guard += 1;
                prop_assert!(guard < 10_000, "completion loop did not converge");
                prop_assert!(eta >= last);
                if srv.try_complete(eta, id).is_some() {
                    finished += 1;
                    last = eta;
                }
            }
            prop_assert_eq!(finished, works.len());
            // Lower bound on makespan: total work / max throughput.
            let min_secs = total_work / (2.0 * 2.4);
            prop_assert!(last.as_secs_f64() >= min_secs - 1e-3,
                "finished too fast: {} < {}", last.as_secs_f64(), min_secs);
        }
    }
}
