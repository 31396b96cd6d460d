//! Composable attack vectors: base flood ⊗ envelope ⊗ source plan ⊗
//! resource profile ⊗ target plan.
//!
//! [`AttackVector`] owns the bot scheduling, work jitter, and arrival
//! clock every flood shares, once, and makes each strategy axis a
//! first-class value:
//!
//! * [`Envelope`] — *when* the flood fires: constant, ID2T-style ON/OFF
//!   bursts (`burst.duration`/`burst.sleep`), or a low-and-slow ramp.
//!   Every envelope is normalized to conserve expected request volume
//!   against its constant-rate equivalent over the attack window, so
//!   comparing envelopes compares *shape*, never *budget*.
//! * [`SourcePlan`] — *who* fires it: a single address, a fixed botnet,
//!   or a botnet auto-sized so the per-bot **peak** rate stays strictly
//!   below a deflate-style firewall threshold (the Fig 11 evasion
//!   region).
//! * [`ResourceProfile`] — *what* each request burns: the victim's CPU
//!   profile, or a memory/IO-heavy profile (low `gamma`) whose dynamic
//!   power DVFS cannot reclaim — the Memory-DoS lever against
//!   capping-only defenses.
//! * [`TargetPlan`] — *where* it lands: one URL, a rotating URL set, or
//!   one rack's URL congruence class at a time.
//!
//! Determinism contract: arrivals and work jitter draw from
//! `SimRng::new(seed)`; target moves
//! draw from the dedicated [`streams::ATTACK_ROTATION`] /
//! [`streams::ATTACK_FOCUS`] named streams. Envelopes are draw-free
//! (they only reshape the arrival clock via exponential thinning), so
//! switching envelope never perturbs any other stream.

use crate::floods::FloodKind;
use crate::service::ServiceKind;
use crate::source::{SourceEvent, TrafficSource};
use netsim::request::{Request, RequestBuilder, SourceId, UrlId};
use simcore::rng::{streams, SimRng};
use simcore::{RngFactory, SimDuration, SimTime};

/// Which tool generates the attack traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackTool {
    /// Open-loop flood at `rate` requests/s aggregate.
    HttpLoad {
        /// Aggregate request rate, requests/s.
        rate: f64,
    },
    /// Closed-loop with `concurrency` outstanding requests.
    ApacheBench {
        /// Maximum outstanding requests.
        concurrency: u32,
    },
}

pub(crate) fn tool_name(tool: AttackTool) -> &'static str {
    match tool {
        AttackTool::HttpLoad { .. } => "http-load",
        AttackTool::ApacheBench { .. } => "ab",
    }
}

/// Demand parameters for the attack's requests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Demand {
    pub(crate) url: UrlId,
    pub(crate) mean_work: f64,
    pub(crate) beta: f64,
    pub(crate) intensity: f64,
    pub(crate) gamma: f64,
}

/// *When* the flood fires: the temporal shape of the open-loop arrival
/// rate. Each envelope multiplies the base rate by a piecewise-constant
/// factor with mean 1 over the attack window, so expected request
/// volume is conserved against the constant-rate equivalent — bursty
/// arrivals, same totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Envelope {
    /// The legacy shape: a homogeneous Poisson process at the base rate.
    Constant,
    /// ID2T-style ON/OFF bursting: every `period`, fire for
    /// `duty · period` at `rate / duty`, then sleep. Short bursts inside
    /// the firewall's detection lag, with sleeps that outlive a finite
    /// ban, slip the whole volume past a deflate-style perimeter.
    OnOffBurst {
        /// Full burst cycle (ON + sleep).
        period: SimDuration,
        /// Fraction of the period spent firing, in `(0, 1]`.
        duty: f64,
    },
    /// Low-and-slow: the rate ramps linearly from 0 to 2× the base rate
    /// across the attack window (mean 1×), staying under rate triggers
    /// for the first half while the budget debt accumulates.
    LowAndSlow,
}

impl Envelope {
    fn validate(&self) {
        if let Envelope::OnOffBurst { period, duty } = self {
            assert!(!period.is_zero(), "burst period must be positive");
            assert!(
                *duty > 0.0 && *duty <= 1.0,
                "burst duty must be in (0, 1], got {duty}"
            );
        }
    }

    /// Peak rate multiplier (what a per-poll-window rate check sees at
    /// the worst moment).
    pub(crate) fn peak_factor(&self) -> f64 {
        match self {
            Envelope::Constant => 1.0,
            Envelope::OnOffBurst { duty, .. } => 1.0 / duty,
            Envelope::LowAndSlow => 2.0,
        }
    }

    /// The rate factor at `elapsed` seconds into a `window`-second
    /// attack, and the number of seconds until that factor next changes.
    /// Factors are piecewise-constant; the low-and-slow ramp discretizes
    /// into 1 s steps at the midpoint value, which integrates the linear
    /// ramp *exactly* (midpoint rule is exact for affine functions).
    fn segment(&self, elapsed: f64, window: f64) -> (f64, f64) {
        match *self {
            Envelope::Constant => (1.0, window - elapsed),
            Envelope::OnOffBurst { period, duty } => {
                let p = period.as_secs_f64();
                let on = duty * p;
                let pos = elapsed % p;
                if pos < on {
                    (1.0 / duty, on - pos)
                } else {
                    (0.0, p - pos)
                }
            }
            Envelope::LowAndSlow => {
                let k = elapsed.floor();
                let seg_end = (k + 1.0).min(window);
                let mid = (k + seg_end) / 2.0;
                (2.0 * mid / window, seg_end - elapsed)
            }
        }
    }

    /// Expected number of arrivals over an attack window of `window`
    /// seconds at base rate `rate` — the volume-conservation invariant:
    /// equal to `rate · window` whenever the window closes an integer
    /// number of burst periods (and always, for the other shapes).
    #[cfg(test)]
    pub(crate) fn expected_volume(&self, rate: f64, window: SimDuration) -> f64 {
        let w = window.as_secs_f64();
        match *self {
            Envelope::Constant | Envelope::LowAndSlow => rate * w,
            Envelope::OnOffBurst { period, duty } => {
                let p = period.as_secs_f64();
                let on = duty * p;
                let full = (w / p).floor();
                let tail = (w - full * p).min(on);
                rate * (full * p + tail / duty)
            }
        }
    }
}

/// *Who* fires the flood: how many bot addresses the aggregate rate is
/// spread over. The per-source rate is what a deflate-style firewall
/// rate-thresholds; spreading is the classic evasion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourcePlan {
    /// One address carries the whole aggregate.
    Single,
    /// A fixed-size botnet, round-robin scheduled.
    Botnet {
        /// Number of bot addresses.
        bots: u32,
    },
    /// A botnet auto-sized so the per-bot **peak** rate (base rate ×
    /// envelope peak factor) stays strictly below `threshold_rps` — the
    /// smallest army that never crosses the deflate trigger.
    EvadingBotnet {
        /// The firewall threshold to stay under, requests/s per source.
        threshold_rps: f64,
    },
}

impl SourcePlan {
    /// Resolve to a concrete bot count for an open-loop rate under an
    /// envelope (closed-loop tools pass their concurrency as `rate`).
    pub(crate) fn bots(&self, rate: f64, envelope: Envelope) -> u32 {
        match *self {
            SourcePlan::Single => 1,
            SourcePlan::Botnet { bots } => {
                assert!(bots >= 1, "botnet needs at least one bot");
                bots
            }
            SourcePlan::EvadingBotnet { threshold_rps } => {
                assert!(
                    threshold_rps > 0.0,
                    "evasion threshold must be positive, got {threshold_rps}"
                );
                let peak = rate * envelope.peak_factor();
                // floor(peak/thr) + 1 bots ⇒ peak/bots < thr strictly,
                // even when peak is an exact multiple of the threshold.
                (peak / threshold_rps).floor() as u32 + 1
            }
        }
    }
}

/// *What* each request burns: the per-request demand character.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResourceProfile {
    /// Inherit the victim kernel's profile (the legacy behaviour).
    Cpu,
    /// Memory/IO-bound power: low CPU-boundedness (`beta` 0.15 — DVFS
    /// barely slows service), full power intensity, and `gamma` 0.2 —
    /// only 20 % of the dynamic power follows the V/F curve, so a
    /// capping defense that drops to the floor P-state still eats ~86 %
    /// of the heat. The Memory-DoS lever.
    MemoryBound,
}

impl ResourceProfile {
    fn apply(&self, demand: &mut Demand) {
        match *self {
            ResourceProfile::Cpu => {}
            ResourceProfile::MemoryBound => {
                demand.beta = 0.15;
                demand.intensity = 1.0;
                demand.gamma = 0.2;
            }
        }
    }

    fn tag(&self) -> &'static str {
        match self {
            ResourceProfile::Cpu => "",
            ResourceProfile::MemoryBound => "mem-",
        }
    }
}

/// *Where* the flood lands: the URL the requests name over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetPlan {
    /// The victim kernel's own URL, fixed for the run.
    Fixed,
    /// Re-roll the URL uniformly from `[url_base, url_base + url_space)`
    /// every `period` (never in place when more than one is available).
    Rotating {
        /// First URL of the rotation range.
        url_base: u16,
        /// Number of URLs rotated over.
        url_space: u16,
        /// Rotation period.
        period: SimDuration,
    },
    /// Aim the whole flood at one rack's URL congruence class at a time,
    /// re-aiming every `period` (see `netsim`'s `RackPlacement`).
    Concentrating {
        /// Number of racks in the topology (`url mod racks` homes a URL).
        racks: usize,
        /// First URL of the per-rack range `[url_base, url_base + racks)`.
        url_base: u16,
        /// Retarget period.
        period: SimDuration,
    },
}

/// Runtime state of a [`TargetPlan`]: the move schedule and its
/// dedicated RNG stream.
enum MoveState {
    Fixed,
    Rotating {
        url_base: u16,
        url_space: u16,
        period: SimDuration,
        next: SimTime,
        rng: SimRng,
        moves: u64,
    },
    Concentrating {
        racks: usize,
        url_base: u16,
        target: usize,
        period: SimDuration,
        next: SimTime,
        rng: SimRng,
        moves: u64,
    },
}

/// The unified attack source: one bot-scheduling / arrival-clock /
/// work-jitter engine under every composition of the four axes.
pub struct AttackVector {
    tool: AttackTool,
    demand: Demand,
    envelope: Envelope,
    /// Botnet addresses `[source_base, source_base + bots)`.
    source_base: u32,
    bots: u32,
    bot_cursor: u32,
    builder: RequestBuilder,
    rng: SimRng,
    clock: SimTime,
    start: SimTime,
    stop: SimTime,
    /// Closed-loop state: outstanding request count.
    outstanding: u32,
    label: String,
    blocked_seen: u64,
    moves: MoveState,
    /// Carry-over of the unit-rate exponential being thinned across
    /// envelope segments (non-constant envelopes only).
    pending_exp: Option<f64>,
}

impl AttackVector {
    /// Attack a victim service kernel: constant envelope, fixed target,
    /// victim resource profile, explicit bot count.
    #[allow(clippy::too_many_arguments)]
    pub fn against_service(
        tool: AttackTool,
        victim: ServiceKind,
        source_base: u32,
        bots: u32,
        id_base: u64,
        start: SimTime,
        stop: SimTime,
        seed: u64,
    ) -> Self {
        let p = victim.profile();
        Self::assemble(
            tool,
            Demand {
                url: victim.url(),
                mean_work: p.mean_work_gcycles,
                beta: p.beta,
                intensity: p.intensity,
                gamma: p.gamma,
            },
            source_base,
            bots,
            id_base,
            start,
            stop,
            seed,
            format!("{}@{}", tool_name(tool), victim.name()),
        )
    }

    /// Launch one of the Fig 3 flood kinds.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn flood(
        kind: FloodKind,
        rate: f64,
        source_base: u32,
        bots: u32,
        id_base: u64,
        start: SimTime,
        stop: SimTime,
        seed: u64,
    ) -> Self {
        let p = kind.params();
        Self::assemble(
            AttackTool::HttpLoad { rate },
            Demand {
                url: p.url,
                mean_work: p.work_gcycles,
                beta: p.beta,
                intensity: p.intensity,
                gamma: p.gamma,
            },
            source_base,
            bots,
            id_base,
            start,
            stop,
            seed,
            kind.name().to_string(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        tool: AttackTool,
        demand: Demand,
        source_base: u32,
        bots: u32,
        id_base: u64,
        start: SimTime,
        stop: SimTime,
        seed: u64,
        label: String,
    ) -> Self {
        assert!(bots >= 1);
        assert!(stop > start);
        if let AttackTool::HttpLoad { rate } = tool {
            assert!(rate > 0.0);
        }
        AttackVector {
            tool,
            demand,
            envelope: Envelope::Constant,
            source_base,
            bots,
            bot_cursor: 0,
            builder: RequestBuilder::starting_at(id_base),
            rng: SimRng::new(seed),
            clock: start,
            start,
            stop,
            outstanding: 0,
            label,
            blocked_seen: 0,
            moves: MoveState::Fixed,
            pending_exp: None,
        }
    }

    /// Rotate the flooded URL: every `period` the target re-rolls
    /// uniformly over `[url_base, url_base + url_space)`, keeping the
    /// victim's work character while the *name* a static suspect list
    /// keys on keeps moving. The label gains a `rotating-` prefix; the
    /// initial URL and every hop draw from the
    /// [`streams::ATTACK_ROTATION`] stream of `seed`, so the rotation
    /// period never perturbs the arrival process.
    pub fn with_rotation(
        mut self,
        url_base: u16,
        url_space: u16,
        period: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(url_space >= 1, "need at least one URL to rotate over");
        assert!(
            url_base.checked_add(url_space).is_some(),
            "URL range overflows u16"
        );
        assert!(!period.is_zero(), "rotation period must be positive");
        self.label = format!("rotating-{}", self.label);
        let mut rng = RngFactory::new(seed).stream(streams::ATTACK_ROTATION);
        self.demand.url = UrlId(url_base + rng.below(url_space as u64) as u16);
        self.moves = MoveState::Rotating {
            url_base,
            url_space,
            period,
            next: self.start + period,
            rng,
            moves: 0,
        };
        self
    }

    /// Concentrate the flood on one rack: URLs come from
    /// `[url_base, url_base + racks)`, one per rack congruence class
    /// under a rack-affine NLB (`url mod racks`), and the whole flood
    /// lands on the target rack, re-aimed every `period`. The label
    /// gains a `concentrating-` prefix; the initial rack and every
    /// re-aim draw from the [`streams::ATTACK_FOCUS`] stream of `seed`.
    pub fn with_concentration(
        mut self,
        racks: usize,
        url_base: u16,
        period: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(racks >= 1, "need at least one rack to aim at");
        assert!(
            url_base.checked_add(racks as u16).is_some(),
            "URL range overflows u16"
        );
        assert!(!period.is_zero(), "retarget period must be positive");
        self.label = format!("concentrating-{}", self.label);
        let mut rng = RngFactory::new(seed).stream(streams::ATTACK_FOCUS);
        let target = rng.below(racks as u64) as usize;
        self.moves = MoveState::Concentrating {
            racks,
            url_base,
            target,
            period,
            next: self.start + period,
            rng,
            moves: 0,
        };
        self.demand.url = Self::rack_url(url_base, racks, target);
        self
    }

    /// Reshape the arrival process. Constant stays bit-identical to the
    /// legacy clock; other envelopes thin a unit-rate exponential across
    /// the piecewise-constant rate segments (one draw per arrival either
    /// way, same stream).
    pub(crate) fn with_envelope(mut self, envelope: Envelope) -> Self {
        envelope.validate();
        self.envelope = envelope;
        self
    }

    /// Override the per-request demand character.
    pub(crate) fn with_resources(mut self, profile: ResourceProfile) -> Self {
        profile.apply(&mut self.demand);
        self
    }

    /// Replace the report label.
    pub(crate) fn with_label(mut self, label: String) -> Self {
        self.label = label;
        self
    }

    /// Aggregate rate for open-loop tools.
    #[cfg(test)]
    pub(crate) fn rate(&self) -> Option<f64> {
        match self.tool {
            AttackTool::HttpLoad { rate } => Some(rate),
            AttackTool::ApacheBench { .. } => None,
        }
    }

    /// Per-bot *average* rate for open-loop tools.
    #[cfg(test)]
    pub(crate) fn per_bot_rate(&self) -> Option<f64> {
        self.rate().map(|r| r / self.bots as f64)
    }

    /// Per-bot **peak** rate: what a per-poll-window rate check sees at
    /// the envelope's worst moment.
    #[cfg(test)]
    pub(crate) fn per_bot_peak_rate(&self) -> Option<f64> {
        self.per_bot_rate().map(|r| r * self.envelope.peak_factor())
    }

    /// Number of bot addresses.
    #[cfg(test)]
    pub(crate) fn bots(&self) -> u32 {
        self.bots
    }

    /// Blocked events observed so far.
    #[cfg(test)]
    pub(crate) fn blocked_seen(&self) -> u64 {
        self.blocked_seen
    }

    /// The URL currently being flooded.
    pub(crate) fn current_url(&self) -> UrlId {
        self.demand.url
    }

    /// Completed target moves (rotations / retargets) so far.
    #[cfg(test)]
    pub(crate) fn moves(&self) -> u64 {
        match &self.moves {
            MoveState::Fixed => 0,
            MoveState::Rotating { moves, .. } | MoveState::Concentrating { moves, .. } => *moves,
        }
    }

    /// The URL range a rotating plan hops over (`None` otherwise).
    #[cfg(test)]
    pub(crate) fn url_range(&self) -> Option<std::ops::Range<u16>> {
        match &self.moves {
            MoveState::Rotating {
                url_base,
                url_space,
                ..
            } => Some(*url_base..*url_base + *url_space),
            _ => None,
        }
    }

    /// The rack currently under fire (`None` unless concentrating).
    pub fn target_rack(&self) -> Option<usize> {
        match &self.moves {
            MoveState::Concentrating { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// The one URL of `rack`'s congruence class within a concentrating
    /// plan's range (`None` otherwise).
    #[cfg(test)]
    pub(crate) fn url_for(&self, rack: usize) -> Option<UrlId> {
        match &self.moves {
            MoveState::Concentrating {
                racks, url_base, ..
            } => Some(Self::rack_url(*url_base, *racks, rack)),
            _ => None,
        }
    }

    fn rack_url(url_base: u16, racks: usize, rack: usize) -> UrlId {
        let base = url_base as usize;
        let offset = (racks - base % racks + rack) % racks;
        UrlId((base + offset) as u16)
    }

    /// Ground-truth `(url, intensity)` profile of every URL this vector
    /// may ever flood — the "impossible knowledge" oracle upper bound a
    /// defense can be measured against.
    pub fn oracle_profiles(&self) -> Vec<(UrlId, f64)> {
        match &self.moves {
            MoveState::Fixed => vec![(self.demand.url, self.demand.intensity)],
            MoveState::Rotating {
                url_base,
                url_space,
                ..
            } => (*url_base..*url_base + *url_space)
                .map(|u| (UrlId(u), self.demand.intensity))
                .collect(),
            MoveState::Concentrating {
                racks, url_base, ..
            } => (0..*racks)
                .map(|r| (Self::rack_url(*url_base, *racks, r), self.demand.intensity))
                .collect(),
        }
    }

    /// The deterministic target-move schedule `(instant, new url)` this
    /// vector will follow up to `horizon`, starting with the initial
    /// target. Consumes the vector (it spends the move stream): build a
    /// fresh twin with the same seed to plan the regret bookkeeping of a
    /// run without perturbing the vector that runs.
    pub fn planned_moves(mut self, horizon: SimTime) -> Vec<(SimTime, UrlId)> {
        let mut out = vec![(self.start, self.current_url())];
        loop {
            let due = match &self.moves {
                MoveState::Fixed => break,
                MoveState::Rotating { next, .. } | MoveState::Concentrating { next, .. } => *next,
            };
            if due >= horizon || due >= self.stop {
                break;
            }
            self.advance_moves(due);
            out.push((due, self.current_url()));
        }
        out
    }

    fn advance_moves(&mut self, t: SimTime) {
        match &mut self.moves {
            MoveState::Fixed => {}
            MoveState::Rotating {
                url_base,
                url_space,
                period,
                next,
                rng,
                moves,
            } => {
                while t >= *next {
                    let mut pick = *url_base + rng.below(*url_space as u64) as u16;
                    // With more than one URL available, never "rotate"
                    // in place.
                    while *url_space > 1 && UrlId(pick) == self.demand.url {
                        pick = *url_base + rng.below(*url_space as u64) as u16;
                    }
                    self.demand.url = UrlId(pick);
                    *moves += 1;
                    *next += *period;
                }
            }
            MoveState::Concentrating {
                racks,
                url_base,
                target,
                period,
                next,
                rng,
                moves,
            } => {
                while t >= *next {
                    let mut pick = rng.below(*racks as u64) as usize;
                    // With more than one rack available, never re-aim in
                    // place.
                    while *racks > 1 && pick == *target {
                        pick = rng.below(*racks as u64) as usize;
                    }
                    *target = pick;
                    self.demand.url = Self::rack_url(*url_base, *racks, pick);
                    *moves += 1;
                    *next += *period;
                }
            }
        }
    }

    fn build(&mut self, arrival: SimTime) -> Request {
        // Deterministic round-robin over the botnet: every agent behaves
        // identically "like a normal user at the networking level".
        let bot = SourceId(self.source_base + self.bot_cursor % self.bots);
        self.bot_cursor = self.bot_cursor.wrapping_add(1);
        // Work jitter: ±20 % uniform (attack tools replay fixed queries).
        let work = self.demand.mean_work * self.rng.range_f64(0.8, 1.2);
        self.builder.build(
            self.demand.url,
            bot,
            arrival,
            work,
            self.demand.beta,
            self.demand.intensity,
            self.demand.gamma,
            true,
        )
    }

    /// Advance the arrival clock past the next envelope-shaped arrival.
    /// Returns `false` when the next arrival falls beyond the horizon.
    fn advance_arrival(&mut self, rate: f64) -> bool {
        if let Envelope::Constant = self.envelope {
            // The constant-rate clock: one exponential draw per arrival.
            let gap = self.rng.exp(rate);
            self.clock += SimDuration::from_secs_f64(gap.max(1e-9));
            return self.clock < self.stop;
        }
        // Thin one unit-rate exponential across the piecewise-constant
        // rate segments: within a segment of factor f the residual `e`
        // is consumed at `rate · f` per second; sleep segments (f = 0)
        // cost nothing and the clock jumps over them. Leaving a segment
        // moves the clock by at least 1 µs: a float remainder can put a
        // segment's end within half a microsecond of the clock, and a
        // step that rounds to 0 µs would read the same segment forever.
        let past =
            |span: f64| SimDuration::from_secs_f64(span.max(0.0)).max(SimDuration::from_micros(1));
        let window = self.stop.since(self.start).as_secs_f64();
        let mut e = self.pending_exp.take().unwrap_or_else(|| self.rng.exp(1.0));
        loop {
            if self.clock >= self.stop {
                // Remember the partially-consumed draw so a late horizon
                // extension could resume; mostly it keeps the accounting
                // exact: one draw per delivered arrival.
                self.pending_exp = Some(e);
                return false;
            }
            let elapsed = self.clock.since(self.start).as_secs_f64();
            let (factor, span) = self.envelope.segment(elapsed, window);
            if factor <= 0.0 {
                self.clock += past(span);
                continue;
            }
            let lambda = rate * factor;
            let dt = e / lambda;
            if dt <= span {
                self.clock += SimDuration::from_secs_f64(dt.max(1e-9));
                return self.clock < self.stop;
            }
            e -= span * lambda;
            self.clock += past(span);
        }
    }
}

impl TrafficSource for AttackVector {
    fn next_request(&mut self, now: SimTime) -> Option<Request> {
        if now >= self.stop {
            return None;
        }
        // Move the target on the generated arrival clock (simulated
        // time), not on how often the driver polls this source.
        let t = now.max(self.clock);
        self.advance_moves(t);
        match self.tool {
            AttackTool::HttpLoad { rate } => {
                if self.clock < now.max(self.start) {
                    self.clock = now.max(self.start);
                }
                if !self.advance_arrival(rate) {
                    return None;
                }
                Some(self.build(self.clock))
            }
            AttackTool::ApacheBench { concurrency } => {
                if self.outstanding >= concurrency {
                    return None; // dormant until a completion feeds back
                }
                self.outstanding += 1;
                let arrival = now.max(self.start);
                if arrival >= self.stop {
                    return None;
                }
                Some(self.build(arrival))
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn feedback(&mut self, _now: SimTime, event: SourceEvent) {
        match event {
            SourceEvent::Completed(_) => {
                if matches!(self.tool, AttackTool::ApacheBench { .. }) {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
            }
            SourceEvent::Blocked(_) => {
                self.blocked_seen += 1;
                if matches!(self.tool, AttackTool::ApacheBench { .. }) {
                    // A blocked request also frees an AB slot.
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
            }
            SourceEvent::Rejected(_) => {
                // A 503 is not a detection; it only frees an AB slot.
                if matches!(self.tool, AttackTool::ApacheBench { .. }) {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
            }
        }
    }

    /// Only ApacheBench's concurrency window waits for responses;
    /// http-load fires open-loop.
    fn observes_outcomes(&self) -> bool {
        matches!(self.tool, AttackTool::ApacheBench { .. })
    }

    fn is_attacker(&self) -> bool {
        true
    }
}

/// A declarative attack-vector recipe: the four strategy axes plus the
/// victim, buildable any number of times (sweep cells mint fresh,
/// identical populations per call).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackVectorSpec {
    /// The attack tool (open- or closed-loop).
    pub tool: AttackTool,
    /// The victim service kernel (work character and default URL).
    pub victim: ServiceKind,
    /// Temporal shape.
    pub envelope: Envelope,
    /// Source spreading.
    pub plan: SourcePlan,
    /// Per-request demand character.
    pub profile: ResourceProfile,
    /// URL movement.
    pub target: TargetPlan,
}

impl AttackVectorSpec {
    /// An open-loop flood on `victim` at `rate` req/s: constant
    /// envelope, single source, victim resources, fixed target.
    pub fn open_loop(victim: ServiceKind, rate: f64) -> Self {
        AttackVectorSpec {
            tool: AttackTool::HttpLoad { rate },
            victim,
            envelope: Envelope::Constant,
            plan: SourcePlan::Single,
            profile: ResourceProfile::Cpu,
            target: TargetPlan::Fixed,
        }
    }

    /// Set the envelope.
    pub fn envelope(mut self, envelope: Envelope) -> Self {
        self.envelope = envelope;
        self
    }

    /// Set the source plan.
    pub fn sources(mut self, plan: SourcePlan) -> Self {
        self.plan = plan;
        self
    }

    /// Set the resource profile.
    pub fn resources(mut self, profile: ResourceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Set the target plan.
    pub fn target(mut self, target: TargetPlan) -> Self {
        self.target = target;
        self
    }

    /// A stable human-readable name composed from the axes, e.g.
    /// `burst-botnet-mem-http-load@Colla-Filt`.
    pub fn name(&self) -> String {
        let env = match self.envelope {
            Envelope::Constant => "",
            Envelope::OnOffBurst { .. } => "burst-",
            Envelope::LowAndSlow => "lowslow-",
        };
        let plan = match self.plan {
            SourcePlan::Single => "",
            SourcePlan::Botnet { .. } => "botnet-",
            SourcePlan::EvadingBotnet { .. } => "evader-",
        };
        let tgt = match self.target {
            TargetPlan::Fixed => "",
            TargetPlan::Rotating { .. } => "rotating-",
            TargetPlan::Concentrating { .. } => "concentrating-",
        };
        format!(
            "{env}{plan}{}{tgt}{}@{}",
            self.profile.tag(),
            tool_name(self.tool),
            self.victim.name()
        )
    }

    /// Materialize the vector over the id/address/seed placement the
    /// caller owns (see `ScenarioBuilder` for the automatic bookkeeping).
    pub(crate) fn build(
        &self,
        source_base: u32,
        id_base: u64,
        start: SimTime,
        stop: SimTime,
        seed: u64,
    ) -> AttackVector {
        let rate_like = match self.tool {
            AttackTool::HttpLoad { rate } => rate,
            AttackTool::ApacheBench { concurrency } => concurrency as f64,
        };
        let bots = self.plan.bots(rate_like, self.envelope);
        let v = AttackVector::against_service(
            self.tool,
            self.victim,
            source_base,
            bots,
            id_base,
            start,
            stop,
            seed,
        );
        let v = match self.target {
            TargetPlan::Fixed => v,
            TargetPlan::Rotating {
                url_base,
                url_space,
                period,
            } => v.with_rotation(url_base, url_space, period, seed),
            TargetPlan::Concentrating {
                racks,
                url_base,
                period,
            } => v.with_concentration(racks, url_base, period, seed),
        };
        v.with_envelope(self.envelope)
            .with_resources(self.profile)
            .with_label(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn count_arrivals(v: &mut AttackVector) -> u64 {
        let mut count = 0;
        let mut last = SimTime::ZERO;
        while let Some(r) = v.next_request(last) {
            last = r.arrival;
            count += 1;
        }
        count
    }

    #[test]
    fn a_burst_ending_within_a_microsecond_of_the_clock_is_left_behind() {
        // 4.6 s % 2 s is 0.5999999999999996, 3e-16 s short of the 0.6 s
        // ON phase: the clock must step past that sliver into the sleep
        // and fire again in the next ON phase, at 6 s.
        let mut v = AttackVector::against_service(
            AttackTool::HttpLoad { rate: 100.0 },
            ServiceKind::CollaFilt,
            5000,
            20,
            1 << 40,
            s(0),
            s(60),
            1,
        )
        .with_envelope(Envelope::OnOffBurst {
            period: SimDuration::from_secs(2),
            duty: 0.3,
        });
        let at = SimTime::from_millis(4_600);
        v.clock = at;
        v.pending_exp = Some(1.0);
        let r = v.next_request(at).expect("the window is open");
        assert!(
            r.arrival >= s(6) && r.arrival < SimTime::from_millis(6_600),
            "{r:?}"
        );
    }

    #[test]
    fn constant_envelope_is_bit_identical_to_legacy_clock() {
        let mk = |env: Option<Envelope>| {
            let v = AttackVector::against_service(
                AttackTool::HttpLoad { rate: 200.0 },
                ServiceKind::CollaFilt,
                5000,
                20,
                1 << 40,
                s(0),
                s(60),
                1,
            );
            match env {
                Some(e) => v.with_envelope(e),
                None => v,
            }
        };
        let mut plain = mk(None);
        let mut explicit = mk(Some(Envelope::Constant));
        let mut last = SimTime::ZERO;
        loop {
            let (a, b) = (plain.next_request(last), explicit.next_request(last));
            assert_eq!(a, b);
            match a {
                Some(r) => last = r.arrival,
                None => break,
            }
        }
    }

    #[test]
    fn burst_envelope_conserves_volume() {
        let env = Envelope::OnOffBurst {
            period: SimDuration::from_secs(10),
            duty: 0.2,
        };
        // 120 s window = 12 full periods: expected volume is exact.
        assert!((env.expected_volume(100.0, SimDuration::from_secs(120)) - 12_000.0).abs() < 1e-6);
        let mut v = AttackVector::against_service(
            AttackTool::HttpLoad { rate: 100.0 },
            ServiceKind::CollaFilt,
            0,
            10,
            0,
            s(0),
            s(120),
            7,
        )
        .with_envelope(env);
        let count = count_arrivals(&mut v) as f64;
        // Poisson(12000): ±4σ ≈ ±438.
        assert!((count - 12_000.0).abs() < 450.0, "count={count}");
    }

    #[test]
    fn burst_arrivals_fall_only_in_on_windows() {
        let mut v = AttackVector::against_service(
            AttackTool::HttpLoad { rate: 50.0 },
            ServiceKind::KMeans,
            0,
            5,
            0,
            s(0),
            s(100),
            3,
        )
        .with_envelope(Envelope::OnOffBurst {
            period: SimDuration::from_secs(20),
            duty: 0.25,
        });
        let mut last = SimTime::ZERO;
        while let Some(r) = v.next_request(last) {
            let pos = r.arrival.as_secs_f64() % 20.0;
            assert!(pos <= 5.0 + 1e-6, "arrival at cycle position {pos}");
            last = r.arrival;
        }
    }

    #[test]
    fn lowslow_ramp_conserves_volume_and_backloads() {
        let mut v = AttackVector::against_service(
            AttackTool::HttpLoad { rate: 100.0 },
            ServiceKind::CollaFilt,
            0,
            10,
            0,
            s(0),
            s(120),
            11,
        )
        .with_envelope(Envelope::LowAndSlow);
        let mut first_half = 0u64;
        let mut second_half = 0u64;
        let mut last = SimTime::ZERO;
        while let Some(r) = v.next_request(last) {
            if r.arrival < s(60) {
                first_half += 1;
            } else {
                second_half += 1;
            }
            last = r.arrival;
        }
        let total = (first_half + second_half) as f64;
        assert!((total - 12_000.0).abs() < 450.0, "total={total}");
        // Linear 0→2× ramp puts 25 % of the volume in the first half.
        let share = first_half as f64 / total;
        assert!((share - 0.25).abs() < 0.03, "first-half share {share}");
    }

    #[test]
    fn evading_botnet_peaks_below_threshold() {
        let spec = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 600.0)
            .envelope(Envelope::OnOffBurst {
                period: SimDuration::from_secs(10),
                duty: 0.5,
            })
            .sources(SourcePlan::EvadingBotnet {
                threshold_rps: 150.0,
            });
        let v = spec.build(0, 0, s(0), s(60), 1);
        // Peak 1200 rps ⇒ 9 bots; per-bot peak 133.3 < 150 strictly.
        assert_eq!(v.bots(), 9);
        let peak = v.per_bot_peak_rate().unwrap();
        assert!(peak < 150.0, "peak per bot {peak}");
    }

    #[test]
    fn spec_build_is_deterministic_and_named() {
        let spec = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 200.0)
            .envelope(Envelope::LowAndSlow)
            .resources(ResourceProfile::MemoryBound)
            .target(TargetPlan::Rotating {
                url_base: 700,
                url_space: 8,
                period: SimDuration::from_secs(5),
            });
        assert_eq!(spec.name(), "lowslow-mem-rotating-http-load@Colla-Filt");
        let collect = |mut v: AttackVector| {
            let mut out = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some(r) = v.next_request(last) {
                last = r.arrival;
                out.push((r.id, r.url, r.arrival));
            }
            out
        };
        let a = collect(spec.build(100, 0, s(0), s(30), 5));
        let b = collect(spec.build(100, 0, s(0), s(30), 5));
        assert_eq!(a, b);
        let c = collect(spec.build(100, 0, s(0), s(30), 6));
        assert_ne!(a, c);
    }

    #[test]
    fn memory_profile_rewrites_demand() {
        let spec = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 100.0)
            .resources(ResourceProfile::MemoryBound);
        let mut v = spec.build(0, 0, s(0), s(10), 2);
        let r = v.next_request(s(0)).unwrap();
        assert!((r.beta - 0.15).abs() < 1e-12);
        assert!((r.intensity - 1.0).abs() < 1e-12);
        assert!((r.gamma - 0.2).abs() < 1e-12);
    }

    #[test]
    fn planned_moves_match_the_run() {
        let spec = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 300.0).target(
            TargetPlan::Rotating {
                url_base: 640,
                url_space: 6,
                period: SimDuration::from_secs(7),
            },
        );
        let plan = spec.build(0, 0, s(0), s(60), 9).planned_moves(s(60));
        // Initial target + 8 rotations (t = 7, 14, …, 56).
        assert_eq!(plan.len(), 9);
        // Replay the actual run and check every arrival's URL agrees
        // with the plan in force at the poll instant (moves take effect
        // at the poll that generates the arrival, matching the legacy
        // rotation semantics: the switch lags the drawn arrival by at
        // most one request).
        let mut v = spec.build(0, 0, s(0), s(60), 9);
        let mut last = SimTime::ZERO;
        while let Some(r) = v.next_request(last) {
            let planned = plan
                .iter()
                .rev()
                .find(|(at, _)| *at <= last)
                .map(|(_, u)| *u)
                .unwrap();
            assert_eq!(r.url, planned, "polled at {last:?}");
            last = r.arrival;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Volume conservation for every envelope, any window: the
        /// deterministic integral of the piecewise-constant rate factor
        /// over the attack window (no arrival noise) equals
        /// `expected_volume`, and whenever the window closes an integer
        /// number of burst periods (always, for the other shapes) it
        /// equals the constant-rate volume — bursty arrivals, same
        /// totals.
        #[test]
        fn prop_envelopes_conserve_volume(
            duty in 0.05f64..1.0,
            period_s in 1u64..30,
            rate in 20.0f64..300.0,
            window_s in 1u64..180,
            env_ix in 0usize..3,
        ) {
            use proptest::prelude::prop_assert;
            let env = match env_ix {
                0 => Envelope::Constant,
                1 => Envelope::OnOffBurst {
                    period: SimDuration::from_secs(period_s),
                    duty,
                },
                _ => Envelope::LowAndSlow,
            };
            let w = window_s as f64;
            let mut t = 0.0;
            let mut volume = 0.0;
            while t < w - 1e-12 {
                let (factor, span) = env.segment(t, w);
                let span = span.min(w - t).max(1e-12);
                volume += factor * span;
                t += span;
            }
            let expected = env.expected_volume(rate, SimDuration::from_secs(window_s));
            prop_assert!(
                (volume * rate - expected).abs() < 1e-6 * expected.max(1.0),
                "integrated {} vs expected {}", volume * rate, expected
            );
            let whole_periods = match env {
                Envelope::OnOffBurst { .. } => window_s % period_s == 0,
                _ => true,
            };
            if whole_periods {
                prop_assert!(
                    (volume * rate - rate * w).abs() < 1e-6 * rate * w,
                    "volume {} not conserved vs constant {}", volume * rate, rate * w
                );
            }
        }
    }

    #[test]
    fn envelope_validation_rejects_bad_duty() {
        let r = std::panic::catch_unwind(|| {
            AttackVector::against_service(
                AttackTool::HttpLoad { rate: 10.0 },
                ServiceKind::KMeans,
                0,
                1,
                0,
                s(0),
                s(10),
                1,
            )
            .with_envelope(Envelope::OnOffBurst {
                period: SimDuration::from_secs(10),
                duty: 0.0,
            })
        });
        assert!(r.is_err());
    }
}
