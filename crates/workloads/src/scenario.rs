//! Composable scenario builder: the one way a simulated population is
//! built.
//!
//! Examples, tests, figures and the benchmark all assemble the same
//! population shapes — an AliOS background plus zero or more attacks —
//! with slightly different knobs. [`ScenarioBuilder`] owns that
//! assembly and the id-space and address-pool bookkeeping (each source
//! gets disjoint request-id and client-address ranges automatically),
//! and produces a fresh, deterministic `Vec<Box<dyn TrafficSource>>`
//! per call, which is exactly what sweep runners need. Callers that
//! must read an attack's plan (oracle profiles, the rack under fire,
//! the move schedule) mint a concrete twin of one ingredient with
//! [`ScenarioBuilder::vector_twin`] or [`ScenarioBuilder::dope_twin`]
//! instead of building a second copy by hand.

use crate::alibaba::{AlibabaTraceConfig, UtilizationTrace};
use crate::attacker::AttackTool;
use crate::dope::{DopeAttacker, DopeConfig};
use crate::floods::FloodKind;
use crate::normal::NormalUsers;
use crate::service::{ServiceKind, ServiceMix};
use crate::source::TrafficSource;
use crate::vector::{
    AttackVector, AttackVectorSpec, Envelope, ResourceProfile, SourcePlan, TargetPlan,
};
use netsim::request::Request;
use simcore::SimTime;

/// One ingredient of a scenario.
#[derive(Debug, Clone)]
enum Ingredient {
    Normal {
        peak_rate: f64,
        clients: u32,
    },
    Flood {
        kind: FloodKind,
        rate: f64,
        bots: u32,
        start: SimTime,
    },
    Dope {
        config: DopeConfig,
        start: SimTime,
    },
    Vector {
        spec: AttackVectorSpec,
        start: SimTime,
        stop: Option<SimTime>,
    },
}

/// How a pinned ingredient derives its RNG seed from the run seed
/// passed to [`ScenarioBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedPin {
    /// The default placement: `seed ^ ((index + 1) · φ64)` — disjoint
    /// streams per ingredient without caller bookkeeping.
    #[default]
    Derived,
    /// The run seed verbatim.
    Raw,
    /// The run seed xor a fixed constant (`seed ^ 0x5EED`-style stream
    /// separation between populations that share a run seed).
    Xor(u64),
}

/// Placement overrides for one ingredient: any field left `None` keeps
/// the automatic index-derived value. Pins let a scenario keep an
/// explicit address range, id space and seed stream — the placements
/// the goldens and the figures were recorded with — whatever index the
/// ingredient lands at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Pin {
    addr_base: Option<u32>,
    id_base: Option<u64>,
    seed: SeedPin,
}

/// Builds deterministic source populations.
///
/// ```
/// use workloads::ScenarioBuilder;
/// use workloads::attacker::AttackTool;
/// use workloads::service::ServiceKind;
/// use simcore::SimTime;
///
/// let builder = ScenarioBuilder::new()
///     .with_normal_users(80.0, 60)
///     .with_attack(AttackTool::HttpLoad { rate: 390.0 },
///                  ServiceKind::CollaFilt, 40, 5);
/// // Each build() mints a fresh, identical population: ideal for sweeps.
/// let sources = builder.build(42, SimTime::from_secs(600));
/// assert_eq!(sources.len(), 2);
/// assert!(sources[1].is_attacker());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    ingredients: Vec<(Ingredient, Pin)>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Empty scenario.
    pub fn new() -> Self {
        ScenarioBuilder {
            ingredients: Vec::new(),
        }
    }

    fn push(mut self, ing: Ingredient) -> Self {
        self.ingredients.push((ing, Pin::default()));
        self
    }

    /// Pin the most recently added ingredient to an explicit placement:
    /// client-address base, request-id base, and seed derivation.
    ///
    /// # Panics
    ///
    /// Panics when nothing has been added yet.
    pub fn pinned(mut self, addr_base: u32, id_base: u64, seed: SeedPin) -> Self {
        let (_, pin) = self
            .ingredients
            .last_mut()
            .expect("pinned() needs an ingredient to pin");
        *pin = Pin {
            addr_base: Some(addr_base),
            id_base: Some(id_base),
            seed,
        };
        self
    }

    /// Add the standard AliOS background population: the AliOS service
    /// mix over a small synthesized Alibaba utilization trace (drawn
    /// from the run seed), `clients` addresses, `peak_rate` requests/s
    /// at trace utilization 1.0.
    pub fn with_normal_users(self, peak_rate: f64, clients: u32) -> Self {
        self.push(Ingredient::Normal { peak_rate, clients })
    }

    /// Add an attack-tool flood on a service kernel over a fixed botnet
    /// from `start_s` to the horizon.
    pub fn with_attack(
        self,
        tool: AttackTool,
        victim: ServiceKind,
        bots: u32,
        start_s: u64,
    ) -> Self {
        self.push(Ingredient::Vector {
            spec: botnet(tool, victim, bots),
            start: SimTime::from_secs(start_s),
            stop: None,
        })
    }

    /// Add a time-bounded attack (for switching scenarios).
    pub fn with_attack_window(
        self,
        tool: AttackTool,
        victim: ServiceKind,
        bots: u32,
        start_s: u64,
        stop_s: u64,
    ) -> Self {
        self.push(Ingredient::Vector {
            spec: botnet(tool, victim, bots),
            start: SimTime::from_secs(start_s),
            stop: Some(SimTime::from_secs(stop_s)),
        })
    }

    /// Add a layered flood (Fig 3 taxonomy).
    pub fn with_flood(self, kind: FloodKind, rate: f64, bots: u32, start_s: u64) -> Self {
        self.push(Ingredient::Flood {
            kind,
            rate,
            bots,
            start: SimTime::from_secs(start_s),
        })
    }

    /// Add the adaptive Fig-12 DOPE attacker.
    pub fn with_dope(self, config: DopeConfig, start_s: u64) -> Self {
        self.push(Ingredient::Dope {
            config,
            start: SimTime::from_secs(start_s),
        })
    }

    /// Add a composed [`AttackVectorSpec`] (envelope × sources ×
    /// resources × target), active from `start_s` to the horizon.
    pub fn with_vector(self, spec: AttackVectorSpec, start_s: u64) -> Self {
        self.push(Ingredient::Vector {
            spec,
            start: SimTime::from_secs(start_s),
            stop: None,
        })
    }

    /// Number of ingredients added so far.
    pub fn len(&self) -> usize {
        self.ingredients.len()
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.ingredients.is_empty()
    }

    /// The `(addr_base, id_base, sub_seed)` ingredient `index` builds
    /// with under run seed `seed`: the automatic index-derived values
    /// unless it was [`pinned`](ScenarioBuilder::pinned).
    fn placement(&self, index: usize, seed: u64) -> (u32, u64, u64) {
        let pin = self.ingredients[index].1;
        let addr_base = pin
            .addr_base
            .unwrap_or(1_000 + index as u32 * 10_000);
        let id_base = pin.id_base.unwrap_or((index as u64 + 1) << 40);
        let sub_seed = match pin.seed {
            SeedPin::Derived => seed ^ ((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            SeedPin::Raw => seed,
            SeedPin::Xor(x) => seed ^ x,
        };
        (addr_base, id_base, sub_seed)
    }

    /// The concrete [`AttackVector`] ingredient `index` builds under run
    /// seed `seed` and `horizon`: a byte-identical twin of the source
    /// [`build`](ScenarioBuilder::build) boxes, for callers that read
    /// the vector's plan (oracle profiles, the rack under fire, the move
    /// schedule) without disturbing the copy that runs.
    ///
    /// `None` when the ingredient is not a vector or flood, or when its
    /// window is empty (it starts at or after the horizon).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn vector_twin(&self, index: usize, seed: u64, horizon: SimTime) -> Option<AttackVector> {
        let (addr_base, id_base, sub_seed) = self.placement(index, seed);
        match &self.ingredients[index].0 {
            Ingredient::Flood {
                kind,
                rate,
                bots,
                start,
            } => (*start < horizon).then(|| {
                AttackVector::flood(
                    *kind, *rate, addr_base, *bots, id_base, *start, horizon, sub_seed,
                )
            }),
            Ingredient::Vector { spec, start, stop } => {
                let stop = stop.unwrap_or(horizon).min(horizon);
                (*start < stop).then(|| spec.build(addr_base, id_base, *start, stop, sub_seed))
            }
            Ingredient::Normal { .. } | Ingredient::Dope { .. } => None,
        }
    }

    /// The concrete [`DopeAttacker`] ingredient `index` builds under run
    /// seed `seed` and `horizon` — the twin of
    /// [`vector_twin`](ScenarioBuilder::vector_twin) for a
    /// [`with_dope`](ScenarioBuilder::with_dope) ingredient, for callers
    /// that drive the attacker directly and read its rate history.
    ///
    /// `None` when the ingredient is not a DOPE attacker, or when it
    /// starts at or after the horizon.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn dope_twin(&self, index: usize, seed: u64, horizon: SimTime) -> Option<DopeAttacker> {
        let (addr_base, id_base, sub_seed) = self.placement(index, seed);
        match &self.ingredients[index].0 {
            Ingredient::Dope { config, start } => (*start < horizon).then(|| {
                DopeAttacker::new(config.clone(), addr_base, id_base, *start, horizon, sub_seed)
            }),
            _ => None,
        }
    }

    /// Materialize fresh sources for one run. Each ingredient gets a
    /// disjoint request-id space (`(index + 1) << 40`) and client-address
    /// range, and a seed derived from `(seed, index)` — unless pinned
    /// to an explicit placement (see [`ScenarioBuilder::pinned`]). An
    /// attack that starts at or after `horizon` builds an inert source
    /// at its own index, so every other ingredient keeps its placement.
    pub fn build(&self, seed: u64, horizon: SimTime) -> Vec<Box<dyn TrafficSource>> {
        (0..self.ingredients.len())
            .map(|i| self.build_one(i, seed, horizon))
            .collect()
    }

    fn build_one(&self, index: usize, seed: u64, horizon: SimTime) -> Box<dyn TrafficSource> {
        fn boxed<S: TrafficSource + 'static>(source: Option<S>) -> Box<dyn TrafficSource> {
            match source {
                Some(s) => Box::new(s),
                None => Box::new(Inert),
            }
        }
        match &self.ingredients[index].0 {
            Ingredient::Normal { peak_rate, clients } => {
                let (addr_base, id_base, sub_seed) = self.placement(index, seed);
                Box::new(NormalUsers::new(
                    UtilizationTrace::synthesize(&AlibabaTraceConfig::small(seed)),
                    ServiceMix::alios_normal(),
                    *peak_rate,
                    addr_base,
                    *clients,
                    id_base,
                    horizon,
                    sub_seed,
                ))
            }
            Ingredient::Dope { .. } => boxed(self.dope_twin(index, seed, horizon)),
            Ingredient::Flood { .. } | Ingredient::Vector { .. } => {
                boxed(self.vector_twin(index, seed, horizon))
            }
        }
    }
}

/// A tool flood on `victim` over a fixed botnet: constant envelope,
/// the victim's CPU profile, its own URL.
fn botnet(tool: AttackTool, victim: ServiceKind, bots: u32) -> AttackVectorSpec {
    AttackVectorSpec {
        tool,
        victim,
        envelope: Envelope::Constant,
        plan: SourcePlan::Botnet { bots },
        profile: ResourceProfile::Cpu,
        target: TargetPlan::Fixed,
    }
}

/// An attack whose window is empty: it holds its ingredient's index and
/// sends nothing.
struct Inert;

impl TrafficSource for Inert {
    fn next_request(&mut self, _now: SimTime) -> Option<Request> {
        None
    }

    fn label(&self) -> &str {
        "inert"
    }

    fn is_attacker(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceEvent;
    use simcore::SimDuration;
    use std::collections::HashSet;

    fn horizon() -> SimTime {
        SimTime::from_secs(30)
    }

    /// Up to `n` requests, pulled the way the engine pulls them, with
    /// every request fed back (as completed, every 50th as blocked) so
    /// closed-loop and adaptive sources keep going.
    fn drain(src: &mut dyn TrafficSource, n: usize) -> Vec<Request> {
        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        while out.len() < n {
            let Some(r) = src.next_request(last) else { break };
            last = r.arrival;
            let event = if out.len() % 50 == 49 {
                SourceEvent::Blocked(r.source)
            } else {
                SourceEvent::Completed(r.source)
            };
            src.feedback(last, event);
            out.push(r);
        }
        out
    }

    #[test]
    fn pinned_ingredients_match_their_direct_constructors() {
        let seed = 2019;
        let h = SimTime::from_secs(600);
        let s = SimTime::from_secs;
        let cf = ServiceKind::CollaFilt;
        let http = AttackTool::HttpLoad { rate: 390.0 };
        let ab = AttackTool::ApacheBench { concurrency: 14 };
        let rotating = TargetPlan::Rotating {
            url_base: 800,
            url_space: 6,
            period: SimDuration::from_secs(20),
        };
        let concentrating = TargetPlan::Concentrating {
            racks: 4,
            url_base: 900,
            period: SimDuration::from_secs(7),
        };
        let dope = DopeConfig {
            initial_rate: 50.0,
            max_rate: 800.0,
            ..DopeConfig::default()
        };
        let cases: Vec<(&str, ScenarioBuilder, Box<dyn TrafficSource>)> = vec![
            (
                "NormalUsers::new",
                ScenarioBuilder::new()
                    .with_normal_users(80.0, 60)
                    .pinned(1_000, 0, SeedPin::Raw),
                Box::new(NormalUsers::new(
                    UtilizationTrace::synthesize(&AlibabaTraceConfig::small(seed)),
                    ServiceMix::alios_normal(),
                    80.0,
                    1_000,
                    60,
                    0,
                    h,
                    seed,
                )),
            ),
            (
                "against_service, http-load",
                ScenarioBuilder::new()
                    .with_attack(http, cf, 40, 5)
                    .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED)),
                Box::new(AttackVector::against_service(
                    http, cf, 50_000, 40, 1 << 40, s(5), h, seed ^ 0x5EED,
                )),
            ),
            (
                "against_service, ApacheBench",
                ScenarioBuilder::new()
                    .with_attack(ab, cf, 40, 5)
                    .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED)),
                Box::new(AttackVector::against_service(
                    ab, cf, 50_000, 40, 1 << 40, s(5), h, seed ^ 0x5EED,
                )),
            ),
            (
                "against_service, windowed",
                ScenarioBuilder::new()
                    .with_attack_window(http, ServiceKind::KMeans, 40, 5, 6)
                    .pinned(51_000, 2 << 40, SeedPin::Xor(2)),
                Box::new(AttackVector::against_service(
                    http,
                    ServiceKind::KMeans,
                    51_000,
                    40,
                    2 << 40,
                    s(5),
                    s(6),
                    seed ^ 2,
                )),
            ),
            (
                "with_rotation",
                ScenarioBuilder::new()
                    .with_vector(botnet(http, cf, 40).target(rotating), 5)
                    .pinned(50_000, 1 << 40, SeedPin::Xor(0x707A7E)),
                Box::new(
                    AttackVector::against_service(
                        http, cf, 50_000, 40, 1 << 40, s(5), h, seed ^ 0x707A7E,
                    )
                    .with_rotation(800, 6, SimDuration::from_secs(20), seed ^ 0x707A7E),
                ),
            ),
            (
                "with_concentration",
                ScenarioBuilder::new()
                    .with_vector(botnet(http, cf, 40).target(concentrating), 5)
                    .pinned(50_000, 1 << 40, SeedPin::Raw),
                Box::new(
                    AttackVector::against_service(http, cf, 50_000, 40, 1 << 40, s(5), h, seed)
                        .with_concentration(4, 900, SimDuration::from_secs(7), seed),
                ),
            ),
            (
                "AttackVector::flood",
                ScenarioBuilder::new()
                    .with_flood(FloodKind::HttpFlood, 1_000.0, 200, 5)
                    .pinned(50_000, 1 << 40, SeedPin::Xor(0xF100D)),
                Box::new(AttackVector::flood(
                    FloodKind::HttpFlood,
                    1_000.0,
                    50_000,
                    200,
                    1 << 40,
                    s(5),
                    h,
                    seed ^ 0xF100D,
                )),
            ),
            (
                "DopeAttacker::new",
                ScenarioBuilder::new()
                    .with_dope(dope.clone(), 5)
                    .pinned(50_000, 1 << 40, SeedPin::Xor(0xD09E)),
                Box::new(DopeAttacker::new(dope, 50_000, 1 << 40, s(5), h, seed ^ 0xD09E)),
            ),
        ];
        for (name, builder, mut direct) in cases {
            let mut built = builder.build(seed, h);
            assert_eq!(built.len(), 1, "{name}");
            let want = drain(direct.as_mut(), 500);
            assert!(want.len() >= 100, "{name}: only {} requests", want.len());
            assert_eq!(drain(built[0].as_mut(), 500), want, "{name}");
        }
    }

    #[test]
    fn twins_match_the_built_sources() {
        let b = ScenarioBuilder::new()
            .with_normal_users(80.0, 60)
            .with_flood(FloodKind::DnsFlood, 500.0, 20, 2)
            .with_dope(DopeConfig::default(), 1)
            .with_vector(
                AttackVectorSpec::open_loop(ServiceKind::KMeans, 200.0).target(
                    TargetPlan::Rotating {
                        url_base: 800,
                        url_space: 4,
                        period: SimDuration::from_secs(3),
                    },
                ),
                2,
            );
        let mut built = b.build(11, horizon());
        assert!(b.vector_twin(0, 11, horizon()).is_none());
        assert!(b.dope_twin(1, 11, horizon()).is_none());
        for i in [1, 3] {
            let mut twin = b.vector_twin(i, 11, horizon()).expect("a vector ingredient");
            assert_eq!(drain(&mut twin, 300), drain(built[i].as_mut(), 300), "ingredient {i}");
        }
        let mut dope = b.dope_twin(2, 11, horizon()).expect("a DOPE ingredient");
        assert_eq!(drain(&mut dope, 300), drain(built[2].as_mut(), 300));
    }

    #[test]
    fn attack_past_the_horizon_is_inert_and_keeps_every_placement() {
        let short = SimTime::from_secs(3);
        let spec = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 400.0);
        let late = ScenarioBuilder::new()
            .with_attack(AttackTool::HttpLoad { rate: 400.0 }, ServiceKind::CollaFilt, 10, 5)
            .with_flood(FloodKind::SynFlood, 1_000.0, 50, 3)
            .with_dope(DopeConfig::default(), 3)
            .with_vector(spec.clone(), 3)
            .with_attack_window(AttackTool::HttpLoad { rate: 1.0 }, ServiceKind::KMeans, 1, 4, 9)
            .with_normal_users(80.0, 20);
        let mut sources = late.build(7, short);
        assert_eq!(sources.len(), 6);
        for (i, src) in sources[..5].iter_mut().enumerate() {
            assert!(src.is_attacker(), "ingredient {i}");
            assert!(src.next_request(SimTime::ZERO).is_none(), "ingredient {i} sent a request");
        }
        assert!(late.vector_twin(1, 7, short).is_none());
        assert!(late.dope_twin(2, 7, short).is_none());
        assert!(late.vector_twin(3, 7, short).is_none());
        // The users behind the inert attacks build exactly as they do
        // behind live ones.
        let live = ScenarioBuilder::new()
            .with_vector(spec.clone(), 0)
            .with_vector(spec.clone(), 0)
            .with_vector(spec.clone(), 0)
            .with_vector(spec.clone(), 0)
            .with_vector(spec, 0)
            .with_normal_users(80.0, 20);
        let mut reference = live.build(7, short);
        let users = drain(sources[5].as_mut(), 200);
        assert!(!users.is_empty());
        assert_eq!(users, drain(reference[5].as_mut(), 200));
    }

    #[test]
    fn builds_all_ingredient_kinds() {
        let b = ScenarioBuilder::new()
            .with_normal_users(50.0, 20)
            .with_attack(AttackTool::HttpLoad { rate: 100.0 }, ServiceKind::CollaFilt, 10, 2)
            .with_flood(FloodKind::SynFlood, 1000.0, 50, 0)
            .with_dope(DopeConfig::default(), 1);
        assert_eq!(b.len(), 4);
        let sources = b.build(7, horizon());
        assert_eq!(sources.len(), 4);
        assert!(!sources[0].is_attacker());
        assert!(sources[1].is_attacker());
        assert!(sources[2].is_attacker());
        assert!(sources[3].is_attacker());
    }

    #[test]
    fn id_spaces_are_disjoint() {
        let b = ScenarioBuilder::new()
            .with_normal_users(100.0, 10)
            .with_attack(AttackTool::HttpLoad { rate: 200.0 }, ServiceKind::KMeans, 10, 0);
        let mut sources = b.build(3, horizon());
        let mut ids = HashSet::new();
        let mut addrs: Vec<HashSet<u32>> = vec![HashSet::new(), HashSet::new()];
        for (i, src) in sources.iter_mut().enumerate() {
            let mut last = SimTime::ZERO;
            for _ in 0..200 {
                let Some(r) = src.next_request(last) else { break };
                assert!(ids.insert(r.id), "duplicate id {:?}", r.id);
                addrs[i].insert(r.source.0);
                last = r.arrival;
            }
        }
        assert!(addrs[0].is_disjoint(&addrs[1]), "client pools overlap");
    }

    #[test]
    fn build_is_deterministic_and_repeatable() {
        let b = ScenarioBuilder::new()
            .with_normal_users(80.0, 20)
            .with_attack(AttackTool::HttpLoad { rate: 100.0 }, ServiceKind::CollaFilt, 5, 1);
        let collect = |mut v: Vec<Box<dyn TrafficSource>>| {
            let mut out = Vec::new();
            for src in v.iter_mut() {
                let mut last = SimTime::ZERO;
                for _ in 0..100 {
                    let Some(r) = src.next_request(last) else { break };
                    last = r.arrival;
                    out.push((r.id, r.arrival));
                }
            }
            out
        };
        let a = collect(b.build(9, horizon()));
        let c = collect(b.build(9, horizon()));
        assert_eq!(a, c);
        let d = collect(b.build(10, horizon()));
        assert_ne!(a, d);
    }

    #[test]
    fn attack_window_bounds_arrivals() {
        let b = ScenarioBuilder::new().with_attack_window(
            AttackTool::HttpLoad { rate: 500.0 },
            ServiceKind::WordCount,
            10,
            5,
            10,
        );
        let mut sources = b.build(1, horizon());
        let mut last = SimTime::ZERO;
        while let Some(r) = sources[0].next_request(last) {
            assert!(r.arrival >= SimTime::from_secs(5));
            assert!(r.arrival < SimTime::from_secs(10));
            last = r.arrival;
        }
    }

    #[test]
    fn empty_builder_builds_nothing() {
        let b = ScenarioBuilder::new();
        assert!(b.is_empty());
        assert!(b.build(1, horizon()).is_empty());
    }
}
