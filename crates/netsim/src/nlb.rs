//! The network load balancer.
//!
//! Routes each admitted request to a backend server under a pluggable
//! [`ForwardingPolicy`]:
//!
//! * `RoundRobin` — the vanilla NLB the paper's baselines run.
//! * `LeastLoaded` — joins the shortest queue using load feedback.
//! * `UrlSplit` — the paper's PDF mechanism: URLs on the suspect list go
//!   to the isolated *suspect pool*, everything else to the main pool
//!   (the "url-based forwarding module" + "package rewriter" of Fig 14).
//! * `AdaptiveSplit` — PDF driven by the online power-attribution
//!   profiler: the same pool split, but the URL → class map is published
//!   at runtime (and re-published as the profiler learns), so no offline
//!   profile is needed. Classification stays an O(1) hash lookup on the
//!   forwarding hot path.

use crate::error::ConfigError;
use crate::request::{Request, UrlId};
use crate::suspect::{FlowClass, SuspectList};
use simcore::FxHashMap;

/// How the NLB picks a backend.
#[derive(Debug, Clone)]
pub enum ForwardingPolicy {
    /// Cycle through all backends.
    RoundRobin,
    /// Pick the backend with the smallest reported load.
    LeastLoaded,
    /// PDF: split by suspect list into two pools, round-robin within
    /// each pool.
    UrlSplit {
        /// The offline-profiled suspect list.
        list: SuspectList,
        /// Backend indices reserved for suspect flows.
        suspect_pool: Vec<usize>,
        /// Backend indices serving innocent flows.
        innocent_pool: Vec<usize>,
    },
    /// Oracle-free PDF: split by a class map the online profiler
    /// publishes between monitor ticks (hot-swapped via
    /// [`Nlb::publish_classes`]).
    AdaptiveSplit {
        /// Published URL classifications.
        classes: FxHashMap<UrlId, FlowClass>,
        /// Class for URLs the profiler has not (yet) decided.
        default_class: FlowClass,
        /// Backend indices reserved for suspect flows.
        suspect_pool: Vec<usize>,
        /// Backend indices serving innocent flows.
        innocent_pool: Vec<usize>,
    },
}

/// Physical placement of backends onto racks, for topology-aware
/// routing. Each URL has a deterministic *home rack* (`url mod racks`);
/// routing prefers healthy backends in a request's home rack so a rack
/// outage degrades only the flows homed there, and falls back to the
/// placement-blind policy when the home rack has no healthy candidate.
#[derive(Debug, Clone)]
pub struct RackPlacement {
    racks: usize,
    rack_of: Vec<usize>,
}

impl RackPlacement {
    /// Placement of `rack_of.len()` backends onto `racks` racks
    /// (`rack_of[backend]` = owning rack).
    pub fn new(racks: usize, rack_of: Vec<usize>) -> Result<Self, ConfigError> {
        if racks == 0 || rack_of.is_empty() {
            return Err(ConfigError::NoBackends);
        }
        if let Some((backend, &rack)) = rack_of.iter().enumerate().find(|&(_, &r)| r >= racks) {
            return Err(ConfigError::RackOutOfRange {
                backend,
                rack,
                racks,
            });
        }
        Ok(RackPlacement { racks, rack_of })
    }

    /// The home rack of a URL: `url mod racks`. Deterministic, so the
    /// same service always concentrates on the same rack — which is
    /// exactly the affinity a concentrating flood exploits.
    pub(crate) fn home_rack(&self, url: UrlId) -> usize {
        url.0 as usize % self.racks
    }
}

/// Sorted pool positions of each rack in CSR form: the members of rack
/// `r` sit at pool positions `positions[offsets[r]..offsets[r + 1]]`,
/// ascending. Built once per pool by [`Nlb::set_placement`] with one
/// counting pass and no per-rack allocations.
#[derive(Debug, Clone)]
struct RackIndex {
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl RackIndex {
    /// Index the `len` pool positions, where `rack_at(p)` is the rack of
    /// the backend at position `p`. Positions are stored as `u32`, so a
    /// longer pool is rejected.
    fn build(
        racks: usize,
        len: usize,
        rack_at: impl Fn(usize) -> usize,
    ) -> Result<Self, ConfigError> {
        if u32::try_from(len).is_err() {
            return Err(ConfigError::Parameter {
                component: "Nlb",
                field: "pool length",
                value: len as f64,
            });
        }
        // Count each rack's members, prefix-sum to each rack's end, then
        // place positions back to front so every rack's run ascends and
        // each rack's end offset slides down to its start.
        let mut offsets = vec![0u32; racks + 1];
        for p in 0..len {
            offsets[rack_at(p)] += 1;
        }
        let mut end = 0;
        for o in &mut offsets[..racks] {
            end += *o;
            *o = end;
        }
        offsets[racks] = end;
        let mut positions = vec![0u32; len];
        for p in (0..len).rev() {
            let slot = &mut offsets[rack_at(p)];
            *slot -= 1;
            positions[*slot as usize] = p as u32;
        }
        Ok(RackIndex { offsets, positions })
    }

    /// Pool positions of rack `rack`, ascending.
    fn members(&self, rack: usize) -> &[u32] {
        &self.positions[self.offsets[rack] as usize..self.offsets[rack + 1] as usize]
    }

    /// Round-robin over a `len`-member pool restricted to rack `home`,
    /// skipping unhealthy members; `backend_at(p)` is the backend at
    /// position `p`. Returns what a cursor stepping through the whole pool
    /// one position at a time would: the first healthy home-rack member
    /// cyclically at or after position `cursor % len`, with the cursor
    /// advanced past it, or `None` with the cursor advanced by `len` when
    /// the rack has no healthy member. Costs a binary search plus the
    /// unhealthy home-rack members skipped.
    fn pick(
        &self,
        len: usize,
        backend_at: impl Fn(usize) -> usize,
        cursor: &mut usize,
        healthy: &[bool],
        home: usize,
    ) -> Option<usize> {
        let start = *cursor % len;
        let members = self.members(home);
        let (wrapped, ahead) = members.split_at(members.partition_point(|&p| (p as usize) < start));
        for &p in ahead.iter().chain(wrapped) {
            let p = p as usize;
            let b = backend_at(p);
            if healthy[b] {
                let steps = if p >= start {
                    p - start
                } else {
                    p + len - start
                };
                *cursor = cursor.wrapping_add(steps + 1);
                return Some(b);
            }
        }
        *cursor = cursor.wrapping_add(len);
        None
    }
}

/// A rack placement plus the rack index of every pool the policy routes
/// through: `[all backends]` for `RoundRobin` and `LeastLoaded`,
/// `[suspect pool, innocent pool]` for the split policies. Pools are
/// fixed at [`Nlb::new`], so the index never goes stale.
#[derive(Debug, Clone)]
struct RackRouting {
    placement: RackPlacement,
    pools: Vec<RackIndex>,
}

/// Index of the suspect pool in [`RackRouting::pools`] (split policies).
const SUSPECT: usize = 0;
/// Index of the innocent pool in [`RackRouting::pools`] (split policies).
const INNOCENT: usize = 1;

/// The load balancer: a forwarding policy over `n` backends.
#[derive(Debug, Clone)]
pub struct Nlb {
    backends: usize,
    policy: ForwardingPolicy,
    rr_cursor: usize,
    suspect_cursor: usize,
    innocent_cursor: usize,
    /// Dedicated cursor for rack-affine picks, so enabling a placement
    /// never perturbs the placement-blind cursors.
    rack_cursor: usize,
    /// Last reported per-backend load (in-flight counts). Only
    /// `LeastLoaded` reads loads, so the other policies keep none.
    loads: Vec<usize>,
    /// Health-check verdict per backend; routing skips unhealthy ones.
    healthy: Vec<bool>,
    /// Backend → rack placement and its pool indexes, when the cluster
    /// is topology-aware.
    rack: Option<RackRouting>,
    forwarded: u64,
    to_suspect_pool: u64,
}

impl Nlb {
    /// NLB over `backends` servers.
    pub fn new(backends: usize, policy: ForwardingPolicy) -> Result<Self, ConfigError> {
        if backends < 1 {
            return Err(ConfigError::NoBackends);
        }
        if let ForwardingPolicy::UrlSplit {
            suspect_pool,
            innocent_pool,
            ..
        }
        | ForwardingPolicy::AdaptiveSplit {
            suspect_pool,
            innocent_pool,
            ..
        } = &policy
        {
            if suspect_pool.is_empty() {
                return Err(ConfigError::EmptyPool { pool: "suspect" });
            }
            if innocent_pool.is_empty() {
                return Err(ConfigError::EmptyPool { pool: "innocent" });
            }
            if let Some(&index) = suspect_pool
                .iter()
                .chain(innocent_pool)
                .find(|&&i| i >= backends)
            {
                return Err(ConfigError::PoolIndexOutOfRange { index, backends });
            }
            // One membership pass over the innocent pool, then the first
            // suspect index it holds: O(suspect + innocent + backends).
            let mut innocent = vec![false; backends];
            for &i in innocent_pool {
                innocent[i] = true;
            }
            if let Some(&index) = suspect_pool.iter().find(|&&i| innocent[i]) {
                return Err(ConfigError::OverlappingPools { index });
            }
        }
        let loads = match policy {
            ForwardingPolicy::LeastLoaded => vec![0; backends],
            _ => Vec::new(),
        };
        Ok(Nlb {
            backends,
            policy,
            rr_cursor: 0,
            suspect_cursor: 0,
            innocent_cursor: 0,
            rack_cursor: 0,
            loads,
            healthy: vec![true; backends],
            rack: None,
            forwarded: 0,
            to_suspect_pool: 0,
        })
    }

    /// Attach a backend → rack placement; routing becomes rack-affine
    /// (see [`RackPlacement`]). The placement must cover every backend.
    /// Indexes each pool the policy routes through by rack, so a
    /// rack-affine pick costs O(log rack size) rather than a pool scan.
    pub fn set_placement(&mut self, placement: RackPlacement) -> Result<(), ConfigError> {
        if placement.rack_of.len() != self.backends {
            return Err(ConfigError::PoolIndexOutOfRange {
                index: placement.rack_of.len(),
                backends: self.backends,
            });
        }
        let index_pool = |pool: &[usize]| {
            RackIndex::build(placement.racks, pool.len(), |p| placement.rack_of[pool[p]])
        };
        let pools = match &self.policy {
            ForwardingPolicy::RoundRobin | ForwardingPolicy::LeastLoaded => {
                vec![RackIndex::build(placement.racks, self.backends, |b| {
                    placement.rack_of[b]
                })?]
            }
            ForwardingPolicy::UrlSplit {
                suspect_pool,
                innocent_pool,
                ..
            }
            | ForwardingPolicy::AdaptiveSplit {
                suspect_pool,
                innocent_pool,
                ..
            } => vec![index_pool(suspect_pool)?, index_pool(innocent_pool)?],
        };
        self.rack = Some(RackRouting { placement, pools });
        Ok(())
    }

    /// Feed back a backend's current in-flight count (LeastLoaded input;
    /// the other policies ignore it).
    pub fn report_load(&mut self, backend: usize, inflight: usize) {
        if !self.loads.is_empty() {
            self.loads[backend] = inflight;
        }
    }

    /// Bulk load refresh for slot-batched engines: overwrite the load
    /// estimates of the backends starting at `first` from a contiguous
    /// in-flight column. The sharded cluster engine calls this once per
    /// shard at each slot boundary instead of `report_load` per event,
    /// which also discards the optimistic increments LeastLoaded routing
    /// accumulated during the slot. The other policies ignore it.
    pub fn sync_loads(&mut self, first: usize, inflight: &[u32]) {
        if self.loads.is_empty() {
            return;
        }
        let dst = &mut self.loads[first..first + inflight.len()];
        for (l, &c) in dst.iter_mut().zip(inflight) {
            *l = c as usize;
        }
    }

    /// Health-check verdict for a backend. Unhealthy backends are skipped
    /// by all forwarding policies until marked healthy again.
    pub fn set_health(&mut self, backend: usize, ok: bool) {
        self.healthy[backend] = ok;
    }

    /// Whether a backend currently passes health checks.
    #[cfg(test)]
    pub(crate) fn is_healthy(&self, backend: usize) -> bool {
        self.healthy[backend]
    }

    /// Number of backends currently passing health checks.
    #[cfg(test)]
    pub(crate) fn healthy_backends(&self) -> usize {
        self.healthy.iter().filter(|&&h| h).count()
    }

    /// Total requests forwarded.
    #[cfg(test)]
    pub(crate) fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Requests sent to the suspect pool (UrlSplit only).
    pub fn to_suspect_pool(&self) -> u64 {
        self.to_suspect_pool
    }

    /// Publish the online profiler's URL classes into an `AdaptiveSplit`
    /// policy; a no-op under every other policy. Only the class map can
    /// change after [`Nlb::new`] — the pools, and so the rack index built
    /// over them, stay fixed.
    pub fn publish_classes(&mut self, published: &FxHashMap<UrlId, FlowClass>) {
        if let ForwardingPolicy::AdaptiveSplit { classes, .. } = &mut self.policy {
            classes.clone_from(published);
        }
    }

    /// Choose the backend for `req`.
    ///
    /// With a [`RackPlacement`] attached, every policy first tries a
    /// healthy backend in the request's home rack (within whatever pool
    /// the policy selected) and only falls back to the placement-blind
    /// pick when the home rack has none — so circuit breakers and rack
    /// outages shift only the flows homed on the dark rack.
    ///
    /// Unhealthy backends are routed around: round-robin cursors skip
    /// them, least-loaded ignores them in the min-scan, and UrlSplit
    /// skips them within each pool. If *every* candidate is unhealthy the
    /// NLB still forwards (to the first candidate it tried) — a dead
    /// backend rejecting the request models the real-world connection
    /// failure better than the balancer silently black-holing it.
    pub fn route(&mut self, req: &Request) -> usize {
        self.forwarded += 1;
        match &self.policy {
            ForwardingPolicy::RoundRobin => {
                if let Some(r) = &self.rack {
                    let home = r.placement.home_rack(req.url);
                    if let Some(b) = r.pools[0].pick(
                        self.backends,
                        |b| b,
                        &mut self.rack_cursor,
                        &self.healthy,
                        home,
                    ) {
                        return b;
                    }
                }
                let first = self.rr_cursor % self.backends;
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                let mut b = first;
                let mut tried = 1;
                while !self.healthy[b] && tried < self.backends {
                    b = self.rr_cursor % self.backends;
                    self.rr_cursor = self.rr_cursor.wrapping_add(1);
                    tried += 1;
                }
                if self.healthy[b] {
                    b
                } else {
                    first
                }
            }
            ForwardingPolicy::LeastLoaded => {
                // Min-scan restricted to the home rack first.
                let in_rack = self.rack.as_ref().and_then(|r| {
                    let members = r.pools[0].members(r.placement.home_rack(req.url));
                    least_loaded(
                        members.iter().map(|&b| b as usize),
                        &self.healthy,
                        &self.loads,
                    )
                });
                let b = in_rack
                    .or_else(|| least_loaded(0..self.backends, &self.healthy, &self.loads))
                    .unwrap_or(0);
                // Optimistically count the new request so bursts spread.
                self.loads[b] += 1;
                b
            }
            ForwardingPolicy::UrlSplit {
                list,
                suspect_pool,
                innocent_pool,
            } => {
                let (pool, cursor, slot) = if list.is_suspect(req.url) {
                    self.to_suspect_pool += 1;
                    (suspect_pool, &mut self.suspect_cursor, SUSPECT)
                } else {
                    (innocent_pool, &mut self.innocent_cursor, INNOCENT)
                };
                if let Some(r) = &self.rack {
                    let home = r.placement.home_rack(req.url);
                    if let Some(b) = r.pools[slot].pick(
                        pool.len(),
                        |p| pool[p],
                        &mut self.rack_cursor,
                        &self.healthy,
                        home,
                    ) {
                        return b;
                    }
                }
                pick_healthy(pool, cursor, &self.healthy)
            }
            ForwardingPolicy::AdaptiveSplit {
                classes,
                default_class,
                suspect_pool,
                innocent_pool,
            } => {
                let class = classes.get(&req.url).copied().unwrap_or(*default_class);
                let (pool, cursor, slot) = if class == FlowClass::Suspect {
                    self.to_suspect_pool += 1;
                    (suspect_pool, &mut self.suspect_cursor, SUSPECT)
                } else {
                    (innocent_pool, &mut self.innocent_cursor, INNOCENT)
                };
                if let Some(r) = &self.rack {
                    let home = r.placement.home_rack(req.url);
                    if let Some(b) = r.pools[slot].pick(
                        pool.len(),
                        |p| pool[p],
                        &mut self.rack_cursor,
                        &self.healthy,
                        home,
                    ) {
                        return b;
                    }
                }
                pick_healthy(pool, cursor, &self.healthy)
            }
        }
    }
}

/// The healthy candidate with the smallest load; ties break on the
/// earliest candidate, so ascending candidates break on the lowest index
/// for determinism.
fn least_loaded(
    candidates: impl Iterator<Item = usize>,
    healthy: &[bool],
    loads: &[usize],
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for i in candidates.filter(|&i| healthy[i]) {
        match best {
            Some(b) if loads[i] >= loads[b] => {}
            _ => best = Some(i),
        }
    }
    best
}

/// Round-robin within `pool`, skipping unhealthy members; if every member
/// is down, falls back to the first candidate tried (see [`Nlb::route`]).
fn pick_healthy(pool: &[usize], cursor: &mut usize, healthy: &[bool]) -> usize {
    let first = pool[*cursor % pool.len()];
    *cursor = cursor.wrapping_add(1);
    let mut b = first;
    let mut tried = 1;
    while !healthy[b] && tried < pool.len() {
        b = pool[*cursor % pool.len()];
        *cursor = cursor.wrapping_add(1);
        tried += 1;
    }
    if healthy[b] {
        b
    } else {
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestBuilder, SourceId, UrlId};
    use crate::suspect::FlowClass;
    use simcore::SimTime;

    fn req(b: &mut RequestBuilder, url: u16) -> Request {
        b.build(
            UrlId(url),
            SourceId(0),
            SimTime::ZERO,
            1.0,
            0.5,
            0.5,
            0.5,
            false,
        )
    }

    #[test]
    fn round_robin_cycles() {
        let mut nlb = Nlb::new(3, ForwardingPolicy::RoundRobin).unwrap();
        let mut b = RequestBuilder::new();
        let picks: Vec<usize> = (0..6).map(|_| nlb.route(&req(&mut b, 0))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(nlb.forwarded(), 6);
    }

    #[test]
    fn least_loaded_follows_feedback() {
        let mut nlb = Nlb::new(3, ForwardingPolicy::LeastLoaded).unwrap();
        let mut b = RequestBuilder::new();
        nlb.report_load(0, 10);
        nlb.report_load(1, 2);
        nlb.report_load(2, 5);
        assert_eq!(nlb.route(&req(&mut b, 0)), 1);
        // Optimistic increment: backend 1 now at 3, still smallest.
        assert_eq!(nlb.route(&req(&mut b, 0)), 1);
        nlb.report_load(1, 20);
        assert_eq!(nlb.route(&req(&mut b, 0)), 2);
    }

    #[test]
    fn least_loaded_spreads_bursts() {
        let mut nlb = Nlb::new(4, ForwardingPolicy::LeastLoaded).unwrap();
        let mut b = RequestBuilder::new();
        // With zero feedback, optimistic counting spreads a burst evenly.
        let picks: Vec<usize> = (0..8).map(|_| nlb.route(&req(&mut b, 0))).collect();
        let mut counts = [0usize; 4];
        for p in picks {
            counts[p] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    fn split_nlb() -> Nlb {
        let mut list = SuspectList::new(0.7, FlowClass::Innocent).unwrap();
        list.set_profile(UrlId(0), 0.95).unwrap(); // suspect
        list.set_profile(UrlId(3), 0.3).unwrap(); // innocent
        Nlb::new(
            4,
            ForwardingPolicy::UrlSplit {
                list,
                suspect_pool: vec![3],
                innocent_pool: vec![0, 1, 2],
            },
        )
        .unwrap()
    }

    #[test]
    fn url_split_isolates_suspects() {
        let mut nlb = split_nlb();
        let mut b = RequestBuilder::new();
        for _ in 0..5 {
            assert_eq!(nlb.route(&req(&mut b, 0)), 3);
        }
        let innocents: Vec<usize> = (0..6).map(|_| nlb.route(&req(&mut b, 3))).collect();
        assert_eq!(innocents, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(nlb.to_suspect_pool(), 5);
    }

    #[test]
    fn url_split_unknown_url_uses_default() {
        let mut nlb = split_nlb();
        let mut b = RequestBuilder::new();
        // URL 42 unprofiled, default Innocent → main pool.
        assert!(nlb.route(&req(&mut b, 42)) < 3);
    }

    #[test]
    fn overlapping_pools_rejected() {
        let list = SuspectList::new(0.7, FlowClass::Innocent).unwrap();
        let err = Nlb::new(
            4,
            ForwardingPolicy::UrlSplit {
                list,
                suspect_pool: vec![0, 1],
                innocent_pool: vec![1, 2],
            },
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::OverlappingPools { index: 1 });
    }

    #[test]
    fn out_of_range_pool_rejected() {
        let list = SuspectList::new(0.7, FlowClass::Innocent).unwrap();
        let err = Nlb::new(
            2,
            ForwardingPolicy::UrlSplit {
                list,
                suspect_pool: vec![5],
                innocent_pool: vec![0],
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::PoolIndexOutOfRange {
                index: 5,
                backends: 2
            }
        );
        assert_eq!(
            Nlb::new(0, ForwardingPolicy::RoundRobin).unwrap_err(),
            ConfigError::NoBackends
        );
    }

    #[test]
    fn round_robin_skips_unhealthy() {
        let mut nlb = Nlb::new(3, ForwardingPolicy::RoundRobin).unwrap();
        let mut b = RequestBuilder::new();
        nlb.set_health(1, false);
        let picks: Vec<usize> = (0..4).map(|_| nlb.route(&req(&mut b, 0))).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
        // Recovery re-admits the backend into the rotation.
        nlb.set_health(1, true);
        assert_eq!(nlb.healthy_backends(), 3);
        let picks: Vec<usize> = (0..3).map(|_| nlb.route(&req(&mut b, 0))).collect();
        assert!(picks.contains(&1));
    }

    #[test]
    fn least_loaded_ignores_unhealthy() {
        let mut nlb = Nlb::new(3, ForwardingPolicy::LeastLoaded).unwrap();
        let mut b = RequestBuilder::new();
        nlb.report_load(0, 10);
        nlb.report_load(1, 2);
        nlb.report_load(2, 5);
        nlb.set_health(1, false);
        // Backend 1 has the least load but is down: pick 2 instead.
        assert_eq!(nlb.route(&req(&mut b, 0)), 2);
    }

    #[test]
    fn url_split_pool_routes_around_dead_member() {
        let mut nlb = split_nlb();
        let mut b = RequestBuilder::new();
        nlb.set_health(1, false);
        let innocents: Vec<usize> = (0..4).map(|_| nlb.route(&req(&mut b, 3))).collect();
        assert_eq!(innocents, vec![0, 2, 0, 2]);
        // Suspect pool has a single member; if it dies, traffic still
        // lands there (and is rejected by the dead node) rather than
        // leaking into the innocent pool.
        nlb.set_health(3, false);
        assert_eq!(nlb.route(&req(&mut b, 0)), 3);
    }

    fn adaptive_nlb() -> Nlb {
        Nlb::new(
            4,
            ForwardingPolicy::AdaptiveSplit {
                classes: FxHashMap::default(),
                default_class: FlowClass::Innocent,
                suspect_pool: vec![3],
                innocent_pool: vec![0, 1, 2],
            },
        )
        .unwrap()
    }

    #[test]
    fn adaptive_split_routes_by_published_classes() {
        let mut nlb = adaptive_nlb();
        let mut classes = FxHashMap::default();
        classes.insert(UrlId(0), FlowClass::Suspect);
        classes.insert(UrlId(3), FlowClass::Innocent);
        nlb.publish_classes(&classes);
        let mut b = RequestBuilder::new();
        for _ in 0..3 {
            assert_eq!(nlb.route(&req(&mut b, 0)), 3);
        }
        let innocents: Vec<usize> = (0..3).map(|_| nlb.route(&req(&mut b, 3))).collect();
        assert_eq!(innocents, vec![0, 1, 2]);
        // Unclassified URLs take the default class.
        assert!(nlb.route(&req(&mut b, 42)) < 3);
        assert_eq!(nlb.to_suspect_pool(), 3);
    }

    #[test]
    fn adaptive_split_hot_swap_reroutes() {
        let mut nlb = adaptive_nlb();
        let mut b = RequestBuilder::new();
        // Before the profiler learns anything, URL 7 rides the main pool.
        assert!(nlb.route(&req(&mut b, 7)) < 3);
        // The profiler publishes a new class map between ticks…
        let mut classes = FxHashMap::default();
        classes.insert(UrlId(7), FlowClass::Suspect);
        nlb.publish_classes(&classes);
        // …and the very next request is isolated.
        assert_eq!(nlb.route(&req(&mut b, 7)), 3);
    }

    #[test]
    fn adaptive_split_validates_pools_like_url_split() {
        let err = Nlb::new(
            4,
            ForwardingPolicy::AdaptiveSplit {
                classes: FxHashMap::default(),
                default_class: FlowClass::Innocent,
                suspect_pool: vec![2],
                innocent_pool: vec![1, 2],
            },
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::OverlappingPools { index: 2 });
        let err = Nlb::new(
            4,
            ForwardingPolicy::AdaptiveSplit {
                classes: FxHashMap::default(),
                default_class: FlowClass::Innocent,
                suspect_pool: vec![],
                innocent_pool: vec![0],
            },
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::EmptyPool { pool: "suspect" });
    }

    #[test]
    fn sync_loads_overwrites_optimistic_estimates() {
        let mut nlb = Nlb::new(4, ForwardingPolicy::LeastLoaded).unwrap();
        let mut b = RequestBuilder::new();
        // Optimistic increments pile up on the least-loaded pick.
        for _ in 0..4 {
            nlb.route(&req(&mut b, 0));
        }
        // A slot-boundary refresh from two shard columns replaces them.
        nlb.sync_loads(0, &[7, 0]);
        nlb.sync_loads(2, &[3, 3]);
        assert_eq!(nlb.route(&req(&mut b, 0)), 1, "backend 1 is now emptiest");
    }

    fn placed(policy: ForwardingPolicy) -> Nlb {
        // 4 backends, 2 racks: {0, 1} in rack 0, {2, 3} in rack 1.
        let mut nlb = Nlb::new(4, policy).unwrap();
        nlb.set_placement(RackPlacement::new(2, vec![0, 0, 1, 1]).unwrap())
            .unwrap();
        nlb
    }

    #[test]
    fn rack_affinity_routes_to_home_rack() {
        let mut nlb = placed(ForwardingPolicy::RoundRobin);
        let mut b = RequestBuilder::new();
        // URL 0 homes on rack 0, URL 1 on rack 1.
        for _ in 0..4 {
            assert!(nlb.route(&req(&mut b, 0)) < 2);
        }
        for _ in 0..4 {
            assert!(nlb.route(&req(&mut b, 1)) >= 2);
        }
    }

    #[test]
    fn rack_affinity_falls_back_when_home_rack_dark() {
        let mut nlb = placed(ForwardingPolicy::RoundRobin);
        let mut b = RequestBuilder::new();
        nlb.set_health(2, false);
        nlb.set_health(3, false);
        // URL 1 homes on rack 1, now fully dark: the pick falls back to
        // the placement-blind rotation over healthy backends.
        for _ in 0..4 {
            assert!(nlb.route(&req(&mut b, 1)) < 2);
        }
    }

    #[test]
    fn rack_affine_least_loaded_stays_in_rack() {
        let mut nlb = placed(ForwardingPolicy::LeastLoaded);
        let mut b = RequestBuilder::new();
        nlb.report_load(0, 9);
        nlb.report_load(1, 9);
        nlb.report_load(2, 0);
        // Rack 1 is emptier, but URL 0 homes on rack 0.
        assert!(nlb.route(&req(&mut b, 0)) < 2);
    }

    #[test]
    fn rack_affinity_respects_split_pools() {
        let mut list = SuspectList::new(0.7, FlowClass::Innocent).unwrap();
        list.set_profile(UrlId(0), 0.95).unwrap(); // suspect, homes on rack 0
        let mut nlb = Nlb::new(
            4,
            ForwardingPolicy::UrlSplit {
                list,
                suspect_pool: vec![3],
                innocent_pool: vec![0, 1, 2],
            },
        )
        .unwrap();
        nlb.set_placement(RackPlacement::new(2, vec![0, 0, 1, 1]).unwrap())
            .unwrap();
        let mut b = RequestBuilder::new();
        // The suspect pool has no rack-0 member: isolation wins over
        // affinity and the request still lands in the suspect pool.
        assert_eq!(nlb.route(&req(&mut b, 0)), 3);
        // Innocent URL 2 homes on rack 0; pool members 0..=2 include
        // rack-0 backends, so affinity keeps it there.
        assert!(nlb.route(&req(&mut b, 2)) < 2);
    }

    #[test]
    fn placement_validates_shape() {
        assert_eq!(
            RackPlacement::new(2, vec![0, 2]).unwrap_err(),
            ConfigError::RackOutOfRange {
                backend: 1,
                rack: 2,
                racks: 2
            }
        );
        assert_eq!(
            RackPlacement::new(0, vec![]).unwrap_err(),
            ConfigError::NoBackends
        );
        let mut nlb = Nlb::new(3, ForwardingPolicy::RoundRobin).unwrap();
        let err = nlb
            .set_placement(RackPlacement::new(2, vec![0, 1]).unwrap())
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::PoolIndexOutOfRange {
                index: 2,
                backends: 3
            }
        );
    }

    #[test]
    fn all_dead_still_forwards_deterministically() {
        let mut nlb = Nlb::new(2, ForwardingPolicy::RoundRobin).unwrap();
        let mut b = RequestBuilder::new();
        nlb.set_health(0, false);
        nlb.set_health(1, false);
        let first = nlb.route(&req(&mut b, 0));
        assert!(first < 2);
        assert_eq!(nlb.forwarded(), 1);
    }

    /// Stepwise reference for the rack-affine round-robin over
    /// `0..backends`: the cursor walks every backend until it meets a
    /// healthy member of rack `home`.
    fn pick_in_rack_range(
        backends: usize,
        cursor: &mut usize,
        healthy: &[bool],
        placement: &RackPlacement,
        home: usize,
    ) -> Option<usize> {
        for _ in 0..backends {
            let b = *cursor % backends;
            *cursor = cursor.wrapping_add(1);
            if placement.rack_of[b] == home && healthy[b] {
                return Some(b);
            }
        }
        None
    }

    /// Stepwise reference for the rack-affine round-robin within `pool`.
    fn pick_in_rack_pool(
        pool: &[usize],
        cursor: &mut usize,
        healthy: &[bool],
        placement: &RackPlacement,
        home: usize,
    ) -> Option<usize> {
        for _ in 0..pool.len() {
            let b = pool[*cursor % pool.len()];
            *cursor = cursor.wrapping_add(1);
            if placement.rack_of[b] == home && healthy[b] {
                return Some(b);
            }
        }
        None
    }

    /// [`Nlb::route`] without the rack index: the stepwise rack picks
    /// and a rack-affine least-loaded scan over every backend.
    fn reference_route(nlb: &mut Nlb, req: &Request) -> usize {
        let Nlb {
            backends,
            policy,
            rr_cursor,
            suspect_cursor,
            innocent_cursor,
            rack_cursor,
            loads,
            healthy,
            rack,
            forwarded,
            to_suspect_pool,
        } = nlb;
        let backends = *backends;
        let placement = rack.as_ref().map(|r| &r.placement);
        *forwarded += 1;
        let (pool, cursor) = match policy {
            ForwardingPolicy::RoundRobin => {
                if let Some(p) = placement {
                    let home = p.home_rack(req.url);
                    if let Some(b) = pick_in_rack_range(backends, rack_cursor, healthy, p, home) {
                        return b;
                    }
                }
                let first = *rr_cursor % backends;
                *rr_cursor = rr_cursor.wrapping_add(1);
                let mut b = first;
                let mut tried = 1;
                while !healthy[b] && tried < backends {
                    b = *rr_cursor % backends;
                    *rr_cursor = rr_cursor.wrapping_add(1);
                    tried += 1;
                }
                return if healthy[b] { b } else { first };
            }
            ForwardingPolicy::LeastLoaded => {
                if let Some(p) = placement {
                    let home = p.home_rack(req.url);
                    let mut best: Option<usize> = None;
                    for i in 0..backends {
                        if !healthy[i] || p.rack_of[i] != home {
                            continue;
                        }
                        match best {
                            Some(b) if loads[i] >= loads[b] => {}
                            _ => best = Some(i),
                        }
                    }
                    if let Some(b) = best {
                        loads[b] += 1;
                        return b;
                    }
                }
                let mut best: Option<usize> = None;
                for i in 0..backends {
                    if !healthy[i] {
                        continue;
                    }
                    match best {
                        Some(b) if loads[i] >= loads[b] => {}
                        _ => best = Some(i),
                    }
                }
                let b = best.unwrap_or(0);
                loads[b] += 1;
                return b;
            }
            ForwardingPolicy::UrlSplit {
                list,
                suspect_pool,
                innocent_pool,
            } => {
                if list.is_suspect(req.url) {
                    *to_suspect_pool += 1;
                    (&*suspect_pool, suspect_cursor)
                } else {
                    (&*innocent_pool, innocent_cursor)
                }
            }
            ForwardingPolicy::AdaptiveSplit {
                classes,
                default_class,
                suspect_pool,
                innocent_pool,
            } => {
                if classes.get(&req.url).copied().unwrap_or(*default_class) == FlowClass::Suspect {
                    *to_suspect_pool += 1;
                    (&*suspect_pool, suspect_cursor)
                } else {
                    (&*innocent_pool, innocent_cursor)
                }
            }
        };
        if let Some(p) = placement {
            let home = p.home_rack(req.url);
            if let Some(b) = pick_in_rack_pool(pool, rack_cursor, healthy, p, home) {
                return b;
            }
        }
        pick_healthy(pool, cursor, healthy)
    }

    /// Everything a pick may move: cursors, load estimates and counters.
    fn routing_state(nlb: &Nlb) -> (usize, usize, usize, usize, &[usize], u64, u64) {
        (
            nlb.rr_cursor,
            nlb.suspect_cursor,
            nlb.innocent_cursor,
            nlb.rack_cursor,
            &nlb.loads,
            nlb.forwarded,
            nlb.to_suspect_pool,
        )
    }

    /// An NLB under policy `kind` (0 RoundRobin, 1 LeastLoaded, 2 UrlSplit,
    /// 3 AdaptiveSplit) with `rack_of` attached as its placement. Split
    /// policies give the backends `pool_order` and cut it by `role`
    /// (0 suspect, 1 innocent, else neither); the first two backends in
    /// that order seed the suspect and innocent pools, so neither is empty.
    /// `suspect_urls` are the URLs the split policies isolate.
    fn placed_nlb(
        kind: u8,
        racks: usize,
        rack_of: Vec<usize>,
        pool_order: &[usize],
        role: &[u8],
        suspect_urls: &[u16],
    ) -> Nlb {
        let backends = rack_of.len();
        let (mut suspect_pool, mut innocent_pool) = (vec![pool_order[0]], vec![pool_order[1]]);
        for &b in &pool_order[2..] {
            match role[b] {
                0 => suspect_pool.push(b),
                1 => innocent_pool.push(b),
                _ => {}
            }
        }
        let policy = match kind {
            0 => ForwardingPolicy::RoundRobin,
            1 => ForwardingPolicy::LeastLoaded,
            2 => {
                let mut list = SuspectList::new(0.7, FlowClass::Innocent).unwrap();
                for &u in suspect_urls {
                    list.set_profile(UrlId(u), 0.95).unwrap();
                }
                ForwardingPolicy::UrlSplit {
                    list,
                    suspect_pool,
                    innocent_pool,
                }
            }
            _ => ForwardingPolicy::AdaptiveSplit {
                classes: suspect_urls
                    .iter()
                    .map(|&u| (UrlId(u), FlowClass::Suspect))
                    .collect(),
                default_class: FlowClass::Innocent,
                suspect_pool,
                innocent_pool,
            },
        };
        let mut nlb = Nlb::new(backends, policy).unwrap();
        nlb.set_placement(RackPlacement::new(racks, rack_of).unwrap())
            .unwrap();
        nlb
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The indexed picks equal the stepwise reference — same backend,
        /// same cursors — over random placements, split pools in random
        /// order, health masks (fully dark racks included), cursors in
        /// `0..3·len` and all four policies.
        #[test]
        fn prop_rack_index_matches_stepwise_reference(
            kind in 0u8..4,
            racks in 1usize..9,
            // (rack, pool role, pool order key, health: 0 = down)
            layout in proptest::collection::vec((0usize..64, 0u8..3, 0u32..1000, 0u8..4), 2..48),
            suspect_urls in proptest::collection::vec(0u16..32, 0..8),
            cursor in 0usize..1000,
            ops in proptest::collection::vec((0u8..9, 0usize..1000), 1..120),
        ) {
            use proptest::prelude::prop_assert_eq;
            let n = layout.len();
            let rack_of: Vec<usize> = layout.iter().map(|l| l.0 % racks).collect();
            let role: Vec<u8> = layout.iter().map(|l| l.1).collect();
            let mut pool_order: Vec<usize> = (0..n).collect();
            pool_order.sort_by_key(|&b| (layout[b].2, b));
            let mut nlb = placed_nlb(kind, racks, rack_of.clone(), &pool_order, &role, &suspect_urls);
            for (b, l) in layout.iter().enumerate() {
                nlb.set_health(b, l.3 != 0);
            }
            nlb.rack_cursor = cursor % (3 * n);
            let mut reference = nlb.clone();
            let mut builder = RequestBuilder::new();
            let mut published: FxHashMap<UrlId, FlowClass> = FxHashMap::default();
            for (op, x) in ops {
                match op {
                    0..=3 => {
                        let r = req(&mut builder, (x % 32) as u16);
                        let got = nlb.route(&r);
                        let want = reference_route(&mut reference, &r);
                        prop_assert_eq!(got, want);
                    }
                    4 => {
                        let b = x % n;
                        let ok = !nlb.is_healthy(b);
                        nlb.set_health(b, ok);
                        reference.set_health(b, ok);
                    }
                    5 => {
                        let dark = x % racks;
                        for b in (0..n).filter(|&b| rack_of[b] == dark) {
                            nlb.set_health(b, false);
                            reference.set_health(b, false);
                        }
                    }
                    6 => {
                        nlb.report_load(x % n, x / 7 % 5);
                        reference.report_load(x % n, x / 7 % 5);
                    }
                    7 => {
                        nlb.rack_cursor = x % (3 * n);
                        reference.rack_cursor = x % (3 * n);
                    }
                    _ => {
                        let url = UrlId((x % 32) as u16);
                        if published.remove(&url).is_none() {
                            published.insert(url, FlowClass::Suspect);
                        }
                        nlb.publish_classes(&published);
                        reference.publish_classes(&published);
                    }
                }
                prop_assert_eq!(routing_state(&nlb), routing_state(&reference));
            }
        }
    }

    #[test]
    fn rack_index_matches_reference_at_rack_scale() {
        // 10,000 backends in 1,000 contiguous racks, as the topology
        // places them; every 7th backend is a suspect-pool member. The
        // reference walks O(backends) per pick, so this is the slow test.
        let (backends, racks) = (10_000, 1_000);
        let rack_of: Vec<usize> = (0..backends).map(|b| b * racks / backends).collect();
        let order: Vec<usize> = (0..backends).collect();
        let role: Vec<u8> = (0..backends).map(|b| u8::from(b % 7 != 0)).collect();
        let suspect_urls: Vec<u16> = (0..400).step_by(13).collect();
        for kind in 0..4 {
            let mut nlb = placed_nlb(kind, racks, rack_of.clone(), &order, &role, &suspect_urls);
            let mut reference = nlb.clone();
            let mut rng = simcore::SimRng::new(0x5eed + u64::from(kind));
            let mut builder = RequestBuilder::new();
            // 20,000 routed requests over the four policies.
            for step in 0..5_000u64 {
                if step % 10 == 0 {
                    let b = rng.below(backends as u64) as usize;
                    let ok = !nlb.is_healthy(b);
                    nlb.set_health(b, ok);
                    reference.set_health(b, ok);
                }
                if step % 500 == 0 {
                    // Darken a whole rack, so its flows take the fallback.
                    let dark = rng.below(racks as u64) as usize;
                    for b in (0..backends).filter(|&b| rack_of[b] == dark) {
                        nlb.set_health(b, false);
                        reference.set_health(b, false);
                    }
                }
                let r = req(&mut builder, rng.below(400) as u16);
                assert_eq!(
                    nlb.route(&r),
                    reference_route(&mut reference, &r),
                    "step {step}"
                );
                assert_eq!(nlb.rack_cursor, reference.rack_cursor, "step {step}");
            }
            assert_eq!(routing_state(&nlb), routing_state(&reference));
        }
    }

    /// The pool checks of [`Nlb::new`] as they were first written: the
    /// overlap check scans the innocent pool once per suspect index,
    /// O(suspect × innocent).
    fn reference_pool_check(backends: usize, policy: &ForwardingPolicy) -> Result<(), ConfigError> {
        if backends < 1 {
            return Err(ConfigError::NoBackends);
        }
        if let ForwardingPolicy::UrlSplit {
            suspect_pool,
            innocent_pool,
            ..
        }
        | ForwardingPolicy::AdaptiveSplit {
            suspect_pool,
            innocent_pool,
            ..
        } = policy
        {
            if suspect_pool.is_empty() {
                return Err(ConfigError::EmptyPool { pool: "suspect" });
            }
            if innocent_pool.is_empty() {
                return Err(ConfigError::EmptyPool { pool: "innocent" });
            }
            if let Some(&index) = suspect_pool
                .iter()
                .chain(innocent_pool)
                .find(|&&i| i >= backends)
            {
                return Err(ConfigError::PoolIndexOutOfRange { index, backends });
            }
            if let Some(&index) = suspect_pool.iter().find(|i| innocent_pool.contains(i)) {
                return Err(ConfigError::OverlappingPools { index });
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// `Nlb::new` returns exactly the reference's verdict — same
        /// variant, same `index`, range errors before overlap errors —
        /// over random pools on 1–64 backends with overlaps, duplicates
        /// and out-of-range indices (and empty pools), under both split
        /// policies and the pool-free ones.
        #[test]
        fn prop_pool_check_matches_quadratic_reference(
            kind in 0u8..4,
            backends in 1usize..65,
            // Raw draws cut to `0..backends + 2`: two values in every
            // `backends + 2` are out of range, and small pools collide.
            suspect in proptest::collection::vec(0usize..1000, 0..24),
            innocent in proptest::collection::vec(0usize..1000, 0..48),
        ) {
            use proptest::prelude::prop_assert_eq;
            let cut = |pool: &[usize]| -> Vec<usize> {
                pool.iter().map(|&i| i % (backends + 2)).collect()
            };
            let (suspect_pool, innocent_pool) = (cut(&suspect), cut(&innocent));
            let policy = match kind {
                0 => ForwardingPolicy::RoundRobin,
                1 => ForwardingPolicy::LeastLoaded,
                2 => ForwardingPolicy::UrlSplit {
                    list: SuspectList::new(0.7, FlowClass::Innocent).unwrap(),
                    suspect_pool,
                    innocent_pool,
                },
                _ => ForwardingPolicy::AdaptiveSplit {
                    classes: FxHashMap::default(),
                    default_class: FlowClass::Innocent,
                    suspect_pool,
                    innocent_pool,
                },
            };
            let want = reference_pool_check(backends, &policy);
            prop_assert_eq!(Nlb::new(backends, policy).map(|_| ()), want);
        }
    }
}
